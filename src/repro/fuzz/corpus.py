"""Corpus persistence: minimized counterexamples and curated replay entries.

Two kinds of entries flow through here:

* **counterexamples** — when the oracle finds a disagreement, the shrunk
  case (plus the disagreement's axis and details) is written as one JSON
  file into the corpus directory (gitignored; CI uploads it as an artifact
  on failure).  ``tools/fuzz.py --replay`` re-judges every persisted file,
  so a fixed bug's counterexample stays green forever after;
* **legacy workloads** — the three hand-written deep-crossing generators
  from :mod:`repro.util.workloads` (the repo's original scenario suite),
  promoted to parametrized corpus entries.  They are replayed by
  ``tools/fuzz.py --replay`` and serve as the known-cost backbone of the
  QoS mixed-tenant batch in ``tests/test_fuzz.py``.

File naming is content-addressed (``<system>-<sha256 prefix>.json``) so
re-finding the same minimized program is idempotent.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Sequence

from repro.fuzz.generator import DEFAULT_FUEL, FuzzCase
from repro.fuzz.oracle import Disagreement

#: Default corpus directory, relative to the invoking working directory.
DEFAULT_CORPUS_DIR = "fuzz_corpus"

#: Depths at which the legacy hand-written workloads enter the corpus: the
#: shallow/deep pair the benches always used plus two deeper rungs (the
#: recursive frontends parse comfortably to ~depth 80).
LEGACY_DEPTHS = (2, 6, 12, 24)


def case_filename(case: FuzzCase) -> str:
    digest = hashlib.sha256(case.source.encode("utf-8")).hexdigest()[:12]
    return f"{case.system}-{digest}.json"


def save_counterexample(directory: str, disagreement: Disagreement) -> str:
    """Persist a (shrunk) disagreement; returns the file path written."""
    os.makedirs(directory, exist_ok=True)
    payload: Dict[str, Any] = dict(disagreement.case.to_dict())
    payload["disagreement"] = {
        "axis": disagreement.axis,
        "details": {key: str(value) for key, value in disagreement.details.items()},
    }
    path = os.path.join(directory, case_filename(disagreement.case))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_corpus(directory: str) -> List[FuzzCase]:
    """Every persisted case in ``directory``, in deterministic name order."""
    if not os.path.isdir(directory):
        return []
    cases = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            cases.append(FuzzCase.from_dict(json.load(handle)))
    return cases


def legacy_corpus_entries(depths: Sequence[int] = LEGACY_DEPTHS, fuel: Optional[int] = None) -> List[FuzzCase]:
    """The hand-written ``util.workloads`` generators as parametrized cases.

    One entry per ``(system, depth)``; these are ordinary ``kind="ok"``
    cases, so the oracle holds them to the full four-axis differential —
    the regression guarantee that the original scenario suite still agrees
    on every backend.
    """
    from repro.util.workloads import (
        nested_ml_affi_boundary,
        nested_ml_l3_boundary,
        nested_refll_boundary,
    )

    builders = (
        ("refs", "RefLL", nested_refll_boundary),
        ("affine", "MiniML", nested_ml_affi_boundary),
        ("l3", "MiniML", nested_ml_l3_boundary),
    )
    entries = []
    for index, depth in enumerate(depths):
        for system, language, builder in builders:
            entries.append(
                FuzzCase(
                    system=system,
                    language=language,
                    source=builder(depth),
                    kind="ok",
                    fuel=fuel if fuel is not None else DEFAULT_FUEL,
                    seed=-1,  # not generator-derived
                    index=index,
                )
            )
    return entries
