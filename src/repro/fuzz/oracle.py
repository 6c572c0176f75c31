"""The differential oracle: one generated program, every backend, no slack.

Each :class:`FuzzCase` is judged on four axes, mirroring (and reusing the
comparison discipline of) the repo's hand-written differential gates:

1. **Frontend contract** — expected-failure cases must make
   ``compile_source`` raise exactly the tagged structured error class;
   everything else must compile.
2. **Cross-backend observables** — the compiled program runs on both of
   the target's engines (``substitution`` and ``cek-compiled``); values and
   failure codes must match the substitution oracle.  Divergent cases must
   exhaust fuel on every backend.  Step counts are deliberately *not* compared across backends — fuel
   granularity is a per-backend notion (a compiled dispatch transition is
   coarser than a substitution rewrite).
3. **Snapshot/restore fuel accounting** — on every backend, the program
   is run sliced, snapshotted at a seeded-random slice boundary, restored,
   and driven to completion; the
   restored run's ``(value, failure, steps)`` must equal the uninterrupted
   run of the *same* backend exactly.  This is where step counts *are*
   compared: restore must not leak or invent fuel.  A sliced or restored
   run that raises is a ``crash`` disagreement, not a raw exception.
4. **Raw post-``callgc`` heaps** — at the machine level, below the
   ``RunResult`` normalization.  The compiled machine is compared with the
   substitution reference address-for-address: exact cells, exact
   collection counts, exact reclaim counts on LCVM, and the exact final
   heap on StackLang.

Any deviation becomes a :class:`Disagreement` — the currency the shrinker
minimizes and the corpus persists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.fuzz.generator import FuzzCase

OUT_OF_FUEL = "out_of_fuel"

#: Snapshot boundaries are taken after 1–3 slices of a small random width,
#: so the boundary lands mid-run for anything nontrivial.
SLICE_WIDTHS = (16, 32, 64)


def make_systems() -> Dict[str, Any]:
    """Fresh instances of all three case-study systems, keyed by short name."""
    from repro.interop_affine import make_system as make_affine
    from repro.interop_l3 import make_system as make_l3
    from repro.interop_refs import make_system as make_refs

    return {"refs": make_refs(), "affine": make_affine(), "l3": make_l3()}


@dataclass
class Disagreement:
    """A reproducible deviation between backends (or from a case's tag)."""

    case: FuzzCase
    #: Which oracle axis failed: ``frontend`` | ``observable`` |
    #: ``divergence`` | ``snapshot`` | ``heap`` | ``crash``.
    axis: str
    details: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        detail = ", ".join(f"{key}={value!r}" for key, value in sorted(self.details.items()))
        return f"{self.case.label()}: {self.axis} disagreement ({detail})"


def _observable(result) -> Tuple[str, str]:
    """The cross-backend comparable part of a ``RunResult``."""
    return (str(result.value), str(result.failure))


class DifferentialOracle:
    """Runs fuzz cases against every backend and reports disagreements.

    One oracle instance owns one set of systems (sharing their pipeline
    caches across cases, like the serving layer does) and one seeded RNG for
    snapshot-boundary choices, so a whole fuzzing run replays from its seed.
    """

    def __init__(self, systems: Optional[Dict[str, Any]] = None, rng: Optional[random.Random] = None):
        self.systems = systems if systems is not None else make_systems()
        self.rng = rng if rng is not None else random.Random(0)

    # -- public entry ---------------------------------------------------------

    def check(self, case: FuzzCase) -> Optional[Disagreement]:
        """Judge one case; ``None`` means every backend agreed."""
        system = self.systems[case.system]

        try:
            unit = system.compile_source(case.language, case.source)
        except Exception as error:  # structured frontend errors included
            if case.kind == "static-error":
                if type(error).__name__ == case.expected_error:
                    return None
                return Disagreement(
                    case,
                    "frontend",
                    {"expected": case.expected_error, "raised": type(error).__name__, "message": str(error)},
                )
            return Disagreement(
                case, "frontend", {"expected": "accepted", "raised": type(error).__name__, "message": str(error)}
            )
        if case.kind == "static-error":
            return Disagreement(case, "frontend", {"expected": case.expected_error, "raised": None})

        code = unit.target_code
        outcomes: Dict[str, Any] = {}
        for backend in system.target.backend_names():
            try:
                outcomes[backend] = system.run_compiled(code, fuel=case.fuel, backend=backend)
            except Exception as error:
                return Disagreement(
                    case, "crash", {"backend": backend, "raised": type(error).__name__, "message": str(error)}
                )

        disagreement = self._check_observables(case, outcomes)
        if disagreement is not None:
            return disagreement
        disagreement = self._check_snapshot_accounting(case, system, code, outcomes)
        if disagreement is not None:
            return disagreement
        return self._check_raw_heaps(case, code)

    # -- axis 2: cross-backend observables ------------------------------------

    def _check_observables(self, case: FuzzCase, outcomes: Dict[str, Any]) -> Optional[Disagreement]:
        expected = _observable(outcomes["substitution"])
        for backend, outcome in outcomes.items():
            if _observable(outcome) != expected:
                return Disagreement(
                    case,
                    "observable",
                    {"backend": backend, "got": _observable(outcome), "expected": expected},
                )
        if case.kind == "divergent":
            for backend, outcome in outcomes.items():
                if str(outcome.failure) != OUT_OF_FUEL:
                    return Disagreement(
                        case,
                        "divergence",
                        {"backend": backend, "got": _observable(outcome), "expected": OUT_OF_FUEL},
                    )
        return None

    # -- axis 3: snapshot/restore fuel accounting ------------------------------

    def _check_snapshot_accounting(
        self, case: FuzzCase, system, code, outcomes: Dict[str, Any]
    ) -> Optional[Disagreement]:
        slice_width = self.rng.choice(SLICE_WIDTHS)
        boundary = self.rng.randint(1, 3)
        for backend in sorted(system.target.backend_names()):
            straight = outcomes[backend]
            try:
                result = self._run_restored(case, system, code, backend, slice_width, boundary)
            except Exception as error:
                return Disagreement(
                    case,
                    "crash",
                    {"backend": backend, "raised": type(error).__name__, "message": str(error)},
                )
            if result is None:
                return Disagreement(
                    case, "snapshot", {"backend": backend, "problem": "sliced run never completed"}
                )
            resumed = (str(result.value), str(result.failure), result.steps)
            uninterrupted = (str(straight.value), str(straight.failure), straight.steps)
            if resumed != uninterrupted:
                return Disagreement(
                    case,
                    "snapshot",
                    {
                        "backend": backend,
                        "slice_width": slice_width,
                        "boundary": boundary,
                        "resumed": resumed,
                        "uninterrupted": uninterrupted,
                    },
                )
        return None

    @staticmethod
    def _run_restored(case: FuzzCase, system, code, backend: str, slice_width: int, boundary: int):
        """Run sliced, snapshot and restore after ``boundary`` slices, then finish."""
        execution = system.start_compiled(code, fuel=case.fuel, backend=backend)
        result = None
        for _ in range(boundary):
            result = execution.step_n(slice_width)
            if result is not None:
                break
        if result is None and execution.can_snapshot():
            snapshot = execution.snapshot()
            execution = system.restore_execution(snapshot, backend=backend)
        # Drive (the restored execution) to completion.
        budget = case.fuel // slice_width + 4
        while result is None and budget > 0:
            result = execution.step_n(slice_width)
            budget -= 1
        return result

    # -- axis 4: raw post-callgc heaps -----------------------------------------

    def _check_raw_heaps(self, case: FuzzCase, code) -> Optional[Disagreement]:
        if case.kind == "divergent":
            return None  # no final heap to compare — every engine died mid-run
        if case.system == "refs":
            return self._check_stacklang_heaps(case, code)
        return self._check_lcvm_heaps(case, code)

    def _check_stacklang_heaps(self, case: FuzzCase, code) -> Optional[Disagreement]:
        """The compiled StackLang machine's final heap equals the oracle's."""
        from repro.stacklang import cek as stack_cek
        from repro.stacklang import machine as stack_machine

        def view(result):
            return (result.status.value, str(result.value), result.failure_code, dict(result.heap))

        expected = view(stack_machine.run(code, fuel=case.fuel))
        got = view(stack_cek.run_compiled(code, fuel=case.fuel))
        if got != expected:
            return Disagreement(
                case, "heap", {"engine": "cek-compiled", "got": str(got), "expected": str(expected)}
            )
        return None

    def _check_lcvm_heaps(self, case: FuzzCase, code) -> Optional[Disagreement]:
        """The compiled LCVM run matches the oracle's raw heap."""
        from repro.lcvm import cek
        from repro.lcvm import machine as lcvm_machine
        from repro.lcvm.machine import Status

        reference = lcvm_machine.run(code, fuel=case.fuel)
        if reference.status is Status.OUT_OF_FUEL:
            return None  # observables already agreed; nothing post-run to root

        def raw(result):
            return (result.heap.cells, result.heap.collections, result.heap.reclaimed)

        expected = raw(reference)
        got = raw(cek.run_compiled(code, fuel=case.fuel))
        if got != expected:
            return Disagreement(
                case, "heap", {"engine": "cek-compiled", "got": str(got), "expected": str(expected)}
            )
        return None
