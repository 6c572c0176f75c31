"""Static-analysis CLI over the three interop systems.

Usage:

    PYTHONPATH=src python tools/analyze.py --system refs --language RefLL -e "(+ 1 1)"
    PYTHONPATH=src python tools/analyze.py --system l3 --language MiniML program.src
    PYTHONPATH=src python tools/analyze.py --system affine --language MiniML --json -e "..."
    PYTHONPATH=src python tools/analyze.py --check-corpus

The single-program modes push the source through the system's memoized
pipeline (parse → typecheck → compile → verify) and print the unit's
:class:`repro.analysis.AnalysisReport`, built on that first read —
human-readable by default,
``--json`` for the plain-dict form the serving layer's ``analyze_only``
responses carry.  A program the frontend rejects (parse, typecheck,
convertibility, or static-verification error) exits 1 with the structured
error on stderr.

``--check-corpus`` is the CI smoke gate: it analyzes the shared deep
boundary-crossing workload family (:mod:`repro.util.workloads`) across all
three systems at several depths plus a handful of pure programs, and exits
non-zero if any analysis crashes, any report is missing or inconsistent
(wrong crossing count, non-positive cost estimate), or the StackLang
verifier produces a *false positive* — rejecting a known-good corpus
program that every backend runs successfully.  As a negative control it
also checks the verifier still rejects a crafted underflow program.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis import StaticVerificationError, verify_program
from repro.interop_affine import make_system as make_affine_system
from repro.interop_l3 import make_system as make_l3_system
from repro.interop_refs import make_system as make_refs_system
from repro.stacklang.syntax import Add, program
from repro.util.workloads import (
    nested_ml_affi_boundary,
    nested_ml_l3_boundary,
    nested_refll_boundary,
)

SYSTEMS = {
    "refs": make_refs_system,
    "affine": make_affine_system,
    "l3": make_l3_system,
}

#: The corpus: per system, the deep-crossing generator, its host language,
#: crossings per unit of depth, and a few pure (crossing-free) programs.
CORPUS = {
    "refs": (nested_refll_boundary, "RefLL", 2, ["1", "(+ 1 (+ 2 3))", "(! (ref 4))"]),
    "affine": (nested_ml_affi_boundary, "MiniML", 2, ["1", "(+ 1 (+ 2 3))"]),
    "l3": (nested_ml_l3_boundary, "MiniML", 1, ["1", "(+ 1 (+ 2 3))"]),
}

CORPUS_DEPTHS = (2, 6, 12, 24)


def analyze_source(system_name: str, language: str, source: str):
    """The analysis report for one program (raises on frontend rejection)."""
    system = SYSTEMS[system_name]()
    unit = system.compile_source(language, source)
    if unit.analysis is None:
        raise RuntimeError(f"system {system_name!r} attached no analysis to the unit")
    return unit.analysis


def check_corpus() -> int:
    """The CI smoke gate over the shared workload corpus; 0 iff clean."""
    failures = []
    checked = 0
    for system_name, (generator, language, per_depth, pure) in sorted(CORPUS.items()):
        programs = [(source, 0) for source in pure]
        programs += [(generator(depth), depth * per_depth) for depth in CORPUS_DEPTHS]
        for source, expected_crossings in programs:
            checked += 1
            label = f"{system_name}/{language} ({expected_crossings} crossings)"
            try:
                report = analyze_source(system_name, language, source)
            except StaticVerificationError as error:
                # Every corpus program is known-good: a verifier rejection
                # here is by definition a false positive.
                failures.append(f"{label}: verifier false positive: {error}")
                continue
            except Exception as error:  # noqa: BLE001 — a crash is the finding
                failures.append(f"{label}: analysis crashed: {type(error).__name__}: {error}")
                continue
            if report.crossing_count != expected_crossings:
                failures.append(
                    f"{label}: crossing count {report.crossing_count} != {expected_crossings}"
                )
            if report.estimated_steps <= 0:
                failures.append(f"{label}: non-positive cost estimate {report.estimated_steps}")
            if not report.verified:
                failures.append(f"{label}: report not marked verified")
    # Negative control: the verifier must still reject definite underflow.
    underflow = verify_program(program(Add()))
    checked += 1
    if underflow.ok or not underflow.errors:
        failures.append("verifier negative control: crafted underflow was NOT rejected")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    status = "FAILED" if failures else "ok"
    print(f"analyze --check-corpus: {checked} programs checked, {len(failures)} failures ({status})")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Static analysis over the interop systems")
    parser.add_argument("--system", choices=sorted(SYSTEMS), help="which interop system")
    parser.add_argument("--language", help="host language of the program")
    parser.add_argument("-e", "--expr", help="analyze this source string")
    parser.add_argument("path", nargs="?", help="analyze this source file")
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    parser.add_argument(
        "--check-corpus",
        action="store_true",
        help="CI smoke gate: analyze the shared workload corpus, exit non-zero on any failure",
    )
    args = parser.parse_args(argv)

    if args.check_corpus:
        return check_corpus()
    if args.system is None or args.language is None:
        parser.error("--system and --language are required (unless --check-corpus)")
    if (args.expr is None) == (args.path is None):
        parser.error("exactly one of -e/--expr or a source file path is required")
    source = args.expr if args.expr is not None else open(args.path).read()
    try:
        report = analyze_source(args.system, args.language, source)
    except Exception as error:  # noqa: BLE001 — surface the structured frontend error
        print(f"{type(error).__name__}: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
