#!/usr/bin/env python
"""Differential fuzzing CLI over all three interoperability systems.

Generate mode (default): emit seeded well-typed programs, judge each on the
four-axis differential oracle (cross-backend observables, divergence
contract, snapshot/restore fuel accounting, raw post-``callgc`` heaps), and
on the first disagreement greedily shrink it, persist it to the corpus
directory, print a triage report, and exit nonzero.

Replay mode (``--replay``): re-judge every persisted corpus counterexample
plus the promoted legacy ``util.workloads`` entries — the regression gate
that previously-minimized bugs stay fixed and the original scenario suite
still agrees everywhere — and one ``util.workloads`` program per system
nested far past ``MAX_NESTING``, which each frontend must refuse with a
``ParseError``.

CI runs ``--check --seed <fixed> --count 210 --time-budget 300``: a bounded,
deterministic smoke gate (the time budget stops generation early on slow
runners; the count floor is what the acceptance gate requires).
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.fuzz import (  # noqa: E402
    DEFAULT_CORPUS_DIR,
    SYSTEM_NAMES,
    DifferentialOracle,
    FuzzGenerator,
    depth_contract_entries,
    legacy_corpus_entries,
    load_corpus,
    same_axis_predicate,
    save_counterexample,
    shrink,
)


def _triage(disagreement, path=None):
    print("", file=sys.stderr)
    print(f"FUZZ FAILURE: {disagreement.summary()}", file=sys.stderr)
    print(f"  system:   {disagreement.case.system}", file=sys.stderr)
    print(f"  language: {disagreement.case.language}", file=sys.stderr)
    print(f"  kind:     {disagreement.case.kind}", file=sys.stderr)
    print(f"  fuel:     {disagreement.case.fuel}", file=sys.stderr)
    print(f"  source:   {disagreement.case.source}", file=sys.stderr)
    for key, value in sorted(disagreement.details.items()):
        print(f"  {key}: {value}", file=sys.stderr)
    if path is not None:
        print(f"  persisted: {path}  (replay: tools/fuzz.py --replay --corpus {os.path.dirname(path)})", file=sys.stderr)


def run_generate(arguments) -> int:
    systems = tuple(arguments.systems.split(",")) if arguments.systems else SYSTEM_NAMES
    generator = FuzzGenerator(seed=arguments.seed, systems=systems)
    oracle = DifferentialOracle(rng=random.Random(arguments.seed ^ 0x5EED))
    started = time.perf_counter()
    counts = {"ok": 0, "divergent": 0, "static-error": 0}
    per_system = {name: 0 for name in systems}
    executed = 0
    for case in generator.generate(arguments.count):
        if time.perf_counter() - started > arguments.time_budget:
            print(f"fuzz: time budget ({arguments.time_budget:.0f}s) reached after {executed} cases", file=sys.stderr)
            break
        disagreement = oracle.check(case)
        executed += 1
        counts[case.kind] += 1
        per_system[case.system] += 1
        if disagreement is None:
            continue
        print(f"fuzz: disagreement on case #{case.index}; shrinking ...", file=sys.stderr)
        shrunk = shrink(case, same_axis_predicate(oracle, disagreement.axis))
        final = oracle.check(shrunk)
        if final is None:  # nondeterministic predicate; fall back to the original
            shrunk, final = case, disagreement
        path = save_counterexample(arguments.corpus, final)
        _triage(final, path)
        return 1
    elapsed = time.perf_counter() - started
    mix = ", ".join(f"{count} {kind}" for kind, count in counts.items())
    spread = ", ".join(f"{name}={count}" for name, count in per_system.items())
    print(
        f"fuzz: {executed} programs agreed on every backend ({mix}; {spread}) "
        f"[seed {arguments.seed}, {elapsed:.1f}s]"
    )
    if arguments.check and executed < arguments.count:
        print(f"fuzz: REGRESSION --check requires all {arguments.count} cases; ran {executed}", file=sys.stderr)
        return 1
    return 0


def run_replay(arguments) -> int:
    oracle = DifferentialOracle(rng=random.Random(arguments.seed ^ 0x5EED))
    persisted = load_corpus(arguments.corpus)
    legacy = legacy_corpus_entries()
    deep = depth_contract_entries()
    failures = 0
    for origin, cases in (("corpus", persisted), ("legacy", legacy), ("depth-contract", deep)):
        for case in cases:
            disagreement = oracle.check(case)
            if disagreement is not None:
                failures += 1
                print(f"fuzz: {origin} replay failure:", file=sys.stderr)
                _triage(disagreement)
    print(
        f"fuzz: replayed {len(persisted)} corpus + {len(legacy)} legacy + {len(deep)} depth-contract entries, "
        f"{failures} disagreement(s)"
    )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0, help="generator + oracle RNG seed")
    parser.add_argument("--count", type=int, default=210, help="number of programs to generate")
    parser.add_argument("--time-budget", type=float, default=300.0, help="wall-clock budget in seconds")
    parser.add_argument("--check", action="store_true", help="CI gate: require the full count within budget")
    parser.add_argument("--replay", action="store_true", help="re-judge corpus + legacy entries instead of generating")
    parser.add_argument("--corpus", default=DEFAULT_CORPUS_DIR, help="counterexample corpus directory")
    parser.add_argument("--systems", default="", help="comma-separated subset of systems (default: all three)")
    arguments = parser.parse_args(argv)
    if arguments.replay:
        return run_replay(arguments)
    return run_generate(arguments)


if __name__ == "__main__":
    raise SystemExit(main())
