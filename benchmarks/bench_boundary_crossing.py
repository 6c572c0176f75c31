"""E13 — evaluator backends on deep boundary-crossing workloads.

Compares the evaluator backends (``substitution`` reference machine vs
``cek-compiled``, plus ``cek-opt`` on LCVM) on the same compiled
deep-crossing program in each of the §3, §4, and §5 systems.  The cold and
warm full pipeline (parse + typecheck + compile + run, with and without the
pipeline cache) is measured by ``perfbench``'s ``cold-mix`` and
``warm-loop`` workloads.

Besides the pytest-benchmark entry point, the module is runnable as a
script: it times every registered backend on the deep-crossing workloads,
writes machine-readable ``BENCH_boundary_crossing.json`` (per-backend
timings plus speedup ratios) so the perf trajectory is tracked across PRs,
and with ``--check`` exits non-zero if the optimizing ``cek-opt`` backend is
faster than ``cek-compiled`` on none of the deep-crossing workloads that
register it:

    PYTHONPATH=src python benchmarks/bench_boundary_crossing.py --check

The glue pre-resolution counters are a correctness property, not a timing,
so their gate lives in the tier-1 suite, at this benchmark's depth of 40
(``tests/test_analysis.py::test_preresolution_eliminates_compile_phase_lookups``).

Trajectory note (step-count-sensitive): the ``substitution`` timings in this
benchmark improved by a constant factor when the reference machine stopped
recomputing ``mentioned_locations`` of the whole program on *every* step —
the walk now runs only when a ``callgc`` redex actually fires.  Step
*counts* are unchanged (the semantics reduces the same redexes); per-step
cost fell, so cross-PR comparisons of ``substitution`` wall-clock around
that change measure the hoist, not the machine.  The win multiplies under
the serving layer, where the oracle now runs sliced (many ``step`` calls per
request) instead of blocking.
"""

import json
import sys
import time

import pytest

from repro.interop_affine import make_system as make_affine_system
from repro.interop_l3 import make_system as make_l3_system
from repro.interop_refs import make_system as make_refs_system
from repro.util.workloads import (
    nested_ml_affi_boundary as _nested_ml_affi_boundary,
    nested_ml_l3_boundary as _nested_ml_l3_boundary,
    nested_refll_boundary as _nested_refll_boundary,
)

DEEP_CROSSINGS = 40
RUN_FUEL = 5_000_000


# -- backend comparison on deep crossings ------------------------------------------

_DEEP_WORKLOADS = {
    "refs": (make_refs_system, "RefLL", _nested_refll_boundary(DEEP_CROSSINGS)),
    "affine": (make_affine_system, "MiniML", _nested_ml_affi_boundary(DEEP_CROSSINGS)),
    "l3": (make_l3_system, "MiniML", _nested_ml_l3_boundary(DEEP_CROSSINGS)),
}


@pytest.mark.parametrize(
    "workload,backend",
    [
        (workload, backend)
        for workload, (factory, _lang, _src) in _DEEP_WORKLOADS.items()
        for backend in factory().target.backend_names()
    ],
)
def test_deep_crossing_backend_comparison(benchmark, workload, backend):
    """Same compiled deep-crossing program, one timing per registered backend."""
    factory, language, source = _DEEP_WORKLOADS[workload]
    system = factory()
    unit = system.compile_source(language, source)

    result = benchmark(lambda: system.run_unit(unit, fuel=RUN_FUEL, backend=backend))
    assert result.ok, f"{workload}/{backend}: {result}"
    benchmark.extra_info["workload"] = workload
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["steps"] = result.steps


# -- machine-readable JSON report + regression gate ---------------------------------

JSON_REPORT = "BENCH_boundary_crossing.json"
_JSON_REPEATS = 5


_MIN_MEASUREMENT_SECONDS = 0.005


def _best_of(action, repeats: int = _JSON_REPEATS) -> float:
    """Best-of-``repeats`` per-run time, with sub-5ms runs batched.

    Batching keeps the regression gate stable on noisy CI machines: a single
    deep-crossing run on the fast backends takes tens of microseconds, which
    a scheduler hiccup can easily double.
    """
    start = time.perf_counter()
    action()
    single = time.perf_counter() - start
    batch = max(1, int(_MIN_MEASUREMENT_SECONDS / single) + 1) if single else 1
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(batch):
            action()
        timings.append((time.perf_counter() - start) / batch)
    return min(timings)


def collect_json_report() -> dict:
    """Time every registered backend on the deep-crossing workloads."""
    workloads = {}
    for name, (factory, language, source) in _DEEP_WORKLOADS.items():
        system = factory()
        unit = system.compile_source(language, source)
        backends = system.target.backend_names()
        results = {
            backend: system.run_unit(unit, fuel=RUN_FUEL, backend=backend)
            for backend in backends
        }
        for backend, result in results.items():
            assert result.ok, f"{name}/{backend}: {result}"
            assert result.value == results["substitution"].value, f"{name}/{backend}"
        timings = {
            backend: _best_of(
                lambda backend=backend: system.run_unit(unit, fuel=RUN_FUEL, backend=backend)
            )
            for backend in backends
        }
        substitution_time = timings["substitution"]
        workloads[name] = {
            "language": language,
            "depth": DEEP_CROSSINGS,
            "steps": {backend: results[backend].steps for backend in backends},
            "timings_seconds": timings,
            "speedup_vs_substitution": {
                backend: substitution_time / timings[backend] for backend in backends
            },
        }
        if "cek-opt" in timings:
            workloads[name]["opt_vs_compiled"] = timings["cek-compiled"] / timings["cek-opt"]
    return {
        "benchmark": "boundary_crossing",
        "fuel": RUN_FUEL,
        "repeats": _JSON_REPEATS,
        "workloads": workloads,
    }


def main(argv) -> int:
    check = "--check" in argv
    output = JSON_REPORT
    if "--output" in argv:
        output = argv[argv.index("--output") + 1]
    report = collect_json_report()
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    opt_improved = []
    for name, workload in sorted(report["workloads"].items()):
        ratios = workload["speedup_vs_substitution"]
        summary = ", ".join(f"{backend} {ratio:.1f}x" for backend, ratio in sorted(ratios.items()))
        opt = workload.get("opt_vs_compiled")
        print(f"{name}: vs substitution: {summary}" + ("" if opt is None else f"; opt vs compiled {opt:.2f}x"))
        if opt is not None and opt > 1.0:
            opt_improved.append(name)
    print(f"wrote {output}")
    if check and not opt_improved:
        print(
            "REGRESSION: cek-opt improves over cek-compiled on no deep-crossing workload",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
