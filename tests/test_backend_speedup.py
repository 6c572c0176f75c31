"""Acceptance: the compiled machines beat the substitution oracle by ≥5×.

These are coarse wall-clock guards, not benchmarks (the real measurements
live in ``benchmarks/bench_boundary_crossing.py``); the workloads are sized
so the observed ratios are an order of magnitude above the 5× bar, keeping
the assertion robust on slow CI machines.

All three systems are held to the same bar: the LCVM systems (§4 affine,
§5 L3/memory) through the compiled-dispatch CEK machine, and StackLang (§3
shared memory) through the pc-threaded machine, whose resolved branch
targets remove the ``If0`` branch splicing that dominates deep crossings.
"""

import time

import pytest

from repro.interop_affine import make_system as make_affine_system
from repro.interop_l3 import make_system as make_l3_system
from repro.interop_refs import make_system as make_refs_system

FUEL = 5_000_000
MIN_SPEEDUP = 5.0
FAST_BACKEND = "cek-compiled"


def _nested_affine_crossing(depth: int) -> str:
    source = "1"
    for _ in range(depth):
        source = f"(+ 1 (boundary int (boundary int {source})))"
    return source


def _nested_l3_crossing(depth: int) -> str:
    source = "1"
    for _ in range(depth):
        source = f"(+ {source} (! (boundary (ref int) (new true))))"
    return source


def _nested_refll_crossing(depth: int) -> str:
    source = "1"
    for _ in range(depth):
        source = f"(+ 1 (boundary int (if (boundary bool {source}) false true)))"
    return source


def _best_alternating(first, second, repeats: int = 7):
    """Best-of-``repeats`` wall-clock timings of two actions, run alternately.

    Interleaving the two puts a slow spell of the machine on both sides of
    the ratio instead of on whichever action happened to be running.
    """
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for slot, action in enumerate((first, second)):
            start = time.perf_counter()
            action()
            best[slot] = min(best[slot], time.perf_counter() - start)
    return best[0], best[1]


@pytest.mark.parametrize(
    "factory,language,builder,depth",
    [
        (make_affine_system, "MiniML", _nested_affine_crossing, 60),
        (make_l3_system, "MiniML", _nested_l3_crossing, 40),
        # Depth is bounded by the recursive frontend parser (Python's default
        # recursion limit under pytest); 60 still shows a ~7-8× ratio.
        (make_refs_system, "RefLL", _nested_refll_crossing, 60),
    ],
    ids=["affine", "l3", "refs"],
)
def test_compiled_beats_substitution_on_deep_boundary_crossing(factory, language, builder, depth):
    system = factory()
    unit = system.compile_source(language, builder(depth))

    results = {
        backend: system.run_unit(unit, fuel=FUEL, backend=backend)
        for backend in ("substitution", FAST_BACKEND)
    }
    assert results["substitution"].ok and results[FAST_BACKEND].ok
    assert results["substitution"].value == results[FAST_BACKEND].value

    substitution_time, fast_time = _best_alternating(
        lambda: system.run_unit(unit, fuel=FUEL, backend="substitution"),
        lambda: system.run_unit(unit, fuel=FUEL, backend=FAST_BACKEND),
    )
    speedup = substitution_time / fast_time
    assert speedup >= MIN_SPEEDUP, (
        f"{FAST_BACKEND} only {speedup:.1f}x faster than substitution "
        f"({substitution_time * 1000:.2f}ms vs {fast_time * 1000:.2f}ms)"
    )
