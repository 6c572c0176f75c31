"""Acceptance: the compiled machines beat the substitution oracle by ≥5×,
and interleaving a serving batch costs at most 2× running it sequentially.

These are coarse wall-clock guards, not benchmarks (the real measurements
live in ``perfbench/``); the
workloads are sized so the observed ratios sit well inside their bars,
keeping the assertions robust on slow CI machines.

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
from repro.serve import Request, make_default_scheduler
from repro.util.workloads import (
    nested_ml_affi_boundary,
    nested_ml_l3_boundary,
    nested_refll_boundary,
)

FUEL = 5_000_000
MIN_SPEEDUP = 5.0
FAST_BACKEND = "cek-compiled"
#: The slice loop may cost at most this multiple of serving the same batch
#: one request at a time.
MAX_INTERLEAVING_OVERHEAD = 2.0


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


def _mixed_batch():
    """Three systems, compiled requests next to oracle ones, one starved of fuel."""
    deep, shallow = 12, 6
    refs, affine, l3 = nested_refll_boundary, nested_ml_affi_boundary, nested_ml_l3_boundary
    return [
        Request(language="RefLL", source=refs(deep), request_id="refs-deep"),
        Request(language="RefLL", source=refs(shallow), request_id="refs-shallow"),
        Request(language="RefLL", source=refs(shallow), backend="substitution", request_id="refs-oracle"),
        Request(language="MiniML", system="affine", source=affine(deep), request_id="affine-deep"),
        Request(language="MiniML", system="affine", source=affine(shallow), backend="substitution", request_id="affine-oracle"),
        Request(language="Affi", source="(if (boundary bool 7) 1 2)", request_id="affi-small"),
        Request(language="MiniML", system="l3", source=l3(deep), request_id="l3-deep"),
        Request(language="MiniML", system="l3", source=l3(shallow), backend="substitution", request_id="l3-oracle"),
        Request(language="MiniML", system="l3", source="(! (boundary (ref int) (new true)))", request_id="l3-small"),
        Request(language="MiniML", system="affine", source=affine(deep), fuel=7, request_id="affine-starved"),
    ]


# At 512 steps every request of the batch finishes in its first slice; at 32
# the deep ones take up to 14, so the weighted loop really alternates.
@pytest.mark.parametrize("slice_steps", [512, 32])
def test_interleaving_costs_at_most_twice_sequential(slice_steps):
    scheduler = make_default_scheduler(slice_steps=slice_steps)
    requests = _mixed_batch()
    scheduler.warm_cache(requests)
    # One untimed pass per mode builds every unit's machine code.
    scheduler.serve_sequential(requests)
    scheduler.serve(requests)

    sequential_time, interleaved_time = _best_alternating(
        lambda: scheduler.serve_sequential(requests),
        lambda: scheduler.serve(requests),
    )
    overhead = interleaved_time / sequential_time
    assert overhead <= MAX_INTERLEAVING_OVERHEAD, (
        f"interleaving took {overhead:.2f}x the sequential time "
        f"({interleaved_time * 1000:.2f}ms vs {sequential_time * 1000:.2f}ms)"
    )
