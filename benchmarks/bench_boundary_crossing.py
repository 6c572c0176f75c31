"""E13 — evaluator backends on deep boundary-crossing workloads.

Compares each target's two engines (the ``substitution`` reference machine
and ``cek-compiled``) on the same compiled deep-crossing program in each of
the §3, §4, and §5 systems.  The cold and warm full pipeline (parse +
typecheck + compile + run, with and without the pipeline cache) is measured
by ``perfbench``'s ``cold-mix`` and ``warm-loop`` workloads, and the
compiled engine's speedup over the oracle is gated in the tier-1 suite
(``tests/test_backend_speedup.py``).

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
