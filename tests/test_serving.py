"""Request isolation and interleaving-order independence for the serving layer.

Four layers of guarantees:

* the resumable machines — the compiled CEK and pc-threaded StackLang
  machines *and* both substitution oracles — produce *identical* results
  however their transitions are sliced, including fuel exhaustion landing on
  the exact same step;
* **bounded per-turn latency**: no backend advances more than the driver's
  ``slice_steps`` machine transitions per slice (``steps ≤ slices ×
  slice_steps`` for every response), so a long oracle request cannot stall
  its neighbours' turns;
* a :class:`~repro.serve.scheduler.Scheduler` batch of concurrent requests
  with different backends and different fuel budgets produces exactly the
  results of isolated ``run_source`` runs, with fuel-exhaustion errors
  landing on the right request — oracle-backed requests included;
* a hypothesis property drives the deterministic driver with arbitrary
  interleaving orders (and slice sizes) and requires order-independence.
"""

import asyncio
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.language import Engine
from repro.lcvm import cek as lcvm_cek
from repro.lcvm import machine as lcvm_machine
from repro.lcvm.machine import Status
from repro.lcvm.syntax import App, Lam, Var
from repro.serve import Request, StepSlicedDriver, make_default_scheduler
from repro.stacklang import cek as stack_cek
from repro.stacklang import machine as stack_machine
from repro.stacklang.machine import Status as StackStatus
from repro.util.workloads import (
    nested_ml_affi_boundary as _nested_ml_affi_boundary,
    nested_ml_l3_boundary as _nested_ml_l3_boundary,
    nested_refll_boundary as _nested_refll_boundary,
)

# One scheduler for the whole module: the pipeline caches stay warm across
# tests (that sharing is exactly what a serving process does), while every
# batch gets fresh executions with private heaps.
SCHEDULER = make_default_scheduler(slice_steps=16)


# A mixed batch: three systems, two backends, four fuel-starved requests,
# and a duplicated heap-allocating program (private-heap isolation).
REQUESTS = [
    Request(language="RefLL", source=_nested_refll_boundary(6), request_id="refs-compiled"),
    Request(
        language="RefLL",
        source=_nested_refll_boundary(4),
        backend="substitution",
        request_id="refs-oracle",
    ),
    Request(
        language="RefLL",
        source=_nested_refll_boundary(5),
        backend="substitution",
        request_id="refs-oracle-deep",
    ),
    Request(
        language="MiniML",
        system="affine",
        source=_nested_ml_affi_boundary(6),
        request_id="affine-compiled",
    ),
    Request(
        language="MiniML",
        system="affine",
        source=_nested_ml_affi_boundary(3),
        backend="substitution",
        request_id="affine-oracle",
    ),
    Request(
        language="MiniML",
        system="affine",
        source=_nested_ml_affi_boundary(4),
        backend="substitution",
        request_id="affine-oracle-deep",
    ),
    Request(language="Affi", source="(if (boundary bool 7) 1 2)", request_id="affi-compiled"),
    Request(language="MiniML", system="l3", source=_nested_ml_l3_boundary(4), request_id="l3-compiled"),
    Request(language="MiniML", system="l3", source=_nested_ml_l3_boundary(4), request_id="l3-twin"),
    Request(
        language="MiniML",
        system="l3",
        source="(! (boundary (ref int) (new true)))",
        backend="substitution",
        request_id="l3-oracle",
    ),
    Request(
        language="MiniML",
        system="l3",
        source=_nested_ml_l3_boundary(3),
        backend="substitution",
        request_id="l3-oracle-deep",
    ),
    Request(
        language="MiniML",
        system="affine",
        source=_nested_ml_affi_boundary(5),
        fuel=7,
        request_id="affine-starved",
    ),
    Request(language="RefLL", source=_nested_refll_boundary(5), fuel=9, request_id="refs-starved"),
    # Oracle backends exhaust *their own* fuel mid-batch too, in a bounded
    # slice, without touching any neighbour.
    Request(
        language="RefLL",
        source=_nested_refll_boundary(5),
        backend="substitution",
        fuel=11,
        request_id="oracle-starved",
    ),
    Request(
        language="MiniML",
        system="affine",
        source=_nested_ml_affi_boundary(5),
        backend="substitution",
        fuel=3,
        request_id="affine-oracle-starved",
    ),
]

STARVED = {"affine-starved", "refs-starved", "oracle-starved", "affine-oracle-starved"}


def _observe_result(result):
    if result is None:
        return None
    return (result.ok, str(result.value), str(result.failure), result.steps)


def _observe(response):
    return (response.error is None, _observe_result(response.result))


def _isolated(request):
    """The request run alone, uninterrupted, through ``InteropSystem.run_source``."""
    _name, system = SCHEDULER.route(request)
    return system.run_source(
        request.language,
        request.source,
        fuel=request.fuel,
        backend=request.backend,
        **dict(request.typecheck_kwargs),
    )


EXPECTED = [(True, _observe_result(_isolated(request))) for request in REQUESTS]


# ---------------------------------------------------------------------------
# Resumable machines: slicing must not change the observable result
# ---------------------------------------------------------------------------


def _lcvm_code(depth: int = 6):
    system = SCHEDULER.systems["affine"]
    return system.compile_source("MiniML", _nested_ml_affi_boundary(depth)).target_code


def _stacklang_code(depth: int = 6):
    system = SCHEDULER.systems["refs"]
    return system.compile_source("RefLL", _nested_refll_boundary(depth)).target_code


def _machine_observe(result):
    return (result.status, str(result.value), str(result.failure_code), result.steps)


def test_lcvm_step_n_matches_run_compiled():
    code = _lcvm_code()
    full = lcvm_cek.run_compiled(code, fuel=100_000)
    for slice_steps in (1, 3, 7, 1_000_000):
        execution = lcvm_cek.CompiledExecution(code, fuel=100_000)
        result = execution.step_n(slice_steps)
        while result is None:
            result = execution.step_n(slice_steps)
        assert _machine_observe(result) == _machine_observe(full)
        # A halted execution keeps answering with the same result.
        assert execution.step_n(slice_steps) is result


def test_lcvm_step_n_fuel_exhaustion_is_slice_independent():
    code = _lcvm_code()
    total = lcvm_cek.run_compiled(code, fuel=100_000).steps
    fuel = total // 2
    full = lcvm_cek.run_compiled(code, fuel=fuel)
    assert full.status is Status.OUT_OF_FUEL and full.steps == fuel
    execution = lcvm_cek.CompiledExecution(code, fuel=fuel)
    result = execution.step_n(7)
    while result is None:
        result = execution.step_n(7)
    assert result.status is Status.OUT_OF_FUEL
    assert result.steps == fuel
    assert str(result.config.expr) == str(full.config.expr)


def test_stacklang_step_n_matches_run_compiled():
    code = _stacklang_code()
    full = stack_cek.run_compiled(code, fuel=100_000)
    for slice_steps in (1, 3, 7, 1_000_000):
        execution = stack_cek.CompiledExecution(code, fuel=100_000)
        result = execution.step_n(slice_steps)
        while result is None:
            result = execution.step_n(slice_steps)
        assert _machine_observe(result) == _machine_observe(full)
        assert result.config.heap == full.config.heap
        assert execution.step_n(slice_steps) is result


def test_stacklang_step_n_fuel_exhaustion_is_slice_independent():
    code = _stacklang_code()
    total = stack_cek.run_compiled(code, fuel=100_000).steps
    fuel = total // 2
    full = stack_cek.run_compiled(code, fuel=fuel)
    assert full.status is StackStatus.OUT_OF_FUEL and full.steps == fuel
    execution = stack_cek.CompiledExecution(code, fuel=fuel)
    result = execution.step_n(5)
    while result is None:
        result = execution.step_n(5)
    assert result.status is StackStatus.OUT_OF_FUEL
    assert result.steps == fuel
    assert [str(v) for v in result.config.stack] == [str(v) for v in full.config.stack]


# ---------------------------------------------------------------------------
# Scheduler batches: concurrent == isolated, failures land on the right request
# ---------------------------------------------------------------------------


def test_interleaved_batch_matches_isolated_runs():
    responses = SCHEDULER.serve(REQUESTS)
    assert [_observe(response) for response in responses] == EXPECTED


def test_sequential_batch_matches_isolated_runs():
    responses = SCHEDULER.serve_sequential(REQUESTS)
    assert [_observe(response) for response in responses] == EXPECTED


def test_fuel_exhaustion_lands_on_the_starved_requests_only():
    responses = SCHEDULER.serve(REQUESTS)
    by_id = {response.request.request_id: response for response in responses}
    for request_id, response in by_id.items():
        if request_id in STARVED:
            assert response.result is not None
            assert str(response.result.failure) == "out_of_fuel"
            assert response.result.steps == response.request.fuel
        else:
            assert response.ok, f"{request_id}: {response}"


def test_per_request_accounting():
    responses = SCHEDULER.serve(REQUESTS)
    by_id = {response.request.request_id: response for response in responses}
    # Deep requests take many 16-step slices — the oracle backends included,
    # now that they are genuinely resumable instead of blocking wrappers.
    assert by_id["refs-compiled"].slices > 1
    assert by_id["affine-compiled"].slices > 1
    assert by_id["refs-oracle"].slices > 1  # substitution oracle, sliced
    assert by_id["refs-oracle-deep"].slices > 1  # substitution oracle, sliced
    assert by_id["l3-oracle-deep"].slices > 1  # LCVM substitution oracle, sliced
    for response in responses:
        assert response.backend is not None
        assert response.slices >= 1
        assert response.compile_seconds >= 0.0
        assert response.start_seconds >= 0.0
        assert response.run_seconds >= 0.0
        assert response.cache_stats["capacity"] > 0
    # The batch has been served before in this module: every pipeline is hot.
    assert all(response.cache_hit for response in responses)


def test_no_backend_exceeds_the_slice_budget():
    """The bounded-latency guarantee: ≤ slice_steps transitions per turn.

    Each ``step_n`` call may advance at most ``slice_steps`` machine
    transitions, so every response must satisfy ``steps ≤ slices ×
    slice_steps`` — a backend that ran the whole program in its first slice
    would break this immediately for any deep request.
    """
    responses = SCHEDULER.serve(REQUESTS)
    for response in responses:
        assert response.result is not None, response
        assert response.result.steps <= response.slices * SCHEDULER.driver.slice_steps, (
            response.request.request_id,
            response.result.steps,
            response.slices,
        )


def test_short_compiled_requests_finish_in_few_slices_next_to_a_long_oracle():
    """A long oracle request cannot inflate its neighbours' turn counts.

    The short compiled requests must complete in the number of slices their
    own step counts dictate — independent of the long substitution-oracle
    request interleaved with them (pre-resumability, the oracle's single
    oversized slice monopolized its turn for the whole program).
    """
    slice_steps = 8
    scheduler = make_default_scheduler(slice_steps=slice_steps)
    short = [
        Request(language="RefLL", source=_nested_refll_boundary(2), request_id=f"short-{i}")
        for i in range(4)
    ]
    long_oracle = Request(
        language="RefLL",
        source=_nested_refll_boundary(40),
        backend="substitution",
        request_id="long-oracle",
    )
    responses = scheduler.serve(short + [long_oracle])
    by_id = {response.request.request_id: response for response in responses}
    oracle = by_id["long-oracle"]
    assert oracle.ok and oracle.slices > 10  # genuinely sliced, not blocking
    for request in short:
        response = by_id[request.request_id]
        assert response.ok
        own_slices_needed = -(-response.result.steps // slice_steps)  # ceil
        assert response.slices <= own_slices_needed + 1, response.request.request_id


def test_rejections_are_isolated_and_admitted_requests_still_run():
    bad_and_good = [
        Request(language="MiniML", source="(+ 1 1)", request_id="ambiguous"),  # needs system
        Request(language="Klingon", source="x", request_id="unknown-language"),
        Request(language="RefLL", source="(+ 1", request_id="parse-error"),
        Request(language="RefLL", source="(+ 1 1)", backend="warp-drive", request_id="bad-backend"),
        Request(language="RefLL", source=_nested_refll_boundary(3), request_id="good"),
    ]
    responses = SCHEDULER.serve(bad_and_good)
    by_id = {response.request.request_id: response for response in responses}
    for request_id in ("ambiguous", "unknown-language", "parse-error", "bad-backend"):
        assert by_id[request_id].error is not None
        assert by_id[request_id].result is None
    assert by_id["good"].ok


@pytest.mark.parametrize(
    "request_",
    [
        Request(language="RefLL", source=_nested_refll_boundary(3), backend="cek-opt"),
        Request(language="MiniML", system="affine", source=_nested_ml_affi_boundary(3), backend="cek-opt"),
        Request(language="MiniML", system="l3", source=_nested_ml_l3_boundary(3), backend="cek-opt"),
    ],
    ids=["refs", "affine", "l3"],
)
def test_request_for_a_retired_backend_gets_a_structured_error(request_):
    # Every target has two engines; naming the retired optimizing backend
    # fails that request alone, with the registered names in the message.
    good = Request(language="RefLL", source=_nested_refll_boundary(3), request_id="good")
    retired, served = SCHEDULER.serve([request_, good])
    assert retired.result is None
    assert retired.error.startswith("ReproError: ") and "'cek-opt'" in retired.error
    assert "'cek-compiled'" in retired.error and "'substitution'" in retired.error
    assert served.ok


def test_backend_crash_is_isolated_to_its_own_request():
    """A backend that raises mid-run fails its request, not the batch."""
    scheduler = make_default_scheduler(slice_steps=32)

    class Exploding:
        def step_n(self, limit):
            raise RuntimeError("engine bug")

    def no_snapshots(snapshot):
        raise AssertionError("the exploding engine never pauses")

    target = scheduler.systems["refs"].target
    target.engines["exploding"] = Engine(start=lambda unit, fuel: Exploding(), restore=no_snapshots)
    responses = scheduler.serve(
        [
            Request(language="RefLL", source=_nested_refll_boundary(3), request_id="healthy"),
            Request(
                language="RefLL",
                source=_nested_refll_boundary(3),
                backend="exploding",
                request_id="crashing",
            ),
            Request(language="MiniML", system="affine", source="(+ 1 1)", request_id="other-system"),
        ]
    )
    by_id = {response.request.request_id: response for response in responses}
    assert by_id["crashing"].error == "RuntimeError: engine bug"
    assert by_id["crashing"].result is None
    assert by_id["healthy"].ok
    assert by_id["other-system"].ok
    # The sequential path guards identically.
    sequential = scheduler.serve_sequential([response.request for response in responses])
    assert [response.error for response in sequential] == [response.error for response in responses]


def test_step_n_rejects_non_positive_limits():
    for execution in (
        lcvm_cek.CompiledExecution(_lcvm_code(2)),
        lcvm_machine.SubstitutionExecution(_lcvm_code(2)),
        stack_cek.CompiledExecution(_stacklang_code(2)),
        stack_machine.SubstitutionExecution(_stacklang_code(2)),
    ):
        with pytest.raises(ValueError):
            execution.step_n(0)
        with pytest.raises(ValueError):
            execution.step_n(-5)
        # The rejected calls made no progress; the execution still runs clean.
        assert execution.steps == 0
        result = execution.step_n(1_000_000)
        assert result is not None


# ---------------------------------------------------------------------------
# Resumable oracles: slicing must not change the observable result
# ---------------------------------------------------------------------------


def _drive_sliced(execution, slice_steps):
    slices = 0
    result = None
    while result is None:
        result = execution.step_n(slice_steps)
        slices += 1
    return result, slices


def test_lcvm_oracle_executions_match_their_one_shot_runs():
    code = _lcvm_code(4)
    full = lcvm_machine.run(code, fuel=100_000)
    for slice_steps in (1, 3, 7, 1_000_000):
        execution = lcvm_machine.SubstitutionExecution(code, fuel=100_000)
        result, slices = _drive_sliced(execution, slice_steps)
        assert _machine_observe(result) == _machine_observe(full)
        if slice_steps == 1:
            assert slices >= full.steps  # genuinely bounded slices


def test_stacklang_oracle_executions_match_their_one_shot_runs():
    code = _stacklang_code(4)
    full = stack_machine.run(code, fuel=100_000)
    for slice_steps in (1, 5, 1_000_000):
        execution = stack_machine.SubstitutionExecution(code, fuel=100_000)
        result, _slices = _drive_sliced(execution, slice_steps)
        assert _machine_observe(result) == _machine_observe(full)


def test_oracle_fuel_exhaustion_is_slice_independent():
    code = _lcvm_code(4)
    total = lcvm_machine.run(code, fuel=100_000).steps
    fuel = total // 2
    full = lcvm_machine.run(code, fuel=fuel)
    assert full.status is Status.OUT_OF_FUEL and full.steps == fuel
    result, _slices = _drive_sliced(lcvm_machine.SubstitutionExecution(code, fuel=fuel), 7)
    assert result.status is Status.OUT_OF_FUEL
    assert result.steps == fuel
    assert str(result.config.expr) == str(full.config.expr)


def test_compiled_divergence_burns_fuel_not_the_python_stack():
    # (λx. x x)(λx. x x): every β-step of the compiled machine is one
    # transition on its explicit continuation, never a Python frame, so
    # divergence ends in fuel exhaustion even under a tiny recursion limit.
    omega = App(Lam("x", App(Var("x"), Var("x"))), Lam("x", App(Var("x"), Var("x"))))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        result, slices = _drive_sliced(lcvm_cek.CompiledExecution(omega, fuel=50_000), 256)
    finally:
        sys.setrecursionlimit(limit)
    assert result.status is Status.OUT_OF_FUEL
    assert result.failure_code is None
    assert result.steps == 50_000
    assert slices >= 50_000 // 256


# ---------------------------------------------------------------------------
# Timing split and async entry points
# ---------------------------------------------------------------------------


def test_prepare_splits_compile_time_from_execution_start_time():
    scheduler = make_default_scheduler(slice_steps=32)
    request = Request(language="RefLL", source=_nested_refll_boundary(3))
    cold = scheduler.submit(request)
    warm = scheduler.submit(request)
    # Both phases are timed, separately, on every admission.
    for response in (cold, warm):
        assert response.ok
        assert response.compile_seconds > 0.0
        assert response.start_seconds > 0.0
    # The warm request hits the pipeline LRU: its compile phase is exactly
    # the (tiny) cache lookup — what warm_cache actually warms — while the
    # start phase still does real per-request setup and is accounted apart.
    assert not cold.cache_hit
    assert warm.cache_hit


def test_run_batch_works_from_inside_a_running_event_loop():
    """Regression: ``serve`` used to raise RuntimeError under a running loop."""
    scheduler = make_default_scheduler(slice_steps=32)
    requests = [
        Request(language="RefLL", source=_nested_refll_boundary(3), request_id="a"),
        Request(
            language="RefLL",
            source=_nested_refll_boundary(2),
            backend="substitution",
            request_id="b",
        ),
    ]
    expected = [_observe(response) for response in scheduler.serve(requests)]

    async def _from_coroutine():
        return scheduler.serve(requests)  # sync API, called inside a loop

    responses = asyncio.run(_from_coroutine())
    assert [_observe(response) for response in responses] == expected


def test_warm_cache_prepopulates_the_pipeline_lru():
    scheduler = make_default_scheduler(slice_steps=32)
    hot = [
        ("RefLL", _nested_refll_boundary(3)),
        Request(language="MiniML", system="affine", source=_nested_ml_affi_boundary(3)),
    ]
    assert scheduler.warm_cache(hot) == 2
    responses = scheduler.serve(
        [
            Request(language="RefLL", source=_nested_refll_boundary(3)),
            Request(language="MiniML", system="affine", source=_nested_ml_affi_boundary(3)),
        ]
    )
    assert all(response.cache_hit for response in responses)
    assert all(response.ok for response in responses)


def test_warm_cache_accounting_across_warm_serve_evict_sequences():
    """warm_cache's effect is visible in cache_stats(): misses while warming,
    hits while serving, evictions once the warm set overflows the LRU."""
    scheduler = make_default_scheduler(slice_steps=32)
    frontend = scheduler.systems["refs"].frontend("RefLL")
    frontend.cache_capacity = 2
    sources = [_nested_refll_boundary(depth) for depth in (2, 3, 4)]

    # Warming 3 programs through a capacity-2 LRU: 3 misses, 1 eviction, and
    # only the 2 most recently warmed programs stay resident.
    assert scheduler.warm_cache([("RefLL", source) for source in sources]) == 3
    stats = scheduler.cache_stats()["refs"]["RefLL"]
    assert stats["misses"] == 3
    assert stats["evictions"] == 1
    assert stats["entries"] == 2
    assert stats["hits"] == 0

    # Serving a resident program is the hit warm_cache paid for...
    warm = scheduler.serve([Request(language="RefLL", source=sources[2])])[0]
    assert warm.ok and warm.cache_hit
    assert scheduler.cache_stats()["refs"]["RefLL"]["hits"] == 1

    # ...while the evicted program misses, recompiles, and evicts again.
    evicted = scheduler.serve([Request(language="RefLL", source=sources[0])])[0]
    assert evicted.ok and not evicted.cache_hit
    stats = scheduler.cache_stats()["refs"]["RefLL"]
    assert stats["misses"] == 4
    assert stats["evictions"] == 2
    assert stats["entries"] == 2

    # The per-response snapshot taken at admission matches the live counters.
    assert evicted.cache_stats["misses"] == 4


def test_warm_cache_rejects_malformed_hot_entries():
    scheduler = make_default_scheduler(slice_steps=32)
    with pytest.raises(Exception):
        scheduler.warm_cache([("NoSuchLanguage", "(x)")])
    with pytest.raises(Exception):
        scheduler.warm_cache([("RefLL", "(this does not parse")])


# ---------------------------------------------------------------------------
# Hypothesis: results are independent of the interleaving order
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    schedule=st.lists(st.integers(0, len(REQUESTS) - 1), max_size=80),
    slice_steps=st.integers(1, 64),
    weights=st.lists(st.integers(1, 8), min_size=len(REQUESTS), max_size=len(REQUESTS)),
    checkpoint_every=st.integers(1, 5),
)
def test_interleaving_order_independence(schedule, slice_steps, weights, checkpoint_every):
    prepared = [SCHEDULER.prepare(request) for request in REQUESTS]
    executions = [entry.execution for entry in prepared]
    assert all(execution is not None for execution in executions)
    driver = StepSlicedDriver(slice_steps=slice_steps)
    hooks = []
    driven = driver.run_batch(
        executions,
        weights=weights,
        schedule=schedule,
        on_checkpoint=lambda index, slices: hooks.append(slices),
        checkpoint_every=checkpoint_every,
    )
    observed = [(True, _observe_result(outcome.result)) for outcome in driven]
    assert observed == EXPECTED
    assert all(slices % checkpoint_every == 0 for slices in hooks if slices)
