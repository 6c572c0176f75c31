"""The failure-policy layer (:mod:`repro.serve.reliability` & friends).

What is pinned here:

* **deadlines** — the driver stops an expired execution at a slice boundary
  with a structured :class:`DeadlineExceeded` (never an exception), the
  scheduler surfaces it as ``response.deadline_exceeded`` carrying a
  *resumable* checkpoint whenever the backend snapshots, and resuming that
  checkpoint completes with outcomes identical to an undisturbed run —
  with cumulative step/slice accounting still inside the bounded-latency
  invariant;
* **retry/backoff** — the schedule is exponential, capped, and
  deterministic under a seeded RNG; crashed requests with budget are
  redispatched (or migrated) with ``response.attempts`` counting every
  dispatch, and budgets are never exceeded however many workers die;
* **quarantine** — per-shard circuit breakers walk
  closed → open → half_open → closed deterministically under fake time and
  injected crashes, rerouting traffic off the quarantined shard meanwhile;
* **load shedding** — the ``max_batch`` limit sheds the deterministic *tail* of an
  oversized batch with structured ``rejected_overload`` responses, and
  everything admitted is served normally;
* **fault composition** — a worker crash, a stall past a deadline and
  suppressed checkpoints in one mixed batch each take their own recovery
  path (migration, deadline checkpoint, redispatch), and every response
  equals the fault-free baseline or is a structured policy response;
* **store hardening & GC** — corrupt checkpoint files surface as
  :class:`CheckpointCorrupt` (a ``ValueError``) naming the path, never
  break scanning the healthy rest, and age/size GC evicts oldest-first;
  injected ``store.write`` and ``restore.tamper`` faults raise ``OSError``
  and :class:`CheckpointCorrupt`.

Worker-pool tests use module-level factories/plans (the spawn start method
pickles them by reference); breakers live in the parent, so their fake
clocks can stay local.
"""

import os
import pickle
import random
from dataclasses import replace

import pytest

from repro.serve import (
    AdmissionController,
    BreakerPolicy,
    Checkpoint,
    CheckpointCorrupt,
    CheckpointStore,
    CircuitBreaker,
    DeadlineExceeded,
    Request,
    RetryPolicy,
    StepSlicedDriver,
    WorkerPool,
    make_default_scheduler,
)
from repro.serve.faults import Fault, FaultPlan
from repro.util.workloads import (
    nested_ml_affi_boundary,
    nested_ml_l3_boundary,
    nested_refll_boundary,
)


class FakeClock:
    """A deterministic clock: advances only when told to (or per call)."""

    def __init__(self, tick: float = 0.0):
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _affinity_for_shard(pool, shard, language="RefLL", source="x"):
    for attempt in range(64):
        key = f"pin-{shard}-{attempt}"
        if pool.shard_of(Request(language=language, source=source, affinity=key)) == shard:
            return key
    raise AssertionError(f"no affinity key found for shard {shard}")


# -- retry policy -------------------------------------------------------------


def test_retry_backoff_is_exponential_capped_and_seeded():
    policy = RetryPolicy(base_delay_seconds=0.1, multiplier=2.0, max_delay_seconds=0.5, jitter=0.0)
    assert [policy.delay_seconds(n) for n in (1, 2, 3, 4, 5)] == [0.1, 0.2, 0.4, 0.5, 0.5]
    jittered = RetryPolicy(base_delay_seconds=0.1, jitter=0.25)
    first = [jittered.delay_seconds(n, random.Random(7)) for n in (1, 2, 3)]
    second = [jittered.delay_seconds(n, random.Random(7)) for n in (1, 2, 3)]
    assert first == second  # same seed, same schedule -- chaos runs reproduce
    for attempt, delay in enumerate(first, start=1):
        center = jittered.delay_seconds(attempt)
        assert center * 0.75 <= delay <= center * 1.25
    with pytest.raises(ValueError):
        policy.delay_seconds(0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)


# -- circuit breaker ----------------------------------------------------------


def test_breaker_quarantine_round_trip_is_deterministic():
    clock = FakeClock()
    breaker = CircuitBreaker(
        BreakerPolicy(failure_threshold=2, window_seconds=30.0, cooldown_seconds=5.0),
        clock=clock,
    )
    assert breaker.state() == "closed" and breaker.allow()
    breaker.record_failure()
    assert breaker.state() == "closed"  # one failure is not a loop
    breaker.record_failure()
    assert breaker.state() == "open" and not breaker.allow()
    clock.advance(4.9)
    assert not breaker.allow()  # cooldown not elapsed
    clock.advance(0.2)
    assert breaker.state() == "half_open"
    assert breaker.allow()  # the single probe
    assert not breaker.allow()  # trials are bounded until the probe reports
    breaker.record_success()
    assert breaker.state() == "closed" and breaker.allow()
    assert breaker.stats()["transitions"] == ["closed", "open", "half_open", "closed"]


def test_breaker_probe_failure_reopens_with_fresh_cooldown():
    clock = FakeClock()
    breaker = CircuitBreaker(
        BreakerPolicy(failure_threshold=1, cooldown_seconds=5.0), clock=clock
    )
    breaker.record_failure()
    clock.advance(5.1)
    assert breaker.allow()  # half-open probe
    breaker.record_failure()
    assert breaker.state() == "open" and not breaker.allow()
    clock.advance(5.1)
    assert breaker.state() == "half_open"
    breaker.record_success()
    assert breaker.state() == "closed"
    assert breaker.stats()["transitions"] == [
        "closed", "open", "half_open", "open", "half_open", "closed",
    ]


def test_breaker_window_forgets_old_failures():
    clock = FakeClock()
    breaker = CircuitBreaker(
        BreakerPolicy(failure_threshold=2, window_seconds=10.0), clock=clock
    )
    breaker.record_failure()
    clock.advance(11.0)
    breaker.record_failure()  # the first failure has aged out of the window
    assert breaker.state() == "closed"
    assert breaker.stats()["window_failures"] == 1
    assert breaker.stats()["failures"] == 2  # lifetime count keeps both


# -- admission / load shedding ------------------------------------------------


def test_admission_controller_limits():
    admission = AdmissionController(max_batch=3)
    assert admission.batch_cutoff(5) == 3
    assert admission.batch_cutoff(2) == 2
    assert AdmissionController().batch_cutoff(1000) == 1000
    with pytest.raises(ValueError):
        AdmissionController(max_batch=0)


# -- deadlines ----------------------------------------------------------------


class _NeverDone:
    """A resumable execution that always has more work (for driver tests)."""

    def step_n(self, limit):
        return None


def test_driver_returns_structured_deadline_exceeded_at_the_boundary():
    clock = FakeClock(tick=1.0)  # one second per clock read
    driver = StepSlicedDriver(slice_steps=4, clock=clock)
    driven = driver.run_batch([_NeverDone()], deadlines=[2.0], sequential=True)[0]
    assert isinstance(driven.result, DeadlineExceeded)
    assert driven.result.elapsed_seconds >= driven.result.deadline_seconds
    assert driven.slices >= 1  # stopped at a boundary, not mid-slice
    with pytest.raises(ValueError):
        driver.run_batch([_NeverDone()], deadlines=[], sequential=True)  # length mismatch


def test_deadline_exceeded_response_carries_a_resumable_checkpoint():
    source = nested_refll_boundary(5)
    clock = FakeClock(tick=0.5)
    scheduler = make_default_scheduler(
        slice_steps=8, driver=StepSlicedDriver(8, clock=clock)
    )
    request = Request(language="RefLL", source=source, deadline_seconds=1.0, request_id="slow")
    response = scheduler.serve([request])[0]
    assert response.deadline_exceeded and response.policy_stopped
    assert response.error is None and response.result is None
    # Every built-in backend snapshots, so the invariant's "when the backend
    # supports snapshots" clause applies: the checkpoint must be there.
    assert response.checkpoint is not None
    assert response.checkpoint.slices == response.slices
    assert "deadline" in str(response) and "resumable" in str(response)

    # Granting more time = resuming the checkpoint, not re-running the work:
    # a fresh attempt (real clock, full per-attempt budget) completes with
    # outcomes identical to an undisturbed run, and the *cumulative*
    # accounting still satisfies steps <= slices * slice_steps.
    fresh = make_default_scheduler(slice_steps=8)
    resumed = fresh.resume([response.checkpoint])[0]
    assert resumed.error is None and resumed.result.ok and resumed.resumed
    baseline = make_default_scheduler(slice_steps=8).serve_sequential(
        [Request(language="RefLL", source=source)]
    )[0]
    assert str(resumed.result) == str(baseline.result)
    assert resumed.result.steps == baseline.result.steps
    total_slices = response.checkpoint.slices + resumed.slices
    assert resumed.result.steps <= total_slices * 8


def test_deadline_applies_per_attempt_through_preempting_and_resume():
    source = nested_refll_boundary(5)
    clock = FakeClock(tick=0.5)
    scheduler = make_default_scheduler(
        slice_steps=8, driver=StepSlicedDriver(8, clock=clock)
    )
    request = Request(language="RefLL", source=source, deadline_seconds=1.0)
    response = scheduler.serve([request], checkpoint_every=1)[0]
    assert response.deadline_exceeded
    assert not response.preempted  # policy expiry, not a preemption ceiling
    assert response.checkpoint is not None
    # The same fake clock expires the resumed attempt again -- each attempt
    # gets the full budget, and each expiry yields a *fresh* checkpoint
    # strictly further along.
    again = scheduler.resume([response.checkpoint])[0]
    assert again.deadline_exceeded and again.checkpoint is not None
    assert again.error is None


# -- pool: retry / redispatch -------------------------------------------------

#: Every streamed checkpoint fails to encode: recovery must redispatch.
_NO_CHECKPOINTS = Fault(site="checkpoint.pickle", times=None)

_CRASH_FIRST_SLICE = FaultPlan(
    faults=(_NO_CHECKPOINTS, Fault(site="worker.crash", shard=0, at_slice=1, times=1))
)


def test_pool_redispatches_crashed_requests_within_budget():
    # No checkpoint streams: recovery must go through from-scratch
    # redispatch, and the default budget of 1 covers exactly one recovery.
    with WorkerPool(
        workers=2,
        slice_steps=16,
        fault_plan=_CRASH_FIRST_SLICE,
        sleeper=lambda _seconds: None,
    ) as pool:
        key = _affinity_for_shard(pool, 0)
        request = Request(
            language="RefLL", source=nested_refll_boundary(4), affinity=key, request_id="victim"
        )
        response = pool.run_batch([request])[0]
        assert response.error is None and response.result.ok
        assert response.attempts == 2  # the crashed dispatch plus the retry
        assert not response.resumed and response.migrated_from is None
        assert response.shard == 1  # recovered on the surviving worker
        baseline = pool.run_sequential([request])[0]
        assert str(response.result) == str(baseline.result)
        assert response.result.steps == baseline.result.steps
        stats = pool.cache_stats()
        assert stats["crashes"] == 1
        assert stats["redispatches"] == 1 and stats["retries"] == 1
        assert stats["migrations"] == 0


_CRASH_VICTIM_FIRST_SLICE = FaultPlan(
    faults=(
        _NO_CHECKPOINTS,
        Fault(site="worker.crash", shard=0, request_id="victim", at_slice=1, times=1),
    )
)


def test_pool_redispatch_counts_shared_store_hits():
    # Shard 0 publishes the program; a later crash there redispatches a
    # request for it to shard 1, which is warmed from the shared store.  The
    # redispatch is accounted like a first dispatch: one hit, cross-worker.
    source = nested_refll_boundary(4)
    with WorkerPool(
        workers=2,
        slice_steps=16,
        fault_plan=_CRASH_VICTIM_FIRST_SLICE,
        sleeper=lambda _seconds: None,
    ) as pool:
        key = _affinity_for_shard(pool, 0, source=source)
        first = pool.run_batch(
            [Request(language="RefLL", source=source, affinity=key, request_id="first")]
        )[0]
        assert first.published and first.shard == 0
        victim = pool.run_batch(
            [Request(language="RefLL", source=source, affinity=key, request_id="victim")]
        )[0]
        assert victim.error is None and victim.result.ok
        assert victim.shard == 1 and victim.attempts == 2
        assert victim.shared_cache_hit and not victim.published
        stats = pool.cache_stats()
        assert stats["redispatches"] == 1
        assert stats["hits"] == 1 and stats["cross_worker_hits"] == 1


_CRASH_SECOND_SLICE = FaultPlan(
    faults=(Fault(site="worker.crash", shard=0, at_slice=2, times=1),)
)


def test_pool_migration_counts_attempts_and_cumulative_slices():
    # With streaming on, the same crash is recovered by *migration*: the
    # parent holds the slice-1 checkpoint when the worker dies at slice 2.
    with WorkerPool(
        workers=2,
        slice_steps=16,
        fault_plan=_CRASH_SECOND_SLICE,
        sleeper=lambda _seconds: None,
    ) as pool:
        key = _affinity_for_shard(pool, 0)
        request = Request(
            language="RefLL", source=nested_refll_boundary(5), affinity=key, request_id="victim"
        )
        response = pool.run_batch([request])[0]
        assert response.error is None and response.result.ok
        assert response.resumed and response.migrated_from == 0
        assert response.attempts == 2
        baseline = pool.run_sequential([request])[0]
        assert str(response.result) == str(baseline.result)
        assert response.result.steps == baseline.result.steps
        # Cumulative accounting: response.slices folds in the checkpoint's
        # pre-crash slices, so the bounded-latency invariant holds end to end.
        assert response.slices >= 2
        assert response.result.steps <= response.slices * 16
        assert pool.cache_stats()["migrations"] == 1


_CRASH_AND_SUPPRESS = FaultPlan(
    faults=(
        Fault(site="checkpoint.pickle", shard=0, times=None),
        Fault(site="worker.crash", shard=0, at_slice=2, times=1),
    )
)


def test_pool_falls_back_to_redispatch_when_checkpoints_are_suppressed():
    # The checkpoint.pickle fault eats every streamed checkpoint on shard 0,
    # so the crash leaves nothing to migrate -- recovery must come from the
    # from-scratch path, and outcomes must still match the baseline.
    with WorkerPool(
        workers=2,
        slice_steps=16,
        fault_plan=_CRASH_AND_SUPPRESS,
        sleeper=lambda _seconds: None,
    ) as pool:
        key = _affinity_for_shard(pool, 0)
        request = Request(
            language="RefLL", source=nested_refll_boundary(5), affinity=key, request_id="victim"
        )
        response = pool.run_batch([request])[0]
        assert response.error is None and response.result.ok
        assert not response.resumed and response.attempts == 2
        baseline = pool.run_sequential([request])[0]
        assert str(response.result) == str(baseline.result)
        stats = pool.cache_stats()
        assert stats["migrations"] == 0 and stats["redispatches"] == 1


_ALWAYS_CRASH_SHARD_0 = FaultPlan(
    faults=(Fault(site="worker.crash", shard=0, at_slice=1, times=None),)
)


def test_pool_exhausted_retry_budget_keeps_structured_crash_error():
    # The shard-0 fault fires in every incarnation (times=None), so every
    # attempt that lands there dies; but _recover places retries on the
    # *surviving* shard, where the fault does not match -- so to pin the
    # budget-exhaustion path we aim the crash at both shards.
    with WorkerPool(
        workers=2,
        slice_steps=16,
        fault_plan=FaultPlan(
            faults=(_NO_CHECKPOINTS, Fault(site="worker.crash", at_slice=1, times=None))
        ),
        sleeper=lambda _seconds: None,
    ) as pool:
        key = _affinity_for_shard(pool, 0)
        request = Request(
            language="RefLL",
            source=nested_refll_boundary(4),
            affinity=key,
            request_id="doomed",
            retry_budget=2,
        )
        response = pool.run_batch([request])[0]
        assert response.error is not None and "crashed" in response.error
        assert response.result is None
        stats = pool.cache_stats()
        # Initial dispatch + 2 budgeted retries, every one a crash.
        assert stats["crashes"] == 3
        assert stats["retries"] == 2


# -- pool: quarantine ---------------------------------------------------------

_CRASH_BOOM_REQUESTS = FaultPlan(
    faults=(
        Fault(site="worker.crash", shard=0, request_id="boom1", at_slice=1),
        Fault(site="worker.crash", shard=0, request_id="boom2", at_slice=1),
    )
)


def test_pool_quarantines_crash_looping_shard_and_probe_respawns():
    clock = FakeClock()
    with WorkerPool(
        workers=2,
        slice_steps=16,
        breaker_policy=BreakerPolicy(failure_threshold=2, cooldown_seconds=60.0),
        fault_plan=_CRASH_BOOM_REQUESTS,
        clock=clock,
        sleeper=lambda _seconds: None,
    ) as pool:
        key = _affinity_for_shard(pool, 0)
        source = nested_refll_boundary(4)

        def pinned(request_id, **kwargs):
            return Request(
                language="RefLL", source=source, affinity=key,
                request_id=request_id, **kwargs,
            )

        # Two crash-looping batches open shard 0's breaker.
        first = pool.run_batch([pinned("boom1", retry_budget=0)])[0]
        second = pool.run_batch([pinned("boom2", retry_budget=0)])[0]
        assert "crashed" in first.error and "crashed" in second.error
        assert pool.stats()["members"][0]["breaker"]["state"] == "open"

        # Quarantined: shard-0 traffic reroutes to the healthy worker, with
        # the detour recorded on the response.
        rerouted = pool.run_batch([pinned("detour")])[0]
        assert rerouted.error is None and rerouted.result.ok
        assert rerouted.shard == 1 and rerouted.rerouted_from == 0
        assert pool.stats()["counters"]["reroutes"] == 1

        # Cooldown elapses (fake time): the next dispatch is the half-open
        # probe -- it respawns the worker, succeeds, and closes the breaker.
        clock.advance(61.0)
        probe = pool.run_batch([pinned("probe")])[0]
        assert probe.error is None and probe.result.ok
        assert probe.shard == 0 and probe.rerouted_from is None
        shard0 = pool.stats()["members"][0]["breaker"]
        assert shard0["state"] == "closed"
        assert shard0["transitions"] == ["closed", "open", "half_open", "closed"]


def test_pool_sheds_batch_tail_and_serves_the_admitted_head():
    source = nested_refll_boundary(3)
    requests = [
        Request(language="RefLL", source=source, request_id=f"r{i}") for i in range(4)
    ]
    with WorkerPool(workers=2, slice_steps=64, max_batch=2) as pool:
        responses = pool.run_batch(requests)
        for response in responses[:2]:
            assert response.error is None and response.result.ok
        for response in responses[2:]:
            assert response.rejected_overload and response.policy_stopped
            assert response.result is None and response.error is None
        baseline = pool.run_sequential(requests[:2])
        for served, undisturbed in zip(responses[:2], baseline):
            assert str(served.result) == str(undisturbed.result)
        assert pool.cache_stats()["shed"] == 2
        assert pool.stats()["admission"] == {"max_batch": 2, "shed": 2}


_SLOW_SHARD_0 = FaultPlan(
    faults=(Fault(site="worker.slow", shard=0, request_id="lag", at_slice=1, delay_seconds=0.25),)
)


def test_pool_deadline_fires_under_an_injected_slow_worker():
    with WorkerPool(workers=2, slice_steps=16, fault_plan=_SLOW_SHARD_0) as pool:
        key = _affinity_for_shard(pool, 0)
        lagging = Request(
            language="RefLL",
            source=nested_refll_boundary(5),
            affinity=key,
            request_id="lag",
            deadline_seconds=0.05,
        )
        response = pool.run_batch([lagging])[0]
        assert response.deadline_exceeded and response.policy_stopped
        assert response.error is None and response.result is None
        # The checkpoint crossed the process boundary with the response: the
        # caller can grant more time without repaying the work.
        assert response.checkpoint is not None
        resumed = make_default_scheduler(slice_steps=16).resume([
            # A fresh attempt without the injected stall or deadline.
            response.checkpoint
        ])
        # The stored request still carries its deadline; the resumed attempt
        # gets the full budget afresh and, without the stall, finishes.
        assert resumed[0].error is None


# -- pool: three fault kinds in one batch -------------------------------------

#: A small slice size keeps the deep requests running for several slices, so
#: the injected crash and stall land mid-run, not after the work is done.
CHAOS_SLICE_STEPS = 32
CHAOS_SEED = 20260808
#: The stall is far past the deadline, so the deadline verdict is
#: deterministic despite real clocks in the workers.
CHAOS_DEADLINE_SECONDS = 0.05
CHAOS_SLOW_SECONDS = 0.3
#: Headroom on the ``steps <= slices x slice_steps`` audit for a backend
#: whose step accounting is slightly coarser than its slicing.
SLICE_BUDGET_TOLERANCE = 1.05


def _chaos_requests():
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


def _observable(response):
    result = response.result
    return (
        response.error,
        None if result is None else str(result.value),
        None if result is None else str(result.failure),
        None if result is None else result.steps,
    )


def test_pool_recovers_one_batch_from_a_crash_a_stall_and_lost_checkpoints():
    """Three fault kinds in one mixed batch, each aimed at a shard, request and slice.

    ``worker.crash`` kills the shard serving ``refs-deep`` when that request
    finishes its second slice, so it migrates from its streamed checkpoint;
    ``checkpoint.pickle`` suppresses the checkpoints of ``affine-deep`` on
    the same shard, so it is redispatched from scratch; ``worker.slow``
    stalls ``l3-deep`` on the other shard past its deadline, so it comes back
    as a structured ``deadline_exceeded`` whose checkpoint, resumed, lands on
    the baseline.  Every other response equals the fault-free baseline.
    """
    requests = _chaos_requests()
    baseline = {
        response.request.request_id: _observable(response)
        for response in make_default_scheduler(slice_steps=CHAOS_SLICE_STEPS).serve_sequential(requests)
    }
    by_id = {request.request_id: request for request in requests}
    # Placement only: a pool spawns its workers on the first batch.
    with WorkerPool(workers=2, slice_steps=CHAOS_SLICE_STEPS) as probe:
        crash_shard = probe.shard_of(by_id["refs-deep"])
        other_shard = 1 - crash_shard
        # The deadline victim sits off the crashing shard, so its expiry
        # cannot race the crash; the checkpoint-suppressed victim sits on it.
        slow_key = _affinity_for_shard(probe, other_shard, source=by_id["l3-deep"].source)
        suppress_key = _affinity_for_shard(probe, crash_shard, source=by_id["affine-deep"].source)
    batch = [
        replace(request, affinity=slow_key, deadline_seconds=CHAOS_DEADLINE_SECONDS)
        if request.request_id == "l3-deep"
        else replace(request, affinity=suppress_key)
        if request.request_id == "affine-deep"
        else request
        for request in requests
    ]
    plan = FaultPlan(
        seed=CHAOS_SEED,
        faults=(
            Fault(site="worker.crash", request_id="refs-deep", shard=crash_shard, at_slice=2),
            Fault(
                site="worker.slow",
                request_id="l3-deep",
                shard=other_shard,
                at_slice=1,
                delay_seconds=CHAOS_SLOW_SECONDS,
            ),
            Fault(site="checkpoint.pickle", request_id="affine-deep", shard=crash_shard, times=None),
        ),
    )
    with WorkerPool(workers=2, slice_steps=CHAOS_SLICE_STEPS, fault_plan=plan) as pool:
        responses = pool.run_batch(batch)
        stats = pool.cache_stats()

    served = {response.request.request_id: response for response in responses}
    for request_id, expected in baseline.items():
        if not served[request_id].policy_stopped:
            assert _observable(served[request_id]) == expected, request_id
    # The bounded-latency invariant holds on the cumulative, retry-inclusive
    # accounting.
    for response in responses:
        if response.result is not None:
            budget = response.slices * CHAOS_SLICE_STEPS * SLICE_BUDGET_TOLERANCE
            assert response.result.steps <= budget, response.request.request_id
    assert [request_id for request_id, response in served.items() if response.policy_stopped] == [
        "l3-deep"
    ]
    stalled = served["l3-deep"]
    assert stalled.deadline_exceeded and stalled.checkpoint is not None
    # Granting the expired request more time resumes its checkpoint.
    resumed = make_default_scheduler(slice_steps=CHAOS_SLICE_STEPS).resume([stalled.checkpoint])[0]
    assert _observable(resumed) == baseline["l3-deep"]
    assert stats["crashes"] == 1
    assert stats["migrations"] >= 1 and stats["redispatches"] >= 1
    migrated, redispatched = served["refs-deep"], served["affine-deep"]
    assert migrated.resumed and migrated.migrated_from == crash_shard and migrated.attempts == 2
    assert not redispatched.resumed and redispatched.attempts == 2


# -- checkpoint store: hardening & GC -----------------------------------------


def _dummy_checkpoint(tag="one"):
    # gc/scan care about files, not runnability: a minimal well-formed
    # Checkpoint is enough (restoring it is the scheduler tests' business).
    return Checkpoint(
        request=Request(language="RefLL", source="1", request_id=tag),
        system="refs",
        backend="substitution",
        snapshot={"version": 1, "tag": tag},
    )


def test_store_load_raises_structured_corrupt_error(tmp_path):
    store = CheckpointStore(str(tmp_path))
    junk = os.path.join(str(tmp_path), "junk.ckpt")
    with open(junk, "wb") as handle:
        handle.write(b"not a pickle at all")
    with pytest.raises(CheckpointCorrupt) as caught:
        store.load(junk)
    assert caught.value.path == junk
    assert junk in str(caught.value)
    assert isinstance(caught.value, ValueError)  # pre-hardening callers

    wrong_type = os.path.join(str(tmp_path), "wrong.ckpt")
    with open(wrong_type, "wb") as handle:
        handle.write(pickle.dumps({"not": "a checkpoint"}))
    with pytest.raises(CheckpointCorrupt, match="not a Checkpoint"):
        store.load(wrong_type)

    stale = _dummy_checkpoint()
    stale.version = 99
    path = store.save(stale)
    with pytest.raises(CheckpointCorrupt, match="version"):
        store.load(path)


def test_store_scan_isolates_corrupt_files_from_healthy_ones(tmp_path):
    store = CheckpointStore(str(tmp_path))
    good = store.save(_dummy_checkpoint("good"))
    junk = os.path.join(str(tmp_path), "bad.ckpt")
    with open(junk, "wb") as handle:
        handle.write(b"\x80garbage")
    loadable, corrupt = store.scan()
    assert [path for path, _checkpoint in loadable] == [good]
    assert [path for path, _error in corrupt] == [junk]
    assert isinstance(corrupt[0][1], CheckpointCorrupt)
    assert store.load_all() and len(store.load_all()) == 1  # skips the junk
    with pytest.raises(CheckpointCorrupt):
        store.load_all(strict=True)


def test_store_gc_evicts_by_age_then_bounds_by_size(tmp_path):
    store = CheckpointStore(str(tmp_path))
    old = store.save(_dummy_checkpoint("old"))
    fresh = store.save(_dummy_checkpoint("fresh"))
    now = 1_000_000.0
    os.utime(old, (now - 100.0, now - 100.0))
    os.utime(fresh, (now - 1.0, now - 1.0))
    removed = store.gc(max_age_seconds=50.0, now=now)
    assert removed == [old]
    assert store.paths() == [fresh]

    # Size bound: oldest evicted first until under budget.
    third = store.save(_dummy_checkpoint("third"))
    os.utime(fresh, (now - 10.0, now - 10.0))
    os.utime(third, (now - 5.0, now - 5.0))
    size_third = os.stat(third).st_size
    removed = store.gc(max_total_bytes=size_third, now=now)
    assert removed == [fresh]
    assert store.paths() == [third]

    # No limits configured anywhere: gc is a no-op.
    assert CheckpointStore(str(tmp_path)).gc() == []


def test_resume_stored_completes_consumes_and_gcs(tmp_path):
    source = nested_refll_boundary(5)
    scheduler = make_default_scheduler(slice_steps=16)
    paused = scheduler.serve(
        [Request(language="RefLL", source=source, request_id="durable")], max_slices=1
    )[0]
    assert paused.preempted and paused.checkpoint is not None
    plan = FaultPlan(faults=(Fault(site="store.write"), Fault(site="restore.tamper")))
    store = CheckpointStore(str(tmp_path), max_age_seconds=3600.0, fault_plan=plan)
    with pytest.raises(OSError):
        store.save(paused.checkpoint)  # the injected disk failure
    saved = store.save(paused.checkpoint)  # the fault is spent: this one lands
    with pytest.raises(CheckpointCorrupt):
        store.load(saved)  # the injected torn read, reported structurally
    assert store.load(saved).request.request_id == "durable"
    assert plan.fired() == {"store.write": 1, "restore.tamper": 1}
    junk = os.path.join(str(tmp_path), "torn.ckpt")
    with open(junk, "wb") as handle:
        handle.write(b"half a pickl")
    ancient = store.save(_dummy_checkpoint("ancient"))
    os.utime(ancient, (1.0, 1.0))  # far past the age limit

    responses = make_default_scheduler(slice_steps=16).resume_stored(store)
    by_error = [r for r in responses if r.error is not None]
    finished = [r for r in responses if r.error is None and r.result is not None]
    assert len(finished) == 1 and finished[0].resumed
    baseline = scheduler.serve_sequential([Request(language="RefLL", source=source)])[0]
    assert str(finished[0].result) == str(baseline.result)
    assert finished[0].result.steps == baseline.result.steps
    # The corrupt file surfaced structurally (naming its path), not fatally.
    assert any(junk in response.error for response in by_error)
    # Consumed: the finished run's file is gone (never resumed twice); GC'd:
    # the ancient checkpoint aged out under the store's configured limit.
    remaining = store.paths()
    assert saved not in remaining
    assert ancient not in remaining
    # The torn file stays for inspection until GC ages it out.
    assert remaining == [junk]
    assert store.gc(max_age_seconds=0.0) == [junk]
    assert store.paths() == []
