"""The multi-process worker pool (:mod:`repro.serve.pool`).

What is pinned here:

* **pool == sequential** — sharding a mixed batch (three systems, four
  backends, mixed fuel budgets, frontend rejections) across worker
  processes is observably identical to the parent's sequential baseline;
* **deterministic sharding & affinity** — placement is a process-stable
  hash of the program (repeats land on the same warm worker) unless a
  per-request ``affinity`` key reroutes it;
* **cross-process pipeline-cache sharing** — a program compiled on one
  worker is published to the parent store and warms other workers
  (``shared_cache_hit``), with pickle-failure fallback to recompilation;
* **batched boundary crossings** — identical requests coalesce onto one VM
  instance per shard with per-request accounting preserved;
* **crash isolation** — a dying worker process fails only its own shard's
  requests and is respawned for the next batch.

The spawn start method requires the custom scheduler factories below to be
module-level (pickled by reference and re-imported in the child).
"""

import os
import pickle

import pytest

from repro.core.language import Engine
from repro.serve import HashRing, Request, Scheduler, WorkerPool, make_default_scheduler
from repro.util.workloads import (
    nested_ml_affi_boundary,
    nested_ml_l3_boundary,
    nested_refll_boundary,
)


def _observable(response):
    """The scheduling- and placement-independent view of a response."""
    result = response.result
    return (
        response.error is None,
        None if result is None else str(result.value),
        None if result is None else str(result.failure),
        None if result is None else result.steps,
    )


def _mixed_requests():
    """Three systems, two backends, duplicates, a starved and two bad requests."""
    return [
        Request(language="RefLL", source=nested_refll_boundary(5), request_id="refs-deep"),
        Request(language="RefLL", source=nested_refll_boundary(3), backend="substitution", request_id="refs-oracle"),
        Request(language="RefLL", source=nested_refll_boundary(4), backend="substitution", request_id="refs-oracle-deep"),
        Request(language="MiniML", system="affine", source=nested_ml_affi_boundary(4), request_id="affine-a"),
        Request(language="MiniML", system="affine", source=nested_ml_affi_boundary(4), request_id="affine-dup"),
        Request(language="MiniML", system="affine", source=nested_ml_affi_boundary(3), backend="substitution", request_id="affine-oracle"),
        Request(language="Affi", source="(if (boundary bool 7) 1 2)", request_id="affi-small"),
        Request(language="MiniML", system="l3", source=nested_ml_l3_boundary(4), request_id="l3-deep"),
        Request(language="MiniML", system="l3", source=nested_ml_l3_boundary(3), backend="substitution", request_id="l3-oracle"),
        Request(language="MiniML", system="affine", source=nested_ml_affi_boundary(4), fuel=7, request_id="starved"),
        Request(language="Klingon", source="(qapla)", request_id="unroutable"),
        Request(language="RefLL", source="(this does not parse", request_id="parse-error"),
    ]


def _affinity_for_shard(pool, shard, language="RefLL", source="x"):
    """An affinity key that lands a request on ``shard``."""
    for attempt in range(64):
        key = f"pin-{shard}-{attempt}"
        if pool.shard_of(Request(language=language, source=source, affinity=key)) == shard:
            return key
    raise AssertionError(f"no affinity key found for shard {shard}")


# -- pool == sequential differential ------------------------------------------


def test_pool_matches_sequential_on_a_mixed_batch():
    requests = _mixed_requests()
    with WorkerPool(workers=2, slice_steps=128) as pool:
        sequential = pool.run_sequential(requests)
        pooled = pool.run_batch(requests)
        assert [_observable(r) for r in pooled] == [_observable(r) for r in sequential]
        # Every pooled response names the worker that served it.
        assert all(response.shard in (0, 1) for response in pooled)
        # The two rejections failed at the frontend on the worker, like sequential.
        by_id = {response.request.request_id: response for response in pooled}
        assert by_id["unroutable"].error is not None
        assert by_id["parse-error"].error is not None
        assert str(by_id["starved"].result.failure) == "out_of_fuel"
        # The duplicate affine program shared one VM instance on its shard.
        assert by_id["affine-a"].coalesced == 2
        assert by_id["affine-dup"].coalesced == 2
        assert by_id["affine-dup"].steps == by_id["affine-a"].steps
        # ...but the fuel-starved duplicate of the same program did not.
        assert by_id["starved"].coalesced == 1


def test_pool_sequential_shards_match_interleaved_shards():
    requests = _mixed_requests()
    with WorkerPool(workers=2, slice_steps=96) as pool:
        interleaved = pool.run_batch(requests)
        sequential = pool.run_batch(requests, sequential_shards=True)
        assert [_observable(r) for r in interleaved] == [_observable(r) for r in sequential]


def test_single_worker_pool_still_serves():
    requests = _mixed_requests()[:4]
    with WorkerPool(workers=1, slice_steps=128) as pool:
        pooled = pool.run_batch(requests)
        assert [_observable(r) for r in pooled] == [_observable(r) for r in pool.run_sequential(requests)]
        assert all(response.shard == 0 for response in pooled)


# -- sharding policy ----------------------------------------------------------


#: Routes requests to their placement key, as a pool's parent scheduler does.
_ROUTER = make_default_scheduler()


def shard_of(request, workers):
    """The worker a ``workers``-wide pool places ``request`` on."""
    return HashRing(range(workers)).node_for(_ROUTER.placement_key(request))


def test_sharding_is_deterministic_and_program_keyed():
    request = Request(language="RefLL", source=nested_refll_boundary(4))
    again = Request(language="RefLL", source=nested_refll_boundary(4))
    for workers in (1, 2, 3, 7):
        shard = shard_of(request, workers)
        assert 0 <= shard < workers
        # Repeat submissions of the same program land on the same worker.
        assert shard_of(again, workers) == shard
    # The system disambiguator participates in the key: the same MiniML
    # source routed to §4-affine vs §5-l3 hashes differently (their compiled
    # artifacts live in different cache namespaces), so for some worker
    # count the two land on different shards.
    ml = Request(language="MiniML", system="affine", source="(+ 1 2)")
    ml_l3 = Request(language="MiniML", system="l3", source="(+ 1 2)")
    assert any(shard_of(ml, workers) != shard_of(ml_l3, workers) for workers in range(2, 16))


def test_affinity_overrides_program_sharding():
    base = Request(language="RefLL", source=nested_refll_boundary(4))
    pinned_a = Request(language="RefLL", source=nested_refll_boundary(4), affinity="a")
    pinned_also_a = Request(language="MiniML", system="l3", source="(+ 1 2)", affinity="a")
    for workers in (2, 3, 7):
        # Same affinity key => same shard, whatever the program.
        assert shard_of(pinned_a, workers) == shard_of(pinned_also_a, workers)
    # And some affinity key moves the request off its default shard.
    workers = 2
    moved = [
        key
        for key in (f"k{i}" for i in range(32))
        if shard_of(Request(language="RefLL", source=base.source, affinity=key), workers)
        != shard_of(base, workers)
    ]
    assert moved, "no affinity key ever changed the placement"


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_pool_places_a_request_on_the_ring_node_of_its_placement_key(workers):
    # One placement function: the pool hashes its router's placement key on
    # a ring of its worker indices, so implicit and explicit system
    # spellings of one program share a worker.  No worker is started.
    requests = [
        Request(language="RefLL", source=nested_refll_boundary(4)),
        Request(language="RefLL", system="refs", source=nested_refll_boundary(4)),
        Request(language="MiniML", system="affine", source=nested_ml_affi_boundary(3)),
        Request(language="MiniML", system="l3", source=nested_ml_l3_boundary(3)),
        Request(language="RefLL", source=nested_refll_boundary(4), affinity="a"),
        Request(language="Klingon", source="(x)"),
    ]
    with WorkerPool(workers=workers, slice_steps=128) as pool:
        shards = [pool.shard_of(request) for request in requests]
    assert shards == [shard_of(request, workers) for request in requests]
    assert shards[0] == shards[1]


# -- cross-process pipeline-cache sharing -------------------------------------


def test_artifact_published_by_one_worker_warms_the_other():
    source = nested_refll_boundary(6)
    with WorkerPool(workers=2, slice_steps=128) as pool:
        first_key = _affinity_for_shard(pool, 0, source=source)
        second_key = _affinity_for_shard(pool, 1, source=source)
        first = pool.run_batch([Request(language="RefLL", source=source, affinity=first_key)])[0]
        second = pool.run_batch([Request(language="RefLL", source=source, affinity=second_key)])[0]
        assert first.shard == 0 and second.shard == 1
        # Worker 0 compiled and published; worker 1 imported instead of compiling.
        assert first.published and not first.shared_cache_hit
        assert second.shared_cache_hit and not second.published
        assert second.cache_hit  # the import satisfied the frontend LRU lookup
        assert first.ok and _observable(first) == _observable(second)
        stats = pool.cache_stats()
        assert stats["publishes"] >= 1
        assert stats["hits"] >= 1
        assert stats["cross_worker_hits"] >= 1
        assert stats["entries"] >= 1
        assert stats["unpicklable"] == 0


def test_same_batch_publish_race_credits_only_the_winning_shard():
    # One batch spreads the same program across both shards while the store
    # is empty: both workers compile, but the store keeps one artifact
    # (first shard in collection order) — exactly one response may claim it.
    source = nested_refll_boundary(5)
    with WorkerPool(workers=2, slice_steps=128) as pool:
        batch = [
            Request(language="RefLL", source=source, affinity=_affinity_for_shard(pool, 0, source=source)),
            Request(language="RefLL", source=source, affinity=_affinity_for_shard(pool, 1, source=source)),
        ]
        responses = pool.run_batch(batch)
        assert sorted(response.shard for response in responses) == [0, 1]
        assert sum(1 for response in responses if response.published) == 1
        assert pool.cache_stats()["publishes"] == 1
        assert _observable(responses[0]) == _observable(responses[1])


def test_repeat_submissions_stay_on_the_warm_worker():
    source = nested_refll_boundary(5)
    with WorkerPool(workers=2, slice_steps=128) as pool:
        first = pool.run_batch([Request(language="RefLL", source=source)])[0]
        second = pool.run_batch([Request(language="RefLL", source=source)])[0]
        assert first.shard == second.shard
        # The repeat is a *local* LRU hit on the warm worker, not a shared-store
        # import (the store only backfills workers that have never seen it)...
        assert second.cache_hit and not second.shared_cache_hit
        # ...and only the first submission published: the worker is told which
        # keys the store holds, so repeats are not re-exported or re-flagged.
        assert first.published and not second.published
        assert pool.cache_stats()["publishes"] == 1


def test_explicit_and_implicit_system_spellings_share_a_shard():
    # RefLL routes to the refs system whether or not the request says so;
    # both spellings are the same program and must land on the same warm
    # worker (the pool hashes the *routed* system, not the raw field).
    source = nested_refll_boundary(4)
    implicit = Request(language="RefLL", source=source)
    explicit = Request(language="RefLL", system="refs", source=source)
    with WorkerPool(workers=5, slice_steps=128) as pool:
        assert pool.shard_of(implicit) == pool.shard_of(explicit)


class _UnpicklableProgram(tuple):
    """A runnable StackLang program whose pickling always fails."""

    def __new__(cls, items):
        self = super().__new__(cls, items)
        self.hook = lambda: None  # lambdas do not pickle
        return self


def _unpicklable_refll_factory(slice_steps: int) -> Scheduler:
    """Default scheduler, except RefLL compiles to an unpicklable artifact."""
    scheduler = make_default_scheduler(slice_steps=slice_steps)
    frontend = scheduler.systems["refs"].frontend("RefLL")
    original = frontend.compile
    frontend.compile = lambda term: _UnpicklableProgram(original(term))
    return scheduler


def test_unpicklable_artifacts_fall_back_to_recompilation():
    source = nested_refll_boundary(5)
    with WorkerPool(workers=2, slice_steps=128, scheduler_factory=_unpicklable_refll_factory) as pool:
        first_key = _affinity_for_shard(pool, 0, source=source)
        second_key = _affinity_for_shard(pool, 1, source=source)
        first = pool.run_batch([Request(language="RefLL", source=source, affinity=first_key)])[0]
        second = pool.run_batch([Request(language="RefLL", source=source, affinity=second_key)])[0]
        # Nothing was published or imported -- the second worker recompiled
        # from source and produced the same observable result.
        assert not first.published and not second.shared_cache_hit
        assert not second.cache_hit
        assert first.error is None and second.error is None
        assert _observable(first) == _observable(second)
        stats = pool.cache_stats()
        assert stats["unpicklable"] >= 1
        assert stats["publishes"] == 0 and stats["entries"] == 0


# -- batched boundary crossings (scheduler-level, in-process) ------------------


def test_serve_batched_coalesces_identical_requests():
    scheduler = make_default_scheduler(slice_steps=128)
    source = nested_refll_boundary(4)
    requests = [
        Request(language="RefLL", source=source, request_id="dup-0"),
        Request(language="RefLL", source=source, request_id="dup-1"),
        Request(language="RefLL", source=source, request_id="dup-2"),
        Request(language="RefLL", source=source, backend="substitution", request_id="oracle"),
        Request(language="RefLL", source=source, fuel=5, request_id="starved"),
    ]
    batched = scheduler.serve(requests, batched=True)
    sequential = make_default_scheduler(slice_steps=128).serve_sequential(requests)
    assert [_observable(r) for r in batched] == [_observable(r) for r in sequential]
    assert [r.coalesced for r in batched] == [3, 3, 3, 1, 1]
    assert [r.request.request_id for r in batched] == [r.request_id for r in requests]
    # The three coalesced requests share the representative's accounting...
    assert batched[1].steps == batched[0].steps and batched[1].slices == batched[0].slices
    # ...and the program compiled exactly once: the dup group's representative
    # missed, while the oracle/starved groups (same source, own VM instances)
    # hit the pipeline LRU instead of recompiling.
    frontend = scheduler.systems["refs"].frontend("RefLL")
    assert frontend.cache_stats()["misses"] == 1
    assert frontend.cache_stats()["hits"] == 2
    # Different backend / different fuel kept their own VM instances.
    assert str(batched[4].result.failure) == "out_of_fuel"


def test_unroutable_requests_never_coalesce():
    scheduler = make_default_scheduler(slice_steps=128)
    assert scheduler.batch_key(Request(language="Klingon", source="(x)")) is None


# -- crash isolation ----------------------------------------------------------


class _Crash:
    """An execution that kills its process: no exception, no cleanup."""

    def step_n(self, limit):
        os._exit(13)  # simulate a segfaulting backend


def _no_snapshots(snapshot):
    raise AssertionError("the crashing engine never pauses")


def _crashing_factory(slice_steps: int) -> Scheduler:
    """Default scheduler plus a 'crash' backend that kills the process."""
    scheduler = make_default_scheduler(slice_steps=slice_steps)
    engine = Engine(start=lambda unit, fuel: _Crash(), restore=_no_snapshots)
    scheduler.systems["refs"].target.engines["crash"] = engine
    return scheduler


def test_worker_crash_migrates_inflight_requests_and_respawns():
    with WorkerPool(workers=2, slice_steps=128, scheduler_factory=_crashing_factory) as pool:
        crash_key = _affinity_for_shard(pool, 0)
        healthy_key = _affinity_for_shard(pool, 1)
        healthy_source = nested_refll_boundary(4)
        requests = [
            # retry_budget=0 pins the crasher to the classic whole-shard
            # failure; with budget it would be redispatched from scratch and
            # crash its recovery target too (covered by the retry tests).
            Request(
                language="RefLL", source="(+ 1 2)", backend="crash",
                affinity=crash_key, request_id="boom", retry_budget=0,
            ),
            Request(language="RefLL", source=healthy_source, affinity=crash_key, request_id="collateral"),
            Request(language="RefLL", source=healthy_source, affinity=healthy_key, request_id="survivor"),
        ]
        responses = pool.run_batch(requests)
        by_id = {response.request.request_id: response for response in responses}
        # The crashing request itself fails: its execution cannot snapshot,
        # so there is nothing to resume from -- and its budget is zero, so
        # no redispatch either.
        assert "crashed" in by_id["boom"].error
        # But the snapshot-capable request sharing the shard is *migrated*:
        # resumed from its last streamed checkpoint on the surviving shard,
        # with the same observable outcome as an undisturbed run.
        collateral = by_id["collateral"]
        assert collateral.error is None and collateral.result.ok
        assert collateral.migrated_from == 0 and collateral.shard == 1
        assert collateral.resumed
        baseline = pool.run_sequential([requests[1]])[0]
        assert str(collateral.result) == str(baseline.result)
        assert collateral.result.steps == baseline.result.steps
        assert by_id["survivor"].error is None and by_id["survivor"].result.ok
        assert by_id["survivor"].migrated_from is None
        stats = pool.cache_stats()
        assert stats["worker_crashes"] == 1
        assert stats["migrations"] == 1
        # The pool respawned the dead worker: the next batch is served fine.
        retry = pool.run_batch(
            [Request(language="RefLL", source=healthy_source, affinity=crash_key, request_id="retry")]
        )[0]
        assert retry.error is None and retry.result.ok
        assert retry.shard == 0


def test_worker_crash_without_checkpoints_still_fails_only_its_shard():
    # checkpoint_every=None turns streaming off, and retry_budget=0 turns
    # redispatch off: the pre-reliability contract (whole-shard failure,
    # clean respawn) must still hold exactly.
    with WorkerPool(
        workers=2, slice_steps=128, scheduler_factory=_crashing_factory, checkpoint_every=None
    ) as pool:
        crash_key = _affinity_for_shard(pool, 0)
        healthy_key = _affinity_for_shard(pool, 1)
        healthy_source = nested_refll_boundary(4)
        requests = [
            Request(
                language="RefLL", source="(+ 1 2)", backend="crash",
                affinity=crash_key, request_id="boom", retry_budget=0,
            ),
            Request(
                language="RefLL", source=healthy_source, affinity=crash_key,
                request_id="collateral", retry_budget=0,
            ),
            Request(language="RefLL", source=healthy_source, affinity=healthy_key, request_id="survivor"),
        ]
        responses = pool.run_batch(requests)
        by_id = {response.request.request_id: response for response in responses}
        assert "crashed" in by_id["boom"].error
        assert "crashed" in by_id["collateral"].error
        assert by_id["survivor"].error is None and by_id["survivor"].result.ok
        assert pool.cache_stats()["migrations"] == 0


def test_close_is_idempotent_and_safe_after_worker_crash():
    pool = WorkerPool(workers=2, slice_steps=128, scheduler_factory=_crashing_factory)
    try:
        crash_key = _affinity_for_shard(pool, 0)
        healthy_key = _affinity_for_shard(pool, 1)
        requests = [
            Request(
                language="RefLL", source="(+ 1 2)", backend="crash",
                affinity=crash_key, retry_budget=0,
            ),
            Request(language="RefLL", source=nested_refll_boundary(3), affinity=healthy_key),
        ]
        pool.run_batch(requests)
        # Kill the surviving worker too, without telling the pool: close()
        # must cope with a dead process behind a half-broken pipe.
        survivor = pool._pool[1]
        assert survivor is not None
        survivor.process.terminate()
        survivor.process.join(timeout=5)
    finally:
        pool.close()
    # Every worker slot is torn down, and closing again is a no-op.
    assert all(worker is None for worker in pool._pool)
    pool.close()
    assert all(worker is None for worker in pool._pool)
    with pytest.raises(RuntimeError):
        pool.run_batch([Request(language="RefLL", source="1")])


def test_worker_death_between_batches_respawns_rewarmed_from_the_store():
    source = nested_refll_boundary(5)
    with WorkerPool(workers=2, slice_steps=128) as pool:
        key = _affinity_for_shard(pool, 0, source=source)
        request = Request(language="RefLL", source=source, affinity=key)
        first = pool.run_batch([request])[0]
        assert first.published and first.shard == 0
        # Kill the worker outside any batch (an OOM kill, a segfault at idle).
        worker = pool._pool[0]
        worker.process.terminate()
        worker.process.join(timeout=5)
        # The next batch is served by a respawn that is re-warmed from the
        # shared store: the artifact ships again and satisfies the compile.
        second = pool.run_batch([request])[0]
        assert second.error is None and second.result.ok
        assert second.shard == 0
        assert second.shared_cache_hit and not second.published
        assert pool.cache_stats()["worker_crashes"] == 1


# -- picklable compiled-program handles ---------------------------------------


def test_compiled_units_round_trip_pickle_in_all_three_systems():
    scheduler = make_default_scheduler(slice_steps=128)
    probes = [
        Request(language="RefLL", source=nested_refll_boundary(3)),
        Request(language="MiniML", system="affine", source=nested_ml_affi_boundary(3)),
        Request(language="MiniML", system="l3", source=nested_ml_l3_boundary(3)),
    ]
    for request in probes:
        _name, system = scheduler.route(request)
        unit = system.compile_source(request.language, request.source)
        clone = pickle.loads(pickle.dumps(unit))
        original = system.run_compiled(unit.target_code)
        migrated = system.run_compiled(clone.target_code)
        assert str(original.value) == str(migrated.value)
        assert original.steps == migrated.steps


def test_stacklang_compiled_execution_pickles_mid_run():
    from repro.stacklang.cek import CompiledExecution

    scheduler = make_default_scheduler(slice_steps=128)
    unit = scheduler.systems["refs"].compile_source("RefLL", nested_refll_boundary(8))
    reference = CompiledExecution(unit.target_code, fuel=100_000).run()
    for split in (1, 9, 40):
        execution = CompiledExecution(unit.target_code, fuel=100_000)
        early = execution.step_n(split)
        migrated = pickle.loads(pickle.dumps(execution))
        result = early if early is not None else migrated.run()
        assert result.status == reference.status
        assert result.steps == reference.steps
        assert str(result.config) == str(reference.config)
