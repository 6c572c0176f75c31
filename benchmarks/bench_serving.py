"""Serving-layer throughput: N concurrent mixed programs, one interleaved loop.

Builds a batch of mixed-workload requests across all three case-study
systems — compiled fast-path requests next to oracle-backed differential
requests, plus a deliberately fuel-starved one — and measures:

* **sequential**: each request driven to completion before the next starts
  (single-program latency × N, the baseline the slice loop must not blow
  up), and
* **interleaved**: the whole batch step-sliced round-robin in one slice
  loop by the :class:`~repro.serve.scheduler.Scheduler`.

A second, *oracle-heavy* batch drives deep requests through the resumable
oracle backends (the StackLang and LCVM substitution machines) and gates the
bounded-latency guarantee: no backend may advance more than ``slice_steps``
machine transitions per scheduler turn, so every response must satisfy
``steps ≤ slices × slice_steps`` (within a small tolerance).  A
``BlockingExecution``-style regression — a backend running its whole program
inside its first slice — fails this gate immediately.

A third, *checkpoint* section measures the snapshot machinery: per-backend
snapshot/restore overhead (time and pickled size) for every
snapshot-capable backend in all three systems, and a preempt → resume
differential — a mixed batch stopped at a slice ceiling by
``serve(..., max_slices=...)`` and continued by ``resume`` must land on exactly the
uninterrupted sequential outcomes (results, failures, and total step
counts).  With ``--pool`` it also demonstrates mid-run **migration**: a
batch pinned to a shard whose worker dies mid-run must finish on a
surviving shard from streamed slice-boundary checkpoints, matching the
undisturbed baseline.

With ``--pool`` a further section exercises the multi-process
:class:`~repro.serve.pool.WorkerPool`: the same mixed batch sharded across
worker processes (gated identical to the sequential baseline), plus a
*repeated-program* batch that pins one program to each worker in turn via
per-request affinity keys — the first worker compiles and **publishes** the
artifact to the parent-owned shared store, the second **imports** it instead
of recompiling, and the gate requires at least one such cross-worker
pipeline-cache hit with the publish/hit counters reported in the JSON.

The module is runnable as a script: it writes machine-readable
``BENCH_serving.json`` (batch timings, throughput, interleaving overhead
ratio, per-request accounting, slice-budget audit, pool shard/cache
metrics) so the serving-perf trajectory is tracked across PRs, and with
``--check`` exits non-zero if interleaved results diverge from sequential
results anywhere, if the interleaved batch takes more than ``2×`` the
sequential baseline, if any slice of any backend exceeds the slice budget,
if any snapshot-capable backend failed the snapshot/restore measurement,
if the preempt → resume differential diverges (or preempts nothing), or
(with ``--pool``) if pooled results diverge, no cross-worker cache hit was
recorded, or the crashed-shard batch failed to migrate:

    PYTHONPATH=src python benchmarks/bench_serving.py --check --pool

With ``--chaos`` a further section runs the 12-request mixed batch under a
seeded :class:`~repro.serve.faults.FaultPlan` injecting three distinct
fault kinds (a mid-run worker crash, a stalling worker against a request
deadline, suppressed checkpoint serialization) and gates that every
response either equals the fault-free sequential baseline or is a
*structured* policy response (``deadline_exceeded`` with a resumable
checkpoint, ``rejected_overload``) — no raw exceptions, no lost requests —
plus overload-shedding and checkpoint-store fault subsections:

    PYTHONPATH=src python benchmarks/bench_serving.py --check --pool --chaos

With ``--net`` a network-tier section serves the same mixed batch through a
:class:`~repro.serve.net.NetRouter` fronting TCP worker endpoints (gated
identical to the sequential baseline), probes elastic membership — a third
endpoint joins and only a bounded fraction of placements may move, all onto
the joiner, which must warm from the shared store instead of recompiling —
and gates *rebalance under skew*: a hot-program batch on three endpoints
must land a strictly smaller max/min shard-load imbalance under top-2
load-aware dispatch than under the old static sha256-modulo placement.
Combined with ``--chaos`` it also injects connection drops (recovered by
checkpoint migration onto the surviving endpoint) and slow links (converted
into structured drops by the per-attempt frame deadline):

    PYTHONPATH=src python benchmarks/bench_serving.py --check --pool --net
    PYTHONPATH=src python benchmarks/bench_serving.py --check --net --chaos

With ``--qos`` a multi-tenant load section drives a *generated* mixed-tenant
batch (the differential fuzzer's seeded well-typed programs plus the
promoted legacy corpus entries, identical workload mix per priority class)
through the weighted driver at a small slice size and reports p50/p99
latency per priority class.  The gate requires high-priority p99 strictly
below best-effort p99 under contention, identical results to the sequential
baseline (weights shape latency, never outcomes), and the slice budget
intact under weighted scheduling:

    PYTHONPATH=src python benchmarks/bench_serving.py --check --qos
"""

import json
import math
import os
import pickle
import sys
import tempfile
import time
from dataclasses import replace

from repro.serve import (
    PRIORITY_WEIGHTS,
    CheckpointCorrupt,
    CheckpointStore,
    DispatchPolicy,
    Fault,
    FaultPlan,
    HashRing,
    NetRouter,
    NetWorker,
    Request,
    Scheduler,
    WorkerPool,
    make_default_scheduler,
    static_shard_of,
)
from repro.util.workloads import (
    nested_ml_affi_boundary as _nested_ml_affi_boundary,
    nested_ml_l3_boundary as _nested_ml_l3_boundary,
    nested_refll_boundary as _nested_refll_boundary,
)

SLICE_STEPS = 512
REPEATS = 3
DEEP = 12
SHALLOW = 6
#: Oracle-heavy batch: deep enough that every oracle needs many slices at
#: ORACLE_SLICE_STEPS, shallow enough that the quadratic substitution
#: machines stay fast.  (The recursive parsers cap workload depth at ~80.)
ORACLE_DEEP = 40
ORACLE_SLICE_STEPS = 64
#: Headroom on the ``steps ≤ slices × slice_steps`` audit; the guarantee is
#: exact today, the tolerance only keeps the gate from tripping on a future
#: backend whose step accounting is slightly coarser than its slicing.
SLICE_BUDGET_TOLERANCE = 1.05
JSON_REPORT = "BENCH_serving.json"
POOL_WORKERS = 2
#: The checkpoint section pauses executions after one slice this long, so
#: every backend (the shallow-stepping oracles included) is mid-run when
#: its snapshot is taken.
CHECKPOINT_PROBE_STEPS = 8
#: Fuel for the snapshot-overhead probes: ample, the probes pause after one
#: short slice and the restored runs are never driven to completion.
CHECKPOINT_PROBE_FUEL = 1_000_000
#: Preemption ceiling and slice size for the preempt -> resume
#: differential: a budget of ``PREEMPT_MAX_SLICES x PREEMPT_SLICE_STEPS``
#: transitions stops the deep requests mid-run while the small ones finish
#: normally.
PREEMPT_MAX_SLICES = 2
PREEMPT_SLICE_STEPS = 8
#: Chaos section (``--chaos``): a small slice size so the deep requests in
#: the mixed batch run for several slices — injected crashes and stalls land
#: *mid-run*, not after the work is already done.
CHAOS_SLICE_STEPS = 32
CHAOS_SEED = 20260808
#: The injected stall (worker.slow) is far past the victim's deadline, so
#: the deadline verdict is deterministic despite real clocks in the workers.
CHAOS_DEADLINE_SECONDS = 0.05
CHAOS_SLOW_SECONDS = 0.3
#: Overload subsection: admit this many of the 10 mixed requests; the tail
#: (the four l3/starved requests) must be shed with structured
#: ``rejected_overload`` responses.
CHAOS_MAX_BATCH = 6
#: Network section (``--net``): fleet sizes and gates.  The join probe maps
#: this many distinct affinity keys before and after a third endpoint joins;
#: consistent hashing must move a *nonzero, bounded* fraction of them
#: (expected ~1/3 — static modulo placement would move ~2/3) and move them
#: only onto the joiner.
NET_WORKERS = POOL_WORKERS
NET_PROBE_KEYS = 48
NET_REMAP_BOUND = 0.65
#: Rebalance-under-skew: this many copies of one hot program against two
#: singleton programs on a 3-endpoint fleet.  Static sha256 placement piles
#: every copy on one endpoint; top-2 load-aware dispatch must split them.
NET_SKEW_COPIES = 10
#: Slow-link chaos: the injected pre-RESPONSE stall must dwarf the router's
#: per-attempt frame deadline so the timeout verdict is deterministic, and
#: the deadline must comfortably exceed any honest inter-frame gap (one
#: 32-step slice, or a cold compile) so healthy endpoints never trip it.
NET_ATTEMPT_TIMEOUT_SECONDS = 0.25
NET_SLOW_SECONDS = 1.0
#: QoS section (``--qos``): the generated mixed-tenant batch.  A small slice
#: size keeps every tenant mid-run for many turns, so the weighted driver
#: actually arbitrates contention; the seed pins the fuzz generator's
#: contribution so the batch is identical across runs and machines.
QOS_SLICE_STEPS = 32
QOS_SEED = 20260808
QOS_CLASSES = ("high", "standard", "best-effort")
#: Generated well-typed programs per priority class (every class gets the
#: *same* programs, so per-class latency is comparable).
QOS_GENERATED_PER_CLASS = 8
#: Legacy corpus depths folded into each class's workload mix.
QOS_LEGACY_DEPTHS = (12, 24)
#: One deliberately long-running tenant per class: the refs Landin's knot at
#: this fuel is ~375 slices of ballast at QOS_SLICE_STEPS, the contention
#: that separates the classes' p99s (the knot dominates each class's p99, and
#: a weight-8 tenant clears it ~8x sooner in scheduler turns than a weight-1
#: tenant, so the gate's margin is structural, not timing luck).
QOS_BALLAST_FUEL = 12_000
#: Latency passes; per-class percentiles are the median across passes so a
#: single noisy pass cannot flip the gate.
QOS_REPEATS = 3


def make_requests(deep: int = DEEP, shallow: int = SHALLOW):
    """A mixed batch: 3 systems, 2 backends, 10 requests, one fuel-starved."""
    return [
        Request(language="RefLL", source=_nested_refll_boundary(deep), request_id="refs-deep"),
        Request(language="RefLL", source=_nested_refll_boundary(shallow), request_id="refs-shallow"),
        Request(
            language="RefLL",
            source=_nested_refll_boundary(shallow),
            backend="substitution",
            request_id="refs-oracle",
        ),
        Request(
            language="MiniML",
            system="affine",
            source=_nested_ml_affi_boundary(deep),
            request_id="affine-deep",
        ),
        Request(
            language="MiniML",
            system="affine",
            source=_nested_ml_affi_boundary(shallow),
            backend="substitution",
            request_id="affine-oracle",
        ),
        Request(language="Affi", source="(if (boundary bool 7) 1 2)", request_id="affi-small"),
        Request(
            language="MiniML", system="l3", source=_nested_ml_l3_boundary(deep), request_id="l3-deep"
        ),
        Request(
            language="MiniML",
            system="l3",
            source=_nested_ml_l3_boundary(shallow),
            backend="substitution",
            request_id="l3-oracle",
        ),
        Request(
            language="MiniML", system="l3", source="(! (boundary (ref int) (new true)))", request_id="l3-small"
        ),
        Request(
            language="MiniML",
            system="affine",
            source=_nested_ml_affi_boundary(deep),
            fuel=7,
            request_id="affine-starved",
        ),
    ]


def make_oracle_requests(deep: int = ORACLE_DEEP):
    """An oracle-heavy batch: the resumable oracle backends, driven deep."""
    return [
        Request(
            language="RefLL",
            source=_nested_refll_boundary(deep),
            backend="substitution",
            request_id="oracle-refs-substitution",
        ),
        Request(
            language="MiniML",
            system="l3",
            source=_nested_ml_l3_boundary(deep // 2),
            backend="substitution",
            request_id="oracle-l3-substitution",
        ),
        # A compiled fast-path neighbour: its latency must not depend on the
        # deep oracles sharing the loop.
        Request(
            language="RefLL",
            source=_nested_refll_boundary(SHALLOW),
            request_id="oracle-batch-compiled-neighbour",
        ),
    ]


def _slice_budget_violations(responses, slice_steps):
    """Responses whose machines advanced past the per-turn slice budget.

    Each ``step_n`` call may advance at most ``slice_steps`` transitions, so
    ``steps ≤ slices × slice_steps`` must hold for every served response; a
    backend that runs its whole program in its first slice (the old
    ``BlockingExecution`` behaviour) violates it on any deep request.
    """
    violations = []
    for response in responses:
        if response.result is None or response.slices == 0:
            continue
        budget = response.slices * slice_steps * SLICE_BUDGET_TOLERANCE
        if response.result.steps > budget:
            violations.append(
                {
                    "id": response.request.request_id,
                    "backend": response.backend,
                    "steps": response.result.steps,
                    "slices": response.slices,
                    "slice_steps": slice_steps,
                }
            )
    return violations


def _observable(response):
    """The scheduling-independent view of a response (no timings/slices)."""
    result = response.result
    return (
        response.error,
        None if result is None else str(result.value),
        None if result is None else str(result.failure),
        None if result is None else result.steps,
    )


def _best_of(action, repeats: int = REPEATS) -> float:
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        action()
        timings.append(time.perf_counter() - start)
    return min(timings)


def _affinity_for_shard(pool, shard: int, source: str) -> str:
    """A per-request affinity key that places ``source`` on ``shard``."""
    for attempt in range(256):
        key = f"pin-{shard}-{attempt}"
        if pool.shard_of(Request(language="RefLL", source=source, affinity=key)) == shard:
            return key
    raise AssertionError(f"no affinity key found for shard {shard}")


def collect_pool_report() -> dict:
    """The multi-process section: sharded differential + cross-worker cache hits."""
    requests = make_requests()
    with WorkerPool(workers=POOL_WORKERS, slice_steps=SLICE_STEPS) as pool:
        sequential = pool.run_sequential(requests)
        pooled = pool.run_batch(requests)
        mismatches = [
            request.request_id
            for request, seq, shard in zip(requests, sequential, pooled)
            if _observable(seq) != _observable(shard)
        ]
        pool_seconds = _best_of(lambda: pool.run_batch(requests))
        sequential_seconds = _best_of(lambda: pool.run_sequential(requests))
        mixed_stats = pool.cache_stats()
        shard_load = {}
        for response in pooled:
            shard_load[str(response.shard)] = shard_load.get(str(response.shard), 0) + 1

    # Repeated-program batch: the same hot program deliberately spread across
    # every worker via affinity keys.  Worker 0 compiles and publishes; every
    # other worker must import the published artifact instead of recompiling —
    # the cross-worker pipeline-cache hit this benchmark gates on.
    hot_source = _nested_refll_boundary(DEEP)
    with WorkerPool(workers=POOL_WORKERS, slice_steps=SLICE_STEPS) as pool:
        rounds = []
        for shard in range(POOL_WORKERS):
            key = _affinity_for_shard(pool, shard, hot_source)
            batch = [
                Request(language="RefLL", source=hot_source, affinity=key, request_id=f"hot-{shard}-{copy}")
                for copy in range(3)
            ]
            rounds.append(pool.run_batch(batch))
        repeated_stats = pool.cache_stats()
        repeated_per_request = [
            {
                "id": response.request.request_id,
                "shard": response.shard,
                "ok": response.ok,
                "cache_hit": response.cache_hit,
                "shared_cache_hit": response.shared_cache_hit,
                "published": response.published,
                "coalesced": response.coalesced,
            }
            for responses in rounds
            for response in responses
        ]
        repeated_mismatches = [
            response.request.request_id for responses in rounds for response in responses if not response.ok
        ]

    return {
        "workers": POOL_WORKERS,
        "results_match": not mismatches,
        "mismatches": mismatches,
        "pool_seconds": pool_seconds,
        "sequential_seconds": sequential_seconds,
        "throughput_rps": len(requests) / pool_seconds,
        "shard_load": shard_load,
        "mixed_batch_cache": mixed_stats,
        "repeated_program_cache": repeated_stats,
        "repeated_program_ok": not repeated_mismatches,
        "repeated_program_per_request": repeated_per_request,
        "cross_worker_cache_hits": repeated_stats["cross_worker_hits"],
        "publishes": repeated_stats["publishes"],
    }


def _start_fleet(worker_count, slice_steps, fault_plans=None, dispatch=None, **router_kwargs):
    """A router wired to ``worker_count`` in-process network workers."""
    workers = []
    for endpoint_id in range(worker_count):
        worker = NetWorker(
            endpoint_id=endpoint_id,
            slice_steps=slice_steps,
            fault_plan=(fault_plans or {}).get(endpoint_id),
        )
        worker.start()
        workers.append(worker)
    router = NetRouter(slice_steps=slice_steps, dispatch=dispatch, **router_kwargs)
    router.start()
    for worker in workers:
        router.add_worker(worker.address)
    return router, workers


def _stop_fleet(router, workers):
    router.stop()
    for worker in workers:
        worker.stop()


def _net_affinity_for(router, endpoint_id: int, source: str) -> str:
    """A per-request affinity key the router's ring places on ``endpoint_id``."""
    for attempt in range(256):
        key = f"pin-{endpoint_id}-{attempt}"
        probe = Request(language="RefLL", source=source, affinity=key)
        if router.endpoint_for(probe) == endpoint_id:
            return key
    raise AssertionError(f"no affinity key found for endpoint {endpoint_id}")


def collect_net_report() -> dict:
    """The network-tier section: framed differential, elastic join, skew rebalance.

    Three gated subsections:

    * **differential** — the mixed batch through router + TCP workers equals
      the router's own sequential baseline, with timings;
    * **join** — a third endpoint joins a warm 2-endpoint fleet: a nonzero
      but bounded fraction of placements remap (all onto the joiner), and
      the joiner's first serving of an already-published program warms from
      the shared store instead of recompiling (``shared_cache_hit``);
    * **rebalance-under-skew** — ``NET_SKEW_COPIES`` copies of one hot
      program against two singletons on 3 endpoints: static sha256-modulo
      placement (the pool's original scheme, kept as
      :func:`~repro.serve.pool.static_shard_of`) piles every copy onto one
      endpoint, top-2 load-aware dispatch must land a strictly smaller
      max/min shard-load imbalance while still matching the sequential
      baseline.
    """
    requests = make_requests()
    hot_source = _nested_refll_boundary(DEEP)
    router, workers = _start_fleet(NET_WORKERS, SLICE_STEPS)
    try:
        sequential = router.run_sequential(requests)
        served = router.run_batch(requests)
        mismatches = [
            request.request_id
            for request, seq, net in zip(requests, sequential, served)
            if _observable(seq) != _observable(net)
        ]
        net_seconds = _best_of(lambda: router.run_batch(requests))
        sequential_seconds = _best_of(lambda: router.run_sequential(requests))
        endpoint_load = {}
        for response in served:
            endpoint_load[str(response.shard)] = endpoint_load.get(str(response.shard), 0) + 1

        # Publish the hot program before the join so the joiner can warm.
        seed = router.run_batch(
            [Request(language="RefLL", source=hot_source, request_id="hot-seed")]
        )[0]

        # -- elastic join ------------------------------------------------------
        probes = [
            Request(language="Affi", source="(if (boundary bool 7) 1 2)", affinity=f"key-{index}")
            for index in range(NET_PROBE_KEYS)
        ]
        before = [router.endpoint_for(probe) for probe in probes]
        joiner = NetWorker(endpoint_id=NET_WORKERS, slice_steps=SLICE_STEPS)
        joiner.start()
        workers.append(joiner)
        joiner_id = router.add_worker(joiner.address)
        after = [router.endpoint_for(probe) for probe in probes]
        moved = [index for index in range(len(probes)) if before[index] != after[index]]
        remap_fraction = len(moved) / len(probes)
        moved_only_to_joiner = all(after[index] == joiner_id for index in moved)

        pin = _net_affinity_for(router, joiner_id, hot_source)
        warmed = router.run_batch(
            [Request(language="RefLL", source=hot_source, affinity=pin, request_id="hot-join")]
        )[0]
        new_member_warm = bool(
            warmed.ok and warmed.shard == joiner_id and warmed.shared_cache_hit
        )
        store = router.stats()["store"]
    finally:
        _stop_fleet(router, workers)

    # -- rebalance under skew --------------------------------------------------
    skewed = [
        Request(language="RefLL", source=hot_source, request_id=f"hot-{index}")
        for index in range(NET_SKEW_COPIES)
    ] + [
        Request(language="Affi", source="(if (boundary bool 7) 1 2)", request_id="cold-affi"),
        Request(
            language="MiniML",
            system="l3",
            source="(! (boundary (ref int) (new true)))",
            request_id="cold-l3",
        ),
    ]
    skew_fleet = NET_WORKERS + 1

    def _imbalance(counts: dict) -> float:
        loads = [counts.get(str(endpoint), 0) for endpoint in range(skew_fleet)]
        return max(loads) / max(1, min(loads))

    static_counts: dict = {}
    for request in skewed:
        shard = str(static_shard_of(request, skew_fleet))
        static_counts[shard] = static_counts.get(shard, 0) + 1

    router, workers = _start_fleet(
        skew_fleet, SLICE_STEPS, dispatch=DispatchPolicy(top_k=2, balance_load=True)
    )
    try:
        skew_baseline = router.run_sequential(skewed)
        skew_served = router.run_batch(skewed)
        skew_mismatches = [
            request.request_id
            for request, seq, net in zip(skewed, skew_baseline, skew_served)
            if _observable(seq) != _observable(net)
        ]
        balanced_counts: dict = {}
        for response in skew_served:
            balanced_counts[str(response.shard)] = balanced_counts.get(str(response.shard), 0) + 1
        diverted = router.stats()["counters"]["diverted"]
    finally:
        _stop_fleet(router, workers)

    static_imbalance = _imbalance(static_counts)
    balanced_imbalance = _imbalance(balanced_counts)
    return {
        "workers": NET_WORKERS,
        "results_match": not mismatches,
        "mismatches": mismatches,
        "net_seconds": net_seconds,
        "sequential_seconds": sequential_seconds,
        "throughput_rps": len(requests) / net_seconds,
        "endpoint_load": endpoint_load,
        "store": store,
        "hot_seed_published": bool(seed.published),
        "join": {
            "probe_keys": NET_PROBE_KEYS,
            "joiner": joiner_id,
            "moved": len(moved),
            "remap_fraction": remap_fraction,
            "remap_bound": NET_REMAP_BOUND,
            "moved_only_to_joiner": moved_only_to_joiner,
            "new_member_warm": new_member_warm,
            "ok": bool(moved) and remap_fraction <= NET_REMAP_BOUND and moved_only_to_joiner,
        },
        "rebalance": {
            "fleet": skew_fleet,
            "skew_copies": NET_SKEW_COPIES,
            "results_match": not skew_mismatches,
            "mismatches": skew_mismatches,
            "static_shard_load": static_counts,
            "balanced_shard_load": balanced_counts,
            "static_imbalance": static_imbalance,
            "balanced_imbalance": balanced_imbalance,
            "diverted": diverted,
            "ok": not skew_mismatches and balanced_imbalance < static_imbalance,
        },
    }


def collect_net_chaos_report() -> dict:
    """Network chaos: injected connection drops and slow links, gated == baseline.

    Two subsections, each on a fresh 2-endpoint fleet at the chaos slice
    size (so the deep requests are genuinely mid-run when faults land):

    * **drop** — the victim endpoint (wherever the ring places ``refs-deep``)
      severs its connection abruptly at that request's second slice boundary,
      *after* streaming the boundary's checkpoint frame; the router must see
      the drop, account it on the endpoint's breaker, and finish the whole
      group by checkpoint migration on the survivor — results identical to
      the fault-free sequential baseline;
    * **slow link** — the victim stalls ``NET_SLOW_SECONDS`` before its
      terminal RESPONSE; the router's ``attempt_timeout_seconds`` per-frame
      deadline must convert the wedge into a structured drop and recover the
      same way.
    """
    requests = make_requests()
    scheduler = make_default_scheduler(slice_steps=CHAOS_SLICE_STEPS)
    victim = HashRing(range(NET_WORKERS)).node_for(scheduler.placement_key(requests[0]))

    drop_plan = FaultPlan(
        [Fault(site="net.drop", request_id="refs-deep", at_slice=2, times=1, shard=victim)],
        seed=CHAOS_SEED,
    )
    router, workers = _start_fleet(
        NET_WORKERS,
        CHAOS_SLICE_STEPS,
        fault_plans={victim: drop_plan},
        dispatch=DispatchPolicy(top_k=1, balance_load=False),
    )
    try:
        baseline = router.run_sequential(requests)
        start = time.perf_counter()
        served = router.run_batch(requests)
        drop_seconds = time.perf_counter() - start
        drop_mismatches = [
            request.request_id
            for request, seq, net in zip(requests, baseline, served)
            if _observable(seq) != _observable(net)
        ]
        migrated = [r.request.request_id for r in served if r.migrated_from is not None]
        counters = router.stats()["counters"]
        drop = {
            "victim": victim,
            "seconds": drop_seconds,
            "results_match": not drop_mismatches,
            "mismatches": drop_mismatches,
            "drops": counters["drops"],
            "migrations": counters["migrations"],
            "redispatches": counters["redispatches"],
            "migrated_requests": migrated,
            "ok": not drop_mismatches and counters["drops"] >= 1 and counters["migrations"] >= 1,
        }
    finally:
        _stop_fleet(router, workers)

    slow_plan = FaultPlan(
        [Fault(site="net.slow", times=1, delay_seconds=NET_SLOW_SECONDS, shard=victim)],
        seed=CHAOS_SEED,
    )
    router, workers = _start_fleet(
        NET_WORKERS,
        CHAOS_SLICE_STEPS,
        fault_plans={victim: slow_plan},
        dispatch=DispatchPolicy(
            top_k=1, balance_load=False, attempt_timeout_seconds=NET_ATTEMPT_TIMEOUT_SECONDS
        ),
    )
    try:
        baseline = router.run_sequential(requests)
        served = router.run_batch(requests)
        slow_mismatches = [
            request.request_id
            for request, seq, net in zip(requests, baseline, served)
            if _observable(seq) != _observable(net)
        ]
        counters = router.stats()["counters"]
        slow = {
            "victim": victim,
            "attempt_timeout_seconds": NET_ATTEMPT_TIMEOUT_SECONDS,
            "stall_seconds": NET_SLOW_SECONDS,
            "results_match": not slow_mismatches,
            "mismatches": slow_mismatches,
            "timeouts": counters["timeouts"],
            "migrations": counters["migrations"],
            "redispatches": counters["redispatches"],
            "ok": (
                not slow_mismatches
                and counters["timeouts"] >= 1
                and counters["migrations"] + counters["redispatches"] >= 1
            ),
        }
    finally:
        _stop_fleet(router, workers)

    return {"seed": CHAOS_SEED, "drop": drop, "slow": slow, "ok": drop["ok"] and slow["ok"]}


def _exit_hard(code, fuel: int = 100_000):
    os._exit(13)  # simulate a segfaulting backend: no exception, no cleanup


def _crashing_scheduler_factory(slice_steps: int) -> Scheduler:
    """Default scheduler plus a 'crash' backend that kills its worker."""
    scheduler = make_default_scheduler(slice_steps=slice_steps)
    scheduler.systems["refs"].target.register_backend("crash", _exit_hard)
    return scheduler


def collect_migration_report() -> dict:
    """Mid-run migration: a crashed shard's in-flight requests finish elsewhere.

    Two deep requests are pinned (by affinity) to the same shard as a
    request whose backend kills the worker process mid-batch.  The parent
    has been receiving their slice-boundary checkpoints all along, so both
    must *migrate*: resume on a surviving shard and land on exactly the
    outcomes of an undisturbed run.
    """
    baseline_scheduler = make_default_scheduler(slice_steps=SLICE_STEPS)
    victims = [
        Request(language="RefLL", source=_nested_refll_boundary(DEEP), request_id="victim-deep"),
        Request(
            language="RefLL",
            source=_nested_refll_boundary(DEEP - 1),
            backend="substitution",
            request_id="victim-oracle",
        ),
    ]
    baseline = {
        response.request.request_id: _observable(response)
        for response in baseline_scheduler.serve_sequential(victims)
    }

    with WorkerPool(
        workers=POOL_WORKERS, slice_steps=SLICE_STEPS, scheduler_factory=_crashing_scheduler_factory
    ) as pool:
        crash_key = _affinity_for_shard(pool, 0, _nested_refll_boundary(DEEP))
        batch = [
            # retry_budget=0: the crasher itself must keep the whole-shard
            # failure (with budget it would crash its redispatch target too).
            Request(
                language="RefLL",
                source="(+ 1 2)",
                backend="crash",
                affinity=crash_key,
                request_id="boom",
                retry_budget=0,
            )
        ] + [
            Request(
                language=victim.language,
                source=victim.source,
                backend=victim.backend,
                affinity=crash_key,
                request_id=victim.request_id,
            )
            for victim in victims
        ]
        start = time.perf_counter()
        responses = {response.request.request_id: response for response in pool.run_batch(batch)}
        seconds = time.perf_counter() - start
        stats = pool.cache_stats()

    migrated = [
        response
        for response in responses.values()
        if response.migrated_from is not None and response.resumed
    ]
    mismatches = [
        request_id
        for request_id, expected in baseline.items()
        if _observable(responses[request_id]) != expected
    ]
    ok = (
        not mismatches
        and len(migrated) == len(victims)
        and stats["migrations"] >= 1
        and responses["boom"].error is not None
    )
    return {
        "ok": ok,
        "victims": len(victims),
        "migrated": len(migrated),
        "migrations": stats["migrations"],
        "worker_crashes": stats["worker_crashes"],
        "mismatches": mismatches,
        "seconds": seconds,
        "per_request": [
            {
                "id": response.request.request_id,
                "ok": response.ok,
                "error": response.error,
                "shard": response.shard,
                "migrated_from": response.migrated_from,
                "resumed": response.resumed,
            }
            for response in responses.values()
        ],
    }


def collect_chaos_report() -> dict:
    """The fault-injection gate: the mixed batch under a seeded FaultPlan.

    Three distinct fault kinds are injected into the 12-request mixed pool
    batch, each aimed structurally (shard + request id + slice) so the same
    faults fire at the same boundaries every run:

    * ``worker.crash`` — the shard serving ``refs-deep`` dies when that
      request finishes its second slice; every in-flight request on the
      shard must recover (migration from streamed checkpoints, or
      redispatch) and land on the fault-free baseline;
    * ``checkpoint.pickle`` — ``affine-deep``'s checkpoints (pinned to the
      crashing shard) are suppressed, so *its* recovery must come from the
      from-scratch redispatch path;
    * ``worker.slow`` — ``l3-deep`` (pinned to the surviving shard, with a
      deadline) stalls past its budget and must come back as a structured
      ``deadline_exceeded`` response carrying a resumable checkpoint —
      which, granted more time, completes identical to the baseline.

    The gate: every response either equals the fault-free sequential
    baseline or is a structured policy response — no raw exceptions, no
    lost requests — with the bounded-latency invariant holding on the
    *cumulative* (retry-inclusive) accounting.  Two subsections exercise
    the remaining fault kinds and policies: admission overload (the batch
    tail shed deterministically) and checkpoint-store faults
    (``store.write``/``restore.tamper``/a torn file on disk).
    """
    baseline_scheduler = make_default_scheduler(slice_steps=CHAOS_SLICE_STEPS)
    requests = make_requests()
    baseline = {
        response.request.request_id: _observable(response)
        for response in baseline_scheduler.serve_sequential(requests)
    }

    # Aim the faults: the crash follows refs-deep's natural placement; the
    # deadline victim is pinned *off* that shard (its expiry must not race
    # the crash) and the checkpoint-suppressed victim *onto* it.
    probe = WorkerPool(workers=POOL_WORKERS, slice_steps=CHAOS_SLICE_STEPS)
    try:
        by_id = {request.request_id: request for request in requests}
        crash_shard = probe.shard_of(by_id["refs-deep"])
        other_shard = (crash_shard + 1) % POOL_WORKERS
        slow_key = _affinity_for_shard(probe, other_shard, by_id["l3-deep"].source)
        suppress_key = _affinity_for_shard(probe, crash_shard, by_id["affine-deep"].source)
    finally:
        probe.close()

    chaos_batch = []
    for request in requests:
        if request.request_id == "l3-deep":
            request = replace(
                request, affinity=slow_key, deadline_seconds=CHAOS_DEADLINE_SECONDS
            )
        elif request.request_id == "affine-deep":
            request = replace(request, affinity=suppress_key)
        chaos_batch.append(request)

    plan = FaultPlan(
        seed=CHAOS_SEED,
        faults=(
            Fault(
                site="worker.crash",
                request_id="refs-deep",
                shard=crash_shard,
                at_slice=2,
                times=1,
            ),
            Fault(
                site="worker.slow",
                request_id="l3-deep",
                shard=other_shard,
                at_slice=1,
                delay_seconds=CHAOS_SLOW_SECONDS,
                times=1,
            ),
            Fault(site="checkpoint.pickle", request_id="affine-deep", shard=crash_shard, times=None),
        ),
    )
    with WorkerPool(
        workers=POOL_WORKERS, slice_steps=CHAOS_SLICE_STEPS, fault_plan=plan
    ) as pool:
        start = time.perf_counter()
        responses = pool.run_batch(chaos_batch)
        seconds = time.perf_counter() - start
        stats = pool.cache_stats()
        health = pool.health_stats()

    served = {response.request.request_id: response for response in responses}
    policy_stopped = sorted(
        request_id for request_id, response in served.items() if response.policy_stopped
    )
    mismatches = [
        request_id
        for request_id, expected in baseline.items()
        if not served[request_id].policy_stopped and _observable(served[request_id]) != expected
    ]
    deadline_rows = [response for response in responses if response.deadline_exceeded]
    deadline_has_checkpoint = bool(deadline_rows) and all(
        response.checkpoint is not None for response in deadline_rows
    )
    # Granting the expired request more time = resuming its checkpoint: the
    # continuation (without the injected stall) must land on the baseline.
    deadline_retry_matches = False
    if deadline_has_checkpoint:
        retried = make_default_scheduler(slice_steps=CHAOS_SLICE_STEPS).resume(
            [response.checkpoint for response in deadline_rows]
        )
        deadline_retry_matches = all(
            _observable(response) == baseline[response.request.request_id]
            for response in retried
        )
    refs_deep = served["refs-deep"]
    affine_deep = served["affine-deep"]
    slice_violations = _slice_budget_violations(responses, CHAOS_SLICE_STEPS)

    ok = (
        not mismatches
        and policy_stopped == ["l3-deep"]
        and deadline_has_checkpoint
        and deadline_retry_matches
        and stats["worker_crashes"] == 1
        and stats["migrations"] >= 1
        and refs_deep.resumed
        and refs_deep.migrated_from == crash_shard
        and refs_deep.attempts == 2
        and stats["redispatches"] >= 1
        and not affine_deep.resumed
        and affine_deep.attempts == 2
        and not slice_violations
    )
    chaos = {
        "seed": CHAOS_SEED,
        "slice_steps": CHAOS_SLICE_STEPS,
        "fault_kinds": ["worker.crash", "worker.slow", "checkpoint.pickle"],
        "crash_shard": crash_shard,
        "seconds": seconds,
        "results_match": not mismatches,
        "mismatches": mismatches,
        "policy_stopped": policy_stopped,
        "deadline_exceeded": [response.request.request_id for response in deadline_rows],
        "deadline_has_checkpoint": deadline_has_checkpoint,
        "deadline_retry_matches_baseline": deadline_retry_matches,
        "worker_crashes": stats["worker_crashes"],
        "migrations": stats["migrations"],
        "redispatches": stats["redispatches"],
        "retries": stats["retries"],
        "slice_budget_ok": not slice_violations,
        "slice_budget_violations": slice_violations,
        "breaker_states": {
            shard: row["state"] for shard, row in health["shards"].items()
        },
        "per_request": [
            {
                "id": response.request.request_id,
                "ok": response.ok,
                "error": response.error,
                "shard": response.shard,
                "attempts": response.attempts,
                "resumed": response.resumed,
                "migrated_from": response.migrated_from,
                "deadline_exceeded": response.deadline_exceeded,
                "rejected_overload": response.rejected_overload,
            }
            for response in responses
        ],
        "ok": ok,
    }
    chaos["overload"] = _collect_overload_report(requests, baseline)
    chaos["store_faults"] = _collect_store_fault_report()
    return chaos


def _collect_overload_report(requests, baseline) -> dict:
    """Admission overload: the deterministic tail is shed, the head served."""
    with WorkerPool(
        workers=POOL_WORKERS, slice_steps=CHAOS_SLICE_STEPS, max_batch=CHAOS_MAX_BATCH
    ) as pool:
        responses = pool.run_batch(requests)
        shed = pool.cache_stats()["shed"]
    head, tail = responses[:CHAOS_MAX_BATCH], responses[CHAOS_MAX_BATCH:]
    head_mismatches = [
        response.request.request_id
        for response in head
        if _observable(response) != baseline[response.request.request_id]
    ]
    tail_ok = all(
        response.rejected_overload and response.result is None and response.error is None
        for response in tail
    )
    return {
        "max_batch": CHAOS_MAX_BATCH,
        "admitted": len(head),
        "shed": shed,
        "tail_rejected_structurally": tail_ok,
        "head_mismatches": head_mismatches,
        "ok": tail_ok and not head_mismatches and shed == len(tail),
    }


def _collect_store_fault_report() -> dict:
    """Checkpoint-store faults: write failure, tampered read, a torn file."""
    scheduler = make_default_scheduler(slice_steps=CHAOS_SLICE_STEPS)
    paused = scheduler.serve(
        [Request(language="RefLL", source=_nested_refll_boundary(DEEP), request_id="durable")],
        max_slices=1,
    )[0]
    baseline = _observable(
        scheduler.serve_sequential(
            [Request(language="RefLL", source=_nested_refll_boundary(DEEP))]
        )[0]
    )
    directory = tempfile.mkdtemp(prefix="chaos-store-")
    plan = FaultPlan(
        seed=CHAOS_SEED,
        faults=(
            Fault(site="store.write", times=1),
            Fault(site="restore.tamper", times=1),
        ),
    )
    store = CheckpointStore(directory, fault_plan=plan)
    write_failed_structurally = False
    try:
        store.save(paused.checkpoint)
    except OSError:
        write_failed_structurally = True  # the injected disk failure
    path = store.save(paused.checkpoint)  # the fault is spent: this one lands
    tamper_detected = False
    try:
        store.load(path)
    except CheckpointCorrupt:
        tamper_detected = True  # the injected torn read, structurally reported
    clean_load_ok = store.load(path).request.request_id == "durable"
    with open(os.path.join(directory, "torn.ckpt"), "wb") as handle:
        handle.write(b"half a pickl")  # a write the process never finished
    responses = make_default_scheduler(slice_steps=CHAOS_SLICE_STEPS).resume_stored(store)
    finished = [r for r in responses if r.error is None and r.result is not None]
    corrupt_reported = [r for r in responses if r.error is not None and "torn.ckpt" in r.error]
    resumed_matches = len(finished) == 1 and _observable(finished[0]) == baseline
    consumed = path not in store.paths()
    swept = store.gc(max_age_seconds=0.0)  # age out the torn leftover
    ok = (
        write_failed_structurally
        and tamper_detected
        and clean_load_ok
        and resumed_matches
        and bool(corrupt_reported)
        and consumed
        and not store.paths()
    )
    return {
        "fault_kinds": ["store.write", "restore.tamper"],
        "fired": plan.fired(),
        "write_failed_structurally": write_failed_structurally,
        "tamper_detected": tamper_detected,
        "clean_load_ok": clean_load_ok,
        "resumed_matches_baseline": resumed_matches,
        "corrupt_file_reported": bool(corrupt_reported),
        "consumed_after_resume": consumed,
        "gc_swept": swept,
        "ok": ok,
    }


def collect_checkpoint_report() -> dict:
    """The snapshot section: per-backend overhead plus the preempt -> resume gate."""
    scheduler = make_default_scheduler(slice_steps=SLICE_STEPS)

    # Per-backend snapshot/restore overhead: pause every snapshot-capable
    # backend mid-run, then time reify -> pickle -> restore round trips.
    workloads = {
        "refs": ("RefLL", _nested_refll_boundary(ORACLE_DEEP)),
        "affine": ("MiniML", _nested_ml_affi_boundary(ORACLE_DEEP)),
        "l3": ("MiniML", _nested_ml_l3_boundary(ORACLE_DEEP // 2)),
    }
    overhead = []
    expected_backends = 0
    for system_name, (language, source) in sorted(workloads.items()):
        system = scheduler.systems[system_name]
        code = system.compile_source(language, source).target_code
        expected_backends += len(system.target.restores)
        for backend in sorted(system.target.restores):
            probe = system.start_compiled(code, fuel=CHECKPOINT_PROBE_FUEL, backend=backend)
            # The optimizing backend can fold a deep-crossing workload down to
            # a couple of transitions; pause it after a single step so there
            # is still mid-run state to snapshot.
            probe_steps = 1 if backend == "cek-opt" else CHECKPOINT_PROBE_STEPS
            if probe.step_n(probe_steps) is not None:
                continue  # finished in one probe slice: nothing mid-run to measure
            snapshot_seconds = _best_of(lambda: probe.snapshot())
            payload = pickle.dumps(probe.snapshot())
            restore_seconds = _best_of(
                lambda: system.restore_execution(pickle.loads(payload))
            )
            overhead.append(
                {
                    "system": system_name,
                    "backend": backend,
                    "snapshot_ms": snapshot_seconds * 1e3,
                    "restore_ms": restore_seconds * 1e3,
                    "snapshot_bytes": len(payload),
                }
            )

    # Preempt -> resume differential: stop the mixed batch at a slice
    # ceiling, continue the stopped requests from their checkpoints, and
    # require the combined outcomes to equal the uninterrupted baseline.
    requests = make_requests()
    baseline = {
        response.request.request_id: _observable(response)
        for response in scheduler.serve_sequential(requests)
    }
    preempt_scheduler = make_default_scheduler(slice_steps=PREEMPT_SLICE_STEPS)
    start = time.perf_counter()
    served = preempt_scheduler.serve(make_requests(), max_slices=PREEMPT_MAX_SLICES)
    preempted = [response for response in served if response.preempted]
    resumed = (
        preempt_scheduler.resume([response.checkpoint for response in preempted])
        if preempted
        else []
    )
    preempt_resume_seconds = time.perf_counter() - start
    combined = {
        response.request.request_id: response for response in served if not response.preempted
    }
    combined.update({response.request.request_id: response for response in resumed})
    preempt_mismatches = [
        request_id
        for request_id, expected in baseline.items()
        if _observable(combined[request_id]) != expected
    ]

    return {
        "snapshot_restore": overhead,
        "snapshot_restore_ok": len(overhead) == expected_backends,
        "snapshot_backends_expected": expected_backends,
        "preempt_max_slices": PREEMPT_MAX_SLICES,
        "preempt_slice_steps": PREEMPT_SLICE_STEPS,
        "preempted": len(preempted),
        "preempt_resume_seconds": preempt_resume_seconds,
        "preempt_resume_ok": bool(preempted) and not preempt_mismatches,
        "preempt_mismatches": preempt_mismatches,
    }


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def _qos_case_pool():
    """The per-class workload mix: generated fuzz cases + legacy corpus.

    Every priority class runs the *same* programs, so class latency
    distributions differ only by scheduling weight.  The generated slice is
    the fuzzer's first ``QOS_GENERATED_PER_CLASS`` well-typed ``ok`` cases
    under the pinned seed; the legacy slice is the promoted
    ``util.workloads`` corpus entries at two depths; the ballast is one
    genuinely divergent knot per class, fuel-bounded to ~125 slices — the
    long-running tenant whose neighbours' p99 the weights protect.
    """
    from repro.fuzz import DIVERGENT_SOURCES, FuzzGenerator, legacy_corpus_entries

    generator = FuzzGenerator(seed=QOS_SEED)
    generated = []
    while len(generated) < QOS_GENERATED_PER_CLASS:
        case = generator.next_case()
        if case.kind == "ok":
            generated.append(case)
    pool = [(case.system, case.language, case.source, case.fuel) for case in generated]
    for case in legacy_corpus_entries(depths=QOS_LEGACY_DEPTHS):
        pool.append((case.system, case.language, case.source, case.fuel))
    knot_language, knot_source = DIVERGENT_SOURCES["refs"]
    pool.append(("refs", knot_language, knot_source, QOS_BALLAST_FUEL))
    return pool


def make_qos_requests():
    """The mixed-tenant batch: one request per (case, priority class).

    Classes are interleaved case-by-case (not block-by-block) so no class
    gets a positional head start in the slice loop.
    """
    requests = []
    for index, (system, language, source, fuel) in enumerate(_qos_case_pool()):
        for priority in QOS_CLASSES:
            requests.append(
                Request(
                    language=language,
                    source=source,
                    system=system,
                    fuel=fuel,
                    priority=priority,
                    request_id=f"qos-{priority}-{index}",
                )
            )
    return requests


def collect_qos_report() -> dict:
    """Weighted multi-tenant serving: per-class p50/p99 under contention.

    Gates: (1) weighted interleaving is observably identical to the
    sequential baseline — priority shapes latency, never outcomes; (2) the
    bounded-latency slice budget survives weighted scheduling; (3) under
    contention, high-priority p99 is strictly below best-effort p99.
    """
    scheduler = make_default_scheduler(slice_steps=QOS_SLICE_STEPS)
    requests = make_qos_requests()
    scheduler.warm_cache(requests)

    sequential = scheduler.serve_sequential(requests)
    interleaved = scheduler.serve(requests)
    mismatches = [
        request.request_id
        for request, seq, inter in zip(requests, sequential, interleaved)
        if _observable(seq) != _observable(inter)
    ]
    slice_violations = _slice_budget_violations(interleaved, QOS_SLICE_STEPS)

    passes = [interleaved]
    for _ in range(QOS_REPEATS - 1):
        passes.append(scheduler.serve(requests))

    class_stats = {}
    for priority in QOS_CLASSES:
        p50s, p99s, means = [], [], []
        for responses in passes:
            latencies = [
                response.run_seconds
                for response in responses
                if response.request.priority == priority
            ]
            p50s.append(_percentile(latencies, 50))
            p99s.append(_percentile(latencies, 99))
            means.append(sum(latencies) / len(latencies))
        class_stats[priority] = {
            "weight": PRIORITY_WEIGHTS[priority],
            "count": sum(1 for request in requests if request.priority == priority),
            "p50_ms": _percentile(p50s, 50) * 1e3,
            "p99_ms": _percentile(p99s, 50) * 1e3,  # median across passes
            "mean_ms": _percentile(means, 50) * 1e3,
        }
    qos_ok = (
        not mismatches
        and not slice_violations
        and class_stats["high"]["p99_ms"] < class_stats["best-effort"]["p99_ms"]
    )
    return {
        "seed": QOS_SEED,
        "slice_steps": QOS_SLICE_STEPS,
        "repeats": QOS_REPEATS,
        "requests": len(requests),
        "tenants_per_class": len(requests) // len(QOS_CLASSES),
        "classes": class_stats,
        "results_match": not mismatches,
        "mismatches": mismatches,
        "slice_budget_ok": not slice_violations,
        "slice_budget_violations": slice_violations,
        "ok": qos_ok,
    }


def collect_json_report() -> dict:
    scheduler = make_default_scheduler(slice_steps=SLICE_STEPS)
    requests = make_requests()
    scheduler.warm_cache(requests)

    # One untimed pass per mode builds the units' machine code, then compare
    # outcomes: interleaving must be observably invisible.
    sequential = scheduler.serve_sequential(requests)
    interleaved = scheduler.serve(requests)
    mismatches = [
        request.request_id
        for request, seq, inter in zip(requests, sequential, interleaved)
        if _observable(seq) != _observable(inter)
    ]

    sequential_seconds = _best_of(lambda: scheduler.serve_sequential(requests))
    interleaved_seconds = _best_of(lambda: scheduler.serve(requests))

    # Oracle-heavy batch at a small slice budget: every oracle must advance
    # in bounded turns, and interleaving must stay observably invisible.
    oracle_scheduler = make_default_scheduler(slice_steps=ORACLE_SLICE_STEPS)
    oracle_requests = make_oracle_requests()
    oracle_sequential = oracle_scheduler.serve_sequential(oracle_requests)
    oracle_interleaved = oracle_scheduler.serve(oracle_requests)
    oracle_mismatches = [
        request.request_id
        for request, seq, inter in zip(oracle_requests, oracle_sequential, oracle_interleaved)
        if _observable(seq) != _observable(inter)
    ]
    slice_violations = _slice_budget_violations(interleaved, SLICE_STEPS)
    slice_violations += _slice_budget_violations(oracle_interleaved, ORACLE_SLICE_STEPS)
    oracle_seconds = _best_of(lambda: oracle_scheduler.serve(oracle_requests))

    return {
        "benchmark": "serving",
        "requests": len(requests),
        "slice_steps": SLICE_STEPS,
        "repeats": REPEATS,
        "sequential_seconds": sequential_seconds,
        "interleaved_seconds": interleaved_seconds,
        "interleaved_vs_sequential": interleaved_seconds / sequential_seconds,
        "throughput_rps": len(requests) / interleaved_seconds,
        "sequential_throughput_rps": len(requests) / sequential_seconds,
        "results_match": not mismatches,
        "mismatches": mismatches,
        "oracle_requests": len(oracle_requests),
        "oracle_slice_steps": ORACLE_SLICE_STEPS,
        "oracle_interleaved_seconds": oracle_seconds,
        "oracle_throughput_rps": len(oracle_requests) / oracle_seconds,
        "oracle_results_match": not oracle_mismatches,
        "oracle_mismatches": oracle_mismatches,
        "slice_budget_tolerance": SLICE_BUDGET_TOLERANCE,
        "slice_budget_ok": not slice_violations,
        "slice_budget_violations": slice_violations,
        "oracle_per_request": [
            {
                "id": response.request.request_id,
                "backend": response.backend,
                "ok": response.ok,
                "steps": response.steps,
                "slices": response.slices,
            }
            for response in oracle_interleaved
        ],
        "per_request": [
            {
                "id": response.request.request_id,
                "system": response.system,
                "backend": response.backend,
                "fuel": response.request.fuel,
                "ok": response.ok,
                "failure": None if response.result is None else str(response.result.failure),
                "steps": response.steps,
                "slices": response.slices,
                "cache_hit": response.cache_hit,
            }
            for response in interleaved
        ],
    }


# -- pytest smoke entry (collected by the CI benchmark pass) -------------------


def test_interleaved_matches_sequential():
    """Interleaving a small mixed batch is observably identical to sequential."""
    scheduler = make_default_scheduler(slice_steps=64)
    requests = make_requests(deep=5, shallow=3)
    sequential = scheduler.serve_sequential(requests)
    interleaved = scheduler.serve(requests)
    assert [_observable(r) for r in interleaved] == [_observable(r) for r in sequential]
    assert sum(1 for r in interleaved if r.ok) == len(requests) - 1  # only the starved one fails
    starved = next(r for r in interleaved if r.request.request_id == "affine-starved")
    assert str(starved.result.failure) == "out_of_fuel"
    assert not _slice_budget_violations(interleaved, 64)


def test_oracle_batch_respects_the_slice_budget():
    """Every oracle backend advances in bounded slices, matching sequential."""
    scheduler = make_default_scheduler(slice_steps=32)
    requests = make_oracle_requests(deep=8)
    sequential = scheduler.serve_sequential(requests)
    interleaved = scheduler.serve(requests)
    assert [_observable(r) for r in interleaved] == [_observable(r) for r in sequential]
    assert all(r.ok for r in interleaved)
    assert not _slice_budget_violations(interleaved, 32)
    deep_oracles = [r for r in interleaved if r.request.backend is not None and r.steps > 32]
    assert deep_oracles and all(r.slices > 1 for r in deep_oracles)


def main(argv) -> int:
    check = "--check" in argv
    with_pool = "--pool" in argv
    with_chaos = "--chaos" in argv
    with_net = "--net" in argv
    with_qos = "--qos" in argv
    output = JSON_REPORT
    if "--output" in argv:
        output = argv[argv.index("--output") + 1]
    report = collect_json_report()
    report["checkpoint"] = collect_checkpoint_report()
    if with_pool:
        report["pool"] = collect_pool_report()
        report["checkpoint"]["migration"] = collect_migration_report()
    if with_chaos:
        report["chaos"] = collect_chaos_report()
    if with_net:
        report["net"] = collect_net_report()
        if with_chaos:
            report["net"]["chaos"] = collect_net_chaos_report()
    if with_qos:
        report["qos"] = collect_qos_report()
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    ratio = report["interleaved_vs_sequential"]
    print(
        f"{report['requests']} mixed requests: sequential {report['sequential_seconds'] * 1e3:.1f}ms, "
        f"interleaved {report['interleaved_seconds'] * 1e3:.1f}ms "
        f"({report['throughput_rps']:.0f} req/s, overhead ratio {ratio:.2f}x)"
    )
    if with_pool:
        pool_report = report["pool"]
        cache = pool_report["repeated_program_cache"]
        print(
            f"pool ({pool_report['workers']} workers): batch {pool_report['pool_seconds'] * 1e3:.1f}ms "
            f"({pool_report['throughput_rps']:.0f} req/s), shard load {pool_report['shard_load']}, "
            f"shared cache: {cache['publishes']} published, {cache['hits']} hits "
            f"({cache['cross_worker_hits']} cross-worker)"
        )
    checkpoint_report = report["checkpoint"]
    worst = max(
        checkpoint_report["snapshot_restore"],
        key=lambda row: row["snapshot_ms"] + row["restore_ms"],
        default=None,
    )
    print(
        f"checkpoint: {len(checkpoint_report['snapshot_restore'])} backends snapshot+restore"
        + (
            f" (worst {worst['system']}/{worst['backend']}: "
            f"{worst['snapshot_ms']:.2f}ms reify, {worst['restore_ms']:.2f}ms restore, "
            f"{worst['snapshot_bytes']} bytes)"
            if worst
            else ""
        )
        + f"; {checkpoint_report['preempted']} preempted and resumed in "
        f"{checkpoint_report['preempt_resume_seconds'] * 1e3:.1f}ms"
    )
    if with_pool:
        migration = checkpoint_report["migration"]
        print(
            f"migration: {migration['migrated']}/{migration['victims']} in-flight requests "
            f"migrated off the crashed shard in {migration['seconds'] * 1e3:.1f}ms "
            f"({migration['migrations']} migration(s), {migration['worker_crashes']} crash(es))"
        )
    if with_net:
        net = report["net"]
        join = net["join"]
        rebalance = net["rebalance"]
        print(
            f"net ({net['workers']} endpoints): batch {net['net_seconds'] * 1e3:.1f}ms "
            f"({net['throughput_rps']:.0f} req/s), endpoint load {net['endpoint_load']}; "
            f"join moved {join['moved']}/{join['probe_keys']} keys "
            f"({join['remap_fraction']:.2f}, bound {join['remap_bound']:.2f}), "
            f"new member warm={join['new_member_warm']}; "
            f"skew imbalance {rebalance['balanced_imbalance']:.1f}x balanced vs "
            f"{rebalance['static_imbalance']:.1f}x static ({rebalance['diverted']} diverted)"
        )
        if with_chaos:
            net_chaos = net["chaos"]
            print(
                f"net chaos (seed {net_chaos['seed']}): drop on endpoint "
                f"{net_chaos['drop']['victim']} -> {net_chaos['drop']['drops']} drop(s), "
                f"{net_chaos['drop']['migrations']} migration(s) in "
                f"{net_chaos['drop']['seconds'] * 1e3:.1f}ms; slow link -> "
                f"{net_chaos['slow']['timeouts']} timeout(s), "
                f"{net_chaos['slow']['migrations'] + net_chaos['slow']['redispatches']} recovered"
            )
    if with_chaos:
        chaos = report["chaos"]
        print(
            f"chaos (seed {chaos['seed']}): {len(chaos['fault_kinds'])} fault kinds in "
            f"{chaos['seconds'] * 1e3:.1f}ms -- {chaos['worker_crashes']} crash(es), "
            f"{chaos['migrations']} migration(s), {chaos['redispatches']} redispatch(es), "
            f"deadline_exceeded={chaos['deadline_exceeded']}, "
            f"overload shed {chaos['overload']['shed']}, "
            f"store faults fired {chaos['store_faults']['fired']}"
        )
    if with_qos:
        qos = report["qos"]
        per_class = ", ".join(
            f"{name}: p50 {stats['p50_ms']:.1f}ms / p99 {stats['p99_ms']:.1f}ms (w{stats['weight']})"
            for name, stats in qos["classes"].items()
        )
        print(
            f"qos ({qos['requests']} requests, {qos['tenants_per_class']} tenants/class, "
            f"slice {qos['slice_steps']}, seed {qos['seed']}): {per_class}"
        )
    print(f"wrote {output}")

    failed = False
    if report["mismatches"]:
        print(
            "MISMATCH: interleaved results diverge from sequential on: "
            + ", ".join(report["mismatches"]),
            file=sys.stderr,
        )
        failed = True
    if report["oracle_mismatches"]:
        print(
            "MISMATCH: oracle-heavy interleaved results diverge from sequential on: "
            + ", ".join(report["oracle_mismatches"]),
            file=sys.stderr,
        )
        failed = True
    if not report["slice_budget_ok"]:
        print(
            "REGRESSION: backends exceeded the per-turn slice budget "
            f"(steps > slices x slice_steps x {SLICE_BUDGET_TOLERANCE}): "
            + ", ".join(
                f"{v['id']} ({v['backend']}: {v['steps']} steps in {v['slices']} slices of {v['slice_steps']})"
                for v in report["slice_budget_violations"]
            ),
            file=sys.stderr,
        )
        failed = True
    if ratio > 2.0:
        print(
            f"REGRESSION: interleaved batch took {ratio:.2f}x the sequential baseline (limit 2.0x)",
            file=sys.stderr,
        )
        failed = True
    if not checkpoint_report["snapshot_restore_ok"]:
        print(
            "REGRESSION: snapshot/restore measured only "
            f"{len(checkpoint_report['snapshot_restore'])} of "
            f"{checkpoint_report['snapshot_backends_expected']} snapshot-capable backends",
            file=sys.stderr,
        )
        failed = True
    if not checkpoint_report["preempt_resume_ok"]:
        print(
            "REGRESSION: preempt -> resume diverged from the sequential baseline "
            f"(preempted={checkpoint_report['preempted']}, mismatches: "
            + ", ".join(checkpoint_report["preempt_mismatches"])
            + ")",
            file=sys.stderr,
        )
        failed = True
    if with_pool:
        migration = checkpoint_report["migration"]
        if not migration["ok"]:
            print(
                "REGRESSION: crashed-shard batch failed to migrate "
                f"(migrated={migration['migrated']}/{migration['victims']}, "
                f"migrations={migration['migrations']}, mismatches: "
                + ", ".join(migration["mismatches"])
                + ")",
                file=sys.stderr,
            )
            failed = True
        pool_report = report["pool"]
        if pool_report["mismatches"]:
            print(
                "MISMATCH: pooled results diverge from sequential on: "
                + ", ".join(pool_report["mismatches"]),
                file=sys.stderr,
            )
            failed = True
        if not pool_report["repeated_program_ok"]:
            print("REGRESSION: repeated-program pool batch had failing requests", file=sys.stderr)
            failed = True
        if pool_report["cross_worker_cache_hits"] < 1 or pool_report["publishes"] < 1:
            print(
                "REGRESSION: the repeated-program batch recorded no cross-worker "
                f"pipeline-cache hit (publishes={pool_report['publishes']}, "
                f"cross_worker_hits={pool_report['cross_worker_cache_hits']})",
                file=sys.stderr,
            )
            failed = True
    if with_net:
        net = report["net"]
        if net["mismatches"]:
            print(
                "MISMATCH: network-served results diverge from sequential on: "
                + ", ".join(net["mismatches"]),
                file=sys.stderr,
            )
            failed = True
        if not net["join"]["ok"]:
            print(
                "REGRESSION: the worker join remapped placements badly "
                f"(moved={net['join']['moved']}/{net['join']['probe_keys']}, "
                f"fraction={net['join']['remap_fraction']:.2f} "
                f"(bound {net['join']['remap_bound']:.2f}), "
                f"moved_only_to_joiner={net['join']['moved_only_to_joiner']})",
                file=sys.stderr,
            )
            failed = True
        if not net["join"]["new_member_warm"]:
            print(
                "REGRESSION: the joining endpoint recompiled a published program "
                "instead of warming from the shared store",
                file=sys.stderr,
            )
            failed = True
        if not net["rebalance"]["ok"]:
            print(
                "REGRESSION: load-aware dispatch did not beat static placement under skew "
                f"(balanced={net['rebalance']['balanced_imbalance']:.1f}x, "
                f"static={net['rebalance']['static_imbalance']:.1f}x, mismatches: "
                + (", ".join(net["rebalance"]["mismatches"]) or "none")
                + ")",
                file=sys.stderr,
            )
            failed = True
        if with_chaos and not net["chaos"]["ok"]:
            print(
                "REGRESSION: the network chaos section failed "
                f"(drop: {json.dumps(net['chaos']['drop'])}; "
                f"slow: {json.dumps(net['chaos']['slow'])})",
                file=sys.stderr,
            )
            failed = True
    if with_chaos:
        chaos = report["chaos"]
        if not chaos["ok"]:
            print(
                "REGRESSION: the fault-injected batch diverged from the fault-free "
                f"baseline (mismatches: {', '.join(chaos['mismatches']) or 'none'}; "
                f"policy_stopped={chaos['policy_stopped']}, "
                f"migrations={chaos['migrations']}, redispatches={chaos['redispatches']}, "
                f"deadline_has_checkpoint={chaos['deadline_has_checkpoint']}, "
                f"deadline_retry_matches_baseline={chaos['deadline_retry_matches_baseline']}, "
                f"slice_budget_ok={chaos['slice_budget_ok']})",
                file=sys.stderr,
            )
            failed = True
        if not chaos["overload"]["ok"]:
            print(
                "REGRESSION: overload shedding was not structural/deterministic "
                f"(shed={chaos['overload']['shed']}, "
                f"tail_rejected_structurally={chaos['overload']['tail_rejected_structurally']}, "
                f"head_mismatches: {', '.join(chaos['overload']['head_mismatches']) or 'none'})",
                file=sys.stderr,
            )
            failed = True
        if not chaos["store_faults"]["ok"]:
            print(
                "REGRESSION: checkpoint-store faults were not handled structurally: "
                + json.dumps(chaos["store_faults"]),
                file=sys.stderr,
            )
            failed = True
    if with_qos:
        qos = report["qos"]
        if qos["mismatches"]:
            print(
                "MISMATCH: weighted QoS results diverge from sequential on: "
                + ", ".join(qos["mismatches"]),
                file=sys.stderr,
            )
            failed = True
        if not qos["slice_budget_ok"]:
            print(
                "REGRESSION: weighted scheduling broke the slice budget: "
                + json.dumps(qos["slice_budget_violations"]),
                file=sys.stderr,
            )
            failed = True
        if not qos["classes"]["high"]["p99_ms"] < qos["classes"]["best-effort"]["p99_ms"]:
            print(
                "REGRESSION: high-priority p99 did not beat best-effort under contention "
                f"(high {qos['classes']['high']['p99_ms']:.2f}ms >= "
                f"best-effort {qos['classes']['best-effort']['p99_ms']:.2f}ms)",
                file=sys.stderr,
            )
            failed = True
    return 1 if (check and failed) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
