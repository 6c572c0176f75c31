"""The network serving tier (:mod:`repro.serve.net` / :mod:`repro.serve.wire`).

What is pinned here:

* **net == sequential** — a mixed batch served through router + TCP workers
  is observably identical to the router's own sequential baseline;
* **the wire format** — frame encode/decode round-trips, oversized and
  truncated frames are structured errors, and HELLO/WELCOME version
  negotiation rejects a mismatched peer with an ``ERROR`` frame (surfaced
  to clients as :class:`~repro.serve.wire.ProtocolError`);
* **placement** — ring placement is deterministic and affinity acts as a
  locality hint; load-aware dispatch spreads a hot key over its top-k
  candidates;
* **elastic membership** — workers join and leave at runtime; a join moves
  only a bounded fraction of placements, all onto the new endpoint, which
  warms an already-published program from the store;
* **reliability over the wire** — an injected ``net.drop`` recovers by
  checkpoint migration onto a surviving endpoint (``migrated_from``,
  breaker accounting); ``net.slow`` plus a per-attempt deadline turns a
  wedged link into the same recovery path; a router with no workers serves
  locally;
* **listener lifecycle** — ``stop()`` releases a router's endpoint
  connections (started or not) and severs idle clients; ``start()`` on a
  held port raises ``OSError`` and leaves the holder serving;
* **the store as a service** — artifacts published by one endpoint warm
  others (``shared_cache_hit``), and clients can FETCH/PUBLISH directly.

Everything runs on localhost with in-process worker threads — no worker
*processes* here (test_pool.py owns that axis); the network tier reuses the
pool's shard helpers, so process isolation composes unchanged.
"""

import pickle
import socket
import struct
import sys
import threading
import time

import pytest

from repro.serve import (
    DispatchPolicy,
    Fault,
    FaultPlan,
    HashRing,
    NetClient,
    NetRouter,
    NetWorker,
    Request,
    WIRE_VERSION,
    WireError,
    make_default_scheduler,
)
from repro.serve.wire import (
    ERROR,
    HELLO,
    MAX_FRAME_BYTES,
    ProtocolError,
    REQUEST,
    decode_header,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.util.workloads import (
    nested_ml_affi_boundary,
    nested_ml_l3_boundary,
    nested_refll_boundary,
)

SLICE_STEPS = 16


def _observable(response):
    """The placement- and transport-independent view of a response."""
    result = response.result
    return (
        response.error is None,
        None if result is None else str(result.value),
        None if result is None else str(result.failure),
        None if result is None else result.steps,
    )


def _mixed_requests():
    return [
        Request(language="RefLL", source=nested_refll_boundary(5), request_id="refs-deep"),
        Request(language="RefLL", source=nested_refll_boundary(3), backend="substitution", request_id="refs-oracle"),
        Request(language="MiniML", system="affine", source=nested_ml_affi_boundary(4), request_id="affine-a"),
        Request(language="MiniML", system="affine", source=nested_ml_affi_boundary(4), request_id="affine-dup"),
        Request(language="Affi", source="(if (boundary bool 7) 1 2)", request_id="affi-small"),
        Request(language="MiniML", system="l3", source=nested_ml_l3_boundary(4), request_id="l3-deep"),
        Request(language="MiniML", system="affine", source=nested_ml_affi_boundary(4), fuel=7, request_id="starved"),
        Request(language="Klingon", source="(nuqneH)", request_id="bad-language"),
    ]


def _fleet(worker_count=2, fault_plans=None, dispatch=None, **router_kwargs):
    """Start ``worker_count`` workers and a router wired to all of them."""
    workers = []
    for endpoint_id in range(worker_count):
        plan = (fault_plans or {}).get(endpoint_id)
        worker = NetWorker(endpoint_id=endpoint_id, slice_steps=SLICE_STEPS, fault_plan=plan)
        worker.start()
        workers.append(worker)
    router = NetRouter(slice_steps=SLICE_STEPS, dispatch=dispatch, **router_kwargs)
    router.start()
    for worker in workers:
        router.add_worker(worker.address)
    return router, workers


def _shutdown(router, workers):
    router.stop()
    for worker in workers:
        worker.stop()


# -- the wire format ----------------------------------------------------------


def test_frame_roundtrip():
    body = {"hello": [1, 2, 3], "nested": ("a", b"bytes")}
    frame = encode_frame(REQUEST, body)
    length, frame_type = decode_header(frame[:5])
    assert frame_type == REQUEST
    assert length == len(frame) - 5
    assert pickle.loads(frame[5:]) == body


def test_oversized_frame_is_rejected():
    with pytest.raises(ProtocolError):
        encode_frame(REQUEST, b"x" * (MAX_FRAME_BYTES + 1))
    huge = struct.pack(">IB", MAX_FRAME_BYTES + 1, REQUEST)
    with pytest.raises(ProtocolError):
        decode_header(huge)


def test_socketpair_send_recv_roundtrip():
    left, right = socket.socketpair()
    try:
        send_frame(left, REQUEST, ("serve", [1, 2, 3]))
        frame_type, body = recv_frame(right)
        assert frame_type == REQUEST
        assert body == ("serve", [1, 2, 3])
    finally:
        left.close()
        right.close()


# -- version negotiation ------------------------------------------------------


def test_client_version_mismatch_is_rejected_with_structured_error():
    router = NetRouter(slice_steps=SLICE_STEPS)
    router.start()
    try:
        with pytest.raises(ProtocolError) as excinfo:
            NetClient(*router.address, version=WIRE_VERSION + 1)
        assert "version" in str(excinfo.value)
        # A well-versioned client on the same router still connects fine.
        with NetClient(*router.address) as client:
            assert client.heartbeat()["role"] == "router"
    finally:
        router.stop()


def test_worker_rejects_mismatched_router_version():
    worker = NetWorker(endpoint_id=0, slice_steps=SLICE_STEPS)
    worker.start()
    try:
        sock = socket.create_connection(worker.address, timeout=5)
        try:
            send_frame(sock, HELLO, {"version": 99})
            frame_type, body = recv_frame(sock)
            assert frame_type == ERROR
            assert body["code"] == "version"
            assert str(WIRE_VERSION) in body["message"]
        finally:
            sock.close()
    finally:
        worker.stop()


# -- serving ------------------------------------------------------------------


def test_net_matches_sequential_baseline():
    router, workers = _fleet(worker_count=2)
    try:
        requests = _mixed_requests()
        baseline = router.run_sequential(requests)
        served = router.run_batch(requests)
        assert [r.request.request_id for r in served] == [r.request_id for r in requests]
        for expected, actual in zip(baseline, served):
            assert _observable(expected) == _observable(actual)
        assert all(response.shard in (0, 1) for response in served)
    finally:
        _shutdown(router, workers)


def test_client_roundtrip_matches_direct_dispatch():
    router, workers = _fleet(worker_count=2)
    try:
        requests = _mixed_requests()
        baseline = router.run_sequential(requests)
        with NetClient(*router.address) as client:
            served = client.run_batch(requests)
        for expected, actual in zip(baseline, served):
            assert _observable(expected) == _observable(actual)
    finally:
        _shutdown(router, workers)


def test_router_with_no_workers_serves_locally():
    router = NetRouter(slice_steps=SLICE_STEPS)
    router.start()
    try:
        requests = _mixed_requests()
        baseline = router.run_sequential(requests)
        served = router.run_batch(requests)
        for expected, actual in zip(baseline, served):
            assert _observable(expected) == _observable(actual)
        assert router.stats()["counters"]["served_locally"] == len(requests)
    finally:
        router.stop()


def test_placement_is_deterministic_and_affinity_is_honoured():
    router, workers = _fleet(worker_count=2)
    try:
        request = Request(language="Affi", source="(if (boundary bool 7) 1 2)")
        home = router.endpoint_for(request)
        assert home == router.endpoint_for(request)
        # Affinity overrides the routed placement key (locality hint).
        scheduler = make_default_scheduler(slice_steps=SLICE_STEPS)
        ring = HashRing([0, 1])
        for affinity in ("alpha", "beta", "gamma"):
            pinned = Request(language="Affi", source="(if (boundary bool 7) 1 2)", affinity=affinity)
            assert router.endpoint_for(pinned) == ring.node_for(scheduler.placement_key(pinned))
    finally:
        _shutdown(router, workers)


def test_load_aware_dispatch_spreads_a_hot_key():
    dispatch = DispatchPolicy(top_k=2, balance_load=True)
    router, workers = _fleet(worker_count=3, dispatch=dispatch)
    try:
        hot = [
            Request(language="Affi", source="(if (boundary bool 7) 1 2)", request_id=f"hot-{index}")
            for index in range(8)
        ]
        served = router.run_batch(hot)
        shards = {response.shard for response in served}
        assert len(shards) == 2, "top-2 load-aware dispatch must use exactly the 2 candidates"
        counts = [sum(1 for r in served if r.shard == shard) for shard in shards]
        assert counts == [4, 4], "round-robin by queue depth must split the hot key evenly"
        assert router.stats()["counters"]["diverted"] >= 1
        baseline = router.run_sequential(hot)
        for expected, actual in zip(baseline, served):
            assert _observable(expected) == _observable(actual)
    finally:
        _shutdown(router, workers)


def test_static_placement_keeps_a_hot_key_on_one_endpoint():
    router, workers = _fleet(worker_count=3, dispatch=DispatchPolicy(top_k=1, balance_load=False))
    try:
        hot = [
            Request(language="Affi", source="(if (boundary bool 7) 1 2)", request_id=f"hot-{index}")
            for index in range(6)
        ]
        served = router.run_batch(hot)
        assert len({response.shard for response in served}) == 1
    finally:
        _shutdown(router, workers)


# -- elastic membership -------------------------------------------------------


def test_join_remaps_a_bounded_fraction_onto_the_new_endpoint():
    router, workers = _fleet(worker_count=2, dispatch=DispatchPolicy(top_k=1, balance_load=False))
    try:
        probes = [
            Request(language="Affi", source="(if (boundary bool 7) 1 2)", affinity=f"key-{index}")
            for index in range(64)
        ]
        before = {index: router.endpoint_for(request) for index, request in enumerate(probes)}
        # A program published before the join, for the joiner to warm from.
        hot = nested_refll_boundary(6)
        published = router.run_batch([Request(language="RefLL", source=hot, request_id="hot-seed")])[0]
        assert published.published
        joiner = NetWorker(endpoint_id=2, slice_steps=SLICE_STEPS)
        joiner.start()
        workers.append(joiner)
        assert router.add_worker(joiner.address) == 2
        after = {index: router.endpoint_for(request) for index, request in enumerate(probes)}
        moved = [index for index in before if before[index] != after[index]]
        assert moved, "the joiner must take over some placements"
        assert len(moved) / len(probes) <= 0.65, "a join must not reshuffle most keys"
        assert all(after[index] == 2 for index in moved), "keys move only to the joiner"
        # The joiner imports the published program from the store instead of
        # recompiling it.
        pinned = next(
            request
            for request in (
                Request(language="RefLL", source=hot, affinity=f"pin-{attempt}", request_id="hot-join")
                for attempt in range(256)
            )
            if router.endpoint_for(request) == 2
        )
        warmed = router.run_batch([pinned])[0]
        assert warmed.shard == 2
        assert warmed.shared_cache_hit and not warmed.published
        assert _observable(warmed) == _observable(published)
        # The grown fleet still serves correctly.
        requests = _mixed_requests()
        baseline = router.run_sequential(requests)
        for expected, actual in zip(baseline, router.run_batch(requests)):
            assert _observable(expected) == _observable(actual)
    finally:
        _shutdown(router, workers)


def test_leave_restores_prior_placement():
    router, workers = _fleet(worker_count=3)
    try:
        probes = [
            Request(language="Affi", source="(if (boundary bool 7) 1 2)", affinity=f"key-{index}")
            for index in range(32)
        ]
        before = {index: router.endpoint_for(request) for index, request in enumerate(probes)}
        router.remove_worker(2)
        assert 2 not in router.endpoint_ids()
        router.add_worker(workers[2].address)
        after = {index: router.endpoint_for(request) for index, request in enumerate(probes)}
        assert after == before
    finally:
        _shutdown(router, workers)


def test_duplicate_registration_is_rejected():
    router, workers = _fleet(worker_count=1)
    try:
        with pytest.raises(ValueError):
            router.add_worker(workers[0].address)
    finally:
        _shutdown(router, workers)


# -- reliability over the wire ------------------------------------------------


def test_net_drop_recovers_by_checkpoint_migration():
    scheduler = make_default_scheduler(slice_steps=SLICE_STEPS)
    requests = _mixed_requests()
    ring = HashRing([0, 1])
    victim = ring.node_for(scheduler.placement_key(requests[0]))
    plan = FaultPlan(
        [Fault(site="net.drop", request_id="refs-deep", at_slice=2, times=1, shard=victim)]
    )
    router, workers = _fleet(
        worker_count=2,
        fault_plans={victim: plan},
        dispatch=DispatchPolicy(top_k=1, balance_load=False),
    )
    try:
        baseline = router.run_sequential(requests)
        served = router.run_batch(requests)
        for expected, actual in zip(baseline, served):
            assert _observable(expected) == _observable(actual)
        survivor = 1 - victim
        migrated = [r for r in served if r.migrated_from is not None]
        assert migrated, "the dropped dispatch must recover by migration"
        assert all(r.migrated_from == victim and r.shard == survivor for r in migrated)
        assert any(r.request.request_id == "refs-deep" for r in migrated)
        assert all(r.attempts == 2 for r in migrated)
        counters = router.stats()["counters"]
        assert counters["drops"] == 1
        # migrations counts checkpoint *groups* — coalesced duplicates
        # (affine-a / affine-dup) migrate as one group, answer as two.
        assert 1 <= counters["migrations"] <= len(migrated)
        health = router.health_stats()
        assert health["endpoints"][victim]["window_failures"] >= 1
        # The victim reconnects for the next batch: the fault was one-shot.
        again = router.run_batch(requests)
        for expected, actual in zip(baseline, again):
            assert _observable(expected) == _observable(actual)
    finally:
        _shutdown(router, workers)


def test_slow_link_times_out_and_recovers():
    scheduler = make_default_scheduler(slice_steps=SLICE_STEPS)
    requests = _mixed_requests()
    ring = HashRing([0, 1])
    victim = ring.node_for(scheduler.placement_key(requests[0]))
    plan = FaultPlan([Fault(site="net.slow", times=1, delay_seconds=1.0, shard=victim)])
    router, workers = _fleet(
        worker_count=2,
        fault_plans={victim: plan},
        dispatch=DispatchPolicy(top_k=1, balance_load=False, attempt_timeout_seconds=0.25),
    )
    try:
        baseline = router.run_sequential(requests)
        served = router.run_batch(requests)
        for expected, actual in zip(baseline, served):
            assert _observable(expected) == _observable(actual)
        counters = router.stats()["counters"]
        assert counters["timeouts"] >= 1
        assert counters["migrations"] + counters["redispatches"] >= 1
    finally:
        _shutdown(router, workers)


def test_concurrent_batches_run_one_at_a_time_on_the_dispatcher():
    # Clients and direct callers submit at once; each batch runs on its
    # caller's thread (a client's on its connection thread) under the
    # router's lock, so every answer matches the baseline and each program
    # publishes once.
    router, workers = _fleet(worker_count=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        requests = _mixed_requests()
        baseline = router.run_sequential(requests)
        expected = [_observable(response) for response in baseline]
        mismatches = []

        def submit(over_the_wire):
            try:
                if over_the_wire:
                    with NetClient(*router.address) as client:
                        batches = [client.run_batch(requests) for _ in range(3)]
                else:
                    batches = [router.run_batch(requests) for _ in range(3)]
                for served in batches:
                    if [_observable(response) for response in served] != expected:
                        mismatches.append(served)
            except Exception as error:  # surfaced by the assertion below
                mismatches.append(error)

        threads = [threading.Thread(target=submit, args=(index % 2 == 0,)) for index in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        scheduler = make_default_scheduler(slice_steps=SLICE_STEPS)
        compiled = {scheduler.pipeline_key(r.request) for r in baseline if r.error is None}
        stats = router.cache_stats()
        assert stats["publishes"] == stats["entries"] == len(compiled - {None})
    finally:
        sys.setswitchinterval(interval)
        _shutdown(router, workers)


def test_retry_budget_zero_fails_structurally_on_drop():
    plan = FaultPlan([Fault(site="net.drop", request_id="lone", at_slice=1, times=1, shard=0)])
    router, workers = _fleet(
        worker_count=1, fault_plans={0: plan}, dispatch=DispatchPolicy(top_k=1, balance_load=False)
    )
    try:
        lone = Request(
            language="RefLL",
            source=nested_refll_boundary(5),
            request_id="lone",
            retry_budget=0,
        )
        (response,) = router.run_batch([lone])
        assert not response.ok
        assert "connection lost" in response.error
    finally:
        _shutdown(router, workers)


def test_poll_workers_reports_liveness_and_refreshes_load():
    router, workers = _fleet(worker_count=2)
    try:
        assert router.poll_workers() == {0: True, 1: True}
        workers[1].stop()
        alive = router.poll_workers()
        assert alive[0] is True
        assert alive.get(1, True) is False or 1 not in alive
        assert router.stats()["counters"]["drops"] >= 1
    finally:
        _shutdown(router, workers)


# -- listener lifecycle -------------------------------------------------------


def test_stop_releases_the_endpoints_of_a_router_never_started():
    worker = NetWorker(endpoint_id=0, slice_steps=SLICE_STEPS)
    worker.start()
    request = Request(language="Affi", source="(if (boundary bool 7) 1 2)")
    try:
        first = NetRouter(slice_steps=SLICE_STEPS)  # membership and batches need no start()
        first.add_worker(worker.address)
        assert first.run_batch([request])[0].ok
        first.stop()
        # The worker serves one conversation at a time: had `first` kept its
        # connection, this dial would wait out the deadline for a WELCOME.
        second = NetRouter(
            slice_steps=SLICE_STEPS, dispatch=DispatchPolicy(attempt_timeout_seconds=5.0)
        )
        try:
            assert second.add_worker(worker.address) == 0
            assert second.run_batch([request])[0].ok
        finally:
            second.stop()
    finally:
        worker.stop()


def test_stop_severs_an_idle_client():
    router = NetRouter(slice_steps=SLICE_STEPS)
    router.start()
    client = NetClient(*router.address)
    try:
        assert client.heartbeat()["role"] == "router"
        started = time.monotonic()
        router.stop()
        assert time.monotonic() - started < 5
        errors = []

        def call():
            try:
                client.heartbeat()
            except WireError as error:
                errors.append(error)

        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive(), "a call on a severed connection must not hang"
        assert len(errors) == 1
    finally:
        client.close()
        router.stop()


def test_start_on_a_held_port_raises_oserror_and_the_holder_keeps_serving():
    holder = NetRouter(slice_steps=SLICE_STEPS)
    holder.start()
    rival = NetRouter(slice_steps=SLICE_STEPS, port=holder.address[1])
    try:
        with pytest.raises(OSError):
            rival.start()
        with NetClient(*holder.address) as client:
            assert client.heartbeat()["role"] == "router"
            request = Request(language="Affi", source="(if (boundary bool 7) 1 2)")
            (response,) = client.run_batch([request])
            assert response.ok
    finally:
        rival.stop()
        holder.stop()


# -- the store as a network service -------------------------------------------


def test_cross_endpoint_cache_warming():
    router, workers = _fleet(worker_count=2, dispatch=DispatchPolicy(top_k=1, balance_load=False))
    try:
        program = Request(language="RefLL", source=nested_refll_boundary(3), request_id="warm-0")
        first = router.run_batch([program])[0]
        home = first.shard
        assert first.published
        other = 1 - home
        pinned = Request(
            language="RefLL",
            source=nested_refll_boundary(3),
            request_id="warm-1",
            affinity=None,
        )
        # Force the duplicate onto the *other* endpoint via affinity search.
        for attempt in range(256):
            candidate = Request(
                language="RefLL",
                source=nested_refll_boundary(3),
                request_id="warm-1",
                affinity=f"spin-{attempt}",
            )
            if router.endpoint_for(candidate) == other:
                pinned = candidate
                break
        assert pinned.affinity is not None
        second = router.run_batch([pinned])[0]
        assert second.shard == other
        assert second.shared_cache_hit and not second.published
        store = router.stats()["store"]
        assert store["publishes"] >= 1
        assert store["cross_worker_hits"] >= 1
        assert router.cache_stats()["hits"] >= 1
    finally:
        _shutdown(router, workers)


def test_publisher_is_never_shipped_its_own_artifact():
    imports = []

    def recording_factory(slice_steps):
        scheduler = make_default_scheduler(slice_steps=slice_steps)
        import_cache_entry = scheduler.import_cache_entry

        def record(store_key, unit):
            imports.append(store_key)
            return import_cache_entry(store_key, unit)

        scheduler.import_cache_entry = record
        return scheduler

    worker = NetWorker(endpoint_id=0, slice_steps=SLICE_STEPS, scheduler_factory=recording_factory)
    worker.start()
    router = NetRouter(slice_steps=SLICE_STEPS)
    router.start()
    router.add_worker(worker.address)
    try:
        program = Request(language="RefLL", source=nested_refll_boundary(3), request_id="own")
        first = router.run_batch([program])[0]
        assert first.published and first.shard == 0
        second = router.run_batch([program])[0]
        assert second.error is None and not second.shared_cache_hit
        # The endpoint compiled the artifact itself: the router never ships
        # the payload back for it to unpickle and discard.
        assert imports == []
        assert router.cache_stats()["publishes"] == 1
    finally:
        _shutdown(router, [worker])


def test_client_fetch_and_publish():
    router, workers = _fleet(worker_count=1)
    try:
        program = Request(language="RefLL", source=nested_refll_boundary(3), request_id="pub")
        router.run_batch([program])
        snapshot = router.stats()
        assert snapshot["store"]["entries"] >= 1
        with NetClient(*router.address) as client:
            assert client.fetch(("nope", ("missing",))) is None
            assert client.publish(("ext", ("key",)), b"payload") is True
            assert client.publish(("ext", ("key",)), b"other") is False  # first wins
            assert client.fetch(("ext", ("key",))) == b"payload"
            stats = client.stats()
            assert stats["store"]["entries"] == snapshot["store"]["entries"] + 1
    finally:
        _shutdown(router, workers)


def test_stats_snapshot_shape():
    router, workers = _fleet(worker_count=2)
    try:
        router.run_batch(_mixed_requests())
        snapshot = router.stats()
        assert set(snapshot) == {
            "endpoints",
            "ring",
            "placement",
            "store",
            "counters",
            "admission",
        }
        assert snapshot["ring"]["members"] == [0, 1]
        for info in snapshot["endpoints"].values():
            assert info["connected"] is True
            assert info["breaker"]["state"] == "closed"
        health = router.health_stats()
        assert set(health["endpoints"]) == {0, 1}
        assert "shed" in router.cache_stats()
    finally:
        _shutdown(router, workers)
