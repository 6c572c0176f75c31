"""The member path: what a pool worker or network endpoint runs per batch.

What is pinned here:

* **no reference cycles** — serving the fuzz cases (tagged expected
  failures included), every system's ``util.workloads`` programs, refused
  requests and a resume of the streamed checkpoints through
  :func:`~repro.serve.dispatch.handle_work` leaves nothing for the cycle
  collector, which is why pool workers run without it;
* **GC policy is the pool worker's own** — a worker runs with the
  collector disabled, while ``WorkerPool``, the in-process ``Scheduler``
  and ``NetWorker.start()`` leave their caller's settings alone;
* **a slice-0 checkpoint is its request** — it streams without a snapshot,
  resumes to the same outcome as a restore of the initial state, migrates
  off a member that dies before the first slice on both tiers, and a
  ``restore.tamper`` still fails it alone;
* **bad store and resume payloads fail alone** — a warm artifact that is
  not a compiled unit is compiled from source instead, and a resume payload
  that is not a checkpoint fails only its group.
"""

import collections
import gc
from dataclasses import replace

from repro.core.codec import decode, encode
from repro.core.interop import RunResult
from repro.core.language import Engine
from repro.fuzz import (
    DIVERGENT_FUEL,
    FuzzGenerator,
    depth_contract_entries,
    legacy_corpus_entries,
)
from repro.serve import (
    DispatchPolicy,
    Fault,
    FaultPlan,
    HashRing,
    NetClient,
    NetRouter,
    NetWorker,
    Request,
    Scheduler,
    WorkerPool,
    make_default_scheduler,
)
from repro.serve.dispatch import handle_work
from repro.serve.wire import CHECKPOINT
from repro.util.workloads import nested_ml_affi_boundary, nested_refll_boundary

SLICE_STEPS = 16
FUZZ_SEED = 20260808
FUZZ_CASES = 60


class RecordingConnection:
    def __init__(self):
        self.frames = []

    def send(self, frame_type, body):
        self.frames.append((frame_type, body))

    def checkpoints(self):
        """Every streamed ``(covered, checkpoint)``, in streaming order."""
        return [
            (covered, decode(payload))
            for frame_type, (covered, payload) in self.frames
            if frame_type == CHECKPOINT
        ]


def _observable(response):
    result = response.result
    return (
        response.error,
        None if result is None else str(result.value),
        None if result is None else str(result.failure),
        None if result is None else result.steps,
        response.slices,
    )


# -- no reference cycles on the member path -----------------------------------


def _traffic():
    """Fuzz cases of every kind, the workload programs, refused requests."""
    cases = FuzzGenerator(seed=FUZZ_SEED).take(FUZZ_CASES)
    cases += legacy_corpus_entries() + depth_contract_entries()
    assert {case.kind for case in cases} == {"ok", "divergent", "static-error"}
    requests = [
        Request(
            language=case.language,
            source=case.source,
            system=case.system,
            fuel=DIVERGENT_FUEL if case.kind == "divergent" else case.fuel,
            request_id=f"case-{number}",
        )
        for number, case in enumerate(cases)
    ]
    requests.append(Request(language="RefLL", source=nested_refll_boundary(4), backend="substitution"))
    requests.append(Request(language="RefLL", source=nested_refll_boundary(4), analyze_only=True))
    requests.append(Request(language="RefLL", source=nested_refll_boundary(4)))  # coalesces
    requests.append(Request(language="RefLL", source="1", fuel=-1))  # refused
    requests.append(Request(language="Klingon", source="(nuqneH)"))  # unroutable
    requests.append(Request(language="RefLL", source="1", backend="no-such-backend"))
    return requests


def _serve_everything(publisher, importer, requests):
    """Publish on one member, import on another, resume what was streamed."""
    entries = list(enumerate(requests))
    streamed = RecordingConnection()
    reply = handle_work(publisher, 0, ("serve", entries, [], []), streamed)
    assert reply[0] == "ok"
    warm = [(store_key, payload) for store_key, payload in reply[2] if payload is not None]
    assert warm
    known = [store_key for store_key, _payload in warm]
    reply = handle_work(importer, 1, ("serve", entries, warm, known), RecordingConnection())
    assert reply[0] == "ok"
    assert any(response.shared_cache_hit for _index, response in reply[1])
    latest = {}
    for frame_type, (covered, payload) in streamed.frames:
        if frame_type == CHECKPOINT:
            latest[tuple(covered)] = payload
    items = [(list(covered), payload) for covered, payload in latest.items()]
    reply = handle_work(importer, 1, ("resume", items), None)
    assert reply[0] == "resumed" and reply[1]


def test_the_member_path_makes_no_reference_cycles():
    publisher = make_default_scheduler(slice_steps=SLICE_STEPS)
    importer = make_default_scheduler(slice_steps=SLICE_STEPS)
    requests = _traffic()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        _serve_everything(publisher, importer, requests)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert not garbage, f"the member path left reference cycles: {garbage.most_common()}"


# -- GC policy: the worker's own, never the caller's ---------------------------


class _GcProbe:
    """An execution whose one slice reports its process's GC settings."""

    def step_n(self, limit):
        return RunResult(value=(gc.isenabled(), gc.get_threshold()))


def _no_snapshots(snapshot):
    raise AssertionError("the probe never pauses")


def _gc_probe_factory(slice_steps: int) -> Scheduler:
    """Default scheduler plus a 'gc-probe' backend on the refs target."""
    scheduler = make_default_scheduler(slice_steps=slice_steps)
    engine = Engine(start=lambda unit, fuel: _GcProbe(), restore=_no_snapshots)
    scheduler.systems["refs"].target.engines["gc-probe"] = engine
    return scheduler


def _gc_settings():
    return gc.isenabled(), gc.get_threshold()


def test_pool_workers_run_without_the_cycle_collector_and_the_caller_keeps_its_own():
    before = _gc_settings()
    with WorkerPool(workers=2, slice_steps=SLICE_STEPS, scheduler_factory=_gc_probe_factory) as pool:
        requests = [
            Request(language="RefLL", source=f"{number}", backend="gc-probe", affinity=f"probe-{number}")
            for number in range(8)
        ]
        responses = pool.run_batch(requests)
        assert {response.shard for response in responses} == {0, 1}
        assert all(response.error is None for response in responses)
        assert {response.result.value[0] for response in responses} == {False}
        assert _gc_settings() == before
    assert _gc_settings() == before


def test_in_process_scheduler_and_net_worker_keep_the_callers_gc_settings():
    before = _gc_settings()
    scheduler = make_default_scheduler(slice_steps=SLICE_STEPS)
    scheduler.serve([Request(language="RefLL", source=nested_refll_boundary(3))], batched=True)
    assert _gc_settings() == before
    worker = NetWorker(endpoint_id=0, slice_steps=SLICE_STEPS)
    worker.start()
    router = NetRouter(slice_steps=SLICE_STEPS)
    router.start()
    try:
        router.add_worker(worker.address)
        response = router.run_batch([Request(language="RefLL", source=nested_refll_boundary(3))])[0]
        assert response.error is None and response.shard == 0
        assert _gc_settings() == before
    finally:
        router.stop()
        worker.stop()
    assert _gc_settings() == before


# -- a slice-0 checkpoint is its request --------------------------------------


def _stream(requests):
    """The connection a member streamed ``requests``' checkpoints over."""
    connection = RecordingConnection()
    work = ("serve", list(enumerate(requests)), [], [])
    assert handle_work(make_default_scheduler(slice_steps=SLICE_STEPS), 0, work, connection)[0] == "ok"
    return connection


def test_slice_zero_checkpoints_stream_without_a_snapshot():
    requests = [
        Request(language="RefLL", source=nested_refll_boundary(6), request_id="refs"),
        Request(language="MiniML", system="affine", source=nested_ml_affi_boundary(6), request_id="affine"),
    ]
    connection = _stream(requests)
    streamed = connection.checkpoints()
    first = {}
    for covered, checkpoint in streamed:
        first.setdefault(tuple(covered), checkpoint)
    assert set(first) == {(0,), (1,)}
    for checkpoint in first.values():
        assert checkpoint.slices == 0 and checkpoint.snapshot is None
    later = [checkpoint for _covered, checkpoint in streamed if checkpoint.slices > 0]
    assert later and all(isinstance(checkpoint.snapshot, dict) for checkpoint in later)


def test_a_snapshotless_checkpoint_resumes_like_a_restore_of_the_initial_state():
    requests = [
        Request(language="RefLL", source=nested_refll_boundary(6), request_id="refs"),
        Request(language="MiniML", system="affine", source=nested_ml_affi_boundary(6), request_id="affine"),
        Request(language="RefLL", source=nested_refll_boundary(6), fuel=40, request_id="starved"),
    ]
    scheduler = make_default_scheduler(slice_steps=SLICE_STEPS)
    full = []
    scheduler.serve(requests, on_checkpoint=lambda indices, checkpoint: full.append(checkpoint))
    initial = [checkpoint for checkpoint in full if checkpoint.slices == 0]
    assert len(initial) == len(requests)
    assert all(checkpoint.snapshot is not None for checkpoint in initial)
    restored = scheduler.resume(initial)
    restarted = scheduler.resume([replace(checkpoint, snapshot=None) for checkpoint in initial])
    baseline = scheduler.serve_sequential(requests)
    for expected, before, after in zip(baseline, restored, restarted):
        assert after.resumed and after.error is None
        assert _observable(after) == _observable(before) == _observable(expected)
        assert (after.system, after.backend) == (before.system, before.backend)


def test_restore_tamper_fails_a_snapshotless_checkpoint_alone():
    requests = [
        Request(language="RefLL", source=nested_refll_boundary(5), request_id="tampered"),
        Request(language="RefLL", source=nested_refll_boundary(6), request_id="healthy"),
    ]
    connection = _stream(requests)
    items = [
        (covered, encode(checkpoint))
        for covered, checkpoint in connection.checkpoints()
        if checkpoint.slices == 0
    ]
    resumer = make_default_scheduler(slice_steps=SLICE_STEPS)
    resumer.fault_plan = FaultPlan([Fault(site="restore.tamper", request_id="tampered")])
    tag, results, failures = handle_work(resumer, 1, ("resume", items), None)
    assert tag == "resumed"
    assert [covered for covered, _response in results] == [[1]]
    assert results[0][1].error is None and results[0][1].result.ok
    ((covered, message),) = failures
    assert covered == [0]
    # The tampered checkpoint claims a snapshot no restorer accepts.
    assert message.startswith("ValueError: snapshot kind None cannot restore")
    assert resumer.fault_plan.fired() == {"restore.tamper": 1}


def _drop_before_first_slice(victim):
    return FaultPlan([Fault(site="net.drop", request_id="victim", at_slice=0, shard=victim)])


def _assert_migrated_from_slice_zero(served, baseline, victim):
    assert served.migrated_from == victim and served.shard == 1 - victim
    assert served.resumed and served.attempts == 2
    assert _observable(served) == _observable(baseline)


def test_pool_worker_dying_before_the_first_slice_migrates_the_request():
    request = Request(language="RefLL", source=nested_refll_boundary(6), request_id="victim")
    victim = HashRing([0, 1]).node_for(make_default_scheduler().placement_key(request))
    with WorkerPool(workers=2, slice_steps=SLICE_STEPS, fault_plan=_drop_before_first_slice(victim)) as pool:
        baseline = pool.run_sequential([request])[0]
        served = pool.run_batch([request])[0]
        _assert_migrated_from_slice_zero(served, baseline, victim)
        counters = pool.stats()["counters"]
        assert (counters["crashes"], counters["migrations"], counters["redispatches"]) == (1, 1, 0)


def test_endpoint_dying_before_the_first_slice_migrates_the_request():
    request = Request(language="RefLL", source=nested_refll_boundary(6), request_id="victim")
    victim = HashRing([0, 1]).node_for(make_default_scheduler().placement_key(request))
    workers = []
    for endpoint_id in range(2):
        plan = _drop_before_first_slice(victim) if endpoint_id == victim else None
        worker = NetWorker(endpoint_id=endpoint_id, slice_steps=SLICE_STEPS, fault_plan=plan)
        worker.start()
        workers.append(worker)
    router = NetRouter(slice_steps=SLICE_STEPS, dispatch=DispatchPolicy(top_k=1, balance_load=False))
    router.start()
    try:
        for worker in workers:
            router.add_worker(worker.address)
        baseline = router.run_sequential([request])[0]
        served = router.run_batch([request])[0]
        _assert_migrated_from_slice_zero(served, baseline, victim)
        counters = router.stats()["counters"]
        assert (counters["crashes"], counters["migrations"], counters["redispatches"]) == (1, 1, 0)
    finally:
        router.stop()
        for worker in workers:
            worker.stop()


# -- bad store and resume payloads fail alone ---------------------------------


def test_a_foreign_warm_artifact_is_compiled_from_source_instead():
    request = Request(language="RefLL", source=nested_refll_boundary(5))
    scheduler = make_default_scheduler(slice_steps=SLICE_STEPS)
    store_key = scheduler.pipeline_key(request)
    work = ("serve", [(0, request)], [(store_key, encode(5))], [store_key])
    tag, results, publishes = handle_work(scheduler, 0, work, RecordingConnection())
    assert tag == "ok" and publishes == []
    ((_index, response),) = results
    assert response.error is None and response.result.ok
    assert not response.shared_cache_hit
    baseline = make_default_scheduler(slice_steps=SLICE_STEPS).serve_sequential([request])[0]
    assert _observable(response)[:4] == _observable(baseline)[:4]


def test_a_foreign_artifact_published_to_the_router_does_not_poison_an_endpoint():
    request = Request(language="RefLL", source=nested_refll_boundary(5))
    worker = NetWorker(endpoint_id=0, slice_steps=SLICE_STEPS)
    worker.start()
    router = NetRouter(slice_steps=SLICE_STEPS)
    router.start()
    try:
        router.add_worker(worker.address)
        with NetClient(*router.address) as client:
            assert client.publish(make_default_scheduler().pipeline_key(request), encode(5))
            baseline = router.run_sequential([request])[0]
            for _attempt in range(2):
                response = client.run_batch([request])[0]
                assert response.error is None and not response.shared_cache_hit
                assert _observable(response)[:4] == _observable(baseline)[:4]
    finally:
        router.stop()
        worker.stop()


def test_a_resume_payload_that_is_not_a_checkpoint_fails_only_its_group():
    connection = _stream([Request(language="RefLL", source=nested_refll_boundary(5))])
    _covered, checkpoint = connection.checkpoints()[-1]
    items = [([0], encode(5)), ([1], encode(checkpoint))]
    resumer = make_default_scheduler(slice_steps=SLICE_STEPS)
    tag, results, failures = handle_work(resumer, 0, ("resume", items), None)
    assert tag == "resumed"
    assert [group for group, _response in results] == [[1]]
    assert results[0][1].result.ok
    assert failures == [([0], "payload holds int, not a Checkpoint")]
