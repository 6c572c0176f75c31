"""The transport-agnostic dispatcher (:mod:`repro.serve.dispatch`).

Everything here runs against an in-memory fake transport — no processes,
no sockets — whose exchanges answer from a per-member script of outcomes,
so each recovery path is pinned exactly:

* **migration** — a crash with streamed checkpoints resumes them elsewhere;
* **recursive recovery** — a redispatch target that dies too hands its own
  checkpoints to the next recovery;
* **budget exhaustion** — ends in a structured ``error``, never a hole;
* **the shared store** — first publisher wins, and a publisher is never
  shipped its own artifact back;
* **placement** — an open breaker reroutes with ``rerouted_from``, and load
  is reported queue depth plus the batch's cost-hint-weighted load;
* **admission** — the tail past ``max_batch`` is shed;
* **idle death** — a member found dead before dispatch is crash-accounted
  before its warm set is computed, so its replacement is re-warmed;
* **the worker side** — :func:`handle_work` streams checkpoints in the
  order its priority-weighted slice loop reaches their boundaries.
"""

from repro.serve import (
    BreakerPolicy,
    DispatchPolicy,
    Request,
    Response,
    make_default_scheduler,
)
from repro.serve.dispatch import Dispatcher, handle_work
from repro.serve.wire import CHECKPOINT
from repro.util.workloads import nested_refll_boundary

SLICE_STEPS = 16
SOURCE = nested_refll_boundary(3)
ROUTER = make_default_scheduler(slice_steps=SLICE_STEPS)


class FakeTransport:
    """Members that answer from a script, or serve cleanly when it is empty.

    A clean ``serve`` publishes every store key the dispatcher did not list
    as known and reports a shared-store hit for every key it was warmed
    with; a clean ``resume`` answers each group from its payload, which the
    tests set to the request id it stands for.
    """

    def __init__(self, members):
        self.up = {member: True for member in members}
        self.depth = {member: 0 for member in members}
        self.script = {member: [] for member in members}
        self.log = []
        self.torn_down = []
        self.requests = {}

    def alive(self, member):
        return self.up[member]

    def load(self, member):
        return self.depth[member]

    def exchange(self, work):
        outcomes = []
        for member, message in work:
            self.log.append((member, message))
            self.up[member] = True  # a respawn / redial
            script = self.script[member]
            outcomes.append(script.pop(0) if script else self._serve(member, message))
        return outcomes

    def teardown(self, member):
        self.torn_down.append(member)
        self.up[member] = False

    def describe(self, member):
        return {"address": f"fake {member}", "connected": self.up[member], "queue_depth": self.depth[member]}

    def _serve(self, member, message):
        if message[0] == "resume":
            results = [
                (covered, Response(request=self.requests[payload.decode()], shard=member))
                for covered, payload in message[1]
            ]
            return ("reply", ("resumed", results, []), {})
        _tag, entries, warm, known = message
        warmed = {store_key for store_key, _payload in warm}
        results, publishes = [], []
        for index, request in entries:
            response = Response(request=request, shard=member)
            store_key = ROUTER.pipeline_key(request)
            if store_key in warmed:
                response.shared_cache_hit = True
            elif store_key not in known and store_key not in dict(publishes):
                publishes.append((store_key, f"unit-from-{member}".encode()))
                response.published = True
            results.append((index, response))
        return ("reply", ("ok", results, publishes), {})


def _dispatcher(members=(0, 1), **options):
    transport = FakeTransport(members)
    dispatcher = Dispatcher(
        transport,
        ROUTER,
        SLICE_STEPS,
        label="member",
        lost="lost while serving the batch",
        sleeper=lambda _seconds: None,
        **options,
    )
    for member in members:
        dispatcher.add_member(member)
    return dispatcher, transport


def _pinned(dispatcher, member, request_id, **fields):
    """A request whose ring home is ``member``."""
    for attempt in range(256):
        key = f"pin-{member}-{attempt}"
        if dispatcher.ring.node_for(key) == member:
            request = Request(
                language="RefLL", source=SOURCE, affinity=key, request_id=request_id, **fields
            )
            dispatcher.transport.requests[request_id] = request
            return request
    raise AssertionError(f"no affinity key homes on member {member}")


def _crash(checkpoints=None):
    return ("crashed", checkpoints or {})


def _sent(transport):
    """``(member, work tag)`` for every exchange so far."""
    return [(member, message[0]) for member, message in transport.log]


# -- recovery -----------------------------------------------------------------


def test_crash_with_streamed_checkpoints_migrates():
    dispatcher, transport = _dispatcher()
    request = _pinned(dispatcher, 0, "victim")
    transport.script[0] = [_crash({(0,): b"victim"})]
    (response,) = dispatcher.run_batch([request])
    assert _sent(transport) == [(0, "serve"), (1, "resume")]
    assert response.error is None and response.shard == 1
    assert response.migrated_from == 0 and response.attempts == 2
    assert transport.torn_down == [0]
    assert dispatcher.breakers[0].failure_count == 1
    stats = dispatcher.cache_stats()
    assert stats["migrations"] == 1 and stats["retries"] == 1 and stats["redispatches"] == 0
    assert stats["crashes"] == 1
    members = dispatcher.stats()["members"]
    assert [members[0][key] for key in ("dispatches", "served", "inflight")] == [1, 0, 0]
    assert [members[1][key] for key in ("dispatches", "served", "inflight")] == [1, 1, 0]
    assert members[0]["breaker"]["failures"] == 1 and members[0]["address"] == "fake 0"


def test_redispatch_target_crash_recurses_with_its_own_checkpoints():
    dispatcher, transport = _dispatcher(members=(0, 1, 2))
    request = _pinned(dispatcher, 0, "victim", retry_budget=2)
    transport.script[0] = [_crash()]  # nothing streamed: redispatch from scratch
    transport.script[1] = [_crash({(0,): b"victim"})]  # the redispatch dies mid-run
    (response,) = dispatcher.run_batch([request])
    assert _sent(transport) == [(0, "serve"), (1, "serve"), (2, "resume")]
    assert response.error is None and response.shard == 2
    assert response.migrated_from == 1 and response.attempts == 3
    assert transport.torn_down == [0, 1]
    stats = dispatcher.cache_stats()
    assert stats["retries"] == 2 and stats["redispatches"] == 1 and stats["migrations"] == 1


def test_exhausted_budget_ends_in_a_structured_error():
    dispatcher, transport = _dispatcher()
    request = _pinned(dispatcher, 0, "doomed", retry_budget=1)
    transport.script[0] = [_crash()]
    transport.script[1] = [_crash()]
    (response,) = dispatcher.run_batch([request])
    assert response.result is None
    assert response.error == "member 1: lost while serving the batch"
    assert response.shard == 1
    assert dispatcher.cache_stats()["retries"] == 1
    assert transport.torn_down == [0, 1]


# -- the shared store ---------------------------------------------------------


def test_first_publisher_wins_and_is_never_shipped_its_artifact():
    dispatcher, transport = _dispatcher()
    first = dispatcher.run_batch([_pinned(dispatcher, 0, "a"), _pinned(dispatcher, 1, "b")])
    # Both members compiled and offered the same key; member 0's reply is
    # absorbed first, so only its publish stands.
    assert [response.published for response in first] == [True, False]
    assert dispatcher.cache_stats()["publishes"] == 1
    (store_key,) = dispatcher.store
    assert dispatcher.store[store_key].publisher == 0

    transport.log.clear()
    second = dispatcher.run_batch([_pinned(dispatcher, 0, "c"), _pinned(dispatcher, 1, "d")])
    warm = {member: message[2] for member, message in transport.log}
    assert warm[0] == []  # the publisher already holds it
    assert warm[1] == [(store_key, b"unit-from-0")]
    assert [response.shared_cache_hit for response in second] == [False, True]
    stats = dispatcher.cache_stats()
    assert stats["hits"] == 1 and stats["cross_worker_hits"] == 1


def test_member_dead_at_idle_is_rewarmed_in_the_same_batch():
    dispatcher, transport = _dispatcher()
    dispatcher.run_batch([_pinned(dispatcher, 0, "publish")])
    transport.up[0] = False  # died between batches
    transport.log.clear()
    (response,) = dispatcher.run_batch([_pinned(dispatcher, 0, "again")])
    assert transport.torn_down == [0]
    (_member, message), = transport.log
    assert [store_key for store_key, _payload in message[2]] == list(dispatcher.store)
    assert response.shared_cache_hit and response.shard == 0


# -- placement ----------------------------------------------------------------


def test_open_breaker_reroutes_with_rerouted_from():
    dispatcher, transport = _dispatcher(
        breaker_policy=BreakerPolicy(failure_threshold=1, cooldown_seconds=60.0),
        clock=lambda: 0.0,
    )
    transport.script[0] = [_crash()]
    (failed,) = dispatcher.run_batch([_pinned(dispatcher, 0, "boom", retry_budget=0)])
    assert failed.error == "member 0: lost while serving the batch"
    assert dispatcher.breakers[0].state() == "open"
    (rerouted,) = dispatcher.run_batch([_pinned(dispatcher, 0, "detour")])
    assert rerouted.error is None and rerouted.shard == 1
    assert rerouted.rerouted_from == 0
    assert dispatcher.cache_stats()["reroutes"] == 1


def test_load_is_reported_depth_plus_weighted_batch_load():
    dispatcher, transport = _dispatcher(placement=DispatchPolicy(top_k=2, balance_load=True))
    costly = _pinned(dispatcher, 0, "costly", cost_hint=SLICE_STEPS * 8)
    cheap = Request(language="RefLL", source=SOURCE, affinity=costly.affinity, request_id="cheap")
    # The costly request weighs 9 on its home, so the cheap one diverts.
    assert [response.shard for response in dispatcher.run_batch([costly, cheap])] == [0, 1]
    assert dispatcher.cache_stats()["diverted"] == 1
    # A deeper reported queue on the other member outweighs that load.
    transport.depth[1] = 10
    assert [response.shard for response in dispatcher.run_batch([costly, cheap])] == [0, 0]


# -- admission ----------------------------------------------------------------


def test_admission_sheds_the_batch_tail():
    dispatcher, _transport = _dispatcher(max_batch=3)
    requests = [
        _pinned(dispatcher, 0, "r0"),
        _pinned(dispatcher, 0, "r1"),
        _pinned(dispatcher, 1, "r2"),
        _pinned(dispatcher, 1, "r3"),  # past max_batch
        _pinned(dispatcher, 0, "r4"),  # past max_batch
    ]
    responses = dispatcher.run_batch(requests)
    assert [response.rejected_overload for response in responses] == [False] * 3 + [True] * 2
    assert [response.shard for response in responses] == [0, 0, 1, None, None]
    assert dispatcher.cache_stats()["shed"] == 2
    assert dispatcher.stats()["admission"] == {"max_batch": 3, "shed": 2}


# -- the worker side ----------------------------------------------------------


class RecordingConnection:
    def __init__(self):
        self.frames = []

    def send(self, frame_type, body):
        self.frames.append((frame_type, body))


def test_streaming_worker_honours_request_priority():
    low = Request(
        language="RefLL", source=nested_refll_boundary(12), priority="best-effort", request_id="low"
    )
    high = Request(language="RefLL", source=nested_refll_boundary(13), priority="high", request_id="high")
    connection = RecordingConnection()
    work = ("serve", [(0, low), (1, high)], [], [])
    reply = handle_work(make_default_scheduler(slice_steps=4), 0, work, connection)
    assert reply[0] == "ok"
    order = [covered for frame_type, (covered, _payload) in connection.frames if frame_type == CHECKPOINT]
    # Both slice-0 checkpoints, then one best-effort turn of 1 slice and one
    # high-priority turn of 8.
    assert order[:11] == [[0], [1], [0]] + [[1]] * 8
