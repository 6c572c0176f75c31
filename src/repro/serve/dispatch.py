"""The transport-agnostic dispatcher behind the worker pool and the network router.

Serving compiled target code across processes is one job whatever carries
the bytes, so :class:`Dispatcher` does it once over a narrow
:class:`Transport`: :class:`~repro.serve.pool.WorkerPool` (socket pairs to
spawned processes) and :class:`~repro.serve.net.NetRouter` (TCP to
endpoints) are thin front ends that supply one.  Both speak the same
:mod:`repro.serve.wire` frames.  The dispatcher owns:

* **Admission** — the ``max_batch`` cutoff, shedding a deterministic tail
  as ``rejected_overload``, and :func:`~repro.serve.request.check_request`,
  which answers a refused request here, never placing it.
* **Placement** — consistent-hash ring order with per-member circuit-breaker
  quarantine and load-aware top-k choice (:meth:`Dispatcher._place`).
* **The shared artifact store** — first publisher wins, and each artifact
  is shipped to a member once, never back to its publisher.
* **Recovery** — migrate a crashed member's streamed checkpoints, then
  redispatch the rest from scratch under each request's ``retry_budget``
  (:meth:`Dispatcher._recover`).
* **The stats** — :meth:`Dispatcher.stats`, the one snapshot both front
  ends return: every member's breaker and traffic, the ring, the store,
  the fleet counters, admission.

Both ends of the member protocol live here too, once for both transports:
:func:`serve_member` is the loop every pool worker and network endpoint
runs over its :class:`~repro.serve.wire.FrameConnection` (``REQUEST``
frames served by :func:`handle_work`, heartbeats answered, until ``BYE``),
and :func:`exchange_all` is the parent's send-all-then-drain loop over the
members' connections.
"""

from __future__ import annotations

import random
import reprlib
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Protocol, Sequence, Set, Tuple

from repro.core.codec import CodecError, decode, encode
from repro.core.errors import RequestError
from repro.core.language import CompiledUnit
from repro.serve.checkpoint import Checkpoint
from repro.serve.reliability import (
    AdmissionController,
    BreakerPolicy,
    CircuitBreaker,
    DispatchPolicy,
    RetryPolicy,
)
from repro.serve.request import Request, Response, check_request
from repro.serve.ring import HashRing
from repro.serve.scheduler import Scheduler, StoreKey
from repro.serve.wire import (
    BYE,
    CHECKPOINT,
    ERROR,
    HEARTBEAT,
    REQUEST,
    RESPONSE,
    STATS,
    ConnectionDropped,
    FrameConnection,
    WireError,
    expect_frame,
    unexpected_frame,
)

__all__ = [
    "FLEET_COUNTERS",
    "STORE_COUNTERS",
    "Dispatcher",
    "Transport",
    "exchange_all",
    "flat_stats",
    "handle_work",
    "load_report",
    "parse_work",
    "serve_member",
    "weight",
]

#: Index-tagged requests: ``(batch index, request)``.
Entries = List[Tuple[int, Request]]
#: The last streamed checkpoint payload per coalesced group of batch indices.
Checkpoints = Dict[Tuple[int, ...], bytes]
#: Shared-store counters, then the fleet's failure, recovery and placement
#: counters, then each member's traffic: the counter names of
#: :meth:`Dispatcher.stats`.
STORE_COUNTERS = ("hits", "cross_worker_hits", "misses", "publishes", "unpicklable")
FLEET_COUNTERS = (
    "crashes", "served_locally", "migrations", "retries", "redispatches", "reroutes", "diverted"
)
MEMBER_COUNTERS = ("inflight", "dispatches", "served")
#: The backoff schedule of every recovery wave.
RETRY_POLICY = RetryPolicy()


# -- the worker side ----------------------------------------------------------


def load_report(member: int) -> Dict[str, int]:
    """A member's fresh ``HEARTBEAT`` body, which :func:`serve_member` keeps current."""
    return {"endpoint": member, "queue_depth": 0}


def serve_member(
    scheduler: Scheduler, member: int, connection: FrameConnection, load: Dict[str, int]
) -> None:
    """The member side of the protocol: serve ``connection`` until ``BYE``.

    Pool workers and network endpoints both run this loop.  Each
    ``REQUEST`` body is parsed once by :func:`parse_work` and served by
    :func:`handle_work`, which streams ``CHECKPOINT`` frames while the
    batch runs, then answered with one ``RESPONSE`` (a malformed body's is
    ``("error", "malformed work body: …")``).  ``HEARTBEAT`` and ``STATS``
    are answered with ``load`` (see :func:`load_report`), which the loop
    keeps current.  Any other frame is refused with ``ERROR`` and ends the
    conversation.  A
    :class:`~repro.serve.wire.ConnectionDropped` — the parent gone, or an
    injected ``net.drop`` — propagates and ends it too; the caller closes
    the socket, and the parent recovers the batch from the checkpoints
    streamed so far.
    """
    while True:
        frame_type, body = connection.read()
        if frame_type == BYE:
            return
        if frame_type in (HEARTBEAT, STATS):
            connection.send(frame_type, dict(load))
            continue
        if frame_type != REQUEST:
            connection.send(ERROR, unexpected_frame(frame_type))
            return
        try:
            work = parse_work(body)
        except ValueError as error:
            reply: Tuple[Any, ...] = ("error", str(error))
        else:
            load["queue_depth"] = len(work[1])
            try:
                reply = handle_work(scheduler, member, work, connection)
            finally:
                load["queue_depth"] = 0
        plan = scheduler.fault_plan
        slow = plan.fire("net.slow") if plan is not None else None
        if slow is not None:
            # The slow link: the batch is done but its terminal RESPONSE
            # dawdles — exactly what attempt_timeout_seconds exists for.
            time.sleep(slow.delay_seconds)
        connection.send(RESPONSE, reply)


def parse_work(body: Any) -> Tuple[Any, ...]:
    """``body`` if it is a work tuple :func:`handle_work` can serve, else
    ``ValueError("malformed work body: …")``: ``("serve", entries, warm,
    known)`` with ``(int, Request)`` entries, ``(store key, bytes)`` warm
    pairs and a list of store keys, or ``("resume", items)`` with ``(list
    of int, bytes)`` items.  Request fields are ``Scheduler.serve``'s check.
    """
    if isinstance(body, tuple) and len(body) == 4 and body[0] == "serve":
        if _pairs(body[1], int, Request) and _pairs(body[2], tuple, bytes) and _list_of(body[3], tuple):
            return body
    elif isinstance(body, tuple) and len(body) == 2 and body[0] == "resume":
        if _pairs(body[1], list, bytes) and all(_list_of(covered, int) for covered, _payload in body[1]):
            return body
    raise ValueError(
        "malformed work body: expected ('serve', entries, warm, known) or"
        f" ('resume', items), got {reprlib.repr(body)}"
    )


def _list_of(items: Any, kind: type) -> bool:
    return isinstance(items, list) and all(isinstance(item, kind) for item in items)


def _pairs(items: Any, first: type, second: type) -> bool:
    return _list_of(items, tuple) and all(
        len(item) == 2 and isinstance(item[0], first) and isinstance(item[1], second) for item in items
    )


def handle_work(
    scheduler: Scheduler, member: int, work: Tuple[Any, ...], connection: Any
) -> Tuple[Any, ...]:
    """Serve one :func:`parse_work` tuple on a member's scheduler; returns
    the terminal reply.

    ``("serve", entries, warm, known)`` serves index-tagged requests,
    coalescing identical ones, after importing the ``warm`` store artifacts
    (``known`` keys are never re-published), and replies ``("ok", results,
    publishes)``; ``("resume", items)`` resumes a crashed member's streamed
    checkpoints and replies ``("resumed", results, failures)``.  Checkpoints
    stream over ``connection`` while a batch runs.  Any exception becomes an
    ``("error", message)`` reply — a batch bug must not kill the member —
    except :class:`~repro.serve.wire.ConnectionDropped`, which ends the
    conversation.
    """
    try:
        if work[0] == "resume":
            return _resume_shard(scheduler, member, work[1])
        return _serve_shard(scheduler, member, work, connection)
    except ConnectionDropped:
        raise
    except Exception as error:  # noqa: BLE001 — a batch bug must not kill the member
        return ("error", f"{type(error).__name__}: {error}")


def _serve_shard(
    scheduler: Scheduler, shard: int, message: Tuple[Any, ...], connection: Any
) -> Tuple[Any, ...]:
    """Serve one shard batch and report responses plus publishable artifacts.

    Every snapshot-capable run streams a checkpoint upstream at each slice
    boundary as a ``CHECKPOINT`` frame ``(covered, payload)``, ``covered``
    listing the original batch indices of the whole coalesced group.  If
    this worker then dies mid-batch, the parent resumes each in-flight group
    from its last boundary on a surviving member.  A checkpoint that fails
    to encode — or an injected ``checkpoint.pickle`` fault — is not
    streamed: its requests fall back to retry-from-scratch.  A slice-0
    checkpoint is streamed without its snapshot: the paused state is the
    request's initial state, which the parent already holds.

    A ``warm`` payload that does not decode to a
    :class:`~repro.core.language.CompiledUnit` is not imported: its
    requests compile from source, as if the store had missed.
    """
    _tag, entries, warm, known = message
    imported: Set[StoreKey] = set()
    for store_key, payload in warm:
        try:
            unit = decode(payload)
        except CodecError:  # a stale/foreign payload falls back to compilation
            continue
        if isinstance(unit, CompiledUnit) and scheduler.import_cache_entry(store_key, unit):
            imported.add(store_key)

    requests = [request for _index, request in entries]
    plan = scheduler.fault_plan

    def stream(positions: List[int], checkpoint: Any) -> None:
        if plan is not None and plan.fire(
            "checkpoint.pickle", request_id=checkpoint.request.request_id
        ):
            return  # injected serialization failure: this boundary is lost
        if checkpoint.slices == 0:
            checkpoint = replace(checkpoint, snapshot=None)
        try:
            payload = encode(checkpoint)
        except CodecError:  # unencodable snapshot: skip, never stream junk
            return
        covered = [entries[position][0] for position in positions]
        connection.send(CHECKPOINT, (covered, payload))
        if plan is not None and plan.fire(
            "net.drop", request_id=checkpoint.request.request_id, slices=checkpoint.slices
        ):
            # The connection dies *after* this boundary's checkpoint frame is
            # on the wire: the parent holds exactly the state it needs to
            # migrate this group.  The exception ends the conversation
            # abruptly, so the parent sees EOF on either tier.
            raise ConnectionDropped("injected net.drop fault")

    responses = scheduler.serve(requests, batched=True, on_checkpoint=stream)

    publishes: List[Tuple[StoreKey, Optional[bytes]]] = []
    # Keys the store already holds must not be re-exported, re-encoded, or
    # re-flagged as published — the parent would only discard them.
    already_published: Set[StoreKey] = set(known)
    for response in responses:
        response.shard = shard
        # Only a routed request has a store key; a refused one never routed.
        store_key = scheduler.pipeline_key(response.request) if response.system else None
        if store_key is None:
            continue
        if store_key in imported:
            response.shared_cache_hit = True
        elif response.error is None and store_key not in already_published:
            unit = scheduler.export_cache_entry(store_key)
            if unit is None:
                continue
            already_published.add(store_key)
            try:
                shared: Optional[bytes] = encode(unit)
            except CodecError:  # unencodable artifact: others recompile from source
                shared = None
            publishes.append((store_key, shared))
            response.published = shared is not None
    results = [(index, response) for (index, _request), response in zip(entries, responses)]
    return ("ok", results, publishes)


def _resume_shard(
    scheduler: Scheduler, shard: int, items: Sequence[Tuple[List[int], bytes]]
) -> Tuple[Any, ...]:
    """Resume checkpoints streamed by a crashed shard; report their outcomes.

    ``items`` pairs each coalesced group's original batch indices with its
    last streamed checkpoint payload.  Every checkpoint restores through the
    scheduler's registered snapshot restorer — recompiling machine artifacts
    locally — and runs to completion; outcomes are observably identical to
    the crashed worker having finished.  A payload that fails to decode, is
    not a :class:`~repro.serve.checkpoint.Checkpoint`, or fails to restore
    fails only its own group, reported in ``failures``.

    Migrated responses keep *cumulative* slice accounting: the checkpoint's
    pre-crash slices are folded into ``response.slices``, so the
    bounded-latency invariant (``steps ≤ slices × slice_steps``) holds for
    the whole run, not just the post-restore tail.
    """
    covered_groups: List[List[int]] = []
    checkpoints: List[Any] = []
    failures: List[Tuple[List[int], str]] = []
    for covered, payload in items:
        try:
            checkpoint = decode(payload)
        except CodecError as error:
            failures.append((list(covered), str(error)))
            continue
        if not isinstance(checkpoint, Checkpoint):
            failures.append((list(covered), f"payload holds {type(checkpoint).__name__}, not a Checkpoint"))
            continue
        covered_groups.append(list(covered))
        checkpoints.append(checkpoint)
    responses = scheduler.resume(checkpoints)
    results: List[Tuple[List[int], Response]] = []
    for covered, checkpoint, response in zip(covered_groups, checkpoints, responses):
        response.shard = shard
        response.coalesced = len(covered)
        response.slices += checkpoint.slices
        if response.error is not None:
            failures.append((covered, response.error))
            continue
        results.append((covered, response))
    return ("resumed", results, failures)


# -- the parent side ----------------------------------------------------------


def exchange_all(
    work: Sequence[Tuple[Optional[FrameConnection], Tuple[Any, ...]]]
) -> List[Tuple[Any, ...]]:
    """Send every member its work first, then drain each member's stream.

    ``work`` pairs a member's :class:`~repro.serve.wire.FrameConnection` —
    ``None`` if it could not be reached — with its work tuple.  Sending
    everything before reading anything lets the members run in parallel;
    the streams are then drained in order.  A stream is zero or more
    ``CHECKPOINT`` frames, each superseding the last for its group, then the
    ``RESPONSE``, and becomes one :class:`Transport` outcome.  A failed send
    or read ends the member in ``("crashed", checkpoints)``: frames a member
    wrote before dying stay readable after its death, so the checkpoints
    that make its requests migratable survive the crash itself.
    """
    reached: List[Optional[FrameConnection]] = []
    for connection, message in work:
        if connection is not None:
            try:
                connection.send(REQUEST, message)
            except WireError:
                connection = None
        reached.append(connection)
    return [
        ("crashed", {}) if connection is None else _drain(connection) for connection in reached
    ]


def _drain(connection: FrameConnection) -> Tuple[Any, ...]:
    """One member's stream, read to its ``RESPONSE``, as an outcome."""
    checkpoints: Checkpoints = {}
    try:
        frame_type, body = connection.read()
        while frame_type == CHECKPOINT:
            covered, payload = body
            checkpoints[tuple(covered)] = payload
            frame_type, body = connection.read()
        reply = expect_frame((frame_type, body), RESPONSE)
    except WireError:
        return ("crashed", checkpoints)
    return ("reply", reply, checkpoints)


def weight(request: Request, slice_steps: int) -> int:
    """The load a queued request contributes for placement purposes.

    Without a hint every request weighs 1 (pure queue depth).  With
    :attr:`~repro.serve.request.Request.cost_hint` set (typically the
    analysis tier's ``estimated_steps``, fed back from an analyze-only
    response), the weight grows with the number of scheduler slices the run
    is expected to occupy, capped so one huge estimate cannot starve a
    member of all traffic.  Deterministic: same batch + same hints → same
    placement.
    """
    if request.cost_hint is None or request.cost_hint <= 0:
        return 1
    return 1 + min(8, request.cost_hint // max(1, slice_steps))


@dataclass
class _StoreEntry:
    """One shared-store artifact: the encoded unit plus its publisher."""

    payload: bytes
    publisher: int


class Transport(Protocol):
    """What the :class:`Dispatcher` needs from the thing that moves the bytes.

    Members are ``int`` ids on the dispatcher's ring.  :meth:`exchange` runs
    one work tuple per listed member, concurrently where it can, and returns
    one outcome per pair: ``("reply", reply, checkpoints)`` or ``("crashed",
    checkpoints)``, with whatever checkpoints the member streamed before the
    end.  Transport failures never escape as exceptions.
    """

    def alive(self, member: int) -> bool:
        """Is the member's process running / its connection open?"""

    def load(self, member: int) -> int:
        """The member's own reported queue depth (0 when it reports none)."""

    def exchange(self, work: Sequence[Tuple[int, Tuple[Any, ...]]]) -> List[Tuple[Any, ...]]:
        """Run every ``(member, work tuple)`` pair; one outcome per pair."""

    def teardown(self, member: int) -> None:
        """Release a crashed member; the next exchange respawns/redials it."""

    def describe(self, member: int) -> Dict[str, Any]:
        """The member's transport fields in :meth:`Dispatcher.stats`:
        ``address``, ``connected`` and ``queue_depth``."""


class Dispatcher:
    """Admission, placement, the shared store, and recovery over a transport.

    ``router`` is an in-process scheduler used only for placement and store
    keys.  A request its member failed gets ``error="{label} {member}:
    {message}"``, with ``lost`` as the message once a crash exhausts its
    retry budget.  With no members, :meth:`run_batch` hands the admitted
    requests to ``fallback`` (counted in ``served_locally``).  Synchronous:
    callers serialize batches.
    """

    def __init__(
        self,
        transport: Transport,
        router: Scheduler,
        slice_steps: int,
        label: str,
        lost: str,
        placement: Optional[DispatchPolicy] = None,
        breaker_policy: Optional[BreakerPolicy] = None,
        max_batch: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
        sleeper: Callable[[float], None] = time.sleep,
        fallback: Optional[Callable[[List[Request]], List[Response]]] = None,
    ) -> None:
        self.transport = transport
        self.router = router
        self.slice_steps = slice_steps
        self.label = label
        self.lost = lost
        self.placement = placement or DispatchPolicy(top_k=1, balance_load=False)
        self.ring: HashRing[int] = HashRing()
        self.breakers: Dict[int, CircuitBreaker] = {}
        self.admission = AdmissionController(max_batch)
        self.store: Dict[StoreKey, _StoreEntry] = {}
        #: Keys whose artifact failed to encode: workers are told not to try
        #: exporting them again, and each counts once in ``unpicklable``.
        self.unpicklable: Set[StoreKey] = set()
        self.counters = dict.fromkeys(STORE_COUNTERS + FLEET_COUNTERS, 0)
        #: Per-member traffic, kept across a leave and rejoin.
        self.traffic: Dict[int, Dict[str, int]] = {}
        self._breaker_policy = breaker_policy or BreakerPolicy()
        self._clock = clock
        self._retry_rng = random.Random(0)
        self._sleeper = sleeper
        self._fallback = fallback
        #: Artifacts already shipped to a member are not re-sent every batch;
        #: a crash forgets the member's deliveries, so its respawn or
        #: reconnect is re-warmed.  (A member that *evicted* a delivered entry
        #: simply recompiles — correct, one redundant compile.)
        self._delivered: Set[Tuple[int, StoreKey]] = set()
        #: Members sent work since they last crashed: one found dead here at
        #: the next dispatch died while idle.
        self._up: Set[int] = set()

    # -- membership -----------------------------------------------------------

    def add_member(self, member: int) -> None:
        self.ring.add(member)
        self.traffic.setdefault(member, dict.fromkeys(MEMBER_COUNTERS, 0))
        self.breakers[member] = CircuitBreaker(self._breaker_policy, self._clock)

    def remove_member(self, member: int) -> None:
        self.ring.remove(member)
        self.breakers.pop(member, None)
        self._forget(member)

    def crashed(self, member: int) -> None:
        """Account one member failure: ``crashes``, breaker, deliveries, and
        the transport's teardown."""
        self.counters["crashes"] += 1
        self.breakers[member].record_failure()
        self._forget(member)
        self.transport.teardown(member)

    def _forget(self, member: int) -> None:
        self._up.discard(member)
        self._delivered = {entry for entry in self._delivered if entry[0] != member}

    # -- serving --------------------------------------------------------------

    def run_batch(self, requests: Sequence[Request]) -> List[Response]:
        """Check, place, dispatch, collect, and recover one batch; request
        order kept.  Every member's share goes out in one
        :meth:`Transport.exchange`; crashed shares recover only after all
        replies are in, so a recovery exchange never interleaves with a
        pending reply.
        """
        responses: List[Optional[Response]] = [None] * len(requests)
        admitted = self.admission.batch_cutoff(len(requests))
        for index in range(admitted, len(requests)):
            responses[index] = self._shed(requests[index])
        if not len(self.ring) and self._fallback is not None:
            self.counters["served_locally"] += admitted
            responses[:admitted] = self._fallback(list(requests[:admitted]))
            return responses  # type: ignore[return-value]

        queues: Dict[int, Entries] = {}
        rerouted: Dict[int, int] = {}
        loads: Dict[int, int] = {}
        for index, request in enumerate(requests[:admitted]):
            try:
                check_request(request)
            except RequestError as error:  # answered here, never placed
                responses[index] = Response(request, error=f"RequestError: {error}")
                continue
            order = self.ring.candidates(self.router.placement_key(request))
            member, rerouted_from = self._place(order, loads)
            if rerouted_from is not None:
                rerouted[index] = rerouted_from
            queues.setdefault(member, []).append((index, request))
            loads[member] = loads.get(member, 0) + weight(request, self.slice_steps)

        groups = [(member, queues[member]) for member in sorted(queues)]
        for member, entries, checkpoints in self._serve(responses, groups, None):
            self._recover(responses, member, entries, checkpoints, {})
        for index, home in rerouted.items():
            response = responses[index]
            if response is not None and response.rerouted_from is None:
                response.rerouted_from = home
        return responses  # type: ignore[return-value]

    def _shed(self, request: Request) -> Response:
        self.admission.count_shed()
        return Response(request=request, rejected_overload=True)

    def _fail(
        self, responses: List[Optional[Response]], member: int, entries: Entries, message: str
    ) -> None:
        for index, request in entries:
            responses[index] = Response(
                request=request, shard=member, error=f"{self.label} {member}: {message}"
            )

    def _place(self, order: Sequence[int], loads: Dict[int, int]) -> Tuple[int, Optional[int]]:
        """Quarantine- and load-aware placement: ``(member, rerouted_from)``.

        ``order`` is the request's ring preference order (home first, then
        the members that would inherit its key).  A healthy home serves its
        own traffic; with ``balance_load`` on, the least-loaded of the first
        ``top_k`` admitted candidates serves instead, ties broken toward the
        home end of the order (``diverted`` counts these load moves).  When
        the whole head of the order is breaker-quarantined, the request
        re-places on the nearest admitted member further along the ring —
        half-open members admit their bounded probe dispatches here, which
        is what re-trials a quarantined member (``reroutes`` counts these,
        ``rerouted_from`` names the home).  If *every* member is quarantined
        the home serves anyway: quarantine is load steering, not an outage
        amplifier.
        """
        home = order[0]
        if len(order) == 1:
            return home, None
        k = self.placement.top_k if self.placement.balance_load else 1
        admitted = [member for member in order[:k] if self.breakers[member].allow()]
        if not admitted:
            for member in order[k:]:
                if self.breakers[member].allow():
                    self.counters["reroutes"] += 1
                    return member, home
            return home, None
        if len(admitted) == 1:
            chosen = admitted[0]
        else:
            chosen = min(
                admitted,
                key=lambda member: (
                    self.transport.load(member) + loads.get(member, 0),
                    order.index(member),
                ),
            )
        if chosen == home:
            return home, None
        if home not in admitted:  # quarantined home inside the balanced head
            self.counters["reroutes"] += 1
            return chosen, home
        self.counters["diverted"] += 1
        return chosen, None

    def _settle(self, members: Sequence[int]) -> None:
        """Crash-account members that died while idle, before anything is
        computed for them — so a respawn is re-warmed in the same batch."""
        for member in members:
            if member in self._up and not self.transport.alive(member):
                self.crashed(member)
            self._up.add(member)

    def _serve(
        self,
        responses: List[Optional[Response]],
        groups: List[Tuple[int, Entries]],
        attempts: Optional[Dict[int, int]],
    ) -> List[Tuple[int, Entries, Checkpoints]]:
        """Dispatch ``serve`` work to each member, record the replies, and
        return the ``(member, entries, checkpoints)`` shares that crashed.
        ``attempts`` (redispatches only) sets each response's dispatch count.
        """
        self._settle([member for member, _entries in groups])
        keymap: Dict[int, StoreKey] = {}
        work: List[Tuple[int, Tuple[Any, ...]]] = []
        for member, entries in groups:
            warm, known = self._warm_entries(member, entries, keymap)
            self._delivered.update((member, store_key) for store_key, _payload in warm)
            work.append((member, ("serve", entries, warm, known)))
        crashed: List[Tuple[int, Entries, Checkpoints]] = []
        for (member, entries), outcome in zip(groups, self._exchange(work)):
            if outcome[0] == "crashed":
                self.crashed(member)
                crashed.append((member, entries, outcome[1]))
                continue
            reply = outcome[1]
            if reply[0] == "error":
                self._fail(responses, member, entries, reply[1])
                continue
            _tag, results, publishes = reply
            self._absorb(member, publishes)
            self.breakers[member].record_success()
            for index, response in results:
                if attempts is not None:
                    response.attempts = 1 + attempts.get(index, 0)
                self._account(response, member, keymap.get(index))
                responses[index] = response
        return crashed

    def _exchange(self, work: List[Tuple[int, Tuple[Any, ...]]]) -> List[Tuple[Any, ...]]:
        """:meth:`Transport.exchange`, with each member's traffic counted."""
        for member, job in work:
            self.traffic[member]["inflight"] = len(job[1])
            self.traffic[member]["dispatches"] += 1
        try:
            outcomes = self.transport.exchange(work)
        finally:
            for member, _job in work:
                self.traffic[member]["inflight"] = 0
        for (member, _job), outcome in zip(work, outcomes):
            if outcome[0] == "reply" and outcome[1][0] in ("ok", "resumed"):
                self.traffic[member]["served"] += len(outcome[1][1])
        return outcomes

    # -- crash recovery: migration, then redispatch ----------------------------

    def _recovery_target(self, crashed: int) -> int:
        """The member recovery work lands on, off the crashed one when possible.

        In order: a live, breaker-admitted member; any live member; any
        admitted member (a respawn or redial); else the crashed member's
        ring-order successor — the crashed member itself when it is the only
        one, a fresh process or connection restoring from plain data.
        """
        members = self.ring.nodes()
        others = [member for member in members if member != crashed]
        for member in others:
            if self.transport.alive(member) and self.breakers[member].allow():
                return member
        for member in others:
            if self.transport.alive(member):
                return member
        for member in others:
            if self.breakers[member].allow():
                return member
        return members[(members.index(crashed) + 1) % len(members)]

    def _backoff(self, wave: int) -> None:
        if wave > 1:
            self._sleeper(RETRY_POLICY.delay_seconds(wave - 1, self._retry_rng))

    def _recover(
        self,
        responses: List[Optional[Response]],
        crashed: int,
        entries: Entries,
        checkpoints: Checkpoints,
        attempts: Dict[int, int],
    ) -> None:
        """Spend each crashed request's retry budget: migrate, then redispatch.

        ``checkpoints`` holds the last snapshot streamed per coalesced group
        before the crash; ``attempts`` the recovery attempts consumed per
        batch index, shared across recursive recoveries so a request never
        exceeds its :attr:`~repro.serve.request.Request.retry_budget`
        however many members die under it.

        Phase 1 resumes every checkpointed group with budget left on
        :meth:`_recovery_target` (``migrated_from`` records the crash); a
        target that dies mid-resume is crash-accounted and the groups retry
        while their budgets last.  Phase 2 re-serves everything still
        unresolved (no checkpoint, restore failure, budget spent in phase 1)
        from scratch, one backoff-spaced wave per attempt, accounted like a
        first dispatch; a target that dies too recurses with whatever *it*
        streamed, so partial progress is never thrown away.
        """
        requests: Dict[int, Request] = dict(entries)

        def budget(index: int) -> int:
            return requests[index].retry_budget - attempts.get(index, 0)

        def spend(indices: Sequence[int]) -> None:
            for index in indices:
                attempts[index] = attempts.get(index, 0) + 1

        # -- phase 1: resume streamed checkpoints on a surviving member -------
        eligible = [
            (covered, payload)
            for covered, payload in checkpoints.items()
            if all(index in requests for index in covered) and budget(covered[0]) >= 1
        ]
        while eligible:
            for covered, _payload in eligible:
                spend(covered)
            self.counters["retries"] += len(eligible)
            self._backoff(max(attempts[covered[0]] for covered, _payload in eligible))
            target = self._recovery_target(crashed)
            self._settle([target])
            resume = ("resume", [(list(covered), payload) for covered, payload in eligible])
            (outcome,) = self._exchange([(target, resume)])
            if outcome[0] == "crashed":
                self.crashed(target)
                eligible = [group for group in eligible if budget(group[0][0]) >= 1]
                continue
            reply = outcome[1]
            if reply[0] != "resumed":
                break  # a batch-level resume bug: fall through to redispatch
            self.breakers[target].record_success()
            for covered, response in reply[1]:
                response.migrated_from = crashed
                response.attempts = 1 + attempts.get(covered[0], 0)
                for index in covered:
                    if index == covered[0]:
                        responses[index] = response
                    else:
                        responses[index] = replace(response, request=requests[index])
                self.counters["migrations"] += 1
            break  # groups that failed to restore stay unresolved for phase 2

        # -- phase 2: redispatch everything still unresolved from scratch -----
        pending = [(index, request) for index, request in entries if responses[index] is None]
        while pending:
            retryable = [(index, request) for index, request in pending if budget(index) >= 1]
            if not retryable:
                break
            spend([index for index, _request in retryable])
            self.counters["retries"] += len(retryable)
            self.counters["redispatches"] += len(retryable)
            self._backoff(max(attempts[index] for index, _request in retryable))
            target = self._recovery_target(crashed)
            failed = self._serve(responses, [(target, retryable)], attempts)
            if failed:
                # The redispatch target died too: recurse with whatever it
                # streamed, so its partial progress is not thrown away.
                self._recover(responses, target, retryable, failed[0][2], attempts)
                break
            pending = [(index, request) for index, request in pending if responses[index] is None]

        # -- exhausted budgets end in a structured crash error ----------------
        remaining = [(index, request) for index, request in entries if responses[index] is None]
        if remaining:
            self._fail(responses, crashed, remaining, self.lost)

    # -- the shared store -----------------------------------------------------

    def _warm_entries(
        self, member: int, entries: Entries, keymap: Dict[int, StoreKey]
    ) -> Tuple[List[Tuple[StoreKey, bytes]], List[StoreKey]]:
        """``(warm, known)`` for one member's dispatch, store misses counted.

        ``warm`` carries the payloads the member is missing; artifacts it
        already received (or published) are not re-shipped.  ``known`` lists
        every store-resident key the dispatch touches — payload or not — so
        the member never re-publishes an artifact the store already holds.
        A lookup that finds nothing counts as one miss per unique key per
        dispatch.
        """
        warm: List[Tuple[StoreKey, bytes]] = []
        known: List[StoreKey] = []
        seen: Set[StoreKey] = set()
        for index, request in entries:
            store_key = self.router.pipeline_key(request)
            if store_key is None:
                continue
            keymap[index] = store_key
            if store_key in seen:
                continue
            seen.add(store_key)
            entry = self.store.get(store_key)
            if entry is None:
                if store_key in self.unpicklable:
                    # Known-unshareable: the member recompiles from source and
                    # must not waste a failing export/encode attempt on it.
                    known.append(store_key)
                else:
                    self.counters["misses"] += 1
                continue
            known.append(store_key)
            if (member, store_key) not in self._delivered:
                warm.append((store_key, entry.payload))
        return warm, known

    def _absorb(self, member: int, publishes: Sequence[Tuple[StoreKey, Optional[bytes]]]) -> None:
        for store_key, payload in publishes:
            if payload is not None:
                self.publish(store_key, payload, member)
            elif store_key not in self.unpicklable:
                self.unpicklable.add(store_key)
                self.counters["unpicklable"] += 1

    def publish(self, store_key: StoreKey, payload: bytes, publisher: int) -> bool:
        """Offer an artifact to the store; False if the key is already held
        (first publisher wins).  The publisher compiled it itself, so the
        payload is never shipped back to it."""
        if store_key in self.store:
            return False
        self.store[store_key] = _StoreEntry(payload, publisher)
        self._delivered.add((publisher, store_key))
        self.counters["publishes"] += 1
        return True

    def _account(self, response: Response, member: int, store_key: Optional[StoreKey]) -> None:
        """Store-hit accounting for one reply: a member whose publish the
        store discarded (another published the key first, or the encode
        failed) did not publish; a hit on another member's artifact is a
        cross-worker hit."""
        entry = self.store.get(store_key) if store_key is not None else None
        if response.published:
            response.published = entry is not None and entry.publisher == member
        if response.shared_cache_hit:
            self.counters["hits"] += 1
            if entry is not None and entry.publisher != member:
                self.counters["cross_worker_hits"] += 1

    # -- stats ----------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The operator snapshot both front ends return (docs/operations.md).

        ``members`` maps each member to its circuit breaker, its transport's
        :meth:`Transport.describe` fields and its traffic (``inflight``
        requests right now, ``dispatches`` sent, requests ``served``);
        ``ring`` is the placement ring; ``store`` the shared store's
        ``entries`` and :data:`STORE_COUNTERS`; ``counters`` the
        :data:`FLEET_COUNTERS`; ``admission`` the ``max_batch`` limit and the
        ``shed`` count.  Takes no lock, so it answers while a batch is in
        flight.
        """
        return {
            "members": {
                member: {
                    "breaker": breaker.stats(),
                    **self.transport.describe(member),
                    **self.traffic[member],
                }
                for member, breaker in sorted(dict(self.breakers).items())
            },
            "ring": {"virtual_nodes": self.ring.virtual_nodes, "members": self.ring.nodes()},
            "store": {
                "entries": len(self.store),
                **{key: self.counters[key] for key in STORE_COUNTERS},
            },
            "counters": {key: self.counters[key] for key in FLEET_COUNTERS},
            "admission": self.admission.stats(),
        }

    def cache_stats(self) -> Dict[str, int]:
        """:func:`flat_stats` of :meth:`stats`."""
        return flat_stats(self.stats())


def flat_stats(snapshot: Mapping[str, Any]) -> Dict[str, int]:
    """A :meth:`Dispatcher.stats` snapshot's numbers as one flat dict: the
    ``store`` section, the ``counters`` section and the ``shed`` count — the
    front ends' ``cache_stats()``.

    ``hits`` counts requests whose compile was served by an artifact from
    the shared store (``cross_worker_hits``: published by a *different*
    member than the one serving); ``misses`` counts unique store lookups
    that found nothing, ``publishes`` artifacts accepted into the store,
    ``unpicklable`` publish attempts dropped because the artifact would not
    encode; ``crashes`` member failures (a dead process, a dropped or
    timed-out connection), ``served_locally`` requests a member-less front
    end served on its own scheduler, ``migrations`` coalesced request groups
    resumed elsewhere from a crashed member's streamed checkpoints,
    ``retries`` recovery attempts consumed (``redispatches``: the
    from-scratch subset), ``reroutes`` placements moved off quarantined
    members, ``diverted`` placements moved to a less-loaded ring candidate,
    and ``shed`` requests rejected by admission control.
    """
    return {**snapshot["store"], **snapshot["counters"], "shed": snapshot["admission"]["shed"]}
