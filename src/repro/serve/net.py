"""The network serving tier: framed router, worker endpoints, client.

:class:`~repro.serve.pool.WorkerPool` scales serving across processes on one
host; this module lifts the same protocol onto TCP so it scales across
machines.  Three pieces, one wire format (:mod:`repro.serve.wire`), one I/O
model — blocking sockets, one thread per conversation:

* :class:`NetWorker` — one serving endpoint: a blocking-socket server
  wrapping a per-host :class:`~repro.serve.scheduler.Scheduler`.  It speaks
  the exact worker protocol the pool's pipe workers speak — ``("serve",
  ...)`` / ``("resume", ...)`` work tuples in ``REQUEST`` frames,
  slice-boundary ``CHECKPOINT`` frames streamed while a batch runs, one
  terminal ``RESPONSE`` — by running the shared worker-side handler
  (:func:`~repro.serve.dispatch.handle_work`) over a
  :class:`~repro.serve.wire.FrameConnection`.  Blocking sockets are a
  deliberate choice here: ``sendall`` puts every checkpoint frame on the
  wire *before* the next slice runs, so the router holds each in-flight
  request's last boundary even if this worker dies abruptly mid-batch.

* :class:`NetRouter` — the framed-TCP transport of the
  :class:`~repro.serve.dispatch.Dispatcher` the pool also runs, so
  placement, the artifact store, recovery off dropped connections and the
  send-all-then-drain exchange are the pool's, and batches run on the
  calling thread under one lock.  The router adds what only the network
  has: workers join and leave at runtime (``add_worker`` /
  ``remove_worker``, moving only the ring arcs they own), per-attempt
  deadlines (``attempt_timeout_seconds`` turns a slow link into a
  structured drop), heartbeat-reported queue depths, and
  ``FETCH``/``PUBLISH`` store access for clients.  With no endpoints
  registered the router serves batches locally on its own scheduler — a
  router is never less capable than the single-process tier it fronts.

* :class:`NetClient` — a small blocking client: ``HELLO``/``WELCOME``
  version negotiation, ``run_batch`` over one ``REQUEST``/``RESPONSE``
  exchange, artifact-store access, stats.

Determinism: placement is pure sha256 ring math; load-aware choice uses
only load built while the batch is being placed (and idle-time heartbeat
reports), so the same batch against the same fleet places the same way
every run — which is what lets the network tests require net results ==
the sequential baseline, including recovery under injected ``net.drop`` /
``net.slow`` faults (:mod:`repro.serve.faults`).
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.serve.dispatch import (
    POLICY_COUNTERS,
    STORE_COUNTERS,
    Dispatcher,
    exchange_all,
    handle_work,
)
from repro.serve.faults import FaultPlan
from repro.serve.pool import default_scheduler_factory
from repro.serve.reliability import AdmissionController, BreakerPolicy, DispatchPolicy, RetryPolicy
from repro.serve.request import Request, Response
from repro.serve.ring import DEFAULT_VIRTUAL_NODES
from repro.serve.scheduler import Scheduler, StoreKey
from repro.serve.wire import (
    BYE,
    ERROR,
    FETCH,
    HEARTBEAT,
    HELLO,
    PUBLISH,
    REQUEST,
    RESPONSE,
    STATS,
    WELCOME,
    WIRE_VERSION,
    ConnectionDropped,
    FrameConnection,
    ProtocolError,
    WireError,
    expect_frame,
    hello_rejection,
    recv_frame,
    send_frame,
    unexpected_frame,
)

__all__ = ["NetWorker", "NetRouter", "NetClient"]

#: Store publisher id for artifacts pushed by external ``PUBLISH`` frames
#: (no serving endpoint compiled them).
EXTERNAL_PUBLISHER = -1


def _dial(
    host: str, port: int, role: str, timeout: Optional[float], version: int = WIRE_VERSION
) -> Tuple[socket.socket, Dict[str, Any]]:
    """Connect and negotiate: ``HELLO`` offering ``version``, then the peer's
    ``WELCOME`` body.  ``timeout`` bounds the connect and every read, and
    stays set on the returned socket; a refusal raises
    :class:`~repro.serve.wire.ProtocolError` carrying the peer's reason."""
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send_frame(sock, HELLO, {"version": version, "role": role})
        welcome = expect_frame(recv_frame(sock), WELCOME)
        if not isinstance(welcome, dict) or welcome.get("version") != version:
            raise ProtocolError(f"{host}:{port} sent a bad WELCOME")
    except BaseException:
        sock.close()
        raise
    return sock, welcome


class _Listener:
    """A framed-TCP server's lifecycle: bind, accept loop, stop.

    Every accepted connection is one conversation: the peer's ``HELLO`` is
    checked against :data:`~repro.serve.wire.WIRE_VERSION` (a refusal is
    an ``ERROR`` frame naming ``speaker``), answered with :meth:`_welcome`,
    and the rest is :meth:`_serve_connection`'s.  Conversations run on the
    accept thread one at a time, or each on its own thread when
    ``threaded``.  :meth:`stop` closes the listener and shuts every live
    conversation down — ``shutdown()`` wakes a ``recv`` blocked on it with
    EOF, where ``close()`` alone would leave its thread hung.
    """

    def __init__(self, host: str, port: int, speaker: str, threaded: bool):
        self._host = host
        self._port = port
        self._speaker = speaker
        self._threaded = threaded
        self._listener: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._conversations: Set[socket.socket] = set()

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` once listening (port 0 resolves at bind time)."""
        return (self._host, self._port)

    def _listen(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            listener.listen(8)
        except OSError:
            listener.close()
            raise
        # A short accept timeout keeps the loop responsive to stop() without
        # burning CPU; it never affects an accepted conversation.
        listener.settimeout(0.2)
        self._host, self._port = listener.getsockname()
        self._listener = listener
        self._stopping.clear()

    def start(self) -> Tuple[str, int]:
        """Serve on a daemon thread; returns the bound ``(host, port)``."""
        if self._thread is not None:
            raise RuntimeError(f"{type(self).__name__} is already running")
        self._listen()
        self._thread = threading.Thread(target=self._accept_loop, name=self._speaker, daemon=True)
        self._thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Bind and serve on the calling thread (a server process's main)."""
        self._listen()
        self._accept_loop()

    def stop(self) -> None:
        """Stop accepting, sever every live conversation, join; idempotent."""
        self._stopping.set()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for sock in self._conversations.copy():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def __enter__(self):
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopping.is_set():
            try:
                sock, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:  # listener closed by stop()
                break
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._threaded:
                threading.Thread(target=self._converse, args=(sock,), daemon=True).start()
            else:
                self._converse(sock)

    def _converse(self, sock: socket.socket) -> None:
        # Registered before the stop check: stop() sets the flag before it
        # severs, so a conversation is either severed or never served.
        self._conversations.add(sock)
        try:
            if self._stopping.is_set():
                return
            frame_type, body = recv_frame(sock)
            rejection = hello_rejection(frame_type, body, self._speaker)
            if rejection is not None:
                send_frame(sock, ERROR, rejection)
                return
            send_frame(sock, WELCOME, {"version": WIRE_VERSION, **self._welcome()})
            self._serve_connection(sock)
        except ConnectionDropped:
            # Peer gone, stop() severed it, or an injected net.drop unwound
            # a batch: either way the conversation is over.
            pass
        except ProtocolError:
            try:
                send_frame(sock, ERROR, {"code": "protocol", "message": "malformed frame"})
            except ConnectionDropped:
                pass
        finally:
            self._conversations.discard(sock)
            sock.close()

    def _welcome(self) -> Dict[str, Any]:
        """The ``WELCOME`` body after its ``version``."""
        raise NotImplementedError

    def _serve_connection(self, sock: socket.socket) -> None:
        """Serve a welcomed peer's frames until ``BYE`` or a rejection."""
        raise NotImplementedError


# -- the worker endpoint -------------------------------------------------------


class NetWorker(_Listener):
    """One network serving endpoint: a scheduler behind a framed TCP server.

    ``endpoint_id`` is this worker's identity on the router's ring (and the
    ``Response.shard`` value its responses carry); the worker reports it in
    ``WELCOME`` so a router learns ids from the workers themselves.  A
    ``fault_plan`` is bound to the endpoint id exactly as pool workers bind
    theirs to a shard index, so endpoint-targeted chaos faults (including
    the ``net.*`` sites) fire only here.

    One connection is served at a time — the router keeps one persistent
    connection per endpoint, and a reconnect after a drop simply queues in
    the listen backlog until the current (dead) conversation unwinds.  Use
    :meth:`start` for an in-process background thread (tests, benches) or
    :meth:`serve_forever` as a worker process's main loop; ``stop`` /
    context-manager exit shut the listener down.
    """

    def __init__(
        self,
        endpoint_id: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        slice_steps: int = 512,
        scheduler_factory: Callable[[int], Scheduler] = default_scheduler_factory,
        checkpoint_every_default: Optional[int] = 1,
        fault_plan: Optional[FaultPlan] = None,
    ):
        super().__init__(host, port, f"endpoint {endpoint_id}", threaded=False)
        self.endpoint_id = endpoint_id
        self.slice_steps = slice_steps
        self.fault_plan = fault_plan
        self.checkpoint_every_default = checkpoint_every_default
        self._factory = scheduler_factory
        self._scheduler: Optional[Scheduler] = None
        self._served = 0
        self._inflight = 0

    def _accept_loop(self) -> None:
        # Built here, on the serving thread, so start() returns the address
        # without waiting for it: a fleet's endpoints build in parallel.
        self._scheduler = self._factory(self.slice_steps)
        if self.fault_plan is not None:
            self._scheduler.fault_plan = self.fault_plan.bind(self.endpoint_id)
        super()._accept_loop()

    def _load_stats(self) -> Dict[str, Any]:
        """The heartbeat body: who this is and how loaded it is."""
        return {
            "endpoint": self.endpoint_id,
            "inflight": self._inflight,
            "queue_depth": self._inflight,
            "served": self._served,
        }

    def _welcome(self) -> Dict[str, Any]:
        return {"endpoint": self.endpoint_id, "stats": self._load_stats()}

    def _serve_connection(self, sock: socket.socket) -> None:
        connection = FrameConnection(sock)
        while True:
            frame_type, body = recv_frame(sock)
            if frame_type == BYE:
                return
            if frame_type in (HEARTBEAT, STATS):
                send_frame(sock, frame_type, self._load_stats())
                continue
            if frame_type != REQUEST:
                send_frame(sock, ERROR, unexpected_frame(frame_type))
                return
            self._handle_work(body, connection)

    def _handle_work(self, message: tuple, connection: FrameConnection) -> None:
        scheduler = self._scheduler
        self._inflight = len(message[1]) if message[0] in ("serve", "resume") else 0
        try:
            # An injected net.drop / a vanished router abandons the connection.
            reply = handle_work(
                scheduler, self.endpoint_id, message, connection, abandon_on_drop=True
            )
        finally:
            self._inflight = 0
        plan = scheduler.fault_plan
        if plan is not None:
            slow = plan.fire("net.slow")
            if slow is not None:
                # The slow link: the batch is done but its terminal RESPONSE
                # dawdles — exactly what attempt_timeout_seconds exists for.
                time.sleep(slow.delay_seconds)
        connection.send(reply)
        if reply[0] in ("ok", "resumed"):
            self._served += len(reply[1])


# -- the router ----------------------------------------------------------------


@dataclass
class _Endpoint:
    """Router-side state for one worker endpoint."""

    endpoint_id: int
    host: str
    port: int
    connection: Optional[FrameConnection] = None
    #: Requests this router has in flight on the endpoint right now.
    inflight: int = 0
    #: The endpoint's own last heartbeat-reported queue depth (work this
    #: router does not know about: other routers, local submissions) —
    #: the load its transport reports to placement.
    queue_depth: int = 0
    served: int = 0
    dispatches: int = 0


class NetRouter(_Listener):
    """The serving fleet's front end: framed TCP in, placed dispatches out.

    The router is the framed-TCP transport of a
    :class:`~repro.serve.dispatch.Dispatcher`.  ``run_batch``,
    ``add_worker``, ``remove_worker``, ``poll_workers`` and client
    ``PUBLISH`` frames take one lock and run on the calling thread — a
    client's batch on that client's connection thread — so batches run one
    at a time.  None of them needs :meth:`start`, which only opens the
    client-facing listener; :meth:`stop` also says ``BYE`` to every
    endpoint.  Constructor knobs match the pool's where the concept carries
    over and add the network-tier
    :class:`~repro.serve.reliability.DispatchPolicy`.
    """

    def __init__(
        self,
        slice_steps: int = 512,
        scheduler_factory: Callable[[int], Scheduler] = default_scheduler_factory,
        host: str = "127.0.0.1",
        port: int = 0,
        batched: bool = True,
        checkpoint_every: Optional[int] = 1,
        dispatch: Optional[DispatchPolicy] = None,
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
        retry_policy: Optional[RetryPolicy] = None,
        retry_seed: int = 0,
        breaker_policy: Optional[BreakerPolicy] = None,
        max_batch: Optional[int] = None,
        max_inflight_per_endpoint: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        super().__init__(host, port, "router", threaded=True)
        self.slice_steps = slice_steps
        self.dispatch = dispatch or DispatchPolicy()
        self._scheduler = scheduler_factory(slice_steps)
        self._endpoints: Dict[int, _Endpoint] = {}
        self._counters = {"drops": 0, "timeouts": 0, "served_locally": 0}
        self._lock = threading.Lock()
        self._dispatcher = Dispatcher(
            self,
            self._scheduler,
            slice_steps,
            label="endpoint",
            lost="connection lost while serving the batch",
            batched=batched,
            checkpoint_every=checkpoint_every,
            placement=self.dispatch,
            virtual_nodes=virtual_nodes,
            retry_policy=retry_policy,
            retry_seed=retry_seed,
            breaker_policy=breaker_policy,
            admission=AdmissionController(max_batch, max_inflight_per_endpoint),
            clock=clock,
            fallback=self._serve_local,
        )

    def stop(self) -> None:
        """Shut the router down: the listener, client conversations, and
        every endpoint connection (``BYE``, then close); idempotent."""
        super().stop()
        with self._lock:
            for endpoint in self._endpoints.values():
                self._close(endpoint, farewell=True)

    # -- membership -------------------------------------------------------------

    def add_worker(self, address: Tuple[str, int]) -> int:
        """Register a worker endpoint; returns the id it reported in WELCOME.

        Only the ring arcs the new endpoint's virtual nodes own move to it —
        every other program keeps its warm home (the tested remap bound).
        """
        host, port = address
        with self._lock:
            for endpoint in self._endpoints.values():
                if (endpoint.host, endpoint.port) == (host, port):
                    # Checked before dialing: a registered worker's only
                    # conversation slot is busy serving us, so a duplicate dial
                    # would wait forever for its WELCOME.
                    raise ValueError(
                        f"endpoint {endpoint.endpoint_id} already serves {host}:{port}"
                    )
            probe = _Endpoint(-1, host, port)
            self._connect(probe)
            endpoint_id = probe.endpoint_id
            if endpoint_id in self._endpoints:
                self._close(probe, farewell=True)
                raise ValueError(f"endpoint {endpoint_id} is already registered")
            self._endpoints[endpoint_id] = probe
            self._dispatcher.add_member(endpoint_id)
            return endpoint_id

    def remove_worker(self, endpoint_id: int) -> None:
        """Deregister an endpoint; its ring arcs fall to their next owners."""
        with self._lock:
            endpoint = self._endpoints.pop(endpoint_id, None)
            self._dispatcher.remove_member(endpoint_id)
            if endpoint is not None:
                self._close(endpoint, farewell=True)

    def endpoint_ids(self) -> List[int]:
        return sorted(self._endpoints)

    def _connect(self, endpoint: _Endpoint) -> FrameConnection:
        """The endpoint's live connection, dialing + handshaking if needed."""
        if endpoint.connection is None:
            sock, welcome = _dial(
                endpoint.host, endpoint.port, "router", self.dispatch.attempt_timeout_seconds
            )
            endpoint.endpoint_id = welcome.get("endpoint", endpoint.endpoint_id)
            endpoint.queue_depth = (welcome.get("stats") or {}).get("queue_depth", 0)
            endpoint.connection = FrameConnection(sock)
        return endpoint.connection

    def _close(self, endpoint: _Endpoint, farewell: bool = False) -> None:
        connection, endpoint.connection = endpoint.connection, None
        if connection is None:
            return
        if farewell:
            try:
                send_frame(connection.sock, BYE, None)
            except ConnectionDropped:
                pass
        connection.sock.close()

    # -- the framed-TCP transport ----------------------------------------------

    def alive(self, endpoint_id: int) -> bool:
        return self._endpoints[endpoint_id].connection is not None

    def load(self, endpoint_id: int) -> int:
        return self._endpoints[endpoint_id].queue_depth

    def exchange(self, work):
        """:func:`~repro.serve.dispatch.exchange_all` over the endpoints'
        connections, redialing dropped ones; a failed dial is a crash."""
        endpoints = [self._endpoints[endpoint_id] for endpoint_id, _job in work]
        pairs = []
        for endpoint, (_endpoint_id, job) in zip(endpoints, work):
            endpoint.inflight = len(job[1])
            try:
                connection: Optional[FrameConnection] = self._connect(endpoint)
                endpoint.dispatches += 1
            except (OSError, WireError) as error:
                connection = None
                if isinstance(error.__cause__, socket.timeout):  # no WELCOME in time
                    self._counters["timeouts"] += 1
            pairs.append((connection, job))
        try:
            outcomes = exchange_all(pairs)
        finally:
            for endpoint in endpoints:
                endpoint.inflight = 0
        for endpoint, outcome in zip(endpoints, outcomes):
            if outcome[0] == "reply" and outcome[1][0] in ("ok", "resumed"):
                endpoint.served += len(outcome[1][1])
        return outcomes

    def teardown(self, endpoint_id: int) -> None:
        """Count one dead/abandoned connection — and a timeout, if a read
        outlasted the deadline — and close it; the next exchange redials."""
        self._counters["drops"] += 1
        endpoint = self._endpoints.get(endpoint_id)
        if endpoint is not None and endpoint.connection is not None:
            if endpoint.connection.timed_out:
                self._counters["timeouts"] += 1
            self._close(endpoint)

    # -- placement and dispatch --------------------------------------------------

    def endpoint_for(self, request: Request) -> int:
        """Pure ring placement preview (no load, no quarantine, no dispatch)."""
        return self._dispatcher.ring.node_for(self._scheduler.placement_key(request))

    def run_batch(self, requests: Sequence[Request]) -> List[Response]:
        """Serve a batch through the fleet; responses in request order."""
        with self._lock:
            return self._dispatcher.run_batch(requests)

    def run_sequential(self, requests: Sequence[Request]) -> List[Response]:
        """The differential baseline: the router's own scheduler, no network."""
        return self._scheduler.serve_sequential(requests)

    def _serve_local(self, requests: List[Request]) -> List[Response]:
        """No endpoints registered: the router's scheduler serves directly."""
        self._counters["served_locally"] += len(requests)
        return self._scheduler.serve(requests)

    # -- heartbeats ------------------------------------------------------------

    def poll_workers(self) -> Dict[int, bool]:
        """One synchronous heartbeat sweep: ``{endpoint_id: alive}``.

        Pings every *connected* endpoint between batches, refreshes its load
        report, and counts a dead connection as a breaker failure — the
        deterministic health probe operators and tests call directly.
        """
        with self._lock:
            alive: Dict[int, bool] = {}
            for endpoint_id in sorted(self._endpoints):
                endpoint = self._endpoints[endpoint_id]
                connection = endpoint.connection
                if connection is None:
                    continue  # not connected: nothing to probe
                try:
                    send_frame(connection.sock, HEARTBEAT, {"role": "router"})
                    body = expect_frame(connection.read(), HEARTBEAT)
                except WireError:
                    body = None
                alive[endpoint_id] = isinstance(body, dict)
                if alive[endpoint_id]:
                    endpoint.queue_depth = body.get("queue_depth", 0)
                    endpoint.served = body.get("served", endpoint.served)
                else:
                    self._dispatcher.crashed(endpoint_id)
            return alive

    # -- stats / the client-facing server --------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The full operator snapshot (documented in docs/operations.md).

        Takes no lock, so it answers while a batch is in flight."""
        dispatcher = self._dispatcher
        counters = dispatcher.cache_stats()
        breakers = dict(dispatcher.breakers)
        return {
            "endpoints": {
                endpoint_id: {
                    "address": f"{endpoint.host}:{endpoint.port}",
                    "connected": endpoint.connection is not None,
                    "breaker": breakers[endpoint_id].stats(),
                    "inflight": endpoint.inflight,
                    "queue_depth": endpoint.queue_depth,
                    "served": endpoint.served,
                    "dispatches": endpoint.dispatches,
                }
                for endpoint_id, endpoint in sorted(self._endpoints.items())
                if endpoint_id in breakers  # not a join or leave caught halfway
            },
            "ring": {
                "virtual_nodes": dispatcher.ring.virtual_nodes,
                "members": dispatcher.ring.nodes(),
            },
            "placement": {
                "top_k": self.dispatch.top_k,
                "balance_load": self.dispatch.balance_load,
                "attempt_timeout_seconds": self.dispatch.attempt_timeout_seconds,
            },
            "store": {key: counters[key] for key in ("entries",) + STORE_COUNTERS},
            "counters": {**self._counters, **{key: counters[key] for key in POLICY_COUNTERS}},
            "admission": dispatcher.admission.stats(),
        }

    def cache_stats(self) -> Dict[str, int]:
        """Shared-store counters, pool-compatible field names."""
        snapshot = self.stats()
        return {**snapshot["store"], "shed": snapshot["admission"]["shed"]}

    def health_stats(self) -> Dict[str, Any]:
        """Breakers, admission, and reliability counters, pool-shaped."""
        snapshot = self.stats()
        return {
            "endpoints": {
                eid: info["breaker"] for eid, info in snapshot["endpoints"].items()
            },
            "admission": snapshot["admission"],
            **snapshot["counters"],
        }

    def _welcome(self) -> Dict[str, Any]:
        return {"endpoint": "router", "stats": {}}

    def _serve_connection(self, sock: socket.socket) -> None:
        while True:
            frame_type, body = recv_frame(sock)
            if frame_type == BYE:
                return
            if frame_type == REQUEST:
                send_frame(sock, RESPONSE, self.run_batch(list(body)))
            elif frame_type == STATS:
                send_frame(sock, STATS, self.stats())
            elif frame_type == HEARTBEAT:
                send_frame(sock, HEARTBEAT, {"role": "router", "endpoints": len(self._endpoints)})
            elif frame_type == FETCH:
                entry = self._dispatcher.store.get(body)
                send_frame(sock, PUBLISH, (body, entry.payload if entry is not None else None))
            elif frame_type == PUBLISH:
                store_key, payload = body
                with self._lock:  # a batch may be absorbing publishes
                    stored = payload is not None and self._dispatcher.publish(
                        store_key, payload, EXTERNAL_PUBLISHER
                    )
                send_frame(sock, PUBLISH, (store_key, stored))
            else:
                send_frame(sock, ERROR, unexpected_frame(frame_type))
                return


# -- the client ----------------------------------------------------------------


class NetClient:
    """A blocking client for a :class:`NetRouter`.

    Performs ``HELLO``/``WELCOME`` version negotiation on connect (a
    mismatch raises :class:`~repro.serve.wire.ProtocolError` carrying the
    router's structured reason), then exposes the four client verbs:
    :meth:`run_batch`, :meth:`fetch` / :meth:`publish` (the artifact store
    as a network service), and :meth:`stats`.  Use as a context manager.
    """

    def __init__(
        self,
        host: str,
        port: int,
        version: int = WIRE_VERSION,
        connect_timeout: float = 10.0,
    ):
        self._sock, _welcome = _dial(host, port, "client", connect_timeout, version)
        # Batches may legitimately run long; only the handshake is timed.
        self._sock.settimeout(None)

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        try:
            send_frame(self._sock, BYE, None)
        except ConnectionDropped:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def _roundtrip(self, frame_type: int, body: Any, expected: int) -> Any:
        send_frame(self._sock, frame_type, body)
        return expect_frame(recv_frame(self._sock), expected)

    def run_batch(self, requests: Sequence[Request]) -> List[Response]:
        """Serve a batch through the router; responses in request order."""
        return self._roundtrip(REQUEST, list(requests), RESPONSE)

    def fetch(self, store_key: StoreKey) -> Optional[bytes]:
        """The pickled artifact under ``store_key``, or ``None``."""
        _key, payload = self._roundtrip(FETCH, store_key, PUBLISH)
        return payload

    def publish(self, store_key: StoreKey, payload: bytes) -> bool:
        """Offer an artifact to the router's store; True if it was accepted
        (False: the store already holds the key — first publisher wins)."""
        _key, stored = self._roundtrip(PUBLISH, (store_key, payload), PUBLISH)
        return stored

    def stats(self) -> Dict[str, Any]:
        """The router's full stats snapshot."""
        return self._roundtrip(STATS, None, STATS)

    def heartbeat(self) -> Dict[str, Any]:
        """Liveness ping; the router's heartbeat body."""
        return self._roundtrip(HEARTBEAT, {"role": "client"}, HEARTBEAT)
