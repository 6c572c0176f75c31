"""The network serving tier: framed router, worker endpoints, client.

:class:`~repro.serve.pool.WorkerPool` scales serving across processes on one
host; this module carries the same frames over TCP so it scales across
machines.  Three pieces, one wire format (:mod:`repro.serve.wire`), one I/O
model — blocking sockets, one thread per conversation:

* :class:`NetWorker` — one serving endpoint: a blocking-socket server
  wrapping a per-host :class:`~repro.serve.scheduler.Scheduler`.  After the
  ``HELLO``/``WELCOME`` handshake it runs the member loop every pool worker
  runs (:func:`~repro.serve.dispatch.serve_member`): ``("serve", ...)`` /
  ``("resume", ...)`` work tuples in ``REQUEST`` frames, slice-boundary
  ``CHECKPOINT`` frames streamed while a batch runs, one terminal
  ``RESPONSE``.  Blocking sockets are a deliberate choice here: ``sendall``
  puts every checkpoint frame on the wire *before* the next slice runs, so
  the router holds each in-flight request's last boundary even if this
  worker dies abruptly mid-batch.

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
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.serve.dispatch import Dispatcher, exchange_all, flat_stats, load_report, serve_member
from repro.serve.faults import FaultPlan
from repro.serve.pool import default_scheduler_factory
from repro.serve.reliability import DispatchPolicy
from repro.serve.request import Request, Response, check_request
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
    unexpected_frame,
)

__all__ = ["NetWorker", "NetRouter", "NetClient"]

#: Store publisher id for artifacts pushed by external ``PUBLISH`` frames
#: (no serving endpoint compiled them).
EXTERNAL_PUBLISHER = -1


def _dial(
    host: str, port: int, role: str, timeout: Optional[float], version: int = WIRE_VERSION
) -> Tuple[FrameConnection, Dict[str, Any]]:
    """Connect and negotiate: ``HELLO`` offering ``version``, then the peer's
    ``WELCOME`` body.  ``timeout`` bounds the connect and every read, and
    stays set on the returned connection's socket; a refusal raises
    :class:`~repro.serve.wire.ProtocolError` carrying the peer's reason."""
    sock = socket.create_connection((host, port), timeout=timeout)
    connection = FrameConnection(sock)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        connection.send(HELLO, {"version": version, "role": role})
        welcome = expect_frame(connection.read(), WELCOME)
        if not isinstance(welcome, dict) or welcome.get("version") != version:
            raise ProtocolError(f"{host}:{port} sent a bad WELCOME")
    except BaseException:
        connection.close()
        raise
    return connection, welcome


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
        connection = FrameConnection(sock)
        try:
            if self._stopping.is_set():
                return
            frame_type, body = connection.read()
            rejection = hello_rejection(frame_type, body, self._speaker)
            if rejection is not None:
                connection.send(ERROR, rejection)
                return
            connection.send(WELCOME, {"version": WIRE_VERSION, **self._welcome()})
            self._serve_connection(connection)
        except ConnectionDropped:
            # Peer gone, stop() severed it, or an injected net.drop unwound
            # a batch: either way the conversation is over.
            pass
        except ProtocolError:
            try:
                connection.send(ERROR, {"code": "protocol", "message": "malformed frame"})
            except ConnectionDropped:
                pass
        finally:
            self._conversations.discard(sock)
            connection.close()

    def _welcome(self) -> Dict[str, Any]:
        """The ``WELCOME`` body after its ``version``."""
        raise NotImplementedError

    def _serve_connection(self, connection: FrameConnection) -> None:
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
        fault_plan: Optional[FaultPlan] = None,
    ):
        super().__init__(host, port, f"endpoint {endpoint_id}", threaded=False)
        self.endpoint_id = endpoint_id
        self.slice_steps = slice_steps
        self.fault_plan = fault_plan
        self._factory = scheduler_factory
        self._scheduler: Optional[Scheduler] = None
        #: The heartbeat body, kept current by the member loop across
        #: conversations.
        self._load = load_report(endpoint_id)

    def _accept_loop(self) -> None:
        # Built here, on the serving thread, so start() returns the address
        # without waiting for it: a fleet's endpoints build in parallel.
        self._scheduler = self._factory(self.slice_steps)
        if self.fault_plan is not None:
            self._scheduler.fault_plan = self.fault_plan.bind(self.endpoint_id)
        super()._accept_loop()

    def _welcome(self) -> Dict[str, Any]:
        return {"endpoint": self.endpoint_id, "stats": dict(self._load)}

    def _serve_connection(self, connection: FrameConnection) -> None:
        serve_member(self._scheduler, self.endpoint_id, connection, self._load)


# -- the router ----------------------------------------------------------------


@dataclass
class _Endpoint:
    """Router-side state for one worker endpoint."""

    endpoint_id: int
    host: str
    port: int
    connection: Optional[FrameConnection] = None
    #: The endpoint's own last heartbeat-reported queue depth (work this
    #: router does not know about: other routers, local submissions) —
    #: the load its transport reports to placement.
    queue_depth: int = 0


class NetRouter(_Listener):
    """The serving fleet's front end: framed TCP in, placed dispatches out.

    The router is the framed-TCP transport of a
    :class:`~repro.serve.dispatch.Dispatcher`.  ``run_batch``,
    ``add_worker``, ``remove_worker``, ``poll_workers`` and client
    ``PUBLISH`` frames take one lock and run on the calling thread — a
    client's batch on that client's connection thread — so batches run one
    at a time.  None of them needs :meth:`start`, which only opens the
    client-facing listener; :meth:`stop` also says ``BYE`` to every
    endpoint.  ``dispatch`` is the network-tier
    :class:`~repro.serve.reliability.DispatchPolicy`; the router's own
    scheduler is the stock three-system one.
    """

    def __init__(
        self,
        slice_steps: int = 512,
        host: str = "127.0.0.1",
        port: int = 0,
        dispatch: Optional[DispatchPolicy] = None,
    ):
        super().__init__(host, port, "router", threaded=True)
        self.slice_steps = slice_steps
        self.dispatch = dispatch or DispatchPolicy()
        self._scheduler = default_scheduler_factory(slice_steps)
        self._endpoints: Dict[int, _Endpoint] = {}
        #: Endpoint reads (or WELCOMEs) that outlasted the attempt deadline.
        self._timeouts = 0
        self._lock = threading.Lock()
        self._dispatcher = Dispatcher(
            self,
            self._scheduler,
            slice_steps,
            label="endpoint",
            lost="connection lost while serving the batch",
            placement=self.dispatch,
            fallback=self._scheduler.serve,
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
            # Off the dispatcher first: a lock-free stats() never sees a
            # member without its endpoint.
            self._dispatcher.remove_member(endpoint_id)
            endpoint = self._endpoints.pop(endpoint_id, None)
            if endpoint is not None:
                self._close(endpoint, farewell=True)

    def endpoint_ids(self) -> List[int]:
        return sorted(self._endpoints)

    def _connect(self, endpoint: _Endpoint) -> FrameConnection:
        """The endpoint's live connection, dialing + handshaking if needed."""
        if endpoint.connection is None:
            connection, welcome = _dial(
                endpoint.host, endpoint.port, "router", self.dispatch.attempt_timeout_seconds
            )
            endpoint.endpoint_id = welcome.get("endpoint", endpoint.endpoint_id)
            endpoint.queue_depth = (welcome.get("stats") or {}).get("queue_depth", 0)
            endpoint.connection = connection
        return endpoint.connection

    def _close(self, endpoint: _Endpoint, farewell: bool = False) -> None:
        connection, endpoint.connection = endpoint.connection, None
        if connection is not None:
            connection.close(farewell)

    # -- the framed-TCP transport ----------------------------------------------

    def alive(self, endpoint_id: int) -> bool:
        return self._endpoints[endpoint_id].connection is not None

    def load(self, endpoint_id: int) -> int:
        return self._endpoints[endpoint_id].queue_depth

    def exchange(self, work):
        """:func:`~repro.serve.dispatch.exchange_all` over the endpoints'
        connections, redialing dropped ones; a failed dial is a crash."""
        pairs = []
        for endpoint_id, job in work:
            try:
                connection: Optional[FrameConnection] = self._connect(self._endpoints[endpoint_id])
            except (OSError, WireError) as error:
                connection = None
                if isinstance(error.__cause__, socket.timeout):  # no WELCOME in time
                    self._timeouts += 1
            pairs.append((connection, job))
        return exchange_all(pairs)

    def teardown(self, endpoint_id: int) -> None:
        """Close a dead/abandoned connection — counting a timeout, if a read
        outlasted the deadline; the next exchange redials."""
        endpoint = self._endpoints.get(endpoint_id)
        if endpoint is not None and endpoint.connection is not None:
            if endpoint.connection.timed_out:
                self._timeouts += 1
            self._close(endpoint)

    def describe(self, endpoint_id: int) -> Dict[str, Any]:
        endpoint = self._endpoints.get(endpoint_id)
        if endpoint is None:  # left while a lock-free stats() was reading
            return {"address": None, "connected": False, "queue_depth": 0}
        return {
            "address": f"{endpoint.host}:{endpoint.port}",
            "connected": endpoint.connection is not None,
            "queue_depth": endpoint.queue_depth,
        }

    # -- placement and dispatch --------------------------------------------------

    def endpoint_for(self, request: Request) -> int:
        """Pure ring placement preview (no load, no quarantine, no dispatch).
        Raises :func:`~repro.serve.request.check_request`'s ``RequestError``."""
        return self._dispatcher.ring.node_for(self._scheduler.placement_key(check_request(request)))

    def run_batch(self, requests: Sequence[Request]) -> List[Response]:
        """Serve a batch through the fleet; responses in request order."""
        with self._lock:
            return self._dispatcher.run_batch(requests)

    def run_sequential(self, requests: Sequence[Request]) -> List[Response]:
        """The differential baseline: the router's own scheduler, no network."""
        return self._scheduler.serve_sequential(requests)

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
                    connection.send(HEARTBEAT, {"role": "router"})
                    body = expect_frame(connection.read(), HEARTBEAT)
                except WireError:
                    body = None
                alive[endpoint_id] = isinstance(body, dict)
                if alive[endpoint_id]:
                    endpoint.queue_depth = body.get("queue_depth", 0)
                else:
                    self._dispatcher.crashed(endpoint_id)
            return alive

    # -- stats / the client-facing server --------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The operator snapshot (:meth:`~repro.serve.dispatch.Dispatcher.stats`),
        plus the router's ``timeouts`` counter: endpoint reads or WELCOMEs
        that outlasted ``attempt_timeout_seconds``.  Takes no lock, so it
        answers while a batch is in flight."""
        snapshot = self._dispatcher.stats()
        snapshot["counters"]["timeouts"] = self._timeouts
        return snapshot

    def cache_stats(self) -> Dict[str, int]:
        """:meth:`stats`' numbers, flat (:func:`~repro.serve.dispatch.flat_stats`)."""
        return flat_stats(self.stats())

    def _welcome(self) -> Dict[str, Any]:
        return {"endpoint": "router", "stats": {}}

    def _serve_connection(self, connection: FrameConnection) -> None:
        while True:
            frame_type, body = connection.read()
            if frame_type == BYE:
                return
            malformed = _malformed(frame_type, body)
            if malformed is not None:
                connection.send(ERROR, {"code": "protocol", "message": malformed})
                return
            if frame_type == REQUEST:
                connection.send(RESPONSE, self.run_batch(body))
            elif frame_type == STATS:
                connection.send(STATS, self.stats())
            elif frame_type == HEARTBEAT:
                connection.send(HEARTBEAT, {"role": "router", "endpoints": len(self._endpoints)})
            elif frame_type == FETCH:
                entry = self._dispatcher.store.get(body)
                connection.send(PUBLISH, (body, entry.payload if entry is not None else None))
            elif frame_type == PUBLISH:
                store_key, payload = body
                with self._lock:  # a batch may be absorbing publishes
                    stored = self._dispatcher.publish(store_key, payload, EXTERNAL_PUBLISHER)
                connection.send(PUBLISH, (store_key, stored))
            else:
                connection.send(ERROR, unexpected_frame(frame_type))
                return


def _malformed(frame_type: int, body: Any) -> Optional[str]:
    """Why a client frame's body cannot be served, or ``None`` if it can."""
    if frame_type == REQUEST:
        if isinstance(body, list) and all(isinstance(request, Request) for request in body):
            return None  # each request's fields are check_request's, in run_batch
        return "REQUEST body must be a list of Request"
    if frame_type == FETCH:
        return None if _hashable(body) else "FETCH body must be a hashable store key"
    if frame_type == PUBLISH:
        if (
            isinstance(body, tuple)
            and len(body) == 2
            and _hashable(body[0])
            and isinstance(body[1], bytes)
        ):
            return None
        return "PUBLISH body must be a (store key, bytes) pair"
    return None


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


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
        self._connection, _welcome = _dial(host, port, "client", connect_timeout, version)
        # Batches may legitimately run long; only the handshake is timed.
        self._connection.sock.settimeout(None)

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        self._connection.close(farewell=True)

    def _roundtrip(self, frame_type: int, body: Any, expected: int) -> Any:
        self._connection.send(frame_type, body)
        return expect_frame(self._connection.read(), expected)

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
