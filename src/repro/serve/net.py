"""The network serving tier: framed router, worker endpoints, client.

:class:`~repro.serve.pool.WorkerPool` scales serving across processes on one
host; this module lifts the same protocol onto TCP so it scales across
machines.  Three pieces, one wire format (:mod:`repro.serve.wire`):

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

* :class:`NetRouter` — the asyncio-streams front end: the framed-TCP
  transport of the :class:`~repro.serve.dispatch.Dispatcher` the pool also
  runs, so placement, the artifact store, and recovery off dropped
  connections are the pool's.  The router adds what only the network has:
  workers join and leave at runtime (``add_worker`` / ``remove_worker``,
  moving only the ring arcs they own), per-attempt frame deadlines
  (``attempt_timeout_seconds`` turns a slow link into a structured drop),
  heartbeat-reported queue depths, and ``FETCH``/``PUBLISH`` store access
  for clients.  With no endpoints registered the router serves batches
  locally on its own scheduler — a router is never less capable than the
  single-process tier it fronts.

* :class:`NetClient` — a small blocking client: ``HELLO``/``WELCOME``
  version negotiation, ``run_batch`` over one ``REQUEST``/``RESPONSE``
  exchange, artifact-store access, stats.

Determinism: placement is pure sha256 ring math; load-aware choice uses
only load built while the batch is being placed (and idle-time heartbeat
reports), so the same batch against the same fleet places the same way
every run — which is what lets ``bench_serving.py --check --net`` gate net
results == the sequential baseline, and ``--net --chaos`` gate recovery
under injected ``net.drop`` / ``net.slow`` faults (:mod:`repro.serve.faults`).
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.serve.dispatch import POLICY_COUNTERS, STORE_COUNTERS, Dispatcher, handle_work
from repro.serve.faults import FaultPlan
from repro.serve.pool import default_scheduler_factory
from repro.serve.reliability import AdmissionController, BreakerPolicy, DispatchPolicy, RetryPolicy
from repro.serve.request import Request, Response
from repro.serve.ring import DEFAULT_VIRTUAL_NODES
from repro.serve.scheduler import Scheduler, StoreKey
from repro.serve.wire import (
    BYE,
    CHECKPOINT,
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
    expect_frame,
    hello_rejection,
    read_frame,
    recv_frame,
    send_frame,
    unexpected_frame,
    write_frame,
)

__all__ = ["NetWorker", "NetRouter", "NetClient"]

#: Store publisher id for artifacts pushed by external ``PUBLISH`` frames
#: (no serving endpoint compiled them).
EXTERNAL_PUBLISHER = -1


# -- the worker endpoint -------------------------------------------------------


class NetWorker:
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
        self.endpoint_id = endpoint_id
        self.slice_steps = slice_steps
        self.fault_plan = fault_plan
        self.checkpoint_every_default = checkpoint_every_default
        self._factory = scheduler_factory
        self._host = host
        self._port = port
        self._listener: Optional[socket.socket] = None
        self._active: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._served = 0
        self._inflight = 0

    # -- lifecycle ------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` once listening (port 0 resolves at bind time)."""
        return (self._host, self._port)

    def _listen(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(8)
        # A short accept timeout keeps the loop responsive to stop() without
        # burning CPU; it never affects an accepted conversation.
        listener.settimeout(0.2)
        self._host, self._port = listener.getsockname()
        self._listener = listener

    def start(self) -> Tuple[str, int]:
        """Serve on a daemon thread; returns the bound ``(host, port)``."""
        if self._thread is not None:
            raise RuntimeError("NetWorker is already running")
        self._listen()
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"net-worker-{self.endpoint_id}", daemon=True
        )
        self._thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Bind and serve on the calling thread (a worker process's main)."""
        self._listen()
        self._accept_loop()

    def stop(self) -> None:
        """Stop accepting, sever any live conversation, join; idempotent."""
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        active = self._active
        if active is not None:
            # shutdown() wakes a recv blocked on this conversation with EOF;
            # close() alone would leave the serving thread hung.
            try:
                active.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def __enter__(self) -> "NetWorker":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    # -- serving --------------------------------------------------------------

    def _accept_loop(self) -> None:
        scheduler = self._factory(self.slice_steps)
        if self.fault_plan is not None:
            scheduler.fault_plan = self.fault_plan.bind(self.endpoint_id)
        while not self._stopping.is_set():
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:  # listener closed by stop()
                break
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._active = sock
            try:
                self._serve_connection(sock, scheduler)
            finally:
                self._active = None
                try:
                    sock.close()
                except OSError:
                    pass

    def _load_stats(self) -> Dict[str, Any]:
        """The heartbeat body: who this is and how loaded it is."""
        return {
            "endpoint": self.endpoint_id,
            "inflight": self._inflight,
            "queue_depth": self._inflight,
            "served": self._served,
        }

    def _serve_connection(self, sock: socket.socket, scheduler: Scheduler) -> None:
        try:
            frame_type, body = recv_frame(sock)
            rejection = hello_rejection(frame_type, body, f"endpoint {self.endpoint_id}")
            if rejection is not None:
                send_frame(sock, ERROR, rejection)
                return
            send_frame(
                sock,
                WELCOME,
                {
                    "version": WIRE_VERSION,
                    "endpoint": self.endpoint_id,
                    "stats": self._load_stats(),
                },
            )
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
                self._handle_work(body, scheduler, connection)
        except ConnectionDropped:
            # Peer gone — or an injected net.drop unwound the batch.  Either
            # way the conversation is over; the accept loop takes the next.
            return
        except ProtocolError:
            try:
                send_frame(sock, ERROR, {"code": "protocol", "message": "malformed frame"})
            except ConnectionDropped:
                pass
            return

    def _handle_work(self, message: tuple, scheduler: Scheduler, connection: FrameConnection) -> None:
        self._inflight = len(message[1]) if message[0] in ("serve", "resume") else 0
        try:
            # An injected net.drop / a vanished router abandons the connection.
            reply = handle_work(
                scheduler, self.endpoint_id, message, connection, abandon_on_drop=True
            )
        finally:
            self._inflight = 0
        plan = getattr(scheduler, "fault_plan", None)
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


class _Endpoint:
    """Router-side state for one worker endpoint."""

    __slots__ = (
        "endpoint_id",
        "host",
        "port",
        "reader",
        "writer",
        "inflight",
        "queue_depth",
        "served",
        "dispatches",
    )

    def __init__(self, endpoint_id: int, host: str, port: int):
        self.endpoint_id = endpoint_id
        self.host = host
        self.port = port
        self.reader = None
        self.writer = None
        #: Requests this router has in flight on the endpoint right now.
        self.inflight = 0
        #: The endpoint's own last heartbeat-reported queue depth (work this
        #: router does not know about: other routers, local submissions) —
        #: the load its transport reports to placement.
        self.queue_depth = 0
        self.served = 0
        self.dispatches = 0


class _AttemptTimeout(Exception):
    """Internal: a frame read exceeded the per-attempt deadline."""


class NetRouter:
    """The serving fleet's front end: framed TCP in, placed dispatches out.

    Runs its asyncio machinery on a dedicated daemon thread so the public
    surface stays synchronous (``start`` / ``add_worker`` / ``run_batch`` /
    ``stats`` / ``stop``) and composes with the rest of the repo's blocking
    test and bench code.  The router is the framed-TCP transport of a
    :class:`~repro.serve.dispatch.Dispatcher`: a batch runs the dispatcher
    on an executor thread under ``_dispatch_lock``, and each exchange hops
    back onto the router loop to drive every endpoint concurrently.
    Constructor knobs match the pool's where the concept carries over and
    add the network-tier :class:`~repro.serve.reliability.DispatchPolicy`.
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
        self.slice_steps = slice_steps
        self.dispatch = dispatch or DispatchPolicy()
        self._scheduler = scheduler_factory(slice_steps)
        self._endpoints: Dict[int, _Endpoint] = {}
        self._counters = {"drops": 0, "timeouts": 0, "served_locally": 0}
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
        self._host = host
        self._requested_port = port
        self._port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._dispatch_lock: Optional[asyncio.Lock] = None
        self._server = None
        self._heartbeat_task = None

    # -- lifecycle ------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The client-facing ``(host, port)`` once started."""
        return (self._host, self._port)

    def start(self) -> Tuple[str, int]:
        """Bring the router loop up; returns the bound ``(host, port)``."""
        if self._thread is not None:
            raise RuntimeError("NetRouter is already running")
        self._thread = threading.Thread(target=self._thread_main, name="net-router", daemon=True)
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise RuntimeError(f"router failed to start: {self._startup_error}")
        return self.address

    def _thread_main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            loop.close()

    async def _main(self) -> None:
        self._stop_event = asyncio.Event()
        self._dispatch_lock = asyncio.Lock()
        try:
            self._server = await asyncio.start_server(
                self._handle_client, self._host, self._requested_port
            )
        except OSError as error:
            self._startup_error = error
            self._started.set()
            return
        self._port = self._server.sockets[0].getsockname()[1]
        if self.dispatch.heartbeat_interval_seconds is not None:
            self._heartbeat_task = asyncio.ensure_future(self._heartbeat_loop())
        self._started.set()
        await self._stop_event.wait()
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
        self._server.close()
        await self._server.wait_closed()
        for endpoint in self._endpoints.values():
            await self._close_endpoint(endpoint, farewell=True)

    def stop(self) -> None:
        """Shut the router down (server, worker connections, loop thread)."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=10)
        self._thread = None

    def __enter__(self) -> "NetRouter":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    def _call(self, coro):
        """Run a coroutine on the router loop from the calling thread."""
        if self._loop is None:
            raise RuntimeError("NetRouter is not running (call start())")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    # -- membership (sync facade) ----------------------------------------------

    def add_worker(self, address: Tuple[str, int]) -> int:
        """Register a worker endpoint; returns the id it reported in WELCOME.

        Only the ring arcs the new endpoint's virtual nodes own move to it —
        every other program keeps its warm home (bench-gated remap bound).
        """
        host, port = address
        return self._call(self._add_worker(host, port))

    def remove_worker(self, endpoint_id: int) -> None:
        """Deregister an endpoint; its ring arcs fall to their next owners."""
        self._call(self._remove_worker(endpoint_id))

    def endpoint_ids(self) -> List[int]:
        return self._call(self._endpoint_ids())

    async def _endpoint_ids(self) -> List[int]:
        return sorted(self._endpoints)

    async def _add_worker(self, host: str, port: int) -> int:
        async with self._dispatch_lock:
            for endpoint in self._endpoints.values():
                if (endpoint.host, endpoint.port) == (host, port):
                    # Checked before dialing: a registered worker's only
                    # conversation slot is busy serving us, so a duplicate dial
                    # would wait forever for its WELCOME.
                    raise ValueError(
                        f"endpoint {endpoint.endpoint_id} already serves {host}:{port}"
                    )
            probe = _Endpoint(-1, host, port)
            await self._ensure_connection(probe)
            endpoint_id = probe.endpoint_id
            if endpoint_id in self._endpoints:
                await self._close_endpoint(probe, farewell=True)
                raise ValueError(f"endpoint {endpoint_id} is already registered")
            self._endpoints[endpoint_id] = probe
            self._dispatcher.add_member(endpoint_id)
            return endpoint_id

    async def _remove_worker(self, endpoint_id: int) -> None:
        async with self._dispatch_lock:
            endpoint = self._endpoints.pop(endpoint_id, None)
            self._dispatcher.remove_member(endpoint_id)
            if endpoint is not None:
                await self._close_endpoint(endpoint, farewell=True)

    async def _close_endpoint(self, endpoint: _Endpoint, farewell: bool = False) -> None:
        if endpoint.writer is None:
            return
        if farewell:
            try:
                await write_frame(endpoint.writer, BYE, None)
            except ConnectionDropped:
                pass
        try:
            endpoint.writer.close()
        except Exception:  # noqa: BLE001 — closing a dead transport is fine
            pass
        endpoint.reader = endpoint.writer = None

    # -- worker connections ----------------------------------------------------

    async def _ensure_connection(self, endpoint: _Endpoint):
        """The endpoint's live connection, dialing + handshaking if needed."""
        if endpoint.writer is not None:
            return endpoint.reader, endpoint.writer
        reader, writer = await asyncio.open_connection(endpoint.host, endpoint.port)
        try:
            await write_frame(writer, HELLO, {"version": WIRE_VERSION, "role": "router"})
            body = expect_frame(await self._timed_read(reader), WELCOME)
            if body.get("version") != WIRE_VERSION:
                raise ProtocolError(
                    f"endpoint {endpoint.host}:{endpoint.port} sent a bad WELCOME"
                )
        except (_AttemptTimeout, ConnectionDropped, ProtocolError):
            writer.close()
            raise
        endpoint.endpoint_id = body.get("endpoint", endpoint.endpoint_id)
        stats = body.get("stats") or {}
        endpoint.queue_depth = stats.get("queue_depth", 0)
        endpoint.reader, endpoint.writer = reader, writer
        return reader, writer

    async def _timed_read(self, reader):
        """One frame, bounded by the per-attempt deadline when configured."""
        timeout = self.dispatch.attempt_timeout_seconds
        if timeout is None:
            return await read_frame(reader)
        try:
            return await asyncio.wait_for(read_frame(reader), timeout)
        except asyncio.TimeoutError as error:
            raise _AttemptTimeout() from error

    async def _exchange(self, endpoint: _Endpoint, work: tuple):
        """One work round-trip: send, drain checkpoints, terminal reply.

        Returns a :class:`~repro.serve.dispatch.Transport` outcome.  Every
        failure mode (dial refused, EOF mid-stream, per-attempt deadline,
        protocol garbage) lands in ``"crashed"``; the dispatcher then
        accounts the drop through :meth:`teardown`.
        """
        checkpoints: Dict[Tuple[int, ...], bytes] = {}
        endpoint.inflight = len(work[1])
        try:
            reader, writer = await self._ensure_connection(endpoint)
            endpoint.dispatches += 1
            await write_frame(writer, REQUEST, work)
            while True:
                frame_type, body = await self._timed_read(reader)
                if frame_type != CHECKPOINT:
                    break
                covered, payload = body
                checkpoints[tuple(covered)] = payload
        except _AttemptTimeout:
            self._counters["timeouts"] += 1
            return ("crashed", checkpoints)
        except (ConnectionDropped, ProtocolError, OSError):
            return ("crashed", checkpoints)
        finally:
            endpoint.inflight = 0
        if frame_type != RESPONSE:
            return ("crashed", checkpoints)
        if body[0] in ("ok", "resumed"):
            endpoint.served += len(body[1])
        return ("reply", body, checkpoints)

    # -- the framed-TCP transport ----------------------------------------------

    def alive(self, endpoint_id: int) -> bool:
        return self._endpoints[endpoint_id].writer is not None

    def load(self, endpoint_id: int) -> int:
        return self._endpoints[endpoint_id].queue_depth

    def exchange(self, work):
        """Drive every endpoint's exchange concurrently on the router loop."""
        return self._call(self._gather(work))

    async def _gather(self, work):
        endpoints = self._endpoints
        return await asyncio.gather(*(self._exchange(endpoints[eid], job) for eid, job in work))

    def teardown(self, endpoint_id: int) -> None:
        """Count one dead/abandoned connection and close it; the next
        exchange redials."""
        self._counters["drops"] += 1
        endpoint = self._endpoints.get(endpoint_id)
        if endpoint is not None and endpoint.writer is not None:
            self._loop.call_soon_threadsafe(endpoint.writer.close)
            endpoint.reader = endpoint.writer = None

    # -- placement and dispatch --------------------------------------------------

    def endpoint_for(self, request: Request) -> int:
        """Pure ring placement preview (no load, no quarantine, no dispatch)."""
        key = self._scheduler.placement_key(request)
        return self._call(self._preview(key))

    async def _preview(self, key: str) -> int:
        return self._dispatcher.ring.node_for(key)

    def run_batch(self, requests: Sequence[Request]) -> List[Response]:
        """Serve a batch through the fleet; responses in request order."""
        return self._call(self._dispatch(list(requests)))

    def run_sequential(self, requests: Sequence[Request]) -> List[Response]:
        """The differential baseline: the router's own scheduler, no network."""
        return self._scheduler.serve_sequential(requests)

    async def _dispatch(self, requests: List[Request]) -> List[Response]:
        """Run the dispatcher off-loop: its exchanges and recovery backoff
        block, and its transport calls back into this loop."""
        async with self._dispatch_lock:
            loop = asyncio.get_event_loop()
            return await loop.run_in_executor(None, self._dispatcher.run_batch, requests)

    def _serve_local(self, requests: List[Request]) -> List[Response]:
        """No endpoints registered: the router's scheduler serves directly."""
        self._counters["served_locally"] += len(requests)
        return self._scheduler.serve(requests)

    # -- heartbeats ------------------------------------------------------------

    def poll_workers(self) -> Dict[int, bool]:
        """One synchronous heartbeat sweep: ``{endpoint_id: alive}``.

        Pings every *connected* endpoint (idle ones — never mid-dispatch),
        refreshes its load report, and counts a dead connection as a breaker
        failure.  The background sweep (``heartbeat_interval_seconds``) runs
        exactly this; tests and operators call it directly for a
        deterministic health probe.
        """
        return self._call(self._poll_workers())

    async def _poll_workers(self) -> Dict[int, bool]:
        async with self._dispatch_lock:
            alive: Dict[int, bool] = {}
            for endpoint_id in sorted(self._endpoints):
                endpoint = self._endpoints[endpoint_id]
                if endpoint.writer is None:
                    continue  # not connected: nothing to probe
                alive[endpoint_id] = False
                try:
                    await write_frame(endpoint.writer, HEARTBEAT, {"role": "router"})
                    frame_type, body = await self._timed_read(endpoint.reader)
                    alive[endpoint_id] = frame_type == HEARTBEAT and isinstance(body, dict)
                except _AttemptTimeout:
                    self._counters["timeouts"] += 1
                except (ConnectionDropped, ProtocolError):
                    pass
                if alive[endpoint_id]:
                    endpoint.queue_depth = body.get("queue_depth", 0)
                    endpoint.served = body.get("served", endpoint.served)
                else:
                    self._dispatcher.crashed(endpoint_id)
            return alive

    async def _heartbeat_loop(self) -> None:
        interval = self.dispatch.heartbeat_interval_seconds
        while True:
            await asyncio.sleep(interval)
            try:
                await self._poll_workers()
            except Exception:  # noqa: BLE001 — the sweep must never die
                continue

    # -- stats / the client-facing server --------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The full operator snapshot (documented in docs/operations.md)."""
        return self._call(self._snapshot())

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

    async def _snapshot(self) -> Dict[str, Any]:
        dispatcher = self._dispatcher
        counters = dispatcher.cache_stats()
        return {
            "endpoints": {
                endpoint_id: {
                    "address": f"{endpoint.host}:{endpoint.port}",
                    "connected": endpoint.writer is not None,
                    "breaker": dispatcher.breakers[endpoint_id].stats(),
                    "inflight": endpoint.inflight,
                    "queue_depth": endpoint.queue_depth,
                    "served": endpoint.served,
                    "dispatches": endpoint.dispatches,
                }
                for endpoint_id, endpoint in sorted(self._endpoints.items())
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

    async def _handle_client(self, reader, writer) -> None:
        try:
            frame_type, body = await read_frame(reader)
            rejection = hello_rejection(frame_type, body, "router")
            if rejection is not None:
                await write_frame(writer, ERROR, rejection)
                return
            await write_frame(
                writer, WELCOME, {"version": WIRE_VERSION, "endpoint": "router", "stats": {}}
            )
            while True:
                frame_type, body = await read_frame(reader)
                if frame_type == BYE:
                    return
                if frame_type == REQUEST:
                    responses = await self._dispatch(list(body))
                    await write_frame(writer, RESPONSE, responses)
                elif frame_type == STATS:
                    await write_frame(writer, STATS, await self._snapshot())
                elif frame_type == HEARTBEAT:
                    await write_frame(
                        writer, HEARTBEAT, {"role": "router", "endpoints": len(self._endpoints)}
                    )
                elif frame_type == FETCH:
                    entry = self._dispatcher.store.get(body)
                    await write_frame(
                        writer, PUBLISH, (body, entry.payload if entry is not None else None)
                    )
                elif frame_type == PUBLISH:
                    store_key, payload = body
                    async with self._dispatch_lock:  # a batch may be absorbing publishes
                        stored = payload is not None and self._dispatcher.publish(
                            store_key, payload, EXTERNAL_PUBLISHER
                        )
                    await write_frame(writer, PUBLISH, (store_key, stored))
                else:
                    await write_frame(writer, ERROR, unexpected_frame(frame_type))
                    return
        except (ConnectionDropped, ProtocolError):
            return
        finally:
            try:
                writer.close()
            except Exception:  # noqa: BLE001
                pass


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
        self._sock = socket.create_connection((host, port), timeout=connect_timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            send_frame(self._sock, HELLO, {"version": version, "role": "client"})
            expect_frame(recv_frame(self._sock), WELCOME)
        except BaseException:
            self._sock.close()
            raise
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
