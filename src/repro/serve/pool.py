"""Multi-process serving: a sharded worker pool with cross-process cache sharing.

One :class:`~repro.serve.scheduler.Scheduler` interleaves many resumable
executions in one synchronous slice loop — but on one OS process, behind
the GIL, with backend heaps and pipeline LRUs confined to that process.  The
:class:`WorkerPool` is the scale-out layer above it: it shards
:class:`~repro.serve.request.Request` batches across N worker processes,
each running its own ``Scheduler`` + ``StepSlicedDriver`` loop, and keeps
the hot-program pipeline cache *shared* between them.

The pool is the socket-pair transport of
:class:`~repro.serve.dispatch.Dispatcher`: each worker gets one
``socket.socketpair()``, over which the parent and the worker speak the
same :mod:`repro.serve.wire` frames as the network tier.  The worker runs
the shared member loop (:func:`~repro.serve.dispatch.serve_member`) and the
parent runs the dispatcher's send-all-then-drain exchange over its ends
(so shards run in parallel), says ``BYE`` on close, and reaps and respawns
dead workers.
The dispatcher shards over a consistent-hash ring of the worker indices,
so repeat submissions of a program return to the same warm worker, shares
compiled artifacts between workers through a parent-owned store, and
recovers a crashed shard's requests from the checkpoints its worker
streamed.  A worker whose connection drops (an injected ``net.drop``
included) ends its conversation and exits, and its requests recover the
same way.  Inside each worker, identical requests coalesce onto one VM
instance (``response.coalesced``).  A
:class:`~repro.serve.faults.FaultPlan` handed to the pool rides into every
worker, bound to its shard, for the chaos harness.

Workers are spawned with the ``spawn`` start method (no inherited state, the
portable choice), which requires ``scheduler_factory`` to be an importable
module-level callable; the default builds the stock three-system scheduler.
"""

from __future__ import annotations

import gc
import multiprocessing
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.serve.dispatch import Dispatcher, exchange_all, load_report, serve_member
from repro.serve.faults import FaultPlan
from repro.serve.reliability import BreakerPolicy, DispatchPolicy
from repro.serve.request import Request, Response, check_request
from repro.serve.scheduler import Scheduler, make_default_scheduler
from repro.serve.wire import ConnectionDropped, FrameConnection

__all__ = ["WorkerPool", "default_scheduler_factory"]


def default_scheduler_factory(slice_steps: int) -> Scheduler:
    """The stock per-worker scheduler: all three case-study systems."""
    return make_default_scheduler(slice_steps=slice_steps)


# -- the worker side ----------------------------------------------------------


def _worker_main(
    sock: socket.socket, slice_steps: int, scheduler_factory, shard: int, fault_plan=None
) -> None:
    """One worker process: the shared member loop over its end of the pair.

    ``fault_plan`` is this worker's copy of the pool's
    :class:`~repro.serve.faults.FaultPlan`, bound to ``shard`` so
    shard-targeted faults (injected crashes included) fire only here.  The
    process exits when the parent says ``BYE`` or the connection drops.

    The worker runs without the cycle collector: the member path makes no
    reference cycles (``tests/test_member_path.py`` pins that), so every
    collection would scan the caches and free nothing.  Reference counting
    still frees all of its garbage.  The process is the pool's own, so no
    caller's GC settings change.
    """
    scheduler = scheduler_factory(slice_steps)
    gc.disable()
    if fault_plan is not None:
        scheduler.fault_plan = fault_plan.bind(shard)
    connection = FrameConnection(sock)
    try:
        serve_member(scheduler, shard, connection, load_report(shard))
    except ConnectionDropped:
        pass  # the parent went away, or an injected net.drop: the conversation is over
    finally:
        connection.close()


# -- the parent side ----------------------------------------------------------


class _Worker:
    """Parent-side handle for one worker process and its end of the pair."""

    __slots__ = ("process", "connection")

    def __init__(self, process, connection: FrameConnection):
        self.process = process
        self.connection = connection


class WorkerPool:
    """Shards request batches across worker processes, sharing the hot cache.

    ``workers`` fixes the shard count (the sharding function is deterministic
    in it).  ``scheduler_factory`` must be a picklable module-level callable
    ``(slice_steps) -> Scheduler``; it runs once in every worker *and* once
    in the parent, whose scheduler routes requests for sharding/cache keys
    and doubles as the sequential differential baseline
    (:meth:`run_sequential`).  Workers start lazily on the first batch and
    are respawned transparently if they crash.  Use as a context manager or
    call :meth:`close`.

    Workers coalesce identical requests and stream every in-flight
    request's checkpoint at each slice boundary (the migration safety net).
    Knobs (all deterministic under injection):

    * ``top_k`` / ``balance_load`` — with ``balance_load`` on, a request may
      land on the least-loaded of its first ``top_k`` ring candidates.  Off
      by default: the pool's differential gates pin pure consistent hashing.
    * ``sleeper`` replaces :func:`time.sleep` in tests so crash-recovery
      backoff costs no wall clock.
    * ``breaker_policy`` / ``clock`` — per-shard circuit-breaker tuning and
      time source (fake time makes quarantine transitions deterministic).
    * ``max_batch`` — the admission limit; the overflow tail of a batch is
      shed with ``rejected_overload`` responses instead of degrading
      everyone.
    * ``fault_plan`` — a :class:`~repro.serve.faults.FaultPlan` copied into
      every worker (bound to its shard) for deterministic fault injection.
    """

    def __init__(
        self,
        workers: int = 2,
        slice_steps: int = 512,
        scheduler_factory=default_scheduler_factory,
        breaker_policy: Optional[BreakerPolicy] = None,
        max_batch: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        clock: Callable[[], float] = time.monotonic,
        sleeper: Callable[[float], None] = time.sleep,
        top_k: int = 1,
        balance_load: bool = False,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.slice_steps = slice_steps
        self.fault_plan = fault_plan
        self._factory = scheduler_factory
        self._context = multiprocessing.get_context("spawn")
        self._router = scheduler_factory(slice_steps)
        self._pool: List[Optional[_Worker]] = [None] * workers
        self._closed = False
        self._dispatcher = Dispatcher(
            self,
            self._router,
            slice_steps,
            label="shard",
            lost="worker crashed while serving the batch",
            placement=DispatchPolicy(top_k=top_k, balance_load=balance_load),
            breaker_policy=breaker_policy,
            max_batch=max_batch,
            clock=clock,
            sleeper=sleeper,
        )
        for shard in range(workers):
            self._dispatcher.add_member(shard)

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @staticmethod
    def _reap(process) -> None:
        """Join with terminate → kill escalation: a hung worker (blocked in C
        code, ignoring SIGTERM) must never hang pool shutdown."""
        process.join(timeout=5)
        if not process.is_alive():
            return
        process.terminate()
        process.join(timeout=5)
        if not process.is_alive():
            return
        process.kill()
        process.join(timeout=5)

    def close(self) -> None:
        """Stop every worker; the pool cannot be used afterwards.

        Idempotent and crash-safe: closing twice is a no-op (the first call
        leaves no workers behind), and a worker that already died — crashed
        mid-batch, killed at idle, socket half-closed — is torn down without
        raising.  A worker that ignores ``BYE`` *and* ``terminate`` is
        ``kill``-ed, so ``close`` always returns with the pool stopped.
        """
        self._closed = True
        for shard, worker in enumerate(self._pool):
            if worker is None:
                continue
            self._pool[shard] = None
            worker.connection.close(farewell=True)
            self._reap(worker.process)

    def _worker(self, shard: int) -> _Worker:
        """The shard's live worker, spawned on first use or after a crash."""
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        worker = self._pool[shard]
        if worker is None:
            parent_end, child_end = socket.socketpair()
            try:
                process = self._context.Process(
                    target=_worker_main,
                    args=(child_end, self.slice_steps, self._factory, shard, self.fault_plan),
                    daemon=True,
                )
                process.start()
            except BaseException:
                parent_end.close()
                raise
            finally:
                child_end.close()
            worker = _Worker(process, FrameConnection(parent_end))
            self._pool[shard] = worker
        return worker

    # -- the socket-pair transport -----------------------------------------------

    def alive(self, shard: int) -> bool:
        worker = self._pool[shard]
        return worker is not None and worker.process.is_alive()

    def load(self, shard: int) -> int:
        return 0  # the parent's batch is a worker's whole queue

    def exchange(self, work):
        """:func:`~repro.serve.dispatch.exchange_all` over the shards' connections."""
        return exchange_all([(self._worker(shard).connection, message) for shard, message in work])

    def teardown(self, shard: int) -> None:
        """Reap a crashed worker; the next use respawns it."""
        worker = self._pool[shard]
        if worker is not None:
            worker.connection.close()
            if worker.process.is_alive():
                worker.process.terminate()
            self._reap(worker.process)
        self._pool[shard] = None

    def describe(self, shard: int) -> Dict[str, Any]:
        worker = self._pool[shard]
        return {
            "address": None if worker is None else f"pid {worker.process.pid}",
            "connected": self.alive(shard),
            "queue_depth": 0,
        }

    # -- serving --------------------------------------------------------------

    def shard_of(self, request: Request) -> int:
        """The worker index ``request`` is routed to (deterministic).
        Raises :func:`~repro.serve.request.check_request`'s ``RequestError``."""
        return self._dispatcher.ring.node_for(self._router.placement_key(check_request(request)))

    def run_batch(self, requests: Sequence[Request]) -> List[Response]:
        """Shard a batch across the workers; responses in request order.

        The shards execute in parallel across processes.  Within a shard the
        worker interleaves its requests on one loop and coalesces identical
        requests onto one VM instance.  Shedding, quarantine reroutes, and
        crash recovery are
        :meth:`~repro.serve.dispatch.Dispatcher.run_batch`'s: a worker that
        crashes mid-batch touches only its own shard's requests.
        """
        return self._dispatcher.run_batch(requests)

    def run_sequential(self, requests: Sequence[Request]) -> List[Response]:
        """The single-process differential baseline: the parent's own
        scheduler drives the whole batch sequentially, no sharding, no
        cache sharing, no coalescing."""
        return self._router.serve_sequential(requests)

    def stats(self) -> Dict[str, Any]:
        """The operator snapshot (:meth:`~repro.serve.dispatch.Dispatcher.stats`):
        ``members`` are the shards, each ``address`` the worker's pid."""
        return self._dispatcher.stats()

    def cache_stats(self) -> Dict[str, int]:
        """:meth:`stats`' numbers, flat (:func:`~repro.serve.dispatch.flat_stats`)."""
        return self._dispatcher.cache_stats()
