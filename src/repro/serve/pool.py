"""Multi-process serving: a sharded worker pool with cross-process cache sharing.

One :class:`~repro.serve.scheduler.Scheduler` interleaves many resumable
executions in one synchronous slice loop — but on one OS process, behind
the GIL, with backend heaps and pipeline LRUs confined to that process.  The
:class:`WorkerPool` is the scale-out layer above it: it shards
:class:`~repro.serve.request.Request` batches across N worker processes,
each running its own ``Scheduler`` + ``StepSlicedDriver`` loop, and keeps
the hot-program pipeline cache *shared* between them.

The pool is the pipe transport of :class:`~repro.serve.dispatch.Dispatcher`:
it spawns the workers, runs the dispatcher's send-all-then-drain exchange
over their pipes (so shards run in parallel), and reaps and respawns dead
workers.
The dispatcher shards over a consistent-hash ring of the worker indices,
so repeat submissions of a program return to the same warm worker, shares
compiled artifacts between workers through a parent-owned store, and
recovers a crashed shard's requests from the checkpoints its worker
streamed.  Inside each worker, identical requests coalesce onto one VM
instance (``response.coalesced``).  A
:class:`~repro.serve.faults.FaultPlan` handed to the pool rides into every
worker, bound to its shard, for the chaos harness.

Workers are spawned with the ``spawn`` start method (no inherited state, the
portable choice), which requires ``scheduler_factory`` to be an importable
module-level callable; the default builds the stock three-system scheduler.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.serve.dispatch import Dispatcher, exchange_all, handle_work
from repro.serve.faults import FaultPlan
from repro.serve.reliability import AdmissionController, BreakerPolicy, DispatchPolicy, RetryPolicy
from repro.serve.request import Request, Response
from repro.serve.ring import DEFAULT_VIRTUAL_NODES
from repro.serve.scheduler import Scheduler, make_default_scheduler

__all__ = ["WorkerPool", "default_scheduler_factory"]


def default_scheduler_factory(slice_steps: int) -> Scheduler:
    """The stock per-worker scheduler: all three case-study systems."""
    return make_default_scheduler(slice_steps=slice_steps)


# -- the worker side ----------------------------------------------------------


def _worker_main(connection, slice_steps: int, scheduler_factory, shard: int, fault_plan=None) -> None:
    """One worker process: serve work tuples until told to stop.

    Each message is a :func:`~repro.serve.dispatch.handle_work` work tuple
    (``("serve", ...)`` or ``("resume", ...)``); while it runs, zero or more
    ``("checkpoint", indices, payload)`` events stream back, then its
    terminal reply.  ``("stop",)`` exits the loop.  An exception escaping
    one batch — an injected ``net.drop`` included — becomes an ``("error",
    message)`` reply that fails that batch, not the worker.

    ``fault_plan`` is this worker's copy of the pool's
    :class:`~repro.serve.faults.FaultPlan`, bound to ``shard`` so
    shard-targeted faults (injected crashes included) fire only here.
    """
    scheduler = scheduler_factory(slice_steps)
    if fault_plan is not None:
        scheduler.fault_plan = fault_plan.bind(shard)
    while True:
        message = connection.recv()
        if message[0] == "stop":
            break
        connection.send(handle_work(scheduler, shard, message, connection))


# -- the parent side ----------------------------------------------------------


class _Worker:
    """Parent-side handle for one worker process."""

    __slots__ = ("process", "connection")

    def __init__(self, process, connection):
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

    Knobs (all deterministic under injection):

    * ``top_k`` / ``balance_load`` — with ``balance_load`` on, a request may
      land on the least-loaded of its first ``top_k`` ring candidates.  Off
      by default: the pool's differential gates pin pure consistent hashing.
    * ``checkpoint_every`` — slice-boundary cadence at which workers stream
      each in-flight request's checkpoint (the migration safety net);
      ``None`` disables streaming, leaving from-scratch redispatch.
    * ``retry_policy`` / ``retry_seed`` — backoff schedule and jitter seed
      for crash recovery; ``sleeper`` replaces :func:`time.sleep` in tests
      so backoff costs no wall clock.
    * ``breaker_policy`` / ``clock`` — per-shard circuit-breaker tuning and
      time source (fake time makes quarantine transitions deterministic).
    * ``max_batch`` / ``max_inflight_per_shard`` — admission limits; the
      overflow tail of a batch (or of one hot shard's queue) is shed with
      ``rejected_overload`` responses instead of degrading everyone.
    * ``fault_plan`` — a :class:`~repro.serve.faults.FaultPlan` copied into
      every worker (bound to its shard) for deterministic fault injection.
    """

    def __init__(
        self,
        workers: int = 2,
        slice_steps: int = 512,
        scheduler_factory=default_scheduler_factory,
        batched: bool = True,
        start_method: str = "spawn",
        checkpoint_every: Optional[int] = 1,
        retry_policy: Optional[RetryPolicy] = None,
        retry_seed: int = 0,
        breaker_policy: Optional[BreakerPolicy] = None,
        max_batch: Optional[int] = None,
        max_inflight_per_shard: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        clock: Callable[[], float] = time.monotonic,
        sleeper: Callable[[float], None] = time.sleep,
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
        top_k: int = 1,
        balance_load: bool = False,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1 or None, got {checkpoint_every}")
        self.workers = workers
        self.slice_steps = slice_steps
        self.fault_plan = fault_plan
        self._factory = scheduler_factory
        self._context = multiprocessing.get_context(start_method)
        self._router = scheduler_factory(slice_steps)
        self._pool: List[Optional[_Worker]] = [None] * workers
        self._crashes = 0
        self._closed = False
        self._dispatcher = Dispatcher(
            self,
            self._router,
            slice_steps,
            label="shard",
            lost="worker crashed while serving the batch",
            batched=batched,
            checkpoint_every=checkpoint_every,
            placement=DispatchPolicy(top_k=top_k, balance_load=balance_load),
            virtual_nodes=virtual_nodes,
            retry_policy=retry_policy,
            retry_seed=retry_seed,
            breaker_policy=breaker_policy,
            admission=AdmissionController(max_batch, max_inflight_per_shard),
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
        mid-batch, killed at idle, pipe half-closed — is torn down without
        raising.  A worker that ignores the stop message *and* ``terminate``
        is ``kill``-ed, so ``close`` always returns with the pool stopped.
        """
        self._closed = True
        for shard, worker in enumerate(self._pool):
            if worker is None:
                continue
            self._pool[shard] = None
            try:
                worker.connection.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            try:
                worker.connection.close()
            except OSError:
                pass
            self._reap(worker.process)

    def _worker(self, shard: int) -> _Worker:
        """The shard's live worker, spawned on first use or after a crash."""
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        worker = self._pool[shard]
        if worker is None:
            parent_end, child_end = self._context.Pipe()
            process = self._context.Process(
                target=_worker_main,
                args=(child_end, self.slice_steps, self._factory, shard, self.fault_plan),
                daemon=True,
            )
            process.start()
            child_end.close()
            worker = _Worker(process, parent_end)
            self._pool[shard] = worker
        return worker

    # -- the pipe transport ----------------------------------------------------

    def alive(self, shard: int) -> bool:
        worker = self._pool[shard]
        return worker is not None and worker.process.is_alive()

    def load(self, shard: int) -> int:
        return 0  # pipe workers report no queue of their own

    def exchange(self, work):
        """:func:`~repro.serve.dispatch.exchange_all` over the shards' pipes."""
        return exchange_all([(self._worker(shard).connection, message) for shard, message in work])

    def teardown(self, shard: int) -> None:
        """Count the crash and reap the worker; the next use respawns it."""
        self._crashes += 1
        worker = self._pool[shard]
        if worker is not None:
            worker.connection.close()
            if worker.process.is_alive():
                worker.process.terminate()
            self._reap(worker.process)
        self._pool[shard] = None

    # -- serving --------------------------------------------------------------

    def shard_of(self, request: Request) -> int:
        """The worker index ``request`` is routed to (deterministic)."""
        return self._dispatcher.ring.node_for(self._router.placement_key(request))

    def run_batch(self, requests: Sequence[Request], sequential_shards: bool = False) -> List[Response]:
        """Shard a batch across the workers; responses in request order.

        The shards execute in parallel across processes.  Within a shard the
        worker interleaves its requests on one loop (or serves them
        sequentially with ``sequential_shards=True`` — the per-shard
        differential baseline) and coalesces identical requests onto one VM
        instance when the pool was built with ``batched=True``.  Shedding,
        quarantine reroutes, and crash recovery are
        :meth:`~repro.serve.dispatch.Dispatcher.run_batch`'s: a worker that
        crashes mid-batch touches only its own shard's requests.
        """
        return self._dispatcher.run_batch(requests, sequential=sequential_shards)

    def run_sequential(self, requests: Sequence[Request]) -> List[Response]:
        """The single-process differential baseline: the parent's own
        scheduler drives the whole batch sequentially, no sharding, no
        cache sharing, no coalescing."""
        return self._router.serve_sequential(requests)

    def cache_stats(self) -> Dict[str, int]:
        """Shared pipeline-cache counters, pool-wide: the dispatcher's
        (:meth:`~repro.serve.dispatch.Dispatcher.cache_stats`) plus
        ``worker_crashes``, shard failures that triggered a respawn or
        quarantine."""
        return {**self._dispatcher.cache_stats(), "worker_crashes": self._crashes}

    def health_stats(self) -> Dict[str, Any]:
        """The pool's reliability picture: breakers, admission, counters.

        ``shards`` maps each shard index to its circuit breaker's state,
        lifetime failure/success counts, current windowed failures, and full
        transition history (``closed → open → half_open → closed`` is the
        quarantine round-trip); ``admission`` reports the configured limits
        and shed count; the top-level counters mirror
        :meth:`cache_stats`'s reliability subset.
        """
        return {
            "shards": {
                shard: breaker.stats() for shard, breaker in self._dispatcher.breakers.items()
            },
            "worker_crashes": self._crashes,
            **self._dispatcher.health_stats(),
        }
