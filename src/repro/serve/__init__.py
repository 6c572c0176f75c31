"""Request-serving layer: per-request backends and fuel on one shared slice loop.

This package turns the single-program execution substrate into a
multi-tenant service front:

* :class:`~repro.serve.request.Request` / ``Response`` — one submission with
  its own language, backend choice, fuel budget, and typecheck environments,
  answered with per-request accounting (steps, slices, timings, cache hits);
* :class:`~repro.serve.driver.StepSlicedDriver` — the synchronous slice
  loop: every admitted program becomes a resumable execution (every
  registered backend is ``step_n``-capable — the substitution oracles
  included) and one ``run_batch`` advances many of
  them in weighted round-robin turns — each weighted by the request's QoS
  ``priority`` class (``PRIORITY_WEIGHTS``) so high-priority tenants get
  more consecutive slices per turn under contention — none exceeding
  ``slice_steps`` transitions per slice;
* :class:`~repro.serve.scheduler.Scheduler` — admission, language routing
  across the three case-study systems, one ``serve`` for every batch shape
  (interleaved or sequential, optionally coalescing identical requests onto
  one VM instance, preempting at a slice ceiling, or streaming
  slice-boundary checkpoints), ``resume`` for checkpointed runs, and
  cross-request pipeline-cache warming;
* :class:`~repro.serve.pool.WorkerPool` — the multi-*process* layer:
  request batches sharded across N worker processes (deterministic
  program-hash placement, per-request ``affinity`` override), with a
  parent-owned store sharing pickled pipeline artifacts between workers so
  a program compiled on one worker warms all of them, and per-shard crash
  isolation upgraded to mid-run *migration*: workers stream slice-boundary
  checkpoints, so requests in flight on a crashed shard resume on a
  surviving one;
* :class:`~repro.serve.dispatch.Dispatcher` — the placement, admission,
  shared-store, and recovery logic the pool and the network router both
  run, each over its own narrow :class:`~repro.serve.dispatch.Transport`;
* :class:`~repro.serve.checkpoint.Checkpoint` / ``CheckpointStore`` — a
  paused request reified as versioned plain data (machine snapshot plus
  routing context), movable across processes and — via the store's atomic
  on-disk pickles — across process restarts; the substrate for the
  scheduler's preemption (``serve(..., max_slices=...)``) and ``resume``,
  and for the pool's migration.
  The store is hardened (structured :class:`CheckpointCorrupt` instead of
  raw pickle errors) and garbage-collected (age + size eviction);
* :mod:`~repro.serve.reliability` / :mod:`~repro.serve.faults` — the failure
  *policy* layer: per-request deadlines checked at slice boundaries
  (``DeadlineExceeded``), bounded retries with exponential backoff + seeded
  jitter (``RetryPolicy``), per-shard circuit breakers quarantining
  crash-looping workers (``CircuitBreaker`` / ``BreakerPolicy``),
  deterministic load shedding (``AdmissionController``), and the seeded
  fault-injection harness (``Fault`` / ``FaultPlan``) that exercises every
  recovery path deterministically in the tier-1 tests;
* :mod:`~repro.serve.net` / :mod:`~repro.serve.wire` /
  :mod:`~repro.serve.ring` — the network tier: a length-prefixed, versioned
  framed wire protocol carrying the workers' conversation over TCP, a
  consistent-hash ring with virtual nodes for placement
  (:class:`~repro.serve.ring.HashRing`), and the router/worker/client trio
  (:class:`~repro.serve.net.NetRouter` /
  :class:`~repro.serve.net.NetWorker` /
  :class:`~repro.serve.net.NetClient`) with load-aware top-k dispatch
  (:class:`~repro.serve.reliability.DispatchPolicy`), breaker quarantine
  for dead connections, checkpoint migration across machines, and the
  shared artifact store exposed as a FETCH/PUBLISH network service.
"""

from repro.serve.checkpoint import Checkpoint, CheckpointCorrupt, CheckpointStore
from repro.serve.driver import DrivenResult, StepSlicedDriver
from repro.serve.faults import FAULT_SITES, Fault, FaultPlan
from repro.serve.net import NetClient, NetRouter, NetWorker
from repro.serve.pool import WorkerPool, default_scheduler_factory
from repro.serve.reliability import (
    AdmissionController,
    BreakerPolicy,
    CircuitBreaker,
    DeadlineExceeded,
    DispatchPolicy,
    RetryPolicy,
)
from repro.serve.request import (
    DEFAULT_FUEL,
    DEFAULT_PRIORITY,
    PRIORITY_WEIGHTS,
    Request,
    Response,
    priority_weight,
)
from repro.serve.ring import DEFAULT_VIRTUAL_NODES, HashRing
from repro.serve.scheduler import PreparedRequest, Scheduler, make_default_scheduler
from repro.serve.wire import WIRE_VERSION, ConnectionDropped, ProtocolError, WireError

__all__ = [
    "DEFAULT_FUEL",
    "DEFAULT_PRIORITY",
    "DEFAULT_VIRTUAL_NODES",
    "PRIORITY_WEIGHTS",
    "FAULT_SITES",
    "WIRE_VERSION",
    "AdmissionController",
    "BreakerPolicy",
    "Checkpoint",
    "CheckpointCorrupt",
    "CheckpointStore",
    "CircuitBreaker",
    "ConnectionDropped",
    "DeadlineExceeded",
    "DispatchPolicy",
    "DrivenResult",
    "Fault",
    "FaultPlan",
    "HashRing",
    "NetClient",
    "NetRouter",
    "NetWorker",
    "PreparedRequest",
    "ProtocolError",
    "Request",
    "Response",
    "RetryPolicy",
    "Scheduler",
    "StepSlicedDriver",
    "WireError",
    "WorkerPool",
    "default_scheduler_factory",
    "make_default_scheduler",
    "priority_weight",
]
