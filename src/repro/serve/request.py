"""The serving layer's request/response model.

A :class:`Request` is one user submission: a source program in one of the
registered systems' languages plus the execution policy for *this request
only* — which evaluator backend runs it, how much fuel it may burn, and
which typechecking environments the frontend threads through.  Nothing in a
request touches process-global state: backend choice and fuel budget ride
through :meth:`repro.core.language.TargetBackend.start` per call, so one
process serves an oracle-backed differential request next to compiled
fast-path requests.

A :class:`Response` pairs the request with its observable outcome and the
per-request accounting: the resolved system/backend, machine step count,
scheduler slice count, pipeline/run timings, and the frontend cache's view
of the compile (hit or miss, plus a stats snapshot taken right after it).

Multi-process serving (:mod:`repro.serve.pool`) adds two knobs and four
accounting fields.  ``Request.affinity`` overrides the pool's deterministic
program-hash sharding so a caller can pin related requests to one worker (or
deliberately spread a hot program across workers).  On the response side,
``shard`` records the worker that served the request, ``shared_cache_hit`` /
``published`` record this request's traffic against the cross-process
pipeline-cache store, and ``coalesced`` records how many identical requests
shared one VM instance with this one.  All four stay at their defaults for
single-process serving, so a :class:`Response` reads the same either way.

Machine-state snapshots add four more: ``preempted`` / ``checkpoint`` record
a run stopped at a slice boundary with its paused state reified for later,
``resumed`` marks a response produced by continuing such a checkpoint, and
``migrated_from`` names the crashed shard an in-flight request was moved off
mid-run.  All four likewise default to the no-snapshot reading.

The reliability layer (:mod:`repro.serve.reliability`) adds the failure
*policy* knobs and their accounting.  On the request: ``deadline_seconds``
(a per-attempt run budget, checked at every slice boundary) and
``retry_budget`` (how many recovery attempts a failed or migrated request
may consume).  On the response: ``deadline_exceeded`` and
``rejected_overload`` are the two structured policy outcomes — neither is an
``error``; both mean the *policy* stopped the request, deliberately and
deterministically — while ``attempts`` counts total dispatches (1 = no
recovery needed) and ``rerouted_from`` names the quarantined home shard a
request was placed away from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from repro.core.interop import RunResult

#: The default per-request fuel budget (matches the backend runners).
DEFAULT_FUEL = 100_000

#: The named priority classes and their scheduling weights: how many
#: consecutive machine-transition slices the driver grants a request per
#: round-robin turn.  ``high`` tenants advance 8 slices for every 1 a
#: ``best-effort`` tenant gets under contention; uniform weights degenerate
#: to the original round-robin, so a batch that never sets ``priority``
#: schedules exactly as before.
PRIORITY_WEIGHTS: Dict[str, int] = {"high": 8, "standard": 2, "best-effort": 1}

#: The default priority class for requests that do not choose one.
DEFAULT_PRIORITY = "standard"


def priority_weight(priority: Union[int, str]) -> int:
    """The scheduling weight of a priority class (or a raw positive weight).

    Accepts a class name from :data:`PRIORITY_WEIGHTS` or a positive integer
    used directly as the weight.  Raises ``ValueError`` for anything else,
    at admission time, so a typo'd class fails the one request loudly rather
    than silently scheduling it round-robin.
    """
    if isinstance(priority, bool):  # bool is an int subclass; reject explicitly
        raise ValueError(f"priority must be a class name or positive int, got {priority!r}")
    if isinstance(priority, int):
        if priority < 1:
            raise ValueError(f"integer priority must be >= 1, got {priority}")
        return priority
    try:
        return PRIORITY_WEIGHTS[priority]
    except KeyError:
        raise ValueError(
            f"unknown priority class {priority!r}; known: {sorted(PRIORITY_WEIGHTS)} or a positive int"
        ) from None


@dataclass
class Request:
    """One program submission with its own execution policy."""

    language: str
    source: str
    backend: Optional[str] = None  # None → the routed system's default backend
    fuel: int = DEFAULT_FUEL
    typecheck_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Required when ``language`` is served by more than one registered
    #: system (MiniML appears in both the §4 and §5 case studies).
    system: Optional[str] = None
    request_id: Optional[str] = None
    #: Worker-pool placement override.  ``None`` shards by a deterministic
    #: sha256 of ``(system, language, source)`` — repeat submissions of a
    #: program land on the same, already-warm worker.  Setting a key makes
    #: :meth:`repro.serve.pool.WorkerPool.shard_of` hash the sha256 of
    #: ``affinity`` instead (deliberately *not* built-in ``hash``, which
    #: ``PYTHONHASHSEED`` randomizes per process — placement must be stable
    #: across interpreter runs): give related requests one key to pin them
    #: together, or distinct keys to spread a hot program across workers.
    #: Single-process scheduling ignores it.
    affinity: Optional[str] = None
    #: Per-attempt wall-clock budget for the *run* phase, measured from the
    #: request's first slice (compile/start time is accounted separately and
    #: not charged against it).  Checked at every slice boundary — the
    #: bounded-latency invariant makes that both cheap and precise — and on
    #: expiry the response carries ``deadline_exceeded=True`` with, for
    #: snapshot-capable backends, a resumable ``checkpoint`` of exactly the
    #: stopped state.  Each retry attempt gets the full budget again.
    #: ``None`` means no deadline.
    deadline_seconds: Optional[float] = None
    #: How many *recovery* attempts this request may consume after its first
    #: dispatch fails out from under it (worker crash, pipe death): each
    #: checkpoint migration or from-scratch redispatch costs one.  The
    #: default of 1 preserves the pool's one-migration-attempt behaviour;
    #: 0 pins the old whole-shard-failure semantics.
    retry_budget: int = 1
    #: Run the frontend pipeline (parse → typecheck → compile → verify) and
    #: return the unit's static-analysis report (built on its first read) on
    #: ``Response.report`` *without ever starting an execution*.
    #: Analyze-only requests do not count against
    #: the scheduler's ``max_inflight`` admission limit (there is nothing in
    #: flight) and never coalesce (there is no VM instance to share).
    analyze_only: bool = False
    #: Estimated machine-step cost of this request, used by the worker pool's
    #: load-aware placement as a queue-depth *weight* (an expensive request
    #: loads its shard more than a cheap one).  Callers typically feed back
    #: ``estimated_steps`` from an earlier analyze-only response for the same
    #: program.  ``None`` weighs the request as 1; the hint never changes
    #: *where* a request may run, only how loaded its candidates look.
    cost_hint: Optional[int] = None
    #: The request's QoS class — ``"high"`` | ``"standard"`` |
    #: ``"best-effort"`` (see :data:`PRIORITY_WEIGHTS`) or a raw positive
    #: integer weight.  Under contention the driver grants each execution
    #: ``priority_weight`` consecutive slices per round-robin turn, so a high
    #: tenant's p99 stays low while best-effort work soaks up the remainder.
    #: Priority shapes *latency*, never results: the bounded-latency
    #: invariant still holds per slice and interleaved results must equal
    #: sequential ones whatever the weights (checked by the QoS tests in
    #: ``tests/test_fuzz.py``).
    priority: Union[int, str] = DEFAULT_PRIORITY

    def label(self) -> str:
        return self.request_id or f"{self.system or '?'}/{self.language}"

    @property
    def priority_weight(self) -> int:
        """The driver weight this request's ``priority`` resolves to."""
        return priority_weight(self.priority)


@dataclass
class Response:
    """The outcome of one request, with per-request accounting."""

    request: Request
    system: str = ""
    backend: Optional[str] = None
    result: Optional[RunResult] = None
    #: Frontend-stage failure (parse/typecheck/convertibility/routing); when
    #: set, the request never reached a machine and ``result`` is ``None``.
    error: Optional[str] = None
    slices: int = 0
    #: Frontend pipeline time only (parse → typecheck → compile) — exactly
    #: the work :meth:`~repro.serve.scheduler.Scheduler.warm_cache` warms.
    compile_seconds: float = 0.0
    #: Execution setup time (machine-code compilation, initial machine
    #: state), accounted separately so compile-time savings from a warm
    #: pipeline cache are not diluted by per-request start-up work.
    start_seconds: float = 0.0
    #: Wall-clock latency from the request's first slice to its last one.
    #: Under interleaving this includes time spent advancing *other*
    #: requests on the shared loop — i.e. it is the request's latency as a
    #: client would observe it, not its exclusive machine time.
    run_seconds: float = 0.0
    cache_hit: bool = False
    cache_stats: Dict[str, int] = field(default_factory=dict)
    #: Index of the worker-pool shard that served the request (``None`` when
    #: served in-process by a :class:`~repro.serve.scheduler.Scheduler`).
    shard: Optional[int] = None
    #: True when this request's compile was satisfied by an artifact another
    #: worker process compiled and published to the pool's shared store (the
    #: cross-process cache *hit* counter; ``cache_hit`` then reports the
    #: resulting in-process LRU hit).  False + ``cache_hit`` False = miss.
    shared_cache_hit: bool = False
    #: True when this request's compile produced a new artifact that was
    #: published to the pool's shared store (the *publish* counter).
    published: bool = False
    #: Number of identical requests (same system, program, typecheck
    #: environments, backend, and fuel) served by the one VM instance that
    #: produced this response — 1 means the request ran alone.  Coalesced
    #: responses share the representative run's result and accounting.
    coalesced: int = 1
    #: True when the request was stopped at a slice boundary before it
    #: finished (the ``max_slices`` ceiling of
    #: :meth:`~repro.serve.scheduler.Scheduler.serve`).  ``result`` is then ``None`` and — for
    #: snapshot-capable backends — ``checkpoint`` holds the paused state.
    preempted: bool = False
    #: The :class:`~repro.serve.checkpoint.Checkpoint` reified at the last
    #: slice boundary of a preempted run (``None`` for finished requests and
    #: for backends without machine-state snapshots).  Feed it to
    #: :meth:`~repro.serve.scheduler.Scheduler.resume` — in this process or
    #: any other — to continue the run where it stopped.
    checkpoint: Optional[Any] = None
    #: True when this response continues a checkpoint instead of a fresh
    #: admission; ``slices`` then counts post-restore slices only (the
    #: checkpoint's own ``slices`` field holds the pre-preemption count).
    resumed: bool = False
    #: The shard whose worker crashed while this request was in flight; the
    #: pool resumed it from its last streamed checkpoint on ``shard``
    #: instead of failing it with the rest of the crashed shard.
    migrated_from: Optional[int] = None
    #: True when the request ran past its ``deadline_seconds`` budget and was
    #: stopped at a slice boundary.  ``result`` is then ``None``; for
    #: snapshot-capable backends ``checkpoint`` holds the paused state, so a
    #: caller that wants to grant more time resumes instead of restarting.
    deadline_exceeded: bool = False
    #: True when admission control shed this request (batch or shard queue
    #: over its limit) without running it — the structured alternative to
    #: degrading every request in an overloaded batch.  Deterministic: the
    #: *tail* of an oversized batch is shed, never a random subset.
    rejected_overload: bool = False
    #: Total dispatch attempts this response consumed: 1 for a request that
    #: never needed recovery, +1 for every checkpoint migration or
    #: from-scratch redispatch after a worker crash.
    attempts: int = 1
    #: The request's *home* shard when quarantine placement moved it to a
    #: healthy worker instead (its circuit breaker was open).  ``shard``
    #: records where it actually ran; ``None`` means it ran at home.
    rerouted_from: Optional[int] = None
    #: The static-analysis report for an ``analyze_only`` request (the
    #: plain-dict form of :class:`repro.analysis.AnalysisReport`: crossing
    #: sites, effect summary, divergence possibility, estimated step cost).
    #: ``result`` is then ``None`` — the program was analyzed, never run.
    report: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None and self.result.ok

    @property
    def steps(self) -> int:
        return self.result.steps if self.result is not None else 0

    @property
    def policy_stopped(self) -> bool:
        """True for the two structured policy outcomes (not failures): the
        request was deliberately stopped by its deadline or shed by admission
        control, with ``error`` still ``None``."""
        return self.deadline_exceeded or self.rejected_overload

    def __str__(self) -> str:
        if self.error is not None:
            return f"[{self.request.label()}] rejected: {self.error}"
        if self.rejected_overload:
            return f"[{self.request.label()}] rejected_overload (load shed)"
        if self.deadline_exceeded:
            return (
                f"[{self.request.label()}] deadline_exceeded after {self.slices} slices"
                f" ({'resumable' if self.checkpoint is not None else 'no checkpoint'})"
            )
        if self.report is not None:
            return (
                f"[{self.request.label()}] analyzed: {self.report.get('crossing_count', 0)}"
                f" crossings, ~{self.report.get('estimated_steps', 0)} steps"
            )
        return f"[{self.request.label()}] {self.result} ({self.slices} slices, backend {self.backend})"
