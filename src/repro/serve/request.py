"""The serving layer's request/response model, and the one check of a request.

A :class:`Request` is one user submission: a source program in one of the
registered systems' languages plus the execution policy for *this request
only* — which evaluator backend runs it and how much fuel it may burn.
Nothing in a request touches process-global state: backend choice and fuel
budget ride through :meth:`repro.core.language.TargetBackend.start` per
call, so one process serves an oracle-backed differential request next to
compiled fast-path requests.

:func:`check_request` is where a request enters: :meth:`Scheduler.serve
<repro.serve.scheduler.Scheduler.serve>`, :meth:`Scheduler.resume
<repro.serve.scheduler.Scheduler.resume>` (on a checkpoint's request) and
:meth:`Dispatcher.run_batch <repro.serve.dispatch.Dispatcher.run_batch>`
call it before they read a field, and code past them trusts every field.  A
request it refuses is answered alone, with ``Response.error`` reading
``"RequestError: <field> …"``; the rest of its batch is served.  The
placement previews ``WorkerPool.shard_of`` and ``NetRouter.endpoint_for``
raise it.

A :class:`Response` pairs the request with its observable outcome and the
per-request accounting: the resolved system/backend, machine step count,
scheduler slice count, pipeline/run timings, and whether the frontend cache
served the compile.  The multi-process fields (``shard``,
``shared_cache_hit``, ``published``, ``coalesced``), the snapshot fields
(``preempted``, ``checkpoint``, ``resumed``, ``migrated_from``) and the
reliability outcomes (``deadline_exceeded``, ``rejected_overload``,
``attempts``, ``rerouted_from``) all default to the single-process,
no-snapshot, no-failure reading, so a :class:`Response` reads the same
however it was served.  ``deadline_exceeded`` and ``rejected_overload`` are
not errors: the *policy* stopped the request, deliberately and
deterministically.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.errors import RequestError
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


@dataclass
class Request:
    """One program submission with its own execution policy."""

    language: str
    source: str
    backend: Optional[str] = None  # None → the routed system's default backend
    #: The machine-transition budget; exhausting it fails this request only.
    fuel: int = DEFAULT_FUEL
    #: Required when ``language`` is served by more than one registered
    #: system (MiniML appears in both the §4 and §5 case studies).
    system: Optional[str] = None
    request_id: Optional[str] = None
    #: Placement override.  ``None`` places by the sha256 of the routed
    #: ``(system, language, source)``, so repeat submissions of a program
    #: land on the same, already-warm member; a key is hashed instead (never
    #: built-in ``hash``, which ``PYTHONHASHSEED`` randomizes per process):
    #: one key pins related requests together, distinct keys spread a hot
    #: program.  Single-process scheduling ignores it.
    affinity: Optional[str] = None
    #: Per-attempt wall-clock budget for the *run* phase, from the request's
    #: first slice, checked at every slice boundary.  On expiry the response
    #: carries ``deadline_exceeded=True`` with, for snapshot-capable
    #: backends, a resumable ``checkpoint`` of the stopped state.  Each retry
    #: attempt gets the full budget again.  ``None`` means no deadline.
    deadline_seconds: Optional[float] = None
    #: How many *recovery* attempts this request may consume after its first
    #: dispatch fails out from under it (worker crash, pipe death): each
    #: checkpoint migration or from-scratch redispatch costs one.  0 pins
    #: whole-shard-failure semantics.
    retry_budget: int = 1
    #: Run the frontend pipeline (parse → typecheck → compile → verify) and
    #: return the unit's static-analysis report on ``Response.report``
    #: *without ever starting an execution*.  Analyze-only requests never
    #: coalesce (there is no VM instance to share).
    analyze_only: bool = False
    #: Estimated machine-step cost, which load-aware placement uses as the
    #: request's queue-depth *weight* — typically ``estimated_steps`` from an
    #: earlier analyze-only response.  ``None`` weighs the request as 1; the
    #: hint never changes *where* a request may run.
    cost_hint: Optional[int] = None
    #: The request's QoS class, a key of :data:`PRIORITY_WEIGHTS`.  Under
    #: contention the driver grants each execution its class's weight in
    #: consecutive slices per round-robin turn, so a high tenant's p99 stays
    #: low while best-effort work soaks up the remainder.  Priority shapes
    #: *latency*, never results: interleaved results must equal sequential
    #: ones whatever the weights (the QoS tests in ``tests/test_fuzz.py``).
    priority: str = DEFAULT_PRIORITY

    def label(self) -> str:
        return self.request_id or f"{self.system or '?'}/{self.language}"


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_STR = (lambda value: isinstance(value, str), "a str")
_STR_OR_NONE = (lambda value: value is None or isinstance(value, str), "a str or None")
_COUNT = (lambda value: _is_int(value) and value >= 0, "an int >= 0")

#: One rule per :class:`Request` field: its test, and what the field must be.
_RULES: Dict[str, Tuple[Callable[[Any], bool], str]] = {
    "language": _STR,
    "source": _STR,
    "backend": _STR_OR_NONE,
    "fuel": _COUNT,
    "system": _STR_OR_NONE,
    "request_id": _STR_OR_NONE,
    "affinity": _STR_OR_NONE,
    "deadline_seconds": (
        lambda value: value is None or ((_is_int(value) or isinstance(value, float)) and 0 < value < math.inf),
        "None or a finite number > 0",
    ),
    "retry_budget": _COUNT,
    "analyze_only": (lambda value: isinstance(value, bool), "a bool"),
    "cost_hint": (lambda value: value is None or _is_int(value), "an int or None"),
    "priority": (
        lambda value: isinstance(value, str) and value in PRIORITY_WEIGHTS, f"one of {sorted(PRIORITY_WEIGHTS)}"
    ),
}


def check_request(request: Request) -> Request:
    """``request``, once every field has passed its rule; raises
    :class:`~repro.core.errors.RequestError` naming the first field that
    does not."""
    for name, (accepts, wanted) in _RULES.items():
        value = getattr(request, name)
        if not accepts(value):
            raise RequestError(f"{name} must be {wanted}, got {reprlib.repr(value)}")
    return request


@dataclass
class Response:
    """The outcome of one request, with per-request accounting."""

    request: Request
    system: str = ""
    backend: Optional[str] = None
    result: Optional[RunResult] = None
    #: A refused request (:func:`check_request`) or a frontend-stage failure
    #: (parse/typecheck/convertibility/routing); when set, the request never
    #: reached a machine and ``result`` is ``None``.
    error: Optional[str] = None
    slices: int = 0
    #: Frontend pipeline time only (parse → typecheck → compile) — exactly
    #: the work :meth:`~repro.serve.scheduler.Scheduler.warm_cache` warms.
    compile_seconds: float = 0.0
    #: Execution setup time (machine-code compilation, initial machine
    #: state), accounted separately so compile-time savings from a warm
    #: pipeline cache are not diluted by per-request start-up work.
    start_seconds: float = 0.0
    #: Wall-clock latency from the request's first slice to its last, other
    #: requests' turns on the shared loop included: what a client observes.
    run_seconds: float = 0.0
    cache_hit: bool = False
    #: Index of the worker-pool shard that served the request (``None`` when
    #: served in-process by a :class:`~repro.serve.scheduler.Scheduler`).
    shard: Optional[int] = None
    #: True when this request's compile was satisfied by an artifact another
    #: member published to the shared store (``cache_hit`` then reports the
    #: resulting in-process LRU hit).  False + ``cache_hit`` False = miss.
    shared_cache_hit: bool = False
    #: True when this request's compile produced a new artifact that was
    #: published to the pool's shared store (the *publish* counter).
    published: bool = False
    #: Number of identical requests (same system, program, backend, and
    #: fuel) served by the one VM instance that produced this response — 1
    #: means it ran alone.  Coalesced responses share the representative
    #: run's result and accounting.
    coalesced: int = 1
    #: True when the request was stopped at ``serve``'s ``max_slices``
    #: ceiling.  ``result`` is then ``None`` and — for snapshot-capable
    #: backends — ``checkpoint`` holds the paused state.
    preempted: bool = False
    #: The :class:`~repro.serve.checkpoint.Checkpoint` of a stopped run
    #: (``None`` for finished requests and backends without snapshots); feed
    #: it to :meth:`~repro.serve.scheduler.Scheduler.resume` anywhere.
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
    #: True when admission control shed this request (past the batch's
    #: ``max_batch`` limit) without running it.  Deterministic: the *tail*
    #: of an oversized batch is shed, never a random subset.
    rejected_overload: bool = False
    #: Total dispatch attempts this response consumed: 1 for a request that
    #: never needed recovery, +1 for every checkpoint migration or
    #: from-scratch redispatch after a worker crash.
    attempts: int = 1
    #: The request's *home* shard when quarantine placement moved it to a
    #: healthy worker instead (its circuit breaker was open).  ``shard``
    #: records where it actually ran; ``None`` means it ran at home.
    rerouted_from: Optional[int] = None
    #: The static-analysis report of an ``analyze_only`` request, as the
    #: plain-dict form of :class:`repro.analysis.AnalysisReport`; ``result``
    #: is then ``None`` — the program was analyzed, never run.
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
