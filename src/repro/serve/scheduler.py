"""Admission, routing, and batching for the serving layer.

The :class:`Scheduler` owns a registry of interoperability systems (by
default all three case studies: §3 ``refs``, §4 ``affine``, §5 ``l3``) and
routes each :class:`~repro.serve.request.Request` by language — explicitly
via ``request.system`` when a language is served by more than one system
(MiniML lives in both §4 and §5).

``serve`` admits a batch: every request passes
:func:`~repro.serve.request.check_request`, is compiled through its
frontend's memoized pipeline (timed, with cache-hit accounting), started as
a resumable execution under *its own* backend choice and fuel budget, and
the whole batch is driven by the synchronous slice loop of
:class:`~repro.serve.driver.StepSlicedDriver` — interleaved by priority
weight, or one at a time with ``sequential=True``, the differential twin
the serving tests compare against.  The same call coalesces identical
requests onto one VM instance (``batched``), preempts at a slice ceiling
(``max_slices``), and streams slice-boundary checkpoints
(``on_checkpoint``); :meth:`Scheduler.resume` continues checkpointed runs
through the same drive step, and :meth:`Scheduler.warm_cache` fills the
pipeline LRUs ahead of traffic.

Per-request failures are isolated by construction: a refused request and
frontend errors (parse, typecheck, convertibility, routing, unknown
backend) land in that request's :class:`~repro.serve.request.Response` as
``error``; runtime failures (including fuel exhaustion of that request's
own budget) land in its ``result``; a backend that *raises* mid-run (an
engine bug) is caught per execution and surfaced as that response's
``error``.  None of them touches any other request in the batch.

Bounded per-turn latency: every registered backend in every system is a
resumable execution, so no request (oracle-backed differential requests
included) advances more than the driver's ``slice_steps`` machine
transitions per scheduler turn.

Cross-process sharing hooks: :meth:`Scheduler.pipeline_key` /
:meth:`Scheduler.export_cache_entry` / :meth:`Scheduler.import_cache_entry`
address the frontend LRUs by ``(system, frontend cache key)``, the key of
the members' shared store.  The system name is part of the key on purpose:
two systems may serve one language name with different compilers, and an
artifact must never cross that namespace.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.errors import ReproError, RequestError
from repro.core.interop import InteropSystem
from repro.core.language import CacheKey, CompiledUnit
from repro.serve.checkpoint import Checkpoint, CheckpointStore
from repro.serve.driver import StepSlicedDriver
from repro.serve.faults import FaultPlan
from repro.serve.reliability import DeadlineExceeded
from repro.serve.request import PRIORITY_WEIGHTS, Request, Response, check_request

#: A cross-process pipeline-cache store key: the frontend LRU key paired with
#: the *system* name — two systems may serve the same language name with
#: different compilers (MiniML lives in both §4 and §5), so the bare frontend
#: key must never be shared across systems.
StoreKey = Tuple[str, CacheKey]

#: A warm-list entry: a full request or a bare ``(language, source)`` pair.
HotProgram = Union[Request, Tuple[str, str]]


@dataclass
class PreparedRequest:
    """A request after admission: its response shell plus its execution.

    ``execution`` is ``None`` when the request was rejected at the frontend
    (the response then carries ``error`` and the request never runs).
    """

    response: Response
    execution: Optional[Any] = None


@dataclass
class _RunFailure:
    """Sentinel outcome: the backend raised instead of returning a result."""

    message: str


class _GuardedExecution:
    """Per-request crash isolation for the run phase.

    A backend that raises mid-run (an engine bug, a crash in a third-party
    backend) must fail *its own* request, not unwind the driver's slice loop
    and lose the whole batch — the same isolation :meth:`Scheduler.prepare`
    gives frontend errors.  The guard turns any ``Exception`` into a
    :class:`_RunFailure` outcome that :meth:`Scheduler.serve` surfaces as
    that response's ``error``.
    """

    __slots__ = ("_execution",)

    def __init__(self, execution: Any):
        self._execution = execution

    def step_n(self, limit: int) -> Optional[Any]:
        try:
            return self._execution.step_n(limit)
        except Exception as error:
            return _RunFailure(f"{type(error).__name__}: {error}")


class Scheduler:
    """Admits batches of requests against a registry of interop systems.

    ``fault_plan`` threads a :class:`~repro.serve.faults.FaultPlan` through
    admission and resume so the seeded faults fire at this scheduler's
    slice boundaries; pool workers and network endpoints set it, bound to
    their member id, after construction.
    """

    def __init__(self, systems: Dict[str, InteropSystem], driver: Optional[StepSlicedDriver] = None):
        self.systems = dict(systems)
        self.driver = driver or StepSlicedDriver()
        self.fault_plan: Optional[FaultPlan] = None
        self._systems_by_language: Dict[str, List[str]] = {}
        for name, system in self.systems.items():
            for frontend in (system.language_a, system.language_b):
                self._systems_by_language.setdefault(frontend.name, []).append(name)

    # -- routing --------------------------------------------------------------

    def route(self, request: Request) -> Tuple[str, InteropSystem]:
        """Resolve the system serving ``request`` (explicit or by language)."""
        if request.system is not None:
            system = self.systems.get(request.system)
            if system is None:
                raise ReproError(
                    f"no registered system {request.system!r}; registered: {sorted(self.systems)}"
                )
            if request.language not in (system.language_a.name, system.language_b.name):
                raise ReproError(
                    f"system {request.system!r} serves {system.language_a.name!r} and "
                    f"{system.language_b.name!r}, not {request.language!r}"
                )
            return request.system, system
        serving = self._systems_by_language.get(request.language, [])
        if not serving:
            raise ReproError(
                f"no registered system serves language {request.language!r}; "
                f"known languages: {sorted(self._systems_by_language)}"
            )
        if len(serving) > 1:
            raise ReproError(
                f"language {request.language!r} is served by systems {sorted(serving)}; "
                "set request.system to disambiguate"
            )
        return serving[0], self.systems[serving[0]]

    def placement_key(self, request: Request) -> str:
        """The canonical placement string the sharding/ring layers hash.

        ``request.affinity`` wins outright (the caller's placement override,
        demoted to a locality *hint* by load-aware dispatch); otherwise the
        key is the *routed* ``(system, language, source)`` triple — a request
        that spells its system explicitly and one that routes there
        implicitly are the same program and must land on the same warm
        worker.  Unroutable requests keep the raw spelling (they fail
        identically anywhere).  The worker pool's and the network router's
        :class:`~repro.serve.ring.HashRing` both hash this exact string
        (:meth:`repro.serve.pool.WorkerPool.shard_of`), so in-process and
        over-the-wire placement agree.
        """
        if request.affinity is not None:
            return request.affinity
        system = request.system or ""
        try:
            system, _ = self.route(request)
        except ReproError:
            pass
        return "\x00".join((system, request.language, request.source))

    # -- admission ------------------------------------------------------------

    def prepare(self, request: Request) -> PreparedRequest:
        """Route, compile (memoized, timed), and start one request's execution.

        ``compile_seconds`` covers exactly the frontend pipeline (parse →
        typecheck → compile, the part :meth:`warm_cache` warms) and
        ``start_seconds`` covers execution setup (machine-code compilation,
        initial machine state) separately — folding setup into compile time
        would make a warmed cache look like it saved less than it did.
        """
        response = Response(request=request)
        try:
            system_name, system = self.route(request)
        except ReproError as error:
            response.error = str(error)
            return PreparedRequest(response)
        response.system = system_name
        frontend = system.frontend(request.language)
        hits_before = frontend.cache_hits
        start = time.perf_counter()
        try:
            unit = system.compile_source(request.language, request.source)
        except Exception as error:  # a bad request must not take down the batch
            response.compile_seconds = time.perf_counter() - start
            response.error = f"{type(error).__name__}: {error}"
            return PreparedRequest(response)
        response.compile_seconds = time.perf_counter() - start
        response.cache_hit = frontend.cache_hits > hits_before
        if request.analyze_only:
            # The unit builds its report on this first read and caches it,
            # riding the LRU with the compiled code — a repeated analyze-only
            # request for a cached program touches no frontend stage at all.
            # An imported unit builds it here too, so a failing analyzer
            # fails this response alone, never the batch.
            try:
                analysis = unit.analysis
            except Exception as error:
                response.error = f"{type(error).__name__}: {error}"
                return PreparedRequest(response)
            if analysis is None:
                response.error = (
                    f"system {system_name!r} registered no analyzer for "
                    f"language {request.language!r}"
                )
            else:
                response.report = (
                    analysis.to_dict() if hasattr(analysis, "to_dict") else dict(analysis)
                )
            return PreparedRequest(response)
        started = time.perf_counter()
        try:
            execution = system.target.start(unit, backend=request.backend, fuel=request.fuel)
        except Exception as error:  # unknown backend, execution-factory bug
            response.start_seconds = time.perf_counter() - started
            response.error = f"{type(error).__name__}: {error}"
            return PreparedRequest(response)
        response.start_seconds = time.perf_counter() - started
        response.backend = request.backend if request.backend is not None else system.target.default_backend
        return PreparedRequest(response, execution)

    # -- serving --------------------------------------------------------------

    def serve(
        self,
        requests: Sequence[Request],
        sequential: bool = False,
        batched: bool = False,
        max_slices: Optional[int] = None,
        checkpoint_every: int = 1,
        on_checkpoint: Optional[Callable[[List[int], Checkpoint], None]] = None,
    ) -> List[Response]:
        """Admit a batch and run it; responses come back in request order.

        The default interleaves every admitted execution, each request
        weighted by its ``priority`` class; ``sequential=True`` drives them
        one at a time instead (the differential baseline).  Either way each
        request runs under its own backend and fuel budget, once it passes
        :func:`~repro.serve.request.check_request`; a request that does not
        is answered alone, with a ``RequestError``.

        ``batched=True`` coalesces requests that agree on system, program,
        backend, and fuel (:meth:`batch_key`): one *representative* per
        group is compiled, started, and driven, and the other members
        receive a copy of its response, with ``coalesced`` recording the
        group size on every member.  Built-in backends are deterministic,
        so outcomes equal the uncoalesced run's; the batch saves the
        duplicates' pipeline, start, and run cost.

        ``on_checkpoint(indices, checkpoint)`` observes each snapshot-capable
        run's paused state as a :class:`~repro.serve.checkpoint.Checkpoint`
        before its first slice and then every ``checkpoint_every`` slices;
        ``indices`` are the positions in ``requests`` that share the run.
        Stream it to another process, persist it, or ignore it.

        With ``max_slices`` set, a request still running at that ceiling is
        *preempted*: its response carries ``preempted=True``, ``result=None``
        and — for snapshot-capable backends — ``checkpoint`` holding exactly
        the stopped state, ready for :meth:`resume` later or elsewhere.  A
        deadline-stopped request carries its checkpoint the same way.
        """
        groups: "OrderedDict[Any, List[int]]" = OrderedDict()
        refused: Dict[int, PreparedRequest] = {}
        for index, request in enumerate(requests):
            try:
                check_request(request)
            except RequestError as error:
                refused[index] = PreparedRequest(Response(request, error=f"RequestError: {error}"))
            key = self.batch_key(request) if batched and index not in refused else None
            groups.setdefault(("solo", index) if key is None else key, []).append(index)
        members = list(groups.values())
        prepared = [refused.get(group[0]) or self.prepare(requests[group[0]]) for group in members]
        hook = None
        if on_checkpoint is not None:
            def hook(position: int, checkpoint: Checkpoint) -> None:
                on_checkpoint(members[position], checkpoint)
        self._drive(prepared, sequential, max_slices, checkpoint_every, hook)
        responses: List[Optional[Response]] = [None] * len(requests)
        for group, entry in zip(members, prepared):
            response = entry.response
            response.coalesced = len(group)
            responses[group[0]] = response
            for member in group[1:]:
                responses[member] = replace(response, request=requests[member])
        return responses  # type: ignore[return-value]

    def serve_sequential(self, requests: Sequence[Request]) -> List[Response]:
        return self.serve(requests, sequential=True)

    def _drive(
        self,
        prepared: Sequence[PreparedRequest],
        sequential: bool,
        max_slices: Optional[int] = None,
        checkpoint_every: int = 1,
        on_checkpoint: Optional[Callable[[int, Checkpoint], None]] = None,
    ) -> None:
        """Run every started entry of ``prepared`` and fill in its response.

        The fault plan, when set, instruments each execution *inside* the
        crash guard, so injected worker faults fire at slice boundaries
        while ``entry.execution`` stays the raw execution for snapshotting.
        ``on_checkpoint(position, checkpoint)`` indexes ``prepared``.  A
        preempted or deadline-stopped run is paused at its last boundary, so
        its checkpoint is reified once, here, after the run.
        """
        runnable = [
            (position, entry) for position, entry in enumerate(prepared) if entry.execution is not None
        ]
        executions = []
        weights = []
        for _position, entry in runnable:
            request = entry.response.request
            execution = entry.execution
            if self.fault_plan is not None:
                execution = self.fault_plan.instrument(execution, request_id=request.request_id)
            executions.append(_GuardedExecution(execution))
            weights.append(PRIORITY_WEIGHTS[request.priority])
        hook = None
        if on_checkpoint is not None:
            def hook(index: int, slices: int) -> None:
                position, entry = runnable[index]
                checkpoint = self._reify_checkpoint(entry, slices)
                if checkpoint is not None:
                    on_checkpoint(position, checkpoint)
        driven = self.driver.run_batch(
            executions,
            [entry.response.request.deadline_seconds for _position, entry in runnable],
            weights,
            sequential=sequential,
            on_checkpoint=hook,
            checkpoint_every=checkpoint_every,
            max_slices=max_slices,
        )
        for (_position, entry), outcome in zip(runnable, driven):
            response = entry.response
            if isinstance(outcome.result, _RunFailure):
                response.error = outcome.result.message
            elif isinstance(outcome.result, DeadlineExceeded):
                response.deadline_exceeded = True
            elif outcome.result is None:
                response.preempted = True
            else:
                response.result = outcome.result
            response.slices = outcome.slices
            response.run_seconds = outcome.seconds
            if response.deadline_exceeded or response.preempted:
                response.checkpoint = self._reify_checkpoint(entry, outcome.slices)

    def _reify_checkpoint(self, entry: PreparedRequest, slices: int) -> Optional[Checkpoint]:
        """The entry's paused state as a checkpoint, or ``None`` when the
        machine cannot snapshot (no ``snapshot``, or the snapshot fails)."""
        try:
            snapshot = entry.execution.snapshot()
        except Exception:  # a snapshot bug must not take down the batch
            return None
        return Checkpoint(
            request=entry.response.request,
            system=entry.response.system,
            backend=entry.response.backend,
            snapshot=snapshot,
            slices=slices,
        )

    # -- checkpoint restore / resume ------------------------------------------

    def restore_execution(self, checkpoint: Checkpoint):
        """Rebuild a checkpoint's paused execution via its system's restorer."""
        system = self.systems.get(checkpoint.system)
        if system is None:
            raise ReproError(
                f"no registered system {checkpoint.system!r}; registered: {sorted(self.systems)}"
            )
        return system.restore_execution(checkpoint.snapshot, backend=checkpoint.backend)

    def resume(self, checkpoints: Sequence[Checkpoint], sequential: bool = False) -> List[Response]:
        """Continue checkpointed runs to completion; responses in input order.

        Each checkpoint — taken in this process, another worker, or a prior
        incarnation of the whole server — is restored through its system's
        snapshot restorer (recompiling machine artifacts deterministically)
        and driven like a freshly admitted batch.  Responses carry
        ``resumed=True``; ``slices`` counts post-restore slices only, while
        the checkpoint's own ``slices`` field preserves the earlier count.
        The combined outcome is observably identical to never having stopped.
        A checkpoint without a snapshot (streamed before its first slice)
        starts its request afresh through :meth:`prepare`, which is what
        restoring its initial state would do.  A checkpoint whose request
        :func:`~repro.serve.request.check_request` refuses, or that fails to
        restore (unknown system, version skew, tampered snapshot), fails
        alone, as its response's ``error``.

        A resumed request's ``deadline_seconds`` applies afresh to this
        attempt — the per-attempt reading, so granting a retry means
        granting its full budget — and an attempt that expires again carries
        a *new* checkpoint from where it stopped this time.
        """
        prepared: List[PreparedRequest] = []
        for checkpoint in checkpoints:
            response = Response(
                request=checkpoint.request,
                system=checkpoint.system,
                backend=checkpoint.backend,
                resumed=True,
            )
            try:
                check_request(checkpoint.request)
            except RequestError as error:
                response.error = f"RequestError: {error}"
                prepared.append(PreparedRequest(response))
                continue
            if self.fault_plan is not None and self.fault_plan.fire(
                "restore.tamper", request_id=checkpoint.request.request_id
            ):
                tampered = dict(checkpoint.snapshot or {})
                tampered["version"] = -1
                checkpoint = replace(checkpoint, snapshot=tampered)
            if checkpoint.snapshot is None:
                # A slice-0 checkpoint: restarting its request is restoring it.
                entry = self.prepare(checkpoint.request)
                entry.response.resumed = True
                prepared.append(entry)
                continue
            try:
                execution = self.restore_execution(checkpoint)
            except Exception as error:  # a bad checkpoint must not take down the batch
                response.error = f"{type(error).__name__}: {error}"
                prepared.append(PreparedRequest(response))
                continue
            prepared.append(PreparedRequest(response, execution))
        self._drive(prepared, sequential)
        return [entry.response for entry in prepared]

    def resume_stored(
        self, store: CheckpointStore, sequential: bool = False, gc: bool = True
    ) -> List[Response]:
        """Resume every loadable checkpoint in ``store``; responses in path order.

        The durable-restart entry point: scan the store (corrupt files are
        skipped, never fatal — each shows up as a response with a structured
        ``error`` naming its path), resume what loads, and *consume* each
        checkpoint whose request ran to completion by deleting its file — a
        finished run must not be resumed twice by the next restart.  With
        ``gc=True`` the store's age/size eviction then runs under the
        store's configured limits, so stale checkpoints (crashed runs nobody
        will resume, corrupt leftovers) age out instead of accumulating
        forever.
        """
        loadable, corrupt = store.scan()
        responses = self.resume([checkpoint for _path, checkpoint in loadable], sequential=sequential)
        for (path, _checkpoint), response in zip(loadable, responses):
            if response.error is None and response.result is not None:
                store.delete(path)
        for path, error in corrupt:
            failed = Response(request=Request(language="?", source=""), resumed=True)
            failed.error = str(error)
            responses.append(failed)
        if gc:
            store.gc()
        return responses

    # -- batched boundary crossings -------------------------------------------

    def batch_key(self, request: Request) -> Optional[Tuple[StoreKey, Optional[str], int]]:
        """The coalescing key for ``request``, or ``None`` when it must run alone.

        Two requests may share one VM instance only when *everything* that
        determines the run is identical: the :meth:`pipeline_key` (routed
        system, language, source), the resolved backend, and the fuel
        budget.  Every engine is a deterministic
        machine, so such requests share one outcome.  Analyze-only requests
        never coalesce: they start no VM instance, so there is nothing to
        share (and their compiles already dedupe through the pipeline LRU).
        """
        if request.analyze_only:
            return None
        store_key = self.pipeline_key(request)
        if store_key is None:
            return None
        backend = request.backend
        if backend is None:
            backend = self.systems[store_key[0]].target.default_backend
        return (store_key, backend, request.fuel)

    # -- cross-process cache sharing ------------------------------------------

    def pipeline_key(self, request: Request) -> Optional[StoreKey]:
        """The shared-store key for ``request``'s compile, or ``None``.

        ``None`` means the request does not route, so it cannot share a
        compile across processes.
        """
        try:
            system_name, system = self.route(request)
        except ReproError:
            return None
        frontend = system.frontend(request.language)
        key = frontend.cache_key(request.source)
        if key is None:
            return None
        return (system_name, key)

    def export_cache_entry(self, store_key: StoreKey) -> Optional[CompiledUnit]:
        """The cached unit under a shared-store key, or ``None``."""
        system_name, key = store_key
        system = self.systems.get(system_name)
        if system is None:
            return None
        try:
            frontend = system.frontend(key[0])
        except ReproError:
            return None
        return frontend.export_cache_entry(key)

    def import_cache_entry(self, store_key: StoreKey, unit: CompiledUnit) -> bool:
        """Insert a unit compiled elsewhere into the right frontend LRU."""
        system_name, key = store_key
        system = self.systems.get(system_name)
        if system is None:
            return False
        try:
            frontend = system.frontend(key[0])
        except ReproError:
            return False
        return frontend.import_cache_entry(key, unit)

    def submit(self, request: Request) -> Response:
        """Serve a single request (a batch of one)."""
        return self.serve([request])[0]

    # -- cache warming --------------------------------------------------------

    def warm_cache(self, hot_programs: Iterable[HotProgram]) -> int:
        """Pre-populate the pipeline LRUs from a hot-program list.

        Each entry is compiled through its frontend's memoized pipeline (and
        discarded), so later requests for the same ``(language, source)``
        hit the cache.  Returns the number of entries
        warmed; a malformed hot-list entry raises — the warm list is operator
        configuration, not user traffic, and silently skipping it would hide
        the misconfiguration until the cache misses show up in production.
        """
        warmed = 0
        for entry in hot_programs:
            if not isinstance(entry, Request):
                language, source = entry
                entry = Request(language=language, source=source)
            _name, system = self.route(entry)
            system.compile_source(entry.language, entry.source)
            warmed += 1
        return warmed

    # -- accounting -----------------------------------------------------------

    def cache_stats(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """Pipeline-cache statistics for every registered system."""
        return {name: system.cache_stats() for name, system in self.systems.items()}


def make_default_scheduler(
    slice_steps: int = 512, driver: Optional[StepSlicedDriver] = None
) -> Scheduler:
    """A scheduler over all three case-study systems (§3 refs, §4 affine, §5 l3)."""
    from repro.interop_affine import make_system as make_affine_system
    from repro.interop_l3 import make_system as make_l3_system
    from repro.interop_refs import make_system as make_refs_system

    systems = {
        "refs": make_refs_system(),
        "affine": make_affine_system(),
        "l3": make_l3_system(),
    }
    return Scheduler(systems, driver=driver or StepSlicedDriver(slice_steps))
