"""Protocols describing the inputs to the framework (§2).

The framework takes as inputs two source languages, a target language, and a
compiler from each source into the target.  These protocols are intentionally
small; each case study package provides concrete implementations (parsers,
typecheckers, compilers, machines) and wraps them in :class:`LanguageFrontend`
records so that generic tooling — the multi-language driver, the benchmark
harness, the example scripts — can operate uniformly.

Two performance layers live here because every case study needs them:

* :class:`LanguageFrontend` memoizes its parse → typecheck → compile pipeline
  keyed on ``(language, source, typecheck arguments)``, so repeated boundary
  crossings (and repeated benchmark iterations) do not re-run the frontend;
* :class:`TargetBackend` is a *registry* of named evaluators for one target
  language (``substitution`` | ``bigstep`` | ``cek``), with a selectable
  default, so callers can trade the paper-faithful reference machine for the
  fast CEK substrate — or run several backends for differential testing.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import ReproError
from repro.core.snapshots import snapshot_backend_name

ParseFn = Callable[[str], Any]
TypecheckFn = Callable[..., Any]
CompileFn = Callable[..., Any]
RunFn = Callable[..., Any]
#: ``start_fn(target_code, fuel=...) -> execution`` where the execution
#: exposes ``step_n(limit) -> Optional[result]`` (None while still running).
StartFn = Callable[..., Any]
#: ``restore_fn(snapshot) -> execution`` rebuilding a paused resumable
#: execution from a versioned plain-data snapshot (see
#: :mod:`repro.core.snapshots`), recompiling any machine-level artifacts.
RestoreFn = Callable[[dict], Any]

#: ``(language, source, frozen typecheck kwargs)``.
CacheKey = Tuple[str, str, tuple]


def pipeline_cache_key(language: str, source: str, typecheck_kwargs: Optional[Dict[str, Any]] = None) -> Optional[CacheKey]:
    """The pipeline-cache key for a submission, or ``None`` when unkeyable.

    This is the *protocol-level* key format shared by every
    :class:`LanguageFrontend` LRU and by the cross-process pipeline-cache
    store (:mod:`repro.serve.pool`): a parent process can compute the key a
    worker's frontend will use without holding that frontend.  ``None``
    means a typecheck argument has no reliable value-equality surrogate, so
    the submission bypasses every cache (a wrong hit would return code
    compiled against a different typing context).

    Note the key does **not** name the interoperability *system*: two systems
    may serve the same language name with different compilers (MiniML lives
    in both §4 and §5), so any store shared across systems must pair this key
    with the system name.
    """
    if not typecheck_kwargs:
        return (language, source, ())
    try:
        frozen = tuple(sorted((name, _freeze(value)) for name, value in typecheck_kwargs.items()))
    except TypeError:
        return None
    return (language, source, frozen)


def _freeze(value: Any) -> Any:
    """Build a hashable *value-equality* surrogate for a typecheck argument.

    Environments are (nested) dicts of name → type; types are frozen
    dataclasses, so the common shapes all freeze.  Raises ``TypeError`` for
    anything without a reliable surrogate — callers treat that as "bypass
    the cache", never as a wrong hit.  Mere hashability is NOT enough: every
    plain object has a default identity hash, and keying on identity would
    return stale hits after in-place mutation, so only shapes with
    value-based equality are accepted.
    """
    if value is None:
        return value
    if isinstance(value, (str, int, float, bool, bytes, enum.Enum)):
        # Tag the concrete type: True == 1 == 1.0 in Python, but a typechecker
        # may well distinguish them, so they must not share a key.
        return (type(value).__name__, value)
    if isinstance(value, dict):
        return ("dict", tuple(sorted((_freeze(key), _freeze(item)) for key, item in value.items())))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(_freeze(item) for item in value))
    if isinstance(value, (set, frozenset)):
        return ("set", frozenset(_freeze(item) for item in value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        params = type(value).__dataclass_params__
        if params.frozen and params.eq:
            hash(value)  # raises TypeError when a field is unhashable
            return value
    raise TypeError(f"no reliable equality surrogate for {type(value).__name__!s}")


@dataclass
class LanguageFrontend:
    """A named source language with a parser, typechecker, and compiler.

    ``parse_expr`` and ``parse_type`` read surface syntax (s-expressions).
    ``typecheck`` infers the type of a closed term (case studies that support
    open boundary terms accept environment keyword arguments).
    ``compile`` translates a (well-typed) term to the target language.

    ``pipeline`` memoizes its result in an LRU bounded by ``cache_capacity``
    (least-recently-used entries are evicted past the bound); disable with
    ``cache_enabled = False`` or drop stale entries with :meth:`clear_cache`.
    """

    name: str
    parse_expr: ParseFn
    parse_type: ParseFn
    typecheck: TypecheckFn
    compile: CompileFn
    #: Optional target-level check run on every pipeline, right after
    #: compile: ``verify(unit)`` raises to reject the program (a structured
    #: frontend error, surfaced the same way typecheck errors are).
    verify: Optional[Callable[["CompiledUnit"], None]] = None
    #: Optional static-analysis pass, run on demand: the pipeline hands the
    #: hook to the unit, and the first read of ``CompiledUnit.analysis``
    #: calls ``analyze(unit) -> report`` and caches the (picklable) result on
    #: the unit.  A unit is analyzed before it is pickled, so the report
    #: rides the cross-process artifact store, wire frames and checkpoints
    #: with the compiled code it describes.
    analyze: Optional[Callable[["CompiledUnit"], Any]] = None
    #: Optional ``take_records() -> records``: hands over, and forgets, what
    #: the boundary hooks recorded while this pipeline typechecked and
    #: compiled.  The unit keeps the records as the input of its report.
    take_records: Optional[Callable[[], Any]] = None
    cache_enabled: bool = True
    cache_capacity: int = 256
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_imports: int = 0
    _cache: "OrderedDict[CacheKey, CompiledUnit]" = field(default_factory=OrderedDict, repr=False)

    def pipeline(self, source: str, **typecheck_kwargs: Any) -> "CompiledUnit":
        """Parse, typecheck, and compile ``source`` in one (memoized) call.

        The key is ``(language, source, frozen typecheck kwargs)``: keyword
        arguments (typing environments) are frozen to a sorted-tuple
        surrogate, so environment-carrying calls are cached too.  Arguments
        with no hashable form bypass the cache — a wrong hit would return
        code compiled against a different typing context, so unknown shapes
        always recompile.
        """
        if not self.cache_enabled:
            return self._run_pipeline(source, **typecheck_kwargs)
        key = self._cache_key(source, typecheck_kwargs)
        if key is None:
            return self._run_pipeline(source, **typecheck_kwargs)
        unit = self._cache.get(key)
        if unit is not None:
            self.cache_hits += 1
            self._cache.move_to_end(key)
            return unit
        unit = self._run_pipeline(source, **typecheck_kwargs)
        self.cache_misses += 1
        self._cache[key] = unit
        while self._cache and self.cache_capacity is not None and len(self._cache) > self.cache_capacity:
            self._cache.popitem(last=False)
            self.cache_evictions += 1
        return unit

    def _cache_key(self, source: str, typecheck_kwargs: Dict[str, Any]) -> Optional[CacheKey]:
        return pipeline_cache_key(self.name, source, typecheck_kwargs)

    # -- cross-process cache sharing hooks ------------------------------------

    def cache_key(self, source: str, typecheck_kwargs: Optional[Dict[str, Any]] = None) -> Optional[CacheKey]:
        """The LRU key :meth:`pipeline` would use (``None`` = uncacheable)."""
        return pipeline_cache_key(self.name, source, dict(typecheck_kwargs or {}))

    def export_cache_entry(self, key: CacheKey) -> Optional["CompiledUnit"]:
        """The cached unit under ``key``, or ``None`` — without touching LRU
        order or the hit/miss counters (exports are bookkeeping, not use)."""
        return self._cache.get(key)

    def import_cache_entry(self, key: CacheKey, unit: "CompiledUnit") -> bool:
        """Insert an externally-compiled unit under ``key``; True if inserted.

        This is the receiving side of cross-process pipeline-cache sharing: a
        worker imports ``(key, unit)`` pairs another process compiled and
        published, so its next :meth:`pipeline` call for that key is a hit
        without re-running parse → typecheck → compile.  A key that is
        already cached is left alone (the resident unit keeps its identity,
        which the machine-level compiled memos key on) and refreshed in LRU
        order.  Imports count in ``cache_imports``, not as hits or misses,
        and evict past ``cache_capacity`` like any other insertion.
        """
        if not self.cache_enabled or key is None:
            return False
        if key in self._cache:
            self._cache.move_to_end(key)
            return False
        self._cache[key] = unit
        self.cache_imports += 1
        while self._cache and self.cache_capacity is not None and len(self._cache) > self.cache_capacity:
            self._cache.popitem(last=False)
            self.cache_evictions += 1
        return True

    def _run_pipeline(self, source: str, **typecheck_kwargs: Any) -> "CompiledUnit":
        try:
            term = self.parse_expr(source)
            inferred = self.typecheck(term, **typecheck_kwargs)
            compiled = self.compile(term)
        finally:
            # Taken even when a stage raises, so a rejected program leaves
            # nothing behind in the hooks' shared maps.
            records = self.take_records() if self.take_records is not None else None
        unit = CompiledUnit(
            language=self.name,
            term=term,
            type=inferred,
            target_code=compiled,
            records=records,
            analyze=self.analyze,
        )
        if self.verify is not None:
            self.verify(unit)
        return unit

    def clear_cache(self) -> None:
        self._cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.cache_imports = 0

    def cache_stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._cache),
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "evictions": self.cache_evictions,
            "imports": self.cache_imports,
            "capacity": self.cache_capacity,
        }


class BlockingExecution:
    """Compatibility shim giving non-resumable backends the ``step_n`` protocol.

    The wrapped backend runs to completion inside the first ``step_n`` call —
    one oversized slice that ignores ``limit``.  Every *built-in* backend in
    all three systems now registers a genuinely resumable execution factory
    (the oracles included), so nothing in this repository takes this path
    anymore; it remains only so third-party ``register_backend`` callers get
    a working (if latency-unbounded) execution without writing a factory,
    and it is pinned by a regression test.  Backend choice and fuel stay
    per-execution, exactly as for the resumable machines.
    """

    __slots__ = ("_run", "_target_code", "_fuel", "result")

    def __init__(self, run_fn: RunFn, target_code: Any, fuel: int):
        self._run = run_fn
        self._target_code = target_code
        self._fuel = fuel
        self.result: Optional[Any] = None

    def step_n(self, limit: int) -> Any:
        if self.result is None:
            self.result = self._run(self._target_code, fuel=self._fuel)
        return self.result


class ResumableExecution:
    """A machine-level resumable execution plus a result normalizer.

    Machine ``step_n`` slices yield native ``MachineResult`` objects;
    ``normalize`` rewrites the final one into the framework's uniform result
    shape (the same normalization the one-shot backend wrappers apply), so a
    scheduler observes identical outcomes whether a program ran sliced or
    uninterrupted.
    """

    __slots__ = ("_execution", "_normalize", "result")

    def __init__(self, execution: Any, normalize: Callable[[Any], Any]):
        self._execution = execution
        self._normalize = normalize
        self.result: Optional[Any] = None

    def step_n(self, limit: int) -> Optional[Any]:
        if self.result is not None:
            return self.result
        raw = self._execution.step_n(limit)
        if raw is None:
            return None
        self.result = self._normalize(raw)
        return self.result

    # -- snapshots (the serving layer's migration/checkpoint hooks) -----------

    @property
    def machine(self) -> Any:
        """The underlying machine-level execution object."""
        return self._execution

    def can_snapshot(self) -> bool:
        """True when the wrapped machine reifies its paused state as data."""
        return hasattr(self._execution, "snapshot")

    def snapshot(self) -> dict:
        """Reify the paused machine as a versioned, process-portable dict.

        Delegates to the machine's own ``snapshot()`` (every built-in backend
        has one); restore the result through the owning target's
        :meth:`TargetBackend.restore`, which re-wraps the rebuilt machine
        with this backend's normalizer.
        """
        if not self.can_snapshot():
            raise ReproError(
                f"{type(self._execution).__name__} does not support machine-state snapshots"
            )
        return self._execution.snapshot()


@dataclass
class TargetBackend:
    """A target language together with its registry of evaluator backends.

    The common shape is three backends per target: ``substitution`` (the
    paper-faithful reference machine), ``bigstep`` (environment-based
    recursive evaluator), and ``cek`` (the fast production machine).  ``run``
    remains the default-backend runner for backward compatibility, so
    ``backend.run(code, fuel=...)`` keeps working.

    ``executions`` is the *resumable* side of the registry: backends whose
    machines support bounded-slice stepping register a ``start_fn`` here, and
    :meth:`start` hands out per-request execution objects (falling back to a
    :class:`BlockingExecution` wrapper for one-shot backends), which is what
    the serving layer interleaves.
    """

    name: str
    run: Optional[RunFn] = None
    pretty: Optional[Callable[[Any], str]] = None
    backends: Dict[str, RunFn] = field(default_factory=dict)
    default_backend: Optional[str] = None
    executions: Dict[str, StartFn] = field(default_factory=dict)
    restores: Dict[str, RestoreFn] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.run is not None and not self.backends:
            self.backends["substitution"] = self.run
        if self.default_backend is None and self.backends:
            self.default_backend = next(iter(self.backends))
        if self.default_backend is not None and self.default_backend not in self.backends:
            raise ReproError(
                f"target {self.name!r} has no backend {self.default_backend!r}; "
                f"registered: {sorted(self.backends)}"
            )
        if self.run is None:
            if not self.backends:
                raise ReproError(f"target {self.name!r} needs a runner or at least one backend")
            self.run = self.backends[self.default_backend]
        unknown = set(self.executions) - set(self.backends)
        if unknown:
            raise ReproError(
                f"target {self.name!r} registers executions for unknown backends "
                f"{sorted(unknown)}; registered: {sorted(self.backends)}"
            )
        unknown_restores = set(self.restores) - set(self.backends)
        if unknown_restores:
            raise ReproError(
                f"target {self.name!r} registers snapshot restorers for unknown backends "
                f"{sorted(unknown_restores)}; registered: {sorted(self.backends)}"
            )

    # -- registry -------------------------------------------------------------

    def register_backend(self, name: str, run_fn: RunFn, default: bool = False) -> None:
        self.backends[name] = run_fn
        if default or self.default_backend is None:
            self.select_backend(name)

    def register_execution(self, name: str, start_fn: StartFn) -> None:
        """Register a resumable-execution factory for backend ``name``."""
        if name not in self.backends:
            raise ReproError(
                f"target {self.name!r} has no backend {name!r}; registered: {sorted(self.backends)}"
            )
        self.executions[name] = start_fn

    def register_restore(self, name: str, restore_fn: RestoreFn) -> None:
        """Register a snapshot restorer for backend ``name``."""
        if name not in self.backends:
            raise ReproError(
                f"target {self.name!r} has no backend {name!r}; registered: {sorted(self.backends)}"
            )
        self.restores[name] = restore_fn

    def select_backend(self, name: str) -> None:
        """Make ``name`` the default backend (used by ``run`` / ``run_with``)."""
        if name not in self.backends:
            raise ReproError(
                f"target {self.name!r} has no backend {name!r}; registered: {sorted(self.backends)}"
            )
        self.default_backend = name
        self.run = self.backends[name]

    def backend(self, name: Optional[str] = None) -> RunFn:
        """Resolve a backend by name (``None`` means the default backend)."""
        resolved = name if name is not None else self.default_backend
        if resolved is None or resolved not in self.backends:
            raise ReproError(
                f"target {self.name!r} has no backend {resolved!r}; registered: {sorted(self.backends)}"
            )
        return self.backends[resolved]

    def backend_names(self) -> List[str]:
        return list(self.backends)

    def run_with(self, target_code: Any, backend: Optional[str] = None, **kwargs: Any) -> Any:
        """Run compiled code on a named backend (default backend when None)."""
        return self.backend(backend)(target_code, **kwargs)

    def start(self, target_code: Any, backend: Optional[str] = None, fuel: int = 100_000) -> Any:
        """Start a resumable execution on a named backend (default when None).

        The returned object exposes ``step_n(limit)``: run at most ``limit``
        machine transitions, returning the backend-normalized result when the
        program halts (including on fuel exhaustion) or ``None`` while it can
        still make progress.  Every built-in backend registers a genuinely
        resumable factory (no backend may exceed the caller's slice budget
        per turn); only third-party backends registered without a factory
        fall back to the :class:`BlockingExecution` shim, which completes in
        its first slice.
        """
        resolved = backend if backend is not None else self.default_backend
        run_fn = self.backend(resolved)  # raises ReproError for unknown names
        factory = self.executions.get(resolved)
        if factory is not None:
            return factory(target_code, fuel=fuel)
        return BlockingExecution(run_fn, target_code, fuel)

    def restore(self, snapshot: dict, backend: Optional[str] = None) -> Any:
        """Rebuild a paused resumable execution from a machine-state snapshot.

        ``backend`` defaults to the backend the snapshot itself names: by
        convention every snapshot ``kind`` tag ends in the registry name of
        the backend that wrote it (``"lcvm/cek-compiled"`` → backend
        ``cek-compiled``), so a bare snapshot dict routes itself.  The
        restorer recompiles any process-local machine artifacts (compiled
        handler graphs, op arrays) deterministically, so the resumed run is
        observably identical — address-for-address — to the uninterrupted
        one.
        """
        resolved = backend if backend is not None else snapshot_backend_name(snapshot)
        restore_fn = self.restores.get(resolved)
        if restore_fn is None:
            raise ReproError(
                f"target {self.name!r} has no snapshot restorer for backend {resolved!r}; "
                f"registered: {sorted(self.restores)}"
            )
        return restore_fn(snapshot)


@dataclass
class CompiledUnit:
    """The result of pushing one source term through a frontend.

    ``analysis`` is the frontend's static-analysis report when the frontend
    registered an analyzer (``None`` otherwise).  It is built on its first
    read, from the pending ``analyze`` hook and the boundary ``records`` the
    pipeline took; both are dropped once the report is cached, so a program
    that only runs never pays for it.  The report is plain data (see
    :mod:`repro.analysis.report`), and pickling a unit builds it first, so a
    unit exported through the cross-process cache hooks carries its analysis
    with it and an unpickled unit holds no hook.
    """

    language: str
    term: Any
    type: Any
    target_code: Any
    #: The boundary records the pending analysis reads (``None`` once built).
    records: Any = field(default=None, repr=False, compare=False)
    #: The frontend's ``analyze`` hook until the report's first read.
    analyze: Optional[Callable[["CompiledUnit"], Any]] = field(default=None, repr=False, compare=False)
    _analysis: Any = field(default=None, init=False, repr=False, compare=False)

    @property
    def analysis(self) -> Any:
        if self.analyze is not None:
            self._analysis = self.analyze(self)
            self.analyze = None
            self.records = None
        return self._analysis

    def __getstate__(self) -> Dict[str, Any]:
        # The hook and the id-keyed records mean nothing outside this
        # process, so the report is built before the unit leaves it.
        return {**self.__dict__, "_analysis": self.analysis, "analyze": None, "records": None}
