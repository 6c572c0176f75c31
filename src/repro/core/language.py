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
* :class:`TargetBackend` names the two engines of one target language
  (``substitution`` | ``cek-compiled``) and its default, so callers can
  trade the paper-faithful reference machine for the fast CEK substrate —
  or run both for differential testing.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core.errors import ReproError
from repro.core.snapshots import snapshot_backend_name

ParseFn = Callable[[str], Any]
TypecheckFn = Callable[..., Any]
CompileFn = Callable[..., Any]
#: ``start_fn(unit, fuel=...) -> execution`` where ``unit`` is the
#: :class:`CompiledUnit` to run and the execution exposes
#: ``step_n(limit) -> Optional[result]`` (None while still running).
StartFn = Callable[..., Any]
#: ``restore_fn(snapshot) -> execution`` rebuilding a paused resumable
#: execution from a versioned plain-data snapshot (see
#: :mod:`repro.core.snapshots`), recompiling any machine-level artifacts.
RestoreFn = Callable[[dict], Any]

#: ``(language, source, frozen typecheck kwargs)``.
CacheKey = Tuple[str, str, tuple]

#: How many units a frontend's pipeline LRU keeps by default — and so, since
#: a unit's machine code lives as long as the unit, how much code it keeps.
DEFAULT_CACHE_CAPACITY = 256


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
    cache_capacity: int = DEFAULT_CACHE_CAPACITY
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
        already cached is left alone (the resident unit keeps the machine
        code it has already built) and refreshed in LRU order.  Imports
        count in ``cache_imports``, not as hits or misses, and evict past
        ``cache_capacity`` like any other insertion.
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


class ResumableExecution:
    """A machine-level resumable execution plus a result normalizer.

    Machine ``step_n`` slices yield native ``MachineResult`` objects;
    ``normalize`` rewrites the final one into the framework's uniform result
    shape, so a scheduler observes identical outcomes whether a program ran
    sliced or uninterrupted.
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


class Engine(NamedTuple):
    """One backend of a target: how to start a unit on it, and how to
    restore an execution it paused."""

    start: StartFn
    restore: RestoreFn


@dataclass
class TargetBackend:
    """A target language and its engines, by backend name.

    Every target has two: ``substitution`` (the paper-faithful reference
    machine, the differential oracle) and ``cek-compiled`` (the fast
    machine, normally the default).  :meth:`start` hands out per-request
    resumable executions, which is what the serving layer interleaves; a
    whole run is one slice of one (see
    :meth:`~repro.core.interop.InteropSystem.run_unit`).
    """

    name: str
    engines: Dict[str, Engine]
    default_backend: str

    def backend_names(self) -> List[str]:
        return list(self.engines)

    def _engine(self, name: str) -> Engine:
        engine = self.engines.get(name)
        if engine is None:
            raise ReproError(
                f"target {self.name!r} has no backend {name!r}; registered: {sorted(self.engines)}"
            )
        return engine

    def start(self, unit: "CompiledUnit", backend: Optional[str] = None, fuel: int = 100_000) -> Any:
        """Start a resumable execution of ``unit`` on a named backend (default when None).

        A backend that compiles to machine code builds it on the unit's first
        start there and keeps it in :attr:`CompiledUnit.machine_code`.
        The returned object exposes ``step_n(limit)``: run at most ``limit``
        machine transitions, returning the backend-normalized result when the
        program halts (including on fuel exhaustion) or ``None`` while it can
        still make progress.
        """
        return self._engine(backend if backend is not None else self.default_backend).start(unit, fuel=fuel)

    def restore(self, snapshot: dict, backend: Optional[str] = None) -> Any:
        """Rebuild a paused resumable execution from a machine-state snapshot.

        ``backend`` defaults to the backend the snapshot itself names: by
        convention every snapshot ``kind`` tag ends in the name of the
        backend that wrote it (``"lcvm/cek-compiled"`` → backend
        ``cek-compiled``), so a bare snapshot dict routes itself.  The
        restorer recompiles any process-local machine artifacts (compiled
        handler graphs, op arrays) deterministically, so the resumed run is
        observably identical — address-for-address — to the uninterrupted
        one.
        """
        resolved = backend if backend is not None else snapshot_backend_name(snapshot)
        return self._engine(resolved).restore(snapshot)


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

    ``machine_code`` maps backend names to the machine code built for this
    unit: process-local, never pickled or compared, it dies with the unit
    (for a cached unit, when the frontend's LRU evicts it).
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
    machine_code: Optional[Dict[str, Any]] = field(default=None, init=False, repr=False, compare=False)

    @property
    def analysis(self) -> Any:
        if self.analyze is not None:
            self._analysis = self.analyze(self)
            self.analyze = None
            self.records = None
        return self._analysis

    def __getstate__(self) -> Dict[str, Any]:
        # The hook, the id-keyed records and the machine code mean nothing
        # outside this process: the report is built, the code left behind.
        return {**self.__dict__, "_analysis": self.analysis, "analyze": None, "records": None, "machine_code": None}


class UnitCode:
    """One machine's view of the code units keep, with the counters behind
    its ``compiled_cache_stats()``."""

    __slots__ = ("hits", "misses", "live")

    def __init__(self) -> None:
        self.hits = self.misses = self.live = 0

    def get(self, unit: CompiledUnit, backend: str, build: Callable[[Any], Any]) -> Any:
        """``unit``'s code for ``backend``: ``build(unit.target_code)``, kept on the unit."""
        codes = unit.machine_code
        if codes is None:
            codes = unit.machine_code = _MachineCode(self)
        code = codes.get(backend)
        if code is None:
            self.misses += 1
            code = codes[backend] = build(unit.target_code)
        else:
            self.hits += 1
        return code

    def stats(self) -> Dict[str, int]:
        return {"entries": self.live, "hits": self.hits, "misses": self.misses, "capacity": DEFAULT_CACHE_CAPACITY}


class _MachineCode(dict):
    """A unit's machine code by backend name; counted live while it exists."""

    __slots__ = ("_owner",)

    def __init__(self, owner: UnitCode):
        super().__init__()
        self._owner = owner
        owner.live += 1

    def __del__(self) -> None:
        self._owner.live -= 1
