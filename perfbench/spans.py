"""Span tracing from outside the program: wrappers around public callables.

Nothing here edits ``repro``.  :class:`Tracer` replaces attributes on the
objects a workload built (frontend records, target registries, a scheduler,
a pool or router) and on :mod:`repro.serve.wire`, and hooks
:data:`gc.callbacks`.  Every wrapped call records one span -- its name, the
benchmark-assigned id of the call it belongs to, start, end and its parent
span -- in memory; :meth:`Tracer.restore` puts every original back.

Spans nest per thread, so a span's *self* time is its duration minus the
time its direct children cover.  A garbage collection is a span too: it
nests under whatever was running, so the self time of a frontend phase
excludes the collections that interrupted it.
"""

from __future__ import annotations

import gc
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class Span:
    """One timed call: its name, the call it belongs to, and its parent span."""

    __slots__ = ("name", "call", "start", "parent", "end", "child_seconds", "counts")

    def __init__(self, name: str, call: Optional[int], start: float, parent: Optional["Span"]):
        self.name = name
        self.call = call
        self.start = start
        self.parent = parent
        self.end = 0.0
        self.child_seconds = 0.0
        #: Counts recorded with the span (steps, bytes), when there are any.
        self.counts: Optional[Dict[str, float]] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds

    def count(self, key: str, value: float) -> None:
        if self.counts is None:
            self.counts = {}
        self.counts[key] = value

    def counted(self, key: str) -> float:
        return 0.0 if self.counts is None else self.counts.get(key, 0.0)


class Tracer:
    """Records spans for one traced phase and undoes its wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.call: Optional[int] = None
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # -- spans ------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, self.call, time.perf_counter(), stack[-1] if stack else None)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        while stack and stack.pop() is not span:
            pass  # an inner span whose call raised past its close
        if span.parent is not None:
            span.parent.child_seconds += span.seconds
        self.spans.append(span)

    def timed(self, name: str, function: Callable[..., Any], counter=None) -> Callable[..., Any]:
        """``function`` wrapped in a span; ``counter(span, args, result)`` may add counts."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = self.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                counter(span, args, result)
            return result

        return wrapper

    # -- installing wrappers ------------------------------------------------

    def patch(self, owner: Any, attribute: str, name: str, counter=None, wrap=None) -> None:
        """Replace ``owner.attribute`` by a timed wrapper (undone by :meth:`restore`).

        ``wrap(result)`` may replace what the wrapped call returns (the
        execution proxies use it).
        """
        original = getattr(owner, attribute)
        had_own = attribute in vars(owner)
        timed = self.timed(name, original, counter)
        replacement = timed if wrap is None else (lambda *a, **k: wrap(timed(*a, **k)))
        setattr(owner, attribute, replacement)

        def undo() -> None:
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

        self._undo.append(undo)

    def trace_frontends(self, systems: Dict[str, Any]) -> None:
        """Span every pipeline phase of every frontend of every system."""
        for system in systems.values():
            for frontend in (system.language_a, system.language_b):
                for phase in ("parse_expr", "typecheck", "compile", "analyze"):
                    if getattr(frontend, phase) is not None:
                        label = "parse" if phase == "parse_expr" else phase
                        self.patch(frontend, phase, f"frontend.{label}")

    def trace_machines(self, systems: Dict[str, Any]) -> None:
        """Span ``TargetBackend.start`` and ``step_n`` on what it returns."""
        for system_name, system in systems.items():
            self.patch(
                system.target,
                "start",
                "machine.start",
                wrap=lambda execution, system_name=system_name: _TracedExecution(
                    self, execution, system_name
                ),
            )

    def trace_gc(self) -> None:
        def callback(phase: str, info: Dict[str, int]) -> None:
            if phase == "start":
                self.open(f"gc.gen{info['generation']}")
            else:
                stack = self._stack()
                if stack and stack[-1].name.startswith("gc."):
                    self.close(stack[-1])

        gc.callbacks.append(callback)
        self._undo.append(lambda: gc.callbacks.remove(callback))

    def trace_wire(self, wire: Any) -> None:
        """Span the frame codec: ``encode_frame`` and ``_decode_body``, with frame sizes."""
        self.patch(
            wire, "encode_frame", "wire.encode", counter=lambda span, args, frame: span.count("bytes", len(frame))
        )
        self.patch(
            wire,
            "_decode_body",
            "wire.decode",
            counter=lambda span, args, body: span.count("bytes", len(args[1]) + wire._HEADER.size),
        )

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading spans ------------------------------------------------------

    def named(self, prefix: str) -> List[Span]:
        return [span for span in self.spans if span.name.startswith(prefix)]

    def self_seconds(self, name: str) -> float:
        return sum(span.self_seconds for span in self.spans if span.name == name)

    @staticmethod
    def within(span: Span, name: str) -> bool:
        """True when a span called ``name`` encloses ``span``."""
        parent = span.parent
        while parent is not None and parent.name != name:
            parent = parent.parent
        return parent is not None


class _TracedExecution:
    """An execution whose ``step_n`` slices are spans tagged with their system."""

    __slots__ = ("_tracer", "_execution", "_system")

    def __init__(self, tracer: Tracer, execution: Any, system: str):
        self._tracer = tracer
        self._execution = execution
        self._system = system

    def step_n(self, limit: int) -> Any:
        span = self._tracer.open("machine.step")
        try:
            result = self._execution.step_n(limit)
        finally:
            self._tracer.close(span)
        span.count(self._system, 1)
        if result is not None:
            span.count("steps", getattr(result, "steps", 0))
        return result

    def __getattr__(self, name: str) -> Any:
        return getattr(self._execution, name)


def gc_pauses(spans: List[Span]) -> List[Tuple[int, float]]:
    return [(int(span.name[len("gc.gen"):]), span.seconds) for span in spans if span.name.startswith("gc.")]
