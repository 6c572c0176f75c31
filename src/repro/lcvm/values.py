"""Runtime values of the environment-based LCVM machine.

The substitution machine (:mod:`repro.lcvm.machine`) represents values as
syntax — a value *is* the expression it reduced to.  The compiled CEK
machine (:mod:`repro.lcvm.cek`) instead uses runtime values with closures,
which is what makes it fast.  This module
holds the value representation plus the three bridges between the worlds:

* :func:`locations_of` — the GC roots inside a runtime value, used both by
  the machine's root scan and as the trace function of heaps storing
  runtime values (plugged into :class:`repro.lcvm.heap.Heap` via its
  ``trace`` hook);
* :func:`inject` — syntax value → runtime value (for pre-seeded heaps);
* :func:`reify` — runtime value → syntax value (for observable results).

A :class:`CClosure` carries the machine's compiled body, so :func:`inject`
builds closures through a callback and this module need not import the
machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Set, Tuple, Union

from repro.lcvm import syntax as s


@dataclass(frozen=True)
class UnitV:
    def __str__(self) -> str:
        return "()"


@dataclass(frozen=True)
class IntV:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class LocV:
    address: int

    def __str__(self) -> str:
        return f"ℓ{self.address}"


@dataclass(frozen=True)
class PairV:
    first: "RuntimeValue"
    second: "RuntimeValue"

    def __str__(self) -> str:
        return f"({self.first}, {self.second})"


@dataclass(frozen=True)
class InlV:
    body: "RuntimeValue"

    def __str__(self) -> str:
        return f"(inl {self.body})"


@dataclass(frozen=True)
class InrV:
    body: "RuntimeValue"

    def __str__(self) -> str:
        return f"(inr {self.body})"


#: Environments are immutable cons cells ``(name, value, parent)`` with
#: ``None`` as the empty environment — extension and capture are O(1).
Env = Optional[Tuple[str, "RuntimeValue", "Env"]]


class CClosure:
    """A closure over a pruned environment, with a pre-compiled body.

    ``roots`` caches :func:`locations_of` of the closure: ``None`` until the
    first scan reaches it, then the distinct locations it holds.  A closure
    never changes once built, so neither does that tuple.
    """

    __slots__ = ("parameter", "body", "node", "environment", "needs_param", "static_locations", "roots")

    def __init__(
        self,
        parameter: str,
        body: s.Expr,
        node: tuple,
        environment: Env,
        needs_param: bool,
        static_locations: Tuple[int, ...],
    ):
        self.parameter = parameter
        self.body = body  # syntax, so reify() works unchanged
        self.node = node
        self.environment = environment
        self.needs_param = needs_param
        self.static_locations = static_locations
        self.roots: Optional[Tuple[int, ...]] = None

    def env_bindings(self) -> Iterator[Tuple[str, "RuntimeValue"]]:
        cell = self.environment
        while cell is not None:
            yield cell[0], cell[1]
            cell = cell[2]

    def __str__(self) -> str:
        return f"<closure λ{self.parameter}>"


RuntimeValue = Union[UnitV, IntV, LocV, PairV, InlV, InrV, CClosure]


def _gather(stack: List[RuntimeValue], locations: Set[int], uncached: List[CClosure]) -> None:
    """Add the locations inside the values on ``stack`` to ``locations``.

    Closures contribute their cached roots; a closure whose roots are not
    cached yet goes on ``uncached`` instead.  Consumes ``stack``.
    """
    while stack:
        value = stack.pop()
        kind = type(value)
        if kind is LocV:
            locations.add(value.address)
        elif kind is CClosure:
            if value.roots is None:
                uncached.append(value)
            else:
                locations.update(value.roots)
        elif kind is PairV:
            stack.append(value.first)
            stack.append(value.second)
        elif kind is InlV or kind is InrV:
            stack.append(value.body)


def _closure_roots(closure: CClosure, uncached: List[CClosure]) -> Optional[Tuple[int, ...]]:
    """The distinct locations ``closure`` holds: its body's
    ``static_locations`` plus the roots of every value in its environment.

    The body's literal locations count because the substitution oracle
    finds them in its substituted program text.  ``None`` if a closure in that environment is not cached yet; those
    closures are pushed on ``uncached``.
    """
    locations = set(closure.static_locations)
    waiting = len(uncached)
    stack = []
    cell = closure.environment
    while cell is not None:
        stack.append(cell[1])
        cell = cell[2]
    _gather(stack, locations, uncached)
    return tuple(locations) if len(uncached) == waiting else None


def _cache_roots(uncached: List[CClosure]) -> None:
    """Cache the roots of every closure on ``uncached``.

    Closures nested in an environment are cached before the closure holding
    them, off an explicit stack, so nesting depth costs no Python recursion,
    and each closure is cached once.  Closures are immutable and built from
    older values, so the nesting has no cycles.
    """
    while uncached:
        closure = uncached[-1]
        if closure.roots is None:
            closure.roots = _closure_roots(closure, uncached)
            if closure.roots is None:
                continue
        uncached.pop()


def locations_of(value: RuntimeValue) -> Tuple[int, ...]:
    """The distinct heap locations held by a runtime value (its GC roots).

    A closure's are cached on it by the first call that reaches it, so a
    later scan costs one attribute read however deeply closures nest.
    """
    kind = type(value)
    if kind is LocV:
        return (value.address,)
    if kind is CClosure and value.roots is not None:
        return value.roots
    if kind is IntV or kind is UnitV:
        return ()
    locations: Set[int] = set()
    uncached: List[CClosure] = []
    _gather([value], locations, uncached)
    if uncached:
        _cache_roots(uncached)
        _gather([value], locations, uncached)
    return tuple(locations)


def inject(expr: s.Expr, closure: Callable[[str, s.Expr], RuntimeValue]) -> RuntimeValue:
    """Convert a closed syntax *value* into a runtime value.

    ``closure(parameter, body)`` builds the runtime closure of a lambda,
    which is closed, so its environment is empty.
    """
    if isinstance(expr, s.Unit):
        return UnitV()
    if isinstance(expr, s.Int):
        return IntV(expr.value)
    if isinstance(expr, s.Loc):
        return LocV(expr.address)
    if isinstance(expr, s.Pair):
        return PairV(inject(expr.first, closure), inject(expr.second, closure))
    if isinstance(expr, s.Inl):
        return InlV(inject(expr.body, closure))
    if isinstance(expr, s.Inr):
        return InrV(inject(expr.body, closure))
    if isinstance(expr, s.Lam):
        return closure(expr.parameter, expr.body)
    raise TypeError(f"not a closed LCVM value: {expr!r}")


def reify(value: RuntimeValue) -> s.Expr:
    """Convert a runtime value back into the syntax value it denotes.

    Closures become lambdas with their environment substituted away
    (innermost bindings first, so shadowing resolves exactly as the
    substitution machine would have).
    """
    if isinstance(value, UnitV):
        return s.Unit()
    if isinstance(value, IntV):
        return s.Int(value.value)
    if isinstance(value, LocV):
        return s.Loc(value.address)
    if isinstance(value, PairV):
        return s.Pair(reify(value.first), reify(value.second))
    if isinstance(value, InlV):
        return s.Inl(reify(value.body))
    if isinstance(value, InrV):
        return s.Inr(reify(value.body))
    if type(value) is CClosure:
        reified: s.Expr = s.Lam(value.parameter, value.body)
        # Only the free variables of the body need substituting; reified
        # runtime values are closed, so the set never grows.
        remaining = set(s.free_variables(reified))
        for name, bound in value.env_bindings():
            if not remaining:
                break
            if name not in remaining:
                continue
            reified = s.substitute(reified, name, reify(bound))
            remaining.discard(name)
        return reified
    raise TypeError(f"not an LCVM runtime value: {value!r}")
