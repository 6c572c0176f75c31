"""Runtime values of the environment-based LCVM machine.

The substitution machine (:mod:`repro.lcvm.machine`) represents values as
syntax — a value *is* the expression it reduced to.  The compiled CEK
machine (:mod:`repro.lcvm.cek`) instead uses runtime values with closures,
which is what makes it fast.  This module
holds the value representation plus the three bridges between the worlds:

* :func:`locations_of` — the GC trace function for heaps storing runtime
  values (plugged into :class:`repro.lcvm.heap.Heap` via its ``trace`` hook);
* :func:`inject` — syntax value → runtime value (for pre-seeded heaps);
* :func:`reify` — runtime value → syntax value (for observable results).

Closures are the CEK machine's own (:class:`repro.lcvm.cek.CClosure`, which
:func:`inject` builds through a callback so this module need not import the
machine), so they are handled structurally: any value with an
``env_bindings()`` method iterating ``(name, value)`` pairs innermost-first
is treated as a closure over ``parameter``/``body``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Union

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


#: Closures are handled structurally; see the module docstring.
RuntimeValue = Union[UnitV, IntV, LocV, PairV, InlV, InrV, object]


def _is_closure(value: object) -> bool:
    return hasattr(value, "env_bindings")


def locations_of(value: RuntimeValue) -> List[int]:
    """All heap locations reachable inside a runtime value (GC roots).

    Shared closure environments are visited once (keyed by identity), keeping
    the walk linear even when many closures capture the same environment.
    """
    locations: List[int] = []
    seen_envs: set = set()
    stack = [value]
    while stack:
        current = stack.pop()
        if isinstance(current, LocV):
            locations.append(current.address)
        elif isinstance(current, PairV):
            stack.append(current.first)
            stack.append(current.second)
        elif isinstance(current, (InlV, InrV)):
            stack.append(current.body)
        elif _is_closure(current):
            # Compiled closures precompute the locations literally mentioned
            # by their body syntax (the substitution oracle counts those as
            # roots because they sit in the substituted program text).
            static = getattr(current, "static_locations", None)
            if static:
                locations.extend(static)
            marker = id(current.environment)
            if marker not in seen_envs:
                seen_envs.add(marker)
                for _name, bound in current.env_bindings():
                    stack.append(bound)
    return locations


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
    if _is_closure(value):
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
