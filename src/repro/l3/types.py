"""Types of L3, the linear-capability language of §5 (Fig. 11).

``τ ::= unit | bool | τ ⊗ τ | τ ⊸ τ | !τ | ptr ζ | cap ζ τ | ∀ζ. τ | ∃ζ. τ``

``ptr ζ`` is a freely copyable pointer to the abstract location ``ζ``;
``cap ζ τ`` is the *linear* capability to use that location at type ``τ``.
The ``Duplicable`` subset (unit, bool, ptr ζ, !τ) is what the §5 foreign-type
conversion ``⟨τ⟩ ∼ τ`` is restricted to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.core.errors import ParseError


@dataclass(frozen=True)
class UnitType:
    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True)
class BoolType:
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class TensorType:
    left: "Type"
    right: "Type"

    def __str__(self) -> str:
        return f"({self.left} ⊗ {self.right})"


@dataclass(frozen=True)
class LolliType:
    argument: "Type"
    result: "Type"

    def __str__(self) -> str:
        return f"({self.argument} ⊸ {self.result})"


@dataclass(frozen=True)
class BangType:
    body: "Type"

    def __str__(self) -> str:
        return f"!{self.body}"


@dataclass(frozen=True)
class PtrType:
    location: str

    def __str__(self) -> str:
        return f"(ptr {self.location})"


@dataclass(frozen=True)
class CapType:
    location: str
    stored: "Type"

    def __str__(self) -> str:
        return f"(cap {self.location} {self.stored})"


@dataclass(frozen=True)
class ForallLocType:
    binder: str
    body: "Type"

    def __str__(self) -> str:
        return f"(∀{self.binder}. {self.body})"


@dataclass(frozen=True)
class ExistsLocType:
    binder: str
    body: "Type"

    def __str__(self) -> str:
        return f"(∃{self.binder}. {self.body})"


Type = Union[UnitType, BoolType, TensorType, LolliType, BangType, PtrType, CapType, ForallLocType, ExistsLocType]

UNIT = UnitType()
BOOL = BoolType()


def reference_package(stored: Type, binder: str = "z") -> ExistsLocType:
    """``REF τ ≜ ∃ζ. cap ζ τ ⊗ !ptr ζ`` — the capability+pointer package (§5)."""
    return ExistsLocType(binder, TensorType(CapType(binder, stored), BangType(PtrType(binder))))


def is_duplicable(candidate: Type) -> bool:
    """The ``Duplicable`` subset of Fig. 11: unit, bool, ptr ζ, and !τ."""
    return isinstance(candidate, (UnitType, BoolType, PtrType, BangType))


def substitute_location(in_type: Type, name: str, replacement: str) -> Type:
    """Substitute a location variable ``[ζ ↦ ζ']`` in a type."""
    if isinstance(in_type, (UnitType, BoolType)):
        return in_type
    if isinstance(in_type, TensorType):
        return TensorType(
            substitute_location(in_type.left, name, replacement),
            substitute_location(in_type.right, name, replacement),
        )
    if isinstance(in_type, LolliType):
        return LolliType(
            substitute_location(in_type.argument, name, replacement),
            substitute_location(in_type.result, name, replacement),
        )
    if isinstance(in_type, BangType):
        return BangType(substitute_location(in_type.body, name, replacement))
    if isinstance(in_type, PtrType):
        return PtrType(replacement if in_type.location == name else in_type.location)
    if isinstance(in_type, CapType):
        location = replacement if in_type.location == name else in_type.location
        return CapType(location, substitute_location(in_type.stored, name, replacement))
    if isinstance(in_type, ForallLocType):
        if in_type.binder == name:
            return in_type
        return ForallLocType(in_type.binder, substitute_location(in_type.body, name, replacement))
    if isinstance(in_type, ExistsLocType):
        if in_type.binder == name:
            return in_type
        return ExistsLocType(in_type.binder, substitute_location(in_type.body, name, replacement))
    raise ParseError(f"unknown L3 type {in_type!r}")


def free_locations(in_type: Type) -> frozenset:
    if isinstance(in_type, (UnitType, BoolType)):
        return frozenset()
    if isinstance(in_type, (TensorType, LolliType)):
        left = in_type.left if isinstance(in_type, TensorType) else in_type.argument
        right = in_type.right if isinstance(in_type, TensorType) else in_type.result
        return free_locations(left) | free_locations(right)
    if isinstance(in_type, BangType):
        return free_locations(in_type.body)
    if isinstance(in_type, PtrType):
        return frozenset({in_type.location})
    if isinstance(in_type, CapType):
        return frozenset({in_type.location}) | free_locations(in_type.stored)
    if isinstance(in_type, (ForallLocType, ExistsLocType)):
        return free_locations(in_type.body) - {in_type.binder}
    raise ParseError(f"unknown L3 type {in_type!r}")
