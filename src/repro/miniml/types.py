"""Types of MiniML (Fig. 6), plus the §5 foreign type ``⟨τ⟩``.

``τ ::= unit | int | τ × τ | τ + τ | τ → τ | ∀α.τ | α | ref τ | ⟨τ_L3⟩``

The foreign type ``⟨τ⟩`` opaquely embeds an L3 type into MiniML's type grammar
(§5): MiniML has no introduction or elimination forms for it, but it can
instantiate type abstractions and flow through functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union

from repro.core.errors import ParseError


@dataclass(frozen=True)
class UnitType:
    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True)
class IntType:
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class ProdType:
    left: "Type"
    right: "Type"

    def __str__(self) -> str:
        return f"({self.left} * {self.right})"


@dataclass(frozen=True)
class SumType:
    left: "Type"
    right: "Type"

    def __str__(self) -> str:
        return f"({self.left} + {self.right})"


@dataclass(frozen=True)
class FunType:
    argument: "Type"
    result: "Type"

    def __str__(self) -> str:
        return f"({self.argument} -> {self.result})"


@dataclass(frozen=True)
class TypeVar:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ForallType:
    binder: str
    body: "Type"

    def __str__(self) -> str:
        return f"(∀{self.binder}. {self.body})"


@dataclass(frozen=True)
class RefType:
    referent: "Type"

    def __str__(self) -> str:
        return f"(ref {self.referent})"


@dataclass(frozen=True)
class ForeignType:
    """``⟨τ⟩`` — an opaquely embedded L3 type (§5)."""

    embedded: Any

    def __str__(self) -> str:
        return f"⟨{self.embedded}⟩"


Type = Union[UnitType, IntType, ProdType, SumType, FunType, TypeVar, ForallType, RefType, ForeignType]

UNIT = UnitType()
INT = IntType()


def substitute_type(in_type: Type, name: str, replacement: Type) -> Type:
    """Capture-avoiding substitution ``[α ↦ τ']τ``."""
    if isinstance(in_type, TypeVar):
        return replacement if in_type.name == name else in_type
    if isinstance(in_type, (UnitType, IntType, ForeignType)):
        return in_type
    if isinstance(in_type, ProdType):
        return ProdType(substitute_type(in_type.left, name, replacement), substitute_type(in_type.right, name, replacement))
    if isinstance(in_type, SumType):
        return SumType(substitute_type(in_type.left, name, replacement), substitute_type(in_type.right, name, replacement))
    if isinstance(in_type, FunType):
        return FunType(substitute_type(in_type.argument, name, replacement), substitute_type(in_type.result, name, replacement))
    if isinstance(in_type, RefType):
        return RefType(substitute_type(in_type.referent, name, replacement))
    if isinstance(in_type, ForallType):
        if in_type.binder == name:
            return in_type
        return ForallType(in_type.binder, substitute_type(in_type.body, name, replacement))
    raise ParseError(f"unknown MiniML type {in_type!r}")


def free_type_variables(in_type: Type) -> frozenset:
    if isinstance(in_type, TypeVar):
        return frozenset({in_type.name})
    if isinstance(in_type, (UnitType, IntType, ForeignType)):
        return frozenset()
    if isinstance(in_type, (ProdType, SumType)):
        return free_type_variables(in_type.left) | free_type_variables(in_type.right)
    if isinstance(in_type, FunType):
        return free_type_variables(in_type.argument) | free_type_variables(in_type.result)
    if isinstance(in_type, RefType):
        return free_type_variables(in_type.referent)
    if isinstance(in_type, ForallType):
        return free_type_variables(in_type.body) - {in_type.binder}
    raise ParseError(f"unknown MiniML type {in_type!r}")
