"""Types of Affi, the affine language of §4 (Fig. 6).

``τ ::= unit | bool | int | τ ⊸ τ | τ ⊸• τ | !τ | τ & τ | τ ⊗ τ``

The two arrows are the paper's key device: ``⊸`` ("dynamic") functions may be
passed across the boundary to MiniML and therefore protect their argument with
a run-time guard, while ``⊸•`` ("static") functions never leave Affi and incur
no guard — their at-most-once discipline is enforced purely statically (and,
in the model, by phantom flags).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union



class Mode(enum.Enum):
    """Binding mode of an affine variable/arrow: dynamic (◦) or static (•)."""

    DYNAMIC = "dynamic"
    STATIC = "static"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return "◦" if self is Mode.DYNAMIC else "•"


@dataclass(frozen=True)
class UnitType:
    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True)
class BoolType:
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class IntType:
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class DynLolliType:
    """``τ ⊸ τ`` — an affine function that may cross the language boundary."""

    argument: "Type"
    result: "Type"

    def __str__(self) -> str:
        return f"({self.argument} ⊸ {self.result})"


@dataclass(frozen=True)
class StatLolliType:
    """``τ ⊸• τ`` — an affine function that never crosses the boundary."""

    argument: "Type"
    result: "Type"

    def __str__(self) -> str:
        return f"({self.argument} ⊸• {self.result})"


@dataclass(frozen=True)
class BangType:
    """``!τ`` — an unrestricted (duplicable) value."""

    body: "Type"

    def __str__(self) -> str:
        return f"!{self.body}"


@dataclass(frozen=True)
class WithType:
    """``τ & τ`` — additive product (the components share resources)."""

    left: "Type"
    right: "Type"

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True)
class TensorType:
    """``τ ⊗ τ`` — multiplicative product (the components split resources)."""

    left: "Type"
    right: "Type"

    def __str__(self) -> str:
        return f"({self.left} ⊗ {self.right})"


Type = Union[UnitType, BoolType, IntType, DynLolliType, StatLolliType, BangType, WithType, TensorType]

UNIT = UnitType()
BOOL = BoolType()
INT = IntType()
