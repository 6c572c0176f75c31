"""Types of RefHL, the higher-level source language of §3 (Fig. 1).

``τ ::= unit | bool | τ + τ | τ × τ | τ → τ | ref τ``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union



@dataclass(frozen=True)
class UnitType:
    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True)
class BoolType:
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class SumType:
    left: "Type"
    right: "Type"

    def __str__(self) -> str:
        return f"({self.left} + {self.right})"


@dataclass(frozen=True)
class ProdType:
    left: "Type"
    right: "Type"

    def __str__(self) -> str:
        return f"({self.left} * {self.right})"


@dataclass(frozen=True)
class FunType:
    argument: "Type"
    result: "Type"

    def __str__(self) -> str:
        return f"({self.argument} -> {self.result})"


@dataclass(frozen=True)
class RefType:
    referent: "Type"

    def __str__(self) -> str:
        return f"(ref {self.referent})"


Type = Union[UnitType, BoolType, SumType, ProdType, FunType, RefType]

UNIT = UnitType()
BOOL = BoolType()
