"""Types of RefLL, the lower-level source language of §3 (Fig. 1).

``τ̄ ::= int | [τ̄] | τ̄ → τ̄ | ref τ̄``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union



@dataclass(frozen=True)
class IntType:
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class ArrayType:
    element: "Type"

    def __str__(self) -> str:
        return f"[{self.element}]"


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


Type = Union[IntType, ArrayType, FunType, RefType]

INT = IntType()
