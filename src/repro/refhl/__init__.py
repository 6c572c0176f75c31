"""RefHL: the higher-level source language of case study 1 (§3)."""

from repro.refhl import syntax
from repro.refhl.compiler import compile_expr
from repro.refhl.parser import GRAMMAR
from repro.refhl.typechecker import typecheck
from repro.refhl.types import (
    BOOL,
    UNIT,
    BoolType,
    FunType,
    ProdType,
    RefType,
    SumType,
    Type,
    UnitType,
)
from repro.refll.parser import GRAMMAR as _REFLL
from repro.util.grammar import wire

# Standalone RefHL reads its boundary payloads as RefLL, as in §3.
parse_expr = wire(GRAMMAR, _REFLL)[0].parse_expr
parse_type = GRAMMAR.parse_type

__all__ = [
    "syntax",
    "compile_expr",
    "parse_expr",
    "typecheck",
    "BOOL",
    "UNIT",
    "BoolType",
    "FunType",
    "ProdType",
    "RefType",
    "SumType",
    "Type",
    "UnitType",
    "parse_type",
]
