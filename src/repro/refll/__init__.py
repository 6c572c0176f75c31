"""RefLL: the lower-level source language of case study 1 (§3)."""

from repro.refll import syntax
from repro.refll.compiler import compile_expr
from repro.refhl.parser import GRAMMAR as _REFHL
from repro.refll.parser import GRAMMAR
from repro.refll.typechecker import typecheck
from repro.refll.types import INT, ArrayType, FunType, IntType, RefType, Type
from repro.util.grammar import wire

# Standalone RefLL reads its boundary payloads as RefHL, as in §3.
parse_expr = wire(GRAMMAR, _REFHL)[0].parse_expr
parse_type = GRAMMAR.parse_type

__all__ = [
    "syntax",
    "compile_expr",
    "parse_expr",
    "typecheck",
    "INT",
    "ArrayType",
    "FunType",
    "IntType",
    "RefType",
    "Type",
    "parse_type",
]
