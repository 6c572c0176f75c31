"""MiniML: the unrestricted, garbage-collected ML of case studies 2 and 3 (§4, §5)."""

from repro.miniml import syntax, types
from repro.miniml.compiler import compile_expr
from repro.miniml.parser import parse_expr, parse_type
from repro.miniml.typechecker import check_with_usage, typecheck
from repro.miniml.types import (
    INT,
    UNIT,
    ForallType,
    ForeignType,
    FunType,
    IntType,
    ProdType,
    RefType,
    SumType,
    Type,
    TypeVar,
    UnitType,
    substitute_type,
)

__all__ = [
    "syntax",
    "types",
    "compile_expr",
    "parse_expr",
    "check_with_usage",
    "typecheck",
    "INT",
    "UNIT",
    "ForallType",
    "ForeignType",
    "FunType",
    "IntType",
    "ProdType",
    "RefType",
    "SumType",
    "Type",
    "TypeVar",
    "UnitType",
    "parse_type",
    "substitute_type",
]
