"""Affi: the affine language of case study 2 (§4)."""

from repro.affi import syntax, types
from repro.affi.compiler import STATIC_SUFFIX, compile_expr, is_static_name, static_name, thunk_guard
from repro.affi.parser import parse_expr, parse_type
from repro.affi.typechecker import UNRESTRICTED, Annotations, check_with_usage, typecheck
from repro.affi.types import (
    BOOL,
    INT,
    UNIT,
    BangType,
    BoolType,
    DynLolliType,
    IntType,
    Mode,
    StatLolliType,
    TensorType,
    Type,
    UnitType,
    WithType,
)

__all__ = [
    "syntax",
    "types",
    "STATIC_SUFFIX",
    "compile_expr",
    "is_static_name",
    "static_name",
    "thunk_guard",
    "parse_expr",
    "UNRESTRICTED",
    "Annotations",
    "check_with_usage",
    "typecheck",
    "BOOL",
    "INT",
    "UNIT",
    "BangType",
    "BoolType",
    "DynLolliType",
    "IntType",
    "Mode",
    "StatLolliType",
    "TensorType",
    "Type",
    "UnitType",
    "WithType",
    "parse_type",
]
