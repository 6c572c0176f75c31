"""L3: the linear-capability language of case study 3 (§5)."""

from repro.l3 import syntax, types
from repro.l3.compiler import compile_expr
from repro.l3.parser import parse_expr, parse_type
from repro.l3.typechecker import check_with_usage, typecheck, unused_linear_variables
from repro.l3.types import (
    BOOL,
    UNIT,
    BangType,
    BoolType,
    CapType,
    ExistsLocType,
    ForallLocType,
    LolliType,
    PtrType,
    TensorType,
    Type,
    UnitType,
    free_locations,
    is_duplicable,
    reference_package,
    substitute_location,
)

__all__ = [
    "syntax",
    "types",
    "compile_expr",
    "parse_expr",
    "check_with_usage",
    "typecheck",
    "unused_linear_variables",
    "BOOL",
    "UNIT",
    "BangType",
    "BoolType",
    "CapType",
    "ExistsLocType",
    "ForallLocType",
    "LolliType",
    "PtrType",
    "TensorType",
    "Type",
    "UnitType",
    "free_locations",
    "is_duplicable",
    "parse_type",
    "reference_package",
    "substitute_location",
]
