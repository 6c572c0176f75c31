"""S-expression surface syntax for L3: its grammar as two tables.

Each key is a shape read by :mod:`repro.util.grammar`.  ``(-o τ τ)`` is ⊸,
``(refpkg τ)`` is sugar for ``REF τ``, and ``ē`` is a MiniML expression,
read only once the §5 system wires the pair.
"""

from __future__ import annotations

from repro.core.errors import ParseError
from repro.l3 import syntax as ast
from repro.l3.types import (
    BangType,
    BoolType,
    CapType,
    ExistsLocType,
    ForallLocType,
    LolliType,
    PtrType,
    TensorType,
    UnitType,
    reference_package,
)
from repro.util.grammar import Grammar


def _pack(witness: str, body: ast.Expr, annotation) -> ast.Pack:
    # An existential written out, ``(exists z τ)``, or as ``(refpkg τ)``.
    if not isinstance(annotation, ExistsLocType):
        raise ParseError(f"pack annotation must be an existential type, got {annotation}")
    return ast.Pack(witness, body, annotation)


EXPRS = {
    "()": ast.UnitLit,
    "unit": ast.UnitLit,
    "true": lambda: ast.BoolLit(True),
    "false": lambda: ast.BoolLit(False),
    "x": ast.Var,
    "(lam (x τ) e)": ast.Lam,
    "(e e)": ast.App,
    "(tensor e e)": ast.TensorPair,
    "(let-unit e e)": ast.LetUnit,
    "(let-tensor (x y) e e)": ast.LetTensor,
    "(if e e e)": ast.If,
    "(bang e)": ast.Bang,
    "(let! (x e) e)": ast.LetBang,
    "(dupl e)": ast.Dupl,
    "(drop e)": ast.Drop,
    "(new e)": ast.New,
    "(free e)": ast.FreePkg,
    "(swap e e e)": ast.Swap,
    "(loclam z e)": ast.LocLam,
    "(locapp e z)": ast.LocApp,
    "(pack z e τ)": _pack,
    "(unpack (z x) e e)": ast.Unpack,
    "(boundary τ ē)": ast.Boundary,
}

TYPES = {
    "unit": UnitType,
    "bool": BoolType,
    "(tensor τ τ)": TensorType,
    "(-o τ τ)": LolliType,
    "(! τ)": BangType,
    "(ptr z)": PtrType,
    "(cap z τ)": CapType,
    "(forall z τ)": ForallLocType,
    "(exists z τ)": ExistsLocType,
    "(refpkg τ)": reference_package,
}

GRAMMAR = Grammar("L3", EXPRS, TYPES)

parse_expr = GRAMMAR.parse_expr
parse_type = GRAMMAR.parse_type
