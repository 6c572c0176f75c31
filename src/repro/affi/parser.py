"""S-expression surface syntax for Affi: its grammar as two tables.

Each key is a shape read by :mod:`repro.util.grammar`.  ``dlam`` is
λa◦:τ. e, the dynamic affine arrow ``-o`` (⊸); ``slam`` is λa•:τ. e, the
static one ``-*`` (⊸•); ``&`` is the with-type.  ``ē`` is a MiniML
expression, read only once the §4 system wires the pair.
"""

from __future__ import annotations

from functools import partial

from repro.affi import syntax as ast
from repro.affi.types import (
    BangType,
    BoolType,
    DynLolliType,
    IntType,
    Mode,
    StatLolliType,
    TensorType,
    UnitType,
    WithType,
)
from repro.util.grammar import Grammar

EXPRS = {
    "()": ast.UnitLit,
    "unit": ast.UnitLit,
    "true": lambda: ast.BoolLit(True),
    "false": lambda: ast.BoolLit(False),
    "n": ast.IntLit,
    "x": ast.Var,
    "(dlam (a τ) e)": partial(ast.Lam, Mode.DYNAMIC),
    "(slam (a τ) e)": partial(ast.Lam, Mode.STATIC),
    "(e e)": ast.App,
    "(bang e)": ast.Bang,
    "(let! (x e) e)": ast.LetBang,
    "(with e e)": ast.WithPair,
    "(proj1 e)": ast.Proj1,
    "(proj2 e)": ast.Proj2,
    "(tensor e e)": ast.TensorPair,
    "(let-tensor (a b) e e)": ast.LetTensor,
    "(if e e e)": ast.If,
    "(boundary τ ē)": ast.Boundary,
}

TYPES = {
    "unit": UnitType,
    "bool": BoolType,
    "int": IntType,
    "(-o τ τ)": DynLolliType,
    "(-* τ τ)": StatLolliType,
    "(! τ)": BangType,
    "(& τ τ)": WithType,
    "(tensor τ τ)": TensorType,
}

GRAMMAR = Grammar("Affi", EXPRS, TYPES)

parse_expr = GRAMMAR.parse_expr
parse_type = GRAMMAR.parse_type
