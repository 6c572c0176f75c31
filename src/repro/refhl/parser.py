"""S-expression surface syntax for RefHL: its grammar as two tables.

Each key is a shape read by :mod:`repro.util.grammar`; ``ē`` is a RefLL
expression.  The package's ``parse_expr`` pairs this grammar with RefLL's.
"""

from __future__ import annotations

from repro.refhl import syntax as ast
from repro.refhl.types import BoolType, FunType, ProdType, RefType, SumType, UnitType
from repro.util.grammar import Grammar

EXPRS = {
    "()": ast.UnitLit,
    "unit": ast.UnitLit,
    "true": lambda: ast.BoolLit(True),
    "false": lambda: ast.BoolLit(False),
    "x": ast.Var,
    "(inl (sum τ τ) e)": lambda left, right, body: ast.Inl(SumType(left, right), body),
    "(inr (sum τ τ) e)": lambda left, right, body: ast.Inr(SumType(left, right), body),
    "(pair e e)": ast.Pair,
    "(fst e)": ast.Fst,
    "(snd e)": ast.Snd,
    "(if e e e)": ast.If,
    "(lam (x τ) e)": ast.Lam,
    "(e e)": ast.App,
    "(match e (x e) (y e))": ast.Match,
    "(ref e)": ast.NewRef,
    "(! e)": ast.Deref,
    "(set! e e)": ast.Assign,
    "(boundary τ ē)": ast.Boundary,
}

TYPES = {
    "unit": UnitType,
    "bool": BoolType,
    "(sum τ τ)": SumType,
    "(prod τ τ)": ProdType,
    "(-> τ τ)": FunType,
    "(ref τ)": RefType,
}

GRAMMAR = Grammar("RefHL", EXPRS, TYPES)
