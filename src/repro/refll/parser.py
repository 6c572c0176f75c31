"""S-expression surface syntax for RefLL: its grammar as two tables.

Each key is a shape read by :mod:`repro.util.grammar`; ``ē`` is a RefHL
expression.  The package's ``parse_expr`` pairs this grammar with RefHL's.
"""

from __future__ import annotations

from repro.refll import syntax as ast
from repro.refll.types import ArrayType, FunType, IntType, RefType
from repro.util.grammar import Grammar

EXPRS = {
    "n": ast.IntLit,
    "x": ast.Var,
    "(array e ...)": ast.ArrayLit,
    "(idx e e)": ast.Index,
    "(lam (x τ) e)": ast.Lam,
    "(e e)": ast.App,
    "(+ e e)": ast.Add,
    "(if0 e e e)": ast.If0,
    "(ref e)": ast.NewRef,
    "(! e)": ast.Deref,
    "(set! e e)": ast.Assign,
    "(boundary τ ē)": ast.Boundary,
}

TYPES = {
    "int": IntType,
    "(array τ)": ArrayType,
    "(-> τ τ)": FunType,
    "(ref τ)": RefType,
}

GRAMMAR = Grammar("RefLL", EXPRS, TYPES)
