"""S-expression surface syntax for MiniML: its grammar as two tables.

Each key is a shape read by :mod:`repro.util.grammar`.  ``ē`` is the paired
language's expression: Affi in §4, L3 in §5, read only once a system wires
the pair.  ``(foreign τ̄)`` is §5's foreign type ⟨τ⟩, whose ``τ̄`` is an L3
type; standalone MiniML reads it too, and §4's MiniML refuses it.
"""

from __future__ import annotations

from repro.l3 import parser as l3_parser
from repro.miniml import syntax as ast
from repro.miniml.types import (
    ForallType,
    ForeignType,
    FunType,
    IntType,
    ProdType,
    RefType,
    SumType,
    TypeVar,
    UnitType,
)
from repro.util.grammar import Grammar

EXPRS = {
    "()": ast.UnitLit,
    "unit": ast.UnitLit,
    "n": ast.IntLit,
    "x": ast.Var,
    "(pair e e)": ast.Pair,
    "(fst e)": ast.Fst,
    "(snd e)": ast.Snd,
    "(inl (sum τ τ) e)": lambda left, right, body: ast.Inl(SumType(left, right), body),
    "(inr (sum τ τ) e)": lambda left, right, body: ast.Inr(SumType(left, right), body),
    "(match e (x e) (y e))": ast.Match,
    "(lam (x τ) e)": ast.Lam,
    "(e e)": ast.App,
    "(tylam a e)": ast.TyLam,
    "(tyapp e τ)": ast.TyApp,
    "(+ e e)": ast.Add,
    "(let (x e) e)": ast.LetIn,
    "(ref e)": ast.NewRef,
    "(! e)": ast.Deref,
    "(set! e e)": ast.Assign,
    "(boundary τ ē)": ast.Boundary,
}

TYPES = {
    "unit": UnitType,
    "int": IntType,
    "a": TypeVar,
    "(prod τ τ)": ProdType,
    "(sum τ τ)": SumType,
    "(-> τ τ)": FunType,
    "(forall a τ)": ForallType,
    "(ref τ)": RefType,
    "(foreign τ̄)": ForeignType,
}

GRAMMAR = Grammar("MiniML", EXPRS, TYPES, foreign=l3_parser.GRAMMAR)

parse_expr = GRAMMAR.parse_expr
parse_type = GRAMMAR.parse_type
