"""Shared utilities: s-expression reading and the deep-crossing workloads."""

from repro.util.sexpr import SAtom, SExpr, SList, parse_many, parse_sexpr, tokenize

__all__ = [
    "SAtom",
    "SExpr",
    "SList",
    "parse_many",
    "parse_sexpr",
    "tokenize",
]
