"""One table-driven reader for the surface syntax of every source language.

In the paper each source language is a grammar plus one boundary form,
``(boundary τ e)``, that embeds the other language's terms.  Here each
language writes that grammar down as two tables, one for expressions and
one for types, from *shape strings* to the constructors they build::

    "(lam (x τ) e)": ast.Lam,
    "(match e (x e) (y e))": ast.Match,
    "(boundary τ ē)": ast.Boundary,

Each shape is read once, at import, with :func:`repro.util.sexpr.parse_sexpr`
and compiled into slots.  Inside a list shape

* ``e`` reads an expression and ``τ`` a type of this language;
* ``ē`` reads an expression of the paired language: the boundary payload;
* ``τ̄`` reads a type of the language this one's foreign type embeds;
* ``e ...`` reads every remaining item as an expression, passed as one tuple;
* any other one-letter symbol reads a name, the text of an atom;
* a longer symbol is a literal keyword that must appear as written;
* a nested list reads a list of exactly that shape.

The constructor receives the slots' values in order, nested lists flattened
and literals skipped, and an arity error prints the shape:
``expected (lam (x τ) e), got (lam x)``.  A list dispatches on its head
atom through a dict.  Entries that are not keyword forms declare the rest:
``"()"`` builds the empty list, ``"n"`` integer literals, ``"x"`` every other
atom (in a type table only identifiers), and ``"(e e)"`` application, a
two-item list whose head is no keyword.  A longer bare symbol, such as
``unit``, is a literal atom; no list may use it as its head.

Each language module builds one :class:`Grammar` from its tables, and each
interop system wires its pair of grammars once with :func:`wire`.  A
``boundary`` read by an unpaired grammar is a :class:`ParseError`.

The reader recurses, at most two Python frames per nesting level, and
refuses lists nested deeper than :data:`MAX_NESTING` with a
:class:`ParseError`.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import ParseError
from repro.util.sexpr import SAtom, SExpr, SList, parse_sexpr

__all__ = ["MAX_NESTING", "Grammar", "wire"]

#: The deepest list nesting any source program may have.  Every later stage
#: (typecheck, compile, analysis, both backends) serves programs this deep
#: under Python's default recursion limit; the first to overflow is the §4
#: typechecker, past nesting 420 in a plain process and about 400 under
#: pytest.  ``util.workloads`` programs reach the limit at depth 90 on refs,
#: 120 on affine and 357 on l3.
MAX_NESTING = 360

# Slot kinds, in the order ``_fill`` tests them.
_EXPR, _TYPE, _NAME, _PAYLOAD, _FOREIGN, _LITERAL, _NESTED = range(7)

_SLOT_SYMBOLS = {"e": _EXPR, "τ": _TYPE, "ē": _PAYLOAD, "τ̄": _FOREIGN}


def _compile_slots(items) -> Tuple[Tuple[int, Any], ...]:
    slots: List[Tuple[int, Any]] = []
    for item in items:
        if isinstance(item, SList):
            slots.append((_NESTED, _compile_slots(item.items)))
        elif item.text in _SLOT_SYMBOLS:
            slots.append((_SLOT_SYMBOLS[item.text], None))
        elif len(item.text) == 1:
            slots.append((_NAME, None))
        else:
            slots.append((_LITERAL, item.text))
    return tuple(slots)


class _Form:
    """One keyword form: its shape, arity, slots and constructor."""

    __slots__ = ("shape", "arity", "slots", "rest", "plain", "build")

    def __init__(self, shape: str, items, build: Callable, own_kind: int) -> None:
        self.shape = shape
        self.rest = items[-1] == SAtom("...")
        if self.rest:
            items = items[:-2]  # ``e ...``: the rest are expressions
        self.arity = len(items)
        self.slots = _compile_slots(items[1:])
        # Most forms only read their own category, as ``(+ e e)`` does.
        self.plain = all(kind == own_kind for kind, _ in self.slots)
        self.build = build


class _Table:
    """One syntactic category (expressions or types) of one language."""

    def __init__(self, noun: str, entries: Dict[str, Callable]) -> None:
        self.noun = noun
        own_kind = _EXPR if noun == "expression" else _TYPE
        self.forms: Dict[str, _Form] = {}
        self.literals: Dict[str, Callable] = {}
        self.empty: Optional[Callable] = None
        self.integer: Optional[Callable] = None
        self.variable: Optional[Callable] = None
        self.application: Optional[Callable] = None
        for shape, build in entries.items():
            tree = parse_sexpr(shape)
            if isinstance(tree, SAtom):
                if tree.text == "n":
                    self.integer = build
                elif len(tree.text) == 1:
                    self.variable = build
                else:
                    self.literals[tree.text] = build
            elif not tree.items:
                self.empty = build
            elif tree.items[0] == SAtom("e"):
                self.application = build
            else:
                self.forms[tree.items[0].text] = _Form(shape, tree.items, build, own_kind)


class Grammar:
    """A language's expression and type tables, compiled for one reader.

    ``foreign`` is the grammar whose types ``τ̄`` reads; ``pair``, the grammar
    whose expressions ``ē`` reads, is set only by :func:`wire`.
    """

    def __init__(
        self,
        name: str,
        exprs: Dict[str, Callable],
        types: Dict[str, Callable],
        foreign: Optional["Grammar"] = None,
    ) -> None:
        self.name = name
        self.exprs = _Table("expression", exprs)
        self.types = _Table("type", types)
        self.foreign = foreign
        self.pair: Optional[Grammar] = None

    def parse_expr(self, text: str) -> Any:
        """Read one expression of this language from surface text."""
        return self._read(self.exprs, parse_sexpr(text), 0)

    def parse_type(self, text: str) -> Any:
        """Read one type of this language from surface text."""
        return self._read(self.types, parse_sexpr(text), 0)

    def _read(self, table: _Table, sexpr: SExpr, depth: int) -> Any:
        """Read ``sexpr``, which ``depth`` lists enclose, from ``table``."""
        if sexpr.__class__ is SAtom:
            text = sexpr.text
            literal = table.literals.get(text)
            if literal is not None:
                return literal()
            if text[-1] in "0123456789" and sexpr.is_int:
                if table.integer is None:
                    raise ParseError(f"{self.name} has no integer literals, got {text}")
                return table.integer(int(text))
            variable = table.variable
            if variable is not None and (table is self.exprs or text.isidentifier()):
                return variable(text)
            raise ParseError(f"unknown {self.name} {table.noun} {text!r}")
        if depth >= MAX_NESTING:
            raise self._too_deep()
        items = sexpr.items
        if not items:
            if table.empty is None:
                raise ParseError(f"() is not a {self.name} {table.noun}")
            return table.empty()
        head = items[0]
        form = table.forms.get(head.text) if head.__class__ is SAtom else None
        if form is None:
            if head.__class__ is SAtom and head.text in table.literals:
                raise ParseError(f"{head.text!r} does not take arguments")
            if len(items) == 2 and table.application is not None:
                return table.application(self._read(table, head, depth + 1), self._read(table, items[1], depth + 1))
            raise ParseError(f"malformed {self.name} {table.noun}: {sexpr}")
        if len(items) != form.arity and not (form.rest and len(items) > form.arity):
            raise ParseError(f"expected {form.shape}, got {sexpr}")
        args: List[Any] = []
        if form.plain:
            for item in items[1 : form.arity]:
                args.append(self._read(table, item, depth + 1))
        else:
            self._fill(form, sexpr, form.slots, items[1:], args, depth + 1)
        if form.rest:
            exprs = self.exprs
            args.append(tuple([self._read(exprs, item, depth + 1) for item in items[form.arity :]]))
        return form.build(*args)

    def _too_deep(self) -> ParseError:
        return ParseError(f"{self.name} source nests lists deeper than MAX_NESTING = {MAX_NESTING}")

    def _fill(self, form: _Form, sexpr: SList, slots, items, args: List[Any], depth: int) -> None:
        """Append the values of ``items`` read by ``slots`` to ``args``."""
        for (kind, data), item in zip(slots, items):
            if kind == _EXPR:
                args.append(self._read(self.exprs, item, depth))
            elif kind == _TYPE:
                args.append(self._read(self.types, item, depth))
            elif kind == _NAME:
                if item.__class__ is not SAtom:
                    raise ParseError(f"expected {form.shape}, got {sexpr}")
                args.append(item.text)
            elif kind == _PAYLOAD:
                pair = self.pair
                if pair is None:
                    raise ParseError(f"{self.name} boundary read with no paired grammar: {sexpr}")
                args.append(pair._read(pair.exprs, item, depth))
            elif kind == _FOREIGN:
                foreign = self.foreign
                if foreign is None:
                    raise ParseError(f"{self.name} has no foreign type here: {sexpr}")
                args.append(foreign._read(foreign.types, item, depth))
            elif kind == _LITERAL:
                if item.__class__ is not SAtom or item.text != data:
                    raise ParseError(f"expected {form.shape}, got {sexpr}")
            else:
                if item.__class__ is not SList or len(item.items) != len(data):
                    raise ParseError(f"expected {form.shape}, got {sexpr}")
                if depth >= MAX_NESTING:
                    raise self._too_deep()
                self._fill(form, sexpr, data, item.items, args, depth + 1)


def wire(a: Grammar, b: Grammar) -> Tuple[Grammar, Grammar]:
    """Copies of ``a`` and ``b`` whose boundary payloads read each other."""
    a, b = copy.copy(a), copy.copy(b)
    a.pair, b.pair = b, a
    return a, b
