"""A small s-expression reader shared by every source-language parser.

All the surface syntaxes in this reproduction are written as s-expressions,
e.g. ``(if true (inl ()) (inr false))`` for RefHL or
``(lam (x int) (+ x 1))`` for RefLL.  This module reads the generic tree
structure; each language's parser then interprets the trees.

The reader is one scan of a compiled regex with an explicit stack of open
lists, so it does not recurse and reads any nesting depth.  It produces
:class:`SAtom` and :class:`SList` nodes carrying source offsets so that
parse/type errors can point back at the offending text.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Union

from repro.core.errors import ParseError
from repro.core.names import Span

__all__ = ["SAtom", "SList", "SExpr", "tokenize", "parse_sexpr", "parse_many"]


class SAtom:
    """An atomic token: a symbol or an integer literal.

    Equality and hashing look only at ``text``, never at the position.
    """

    __slots__ = ("text", "start", "end", "source_name")

    def __init__(self, text: str, start: int = 0, end: int = 0, source_name: str = "<input>"):
        self.text = text
        self.start = start
        self.end = end
        self.source_name = source_name

    @property
    def span(self) -> Span:
        return Span(self.start, self.end, self.source_name)

    @property
    def is_int(self) -> bool:
        text = self.text
        if text.startswith("-") and len(text) > 1:
            text = text[1:]
        # ASCII only: ``int`` would also read ``٣`` as 3 and fail on ``²``.
        return text.isascii() and text.isdigit()

    @property
    def int_value(self) -> int:
        if not self.is_int:
            raise ParseError(f"expected integer literal, got {self.text!r}")
        return int(self.text)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SAtom):
            return NotImplemented
        return self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)

    def __repr__(self) -> str:
        return f"SAtom({self.text!r})"

    def __str__(self) -> str:
        return self.text


class SList:
    """A parenthesized list of sub-expressions.

    Equality and hashing look only at ``items``, never at the position.
    """

    __slots__ = ("items", "start", "end", "source_name")

    def __init__(self, items: tuple, start: int = 0, end: int = 0, source_name: str = "<input>"):
        self.items = items
        self.start = start
        self.end = end
        self.source_name = source_name

    @property
    def span(self) -> Span:
        return Span(self.start, self.end, self.source_name)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index):
        return self.items[index]

    def __iter__(self):
        return iter(self.items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SList):
            return NotImplemented
        return self.items == other.items

    def __hash__(self) -> int:
        return hash(self.items)

    def __repr__(self) -> str:
        return f"SList({self.items!r})"

    def __str__(self) -> str:
        # Iterative, like the reader, so error messages print any depth.
        parts: List[str] = []
        pending: List[Union[str, SExpr]] = [self]
        while pending:
            item = pending.pop()
            if isinstance(item, str):
                parts.append(item)
            elif isinstance(item, SList):
                parts.append("(")
                pending.append(")")
                for index in range(len(item.items) - 1, -1, -1):
                    pending.append(item.items[index])
                    if index:
                        pending.append(" ")
            else:
                parts.append(item.text)
        return "".join(parts)


SExpr = Union[SAtom, SList]

# One token per match: skip whitespace and ``;`` line comments, then match
# ``(`` (group 1), ``)`` (group 2), an atom (group 3), or the end of the text
# (no group).  The end alternative makes every search succeed on its first,
# greedy path, so trailing whitespace or comments never backtrack.
_TOKEN = re.compile(r"\s*(?:;[^\n]*\s*)*(?:(\()|(\))|([^\s();]+)|\Z)")


class Token(NamedTuple):
    """One parenthesis or atom and its ``[start, end)`` offsets."""

    text: str
    start: int
    end: int


def tokenize(text: str) -> List[Token]:
    """Split ``text`` into parenthesis and atom tokens.

    Line comments start with ``;`` and run to the end of the line.
    """
    return [Token(m[m.lastindex], m.start(m.lastindex), m.end()) for m in _TOKEN.finditer(text) if m.lastindex]


def _read(text: str, source_name: str, one: bool) -> List[SExpr]:
    """Read the forms of ``text``; with ``one``, stop after the first form
    and refuse any token after it as trailing input."""
    forms: List[SExpr] = []
    items: List[SExpr] = forms
    stack: List[tuple] = []  # (offset of the '(', items of the enclosing list)
    matches = _TOKEN.finditer(text)
    for match in matches:
        group = match.lastindex
        if group == 3:
            atom = match[3]
            end = match.end()
            if not atom.isascii() and atom.removeprefix("-").isdigit():
                raise ParseError(f"integer literal {atom!r} at offset {end - len(atom)} is not ASCII digits 0-9")
            items.append(SAtom(atom, end - len(atom), end, source_name))
        elif group == 1:
            stack.append((match.end() - 1, items))
            items = []
        elif group == 2:
            end = match.end()
            if not stack:
                raise ParseError(f"unexpected ')' at offset {end - 1}")
            start, enclosing = stack.pop()
            enclosing.append(SList(tuple(items), start, end, source_name))
            items = enclosing
        else:
            break
        if one and not stack:
            extra = next(matches)
            group = extra.lastindex
            if group is not None:
                raise ParseError(f"trailing input starting at offset {extra.start(group)}: {extra[group]!r}")
            break
    if stack:
        raise ParseError("unclosed '(' in input")
    return forms


def parse_sexpr(text: str, source_name: str = "<input>") -> SExpr:
    """Parse exactly one s-expression from ``text``."""
    forms = _read(text, source_name, one=True)
    if not forms:
        raise ParseError("empty input")
    return forms[0]


def parse_many(text: str, source_name: str = "<input>") -> List[SExpr]:
    """Parse a sequence of s-expressions (e.g. a whole file)."""
    return _read(text, source_name, one=False)
