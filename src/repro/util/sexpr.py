"""A small s-expression reader shared by every source-language parser.

All the surface syntaxes in this reproduction are written as s-expressions,
e.g. ``(if true (inl ()) (inr false))`` for RefHL or
``(lam (x int) (+ x 1))`` for RefLL.  This module tokenizes and reads the
generic tree structure; each language's parser then interprets the trees.

The reader produces :class:`SAtom` and :class:`SList` nodes carrying source
spans so that parse/type errors can point back at the offending text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Union

from repro.core.errors import ParseError
from repro.core.names import Span

__all__ = ["SAtom", "SList", "SExpr", "tokenize", "parse_sexpr", "parse_many"]


@dataclass(frozen=True)
class SAtom:
    """An atomic token: a symbol or an integer literal."""

    text: str
    span: Span = field(default_factory=Span, compare=False)

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

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class SList:
    """A parenthesized list of sub-expressions."""

    items: tuple
    span: Span = field(default_factory=Span, compare=False)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index):
        return self.items[index]

    def __iter__(self):
        return iter(self.items)

    def __str__(self) -> str:
        return "(" + " ".join(str(item) for item in self.items) + ")"


SExpr = Union[SAtom, SList]

_PUNCTUATION = "()"
_LINE_COMMENT = ";"


@dataclass(frozen=True)
class _Token:
    text: str
    start: int
    end: int


def tokenize(text: str, source_name: str = "<input>") -> List[_Token]:
    """Split ``text`` into parenthesis and atom tokens.

    Line comments start with ``;`` and run to the end of the line.
    """
    tokens: List[_Token] = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char.isspace():
            index += 1
        elif char == _LINE_COMMENT:
            while index < length and text[index] != "\n":
                index += 1
        elif char in _PUNCTUATION:
            tokens.append(_Token(char, index, index + 1))
            index += 1
        else:
            start = index
            while (
                index < length
                and not text[index].isspace()
                and text[index] not in _PUNCTUATION
                and text[index] != _LINE_COMMENT
            ):
                index += 1
            tokens.append(_Token(text[start:index], start, index))
    return tokens


class _Reader:
    def __init__(self, tokens: Sequence[_Token], source_name: str):
        self._tokens = list(tokens)
        self._position = 0
        self._source_name = source_name

    def at_end(self) -> bool:
        return self._position >= len(self._tokens)

    def peek(self) -> _Token:
        if self.at_end():
            raise ParseError("unexpected end of input")
        return self._tokens[self._position]

    def advance(self) -> _Token:
        token = self.peek()
        self._position += 1
        return token

    def read(self) -> SExpr:
        token = self.advance()
        if token.text == "(":
            items = []
            while True:
                if self.at_end():
                    raise ParseError("unclosed '(' in input")
                if self.peek().text == ")":
                    closing = self.advance()
                    span = Span(token.start, closing.end, self._source_name)
                    return SList(tuple(items), span)
                items.append(self.read())
        if token.text == ")":
            raise ParseError(f"unexpected ')' at offset {token.start}")
        if not token.text.isascii() and token.text.removeprefix("-").isdigit():
            raise ParseError(f"integer literal {token.text!r} at offset {token.start} is not ASCII digits 0-9")
        span = Span(token.start, token.end, self._source_name)
        return SAtom(token.text, span)


def parse_sexpr(text: str, source_name: str = "<input>") -> SExpr:
    """Parse exactly one s-expression from ``text``."""
    reader = _Reader(tokenize(text, source_name), source_name)
    if reader.at_end():
        raise ParseError("empty input")
    expr = reader.read()
    if not reader.at_end():
        extra = reader.peek()
        raise ParseError(f"trailing input starting at offset {extra.start}: {extra.text!r}")
    return expr


def parse_many(text: str, source_name: str = "<input>") -> List[SExpr]:
    """Parse a sequence of s-expressions (e.g. a whole file)."""
    reader = _Reader(tokenize(text, source_name), source_name)
    forms: List[SExpr] = []
    while not reader.at_end():
        forms.append(reader.read())
    return forms
