"""Tests for the shared s-expression reader."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ParseError
from repro.util.sexpr import SAtom, SList, parse_many, parse_sexpr, tokenize


def test_parse_atom_symbol():
    atom = parse_sexpr("hello")
    assert isinstance(atom, SAtom)
    assert atom.text == "hello"
    assert not atom.is_int


def test_parse_atom_integer():
    atom = parse_sexpr("42")
    assert atom.is_int
    assert atom.int_value == 42


def test_parse_negative_integer():
    atom = parse_sexpr("-7")
    assert atom.is_int
    assert atom.int_value == -7


def test_lone_dash_is_not_integer():
    atom = parse_sexpr("-")
    assert not atom.is_int


def test_int_value_of_symbol_raises():
    with pytest.raises(ParseError):
        parse_sexpr("foo").int_value


def test_parse_flat_list():
    form = parse_sexpr("(a b c)")
    assert isinstance(form, SList)
    assert [item.text for item in form] == ["a", "b", "c"]


def test_parse_nested_list():
    form = parse_sexpr("(a (b c) d)")
    assert len(form) == 3
    assert isinstance(form[1], SList)
    assert form[1][0].text == "b"


def test_parse_empty_list():
    form = parse_sexpr("()")
    assert isinstance(form, SList)
    assert len(form) == 0


def test_comments_are_ignored():
    form = parse_sexpr("(a ; this is a comment\n b)")
    assert [item.text for item in form] == ["a", "b"]


def test_unclosed_paren_raises():
    with pytest.raises(ParseError):
        parse_sexpr("(a b")


def test_stray_close_paren_raises():
    with pytest.raises(ParseError):
        parse_sexpr(")")


def test_trailing_input_raises():
    with pytest.raises(ParseError):
        parse_sexpr("(a) (b)")


def test_empty_input_raises():
    with pytest.raises(ParseError):
        parse_sexpr("   ")


def test_parse_many_reads_all_forms():
    forms = parse_many("(a) b (c d)")
    assert len(forms) == 3
    assert isinstance(forms[0], SList)
    assert isinstance(forms[1], SAtom)


def test_spans_cover_source():
    form = parse_sexpr("(ab cd)")
    assert form.span.start == 0
    assert form.span.end == 7


def test_tokenize_offsets():
    tokens = tokenize("(ab  cd)")
    assert [token.text for token in tokens] == ["(", "ab", "cd", ")"]
    assert tokens[2].start == 5


def test_str_roundtrip_of_list():
    form = parse_sexpr("(a (b c) d)")
    assert str(form) == "(a (b c) d)"


_symbol = st.text(alphabet="abcdefghijklmnop", min_size=1, max_size=6)


@st.composite
def _sexpr_text(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(_symbol)
    children = draw(st.lists(_sexpr_text(depth=depth - 1), min_size=0, max_size=4))
    return "(" + " ".join(children) + ")"


@given(_sexpr_text())
def test_parse_str_roundtrip(text):
    """Printing a parsed s-expression and reparsing yields an equal tree."""
    parsed = parse_sexpr(text)
    assert parse_sexpr(str(parsed)) == parsed


@pytest.mark.parametrize("text", ["²", "-²", "٣", "1²", "-١٢"])
def test_non_ascii_digits_are_a_parse_error(text):
    with pytest.raises(ParseError, match="ASCII"):
        parse_sexpr(text)
    with pytest.raises(ParseError, match="ASCII"):
        parse_sexpr(f"(push {text})")


@pytest.mark.parametrize("text", ["²", "٣", "-٣"])
def test_only_ascii_digits_make_an_integer_atom(text):
    atom = SAtom(text)
    assert not atom.is_int
    with pytest.raises(ParseError):
        atom.int_value


def test_symbols_mentioning_non_ascii_digits_stay_symbols():
    atom = parse_sexpr("x²")
    assert not atom.is_int
    assert atom.text == "x²"
