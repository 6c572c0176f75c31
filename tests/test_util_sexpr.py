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


@pytest.mark.parametrize(
    "read, text, message",
    [
        (parse_sexpr, "", "empty input"),
        (parse_sexpr, "  ; only a comment", "empty input"),
        (parse_sexpr, "(a (b c)", "unclosed '(' in input"),
        (parse_many, "(a) (b", "unclosed '(' in input"),
        (parse_sexpr, "  )", "unexpected ')' at offset 2"),
        (parse_many, "(a) )", "unexpected ')' at offset 4"),
        (parse_sexpr, "(push -٣)", "integer literal '-٣' at offset 6 is not ASCII digits 0-9"),
        (parse_sexpr, "(a) (b", "trailing input starting at offset 4: '('"),
        (parse_sexpr, "(a) )", "trailing input starting at offset 4: ')'"),
        (parse_sexpr, "(a) b", "trailing input starting at offset 4: 'b'"),
        (parse_sexpr, "a ; x\n ²", "trailing input starting at offset 7: '²'"),
    ],
)
def test_malformed_input_messages(read, text, message):
    with pytest.raises(ParseError) as raised:
        read(text)
    assert str(raised.value) == message


_atom = st.one_of(
    _symbol,
    st.sampled_from(["+", "-", "set!", "let-tensor", "x²"]),
    st.integers(-999, 999).map(str),
)
_gap = st.lists(
    st.sampled_from([" ", "\n", "\t", "\r\n", "; note (a\n", ";)(;\n", "\u00a0"]), min_size=1, max_size=3
).map("".join)
_maybe_gap = st.one_of(st.just(""), _gap)


@st.composite
def _spaced_text(draw, depth=3):
    """Source text with whitespace, newlines and ``;`` comments between tokens."""
    if depth == 0 or draw(st.booleans()):
        return draw(_atom)
    children = draw(st.lists(_spaced_text(depth=depth - 1), max_size=4))
    inner = "".join(draw(_gap) + child for child in children)
    return "(" + draw(_maybe_gap) + inner + draw(_maybe_gap) + ")"


def _nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, SList):
            stack.extend(node)


@given(_maybe_gap, _spaced_text(), st.one_of(_maybe_gap, st.just(" ; trailing comment")))
def test_spans_reread_and_match_tokenize(before, body, after):
    text = before + body + after
    root = parse_sexpr(text)
    assert parse_many(text) == [root]
    tokens = []
    for node in _nodes(root):
        assert parse_sexpr(text[node.span.start : node.span.end]) == node
        if isinstance(node, SAtom):
            tokens.append((node.text, node.span.start, node.span.end))
        else:
            start, end = node.span.start, node.span.end
            tokens += [("(", start, start + 1), (")", end - 1, end)]
    assert sorted(tokens, key=lambda token: token[1]) == [
        (token.text, token.start, token.end) for token in tokenize(text)
    ]


def test_deep_nesting_reads_without_recursion():
    depth = 100_000
    node = parse_sexpr("(" * depth + "x" + ")" * depth)
    for level in range(depth):
        assert isinstance(node, SList) and len(node) == 1
        assert (node.span.start, node.span.end) == (level, 2 * depth + 1 - level)
        node = node[0]
    assert node == SAtom("x")
    with pytest.raises(ParseError, match="unclosed"):
        parse_sexpr("(" * depth)


def test_equality_ignores_position():
    assert parse_sexpr("(a  b)") == parse_sexpr("( a b )") == SList((SAtom("a"), SAtom("b")))
    assert hash(parse_sexpr(" (a b)")) == hash(parse_sexpr("(a b)"))
    assert parse_sexpr("a") != parse_sexpr("(a)")
