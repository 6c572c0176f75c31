"""Tests for the table-driven reader shared by the five source languages."""

import pytest

from repro.affi import parser as affi_parser
from repro.core.errors import ParseError
from repro.interop_affine import make_system as make_affine_system
from repro.interop_l3 import make_system as make_l3_system
from repro.l3 import parser as l3_parser
from repro.l3 import types as l3_types
from repro.miniml import parse_expr as parse_miniml
from repro.miniml import parser as miniml_parser
from repro.miniml import types as ml_types
from repro.refhl import parser as refhl_parser
from repro.refll import parser as refll_parser
from repro.serve import Request, make_default_scheduler
from repro.util.grammar import MAX_NESTING
from repro.util.workloads import nested_ml_affi_boundary, nested_ml_l3_boundary, nested_refll_boundary

GRAMMARS = {
    "RefHL": refhl_parser.GRAMMAR,
    "RefLL": refll_parser.GRAMMAR,
    "Affi": affi_parser.GRAMMAR,
    "MiniML": miniml_parser.GRAMMAR,
    "L3": l3_parser.GRAMMAR,
}

# (language, expression or type, source, what the message must say).  Every
# kind of input the old per-language if-chains refused, for each language.
REFUSALS = [
    # wrong arity: the message prints the form's shape
    ("RefHL", "expr", "(if true false)", "expected (if e e e), got (if true false)"),
    ("RefLL", "expr", "(idx (array 1))", "expected (idx e e), got (idx (array 1))"),
    ("Affi", "expr", "(let-tensor (a b) x)", "expected (let-tensor (a b) e e), got (let-tensor (a b) x)"),
    ("MiniML", "expr", "(match x (a a))", "expected (match e (x e) (y e)), got (match x (a a))"),
    ("L3", "expr", "(swap c p)", "expected (swap e e e), got (swap c p)"),
    # a reserved word as a head
    ("RefHL", "expr", "(true x)", "'true' does not take arguments"),
    ("Affi", "expr", "(false x)", "'false' does not take arguments"),
    ("MiniML", "expr", "(unit 1)", "'unit' does not take arguments"),
    ("L3", "expr", "(unit x)", "'unit' does not take arguments"),
    # a list where a name belongs
    ("RefHL", "expr", "(lam ((x) bool) x)", "expected (lam (x τ) e)"),
    ("RefLL", "expr", "(lam ((x) int) x)", "expected (lam (x τ) e)"),
    ("Affi", "expr", "(dlam ((a) int) a)", "expected (dlam (a τ) e)"),
    ("MiniML", "expr", "(tylam (a) x)", "expected (tylam a e)"),
    ("L3", "expr", "(locapp f (z))", "expected (locapp e z)"),
    ("L3", "type", "(ptr (z))", "expected (ptr z)"),
    # a wrong literal inside a shape
    ("RefHL", "expr", "(inl (prod bool bool) true)", "expected (inl (sum τ τ) e)"),
    ("MiniML", "expr", "(inl (prod int int) 1)", "expected (inl (sum τ τ) e)"),
    ("L3", "expr", "(pack z x (cap z bool))", "pack annotation must be an existential type"),
    # a nested list of the wrong length
    ("MiniML", "expr", "(let (x) x)", "expected (let (x e) e)"),
    ("Affi", "expr", "(let! (x e y) x)", "expected (let! (x e) e)"),
    # an unknown type head or atom
    ("RefHL", "type", "(array bool)", "malformed RefHL type"),
    ("RefLL", "type", "(sum int int)", "malformed RefLL type"),
    ("Affi", "type", "(-> int int)", "malformed Affi type"),
    ("MiniML", "type", "(-o int int)", "malformed MiniML type"),
    ("L3", "type", "(ref bool)", "malformed L3 type"),
    ("RefLL", "type", "bool", "unknown RefLL type 'bool'"),
    ("MiniML", "type", "a-b", "unknown MiniML type 'a-b'"),
    # an integer in RefHL or L3, and () in RefLL
    ("RefHL", "expr", "(pair 1 true)", "RefHL has no integer literals"),
    ("L3", "expr", "(bang 0)", "L3 has no integer literals"),
    ("RefLL", "expr", "(+ () 1)", "() is not a RefLL expression"),
    # a boundary with no paired grammar
    ("RefHL", "expr", "(boundary bool 1)", "RefHL boundary read with no paired grammar"),
    ("RefLL", "expr", "(boundary int true)", "RefLL boundary read with no paired grammar"),
    ("Affi", "expr", "(boundary int 1)", "Affi boundary read with no paired grammar"),
    ("MiniML", "expr", "(boundary int true)", "MiniML boundary read with no paired grammar"),
    ("L3", "expr", "(boundary bool 1)", "L3 boundary read with no paired grammar"),
    # a two-item list is an application, any other a malformed expression
    ("RefLL", "expr", "(f 1 2)", "malformed RefLL expression"),
]


@pytest.mark.parametrize(
    "language,category,source,message",
    REFUSALS,
    ids=[f"{language}-{source}" for language, _, source, _ in REFUSALS],
)
def test_tables_refuse_malformed_input(language, category, source, message):
    grammar = GRAMMARS[language]
    parse = grammar.parse_expr if category == "expr" else grammar.parse_type
    with pytest.raises(ParseError) as raised:
        parse(source)
    assert message in str(raised.value)


def _nested_derefs(levels: int) -> str:
    return "(! " * levels + "x" + ")" * levels


def test_nesting_is_refused_past_max_nesting_alone():
    parse = refll_parser.GRAMMAR.parse_expr
    parse(_nested_derefs(MAX_NESTING))
    with pytest.raises(ParseError, match="MAX_NESTING"):
        parse(_nested_derefs(MAX_NESTING + 1))


def test_binder_lists_count_toward_the_nesting_limit():
    outer = MAX_NESTING - 2
    parse = refll_parser.GRAMMAR.parse_expr
    # The binder ``(x int)`` sits at level MAX_NESTING, ``(ref int)`` one deeper.
    parse("(! " * outer + "(lam (x int) x)" + ")" * outer)
    with pytest.raises(ParseError, match="MAX_NESTING"):
        parse("(! " * outer + "(lam (x (ref int)) x)" + ")" * outer)


def test_malformed_form_over_a_deep_subtree_is_a_parse_error():
    deep = _nested_derefs(5_000)
    with pytest.raises(ParseError, match="expected \\(idx e e\\)"):
        refll_parser.GRAMMAR.parse_expr(f"(idx {deep})")


def test_standalone_miniml_reads_foreign_types_as_l3():
    term = parse_miniml("(lam (x (foreign (cap z bool))) x)")
    assert term.parameter_type == ml_types.ForeignType(l3_types.CapType("z", l3_types.BOOL))


def test_affine_miniml_refuses_the_foreign_type():
    # ⟨τ⟩ embeds an L3 type; the §4 system has no L3.
    system = make_affine_system()
    with pytest.raises(ParseError, match="no foreign type"):
        system.compile_source("MiniML", "(lam (x (foreign (cap z bool))) x)")
    with pytest.raises(ParseError):
        system.frontend("MiniML").parse_type("(foreign bool)")


def test_l3_miniml_reads_the_foreign_type():
    unit = make_l3_system().compile_source("MiniML", "(lam (x (foreign (cap z bool))) x)")
    assert str(unit.type) == "(⟨(cap z bool)⟩ -> ⟨(cap z bool)⟩)"


SCHEDULER = make_default_scheduler()

WORKLOADS = {
    "refs": ("RefLL", nested_refll_boundary),
    "affine": ("MiniML", nested_ml_affi_boundary),
    "l3": ("MiniML", nested_ml_l3_boundary),
}


@pytest.mark.parametrize("depth", [1_000, 5_000])
@pytest.mark.parametrize("system", sorted(WORKLOADS))
def test_serving_refuses_deep_programs_with_a_parse_error(system, depth):
    language, builder = WORKLOADS[system]
    requests = [
        Request(language=language, system=system, source=builder(depth), backend="substitution"),
        Request(language=language, system=system, source=builder(depth), backend="cek-compiled"),
        Request(language=language, system=system, source=builder(depth), analyze_only=True),
    ]
    for response in SCHEDULER.serve(requests):
        assert response.error is not None and response.error.startswith("ParseError: "), response.error


@pytest.mark.parametrize(
    "system,depth,value",
    [("refs", 82, "1"), ("affine", 82, "83"), ("l3", 243, "1")],
)
def test_serving_still_answers_the_deepest_workloads_served_before(system, depth, value):
    language, builder = WORKLOADS[system]
    for backend in ("substitution", "cek-compiled"):
        (response,) = SCHEDULER.serve([Request(language=language, system=system, source=builder(depth), backend=backend)])
        assert response.error is None, response.error
        assert str(response.result.value) == value



def _nesting(source: str) -> int:
    depth = deepest = 0
    for character in source:
        depth += {"(": 1, ")": -1}.get(character, 0)
        deepest = max(deepest, depth)
    return deepest


# Each workload at the depth where its nesting is exactly MAX_NESTING, and its value.
AT_THE_LIMIT = [
    ("refs", MAX_NESTING // 4, "1"),
    ("affine", MAX_NESTING // 3, str(MAX_NESTING // 3 + 1)),
    ("l3", MAX_NESTING - 3, "1"),
]


@pytest.mark.parametrize("system,depth,value", AT_THE_LIMIT, ids=[case[0] for case in AT_THE_LIMIT])
def test_every_later_stage_serves_programs_at_the_limit(system, depth, value):
    language, builder = WORKLOADS[system]
    source = builder(depth)
    assert _nesting(source) == MAX_NESTING
    requests = [
        Request(language=language, system=system, source=source, backend="substitution"),
        Request(language=language, system=system, source=source, backend="cek-compiled"),
        Request(language=language, system=system, source=source, analyze_only=True),
    ]
    responses = SCHEDULER.serve(requests)
    for response in responses:
        assert response.error is None, response.error
    assert [str(response.result.value) for response in responses[:2]] == [value, value]
