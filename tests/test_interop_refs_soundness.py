"""Tests for the bounded soundness checkers of the §3 system (Lemma 3.1, Thms 3.2-3.4)."""

import pytest

from repro.core.errors import ErrorCode
from repro.interop_refs import (
    RefsModel,
    check_convertibility_soundness,
    check_fundamental_property,
    check_reference_sharing_requires_identical_interpretations,
    check_type_safety,
    make_convertibility,
    make_system,
)
from repro.interop_refs.conversions import rule
from repro.interop_refs.model import LANGUAGE_A, LANGUAGE_B
from repro.refhl import parse_type as parse_hl_type
from repro.refll import parse_type as parse_ll_type
from repro.stacklang import Num, Push, program


@pytest.fixture(scope="module")
def system():
    return make_system()


@pytest.fixture(scope="module")
def model():
    return RefsModel()


def test_convertibility_soundness_holds_on_default_pairs(system, model):
    report = check_convertibility_soundness(system=system, model=model)
    assert report.ok, str(report)
    assert report.checked > 20


def test_fundamental_property_holds_on_corpus(system, model):
    report = check_fundamental_property(system=system, model=model)
    assert report.ok, str(report)
    assert report.checked == 25


def test_type_safety_holds_on_corpus(system):
    report = check_type_safety(system=system)
    assert report.ok, str(report)


def test_reference_sharing_design_lesson(model):
    report = check_reference_sharing_requires_identical_interpretations(model=model)
    assert report.ok, str(report)
    assert report.checked == 4


def test_system_run_soundness_checks_aggregates(system):
    reports = system.run_soundness_checks()
    assert set(reports) == {"convertibility-soundness", "fundamental-property", "type-safety"}
    assert all(report.ok for report in reports.values())


def test_unsound_glue_is_detected_by_the_checker(model):
    """Register a deliberately wrong conversion and confirm Lemma 3.1 fails.

    The bogus rule converts ``unit`` to ``int`` by leaving the value alone but
    claims the reverse direction is also a no-op — unsound because ``V[[unit]]``
    contains only 0.
    """
    relation = make_convertibility()
    # A bogus row: no-op glue both ways, registered last so it takes precedence.
    relation.register(rule("bogus", "unit", "int"))
    report = check_convertibility_soundness(relation=relation, model=model, pairs=[("unit", "int")])
    assert not report.ok
    assert any("int -> unit" in str(ce) or "unit" in str(ce.source_type) for ce in report.counterexamples)


def test_checker_flags_non_derivable_pair(model):
    relation = make_convertibility()
    report = check_convertibility_soundness(relation=relation, model=model, pairs=[("(ref unit)", "(ref int)")])
    assert not report.ok


def test_ill_typed_target_code_is_outside_expression_relation(model):
    """fail Type is never acceptable behaviour for a well-typed program."""
    from repro.stacklang import Fail

    world = model.default_world(16)
    assert not model.expression_in_type(LANGUAGE_A, parse_hl_type("bool"), world, program(Fail(ErrorCode.TYPE)))
    assert not model.expression_in_type(LANGUAGE_B, parse_ll_type("int"), world, program(Push(Num(0)), Fail(ErrorCode.TYPE)))


def test_reports_render_summaries(system, model):
    report = check_reference_sharing_requires_identical_interpretations(model=model)
    assert "OK" in report.summary()
    assert "membership checks" in str(report)
