"""End-to-end tests of the §5 system (MiniML + L3 + LCVM/memory) and its checkers."""

import pytest

from repro.core.errors import ConvertibilityError
from repro.interop_l3 import (
    check_convertibility_soundness,
    check_foreign_type_discipline,
    check_ownership_transfer,
    check_type_safety,
    make_system,
)
from repro.l3 import parse_type as parse_l3_type
from repro.lcvm import CellKind, Int, Loc, Status
from repro.lcvm import machine as lcvm_machine
from repro.miniml import parse_type as parse_ml_type


@pytest.fixture(scope="module")
def system():
    return make_system()


# -- reference transfer (the heart of §5) --------------------------------------------


def test_l3_reference_transfers_to_miniml_without_copying(system):
    unit = system.compile_source("MiniML", "(boundary (ref int) (new true))")
    result = lcvm_machine.run(unit.target_code)
    assert result.status is Status.VALUE
    assert isinstance(result.value, Loc)
    assert len(result.heap) == 1
    assert result.heap.cells[result.value.address].kind is CellKind.GC


def test_miniml_reads_and_writes_transferred_reference(system):
    source = "(let (r (boundary (ref int) (new false))) (let (i (set! r 7)) (! r)))"
    assert system.run_source("MiniML", source).value == Int(7)


def test_miniml_reference_is_copied_into_l3(system):
    unit = system.compile_source("L3", "(free (boundary (refpkg bool) (ref 0)))")
    result = lcvm_machine.run(unit.target_code)
    assert result.status is Status.VALUE
    assert result.value == Int(0)
    # The manual copy was freed; the original GC cell is still there.
    kinds = [cell.kind for cell in result.heap.cells.values()]
    assert kinds == [CellKind.GC]


def test_l3_frees_its_copy_without_touching_the_original(system):
    source = "(let (r (ref 5)) (let (ignore (boundary unit (let-unit (drop (free (boundary (refpkg bool) r))) unit))) (! r)))"
    # Freeing the L3 copy must not invalidate the MiniML reference.
    result = system.run_source("MiniML", source)
    assert result.ok
    assert result.value == Int(5)


# -- booleans and polymorphism ---------------------------------------------------------


def test_church_boolean_conversion_both_directions(system):
    assert system.run_source("L3", "(if (boundary bool (tylam a (lam (x a) (lam (y a) x)))) true false)").value == Int(0)
    assert system.run_source("MiniML", "(((tyapp (boundary (forall a (-> a (-> a a))) false) int) 10) 20)").value == Int(20)


def test_foreign_type_instantiates_miniml_polymorphism(system):
    source = (
        "(((tyapp (tylam a (lam (x a) (lam (y a) y))) (foreign bool)) "
        "(boundary (foreign bool) true)) (boundary (foreign bool) false))"
    )
    assert system.run_source("MiniML", source).value == Int(1)


def test_foreign_type_restricted_to_duplicable(system):
    with pytest.raises(ConvertibilityError):
        system.compile_source("MiniML", "(boundary (foreign (cap z bool)) (new true))")


def test_function_conversion_across_languages(system):
    assert system.run_source("MiniML", "((boundary (-> int int) (bang (lam (b (! bool)) (let! (x b) x)))) 5)").value == Int(1)
    assert system.run_source("L3", "(let! (f (boundary (! (-o (! bool) bool)) (lam (x int) x))) (f (bang true)))").value == Int(0)


def test_inconvertible_boundary_rejected(system):
    with pytest.raises(ConvertibilityError):
        system.compile_source("L3", "(boundary (-o bool bool) 5)")


# -- checkers ---------------------------------------------------------------------------


def test_all_section5_checkers_pass(system):
    for report in (
        check_convertibility_soundness(system=system),
        check_type_safety(system=system),
        check_ownership_transfer(system=system),
        check_foreign_type_discipline(system=system),
    ):
        assert report.ok, str(report)


def test_registered_checks_run_through_the_system(system):
    reports = system.run_soundness_checks()
    assert set(reports) == {
        "convertibility-soundness",
        "type-safety",
        "ownership-transfer",
        "foreign-types",
    }
    assert all(report.ok for report in reports.values())


# -- glue that a program can observe ----------------------------------------------------


@pytest.mark.parametrize("backend", ["substitution", "cek-compiled"])
def test_function_glue_converts_the_argument_toward_miniml(system, backend):
    """MiniML → L3 function glue converts the L3 argument ``bool`` to a Church
    boolean (``C[bool ↦ BOOL]``) before the MiniML body applies it."""
    source = (
        "(let! (f (boundary (! (-o (! bool) bool))"
        " (lam (b (forall a (-> a (-> a a)))) (((tyapp b int) 0) 1))))"
        " (f (bang true)))"
    )
    assert system.run_source("L3", source, backend=backend).value == Int(0)


# -- rule patterns: a name matches the same name at each occurrence -----------------------


@pytest.mark.parametrize(
    "ml_type,l3_type,rule",
    [
        ("(forall b (-> b (-> b b)))", "bool", "Church BOOL ~ bool"),
        ("(forall a (-> b (-> a a)))", "bool", None),
        ("(ref int)", "(exists y (tensor (cap y bool) (ptr y)))", "ref τ ~ REF τ̄"),
        ("(ref int)", "(exists y (tensor (cap y bool) (! (ptr z))))", None),
        ("(ref int)", "(exists y (tensor (cap z bool) (! (ptr y))))", None),
        ("(foreign (! bool))", "(! bool)", "foreign ⟨τ⟩ ~ τ (Duplicable)"),
        ("(foreign (tensor bool bool))", "(tensor bool bool)", None),
    ],
)
def test_rule_patterns_match_binders_and_side_conditions(system, ml_type, l3_type, rule):
    conversion = system.convertibility.query(parse_ml_type(ml_type), parse_l3_type(l3_type))
    assert (conversion.rule_name if conversion else None) == rule
