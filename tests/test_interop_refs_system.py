"""End-to-end tests of the §3 interoperability system (RefHL + RefLL + StackLang)."""

import pytest

from repro.core.errors import ConvertibilityError, ErrorCode
from repro.interop_refs import LANGUAGE_A, LANGUAGE_B, make_system
from repro.refhl.types import BOOL, RefType as HLRef
from repro.refll.types import INT, ArrayType
from repro.stacklang import Arr, Loc, Num


@pytest.fixture(scope="module")
def system():
    return make_system()


# -- boundaries from RefLL into RefHL ----------------------------------------


def test_refll_uses_refhl_boolean(system):
    result = system.run_source(LANGUAGE_B, "(+ 1 (boundary int true))")
    assert result.value == Num(1)  # true compiles to 0


def test_refll_uses_refhl_conditional(system):
    result = system.run_source(LANGUAGE_B, "(+ 1 (boundary int (if true false true)))")
    assert result.value == Num(2)  # false compiles to 1


def test_refll_receives_converted_pair_as_array(system):
    result = system.run_source(LANGUAGE_B, "(boundary (array int) (pair true false))")
    assert result.value == Arr((Num(0), Num(1)))


def test_refll_receives_converted_sum_as_array(system):
    result = system.run_source(LANGUAGE_B, "(boundary (array int) (inr (sum bool bool) false))")
    assert result.value == Arr((Num(1), Num(1)))


def test_refll_indexes_into_converted_sum(system):
    result = system.run_source(LANGUAGE_B, "(idx (boundary (array int) (inl (sum bool bool) true)) 1)")
    assert result.value == Num(0)


def test_refll_shares_refhl_reference_directly(system):
    # The conversion is a no-op: the RefLL code reads the very same location.
    result = system.run_source(LANGUAGE_B, "(! (boundary (ref int) (ref false)))")
    assert result.value == Num(1)


def test_refll_writes_through_shared_reference(system):
    source = "((lam (r (ref int)) ((lam (ignore int) (! r)) (set! r 7))) (boundary (ref int) (ref true)))"
    result = system.run_source(LANGUAGE_B, source)
    assert result.value == Num(7)


# -- boundaries from RefHL into RefLL ----------------------------------------


def test_refhl_uses_refll_arithmetic(system):
    result = system.run_source(LANGUAGE_A, "(if (boundary bool (+ 1 0)) true false)")
    assert result.value == Num(1)  # non-zero int means false


def test_refhl_uses_refll_zero_as_true(system):
    result = system.run_source(LANGUAGE_A, "(if (boundary bool 0) true false)")
    assert result.value == Num(0)


def test_refhl_shares_refll_reference_directly(system):
    result = system.run_source(LANGUAGE_A, "(! (boundary (ref bool) (ref 3)))")
    assert result.value == Num(3)


def test_refhl_receives_array_as_pair(system):
    result = system.run_source(LANGUAGE_A, "(snd (boundary (prod bool bool) (array 0 1)))")
    assert result.value == Num(1)


def test_refhl_array_too_short_for_pair_fails_conv(system):
    result = system.run_source(LANGUAGE_A, "(fst (boundary (prod bool bool) (array 0)))")
    assert not result.ok
    assert result.failure == ErrorCode.CONV


def test_refhl_array_to_sum_with_bad_tag_fails_conv(system):
    result = system.run_source(LANGUAGE_A, "(match (boundary (sum bool bool) (array 9 0)) (x x) (y y))")
    assert not result.ok
    assert result.failure == ErrorCode.CONV


def test_refhl_array_to_sum_with_good_tag(system):
    result = system.run_source(LANGUAGE_A, "(match (boundary (sum bool bool) (array 1 0)) (x false) (y y))")
    assert result.value == Num(0)


# -- nested boundaries ---------------------------------------------------------


def test_nested_boundaries_round_trip(system):
    source = "(+ 1 (boundary int (if (boundary bool 0) true false)))"
    result = system.run_source(LANGUAGE_B, source)
    assert result.value == Num(1)  # inner 0 is true, so outer yields true = 0


def test_function_conversion_extension(system):
    # A RefHL bool->bool function used from RefLL as int->int.
    source = "((boundary (-> int int) (lam (x bool) (if x false true))) 0)"
    result = system.run_source(LANGUAGE_B, source)
    assert result.value == Num(1)


def test_function_conversion_other_direction(system):
    source = "((boundary (-> bool bool) (lam (x int) (+ x 1))) true)"
    result = system.run_source(LANGUAGE_A, source)
    assert result.value == Num(1)


# -- typechecking of boundaries ------------------------------------------------


def test_boundary_types_are_reported(system):
    unit = system.compile_source(LANGUAGE_B, "(boundary (array int) (pair true false))")
    assert unit.type == ArrayType(INT)
    unit = system.compile_source(LANGUAGE_A, "(boundary (ref bool) (ref 0))")
    assert unit.type == HLRef(BOOL)


def test_inconvertible_boundary_is_rejected(system):
    with pytest.raises(ConvertibilityError):
        system.compile_source(LANGUAGE_B, "(boundary (ref int) (ref unit))")


def test_boundary_respects_foreign_environments(system):
    term = system.frontend(LANGUAGE_B).parse_expr("(+ x (boundary int y))")
    inferred = system.frontend(LANGUAGE_B).typecheck(term, env={"x": INT}, foreign_env={"y": BOOL})
    assert inferred == INT


def test_open_boundary_with_unbound_foreign_variable_is_rejected(system):
    from repro.core.errors import ScopeError

    term = system.frontend(LANGUAGE_B).parse_expr("(+ 1 (boundary int y))")
    with pytest.raises(ScopeError):
        system.frontend(LANGUAGE_B).typecheck(term)


# -- aliasing across the boundary ----------------------------------------------


def test_shared_reference_aliases_not_copies(system):
    """The essence of §3: after conversion both languages see the same cell."""
    unit = system.compile_source(LANGUAGE_B, "(boundary (ref int) (ref true))")
    from repro.stacklang import run

    result = run(unit.target_code)
    assert isinstance(result.value, Loc)
    # Exactly one heap cell was allocated: sharing did not copy.
    assert len(result.heap) == 1


# -- glue that a program can observe -------------------------------------------


@pytest.mark.parametrize("backend", ["substitution", "cek-compiled"])
def test_function_glue_converts_the_argument_toward_refhl(system, backend):
    """RefHL → RefLL function glue converts an incoming ``int`` to ``unit``
    (``C[int ↦ unit]`` collapses it to 0) before the RefHL body sees it."""
    result = system.run_source(LANGUAGE_B, "((boundary (-> int int) (lam (x unit) x)) 5)", backend=backend)
    assert result.value == Num(0)
