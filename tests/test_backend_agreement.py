"""Property-based differential tests across the evaluator backends.

The substitution machine is the paper-faithful oracle; the compiled engines
must be observably equivalent: identical values, identical error codes, and
identical heaps.

Two levels of heap comparison are used:

* an address-insensitive observation: the result value plus the heap
  fragment it reaches, with fragment sizes taken after a result-rooted
  collection;
* raw post-``callgc`` heaps: the free-variable-pruning ``cek-compiled``
  machine restores the oracle's GC precision exactly, so its raw final
  heaps — exact addresses, exact cells, exact collection statistics — are
  compared with **no** result-rooted normalization.
"""

import dataclasses
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.errors import ErrorCode
from repro.interop_affine import DOUBLE_FORCE_PROGRAM
from repro.interop_affine import make_system as make_affine_system
from repro.interop_l3 import make_system as make_l3_system
from repro.interop_refs import make_system as make_refs_system
from repro.lcvm import CellKind, Heap, cek
from repro.lcvm import machine as lcvm_machine
from repro.lcvm.machine import Status
from repro.lcvm.syntax import (
    Alloc,
    App,
    Assign,
    BinOp,
    CallGc,
    Deref,
    Fail,
    Free,
    Fst,
    GcMov,
    If,
    Inl,
    Inr,
    Int,
    Lam,
    Let,
    Loc,
    Match,
    NewRef,
    Pair,
    Snd,
    Unit,
    Var,
    mentioned_locations,
)
from repro.stacklang import Num as StackNum
from repro.stacklang import Status as StackStatus
from repro.stacklang import cek as stack_cek
from repro.stacklang import machine as stack_machine
from repro.stacklang.syntax import Add, Call, If0, Less, Push, Read, Thunk, program
from repro.stacklang.syntax import Alloc as StackAlloc
from repro.stacklang.syntax import Lam as StackLam
from repro.stacklang.syntax import Var as StackVar

MACHINE_FUEL = 50_000
FAST_FUEL = 500_000  # the compiled engines take more, finer-grained steps


# ---------------------------------------------------------------------------
# Random closed(ish) LCVM programs
# ---------------------------------------------------------------------------

_NAMES = ("a", "b", "c")


def lcvm_programs():
    names = st.sampled_from(_NAMES)
    operators = st.sampled_from(["+", "-", "*", "<"])
    leaves = st.one_of(
        st.integers(-3, 3).map(Int),
        st.just(Unit()),
        names.map(Var),  # often unbound: exercises TYPE-failure parity
        st.just(CallGc()),
        st.sampled_from([Fail(ErrorCode.CONV), Fail(ErrorCode.PTR)]),
    )

    def extend(child):
        return st.one_of(
            st.builds(Pair, child, child),
            st.builds(Fst, child),
            st.builds(Snd, child),
            st.builds(Inl, child),
            st.builds(Inr, child),
            st.builds(If, child, child, child),
            st.builds(Match, child, names, child, names, child),
            st.builds(Let, names, child, child),
            st.builds(Lam, names, child),
            st.builds(App, child, child),
            st.builds(BinOp, operators, child, child),
            st.builds(NewRef, child),
            st.builds(Alloc, child),
            st.builds(Deref, child),
            st.builds(Assign, child, child),
            st.builds(Free, child),
            st.builds(GcMov, child),
        )

    return st.recursive(leaves, extend, max_leaves=20)


# ---------------------------------------------------------------------------
# Canonical observations (addresses compared up to renaming)
# ---------------------------------------------------------------------------


def _canon(expr, mapping, pending):
    """Rename every location to its first-visit index, recording visits."""
    if isinstance(expr, Loc):
        if expr.address not in mapping:
            mapping[expr.address] = len(mapping)
            pending.append(expr.address)
        return Loc(mapping[expr.address])
    if not dataclasses.is_dataclass(expr):
        return expr
    replacements = {}
    for field in dataclasses.fields(expr):
        child = getattr(expr, field.name)
        if dataclasses.is_dataclass(child):
            replacements[field.name] = _canon(child, mapping, pending)
        else:
            replacements[field.name] = child
    return type(expr)(**replacements)


def observation(value, heap):
    """Everything observable about a successful run, address-insensitively.

    The result value and the heap fragment reachable from it are renamed to
    canonical addresses; fragment sizes are taken after a result-rooted
    collection so all backends are measured against the same notion of
    liveness.
    """
    mapping, pending = {}, []
    canon_value = _canon(value, mapping, pending)
    cells = []
    index = 0
    while index < len(pending):
        cell = heap.cells.get(pending[index])
        index += 1
        if cell is None:
            cells.append("dangling")
        else:
            cells.append((cell.kind.value, _canon(cell.value, mapping, pending)))
    normalized = heap.copy()
    normalized.collect(roots=mentioned_locations(value))
    return (
        canon_value,
        tuple(cells),
        len(normalized.gc_fragment()),
        len(normalized.manual_fragment()),
    )


def _machine_outcome(result):
    if result.status is Status.FAIL:
        return ("fail", result.failure_code, len(result.heap.manual_fragment()))
    return ("value",) + observation(result.value, result.heap)


@given(program=lcvm_programs())
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_lcvm_backends_agree(program):
    reference = lcvm_machine.run(program, fuel=MACHINE_FUEL)
    assume(reference.status is not Status.OUT_OF_FUEL)
    compiled_result = cek.run_compiled(program, fuel=FAST_FUEL)
    assume(compiled_result.status is not Status.OUT_OF_FUEL)
    assert _machine_outcome(compiled_result) == _machine_outcome(reference)


@given(program=lcvm_programs())
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_compiled_machine_matches_oracle_raw_heaps(program):
    """``cek-compiled`` vs substitution with NO result-rooted normalization.

    Environment pruning restores the oracle's GC precision, so the raw final
    heaps — exact addresses (both machines share the smallest-first
    allocator), exact cells, and exact collection statistics — must be
    identical, without collecting at the end.
    """
    reference = lcvm_machine.run(program, fuel=MACHINE_FUEL)
    assume(reference.status is not Status.OUT_OF_FUEL)
    compiled = cek.run_compiled(program, fuel=FAST_FUEL)
    assume(compiled.status is not Status.OUT_OF_FUEL)

    assert compiled.status == reference.status
    if reference.status is Status.VALUE:
        assert compiled.value == reference.value
    else:
        assert compiled.failure_code == reference.failure_code
    assert compiled.heap.cells == reference.heap.cells
    assert compiled.heap.collections == reference.heap.collections
    assert compiled.heap.reclaimed == reference.heap.reclaimed


# ---------------------------------------------------------------------------
# Whole-pipeline agreement in all three interop systems
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _system(factory_name):
    return {"refs": make_refs_system, "affine": make_affine_system, "l3": make_l3_system}[factory_name]()


def refll_sources():
    leaves = st.integers(0, 5).map(str)

    def extend(child):
        return st.one_of(
            st.builds("(+ {} {})".format, child, child),
            st.builds("(+ 1 (boundary int (if (boundary bool {}) false true)))".format, child),
            st.builds("(! (ref {}))".format, child),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def miniml_affine_sources():
    leaves = st.integers(0, 5).map(str)

    def extend(child):
        return st.one_of(
            st.builds("(+ {} {})".format, child, child),
            st.builds("(boundary int (boundary int {}))".format, child),
            st.builds("(! (ref {}))".format, child),
            st.builds("(let (r (ref {})) (let (u (set! r {})) (! r)))".format, child, child),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def miniml_l3_sources():
    leaves = st.integers(0, 5).map(str)

    def extend(child):
        return st.one_of(
            st.builds("(+ {} {})".format, child, child),
            st.builds("(+ {} (! (boundary (ref int) (new true))))".format, child),
            st.builds(
                "(let (r (boundary (ref int) (new false))) (let (u (set! r {})) (! r)))".format, child
            ),
        )

    return st.recursive(leaves, extend, max_leaves=5)


def _assert_backends_agree(system, language, source):
    outcomes = {
        backend: system.run_source(language, source, backend=backend)
        for backend in system.target.backend_names()
    }
    expected = outcomes["substitution"]
    for backend, outcome in outcomes.items():
        assert outcome.value == expected.value, (backend, source)
        assert outcome.failure == expected.failure, (backend, source)


@given(source=refll_sources())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_refs_system_backends_agree(source):
    _assert_backends_agree(_system("refs"), "RefLL", source)


@given(source=miniml_affine_sources())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_affine_system_backends_agree(source):
    _assert_backends_agree(_system("affine"), "MiniML", source)


@given(source=miniml_l3_sources())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_l3_system_backends_agree(source):
    _assert_backends_agree(_system("l3"), "MiniML", source)


# ---------------------------------------------------------------------------
# Deterministic error-code parity across backends
# ---------------------------------------------------------------------------

_FAILING_LCVM_PROGRAMS = [
    (Let("r", Alloc(Int(1)), Let("_", Free(Var("r")), Deref(Var("r")))), ErrorCode.PTR),
    (Let("r", Alloc(Int(1)), Let("_", Free(Var("r")), Assign(Var("r"), Int(2)))), ErrorCode.PTR),
    (Let("r", Alloc(Int(1)), Let("_", Free(Var("r")), Free(Var("r")))), ErrorCode.PTR),
    (Free(NewRef(Int(1))), ErrorCode.PTR),
    (App(Int(1), Int(2)), ErrorCode.TYPE),
    (Let("x", Fail(ErrorCode.CONV), Int(1)), ErrorCode.CONV),
]


@pytest.mark.parametrize(
    "program,code", _FAILING_LCVM_PROGRAMS, ids=[str(p)[:48] for p, _ in _FAILING_LCVM_PROGRAMS]
)
def test_failure_codes_agree_on_all_lcvm_backends(program, code):
    assert lcvm_machine.run(program).failure_code is code
    assert cek.run_compiled(program).failure_code is code


def test_conv_failure_agrees_across_affine_backends():
    system = _system("affine")
    for backend in system.target.backend_names():
        result = system.run_source("Affi", DOUBLE_FORCE_PROGRAM, backend=backend)
        assert not result.ok
        assert result.failure is ErrorCode.CONV, backend


def test_compiled_roots_in_flight_temporaries():
    # While a pair's second component runs callgc, the already evaluated
    # first component must stay a GC root — sweeping it (env-only roots)
    # would fail Ptr on the Deref.
    program = Let(
        "p",
        Pair(NewRef(Int(1)), CallGc()),
        Deref(Fst(Var("p"))),
    )
    assert lcvm_machine.run(program).value == Int(1)
    compiled = cek.run_compiled(program)
    assert compiled.failure_code is None
    assert compiled.value == Int(1)


def test_compiled_roots_locations_pending_code_mentions():
    # No frontend emits a location literal, so only machine-level programs
    # reach this root: ℓ0 is live at callgc because the code waiting in the
    # let frame mentions it, and nothing else does.
    def seeded():
        heap = Heap()
        heap.allocate(Int(5), CellKind.GC)
        return heap

    program = Let("_", CallGc(), Deref(Loc(0)))
    oracle = lcvm_machine.run(program, heap=seeded())
    assert oracle.value == Int(5)
    compiled = cek.run_compiled(program, heap=seeded())
    assert compiled.failure_code is None
    assert compiled.value == Int(5)
    assert dict(compiled.heap.cells) == dict(oracle.heap.cells)


# ---------------------------------------------------------------------------
# Raw post-callgc fragments: dead-let precision of the compiled machine
# ---------------------------------------------------------------------------

_DEAD_LET_PROGRAMS = [
    # The canonical case: a dead let-binding must be collected mid-run.
    Let(
        "keep",
        NewRef(Int(1)),
        Let("dead", NewRef(Int(2)), Let("_", CallGc(), Deref(Var("keep")))),
    ),
    # A closure that does not capture the dead binding must not root it.
    Let(
        "dead",
        NewRef(Int(7)),
        Let("f", Lam("x", Var("x")), Let("_", CallGc(), App(Var("f"), Int(3)))),
    ),
    # ... while a closure that mentions a binding keeps it alive.
    Let(
        "live",
        NewRef(Int(5)),
        Let("f", Lam("x", Deref(Var("live"))), Let("_", CallGc(), App(Var("f"), Int(0)))),
    ),
    # A binding only free in the *other* match branch is dead once the
    # branch is chosen (branch selection re-prunes the environment).
    Let(
        "a",
        NewRef(Int(1)),
        Match(Inl(Int(0)), "x", Let("_", CallGc(), Int(9)), "y", Deref(Var("a"))),
    ),
    # Dead binding while a continuation frame holds an in-flight value.
    Let(
        "dead",
        NewRef(Int(2)),
        Pair(NewRef(Int(3)), Let("_", CallGc(), Int(1))),
    ),
    # Nested shadowing: only the innermost binding is live.
    Let(
        "r",
        NewRef(Int(1)),
        Let("r", NewRef(Int(2)), Let("_", CallGc(), Deref(Var("r")))),
    ),
]


@pytest.mark.parametrize(
    "program", _DEAD_LET_PROGRAMS, ids=[str(p)[:56] for p in _DEAD_LET_PROGRAMS]
)
def test_compiled_machine_collects_dead_lets_like_oracle(program):
    """Raw-fragment differential: exact cells, addresses, and GC statistics."""
    reference = lcvm_machine.run(program, fuel=MACHINE_FUEL)
    compiled = cek.run_compiled(program, fuel=FAST_FUEL)
    assert compiled.status == reference.status
    assert compiled.value == reference.value
    assert compiled.heap.cells == reference.heap.cells  # no normalization
    assert compiled.heap.collections == reference.heap.collections
    assert compiled.heap.reclaimed == reference.heap.reclaimed


def test_compiled_machine_drops_dead_binding_mid_run():
    # On the canonical dead-let program the compiled machine reclaims the
    # dead cell at callgc, like the oracle, rather than at the end of scope.
    program = _DEAD_LET_PROGRAMS[0]
    compiled = cek.run_compiled(program)
    assert compiled.value == Int(1)
    assert compiled.heap.reclaimed == 1  # `dead` collected at callgc
    assert set(compiled.heap.cells) == {0}  # only `keep`'s cell survives


def test_compiled_backend_registered_and_default_in_all_systems():
    for factory_name in ("refs", "affine", "l3"):
        system = _system(factory_name)
        assert "cek-compiled" in system.target.backend_names(), factory_name
        assert system.target.default_backend == "cek-compiled", factory_name
        assert "substitution" in system.target.backend_names(), factory_name


# ---------------------------------------------------------------------------
# StackLang: chains of stack fragments agree with the oracle
# ---------------------------------------------------------------------------
#
# Each fragment preserves the invariant "a ``Num`` on top of the stack in, a
# ``Num`` on top out", so chains compose arbitrarily and always run to a
# value: constant add/compare, static and dynamic ``if0``, a bound thunk
# looked up and called, and an alloc/read round trip for heap contents.


def _const_add(number):
    return program(Push(StackNum(number)), Add())


def _const_less(number):
    return program(Push(StackNum(number)), Less())


def _const_branch(number, then_number, else_number):
    return program(
        Push(StackNum(number)), If0((Push(StackNum(then_number)),), (Push(StackNum(else_number)),))
    )


def _var_branch(then_number, else_number):
    body = program(
        Push(StackVar("fz")), If0((Push(StackNum(then_number)),), (Push(StackNum(else_number)),))
    )
    return (StackLam(("fz",), body),)


def _var_call(body_number):
    thunk = Thunk((Push(StackNum(body_number)),))
    return program(Push(thunk), StackLam(("ft",), program(Push(StackVar("ft")), Call())))


def _alloc_read():
    return program(StackAlloc(), Read())


def stack_fragment_chains(max_fragments=5):
    numbers = st.integers(min_value=-8, max_value=8)
    fragments = st.one_of(
        st.builds(_const_add, numbers),
        st.builds(_const_less, numbers),
        st.builds(_const_branch, numbers, numbers, numbers),
        st.builds(_var_branch, numbers, numbers),
        st.builds(_var_call, numbers),
        st.builds(_alloc_read),
    )
    return st.builds(
        lambda seed, chain: program(Push(StackNum(seed)), *chain),
        numbers,
        st.lists(fragments, min_size=1, max_size=max_fragments),
    )


def _stack_outcome(result):
    """Status, top value, failure code, and the exact final heap (steps
    excluded — fuel granularity is backend-specific)."""
    return (result.status, result.value, result.failure_code, dict(result.heap))


@given(chain=stack_fragment_chains())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_stacklang_backends_agree_on_fragment_chains(chain):
    reference = stack_machine.run(chain, fuel=MACHINE_FUEL)
    assert reference.status is not StackStatus.OUT_OF_FUEL
    assert _stack_outcome(stack_cek.run_compiled(chain, fuel=FAST_FUEL)) == _stack_outcome(reference)


def test_canonical_fragment_chain_agrees_on_both_backends():
    chain = program(
        Push(StackNum(4)),
        _const_add(3),  # 4 -> 7
        _const_less(5),  # 5 < 7 -> 0
        _const_branch(0, 8, 9),  # static 0 -> then -> 8
        _var_branch(1, 2),  # 8 != 0 -> else -> 2
        _var_call(7),  # thunk pushes 7
        _alloc_read(),  # alloc 7, read it back
    )
    reference = stack_machine.run(chain, fuel=MACHINE_FUEL)
    assert reference.status is StackStatus.VALUE
    assert reference.value == StackNum(7)
    assert dict(reference.heap) == {0: StackNum(7)}
    assert _stack_outcome(stack_cek.run_compiled(chain, fuel=FAST_FUEL)) == _stack_outcome(reference)
