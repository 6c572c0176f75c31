"""Tests for the LCVM machine (Fig. 6 + Fig. 12), heap, GC, and the compiled CEK machine."""

import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ErrorCode, MachineFailure
from repro.core.language import CompiledUnit
from repro.interop_affine import make_system as make_affine_system
from repro.interop_l3 import make_system as make_l3_system
from repro.lcvm import values as values_module
from repro.lcvm import (
    HeapCell,
    cek,
    Alloc,
    App,
    Assign,
    BinOp,
    CallGc,
    CellKind,
    Deref,
    Fail,
    Free,
    Fst,
    GcMov,
    Heap,
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
    Status,
    Unit,
    Var,
    free_variables,
    is_value,
    let_sequence,
    run,
    substitute,
)
from repro.lcvm.backends import make_lcvm_backend


# -- core evaluation -----------------------------------------------------------


def test_int_and_unit_are_values():
    assert is_value(Int(3))
    assert is_value(Unit())
    assert not is_value(BinOp("+", Int(1), Int(2)))


def test_arithmetic():
    assert run(BinOp("+", Int(2), Int(3))).value == Int(5)
    assert run(BinOp("*", Int(2), Int(3))).value == Int(6)
    assert run(BinOp("-", Int(2), Int(3))).value == Int(-1)


def test_less_encodes_booleans_zero_is_true():
    assert run(BinOp("<", Int(1), Int(2))).value == Int(0)
    assert run(BinOp("<", Int(3), Int(2))).value == Int(1)


def test_application_and_substitution():
    program = App(Lam("x", BinOp("+", Var("x"), Int(1))), Int(41))
    assert run(program).value == Int(42)


def test_let_binds_value():
    program = Let("x", Int(7), Pair(Var("x"), Var("x")))
    assert run(program).value == Pair(Int(7), Int(7))


def test_if_zero_takes_then_branch():
    assert run(If(Int(0), Int(10), Int(20))).value == Int(10)
    assert run(If(Int(3), Int(10), Int(20))).value == Int(20)


def test_if_non_integer_fails_type():
    result = run(If(Unit(), Int(1), Int(2)))
    assert result.status is Status.FAIL
    assert result.failure_code is ErrorCode.TYPE


def test_match_on_injections():
    program = Match(Inl(Int(5)), "x", BinOp("+", Var("x"), Int(1)), "y", Int(0))
    assert run(program).value == Int(6)
    program = Match(Inr(Int(5)), "x", Int(0), "y", BinOp("+", Var("y"), Int(2)))
    assert run(program).value == Int(7)


def test_projections():
    assert run(Fst(Pair(Int(1), Int(2)))).value == Int(1)
    assert run(Snd(Pair(Int(1), Int(2)))).value == Int(2)
    assert run(Fst(Int(3))).failure_code is ErrorCode.TYPE


def test_application_of_non_function_fails_type():
    assert run(App(Int(1), Int(2))).failure_code is ErrorCode.TYPE


def test_unbound_variable_fails_type():
    assert run(Var("nope")).failure_code is ErrorCode.TYPE


def test_fail_propagates_code():
    result = run(Let("x", Fail(ErrorCode.CONV), Int(1)))
    assert result.status is Status.FAIL
    assert result.failure_code is ErrorCode.CONV


def test_out_of_fuel_on_divergence():
    omega = App(Lam("x", App(Var("x"), Var("x"))), Lam("x", App(Var("x"), Var("x"))))
    assert run(omega, fuel=100).status is Status.OUT_OF_FUEL


# -- references, manual memory, GC ----------------------------------------------


def test_gc_reference_roundtrip():
    program = Let("r", NewRef(Int(1)), Let("_", Assign(Var("r"), Int(9)), Deref(Var("r"))))
    assert run(program).value == Int(9)


def test_manual_alloc_free_and_dangling_ptr():
    program = Let("r", Alloc(Int(1)), Let("_", Free(Var("r")), Deref(Var("r"))))
    result = run(program)
    assert result.status is Status.FAIL
    assert result.failure_code is ErrorCode.PTR


def test_free_of_gc_cell_is_ptr_error():
    assert run(Free(NewRef(Int(1)))).failure_code is ErrorCode.PTR


def test_double_free_is_ptr_error():
    program = Let("r", Alloc(Int(1)), Let("_", Free(Var("r")), Free(Var("r"))))
    assert run(program).failure_code is ErrorCode.PTR


def test_gcmov_transfers_cell_to_gc():
    program = Let("r", Alloc(Int(5)), Deref(GcMov(Var("r"))))
    result = run(program)
    assert result.value == Int(5)
    assert all(cell.kind is CellKind.GC for cell in result.heap.cells.values())


def test_gcmov_of_gc_cell_is_ptr_error():
    assert run(GcMov(NewRef(Int(1)))).failure_code is ErrorCode.PTR


def test_callgc_collects_unreachable_gc_cells():
    program = let_sequence(NewRef(Int(1)), NewRef(Int(2)), CallGc(), Int(0))
    result = run(program)
    assert result.value == Int(0)
    assert len(result.heap) == 0
    assert result.heap.collections == 1
    assert result.heap.reclaimed == 2


def test_callgc_keeps_reachable_cells():
    program = Let("r", NewRef(Int(1)), Let("_", CallGc(), Deref(Var("r"))))
    result = run(program)
    assert result.value == Int(1)
    assert len(result.heap) == 1


def test_callgc_never_collects_manual_cells():
    program = let_sequence(Alloc(Int(1)), CallGc(), Int(0))
    result = run(program)
    assert len(result.heap) == 1
    assert list(result.heap.cells.values())[0].kind is CellKind.MANUAL


def test_heap_addresses_are_reused_after_free():
    heap = Heap()
    first = heap.allocate(Int(1), CellKind.MANUAL)
    heap.free(first)
    second = heap.allocate(Int(2), CellKind.MANUAL)
    assert first == second


# -- the free-list allocator ------------------------------------------------------


def test_allocator_hands_out_smallest_unused_address():
    heap = Heap()
    addresses = [heap.allocate(Int(index), CellKind.MANUAL) for index in range(5)]
    assert addresses == [0, 1, 2, 3, 4]
    heap.free(3)
    heap.free(1)
    # Freed names are re-used smallest-first, exactly like the old linear scan.
    assert heap.allocate(Int(9), CellKind.GC) == 1
    assert heap.allocate(Int(9), CellKind.GC) == 3
    assert heap.allocate(Int(9), CellKind.GC) == 5


def test_fresh_address_is_a_pure_query():
    heap = Heap()
    heap.allocate(Int(0), CellKind.MANUAL)
    heap.free(0)
    assert heap.fresh_address() == heap.fresh_address() == 0


def test_collected_addresses_are_reused():
    result = run(let_sequence(NewRef(Int(1)), NewRef(Int(2)), CallGc(), NewRef(Int(3)), Int(0)))
    assert result.value == Int(0)
    # Both collected names went back to the allocator; the post-collection
    # allocation re-used the smallest one.
    assert set(result.heap.cells) == {0}


def test_heap_copy_preserves_allocation_order():
    heap = Heap()
    for index in range(4):
        heap.allocate(Int(index), CellKind.MANUAL)
    heap.free(2)
    copied = heap.copy()
    assert copied.allocate(Int(9), CellKind.MANUAL) == 2 == heap.allocate(Int(9), CellKind.MANUAL)


def test_allocator_tolerates_direct_cells_mutation():
    heap = Heap()
    heap.cells[0] = HeapCell(Int(1), CellKind.MANUAL)
    heap.cells[2] = HeapCell(Int(2), CellKind.MANUAL)
    assert heap.allocate(Int(3), CellKind.MANUAL) == 1
    assert heap.allocate(Int(4), CellKind.MANUAL) == 3


def test_allocator_finds_untracked_gaps_below_freed_addresses():
    # Direct seeding past the high-water mark followed by a free must still
    # hand out the *smallest* unused name, like the old linear scan.
    heap = Heap()
    heap.cells[2] = HeapCell(Int(1), CellKind.MANUAL)
    heap.free(2)
    assert heap.allocate(Int(9), CellKind.MANUAL) == 0
    collected = Heap()
    collected.cells[5] = HeapCell(Int(1), CellKind.GC)
    collected.collect(roots=())
    assert collected.allocate(Int(9), CellKind.GC) == 0


def test_allocation_is_not_quadratic_in_heap_size():
    heap = Heap()
    for index in range(5_000):
        heap.allocate(Int(index), CellKind.MANUAL)
    # The high-water-mark counter answers without scanning the 5000 cells.
    assert heap.fresh_address() == 5_000
    assert heap._free == []


def test_dangling_heap_access_raises_ptr_failure_not_keyerror():
    heap = Heap()
    for operation in (lambda: heap.read(7), lambda: heap.write(7, Int(1)),
                      lambda: heap.free(7), lambda: heap.move_to_gc(7)):
        with pytest.raises(MachineFailure) as excinfo:
            operation()
        assert excinfo.value.code is ErrorCode.PTR


def test_heap_fragments_split_by_kind():
    heap = Heap()
    heap.allocate(Int(1), CellKind.MANUAL)
    heap.allocate(Int(2), CellKind.GC)
    assert set(heap.manual_fragment().values()) == {Int(1)}
    assert set(heap.gc_fragment().values()) == {Int(2)}


# -- substitution ---------------------------------------------------------------


def test_substitute_respects_binders():
    body = Lam("x", Var("x"))
    assert substitute(body, "x", Int(1)) == body
    open_term = Lam("y", Var("x"))
    assert substitute(open_term, "x", Int(1)) == Lam("y", Int(1))


def test_free_variables():
    term = Let("x", Var("y"), App(Var("x"), Var("z")))
    assert free_variables(term) == frozenset({"y", "z"})


# -- the compiled CEK machine agrees with the reference machine -------------------


_CLOSED_PROGRAMS = [
    BinOp("+", Int(2), Int(3)),
    App(Lam("x", BinOp("*", Var("x"), Var("x"))), Int(6)),
    Let("r", NewRef(Int(1)), Let("_", Assign(Var("r"), Int(9)), Deref(Var("r")))),
    Match(Inl(Int(5)), "x", Var("x"), "y", Int(0)),
    If(Int(0), Pair(Int(1), Int(2)), Pair(Int(3), Int(4))),
    Let("r", Alloc(Int(1)), Let("_", Free(Var("r")), Deref(Var("r")))),
]


@given(st.integers(min_value=-50, max_value=50), st.integers(min_value=-50, max_value=50))
def test_compiled_and_smallstep_agree_on_arithmetic(a, b):
    program = BinOp("+", Int(a), BinOp("*", Int(b), Int(2)))
    assert run(program).value == Int(a + b * 2)
    assert cek.run_compiled(program).value == Int(a + b * 2)


@pytest.mark.parametrize("program", _CLOSED_PROGRAMS, ids=[str(p)[:40] for p in _CLOSED_PROGRAMS])
def test_cek_agrees_with_smallstep(program):
    small = run(program)
    fast = cek.run_compiled(program)
    assert fast.status is small.status
    assert fast.value == small.value
    assert fast.failure_code == small.failure_code
    assert len(fast.heap.manual_fragment()) == len(small.heap.manual_fragment())


_TARGET = make_lcvm_backend()


@pytest.mark.parametrize("backend", _TARGET.backend_names())
@pytest.mark.parametrize("program", _CLOSED_PROGRAMS, ids=[str(p)[:40] for p in _CLOSED_PROGRAMS])
def test_every_engine_agrees_with_smallstep_one_step_per_slice(program, backend):
    # The engines are the only way a system runs code; sliced at a single
    # transition they still reach the reference machine's outcome.
    small = run(program)
    unit = CompiledUnit(language="LCVM", term=None, type=None, target_code=program)
    execution = _TARGET.start(unit, backend=backend, fuel=10_000)
    result = None
    while result is None:
        result = execution.step_n(1)
    if small.status is Status.VALUE:
        assert (result.value, result.failure) == (small.value, None)
    else:
        assert result.failure == (small.failure_code or small.status.value)


def test_cek_reifies_closures_with_captured_environment():
    program = Let("x", Int(5), Lam("y", BinOp("+", Var("x"), Var("y"))))
    result = cek.run_compiled(program)
    assert result.value == Lam("y", BinOp("+", Int(5), Var("y")))
    assert result.value == run(program).value


def test_cek_runs_with_preseeded_syntax_heap():
    heap = Heap()
    address = heap.allocate(Int(41), CellKind.GC)
    result = cek.run_compiled(BinOp("+", Deref(Loc(address)), Int(1)), heap=heap)
    assert result.value == Int(42)


def test_cek_step_count_is_linear_not_quadratic():
    # A right-nested addition of n leaves takes O(n) CEK transitions; the
    # substitution machine re-walks the spine and needs Ω(n²) work.
    def nested(n):
        expression = Int(0)
        for index in range(n):
            expression = BinOp("+", Int(1), expression)
        return expression

    small = cek.run_compiled(nested(100), fuel=1_000_000)
    large = cek.run_compiled(nested(200), fuel=1_000_000)
    assert small.value == Int(100) and large.value == Int(200)
    # Linear growth: doubling the program roughly doubles the steps.
    assert large.steps <= 2 * small.steps + 10


# -- error-code parity: dangling pointers surface Ptr on every backend -------------


_DANGLING_PROGRAMS = [
    Let("r", Alloc(Int(1)), Let("_", Free(Var("r")), Deref(Var("r")))),
    Let("r", Alloc(Int(1)), Let("_", Free(Var("r")), Assign(Var("r"), Int(2)))),
    Let("r", Alloc(Int(1)), Let("_", Free(Var("r")), Free(Var("r")))),
]


@pytest.mark.parametrize("program", _DANGLING_PROGRAMS, ids=["deref", "assign", "free"])
def test_dangling_operations_fail_ptr_on_every_backend(program):
    assert run(program).failure_code is ErrorCode.PTR
    # Must be fail Ptr, never a raw KeyError from the heap.
    assert cek.run_compiled(program).failure_code is ErrorCode.PTR


def test_binop_failure_in_right_operand_outranks_type_error():
    # The reference machine reduces both operands to values before the int
    # check; a bad left operand with a failing right operand is Conv, not Type.
    program = BinOp("+", NewRef(Int(0)), Fail(ErrorCode.CONV))
    assert run(program).failure_code is ErrorCode.CONV
    assert cek.run_compiled(program).failure_code is ErrorCode.CONV


# -- compiled CEK: concurrent compiles -----------------------------------------


def test_compiled_cek_compiles_safely_from_concurrent_threads():
    # In-process network endpoints serve from threads that may compile at
    # once, and may start the same unit at once: every compile must build
    # its own complete, self-consistent node table, whatever interleaves.
    def program(seed):
        expr = Var("x")
        for depth in range(12):
            expr = Let("x", BinOp("+", Int(seed + depth), Var("x")), expr)
        return Let("x", Int(seed), expr)

    size = len(cek.Code(program(0)).nodes)
    shared = CompiledUnit(language="LCVM", term=None, type=None, target_code=program(7))
    failures = []

    def check(code, expr):
        assert code.root is expr and code.exprs[-1] is expr
        assert len(code.nodes) == len(code.exprs) == len(code.mentioned) == size
        assert all(node[1] == index for index, node in enumerate(code.nodes))

    def compile_many(thread):
        try:
            for round_ in range(150):
                expr = program(1000 * thread + round_)
                check(cek.Code(expr), expr)
                check(cek.unit_code(shared), shared.target_code)
        except Exception as error:  # surfaced by the assertion below
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=compile_many, args=(index,)) for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    code = shared.machine_code["cek-compiled"]
    assert cek.CompiledExecution(code.root, code=code).run().value == Int(7 * 13 + sum(range(12)))


# -- compiled CEK: pre-seeded heaps ---------------------------------------------


def _seeded_heap():
    heap = Heap()
    heap.allocate(Lam("x", BinOp("+", Var("x"), Deref(Loc(1)))), CellKind.GC)
    heap.allocate(Int(5), CellKind.GC)
    return heap


def test_seeded_closure_body_compiles_once_per_execution(monkeypatch):
    compiled = []

    class CountingCode(cek.Code):
        __slots__ = ()

        def __init__(self, root):
            compiled.append(root)
            super().__init__(root)

    monkeypatch.setattr(cek, "Code", CountingCode)
    call = App(Var("f"), App(Var("f"), App(Var("f"), Int(1))))
    result = cek.run_compiled(Let("f", Deref(Loc(0)), call), heap=_seeded_heap())
    assert result.value == Int(16)
    # The program and the seeded closure's body, once each — not once per call.
    assert len(compiled) == 2


def test_seeded_closure_keeps_the_locations_its_body_mentions():
    # The oracle's heap holds the lambda as syntax, so after ``f`` is
    # substituted the remaining program mentions ℓ1 and ``callgc`` keeps it.
    program = Let("f", Deref(Loc(0)), Let("_", CallGc(), App(Var("f"), Int(1))))
    oracle = run(program, heap=_seeded_heap())
    compiled = cek.run_compiled(program, heap=_seeded_heap())
    assert oracle.value == compiled.value == Int(6)
    assert dict(compiled.heap.cells) == dict(oracle.heap.cells)


# -- compiled CEK: cached closure roots and exact-environment pruning ------------

_TWICE = "(lam (g (-> int int)) (lam (x int) (g (g x))))"

#: ``warm-loop``'s first l3 step function, and its first affine one reading a
#: fresh MiniML ``ref``: the affine ``warm-loop`` programs allocate nothing,
#: so without the ``ref`` no ``callgc`` would run under the nested ``twice``.
_WARM_STEPS = {
    "l3": "(lam (y int) (+ y (! (boundary (ref int) (new false)))))",
    "affine": "(lam (y int) (boundary int (boundary int (+ y (! (ref 1))))))",
}


def _warm_code(system: str, depth: int):
    """The LCVM code of a ``warm-loop`` program: ``twice`` nested ``depth`` deep."""
    applied = _WARM_STEPS[system]
    for _ in range(depth):
        applied = f"({_TWICE} {applied})"
    make_system = {"l3": make_l3_system, "affine": make_affine_system}[system]
    return make_system().compile_source("MiniML", f"({applied} 3)").target_code


def _closures_in(values):
    """Every closure reachable from ``values`` through values and environments."""
    found, stack, seen = [], list(values), set()
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if type(value) is cek.CClosure:
            found.append(value)
            stack.extend(bound for _name, bound in value.env_bindings())
        elif isinstance(value, values_module.PairV):
            stack.extend((value.first, value.second))
        elif isinstance(value, (values_module.InlV, values_module.InrV)):
            stack.append(value.body)
    return found


def _state_closures(execution):
    values = [cell.value for cell in execution.heap.cells.values()]
    envs = [execution._env] + [frame[3] for frame in execution._kont]
    values.extend(frame[4] for frame in execution._kont if frame[4] is not None)
    if not execution._evaluating:
        values.append(execution._control)
    for cell in envs:
        while cell is not None:
            values.append(cell[1])
            cell = cell[2]
    return _closures_in(values)


def test_closure_root_cache_is_deduplicated_and_iterative():
    # 2,000 levels, each capturing the previous closure twice: without
    # deduplication the top's roots would be 2**2000 long, and a recursive
    # walk would overflow the Python stack.
    closure = cek.CClosure("x", Var("x"), None, ("seed", values_module.LocV(0), None), True, ())
    for level in range(1, 2000):
        environment = ("a", closure, ("b", closure, None))
        closure = cek.CClosure("x", Var("x"), None, environment, True, (level % 16,))
    expected = set(range(16))
    assert sorted(values_module.locations_of(closure)) == sorted(expected)
    assert set(cek._compiled_roots(("f", closure, None), [])) == expected
    for nested in _closures_in([closure]):
        assert nested.roots is not None
        assert len(nested.roots) == len(set(nested.roots))


def test_warm_loop_closure_roots_are_computed_at_most_once(monkeypatch):
    computed = {}
    keep_alive = []
    original = values_module._closure_roots

    def counting(closure, uncached):
        roots = original(closure, uncached)
        if roots is not None:
            keep_alive.append(closure)
            computed[id(closure)] = computed.get(id(closure), 0) + 1
        return roots

    monkeypatch.setattr(values_module, "_closure_roots", counting)
    result = cek.run_compiled(_warm_code("l3", 7), fuel=10**6)
    assert result.value == Int(3 + 2**7)
    assert result.heap.collections == 2**7
    assert computed and max(computed.values()) == 1


def _reference_prune(env, needed):
    kept, remaining = [], set(needed)
    cell = env
    while cell is not None and remaining:
        if cell[0] in remaining:
            remaining.discard(cell[0])
            kept.append(cell)
        cell = cell[2]
    pruned = None
    for cell in reversed(kept):
        pruned = (cell[0], cell[1], pruned)
    return pruned


def _bindings(env):
    out = []
    while env is not None:
        out.append((env[0], env[1]))
        env = env[2]
    return out


_NAMES = ("a", "b", "c", "d")


@given(
    names=st.lists(st.sampled_from(_NAMES), max_size=7),
    needed=st.lists(st.sampled_from(_NAMES), unique=True).map(tuple),
)
def test_prune_matches_a_reference_rebuild(names, needed):
    env = None
    for position, name in enumerate(reversed(names)):
        env = (name, values_module.IntV(position), env)
    pruned = cek._prune(env, needed)
    assert _bindings(pruned) == _bindings(_reference_prune(env, needed))
    if names and len(set(names)) == len(names) and set(names) == set(needed):
        assert pruned is env


def _substitution_observables(code):
    reference = run(code, fuel=10**7)
    assert reference.status is Status.VALUE
    return reference.value, dict(reference.heap.cells), reference.heap.collections


def _observables(result):
    assert result.status is Status.VALUE
    return result.value, dict(result.heap.cells), result.heap.collections


@pytest.mark.parametrize("system", ["l3", "affine"])
def test_root_cache_stays_out_of_snapshots_and_slicing(system):
    code = _warm_code(system, 5)
    expected = _substitution_observables(code)

    execution = cek.CompiledExecution(code, fuel=10**6)
    while execution.heap.collections == 0:
        assert execution.step_n(1) is None
    assert any(closure.roots is not None for closure in _state_closures(execution))
    restored = cek.CompiledExecution.from_snapshot(execution.snapshot())
    restored_closures = _state_closures(restored)
    assert restored_closures and all(closure.roots is None for closure in restored_closures)
    assert _observables(restored.run()) == expected
    assert _observables(execution.run()) == expected

    for width in (1, 7, 512):
        sliced = cek.CompiledExecution(code, fuel=10**6)
        result = None
        while result is None:
            result = sliced.step_n(width)
        assert _observables(result) == expected, width
