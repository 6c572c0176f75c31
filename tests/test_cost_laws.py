"""The paper's cost claims as exact step-count laws.

Each test sweeps a size ``n`` and pins the ``substitution`` machine's step
count (or allocation count) as ``a + b·n``.  The laws pin the cost of the
conversion glue itself, so a change to a rule's glue that adds or drops a
step per crossing fails here even when every value stays right.  Only the
``substitution`` engine is used: the other engines count steps differently.
"""

import pytest

from repro.interop_affine import make_system as make_affine_system
from repro.interop_l3 import make_system as make_l3_system
from repro.interop_refs import strategies
from repro.lcvm import Alloc, CallGc, CellKind, Deref, Free, Int, Let, NewRef, Var
from repro.lcvm import machine as lcvm_machine
from repro.lcvm.heap import Heap

SIZES = (1, 2, 5, 10, 20)


def _assert_law(measure, constant, per_item):
    """``measure(n) == constant + per_item·n`` for every size in :data:`SIZES`."""
    observed = {n: measure(n) for n in SIZES}
    assert observed == {n: constant + per_item * n for n in SIZES}


class _CountingHeap(Heap):
    """A heap that counts its allocations by cell kind."""

    def __post_init__(self):
        super().__post_init__()
        self.allocations = {CellKind.GC: 0, CellKind.MANUAL: 0}

    def allocate(self, value, kind):
        self.allocations[kind] += 1
        return super().allocate(value, kind)


def _allocations(expr):
    heap = _CountingHeap()
    result = lcvm_machine.run(expr, heap=heap, fuel=1_000_000)
    assert result.value is not None
    return result.steps, heap.allocations


# -- §3: sharing a reference directly, by copy, or through a proxy ---------------


@pytest.mark.parametrize(
    "build,strategy,constant,per_access",
    [
        (strategies.build_read_workloads, "direct", 1, 5),
        (strategies.build_read_workloads, "copy", 3, 5),
        (strategies.build_read_workloads, "proxy", 3, 9),
        (strategies.build_write_workloads, "direct", 2, 5),
        (strategies.build_write_workloads, "copy", 4, 5),
        (strategies.build_write_workloads, "proxy", 4, 17),
    ],
)
def test_sharing_strategy_step_laws(build, strategy, constant, per_access):
    _assert_law(lambda n: build(n)[strategy].steps(), constant, per_access)


@pytest.mark.parametrize("build", [strategies.build_read_workloads, strategies.build_write_workloads])
def test_direct_sharing_is_free_copy_pays_once_proxy_pays_per_access(build):
    """Against direct sharing, a copy costs 2 steps once, whatever the number
    of accesses, while a proxy costs a fixed number of steps per access."""
    proxy_per_access = 4 if build is strategies.build_read_workloads else 12
    _assert_law(lambda n: build(n)["copy"].steps() - build(n)["direct"].steps(), 2, 0)
    _assert_law(lambda n: build(n)["proxy"].steps() - build(n)["direct"].steps(), 2, proxy_per_access)
    assert strategies.share_direct() == ()


# -- §4: dynamic guards cost per application, static ones nothing ---------------


@pytest.fixture(scope="module")
def affine_system():
    return make_affine_system()


def _affi_chain(keyword, n):
    """``(f (f ... (f 1)))`` through ``n`` identities of one arrow."""
    source = "1"
    for _ in range(n):
        source = f"(({keyword} (a int) a) {source})"
    return source


@pytest.mark.parametrize("keyword,per_application", [("slam", 1), ("dlam", 9)])
def test_affine_arrow_step_laws(affine_system, keyword, per_application):
    """A static application is one β step; a dynamic one adds the 8 steps of
    allocating, checking and clearing its ``thunk`` guard."""

    def steps(n):
        return affine_system.run_source("Affi", _affi_chain(keyword, n), backend="substitution").steps

    _assert_law(steps, 0, per_application)


def test_miniml_calls_through_lolli_glue_pay_per_application(affine_system):
    """MiniML calls a converted Affi ``⊸`` function ``n`` times: the
    ``⊸ ~ (unit→τ)→τ`` glue and the guard it installs cost 13 steps a call."""

    def steps(n):
        calls = "0"
        for _ in range(n):
            calls = f"(+ (f (lam (u unit) 1)) {calls})"
        source = f"(let (f (boundary (-> (-> unit int) int) (dlam (a int) a))) {calls})"
        result = affine_system.run_source("MiniML", source, backend="substitution")
        assert result.value == Int(n)
        return result.steps

    _assert_law(steps, 2, 13)


# -- §5: ownership moves one way, copies the other -------------------------------


@pytest.fixture(scope="module")
def l3_system():
    return make_l3_system()


def _l3_to_miniml(n):
    source = "0"
    for _ in range(n):
        source = f"(+ (! (boundary (ref int) (new true))) {source})"
    return source


def _miniml_to_l3(n):
    source = "0"
    for _ in range(n):
        source = f"(+ (boundary int (free (boundary (refpkg bool) (ref 1)))) {source})"
    return source


def test_l3_to_miniml_transfer_allocates_no_cell(l3_system):
    """``gcmov`` hands L3's own cell to the collector: the only allocations
    are the ``n`` manual cells L3's ``new`` makes."""
    measured = {n: _allocations(l3_system.compile_source("MiniML", _l3_to_miniml(n)).target_code) for n in SIZES}
    assert {n: steps for n, (steps, _) in measured.items()} == {n: 13 * n for n in SIZES}
    assert {n: counts for n, (_, counts) in measured.items()} == {
        n: {CellKind.GC: 0, CellKind.MANUAL: n} for n in SIZES
    }


def test_miniml_to_l3_transfer_allocates_one_copy_per_reference(l3_system):
    """MiniML cannot prove a reference unaliased, so each of the ``n``
    converted GC'd cells is copied into one fresh manual cell."""
    measured = {n: _allocations(l3_system.compile_source("MiniML", _miniml_to_l3(n)).target_code) for n in SIZES}
    assert {n: steps for n, (steps, _) in measured.items()} == {n: 16 * n for n in SIZES}
    assert {n: counts for n, (_, counts) in measured.items()} == {
        n: {CellKind.GC: n, CellKind.MANUAL: n} for n in SIZES
    }


# -- LCVM: GC'd against manual allocation ----------------------------------------


def _gc_allocation(n):
    """Allocate ``n`` GC'd temporaries, keep one more cell, collect, read it."""
    body = Let("keep", NewRef(Int(0)), Let("_", CallGc(), Deref(Var("keep"))))
    for index in range(n):
        body = Let(f"tmp{index}", NewRef(Int(index)), body)
    return body


def _manual_allocation(n):
    """Allocate and at once free ``n`` manual cells, then return 0."""
    body = Int(0)
    for index in range(n):
        body = Let(f"cell{index}", Alloc(Int(index)), Let("_", Free(Var(f"cell{index}")), body))
    return body


def test_gc_allocation_step_law():
    """Two steps per GC'd cell; one ``callgc`` reclaims every temporary."""
    results = {n: lcvm_machine.run(_gc_allocation(n), fuel=1_000_000) for n in SIZES}
    assert {n: r.steps for n, r in results.items()} == {n: 5 + 2 * n for n in SIZES}
    assert {n: (r.value, r.heap.reclaimed, len(r.heap)) for n, r in results.items()} == {
        n: (Int(0), n, 1) for n in SIZES
    }


def test_manual_allocation_step_law():
    """Four steps per manual cell (allocate, bind, free, bind); nothing is left."""
    results = {n: lcvm_machine.run(_manual_allocation(n), fuel=1_000_000) for n in SIZES}
    assert {n: r.steps for n, r in results.items()} == {n: 4 * n for n in SIZES}
    assert {n: (r.value, len(r.heap)) for n, r in results.items()} == {n: (Int(0), 0) for n in SIZES}
