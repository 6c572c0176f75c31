"""E14 — the LCVM memory substrate: GC'd vs manual allocation, and the
substitution-machine vs compiled-CEK ablation.

§5's design hinges on both memory disciplines coexisting in one heap.  This
harness measures allocation-heavy workloads under each discipline and the
cost of explicit ``callgc`` collections, plus the interpreter-design ablation
(small-step substitution machine vs the compiled CEK machine).
"""

import pytest

from repro.lcvm import (
    Alloc,
    BinOp,
    CallGc,
    Deref,
    Free,
    Int,
    Let,
    NewRef,
    Var,
    run,
    run_cek_compiled,
)

CELLS = 30


def _gc_allocation_workload(count: int):
    """Allocate ``count`` GC cells, keep only the last, collect, read it."""
    body = Let("keep", NewRef(Int(0)), Let("_", CallGc(), Deref(Var("keep"))))
    for index in range(count):
        body = Let(f"tmp{index}", NewRef(Int(index)), body)
    return body


def _manual_allocation_workload(count: int):
    """Allocate and immediately free ``count`` manual cells, then return 0."""
    body = Int(0)
    for index in range(count):
        body = Let(
            f"cell{index}",
            Alloc(Int(index)),
            Let("_", Free(Var(f"cell{index}")), body),
        )
    return body


def test_gc_allocation_and_collection(benchmark):
    program = _gc_allocation_workload(CELLS)
    result = benchmark(lambda: run(program, fuel=1_000_000))
    assert result.value == Int(0)
    assert result.heap.reclaimed >= CELLS  # the temporaries were collected
    benchmark.extra_info["steps"] = result.steps
    benchmark.extra_info["reclaimed"] = result.heap.reclaimed


def test_manual_allocation_and_free(benchmark):
    program = _manual_allocation_workload(CELLS)
    result = benchmark(lambda: run(program, fuel=1_000_000))
    assert result.value == Int(0)
    assert len(result.heap) == 0
    benchmark.extra_info["steps"] = result.steps


@pytest.mark.parametrize("engine", ["smallstep", "cek-compiled"])
def test_interpreter_ablation(benchmark, engine):
    """Ablation: substitution reference machine vs the compiled CEK machine."""
    program = _gc_allocation_workload(CELLS)
    machine = run if engine == "smallstep" else run_cek_compiled
    result = benchmark(lambda: machine(program, fuel=1_000_000))
    assert result.value == Int(0)


def test_arithmetic_ablation(benchmark):
    """Pure computation (no heap): the machines should agree and both scale."""
    expression = Int(1)
    for index in range(200):
        expression = BinOp("+", expression, Int(index))

    def measure():
        return run(expression, fuel=1_000_000), run_cek_compiled(expression, fuel=1_000_000)

    small, fast = benchmark(measure)
    assert small.value == Int(sum(range(200)) + 1)
    assert fast.value == small.value
