"""Compiled machine code lives on the compiled unit that owns it.

A unit builds a backend's machine code the first time it starts there and
keeps it in ``CompiledUnit.machine_code``: the code never leaves the process
with a pickled unit, and it dies with the unit when the frontend's LRU
evicts it.
"""

import gc
import pickle
import sys
import types
import weakref

import pytest

from repro.interop_affine import make_system as make_affine_system
from repro.interop_l3 import make_system as make_l3_system
from repro.interop_refs import make_system as make_refs_system
from repro.lcvm import cek as lcvm_cek
from repro.stacklang import cek as stack_cek
from repro.util.workloads import nested_ml_affi_boundary, nested_ml_l3_boundary, nested_refll_boundary

SYSTEMS = [
    pytest.param(make_refs_system, "RefLL", nested_refll_boundary, stack_cek, id="refs"),
    pytest.param(make_affine_system, "MiniML", nested_ml_affi_boundary, lcvm_cek, id="affine"),
    pytest.param(make_l3_system, "MiniML", nested_ml_l3_boundary, lcvm_cek, id="l3"),
]


def _reachable(roots, stop):
    """Objects reachable from ``roots`` without passing through ``stop`` ids."""
    seen = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        key = id(obj)
        if key in seen or key in stop or isinstance(obj, (type, types.ModuleType)):
            continue
        seen[key] = obj
        stack.extend(gc.get_referents(obj))
    return seen


@pytest.mark.parametrize("factory,language,builder,machine", SYSTEMS)
def test_compiled_code_costs_the_cyclic_gc_few_objects_per_node(factory, language, builder, machine):
    system = factory()
    unit = system.compile_source(language, builder(3))
    system.run_unit(unit)
    code = unit.machine_code["cek-compiled"]
    nodes = len(code.nodes) if machine is lcvm_cek else len(code)
    # Shared with others: module globals and everything the syntax reaches.
    stop = set()
    for name, module in list(sys.modules.items()):
        if name != __name__:
            stop.add(id(vars(module)))
            stop.update(id(value) for value in vars(module).values())
    stop.update(_reachable([unit.target_code], stop))
    gc.collect()  # CPython stops tracking tuples that hold only untracked items
    tracked = [obj for obj in _reachable([code], stop).values() if gc.is_tracked(obj)]
    # About one object per LCVM node record or StackLang op, plus the runtime
    # constants of literals and the code's own arrays.
    assert len(tracked) / nodes <= 2.3


@pytest.mark.parametrize("factory,language,builder,machine", SYSTEMS)
def test_pickled_unit_carries_no_machine_code(factory, language, builder, machine):
    system = factory()
    unit = system.compile_source(language, builder(3))
    fresh = pickle.dumps(unit)
    backends = [name for name in system.target.backend_names() if name != "substitution"]
    results = {backend: system.run_unit(unit, backend=backend) for backend in backends}
    assert sorted(unit.machine_code) == sorted(backends)
    payload = pickle.dumps(unit)
    assert payload == fresh
    clone = pickle.loads(payload)
    assert clone.machine_code is None
    for backend, result in results.items():
        again = system.run_unit(clone, backend=backend)
        assert (str(again.value), again.steps) == (str(result.value), result.steps)


@pytest.mark.parametrize("factory,language,builder,machine", SYSTEMS)
def test_evicted_unit_releases_its_machine_code(factory, language, builder, machine):
    system = factory()
    frontend = system.frontend(language)
    frontend.cache_capacity = 2
    gc.collect()
    gc.disable()  # the counts below must move by reference counting alone
    try:
        entries = machine.compiled_cache_stats()["entries"]
        unit = system.compile_source(language, builder(1))
        system.run_unit(unit)
        assert system.compile_source(language, builder(1)) is unit
        owner = weakref.ref(unit)
        code = weakref.ref(unit.machine_code["cek-compiled"]) if machine is lcvm_cek else None
        del unit
        assert owner() is not None  # the LRU holds it
        assert machine.compiled_cache_stats()["entries"] == entries + 1
        for depth in (2, 3):
            system.run_source(language, builder(depth))
        assert owner() is None
        assert code is None or code() is None
        assert machine.compiled_cache_stats()["entries"] == entries + 2
    finally:
        gc.enable()


@pytest.mark.parametrize("factory,language,builder,machine", SYSTEMS)
def test_compiled_cache_stats_count_builds_per_unit(factory, language, builder, machine):
    system = factory()
    before = machine.compiled_cache_stats()
    unit = system.compile_source(language, builder(2))
    for _ in range(3):
        system.run_unit(unit)
    after = machine.compiled_cache_stats()
    assert after["misses"] - before["misses"] == 1
    assert after["hits"] - before["hits"] == 2
    assert after["capacity"] == system.frontend(language).cache_capacity
