"""Snapshot/restore invisibility for every resumable backend's paused state.

The contract under test (``repro.core.snapshots`` plus each machine's
``snapshot()`` / ``from_snapshot``): reifying a paused execution at *any*
slice boundary and rebuilding it — in this process or a fresh spawn-context
process — must be observably invisible.  Four layers of guarantees:

* **every boundary, every backend**: for each snapshot-capable backend in
  all three case-study systems, a run restored from a snapshot taken at
  every slice boundary produces the uninterrupted run's exact result string
  and step count (and the probed execution itself finishes unperturbed —
  snapshots copy state out without touching it), both for a run with ample
  fuel and for one starved a single step short of finishing;
* **raw post-``callgc`` heaps**: at the LCVM machine level the restored
  run's final heap equals the uninterrupted run's address-for-address —
  exact cells, exact addresses, exact collection statistics, no
  result-rooted normalization — across the GC-precise dead-``let``
  programs from the backend-agreement suite; at the StackLang machine level
  the restored run's value, steps and heap match across pending branches
  and thunk calls;
* **process portability**: a snapshot pickled in this process and restored
  in a *fresh spawn-context process* (compiled units rebuilt from scratch —
  nothing shared but the bytes) finishes with the same result, steps, and
  (for the compiled LCVM machine) the same raw heap;
* **format discipline**: version/kind tampering is refused (kinds of removed
  machines included, and a checkpoint naming one fails alone on resume),
  finished executions refuse to snapshot, one snapshot restores many independent
  executions, and the scheduler's preempt → ``CheckpointStore`` → restart →
  ``resume`` round trip matches an uninterrupted sequential serve.
"""

import multiprocessing
import pickle
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import ReproError
from repro.core.snapshots import SNAPSHOT_VERSION, snapshot_backend_name
from repro.interop_affine import make_system as make_affine_system
from repro.interop_l3 import make_system as make_l3_system
from repro.interop_refs import make_system as make_refs_system
from repro.lcvm import cek as lcvm_cek
from repro.lcvm import machine as lcvm_machine
from repro.lcvm.syntax import App, CallGc, Deref, Inl, Int, Lam, Let, Match, NewRef, Pair, Var
from repro.serve import Checkpoint, CheckpointStore, Request, make_default_scheduler
from repro.serve.checkpoint import CHECKPOINT_VERSION
from repro.stacklang import cek as stack_cek
from repro.stacklang import machine as stack_machine
from repro.stacklang.syntax import Add, Call, If0, Num, Push, Read, Thunk
from repro.stacklang.syntax import Alloc as StackAlloc
from repro.stacklang.syntax import Lam as StackLam
from repro.stacklang.syntax import Var as StackVar
from repro.stacklang.syntax import program as stack_program
from repro.util.workloads import (
    nested_ml_affi_boundary,
    nested_ml_l3_boundary,
    nested_refll_boundary,
)

FUEL = 200_000
MACHINE_FUEL = 500_000

_SYSTEM_BUILDERS = {
    "refs": make_refs_system,
    "affine": make_affine_system,
    "l3": make_l3_system,
}

_WORKLOADS = {
    "refs": ("RefLL", nested_refll_boundary(5)),
    "affine": ("MiniML", nested_ml_affi_boundary(5)),
    "l3": ("MiniML", nested_ml_l3_boundary(4)),
}

# One shared instance per system for the whole module (pipeline caches stay
# warm, like a serving process); every test starts fresh executions.
_SYSTEMS = {name: build() for name, build in _SYSTEM_BUILDERS.items()}


@lru_cache(maxsize=None)
def _target_code(system_name):
    language, source = _WORKLOADS[system_name]
    return _SYSTEMS[system_name].compile_source(language, source).target_code


def _finish(execution, slice_steps):
    result = None
    while result is None:
        result = execution.step_n(slice_steps)
    return result


@lru_cache(maxsize=None)
def _baseline(system_name, backend, slice_steps, fuel=FUEL):
    """The uninterrupted run's observables: (result string, step count)."""
    system = _SYSTEMS[system_name]
    execution = system.start_compiled(_target_code(system_name), fuel=fuel, backend=backend)
    result = _finish(execution, slice_steps)
    return str(result), result.steps


def _fuel(system_name, backend, starved):
    """``FUEL``, or one step less than the well-fed run takes."""
    return _baseline(system_name, backend, 1)[1] - 1 if starved else FUEL


# Every backend in every system (each engine restores its own snapshots).
# Each backend runs the workload with ample fuel (to a value), and again as
# ``-starved`` with one step less than the run needs, so a restored run must
# carry its remaining fuel exactly to run out on the last step instead of
# finishing.
_BACKENDS = [
    (system_name, backend)
    for system_name in sorted(_SYSTEMS)
    for backend in sorted(_SYSTEMS[system_name].target.backend_names())
]
CASES = [
    pytest.param(system_name, backend, starved, id=f"{system_name}-{backend}" + ("-starved" if starved else ""))
    for starved in (False, True)
    for system_name, backend in _BACKENDS
]


def _round_trip(snapshot):
    """A snapshot as it arrives from another process.

    The snapshot layer never copies through bytes (each engine copies its
    own mutable containers), so restoring from a pickle round trip checks
    that what an engine copies is plain data that survives leaving the
    process; ``test_one_snapshot_restores_many_independent_executions``
    covers the in-memory copies.
    """
    return pickle.loads(pickle.dumps(snapshot))


# ---------------------------------------------------------------------------
# Every slice boundary, every backend, all three systems
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("system_name,backend,starved", CASES)
def test_restore_at_every_slice_boundary_is_invisible(system_name, backend, starved):
    system = _SYSTEMS[system_name]
    slice_steps = 3
    fuel = _fuel(system_name, backend, starved)
    base_str, base_steps = _baseline(system_name, backend, slice_steps, fuel)
    if starved:
        assert "out_of_fuel" in base_str
    probe = system.start_compiled(_target_code(system_name), fuel=fuel, backend=backend)
    boundaries = 0
    while True:
        result = probe.step_n(slice_steps)
        if result is not None:
            break
        boundaries += 1
        snapshot = probe.snapshot()
        # The kind's tail names the backend, so bare snapshots route themselves.
        assert snapshot_backend_name(snapshot) == backend
        restored = system.restore_execution(_round_trip(snapshot))
        finished = _finish(restored, slice_steps)
        assert str(finished) == base_str
        assert finished.steps == base_steps
    assert boundaries >= 1, "workload too shallow to cross a slice boundary"
    # Snapshotting copied state out without perturbing the probed execution.
    assert str(result) == base_str
    assert result.steps == base_steps


@pytest.mark.parametrize("system_name,backend,starved", CASES)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    slice_steps=st.integers(min_value=1, max_value=17),
    boundary=st.integers(min_value=1, max_value=40),
)
def test_restore_at_arbitrary_boundary_matches_uninterrupted(
    system_name, backend, starved, slice_steps, boundary
):
    """Hypothesis: whatever the slice size and whichever boundary is chosen,
    the restored run and the probed original both match the uninterrupted run."""
    system = _SYSTEMS[system_name]
    fuel = _fuel(system_name, backend, starved)
    base_str, base_steps = _baseline(system_name, backend, slice_steps, fuel)
    probe = system.start_compiled(_target_code(system_name), fuel=fuel, backend=backend)
    result = None
    for _ in range(boundary):
        result = probe.step_n(slice_steps)
        if result is not None:
            break
    if result is not None:
        assert str(result) == base_str
        assert result.steps == base_steps
        return
    restored = system.restore_execution(_round_trip(probe.snapshot()))
    finished = _finish(restored, slice_steps)
    assert str(finished) == base_str
    assert finished.steps == base_steps
    original = _finish(probe, slice_steps)
    assert str(original) == base_str
    assert original.steps == base_steps


# ---------------------------------------------------------------------------
# Raw post-callgc heap invisibility at the LCVM machine level
# ---------------------------------------------------------------------------

# The GC-precision programs from the backend-agreement suite: dead let
# bindings that a mid-run ``callgc`` must collect (or keep) exactly.
_GC_PROGRAMS = [
    Let(
        "keep",
        NewRef(Int(1)),
        Let("dead", NewRef(Int(2)), Let("_", CallGc(), Deref(Var("keep")))),
    ),
    Let(
        "dead",
        NewRef(Int(7)),
        Let("f", Lam("x", Var("x")), Let("_", CallGc(), App(Var("f"), Int(3)))),
    ),
    Let(
        "live",
        NewRef(Int(5)),
        Let("f", Lam("x", Deref(Var("live"))), Let("_", CallGc(), App(Var("f"), Int(0)))),
    ),
    Let(
        "a",
        NewRef(Int(1)),
        Match(Inl(Int(0)), "x", Let("_", CallGc(), Int(9)), "y", Deref(Var("a"))),
    ),
    Let(
        "dead",
        NewRef(Int(2)),
        Pair(NewRef(Int(3)), Let("_", CallGc(), Int(1))),
    ),
    Let(
        "r",
        NewRef(Int(1)),
        Let("r", NewRef(Int(2)), Let("_", CallGc(), Deref(Var("r")))),
    ),
]

_LCVM_MACHINES = [
    pytest.param(lcvm_machine.SubstitutionExecution, id="substitution"),
    pytest.param(lcvm_cek.CompiledExecution, id="cek-compiled"),
]


def _raw_observables(result):
    """Result value, steps, and the raw heap: exact cells, exact addresses,
    exact collection statistics — no result-rooted normalization."""
    heap = result.heap
    return str(result.value), result.steps, dict(heap.cells), heap.collections, heap.reclaimed


@pytest.mark.parametrize("machine_class", _LCVM_MACHINES)
@pytest.mark.parametrize(
    "program", _GC_PROGRAMS, ids=[str(program)[:48] for program in _GC_PROGRAMS]
)
def test_lcvm_restore_preserves_raw_postgc_heap(machine_class, program):
    base = _raw_observables(_finish(machine_class(program, fuel=MACHINE_FUEL), 2))
    probe = machine_class(program, fuel=MACHINE_FUEL)
    boundaries = 0
    while True:
        result = probe.step_n(2)
        if result is not None:
            break
        boundaries += 1
        restored = machine_class.from_snapshot(_round_trip(probe.snapshot()))
        assert _raw_observables(_finish(restored, 2)) == base
    assert boundaries >= 1, "program too shallow to cross a slice boundary"
    assert _raw_observables(result) == base


# StackLang programs that leave cells on the heap through a pending branch, a
# bound thunk, and straight-line code.
_STACK_PROGRAMS = [
    stack_program(Push(Num(4)), StackAlloc(), Read(), Push(Num(3)), Add()),
    stack_program(Push(Num(5)), StackAlloc(), Push(Num(0)), If0((Read(),), (Push(Num(1)),))),
    stack_program(
        Push(Num(1)),
        Push(Thunk((Push(Num(7)), StackAlloc(), Read()))),
        StackLam(("ft",), stack_program(Push(StackVar("ft")), Call())),
    ),
]

_STACK_MACHINES = [
    pytest.param(stack_machine.SubstitutionExecution, id="substitution"),
    pytest.param(stack_cek.CompiledExecution, id="cek-compiled"),
]


def _stack_observables(result):
    return result.status, result.value, result.failure_code, result.steps, dict(result.heap)


@pytest.mark.parametrize("machine_class", _STACK_MACHINES)
@pytest.mark.parametrize("program", _STACK_PROGRAMS, ids=["straight", "branch", "thunk"])
def test_stacklang_restore_preserves_heap_and_frames(machine_class, program):
    """Every slice boundary of a StackLang machine restores to the same
    value, steps, and heap — pending branches and thunk calls included."""
    base = _stack_observables(_finish(machine_class(program, fuel=MACHINE_FUEL), 2))
    probe = machine_class(program, fuel=MACHINE_FUEL)
    boundaries = 0
    while True:
        result = probe.step_n(2)
        if result is not None:
            break
        boundaries += 1
        restored = machine_class.from_snapshot(_round_trip(probe.snapshot()))
        assert _stack_observables(_finish(restored, 2)) == base
    assert boundaries >= 1, "program too shallow to cross a slice boundary"
    assert _stack_observables(result) == base


# ---------------------------------------------------------------------------
# Fresh-process restores (spawn context: nothing shared but the bytes)
# ---------------------------------------------------------------------------


def _finish_system_snapshot_in_child(system_name, payload, connection):
    """Spawn target: rebuild the system from scratch, restore, run to the end."""
    try:
        system = _SYSTEM_BUILDERS[system_name]()
        execution = system.restore_execution(pickle.loads(payload))
        result = _finish(execution, 64)
        connection.send(("ok", str(result), result.steps))
    except BaseException as error:  # report, or the parent hangs on recv
        connection.send(("error", f"{type(error).__name__}: {error}", None))
    finally:
        connection.close()


def _finish_lcvm_snapshot_in_child(payload, connection):
    """Spawn target: restore a compiled LCVM machine and report its raw heap."""
    try:
        restored = lcvm_cek.CompiledExecution.from_snapshot(pickle.loads(payload))
        connection.send(("ok", repr(_raw_observables(_finish(restored, 2)))))
    except BaseException as error:
        connection.send(("error", f"{type(error).__name__}: {error}"))
    finally:
        connection.close()


def _run_in_spawned_process(target, args):
    context = multiprocessing.get_context("spawn")
    parent, child = context.Pipe()
    process = context.Process(target=target, args=tuple(args) + (child,))
    process.start()
    child.close()
    try:
        assert parent.poll(120), "spawned restore process sent nothing back"
        reply = parent.recv()
    finally:
        process.join(timeout=30)
        if process.is_alive():  # pragma: no cover - cleanup path
            process.terminate()
        parent.close()
    assert reply[0] == "ok", f"restore failed in fresh process: {reply[1]}"
    return reply[1:]


@pytest.mark.parametrize("system_name,backend,starved", CASES)
def test_restore_in_fresh_spawned_process(system_name, backend, starved):
    system = _SYSTEMS[system_name]
    fuel = _fuel(system_name, backend, starved)
    base_str, base_steps = _baseline(system_name, backend, 64, fuel)
    probe = system.start_compiled(_target_code(system_name), fuel=fuel, backend=backend)
    assert probe.step_n(3) is None, (
        "workload too shallow to snapshot mid-run"
    )
    payload = pickle.dumps(probe.snapshot())
    result_str, steps = _run_in_spawned_process(
        _finish_system_snapshot_in_child, (system_name, payload)
    )
    assert result_str == base_str
    assert steps == base_steps


def test_lcvm_raw_heap_survives_fresh_spawned_process():
    program = _GC_PROGRAMS[0]
    base = repr(_raw_observables(_finish(lcvm_cek.CompiledExecution(program, fuel=MACHINE_FUEL), 2)))
    probe = lcvm_cek.CompiledExecution(program, fuel=MACHINE_FUEL)
    assert probe.step_n(2) is None
    payload = pickle.dumps(probe.snapshot())
    (raw,) = _run_in_spawned_process(_finish_lcvm_snapshot_in_child, (payload,))
    assert raw == base


# ---------------------------------------------------------------------------
# Format discipline
# ---------------------------------------------------------------------------


def _mid_run_snapshot(system_name, backend=None):
    system = _SYSTEMS[system_name]
    probe = system.start_compiled(_target_code(system_name), fuel=FUEL, backend=backend)
    assert probe.step_n(3) is None
    return probe.snapshot()


def test_finished_execution_refuses_to_snapshot():
    system = _SYSTEMS["refs"]
    execution = system.start_compiled(_target_code("refs"), fuel=FUEL)
    _finish(execution, 64)
    with pytest.raises(ValueError, match="finished"):
        execution.snapshot()  # there is no paused state to reify


def test_version_and_kind_tampering_is_refused():
    system = _SYSTEMS["refs"]
    snapshot = _mid_run_snapshot("refs")
    for version in (SNAPSHOT_VERSION - 1, SNAPSHOT_VERSION + 1):
        with pytest.raises(ValueError, match="version"):
            system.restore_execution(dict(snapshot, version=version))
    # A kind whose tail names no registered backend cannot route at all.
    with pytest.raises(ReproError):
        system.restore_execution(dict(snapshot, kind="garbage"))
    # Explicitly routing to the wrong restorer trips the kind check.
    wrong = [name for name in system.target.backend_names() if name != snapshot_backend_name(snapshot)]
    with pytest.raises(ValueError):
        system.target.restore(snapshot, backend=wrong[0])
    # An unregistered backend name is refused before any restore runs.
    with pytest.raises(ReproError):
        system.target.restore(snapshot, backend="no-such-backend")


@pytest.mark.parametrize("system_name,backend,starved", CASES)
def test_run_compiled_is_one_slice_of_start_compiled(system_name, backend, starved):
    # The one-shot entry point is the resumable execution run in a single
    # slice: same outcome and step count as the run sliced at every step,
    # and a starved run reports fuel exhaustion on exactly its last step.
    fuel = _fuel(system_name, backend, starved)
    whole = _SYSTEMS[system_name].run_compiled(_target_code(system_name), fuel=fuel, backend=backend)
    assert (str(whole), whole.steps) == _baseline(system_name, backend, 1, fuel)
    assert (whole.failure == "out_of_fuel") is starved
    if starved:
        assert whole.steps == fuel


@pytest.mark.parametrize(
    "system_name,backend", _BACKENDS, ids=[f"{name}-{backend}" for name, backend in _BACKENDS]
)
def test_each_engine_restores_exactly_the_kind_it_writes(system_name, backend):
    system = _SYSTEMS[system_name]
    snapshot = _round_trip(_mid_run_snapshot(system_name, backend=backend))
    assert snapshot_backend_name(snapshot) == backend
    # A bare snapshot routes itself to the engine that wrote it...
    result = _finish(system.restore_execution(snapshot), 3)
    assert (str(result), result.steps) == _baseline(system_name, backend, 3)
    # ...and every other engine refuses it rather than misreading it.
    for other in system.target.backend_names():
        if other != backend:
            with pytest.raises(ValueError):
                system.target.restore(snapshot, backend=other)


@pytest.mark.parametrize("system_name", sorted(_SYSTEMS))
@pytest.mark.parametrize("backend", ["cek-opt", "bigstep"])
def test_retired_backend_names_are_refused_before_any_run(system_name, backend):
    system = _SYSTEMS[system_name]
    with pytest.raises(ReproError, match=backend):
        system.start_compiled(_target_code(system_name), fuel=FUEL, backend=backend)
    with pytest.raises(ReproError, match=backend):
        system.run_compiled(_target_code(system_name), fuel=FUEL, backend=backend)


@pytest.mark.parametrize(
    "system_name,kind",
    [
        ("affine", "lcvm/bigstep"),
        ("affine", "lcvm/cek"),
        ("affine", "lcvm/cek-opt"),
        ("l3", "lcvm/bigstep"),
        ("l3", "lcvm/cek"),
        ("l3", "lcvm/cek-opt"),
        ("refs", "stacklang/cek"),
        ("refs", "stacklang/cek-opt"),
    ],
)
def test_version_and_kind_tampering_refuses_retired_kinds(system_name, kind):
    # Kinds written by machines this build no longer has name no registered
    # restorer: routing fails cleanly, never as a raw KeyError.
    live = _mid_run_snapshot(system_name)
    with pytest.raises(ReproError):
        _SYSTEMS[system_name].restore_execution(dict(live, kind=kind))


#: Checkpoint states saved by earlier builds under removed backends: the
#: big-step evaluator's own plain data, and the optimizing ``cek-opt``
#: backend's, which was the compiled machine's state under its own tag.
_RETIRED_STATES = {
    "lcvm/bigstep": lambda: {
        "program": _target_code("affine"),
        "fuel": FUEL,
        "remaining": FUEL - 3,
        "work": [],
        "values": [],
        "heap": None,
    },
    "lcvm/cek-opt": lambda: _mid_run_snapshot("affine", backend="cek-compiled"),
}


@pytest.mark.parametrize("kind", sorted(_RETIRED_STATES))
def test_resume_reports_a_retired_backend_checkpoint_and_finishes_the_rest(kind):
    backend = kind.rsplit("/", 1)[1]
    retired = Checkpoint(
        request=Request(
            language="MiniML", system="affine", source=_WORKLOADS["affine"][1], request_id="retired"
        ),
        system="affine",
        backend=backend,
        snapshot={**_RETIRED_STATES[kind](), "version": SNAPSHOT_VERSION, "kind": kind},
        slices=1,
    )
    live = Checkpoint(
        request=Request(language="RefLL", source=_WORKLOADS["refs"][1], request_id="live"),
        system="refs",
        backend="cek-compiled",
        snapshot=_mid_run_snapshot("refs"),
        slices=1,
    )
    responses = make_default_scheduler(slice_steps=8).resume([retired, live])
    by_id = {response.request.request_id: response for response in responses}
    assert by_id["retired"].result is None
    assert by_id["retired"].error.startswith("ReproError: ")
    assert repr(backend) in by_id["retired"].error
    base_str, base_steps = _baseline("refs", "cek-compiled", 3)
    assert by_id["live"].error is None
    assert (str(by_id["live"].result), by_id["live"].result.steps) == (base_str, base_steps)


@pytest.mark.parametrize(
    "system_name,backend", _BACKENDS, ids=[f"{name}-{backend}" for name, backend in _BACKENDS]
)
def test_one_snapshot_restores_many_independent_executions(system_name, backend):
    """Snapshots kept in memory (no byte round trip) at every slice boundary
    outlive the original stepping on to the end, and each restores twice
    into runs that share no heap or stack with it or with each other."""
    system = _SYSTEMS[system_name]
    slice_steps = 1
    base = _baseline(system_name, backend, slice_steps)
    probe = system.start_compiled(_target_code(system_name), fuel=FUEL, backend=backend)
    snapshots = []
    result = probe.step_n(slice_steps)
    while result is None:
        snapshots.append(probe.snapshot())
        result = probe.step_n(slice_steps)
    assert snapshots, "workload too shallow to cross a slice boundary"
    assert (str(result), result.steps) == base
    for snapshot in snapshots:
        first = system.restore_execution(snapshot)
        second = system.restore_execution(snapshot)
        first_result = _finish(first, slice_steps)  # runs (and mutates its heap) to the end...
        second_result = _finish(second, slice_steps)  # ...without contaminating its sibling
        assert (str(first_result), first_result.steps) == base
        assert (str(second_result), second_result.steps) == base


# ---------------------------------------------------------------------------
# Preempt -> persist -> restart -> resume (the durable round trip)
# ---------------------------------------------------------------------------


def _preempt_requests():
    return [
        Request(language="RefLL", source=nested_refll_boundary(6), request_id="refs-deep"),
        Request(
            language="RefLL",
            source=nested_refll_boundary(5),
            backend="substitution",
            request_id="refs-oracle",
        ),
        Request(
            language="MiniML",
            system="affine",
            source=nested_ml_affi_boundary(6),
            request_id="affine-deep",
        ),
        Request(
            language="MiniML",
            system="l3",
            source=nested_ml_l3_boundary(4),
            backend="substitution",
            request_id="l3-oracle",
        ),
    ]


def test_preempt_persist_restart_resume_round_trip(tmp_path):
    scheduler = make_default_scheduler(slice_steps=8)
    baseline = {
        response.request.request_id: response
        for response in scheduler.serve_sequential(_preempt_requests())
    }
    served = scheduler.serve(_preempt_requests(), max_slices=2)
    preempted = [response for response in served if response.preempted]
    assert preempted, "ceiling too low to preempt anything"
    store = CheckpointStore(str(tmp_path))
    for response in preempted:
        assert response.result is None
        assert response.checkpoint is not None
        assert response.checkpoint.slices == 2  # the final boundary *is* the state
        store.save(response.checkpoint)
    for response in served:
        if not response.preempted:  # finished responses carry no stale checkpoint
            assert response.checkpoint is None

    # "Restart": a brand-new scheduler over brand-new systems — the durable
    # pickles are the only thing carried across.
    restarted = make_default_scheduler(slice_steps=8)
    reloaded = CheckpointStore(str(tmp_path)).load_all()
    assert len(reloaded) == len(preempted)
    resumed = {
        response.request.request_id: response for response in restarted.resume(reloaded)
    }
    finished = {
        response.request.request_id: response for response in served if not response.preempted
    }
    for request_id, base in baseline.items():
        assert base.error is None
        final = finished[request_id] if request_id in finished else resumed[request_id]
        assert final.error is None
        assert str(final.result) == str(base.result)
        assert final.result.steps == base.result.steps
    for response in resumed.values():
        assert response.resumed


def test_checkpoint_store_rejects_version_skew(tmp_path):
    store = CheckpointStore(str(tmp_path))
    checkpoint = Checkpoint(
        request=_preempt_requests()[0],
        system="refs",
        backend="cek-compiled",
        snapshot=_mid_run_snapshot("refs"),
        slices=1,
        version=CHECKPOINT_VERSION + 1,
    )
    path = store.save(checkpoint)
    with pytest.raises(ValueError, match="version"):
        store.load(path)
