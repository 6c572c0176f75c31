"""The LCVM evaluator backends, packaged for the interop framework.

Both LCVM-targeting case studies (§4 affine, §5 L3/memory) run compiled
programs through one of three observably-equivalent engines:

* ``substitution`` — the paper-faithful small-step reference machine
  (:mod:`repro.lcvm.machine`); quadratic, kept as the differential-testing
  oracle that every other backend is compared against;
* ``cek-compiled`` — the compiled-dispatch CEK machine with pruned
  environments (:func:`repro.lcvm.cek.run_compiled`); the default;
* ``cek-opt`` — the same machine over code first rewritten by the static
  optimizer (:mod:`repro.analysis.optimize`): constants folded/propagated,
  dead value-bindings dropped.  Observably identical, fewer transitions.

Each wrapper normalizes the engine's native result into the framework's
:class:`~repro.core.interop.RunResult` (reifying runtime values back to
syntax), so callers observe identical values and error codes regardless of
the backend that produced them.

Every backend also registers a *resumable execution* factory: both machines
support ``step_n(limit)`` bounded slicing, so the serving layer can
interleave an oracle-backed differential request next to compiled fast-path
requests with the same bounded per-turn latency for each.

Cross-process contract (what the worker pool relies on): the **picklable
compiled-program handle** for every LCVM backend is the compiled *syntax*
(``CompiledUnit.target_code`` — plain frozen dataclasses), never the
machine-level artifacts.  The code ``cek-compiled`` and ``cek-opt`` build
is process-local, built on a unit's first start on that backend and kept on
the unit (:func:`repro.lcvm.cek.unit_code`), so it lives exactly as long as
the unit — for a cached unit, until the frontend's LRU evicts it.  A pickled
unit leaves its code behind; the worker that imports it builds the code
again on its first start.  Executions *mid-run* cross processes the
same way: every backend registers a snapshot restorer here, and a paused
execution's ``snapshot()`` reifies heap, environments, continuation, and
fuel as versioned plain data in which compiled code is referenced by its
syntax handle ``(root, node index)``.  Restoring compiles each root once,
deterministically, so a request can migrate between
workers at any slice boundary — not just batch boundaries — and resume
observably identically, raw post-GC heap included.
"""

from __future__ import annotations

from repro.core.interop import RunResult
from repro.core.language import ResumableExecution, TargetBackend
from repro.lcvm import cek
from repro.lcvm import machine as lcvm_machine
from repro.lcvm.machine import Status


def _normalize(result) -> RunResult:
    """Rewrite a native ``MachineResult`` into the framework's result shape."""
    if result.status is Status.VALUE:
        return RunResult(value=result.value, steps=result.steps)
    return RunResult(failure=result.failure_code or result.status.value, steps=result.steps)


def run_substitution(compiled, fuel: int = 100_000) -> RunResult:
    """Run on the substitution-based reference machine (Fig. 6 / Fig. 12)."""
    return _normalize(lcvm_machine.run(compiled, fuel=fuel))


def run_cek_compiled(compiled, fuel: int = 100_000) -> RunResult:
    """Run on the compiled-dispatch CEK machine (the fast production substrate)."""
    return _normalize(cek.run_compiled(compiled, fuel=fuel))


def run_cek_opt(compiled, fuel: int = 100_000) -> RunResult:
    """Run on the compiled-dispatch machine over statically optimized code.

    The ``cek-opt`` backend first applies the analysis tier's source-to-source
    optimizer (:func:`repro.analysis.optimize` — constant propagation/folding
    and dead-value-binding elimination, each mirroring a machine transition)
    and then executes with the ordinary compiled-dispatch engine.  Results are
    observation-equivalent to every other backend, raw post-GC heap included;
    only the step count shrinks.
    """
    from repro.analysis import optimize

    return _normalize(cek.run_compiled(optimize(compiled), fuel=fuel))


def start_substitution(unit, fuel: int = 100_000) -> ResumableExecution:
    """Start a resumable substitution-machine execution (oracle, sliced)."""
    return ResumableExecution(lcvm_machine.SubstitutionExecution(unit.target_code, fuel=fuel), _normalize)


def start_cek_compiled(unit, fuel: int = 100_000) -> ResumableExecution:
    """Start a resumable compiled-CEK execution (RunResult-normalized slices).

    This is the serving layer's entry point: the returned execution carries
    its own heap, continuation, and fuel budget, so many of them interleave
    on one scheduler loop without sharing any state.
    """
    code = cek.unit_code(unit, "cek-compiled")
    return ResumableExecution(cek.CompiledExecution(code.root, fuel=fuel, code=code), _normalize)


def _optimized_code(compiled) -> cek.Code:
    from repro.analysis import optimize

    return cek.Code(optimize(compiled))


def start_cek_opt(unit, fuel: int = 100_000) -> ResumableExecution:
    """Start a resumable compiled-CEK execution of the optimized program.

    The unit keeps the *optimized* root with its code — optimization runs
    once per unit, strictly before execution starts, never at restore time —
    and the execution's snapshots carry that root as their syntax handle,
    tagged ``cek-opt`` so they route back to this backend's restorer.
    """
    code = cek.unit_code(unit, "cek-opt", _optimized_code)
    return ResumableExecution(cek.OptimizedExecution(code.root, fuel=fuel, code=code), _normalize)


def restore_substitution(snapshot: dict) -> ResumableExecution:
    """Rebuild a paused substitution-machine execution from a snapshot."""
    return ResumableExecution(lcvm_machine.SubstitutionExecution.from_snapshot(snapshot), _normalize)


def restore_cek_compiled(snapshot: dict) -> ResumableExecution:
    """Rebuild a paused compiled-CEK execution, compiling its roots again."""
    return ResumableExecution(cek.CompiledExecution.from_snapshot(snapshot), _normalize)


def restore_cek_opt(snapshot: dict) -> ResumableExecution:
    """Rebuild a paused cek-opt execution (the snapshot's handle is already
    the optimized root, so no re-optimization happens at restore time)."""
    return ResumableExecution(cek.OptimizedExecution.from_snapshot(snapshot), _normalize)


def make_lcvm_backend(name: str = "LCVM", default: str = "cek-compiled") -> TargetBackend:
    """The full LCVM backend registry with ``default`` pre-selected."""
    return TargetBackend(
        name=name,
        backends={
            "substitution": run_substitution,
            "cek-compiled": run_cek_compiled,
            "cek-opt": run_cek_opt,
        },
        default_backend=default,
        executions={
            "substitution": start_substitution,
            "cek-compiled": start_cek_compiled,
            "cek-opt": start_cek_opt,
        },
        restores={
            "substitution": restore_substitution,
            "cek-compiled": restore_cek_compiled,
            "cek-opt": restore_cek_opt,
        },
    )
