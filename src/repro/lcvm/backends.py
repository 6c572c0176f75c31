"""The LCVM evaluator backends, packaged for the interop framework.

Both LCVM-targeting case studies (§4 affine, §5 L3/memory) run compiled
programs on one of two observably-equivalent engines:

* ``substitution`` — the paper-faithful small-step reference machine
  (:mod:`repro.lcvm.machine`); quadratic, kept as the differential-testing
  oracle the fast engine is compared against;
* ``cek-compiled`` — the compiled-dispatch CEK machine with pruned
  environments (:mod:`repro.lcvm.cek`); the default.

Each engine starts resumable executions: both machines support
``step_n(limit)`` bounded slicing, so the serving layer can interleave an
oracle-backed differential request next to compiled fast-path requests
with the same bounded per-turn latency for each.  The wrapper normalizes
the machine's native result into the framework's
:class:`~repro.core.interop.RunResult` (reifying runtime values back to
syntax), so callers observe identical values and error codes whichever
engine produced them.

Cross-process contract (what the worker pool relies on): the **picklable
compiled-program handle** is the compiled *syntax*
(``CompiledUnit.target_code`` — plain frozen dataclasses), never the
machine-level artifacts.  The code ``cek-compiled`` builds is
process-local, built on a unit's first start and kept on the unit
(:func:`repro.lcvm.cek.unit_code`), so it lives exactly as long as the
unit — for a cached unit, until the frontend's LRU evicts it.  A pickled
unit leaves its code behind; the worker that imports it builds the code
again on its first start.  Executions *mid-run* cross processes the same
way: each engine restores snapshots, and a paused execution's
``snapshot()`` reifies heap, environments, continuation, and fuel as
versioned plain data in which compiled code is referenced by its syntax
handle ``(root, node index)``.  Restoring compiles each root once,
deterministically, so a request can migrate between workers at any slice
boundary — not just batch boundaries — and resume observably identically,
raw post-GC heap included.
"""

from __future__ import annotations

from repro.core.interop import RunResult
from repro.core.language import Engine, ResumableExecution, TargetBackend
from repro.lcvm import cek
from repro.lcvm import machine as lcvm_machine
from repro.lcvm.machine import Status


def _normalize(result) -> RunResult:
    """Rewrite a native ``MachineResult`` into the framework's result shape."""
    if result.status is Status.VALUE:
        return RunResult(value=result.value, steps=result.steps)
    return RunResult(failure=result.failure_code or result.status.value, steps=result.steps)


def start_substitution(unit, fuel: int = 100_000) -> ResumableExecution:
    """Start a resumable substitution-machine execution (oracle, sliced)."""
    return ResumableExecution(lcvm_machine.SubstitutionExecution(unit.target_code, fuel=fuel), _normalize)


def start_cek_compiled(unit, fuel: int = 100_000) -> ResumableExecution:
    """Start a resumable compiled-CEK execution (RunResult-normalized slices).

    This is the serving layer's entry point: the returned execution carries
    its own heap, continuation, and fuel budget, so many of them interleave
    on one scheduler loop without sharing any state.
    """
    code = cek.unit_code(unit)
    return ResumableExecution(cek.CompiledExecution(code.root, fuel=fuel, code=code), _normalize)


def restore_substitution(snapshot: dict) -> ResumableExecution:
    """Rebuild a paused substitution-machine execution from a snapshot."""
    return ResumableExecution(lcvm_machine.SubstitutionExecution.from_snapshot(snapshot), _normalize)


def restore_cek_compiled(snapshot: dict) -> ResumableExecution:
    """Rebuild a paused compiled-CEK execution, compiling its roots again."""
    return ResumableExecution(cek.CompiledExecution.from_snapshot(snapshot), _normalize)


def make_lcvm_backend(name: str = "LCVM") -> TargetBackend:
    """The LCVM target's two engines, ``cek-compiled`` the default."""
    return TargetBackend(
        name=name,
        engines={
            "substitution": Engine(start_substitution, restore_substitution),
            "cek-compiled": Engine(start_cek_compiled, restore_cek_compiled),
        },
        default_backend="cek-compiled",
    )
