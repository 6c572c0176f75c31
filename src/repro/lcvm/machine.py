"""Small-step operational semantics of LCVM (Fig. 6) with the Fig. 12 extension.

Configurations are ⟨H, e⟩ pairs of a heap and an expression; one ``step``
reduces the leftmost-innermost redex.  Dynamic type errors (projecting a
non-pair, calling a non-function, branching on a non-integer, ...) reduce to
``fail Type``; dangling-pointer operations reduce to ``fail Ptr``; glue code
signals conversion failures with ``fail Conv``.

The machine is substitution-based, which keeps the semantics close to the
paper and makes garbage-collection roots trivial to compute (the locations
mentioned by the current expression).  The fast compiled CEK machine
(:mod:`repro.lcvm.cek`) is checked against this machine by the differential
tests and the fuzz gate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.errors import ErrorCode, StuckError
from repro.core.snapshots import check_snapshot, make_snapshot
from repro.lcvm.heap import CellKind, Heap
from repro.lcvm.syntax import (
    Alloc,
    App,
    Assign,
    BinOp,
    CallGc,
    Deref,
    Expr,
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
    is_value,
    mentioned_locations,
    substitute,
)


class Status(enum.Enum):
    VALUE = "value"
    FAIL = "fail"
    OUT_OF_FUEL = "out_of_fuel"
    STUCK = "stuck"


@dataclass
class Config:
    """A machine configuration ⟨H, e⟩ (with a failure marker once ``fail c`` ran)."""

    heap: Heap
    expr: Expr
    failure: Optional[ErrorCode] = None

    def finished(self) -> bool:
        return self.failure is not None or is_value(self.expr)

    def __str__(self) -> str:
        if self.failure is not None:
            return f"⟨{self.heap}, fail {self.failure}⟩"
        return f"⟨{self.heap}, {self.expr}⟩"


@dataclass
class MachineResult:
    status: Status
    config: Config
    steps: int

    @property
    def value(self) -> Optional[Expr]:
        if self.status is Status.VALUE:
            return self.config.expr
        return None

    @property
    def failure_code(self) -> Optional[ErrorCode]:
        return self.config.failure

    @property
    def heap(self) -> Heap:
        return self.config.heap

    def __str__(self) -> str:
        if self.status is Status.VALUE:
            return f"value {self.value} in {self.steps} steps"
        if self.status is Status.FAIL:
            return f"fail {self.failure_code} in {self.steps} steps"
        return f"{self.status.value} after {self.steps} steps"


class _Failure(Exception):
    """Internal signal that the redex was ``fail c``."""

    def __init__(self, code: ErrorCode):
        super().__init__(str(code))
        self.code = code


def _type_failure() -> "_Failure":
    return _Failure(ErrorCode.TYPE)


def _expects_int(expr: Expr) -> int:
    if isinstance(expr, Int):
        return expr.value
    raise _type_failure()


def step(config: Config) -> Config:
    """Perform one reduction step; raises StuckError on non-reducible non-values."""
    if config.finished():
        raise StuckError(f"configuration is terminal: {config}")
    heap = config.heap
    # Only the ``callgc`` rule consumes GC roots, and its roots are the
    # locations mentioned by the *whole* remaining program — so the whole
    # program is threaded down to the redex and the (linear-in-program-size)
    # root walk runs only when a ``callgc`` actually fires, not on every step.
    try:
        new_expr = _reduce(heap, config.expr, config.expr)
    except _Failure as failure:
        return Config(heap, Fail(failure.code), failure.code)
    return Config(heap, new_expr)


def _reduce(heap: Heap, expr: Expr, whole: Expr) -> Expr:
    """Reduce the leftmost-innermost redex of ``expr`` (mutating the heap)."""
    if isinstance(expr, Var):
        # Free variables cannot be evaluated; this is a dynamic type error.
        raise _type_failure()

    if isinstance(expr, Fail):
        raise _Failure(expr.code)

    if isinstance(expr, Pair):
        if not is_value(expr.first):
            return Pair(_reduce(heap, expr.first, whole), expr.second)
        return Pair(expr.first, _reduce(heap, expr.second, whole))

    if isinstance(expr, (Inl, Inr)):
        constructor = type(expr)
        return constructor(_reduce(heap, expr.body, whole))

    if isinstance(expr, Fst):
        if not is_value(expr.body):
            return Fst(_reduce(heap, expr.body, whole))
        if isinstance(expr.body, Pair):
            return expr.body.first
        raise _type_failure()

    if isinstance(expr, Snd):
        if not is_value(expr.body):
            return Snd(_reduce(heap, expr.body, whole))
        if isinstance(expr.body, Pair):
            return expr.body.second
        raise _type_failure()

    if isinstance(expr, If):
        if not is_value(expr.condition):
            return If(_reduce(heap, expr.condition, whole), expr.then_branch, expr.else_branch)
        scrutinee = _expects_int(expr.condition)
        return expr.then_branch if scrutinee == 0 else expr.else_branch

    if isinstance(expr, Match):
        if not is_value(expr.scrutinee):
            return Match(
                _reduce(heap, expr.scrutinee, whole),
                expr.left_name,
                expr.left_branch,
                expr.right_name,
                expr.right_branch,
            )
        if isinstance(expr.scrutinee, Inl):
            return substitute(expr.left_branch, expr.left_name, expr.scrutinee.body)
        if isinstance(expr.scrutinee, Inr):
            return substitute(expr.right_branch, expr.right_name, expr.scrutinee.body)
        raise _type_failure()

    if isinstance(expr, Let):
        if not is_value(expr.bound):
            return Let(expr.name, _reduce(heap, expr.bound, whole), expr.body)
        return substitute(expr.body, expr.name, expr.bound)

    if isinstance(expr, App):
        if not is_value(expr.function):
            return App(_reduce(heap, expr.function, whole), expr.argument)
        if not is_value(expr.argument):
            return App(expr.function, _reduce(heap, expr.argument, whole))
        if isinstance(expr.function, Lam):
            return substitute(expr.function.body, expr.function.parameter, expr.argument)
        raise _type_failure()

    if isinstance(expr, BinOp):
        if not is_value(expr.left):
            return BinOp(expr.op, _reduce(heap, expr.left, whole), expr.right)
        if not is_value(expr.right):
            return BinOp(expr.op, expr.left, _reduce(heap, expr.right, whole))
        left, right = _expects_int(expr.left), _expects_int(expr.right)
        if expr.op == "+":
            return Int(left + right)
        if expr.op == "-":
            return Int(left - right)
        if expr.op == "*":
            return Int(left * right)
        if expr.op == "<":
            return Int(0 if left < right else 1)
        raise _type_failure()

    if isinstance(expr, NewRef):
        if not is_value(expr.initial):
            return NewRef(_reduce(heap, expr.initial, whole))
        address = heap.allocate(expr.initial, CellKind.GC)
        return Loc(address)

    if isinstance(expr, Alloc):
        if not is_value(expr.initial):
            return Alloc(_reduce(heap, expr.initial, whole))
        address = heap.allocate(expr.initial, CellKind.MANUAL)
        return Loc(address)

    if isinstance(expr, Deref):
        if not is_value(expr.reference):
            return Deref(_reduce(heap, expr.reference, whole))
        if not isinstance(expr.reference, Loc):
            raise _type_failure()
        if not heap.contains(expr.reference.address):
            raise _Failure(ErrorCode.PTR)
        return heap.read(expr.reference.address)

    if isinstance(expr, Assign):
        if not is_value(expr.reference):
            return Assign(_reduce(heap, expr.reference, whole), expr.value)
        if not is_value(expr.value):
            return Assign(expr.reference, _reduce(heap, expr.value, whole))
        if not isinstance(expr.reference, Loc):
            raise _type_failure()
        if not heap.contains(expr.reference.address):
            raise _Failure(ErrorCode.PTR)
        heap.write(expr.reference.address, expr.value)
        return Unit()

    if isinstance(expr, Free):
        if not is_value(expr.reference):
            return Free(_reduce(heap, expr.reference, whole))
        if not isinstance(expr.reference, Loc):
            raise _type_failure()
        address = expr.reference.address
        if not heap.contains(address) or heap.kind_of(address) is not CellKind.MANUAL:
            raise _Failure(ErrorCode.PTR)
        heap.free(address)
        return Unit()

    if isinstance(expr, GcMov):
        if not is_value(expr.reference):
            return GcMov(_reduce(heap, expr.reference, whole))
        if not isinstance(expr.reference, Loc):
            raise _type_failure()
        address = expr.reference.address
        if not heap.contains(address) or heap.kind_of(address) is not CellKind.MANUAL:
            raise _Failure(ErrorCode.PTR)
        heap.move_to_gc(address)
        return expr.reference

    if isinstance(expr, CallGc):
        # Roots of the whole remaining program, computed only now that a
        # ``callgc`` redex actually fired.  ``callgc`` deep inside a context
        # still cannot collect cells the surrounding context refers to.
        heap.collect(roots=mentioned_locations(whole))
        return Unit()

    raise StuckError(f"no reduction rule for {expr!r}")


def run(expr: Expr, heap: Optional[Heap] = None, fuel: int = 100_000) -> MachineResult:
    """Run ``expr`` to a value / failure, or until ``fuel`` steps have been taken."""
    return run_config(Config(heap if heap is not None else Heap(), expr), fuel=fuel)


def run_config(config: Config, fuel: int = 100_000) -> MachineResult:
    execution = SubstitutionExecution(config.expr, heap=None, fuel=fuel, config=config)
    return execution.run()


def _copy_config(config: Config) -> Config:
    return Config(config.heap.copy(), config.expr, config.failure)


class SubstitutionExecution:
    """A resumable substitution machine: run in bounded slices.

    The reference machine already steps one redex at a time, so resumability
    is just a :class:`Config` plus a fuel budget held between slices.
    ``step_n(limit)`` performs at most ``limit`` reduction steps and returns
    the final :class:`MachineResult` once the configuration is terminal
    (value, failure, stuck, or this execution's own fuel exhausted) — or
    ``None`` while the program still has work and fuel left.  The observable
    result is identical to an uninterrupted :func:`run` however the steps are
    sliced, which is what lets the serving layer interleave the paper-faithful
    oracle next to the compiled machines with bounded per-turn latency.
    """

    __slots__ = ("config", "fuel", "steps", "result")

    #: The snapshot tag this machine writes and restores (see
    #: :mod:`repro.core.snapshots` for the format contract).
    SNAPSHOT_KIND = "lcvm/substitution"

    def __init__(
        self,
        expr: Expr,
        heap: Optional[Heap] = None,
        fuel: int = 100_000,
        config: Optional[Config] = None,
    ):
        self.config = config if config is not None else Config(heap if heap is not None else Heap(), expr)
        self.fuel = fuel
        self.steps = 0
        self.result: Optional[MachineResult] = None

    def snapshot(self) -> dict:
        """Reify the paused machine as a versioned, process-portable dict.

        The substitution machine's whole state is a configuration (heap +
        value-substituted remaining program, both plain syntax) plus the step
        count and fuel budget.  Only the heap is mutable, so only the heap is
        copied, allocator state included.
        """
        if self.result is not None:
            raise ValueError("cannot snapshot a finished execution")
        return make_snapshot(
            self.SNAPSHOT_KIND,
            {"config": _copy_config(self.config), "fuel": self.fuel, "steps": self.steps},
        )

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "SubstitutionExecution":
        """Rebuild a paused machine from :meth:`snapshot` output."""
        state = check_snapshot(snapshot, cls.SNAPSHOT_KIND)
        execution = cls.__new__(cls)
        execution.config = _copy_config(state["config"])
        execution.fuel = state["fuel"]
        execution.steps = state["steps"]
        execution.result = None
        return execution

    def step_n(self, limit: int) -> Optional[MachineResult]:
        """Run at most ``limit`` reduction steps; the result when halted, else None."""
        if limit < 1:
            raise ValueError(f"step_n limit must be >= 1, got {limit}")
        if self.result is not None:
            return self.result
        config = self.config
        steps = self.steps
        fuel = self.fuel
        budget = fuel if fuel - steps <= limit else steps + limit
        while True:
            # Fuel exhaustion outranks a terminal configuration, exactly as in
            # the one-shot runner's ``while steps < fuel`` loop.
            if steps >= fuel:
                self.result = MachineResult(Status.OUT_OF_FUEL, config, steps)
                break
            if config.failure is not None:
                self.result = MachineResult(Status.FAIL, config, steps)
                break
            if is_value(config.expr):
                self.result = MachineResult(Status.VALUE, config, steps)
                break
            if steps >= budget:
                self.config, self.steps = config, steps
                return None
            try:
                config = step(config)
            except StuckError:
                self.result = MachineResult(Status.STUCK, config, steps)
                break
            steps += 1
        self.config, self.steps = config, steps
        return self.result

    def run(self) -> MachineResult:
        """Drive the machine to completion in one maximal slice."""
        result = self.result
        while result is None:
            result = self.step_n(max(1, self.fuel))
        return result
