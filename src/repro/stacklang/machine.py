"""Small-step operational semantics of StackLang (Fig. 2).

Configurations are ⟨H; S; P⟩: a heap mapping locations to values, a stack of
values (or the distinguished ``Fail c`` stack), and the remaining program.
Every instruction whose stack precondition is not met steps to ``fail Type``,
which is the dynamic type error that the type-safety theorems (3.3/3.4) prove
unreachable from compiled well-typed programs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.errors import ErrorCode, StuckError
from repro.core.snapshots import check_snapshot, make_snapshot
from repro.stacklang.syntax import (
    Add,
    Alloc,
    Arr,
    Call,
    Fail,
    Idx,
    If0,
    Lam,
    Len,
    Less,
    Loc,
    Num,
    Program,
    Push,
    Read,
    Thunk,
    Value,
    Var,
    Write,
    is_value,
    substitute_program,
)

Heap = Dict[int, Value]


@dataclass(frozen=True)
class FailStack:
    """The ``Fail c`` stack that replaces the value stack after ``fail c``."""

    code: ErrorCode

    def __str__(self) -> str:
        return f"Fail {self.code}"


@dataclass
class Config:
    """A machine configuration ⟨H; S; P⟩."""

    heap: Heap
    stack: object  # List[Value] or FailStack
    program: Program

    def is_terminal(self) -> bool:
        """A configuration is terminal when its program is exhausted."""
        return len(self.program) == 0

    def failed(self) -> bool:
        return isinstance(self.stack, FailStack)

    def __str__(self) -> str:
        heap_str = "{" + ", ".join(f"ℓ{address}: {value}" for address, value in sorted(self.heap.items())) + "}"
        if isinstance(self.stack, FailStack):
            stack_str = str(self.stack)
        else:
            stack_str = "[" + ", ".join(str(value) for value in self.stack) + "]"
        from repro.stacklang.syntax import program_to_str

        return f"⟨{heap_str}; {stack_str}; {program_to_str(self.program)}⟩"


class Status(enum.Enum):
    """How a bounded run finished."""

    VALUE = "value"
    EMPTY = "empty"
    FAIL = "fail"
    OUT_OF_FUEL = "out_of_fuel"
    STUCK = "stuck"


@dataclass
class MachineResult:
    """The outcome of :func:`run`."""

    status: Status
    config: Config
    steps: int

    @property
    def value(self) -> Optional[Value]:
        """The top of the final stack, if the run produced a value."""
        if self.status is Status.VALUE and isinstance(self.config.stack, list) and self.config.stack:
            return self.config.stack[-1]
        return None

    @property
    def failure_code(self) -> Optional[ErrorCode]:
        if isinstance(self.config.stack, FailStack):
            return self.config.stack.code
        return None

    @property
    def heap(self) -> Heap:
        return self.config.heap

    def __str__(self) -> str:
        if self.status is Status.VALUE:
            return f"value {self.value} in {self.steps} steps"
        if self.status is Status.FAIL:
            return f"fail {self.failure_code} in {self.steps} steps"
        return f"{self.status.value} after {self.steps} steps"


def initial_config(program: Program, heap: Optional[Heap] = None, stack: Optional[List[Value]] = None) -> Config:
    """Build ⟨H; S; P⟩ with the given (defaulting to empty) heap and stack."""
    return Config(dict(heap or {}), list(stack if stack is not None else []), tuple(program))


def _fail(config: Config, code: ErrorCode) -> Config:
    """Step to ⟨H; Fail c; ·⟩."""
    return Config(config.heap, FailStack(code), ())


def _type_fail(config: Config) -> Config:
    return _fail(config, ErrorCode.TYPE)


def fresh_address(heap: Heap) -> int:
    """Return a location not in the heap's domain."""
    return max(heap.keys(), default=-1) + 1


def step(config: Config) -> Config:
    """Perform one small step.  Raises :class:`StuckError` if no rule applies."""
    if config.failed() or config.is_terminal():
        raise StuckError(f"configuration is terminal: {config}")

    instruction = config.program[0]
    rest = config.program[1:]
    heap = config.heap
    stack: List[Value] = config.stack  # type: ignore[assignment]

    if isinstance(instruction, Push):
        operand = instruction.operand
        if isinstance(operand, Var):
            # Executing an unsubstituted variable is a dynamic type error.
            return _type_fail(config)
        return Config(heap, stack + [operand], rest)

    if isinstance(instruction, Add):
        if len(stack) < 2 or not isinstance(stack[-1], Num) or not isinstance(stack[-2], Num):
            return _type_fail(config)
        top, second = stack[-1], stack[-2]
        return Config(heap, stack[:-2] + [Num(top.number + second.number)], rest)

    if isinstance(instruction, Less):
        if len(stack) < 2 or not isinstance(stack[-1], Num) or not isinstance(stack[-2], Num):
            return _type_fail(config)
        top, second = stack[-1], stack[-2]
        result = Num(0) if top.number < second.number else Num(1)
        return Config(heap, stack[:-2] + [result], rest)

    if isinstance(instruction, If0):
        if not stack or not isinstance(stack[-1], Num):
            return _type_fail(config)
        scrutinee = stack[-1]
        branch = instruction.then_program if scrutinee.number == 0 else instruction.else_program
        return Config(heap, stack[:-1], branch + rest)

    if isinstance(instruction, Lam):
        if len(stack) < len(instruction.binders):
            return _type_fail(config)
        body = instruction.body
        new_stack = list(stack)
        for binder in instruction.binders:
            value = new_stack.pop()
            body = substitute_program(body, binder, value)
        return Config(heap, new_stack, body + rest)

    if isinstance(instruction, Call):
        if not stack or not isinstance(stack[-1], Thunk):
            return _type_fail(config)
        thunk = stack[-1]
        return Config(heap, stack[:-1], thunk.program + rest)

    if isinstance(instruction, Idx):
        if len(stack) < 2 or not isinstance(stack[-1], Num) or not isinstance(stack[-2], Arr):
            return _type_fail(config)
        index, array = stack[-1], stack[-2]
        if not 0 <= index.number < len(array.items):
            return _fail(config, ErrorCode.IDX)
        return Config(heap, stack[:-2] + [array.items[index.number]], rest)

    if isinstance(instruction, Len):
        if not stack or not isinstance(stack[-1], Arr):
            return _type_fail(config)
        array = stack[-1]
        return Config(heap, stack[:-1] + [Num(len(array.items))], rest)

    if isinstance(instruction, Alloc):
        if not stack or not is_value(stack[-1]):
            return _type_fail(config)
        value = stack[-1]
        address = fresh_address(heap)
        new_heap = dict(heap)
        new_heap[address] = value
        return Config(new_heap, stack[:-1] + [Loc(address)], rest)

    if isinstance(instruction, Read):
        if not stack or not isinstance(stack[-1], Loc):
            return _type_fail(config)
        location = stack[-1]
        if location.address not in heap:
            return _type_fail(config)
        return Config(heap, stack[:-1] + [heap[location.address]], rest)

    if isinstance(instruction, Write):
        if len(stack) < 2 or not isinstance(stack[-2], Loc):
            return _type_fail(config)
        value, location = stack[-1], stack[-2]
        if location.address not in heap:
            return _type_fail(config)
        new_heap = dict(heap)
        new_heap[location.address] = value
        return Config(new_heap, stack[:-2], rest)

    if isinstance(instruction, Fail):
        return _fail(config, instruction.code)

    raise StuckError(f"no rule for instruction {instruction!r}")


def run(
    program: Program,
    heap: Optional[Heap] = None,
    stack: Optional[List[Value]] = None,
    fuel: int = 100_000,
) -> MachineResult:
    """Run ``program`` to completion or until ``fuel`` steps have been taken."""
    return run_config(initial_config(program, heap, stack), fuel=fuel)


def run_config(config: Config, fuel: int = 100_000) -> MachineResult:
    """Run an arbitrary configuration for at most ``fuel`` steps."""
    return SubstitutionExecution(config=config, fuel=fuel).run()


def _copy_config(config: Config) -> Config:
    # A paused configuration's stack is a value list, never ``Fail c``.
    return Config(dict(config.heap), list(config.stack), config.program)


class SubstitutionExecution:
    """A resumable Fig. 2 machine: run in bounded slices.

    The reference machine already steps one instruction at a time, so
    resumability is just a :class:`Config` plus a fuel budget carried between
    slices.  ``step_n(limit)`` performs at most ``limit`` steps and returns
    the final :class:`MachineResult` once the configuration is terminal
    (value/empty stack, failure, stuck, or this execution's own fuel
    exhausted) — or ``None`` while the program still has work and fuel left.
    The observable result is identical to an uninterrupted :func:`run`
    however the steps are sliced.
    """

    __slots__ = ("config", "fuel", "steps", "result")

    #: The snapshot tag this machine writes and restores (see
    #: :mod:`repro.core.snapshots` for the format contract).
    SNAPSHOT_KIND = "stacklang/substitution"

    def __init__(
        self,
        program: Optional[Program] = None,
        heap: Optional[Heap] = None,
        stack: Optional[List[Value]] = None,
        fuel: int = 100_000,
        config: Optional[Config] = None,
    ):
        if config is None:
            config = initial_config(program or (), heap, stack)
        self.config = config
        self.fuel = fuel
        self.steps = 0
        self.result: Optional[MachineResult] = None

    def snapshot(self) -> dict:
        """Reify the paused machine as a versioned, process-portable dict.

        A Fig. 2 configuration is heap + stack + remaining program, all plain
        syntax; the heap dict and the stack list are copied, the rest shared.
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
        """Run at most ``limit`` machine steps; the result when halted, else None."""
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
            if config.failed():
                self.result = MachineResult(Status.FAIL, config, steps)
                break
            if config.is_terminal():
                if isinstance(config.stack, list) and config.stack:
                    self.result = MachineResult(Status.VALUE, config, steps)
                else:
                    self.result = MachineResult(Status.EMPTY, config, steps)
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
