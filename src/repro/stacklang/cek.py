"""A compiled, environment-based StackLang machine (no substitution).

The reference machine (:mod:`repro.stacklang.machine`) follows Fig. 2
literally: ``lam`` *substitutes* the popped values into the body, copying the
program text on every binding.  This machine is the fast, observably
equivalent engine in the style of the LCVM CEK machine: variables are looked
up in a shared immutable environment, thunks capture the environment they
close over, and the program is compiled once into a flat array of handler
closures, so each instruction costs O(1) amortized regardless of program
size.

Observable behaviour matches the reference machine: the same statuses, the
same error codes (``fail Type`` for unmet stack preconditions, ``fail Idx``
for out-of-bounds indexing), the same heap addresses (both allocators hand
out ``max + 1``), and the same final stack — runtime thunks and arrays are
reified back to syntax on exit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.errors import ErrorCode
from repro.core.language import UnitCode
from repro.core.snapshots import check_snapshot, make_snapshot
from repro.stacklang import syntax as s
from repro.stacklang.machine import Config, FailStack, MachineResult, Status

__all__ = [
    "ArrV",
    "CThunkV",
    "CompiledExecution",
    "compile_program",
    "compiled_cache_stats",
    "run_compiled",
    "unit_code",
]


#: Environments are immutable cons cells ``(name, value, parent)``; ``None``
#: is the empty environment.
Env = Optional[Tuple[str, object, "Env"]]


@dataclass(frozen=True)
class ArrV:
    """An array of runtime values."""

    items: Tuple[object, ...]

    def __len__(self) -> int:
        return len(self.items)

    def __str__(self) -> str:
        return "[" + ", ".join(str(item) for item in self.items) + "]"


def _reify(value: object) -> s.Value:
    """Convert a runtime value back to the syntax value it denotes."""
    if isinstance(value, CThunkV):
        program = value.program
        remaining = set(s.free_variables(program))
        cell = value.environment
        while cell is not None and remaining:
            name, bound, cell = cell
            if name in remaining:
                program = s.substitute_program(program, name, _reify(bound))
                remaining.discard(name)
        return s.Thunk(program)
    if isinstance(value, ArrV):
        return s.Arr(tuple(_reify(item) for item in value.items))
    return value


# ===========================================================================
# PC-threaded machine (the ``cek-compiled`` backend)
# ===========================================================================
#
# The machine compiles a program once into a flat array of handler closures
# with *resolved branch targets*:
#
# * ``if0`` becomes a conditional jump into inlined branch code (no
#   ``branch + rest`` splicing),
# * ``lam`` becomes an env-extend entry/exit bracket around its inlined body,
# * thunk programs compile into dedicated regions of the same array ended by
#   a return op; ``call`` jumps to the thunk's entry pc and a return stack
#   brings control (and the caller's environment) back,
# * ``push`` operands are pre-resolved: constants are pushed as-is, and a
#   thunk capture prunes the environment to the thunk's free variables.
#
# The steady-state loop is ``pc = code[pc](pc + 1, state)`` — one list index
# and one call per instruction.

_OpState = list  # [values, rstack, estack, env, heap, next_address, failure, stuck]
_V, _RSTACK, _ESTACK, _ENV, _HEAP, _NEXT, _FAILURE, _STUCK = range(8)

Op = Callable[[int, _OpState], int]


class CThunkV:
    """A suspended program compiled to an entry pc, with its pruned environment."""

    __slots__ = ("entry", "environment", "program")

    def __init__(self, entry: int, environment: Env, program: s.Program):
        self.entry = entry
        self.environment = environment
        self.program = program  # syntax, so reification works unchanged

    def __str__(self) -> str:
        return f"<thunk/{len(self.program)}>"


def _prune(env: Env, needed: Tuple[str, ...]) -> Env:
    """Restrict ``env`` to the innermost binding of each name in ``needed``."""
    if env is None or not needed:
        return None
    kept = []
    remaining = set(needed)
    cell = env
    while cell is not None:
        if cell[0] in remaining:
            remaining.discard(cell[0])
            kept.append(cell)
            if not remaining:
                break
        cell = cell[2]
    pruned: Env = None
    for cell in reversed(kept):
        pruned = (cell[0], cell[1], pruned)
    return pruned


# -- fixed ops ----------------------------------------------------------------


def _op_halt(pc: int, st: _OpState) -> int:
    return -1


def _op_return(pc: int, st: _OpState) -> int:
    pc, st[_ENV] = st[_RSTACK].pop()
    return pc


def _op_env_exit(pc: int, st: _OpState) -> int:
    st[_ENV] = st[_ESTACK].pop()
    return pc


def _op_call(pc: int, st: _OpState) -> int:
    values = st[_V]
    if not values or type(values[-1]) is not CThunkV:
        st[_FAILURE] = ErrorCode.TYPE
        return -1
    thunk = values.pop()
    st[_RSTACK].append((pc, st[_ENV]))
    st[_ENV] = thunk.environment
    return thunk.entry


def _op_add(pc: int, st: _OpState) -> int:
    values = st[_V]
    if len(values) < 2 or type(values[-1]) is not s.Num or type(values[-2]) is not s.Num:
        st[_FAILURE] = ErrorCode.TYPE
        return -1
    top = values.pop()
    second = values.pop()
    values.append(s.Num(top.number + second.number))
    return pc


def _op_less(pc: int, st: _OpState) -> int:
    values = st[_V]
    if len(values) < 2 or type(values[-1]) is not s.Num or type(values[-2]) is not s.Num:
        st[_FAILURE] = ErrorCode.TYPE
        return -1
    top = values.pop()
    second = values.pop()
    values.append(s.Num(0) if top.number < second.number else s.Num(1))
    return pc


def _op_idx(pc: int, st: _OpState) -> int:
    values = st[_V]
    if len(values) < 2 or type(values[-1]) is not s.Num or type(values[-2]) is not ArrV:
        st[_FAILURE] = ErrorCode.TYPE
        return -1
    index = values.pop()
    array = values.pop()
    if not 0 <= index.number < len(array.items):
        st[_FAILURE] = ErrorCode.IDX
        return -1
    values.append(array.items[index.number])
    return pc


def _op_len(pc: int, st: _OpState) -> int:
    values = st[_V]
    if not values or type(values[-1]) is not ArrV:
        st[_FAILURE] = ErrorCode.TYPE
        return -1
    values.append(s.Num(len(values.pop().items)))
    return pc


def _op_alloc(pc: int, st: _OpState) -> int:
    values = st[_V]
    if not values:
        st[_FAILURE] = ErrorCode.TYPE
        return -1
    address = st[_NEXT]
    st[_HEAP][address] = values.pop()
    values.append(s.Loc(address))
    st[_NEXT] = address + 1
    return pc


def _op_read(pc: int, st: _OpState) -> int:
    values = st[_V]
    heap = st[_HEAP]
    if not values or type(values[-1]) is not s.Loc or values[-1].address not in heap:
        st[_FAILURE] = ErrorCode.TYPE
        return -1
    values.append(heap[values.pop().address])
    return pc


def _op_write(pc: int, st: _OpState) -> int:
    values = st[_V]
    heap = st[_HEAP]
    if len(values) < 2 or type(values[-2]) is not s.Loc or values[-2].address not in heap:
        st[_FAILURE] = ErrorCode.TYPE
        return -1
    value = values.pop()
    location = values.pop()
    heap[location.address] = value
    return pc


# -- op factories -------------------------------------------------------------
#
# An op's constants are default arguments, not closure cells: an op then
# costs the cyclic GC one function (plus its defaults tuple when that holds
# a tracked object) for as long as its unit keeps the code.


def _make_push_const(value: object) -> Op:
    def op(pc: int, st: _OpState, value: object = value) -> int:
        st[_V].append(value)
        return pc

    return op


def _make_push_var(name: str) -> Op:
    def op(pc: int, st: _OpState, name: str = name) -> int:
        cell = st[_ENV]
        while cell is not None:
            if cell[0] == name:
                st[_V].append(cell[1])
                return pc
            cell = cell[2]
        st[_FAILURE] = ErrorCode.TYPE
        return -1

    return op


def _make_push_resolved(resolve: Callable[[Env], object]) -> Op:
    def op(pc: int, st: _OpState, resolve: Callable[[Env], object] = resolve) -> int:
        st[_V].append(resolve(st[_ENV]))
        return pc

    return op


def _make_if0(else_entry: int) -> Op:
    def op(pc: int, st: _OpState, else_entry: int = else_entry) -> int:
        values = st[_V]
        if not values or type(values[-1]) is not s.Num:
            st[_FAILURE] = ErrorCode.TYPE
            return -1
        return pc if values.pop().number == 0 else else_entry

    return op


def _make_jump(target: int) -> Op:
    def op(pc: int, st: _OpState, target: int = target) -> int:
        return target

    return op


def _make_lam_enter(binders: Tuple[str, ...]) -> Op:
    def op(pc: int, st: _OpState, binders: Tuple[str, ...] = binders, count: int = len(binders)) -> int:
        values = st[_V]
        if len(values) < count:
            st[_FAILURE] = ErrorCode.TYPE
            return -1
        st[_ESTACK].append(st[_ENV])
        env = st[_ENV]
        for binder in binders:
            env = (binder, values.pop(), env)
        st[_ENV] = env
        return pc

    return op


def _make_fail(code: ErrorCode) -> Op:
    def op(pc: int, st: _OpState, code: ErrorCode = code) -> int:
        st[_FAILURE] = code
        return -1

    return op


def _make_stuck() -> Op:
    def op(pc: int, st: _OpState) -> int:
        st[_STUCK] = True
        return -1

    return op


# -- the compiler -------------------------------------------------------------


def _operand_resolver(operand: object, pending: List[Tuple[s.Program, List[int]]]):
    """Pre-resolve a push operand to a closure ``env -> runtime value``."""
    if isinstance(operand, s.Var):
        # The reference machine leaves unbound variables inside arrays untouched
        # (substitution simply does not fire); mirror that.
        def resolve(env: Env, name: str = operand.name, unbound: s.Var = operand) -> object:
            cell = env
            while cell is not None:
                if cell[0] == name:
                    return cell[1]
                cell = cell[2]
            return unbound

        return resolve
    if isinstance(operand, s.Thunk):
        entry_cell = [0]
        pending.append((operand.program, entry_cell))

        def resolve(
            env: Env,
            entry_cell: List[int] = entry_cell,
            capture: Tuple[str, ...] = tuple(s.free_variables(operand.program)),
            program: s.Program = operand.program,
        ) -> object:
            return CThunkV(entry_cell[0], _prune(env, capture), program)

        return resolve
    if isinstance(operand, s.Arr):
        resolvers = tuple(_operand_resolver(item, pending) for item in operand.items)

        def resolve(env: Env, resolvers: Tuple[Callable[[Env], object], ...] = resolvers) -> object:
            return ArrV(tuple(r(env) for r in resolvers))

        return resolve
    return lambda env, value=operand: value


def _env_dependent(operand: object) -> bool:
    if isinstance(operand, (s.Var, s.Thunk)):
        return True
    if isinstance(operand, s.Arr):
        return any(_env_dependent(item) for item in operand.items)
    return False


def _emit(program: s.Program, ops: List[Op], pending: List[Tuple[s.Program, List[int]]]) -> None:
    """Append ops for ``program``; thunk bodies are queued on ``pending``."""
    for instruction in program:
        kind = type(instruction)
        if kind is s.Push:
            operand = instruction.operand
            if isinstance(operand, s.Var):
                ops.append(_make_push_var(operand.name))
            elif not _env_dependent(operand):
                # Constants (numbers, locations, var/thunk-free arrays) are
                # resolved once at compile time.
                ops.append(_make_push_const(_operand_resolver(operand, pending)(None)))
            else:
                ops.append(_make_push_resolved(_operand_resolver(operand, pending)))
        elif kind is s.Add:
            ops.append(_op_add)
        elif kind is s.Less:
            ops.append(_op_less)
        elif kind is s.If0:
            if0_index = len(ops)
            ops.append(_op_halt)  # placeholder, backpatched below
            _emit(instruction.then_program, ops, pending)
            jump_index = len(ops)
            ops.append(_op_halt)  # placeholder, backpatched below
            else_entry = len(ops)
            _emit(instruction.else_program, ops, pending)
            ops[if0_index] = _make_if0(else_entry)
            ops[jump_index] = _make_jump(len(ops))
        elif kind is s.Lam:
            ops.append(_make_lam_enter(instruction.binders))
            _emit(instruction.body, ops, pending)
            ops.append(_op_env_exit)
        elif kind is s.Call:
            ops.append(_op_call)
        elif kind is s.Idx:
            ops.append(_op_idx)
        elif kind is s.Len:
            ops.append(_op_len)
        elif kind is s.Alloc:
            ops.append(_op_alloc)
        elif kind is s.Read:
            ops.append(_op_read)
        elif kind is s.Write:
            ops.append(_op_write)
        elif kind is s.Fail:
            ops.append(_make_fail(instruction.code))
        else:
            # Unknown instructions are stuck at runtime, like the oracle.
            ops.append(_make_stuck())


def compile_program(program: s.Program) -> List[Op]:
    """Compile ``program`` to a flat op array (deterministic, uncached)."""
    ops: List[Op] = []
    pending: List[Tuple[s.Program, List[int]]] = []
    _emit(tuple(program), ops, pending)
    ops.append(_op_halt)
    while pending:
        thunk_program, entry_cell = pending.pop()
        entry_cell[0] = len(ops)
        _emit(thunk_program, ops, pending)
        ops.append(_op_return)
    return ops


_UNIT_CODE = UnitCode()


def unit_code(unit) -> List[Op]:
    """``unit``'s op array, compiled the first time the unit starts and kept
    on the unit after that."""
    return _UNIT_CODE.get(unit, "cek-compiled", compile_program)


def compiled_cache_stats() -> Dict[str, int]:
    """Counters over the op arrays compiled units keep for this machine.

    ``hits``: a unit's code was already built; ``misses``: a build;
    ``entries``: live units that hold code; ``capacity``: the pipeline LRU's
    default capacity, which bounds how long code lives per frontend.
    """
    return _UNIT_CODE.stats()


def _copy_state(st: _OpState) -> _OpState:
    """``st`` with fresh value, return and env-restore lists and heap dict;
    environments and runtime values are immutable and shared."""
    copied = list(st)
    for slot in (_V, _RSTACK, _ESTACK):
        copied[slot] = list(st[slot])
    copied[_HEAP] = dict(st[_HEAP])
    return copied


class CompiledExecution:
    """A resumable pc-threaded machine: run in bounded slices.

    ``step_n(limit)`` advances the machine by at most ``limit`` instructions
    and returns the final :class:`~repro.stacklang.machine.MachineResult`
    once the machine halts (or its *per-execution* fuel budget runs out), or
    ``None`` while there is work and fuel left.  The snapshot between slices
    is just ``(pc, op-state, steps)``, so a scheduler can interleave many
    executions on one loop; the observable result is identical to an
    uninterrupted :func:`run_compiled` regardless of slicing.

    ``code`` is ``program``'s op array when the caller keeps it (a unit's,
    via :func:`unit_code`); otherwise ``program`` is compiled for this
    execution alone.

    Executions move between processes as snapshots: the compiled op array
    is a graph of process-local closures and never leaves the process, so
    :meth:`snapshot` keeps ``program`` (plain syntax, the handle) plus the
    op-state, and :meth:`from_snapshot` recompiles it.  Compilation is
    deterministic, so the restored op array has the same layout and the
    saved ``pc`` (and every :class:`CThunkV` entry pc in the state) stays
    valid; the resumed run is observably identical.
    """

    __slots__ = ("fuel", "steps", "result", "program", "_code", "_st", "_pc")

    #: The snapshot tag this machine writes and restores (see
    #: :mod:`repro.core.snapshots` for the format contract).
    SNAPSHOT_KIND = "stacklang/cek-compiled"

    def __init__(
        self,
        program: s.Program,
        heap: Optional[Dict[int, s.Value]] = None,
        stack: Optional[List[s.Value]] = None,
        fuel: int = 100_000,
        code: Optional[List[Op]] = None,
    ):
        self.program = program if isinstance(program, tuple) else tuple(program)
        self._code = code if code is not None else compile_program(self.program)
        heap_cells: Dict[int, object] = dict(heap or {})
        self._st: _OpState = [
            list(stack if stack is not None else []),  # values
            [],  # return stack
            [],  # env-restore stack
            None,  # environment
            heap_cells,
            max(heap_cells.keys(), default=-1) + 1,  # next address
            None,  # failure code
            False,  # stuck flag
        ]
        self._pc = 0
        self.fuel = fuel
        self.steps = 0
        self.result: Optional[MachineResult] = None

    def snapshot(self) -> dict:
        """Reify the paused machine as a versioned, process-portable dict.

        The op array stays behind (``program`` is its handle); the op-state
        is copied by :func:`_copy_state`.
        """
        if self.result is not None:
            raise ValueError("cannot snapshot a finished execution")
        return make_snapshot(
            self.SNAPSHOT_KIND,
            {
                "program": self.program,
                "pc": self._pc,
                "fuel": self.fuel,
                "steps": self.steps,
                "st": _copy_state(self._st),
            },
        )

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "CompiledExecution":
        """Rebuild a paused machine from :meth:`snapshot` output, compiling
        its program once."""
        state = check_snapshot(snapshot, cls.SNAPSHOT_KIND)
        execution = cls.__new__(cls)
        execution.program = state["program"]
        execution._code = compile_program(execution.program)
        execution._st = _copy_state(state["st"])
        execution._pc = state["pc"]
        execution.fuel = state["fuel"]
        execution.steps = state["steps"]
        execution.result = None
        return execution

    def step_n(self, limit: int) -> Optional[MachineResult]:
        """Run at most ``limit`` instructions; the result when halted, else None."""
        if limit < 1:
            raise ValueError(f"step_n limit must be >= 1, got {limit}")
        if self.result is not None:
            return self.result
        code = self._code
        st = self._st
        pc = self._pc
        steps = self.steps
        fuel = self.fuel
        budget = fuel if fuel - steps <= limit else steps + limit
        while pc >= 0:
            if steps >= budget:
                self._pc, self.steps = pc, steps
                if steps < fuel:
                    return None
                final = Config(dict(st[_HEAP]), [_reify(v) for v in st[_V]], ())
                self.result = MachineResult(Status.OUT_OF_FUEL, final, steps)
                return self.result
            steps += 1
            pc = code[pc](pc + 1, st)
        self._pc, self.steps = pc, steps
        self.result = self._halt()
        return self.result

    def _halt(self) -> MachineResult:
        st = self._st
        heap_cells = st[_HEAP]
        if st[_STUCK]:
            # Stuck configurations keep the raw (unreified) heap.
            final = Config(dict(heap_cells), [_reify(v) for v in st[_V]], ())
            return MachineResult(Status.STUCK, final, self.steps)
        reified_heap = {address: _reify(value) for address, value in heap_cells.items()}
        if st[_FAILURE] is not None:
            return MachineResult(Status.FAIL, Config(reified_heap, FailStack(st[_FAILURE]), ()), self.steps)
        reified_stack = [_reify(v) for v in st[_V]]
        final = Config(reified_heap, reified_stack, ())
        status = Status.VALUE if reified_stack else Status.EMPTY
        return MachineResult(status, final, self.steps)

    def run(self) -> MachineResult:
        """Drive the machine to completion in one maximal slice."""
        result = self.result
        while result is None:
            result = self.step_n(max(1, self.fuel))
        return result


def run_compiled(
    program: s.Program,
    heap: Optional[Dict[int, s.Value]] = None,
    stack: Optional[List[s.Value]] = None,
    fuel: int = 100_000,
) -> MachineResult:
    """Run ``program`` on the pc-threaded machine; mirrors ``machine.run``.

    ``program`` is compiled for this run alone.  Observable results
    (statuses, error codes, stacks, heaps) match the substitution machine;
    *fuel granularity* does not — synthetic ops (jumps, env-exit brackets,
    thunk returns, the final halt) each consume a step, so the compiled
    machine takes more, finer-grained steps than the oracle.  Give it
    headroom when comparing near the fuel boundary.

    One maximal slice of :class:`CompiledExecution`; serving code holding
    several programs uses the execution object directly and slices the
    instruction stream itself.
    """
    return CompiledExecution(program, heap=heap, stack=stack, fuel=fuel).run()
