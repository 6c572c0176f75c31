"""A compiled CEK machine for LCVM: the production execution substrate.

The substitution machine (:mod:`repro.lcvm.machine`) re-walks the whole
program on every step — once to find the redex and once to compute GC roots —
and every β-reduction copies the function body, so running a program of size
*n* costs Θ(n²) even before the heap gets involved.  This machine is the
observably-equivalent fast engine: a CEK machine with

* **C**ontrol — the compiled node (or runtime value) in focus,
* **E**nvironment — a shared, immutable linked environment giving O(1)
  closure capture and O(1) binding,
* **K**ontinuation — an explicit stack of defunctionalized frames,

so each transition costs O(1) amortized, and ``callgc`` roots come from the
environment and continuation stack rather than a full-AST walk.

Observable behaviour matches the reference machine: the same values (runtime
values are reified back to syntax on exit), the same error codes, the same
allocator (the shared :class:`~repro.lcvm.heap.Heap`, so freed location names
are re-used in the same order), and the same GC discipline — environments
are pruned to lexically-live bindings, so even the raw post-``callgc`` heaps
match the substitution machine address for address.

Continuation frames are uniform 5-tuples ``(tag, names, nodes, env, value)``
so the GC root scan can walk every frame without knowing its tag: ``names``
are binder/operator strings (never traced), ``nodes`` are pending compiled
nodes (traced via their precomputed ``mentioned`` sets), ``env`` is the
environment the pending nodes close over, and ``value`` is an
already-computed runtime value.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from sys import intern
from typing import Callable, Iterator, List, Optional, Tuple

from repro.core.errors import ErrorCode, StuckError
from repro.core.snapshots import check_snapshot, make_snapshot
from repro.lcvm import syntax as s
from repro.lcvm.heap import CellKind, Heap, HeapCell
from repro.lcvm.machine import Config, MachineResult, Status
from repro.lcvm.syntax import mentioned_locations
from repro.lcvm.values import (
    InlV,
    InrV,
    IntV,
    LocV,
    PairV,
    RuntimeValue,
    UnitV,
    inject,
    locations_of,
    reify,
)

__all__ = [
    "CClosure",
    "CompiledExecution",
    "compile_node",
    "compiled_cache_stats",
    "compiled_table",
    "run_compiled",
]


#: Environments are immutable cons cells ``(name, value, parent)`` with
#: ``None`` as the empty environment — extension and capture are O(1).
Env = Optional[Tuple[str, RuntimeValue, "Env"]]


class _Failure(Exception):
    def __init__(self, code: ErrorCode):
        super().__init__(str(code))
        self.code = code


def _type_failure() -> "_Failure":
    return _Failure(ErrorCode.TYPE)


def _expect_live_loc(heap: Heap, value: RuntimeValue) -> int:
    if not isinstance(value, LocV):
        raise _type_failure()
    if not heap.contains(value.address):
        raise _Failure(ErrorCode.PTR)
    return value.address


def _finalize_heap(heap: Heap) -> Heap:
    """Reify stored runtime values so the final heap reads as syntax."""
    for cell in heap.cells.values():
        cell.value = reify(cell.value)
    heap.trace = mentioned_locations
    return heap


# ===========================================================================
# Compiled dispatch (the ``cek-compiled`` backend)
# ===========================================================================
#
# A one-time AST walk closure-compiles each syntax node into a handler, so
# the steady-state loop is ``control(env, kont, heap)`` — one function call
# per transition.  Frame application dispatches through a dict keyed on
# interned frame tags instead of a tag ladder.
#
# The same pass computes the free-variable set of every node and uses it to
# *prune* captured environments to lexically-live bindings:
#
# * a closure captures only the free variables of its body,
# * a ``let`` drops the binding the moment the body cannot mention it,
# * continuation frames store the environment restricted to the variables
#   their pending expressions actually use, and
# * branch selection (``if`` / ``match``) re-prunes to the chosen branch.
#
# This restores the substitution machine's GC precision exactly: a location is
# a root iff it is (a) literally mentioned by pending code (each compiled node
# precomputes its ``mentioned`` set; closures carry theirs as
# ``static_locations``), (b) the value of a variable free in pending code, or
# (c) inside an already-computed value parked in a frame — which is precisely
# the set of locations the substitution machine would find mentioned in its
# (value-substituted) remaining program.  Differential tests can therefore
# compare *raw* post-``callgc`` heap fragments against the oracle, with no
# final result-rooted normalization.

_EMPTY_FV: frozenset = frozenset()
_UNIT_VALUE = UnitV()

#: A compiled node: ``node(env, kont, heap) -> (control, evaluating, env)``
#: with attributes ``fv`` (free variables), ``mentioned`` (literal locations),
#: and ``expr`` (the original syntax, for stuck/fuel leftovers).
CompiledNode = Callable[["Env", List["CFrame"], Heap], Tuple[object, bool, "Env"]]

#: Compiled frames: ``(tag, names, nodes, env, value)`` (see the module
#: docstring).
CFrame = Tuple[str, Tuple[str, ...], Tuple[CompiledNode, ...], "Env", Optional[RuntimeValue]]


class CClosure:
    """A closure over a pruned environment, with a pre-compiled body."""

    __slots__ = ("parameter", "body", "node", "environment", "needs_param", "static_locations")

    def __init__(
        self,
        parameter: str,
        body: s.Expr,
        node: CompiledNode,
        environment: Env,
        needs_param: bool,
        static_locations: Tuple[int, ...],
    ):
        self.parameter = parameter
        self.body = body  # syntax, so reify() works unchanged
        self.node = node
        self.environment = environment
        self.needs_param = needs_param
        self.static_locations = static_locations

    def env_bindings(self) -> Iterator[Tuple[str, RuntimeValue]]:
        cell = self.environment
        while cell is not None:
            yield cell[0], cell[1]
            cell = cell[2]

    def __str__(self) -> str:
        return f"<closure λ{self.parameter}>"


def _prune(env: Env, needed: frozenset) -> Env:
    """Restrict ``env`` to the innermost binding of each name in ``needed``."""
    if env is None or not needed:
        return None
    kept: List[Env] = []
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


# -- interned frame tags ------------------------------------------------------

_T_APP_ARG = intern("app-arg")
_T_APP_CALL = intern("app-call")
_T_LET = intern("let")
_T_BINOP_RHS = intern("binop-rhs")
_T_BINOP_DONE = intern("binop-done")
_T_IF = intern("if")
_T_PAIR_SND = intern("pair-snd")
_T_PAIR_DONE = intern("pair-done")
_T_FST = intern("fst")
_T_SND = intern("snd")
_T_INL = intern("inl")
_T_INR = intern("inr")
_T_MATCH = intern("match")
_T_REF = intern("ref")
_T_ALLOC = intern("alloc")
_T_DEREF = intern("deref")
_T_ASSIGN_RHS = intern("assign-rhs")
_T_ASSIGN_DONE = intern("assign-done")
_T_FREE = intern("free")
_T_GCMOV = intern("gcmov")


def _compiled_roots(env: Env, kont: List[CFrame]) -> List[int]:
    """GC roots of the compiled machine state (pruned env + continuation)."""
    roots: List[int] = []
    seen_envs: set = set()

    def walk_env(cell: Env) -> None:
        while cell is not None:
            marker = id(cell)
            if marker in seen_envs:
                return
            seen_envs.add(marker)
            roots.extend(locations_of(cell[1]))
            cell = cell[2]

    walk_env(env)
    for _tag, _names, nodes, frame_env, value in kont:
        for node in nodes:
            roots.extend(node.mentioned)
        walk_env(frame_env)
        if value is not None:
            roots.extend(locations_of(value))
    return roots


# -- frame application handlers ----------------------------------------------
# ``handler(frame, value, env, kont, heap) -> (control, evaluating, env)``


def _apply_app_arg(frame, v, env, kont, heap):
    kont.append((_T_APP_CALL, (), (), None, v))
    return frame[2][0], True, frame[3]


def _apply_app_call(frame, v, env, kont, heap):
    closure = frame[4]
    if type(closure) is CClosure:
        if closure.needs_param:
            return closure.node, True, (closure.parameter, v, closure.environment)
        return closure.node, True, closure.environment
    if hasattr(closure, "env_bindings"):
        # Slow path: a closure injected from a pre-seeded syntax heap.  Its
        # body is plain syntax; compile it (memoized) and rebuild its
        # environment as cons cells (outermost first so the innermost binding
        # ends up at the head).
        node = compile_node(closure.body)
        cell: Env = None
        for name, bound in reversed(list(closure.env_bindings())):
            cell = (name, bound, cell)
        return node, True, (closure.parameter, v, cell)
    raise _type_failure()


def _apply_let(frame, v, env, kont, heap):
    frame_env = frame[3]
    names = frame[1]
    if names:  # empty names ⇒ dead binding: drop the value immediately
        frame_env = (names[0], v, frame_env)
    return frame[2][0], True, frame_env


def _apply_binop_rhs(frame, v, env, kont, heap):
    kont.append((_T_BINOP_DONE, frame[1], (), None, v))
    return frame[2][0], True, frame[3]


def _apply_binop_done(frame, v, env, kont, heap):
    lhs = frame[4]
    if type(lhs) is not IntV or type(v) is not IntV:
        raise _type_failure()
    op = frame[1][0]
    left, right = lhs.value, v.value
    if op == "+":
        return IntV(left + right), False, env
    if op == "-":
        return IntV(left - right), False, env
    if op == "*":
        return IntV(left * right), False, env
    if op == "<":
        return IntV(0 if left < right else 1), False, env
    raise _type_failure()


def _apply_if(frame, v, env, kont, heap):
    if type(v) is not IntV:
        raise _type_failure()
    node = frame[2][0] if v.value == 0 else frame[2][1]
    return node, True, _prune(frame[3], node.fv)


def _apply_pair_snd(frame, v, env, kont, heap):
    kont.append((_T_PAIR_DONE, (), (), None, v))
    return frame[2][0], True, frame[3]


def _apply_pair_done(frame, v, env, kont, heap):
    return PairV(frame[4], v), False, env


def _apply_fst(frame, v, env, kont, heap):
    if type(v) is not PairV:
        raise _type_failure()
    return v.first, False, env


def _apply_snd(frame, v, env, kont, heap):
    if type(v) is not PairV:
        raise _type_failure()
    return v.second, False, env


def _apply_inl(frame, v, env, kont, heap):
    return InlV(v), False, env


def _apply_inr(frame, v, env, kont, heap):
    return InrV(v), False, env


def _apply_match(frame, v, env, kont, heap):
    kind = type(v)
    if kind is InlV:
        node = frame[2][0]
    elif kind is InrV:
        node = frame[2][1]
    else:
        raise _type_failure()
    branch_env = _prune(frame[3], node.branch_keep)
    binder = node.branch_binder
    if binder is not None:
        branch_env = (binder, v.body, branch_env)
    return node, True, branch_env


def _apply_ref(frame, v, env, kont, heap):
    return LocV(heap.allocate(v, CellKind.GC)), False, env


def _apply_alloc(frame, v, env, kont, heap):
    return LocV(heap.allocate(v, CellKind.MANUAL)), False, env


def _apply_deref(frame, v, env, kont, heap):
    return heap.read(_expect_live_loc(heap, v)), False, env


def _apply_assign_rhs(frame, v, env, kont, heap):
    kont.append((_T_ASSIGN_DONE, (), (), None, v))
    return frame[2][0], True, frame[3]


def _apply_assign_done(frame, v, env, kont, heap):
    heap.write(_expect_live_loc(heap, frame[4]), v)
    return _UNIT_VALUE, False, env


def _apply_free(frame, v, env, kont, heap):
    address = _expect_live_loc(heap, v)
    if heap.kind_of(address) is not CellKind.MANUAL:
        raise _Failure(ErrorCode.PTR)
    heap.free(address)
    return _UNIT_VALUE, False, env


def _apply_gcmov(frame, v, env, kont, heap):
    address = _expect_live_loc(heap, v)
    if heap.kind_of(address) is not CellKind.MANUAL:
        raise _Failure(ErrorCode.PTR)
    heap.move_to_gc(address)
    return v, False, env


_APPLY = {
    _T_APP_ARG: _apply_app_arg,
    _T_APP_CALL: _apply_app_call,
    _T_LET: _apply_let,
    _T_BINOP_RHS: _apply_binop_rhs,
    _T_BINOP_DONE: _apply_binop_done,
    _T_IF: _apply_if,
    _T_PAIR_SND: _apply_pair_snd,
    _T_PAIR_DONE: _apply_pair_done,
    _T_FST: _apply_fst,
    _T_SND: _apply_snd,
    _T_INL: _apply_inl,
    _T_INR: _apply_inr,
    _T_MATCH: _apply_match,
    _T_REF: _apply_ref,
    _T_ALLOC: _apply_alloc,
    _T_DEREF: _apply_deref,
    _T_ASSIGN_RHS: _apply_assign_rhs,
    _T_ASSIGN_DONE: _apply_assign_done,
    _T_FREE: _apply_free,
    _T_GCMOV: _apply_gcmov,
}


# -- the compiler -------------------------------------------------------------

#: The node table of the compile currently in flight.  ``_compile`` is only
#: ever entered through :func:`compile_node` (which installs a fresh list
#: around the walk), so every node a compile produces lands in its root's
#: table, numbered in deterministic post-order.  A node is then addressable
#: across processes as ``(root syntax, index)`` — the portable reference the
#: snapshot format uses, resolved on restore by recompiling the root.
_CURRENT_TABLE: Optional[List[CompiledNode]] = None


def _finish(node: CompiledNode, expr: s.Expr, fv: frozenset, mentioned: frozenset) -> CompiledNode:
    node.expr = expr
    node.fv = fv
    node.mentioned = mentioned
    table = _CURRENT_TABLE
    node.index = len(table)
    table.append(node)
    return node


def _unary_apply_node(child: CompiledNode, tag: str, expr: s.Expr) -> CompiledNode:
    frame: CFrame = (tag, (), (), None, None)

    def node(env, kont, heap):
        kont.append(frame)
        return child, True, env

    return _finish(node, expr, child.fv, child.mentioned)


def _compile(e: s.Expr) -> CompiledNode:
    """Closure-compile one syntax node (children first, sets derived bottom-up)."""
    kind = type(e)

    if kind is s.Int:
        value = IntV(e.value)

        def node(env, kont, heap):
            return value, False, env

        return _finish(node, e, _EMPTY_FV, _EMPTY_FV)

    if kind is s.Unit:

        def node(env, kont, heap):
            return _UNIT_VALUE, False, env

        return _finish(node, e, _EMPTY_FV, _EMPTY_FV)

    if kind is s.Loc:
        value = LocV(e.address)

        def node(env, kont, heap):
            return value, False, env

        return _finish(node, e, _EMPTY_FV, frozenset((e.address,)))

    if kind is s.Var:
        name = e.name

        def node(env, kont, heap):
            cell = env
            while cell is not None:
                if cell[0] == name:
                    return cell[1], False, env
                cell = cell[2]
            raise _type_failure()

        return _finish(node, e, frozenset((name,)), _EMPTY_FV)

    if kind is s.Lam:
        body = _compile(e.body)
        parameter = e.parameter
        capture = body.fv - {parameter}
        needs_param = parameter in body.fv
        static_locations = tuple(body.mentioned)
        body_syntax = e.body

        def node(env, kont, heap):
            return (
                CClosure(
                    parameter,
                    body_syntax,
                    body,
                    _prune(env, capture),
                    needs_param,
                    static_locations,
                ),
                False,
                env,
            )

        return _finish(node, e, capture, body.mentioned)

    if kind is s.App:
        function = _compile(e.function)
        argument = _compile(e.argument)
        arg_fv = argument.fv
        arg_nodes = (argument,)

        def node(env, kont, heap):
            kont.append((_T_APP_ARG, (), arg_nodes, _prune(env, arg_fv), None))
            return function, True, env

        return _finish(node, e, function.fv | arg_fv, function.mentioned | argument.mentioned)

    if kind is s.Let:
        bound = _compile(e.bound)
        body = _compile(e.body)
        names = (e.name,) if e.name in body.fv else ()
        keep = body.fv - {e.name}
        body_nodes = (body,)

        def node(env, kont, heap):
            kont.append((_T_LET, names, body_nodes, _prune(env, keep), None))
            return bound, True, env

        return _finish(node, e, bound.fv | keep, bound.mentioned | body.mentioned)

    if kind is s.BinOp:
        left = _compile(e.left)
        right = _compile(e.right)
        op_names = (intern(e.op),)
        right_fv = right.fv
        right_nodes = (right,)

        def node(env, kont, heap):
            kont.append((_T_BINOP_RHS, op_names, right_nodes, _prune(env, right_fv), None))
            return left, True, env

        return _finish(node, e, left.fv | right_fv, left.mentioned | right.mentioned)

    if kind is s.If:
        condition = _compile(e.condition)
        then_node = _compile(e.then_branch)
        else_node = _compile(e.else_branch)
        branch_fv = then_node.fv | else_node.fv
        branch_nodes = (then_node, else_node)

        def node(env, kont, heap):
            kont.append((_T_IF, (), branch_nodes, _prune(env, branch_fv), None))
            return condition, True, env

        return _finish(
            node,
            e,
            condition.fv | branch_fv,
            condition.mentioned | then_node.mentioned | else_node.mentioned,
        )

    if kind is s.Pair:
        first = _compile(e.first)
        second = _compile(e.second)
        second_fv = second.fv
        second_nodes = (second,)

        def node(env, kont, heap):
            kont.append((_T_PAIR_SND, (), second_nodes, _prune(env, second_fv), None))
            return first, True, env

        return _finish(node, e, first.fv | second_fv, first.mentioned | second.mentioned)

    if kind is s.Match:
        scrutinee = _compile(e.scrutinee)
        left = _compile(e.left_branch)
        right = _compile(e.right_branch)
        left.branch_binder = e.left_name if e.left_name in left.fv else None
        left.branch_keep = left.fv - {e.left_name}
        right.branch_binder = e.right_name if e.right_name in right.fv else None
        right.branch_keep = right.fv - {e.right_name}
        branch_fv = left.branch_keep | right.branch_keep
        branch_nodes = (left, right)

        def node(env, kont, heap):
            kont.append((_T_MATCH, (), branch_nodes, _prune(env, branch_fv), None))
            return scrutinee, True, env

        return _finish(
            node,
            e,
            scrutinee.fv | branch_fv,
            scrutinee.mentioned | left.mentioned | right.mentioned,
        )

    if kind is s.Assign:
        reference = _compile(e.reference)
        value_node = _compile(e.value)
        value_fv = value_node.fv
        value_nodes = (value_node,)

        def node(env, kont, heap):
            kont.append((_T_ASSIGN_RHS, (), value_nodes, _prune(env, value_fv), None))
            return reference, True, env

        return _finish(node, e, reference.fv | value_fv, reference.mentioned | value_node.mentioned)

    if kind is s.Fst:
        return _unary_apply_node(_compile(e.body), _T_FST, e)
    if kind is s.Snd:
        return _unary_apply_node(_compile(e.body), _T_SND, e)
    if kind is s.Inl:
        return _unary_apply_node(_compile(e.body), _T_INL, e)
    if kind is s.Inr:
        return _unary_apply_node(_compile(e.body), _T_INR, e)
    if kind is s.NewRef:
        return _unary_apply_node(_compile(e.initial), _T_REF, e)
    if kind is s.Alloc:
        return _unary_apply_node(_compile(e.initial), _T_ALLOC, e)
    if kind is s.Deref:
        return _unary_apply_node(_compile(e.reference), _T_DEREF, e)
    if kind is s.Free:
        return _unary_apply_node(_compile(e.reference), _T_FREE, e)
    if kind is s.GcMov:
        return _unary_apply_node(_compile(e.reference), _T_GCMOV, e)

    if kind is s.CallGc:

        def node(env, kont, heap):
            heap.collect(roots=_compiled_roots(env, kont))
            return _UNIT_VALUE, False, env

        return _finish(node, e, _EMPTY_FV, _EMPTY_FV)

    if kind is s.Fail:
        code = e.code

        def node(env, kont, heap):
            raise _Failure(code)

        return _finish(node, e, _EMPTY_FV, _EMPTY_FV)

    # Protect (augmented-semantics-only) and unknown forms are stuck at
    # runtime, exactly like the reference machine — never at compile time.
    expr = e

    def node(env, kont, heap):
        raise StuckError(f"no CEK rule for {expr!r}")

    return _finish(node, e, s.free_variables(e), mentioned_locations(e))


# -- compiled-program memo ----------------------------------------------------

_COMPILED_CACHE: "OrderedDict[int, Tuple[s.Expr, CompiledNode, List[CompiledNode]]]" = OrderedDict()
_COMPILED_CACHE_CAPACITY = 512
_compiled_hits = 0
_compiled_misses = 0
#: Serializes the memo and ``_CURRENT_TABLE``: threads of one process (such
#: as in-process network endpoints) compile concurrently.
_COMPILE_LOCK = threading.RLock()


def compile_node(expr: s.Expr) -> CompiledNode:
    """Compile ``expr`` to its handler graph, memoized per compiled unit.

    The memo is keyed on object identity (entries hold the expression, so the
    key stays valid while cached): the frontend pipeline cache returns the
    same ``CompiledUnit`` — hence the same ``target_code`` object — for
    repeated submissions, so its hits line up with ours and a program is
    compiled exactly once per cache generation.
    """
    global _compiled_hits, _compiled_misses, _CURRENT_TABLE
    key = id(expr)
    with _COMPILE_LOCK:
        entry = _COMPILED_CACHE.get(key)
        if entry is not None and entry[0] is expr:
            _compiled_hits += 1
            _COMPILED_CACHE.move_to_end(key)
            return entry[1]
        _CURRENT_TABLE = table = []
        try:
            node = _compile(expr)
        finally:
            _CURRENT_TABLE = None
        # Every node knows the root it was compiled under: ``(node.root,
        # node.index)`` is its process-portable address, resolvable anywhere
        # by recompiling the root (the walk is deterministic, so indexes agree).
        for compiled in table:
            compiled.root = expr
        _compiled_misses += 1
        _COMPILED_CACHE[key] = (expr, node, table)
        _COMPILED_CACHE.move_to_end(key)
        while len(_COMPILED_CACHE) > _COMPILED_CACHE_CAPACITY:
            _COMPILED_CACHE.popitem(last=False)
        return node


def compiled_table(expr: s.Expr) -> List[CompiledNode]:
    """The node table of ``expr``'s compile (compiling it on a memo miss)."""
    with _COMPILE_LOCK:
        compile_node(expr)
        return _COMPILED_CACHE[id(expr)][2]


def compiled_cache_stats() -> dict:
    return {
        "entries": len(_COMPILED_CACHE),
        "hits": _compiled_hits,
        "misses": _compiled_misses,
        "capacity": _COMPILED_CACHE_CAPACITY,
    }


# -- snapshot codec for the compiled machine ----------------------------------
#
# Compiled nodes are closures and cannot leave the process.  The codec
# replaces every node with its portable address ``(root syntax, index)`` and
# every ``CClosure`` with a tagged tuple carrying its body's address plus a
# frozen environment; everything else in the state (leaf values, env cons
# cells, frame tuples, heap cells) is plain data already.  Restoring resolves
# each address by recompiling the root — ``_compile`` is deterministic, so
# the node at the same index is the same handler — which is exactly the
# recompile-on-restore contract ``stacklang.cek.CompiledExecution`` pioneered
# for mid-run pickling.  Both directions memoize by object identity so shared
# structure (environment tails, values parked in several frames) stays shared
# and the codec never re-walks it.


def _freeze_env(cell: Env, memo: dict) -> Env:
    frozen_cells: List[Env] = []
    while cell is not None and id(cell) not in memo:
        frozen_cells.append(cell)
        cell = cell[2]
    frozen = None if cell is None else memo[id(cell)]
    for live in reversed(frozen_cells):
        frozen = (live[0], _freeze_value(live[1], memo), frozen)
        memo[id(live)] = frozen
    return frozen


def _freeze_value(value: object, memo: dict) -> object:
    key = id(value)
    if key in memo:
        return memo[key]
    kind = type(value)
    if kind is CClosure:
        node = value.node
        frozen = (
            "cclosure",
            value.parameter,
            value.needs_param,
            node.root,
            node.index,
            _freeze_env(value.environment, memo),
        )
    elif kind is PairV:
        frozen = PairV(_freeze_value(value.first, memo), _freeze_value(value.second, memo))
    elif kind is InlV:
        frozen = InlV(_freeze_value(value.body, memo))
    elif kind is InrV:
        frozen = InrV(_freeze_value(value.body, memo))
    else:
        # IntV / UnitV / LocV / injected closures: immutable plain data.
        frozen = value
    memo[key] = frozen
    return frozen


def _freeze_frame(frame: CFrame, memo: dict) -> tuple:
    tag, names, nodes, env, value = frame
    return (
        tag,
        names,
        tuple((node.root, node.index) for node in nodes),
        _freeze_env(env, memo),
        None if value is None else _freeze_value(value, memo),
    )


def _freeze_heap(heap: Heap, memo: dict) -> dict:
    return {
        "cells": {
            address: (_freeze_value(cell.value, memo), cell.kind)
            for address, cell in heap.cells.items()
        },
        "collections": heap.collections,
        "reclaimed": heap.reclaimed,
        # The allocator state rides along verbatim: address-for-address heap
        # equality after restore needs the exact free list, not a rebuilt one.
        "free": list(heap._free),
        "next": heap._next,
    }


def _thaw_env(cell: Env, memo: dict) -> Env:
    thawed_cells: List[Env] = []
    while cell is not None and id(cell) not in memo:
        thawed_cells.append(cell)
        cell = cell[2]
    thawed = None if cell is None else memo[id(cell)]
    for frozen in reversed(thawed_cells):
        thawed = (frozen[0], _thaw_value(frozen[1], memo), thawed)
        memo[id(frozen)] = thawed
    return thawed


def _thaw_value(value: object, memo: dict) -> object:
    key = id(value)
    if key in memo:
        return memo[key]
    kind = type(value)
    if kind is tuple:  # the only tuples in value position are frozen CClosures
        _tag, parameter, needs_param, root, index, environment = value
        body_node = compiled_table(root)[index]
        thawed = CClosure(
            parameter,
            body_node.expr,
            body_node,
            _thaw_env(environment, memo),
            needs_param,
            tuple(body_node.mentioned),
        )
    elif kind is PairV:
        thawed = PairV(_thaw_value(value.first, memo), _thaw_value(value.second, memo))
    elif kind is InlV:
        thawed = InlV(_thaw_value(value.body, memo))
    elif kind is InrV:
        thawed = InrV(_thaw_value(value.body, memo))
    else:
        thawed = value
    memo[key] = thawed
    return thawed


def _thaw_frame(frame: tuple, memo: dict) -> CFrame:
    tag, names, node_refs, env, value = frame
    return (
        intern(tag),
        names,
        tuple(compiled_table(root)[index] for root, index in node_refs),
        _thaw_env(env, memo),
        None if value is None else _thaw_value(value, memo),
    )


def _thaw_heap(state: dict, memo: dict) -> Heap:
    heap = Heap(
        cells={
            address: HeapCell(_thaw_value(value, memo), cell_kind)
            for address, (value, cell_kind) in state["cells"].items()
        },
        collections=state["collections"],
        reclaimed=state["reclaimed"],
        trace=locations_of,
    )
    heap._free = list(state["free"])
    heap._next = state["next"]
    return heap


class CompiledExecution:
    """A resumable compiled-dispatch machine: run in bounded slices.

    ``step_n(limit)`` advances the machine by at most ``limit`` transitions
    and returns the final :class:`~repro.lcvm.machine.MachineResult` once the
    machine halts (value, failure, stuck, or the *per-execution* fuel budget
    runs out) — or ``None`` while the program still has work and fuel left.
    Between slices the whole machine state (control, environment,
    continuation, heap, step count) lives on the execution object, so a
    scheduler can interleave many executions on one loop; the observable
    result is identical to an uninterrupted :func:`run_compiled` regardless
    of how the transitions are sliced.
    """

    __slots__ = ("heap", "fuel", "steps", "result", "_control", "_evaluating", "_env", "_kont")

    #: The snapshot tag this machine writes and restores (see
    #: :mod:`repro.core.snapshots` for the format contract).
    SNAPSHOT_KIND = "lcvm/cek-compiled"

    def __init__(self, expr: s.Expr, heap: Optional[Heap] = None, fuel: int = 100_000):
        if heap is None:
            heap = Heap(trace=locations_of)
        else:
            for cell in heap.cells.values():
                cell.value = inject(cell.value)
            heap.trace = locations_of
        self.heap = heap
        self.fuel = fuel
        self.steps = 0
        self.result: Optional[MachineResult] = None
        self._control: object = compile_node(expr)
        self._evaluating = True
        self._env: Env = None
        self._kont: List[CFrame] = []

    def step_n(self, limit: int) -> Optional[MachineResult]:
        """Run at most ``limit`` transitions; the result when halted, else None."""
        if limit < 1:
            raise ValueError(f"step_n limit must be >= 1, got {limit}")
        if self.result is not None:
            return self.result
        heap = self.heap
        kont = self._kont
        control = self._control
        evaluating = self._evaluating
        env = self._env
        steps = self.steps
        fuel = self.fuel
        budget = fuel if fuel - steps <= limit else steps + limit
        apply_handlers = _APPLY
        try:
            while True:
                if steps >= budget:
                    self._control, self._evaluating, self._env, self.steps = control, evaluating, env, steps
                    if steps < fuel:
                        return None
                    leftover = control.expr if evaluating else reify(control)
                    self.result = MachineResult(
                        Status.OUT_OF_FUEL, Config(_finalize_heap(heap), leftover), steps
                    )
                    return self.result
                steps += 1
                if evaluating:
                    control, evaluating, env = control(env, kont, heap)
                elif kont:
                    frame = kont.pop()
                    control, evaluating, env = apply_handlers[frame[0]](frame, control, env, kont, heap)
                else:
                    self.steps = steps
                    result_value = reify(control)
                    self.result = MachineResult(
                        Status.VALUE, Config(_finalize_heap(heap), result_value), steps
                    )
                    return self.result
        except _Failure as failure:
            self.steps = steps
            config = Config(_finalize_heap(heap), s.Fail(failure.code), failure.code)
            self.result = MachineResult(Status.FAIL, config, steps)
            return self.result
        except StuckError:
            self.steps = steps
            leftover = control.expr if evaluating else reify(control)
            self.result = MachineResult(Status.STUCK, Config(_finalize_heap(heap), leftover), steps)
            return self.result

    def run(self) -> MachineResult:
        """Drive the machine to completion in one maximal slice."""
        result = self.result
        while result is None:
            result = self.step_n(max(1, self.fuel))
        return result

    def snapshot(self) -> dict:
        """Reify the paused machine as a versioned, process-portable dict.

        Compiled handlers never enter the payload: control, frame nodes, and
        closure bodies are stored as ``(root syntax, index)`` addresses and
        resolved on restore by recompiling the root deterministically.  The
        heap rides along with its exact allocator state, so a restored run's
        raw post-``callgc`` heap matches the uninterrupted run
        address-for-address.
        """
        if self.result is not None:
            raise ValueError("cannot snapshot a finished execution")
        memo: dict = {}
        control = self._control
        return make_snapshot(
            self.SNAPSHOT_KIND,
            {
                "fuel": self.fuel,
                "steps": self.steps,
                "evaluating": self._evaluating,
                "control": (
                    (control.root, control.index)
                    if self._evaluating
                    else _freeze_value(control, memo)
                ),
                "env": _freeze_env(self._env, memo),
                "kont": [_freeze_frame(frame, memo) for frame in self._kont],
                "heap": _freeze_heap(self.heap, memo),
            },
        )

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "CompiledExecution":
        """Rebuild a paused machine from :meth:`snapshot` output."""
        state = check_snapshot(snapshot, cls.SNAPSHOT_KIND)
        memo: dict = {}
        execution = cls.__new__(cls)
        execution.heap = _thaw_heap(state["heap"], memo)
        execution.fuel = state["fuel"]
        execution.steps = state["steps"]
        execution.result = None
        evaluating = state["evaluating"]
        if evaluating:
            root, index = state["control"]
            execution._control = compiled_table(root)[index]
        else:
            execution._control = _thaw_value(state["control"], memo)
        execution._evaluating = evaluating
        execution._env = _thaw_env(state["env"], memo)
        execution._kont = [_thaw_frame(frame, memo) for frame in state["kont"]]
        return execution


class OptimizedExecution(CompiledExecution):
    """A compiled-dispatch execution whose snapshots are tagged ``cek-opt``.

    The machine is byte-for-byte :class:`CompiledExecution` — callers hand it
    the *already optimized* root (:func:`repro.analysis.optimize` runs
    strictly before execution starts) and the snapshot carries that optimized
    root as its syntax handle.  The distinct kind tag exists so bare
    snapshots route back to the ``cek-opt`` restorer, keeping the backend
    name observable across a migration.
    """

    __slots__ = ()

    SNAPSHOT_KIND = "lcvm/cek-opt"


def run_compiled(expr: s.Expr, heap: Optional[Heap] = None, fuel: int = 100_000) -> MachineResult:
    """Run a closed LCVM expression on the compiled-dispatch CEK machine.

    Returns the same :class:`~repro.lcvm.machine.MachineResult` shape as the
    reference machine: ``result.value`` is a syntax value, ``result.heap`` a
    syntax-valued :class:`~repro.lcvm.heap.Heap` whose raw post-``callgc``
    fragments match the substitution oracle exactly.  One maximal slice of
    :class:`CompiledExecution`; serving code holding several programs uses
    the execution object directly and slices the transitions itself.
    """
    return CompiledExecution(expr, heap=heap, fuel=fuel).run()
