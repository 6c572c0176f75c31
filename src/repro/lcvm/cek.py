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

Continuation frames are uniform 5-tuples ``(apply, names, site, env, value)``
so the GC root scan can walk every frame without knowing its kind: ``apply``
is the handler that resumes the frame, ``names`` are binder/operator strings
(never traced), ``site`` is the node record that
pushed the frame — it holds the pending compiled nodes and the locations
they literally mention — ``env`` is the environment the pending nodes close
over, and ``value`` is an already-computed runtime value.
"""

from __future__ import annotations

from sys import intern
from typing import Callable, Iterator, List, Optional, Tuple

from repro.core.errors import ErrorCode, StuckError
from repro.core.language import UnitCode
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
    "Code",
    "CompiledExecution",
    "compiled_cache_stats",
    "run_compiled",
    "unit_code",
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
# A one-time AST walk compiles each syntax node into a *node record*: a tuple
# whose first slot is a module-level handler shared by every node of its
# shape, so the steady-state loop is ``control[0](control, env, kont, heap)``
# — one call per transition — and a node costs the cyclic GC one tuple, with
# no per-node function, closure cell or attribute dict.  A frame likewise
# carries the handler that resumes it, so applying one is ``frame[0](...)``.
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
# a root iff it is (a) literally mentioned by pending code (each frame's site
# record precomputes the locations its pending nodes mention; closures carry
# their body's as ``static_locations``), (b) the value of a variable free in
# pending code, or (c) inside an already-computed value parked in a frame —
# which is precisely the set of locations the substitution machine would find
# mentioned in its (value-substituted) remaining program.  Differential tests
# can therefore compare *raw* post-``callgc`` heap fragments against the
# oracle, with no final result-rooted normalization.
#
# Node records are ``(handler, index, pending, *constants)``:
#
# * ``handler(node, env, kont, heap) -> (control, evaluating, env)``,
# * ``index`` is the node's number in its :class:`Code`,
# * ``pending`` are the locations literally mentioned by the code the node
#   leaves pending in the frame it pushes (``()`` if it pushes none), and
# * the constants are the node's children, pruning sets (as tuples, which
#   the cyclic GC stops tracking) and binders; each handler names its layout.

_EMPTY: frozenset = frozenset()
_UNIT_VALUE = UnitV()

#: A compiled node record (see above).
Node = tuple

#: Compiled frames: ``(apply, names, site, env, value)`` (see the module
#: docstring).
CFrame = Tuple[str, Tuple[str, ...], Node, "Env", Optional[RuntimeValue]]

#: The site of frames that leave no code pending.
_NO_SITE: Node = (None, -1, ())


class CClosure:
    """A closure over a pruned environment, with a pre-compiled body."""

    __slots__ = ("parameter", "body", "node", "environment", "needs_param", "static_locations")

    def __init__(
        self,
        parameter: str,
        body: s.Expr,
        node: Node,
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


def _prune(env: Env, needed: Tuple[str, ...]) -> Env:
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
    for _apply, _names, site, frame_env, value in kont:
        roots.extend(site[2])
        walk_env(frame_env)
        if value is not None:
            roots.extend(locations_of(value))
    return roots


# -- node handlers ------------------------------------------------------------
# ``handler(node, env, kont, heap) -> (control, evaluating, env)``


def _eval_value(node, env, kont, heap):
    # (handler, index, (), value)
    return node[3], False, env


def _eval_var(node, env, kont, heap):
    # (handler, index, (), name)
    name = node[3]
    cell = env
    while cell is not None:
        if cell[0] == name:
            return cell[1], False, env
        cell = cell[2]
    raise _type_failure()


def _eval_lam(node, env, kont, heap):
    # (handler, index, (), parameter, body syntax, body node, capture,
    #  needs_param, static_locations)
    return CClosure(node[3], node[4], node[5], _prune(env, node[6]), node[7], node[8]), False, env


def _eval_push(node, env, kont, heap):
    # (handler, index, pending, first node, frame names, pending node, frame
    #  keep, frame handler, *shape-specific constants): evaluate the first
    # node with a frame holding the rest.  ``if`` adds (then keep, else node,
    # else keep) and ``match`` (left keep, left binder, right node, right
    # keep, right binder), with the then/left branch in the pending-node slot.
    kont.append((node[7], node[4], node, _prune(env, node[6]), None))
    return node[3], True, env


def _eval_unary(node, env, kont, heap):
    # (handler, index, (), child node, frame)
    kont.append(node[4])
    return node[3], True, env


def _eval_callgc(node, env, kont, heap):
    # (handler, index, ())
    heap.collect(roots=_compiled_roots(env, kont))
    return _UNIT_VALUE, False, env


def _eval_fail(node, env, kont, heap):
    # (handler, index, (), code)
    raise _Failure(node[3])


def _eval_stuck(node, env, kont, heap):
    # (handler, index, (), syntax)
    raise StuckError(f"no CEK rule for {node[3]!r}")


# -- frame application handlers ----------------------------------------------
# ``handler(frame, value, env, kont, heap) -> (control, evaluating, env)``


def _apply_app_arg(frame, v, env, kont, heap):
    kont.append((_apply_app_call, (), _NO_SITE, None, v))
    return frame[2][5], True, frame[3]


def _apply_app_call(frame, v, env, kont, heap):
    closure = frame[4]
    if type(closure) is not CClosure:
        raise _type_failure()
    if closure.needs_param:
        return closure.node, True, (closure.parameter, v, closure.environment)
    return closure.node, True, closure.environment


def _apply_let(frame, v, env, kont, heap):
    frame_env = frame[3]
    names = frame[1]
    if names:  # empty names ⇒ dead binding: drop the value immediately
        frame_env = (names[0], v, frame_env)
    return frame[2][5], True, frame_env


def _apply_binop_rhs(frame, v, env, kont, heap):
    kont.append((_apply_binop_done, frame[1], _NO_SITE, None, v))
    return frame[2][5], True, frame[3]


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
    site = frame[2]
    if v.value == 0:
        return site[5], True, _prune(frame[3], site[8])
    return site[9], True, _prune(frame[3], site[10])


def _apply_pair_snd(frame, v, env, kont, heap):
    kont.append((_apply_pair_done, (), _NO_SITE, None, v))
    return frame[2][5], True, frame[3]


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
    site = frame[2]
    kind = type(v)
    if kind is InlV:
        node, keep, binder = site[5], site[8], site[9]
    elif kind is InrV:
        node, keep, binder = site[10], site[11], site[12]
    else:
        raise _type_failure()
    branch_env = _prune(frame[3], keep)
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
    kont.append((_apply_assign_done, (), _NO_SITE, None, v))
    return frame[2][5], True, frame[3]


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


#: Frames hold the handler that resumes them; snapshots name it by tag.
_FRAME_TAGS = {
    _apply_app_arg: "app-arg",
    _apply_app_call: "app-call",
    _apply_let: "let",
    _apply_binop_rhs: "binop-rhs",
    _apply_binop_done: "binop-done",
    _apply_if: "if",
    _apply_pair_snd: "pair-snd",
    _apply_pair_done: "pair-done",
    _apply_fst: "fst",
    _apply_snd: "snd",
    _apply_inl: "inl",
    _apply_inr: "inr",
    _apply_match: "match",
    _apply_ref: "ref",
    _apply_alloc: "alloc",
    _apply_deref: "deref",
    _apply_assign_rhs: "assign-rhs",
    _apply_assign_done: "assign-done",
    _apply_free: "free",
    _apply_gcmov: "gcmov",
}
_FRAME_HANDLERS = {tag: handler for handler, tag in _FRAME_TAGS.items()}


# -- the compiler -------------------------------------------------------------


class Code:
    """One root's compiled code: node records plus flat per-node arrays.

    ``nodes[i]`` is node ``i``'s record, ``exprs[i]`` its syntax (for stuck
    and out-of-fuel leftovers) and ``mentioned[i]`` the locations it
    literally mentions, numbered in deterministic post-order, so the root's
    record is last.  A node is addressable across processes as ``(root,
    index)`` — the portable reference the snapshot format uses, resolved by
    compiling the root again.  Code holds no reference cycle, so it dies by
    reference count with its owner (a :class:`~repro.core.language.CompiledUnit`
    or one execution).
    """

    __slots__ = ("root", "nodes", "exprs", "mentioned", "__weakref__")

    def __init__(self, root: s.Expr):
        self.root = root
        self.nodes: List[Node] = []
        self.exprs: List[s.Expr] = []
        self.mentioned: List[Tuple[int, ...]] = []
        _compile(root, self)


#: Unary forms: the field holding the operand and the frame applied to its value.
_UNARY = {
    kind: (operand, (apply, (), _NO_SITE, None, None))
    for kind, operand, apply in (
        (s.Fst, "body", _apply_fst),
        (s.Snd, "body", _apply_snd),
        (s.Inl, "body", _apply_inl),
        (s.Inr, "body", _apply_inr),
        (s.NewRef, "initial", _apply_ref),
        (s.Alloc, "initial", _apply_alloc),
        (s.Deref, "reference", _apply_deref),
        (s.Free, "reference", _apply_free),
        (s.GcMov, "reference", _apply_gcmov),
    )
}

#: A compiled node with its free variables and literally mentioned locations.
_Compiled = Tuple[Node, frozenset, frozenset]


def _add(
    code: Code, e: s.Expr, fv: frozenset, mentioned: frozenset, handler: Callable, pending: frozenset, *constants: object
) -> _Compiled:
    """Append ``e``'s record to ``code`` under the next post-order index."""
    node = (handler, len(code.nodes), tuple(pending), *constants)
    code.nodes.append(node)
    code.exprs.append(e)
    code.mentioned.append(tuple(mentioned))
    return node, fv, mentioned


def _push(
    code: Code, e: s.Expr, apply: Callable, first: s.Expr, pending: s.Expr, names: Tuple[str, ...] = (), binder: Optional[str] = None
) -> _Compiled:
    """A node evaluating ``first`` under a frame that holds ``pending``."""
    first_node, first_fv, first_mentioned = _compile(first, code)
    pending_node, pending_fv, pending_mentioned = _compile(pending, code)
    if binder is not None:  # ``let``: bind the value only if the body uses it
        names = (binder,) if binder in pending_fv else ()
        pending_fv = pending_fv - {binder}
    fv = first_fv | pending_fv
    mentioned = first_mentioned | pending_mentioned
    constants = (first_node, names, pending_node, tuple(pending_fv), apply)
    return _add(code, e, fv, mentioned, _eval_push, pending_mentioned, *constants)


def _compile(e: s.Expr, code: Code) -> _Compiled:
    """Compile one syntax node into ``code`` (children first, sets bottom-up)."""
    kind = type(e)

    if kind is s.Int:
        return _add(code, e, _EMPTY, _EMPTY, _eval_value, _EMPTY, IntV(e.value))
    if kind is s.Unit:
        return _add(code, e, _EMPTY, _EMPTY, _eval_value, _EMPTY, _UNIT_VALUE)
    if kind is s.Loc:
        return _add(code, e, _EMPTY, frozenset((e.address,)), _eval_value, _EMPTY, LocV(e.address))
    if kind is s.Var:
        return _add(code, e, frozenset((e.name,)), _EMPTY, _eval_var, _EMPTY, e.name)

    if kind is s.Lam:
        body, body_fv, body_mentioned = _compile(e.body, code)
        capture = body_fv - {e.parameter}
        constants = (e.parameter, e.body, body, tuple(capture), e.parameter in body_fv, tuple(body_mentioned))
        return _add(code, e, capture, body_mentioned, _eval_lam, _EMPTY, *constants)

    if kind is s.App:
        return _push(code, e, _apply_app_arg, e.function, e.argument)
    if kind is s.Let:
        return _push(code, e, _apply_let, e.bound, e.body, binder=e.name)
    if kind is s.BinOp:
        return _push(code, e, _apply_binop_rhs, e.left, e.right, names=(intern(e.op),))
    if kind is s.Pair:
        return _push(code, e, _apply_pair_snd, e.first, e.second)
    if kind is s.Assign:
        return _push(code, e, _apply_assign_rhs, e.reference, e.value)

    if kind is s.If:
        condition, condition_fv, condition_mentioned = _compile(e.condition, code)
        then, then_fv, then_mentioned = _compile(e.then_branch, code)
        other, else_fv, else_mentioned = _compile(e.else_branch, code)
        branch_fv = then_fv | else_fv
        branch_mentioned = then_mentioned | else_mentioned
        fv = condition_fv | branch_fv
        mentioned = condition_mentioned | branch_mentioned
        constants = (condition, (), then, tuple(branch_fv), _apply_if, tuple(then_fv), other, tuple(else_fv))
        return _add(code, e, fv, mentioned, _eval_push, branch_mentioned, *constants)

    if kind is s.Match:
        scrutinee, scrutinee_fv, scrutinee_mentioned = _compile(e.scrutinee, code)
        left, left_fv, left_mentioned = _compile(e.left_branch, code)
        right, right_fv, right_mentioned = _compile(e.right_branch, code)
        left_keep = left_fv - {e.left_name}
        right_keep = right_fv - {e.right_name}
        branch_fv = left_keep | right_keep
        branch_mentioned = left_mentioned | right_mentioned
        fv = scrutinee_fv | branch_fv
        mentioned = scrutinee_mentioned | branch_mentioned
        left_binder = e.left_name if e.left_name in left_fv else None
        right_binder = e.right_name if e.right_name in right_fv else None
        constants = (
            scrutinee, (), left, tuple(branch_fv), _apply_match, tuple(left_keep), left_binder,
            right, tuple(right_keep), right_binder,
        )
        return _add(code, e, fv, mentioned, _eval_push, branch_mentioned, *constants)

    unary = _UNARY.get(kind)
    if unary is not None:
        operand, frame = unary
        child, fv, mentioned = _compile(getattr(e, operand), code)
        return _add(code, e, fv, mentioned, _eval_unary, _EMPTY, child, frame)

    if kind is s.CallGc:
        return _add(code, e, _EMPTY, _EMPTY, _eval_callgc, _EMPTY)
    if kind is s.Fail:
        return _add(code, e, _EMPTY, _EMPTY, _eval_fail, _EMPTY, e.code)

    # Protect (augmented-semantics-only) and unknown forms are stuck at
    # runtime, exactly like the reference machine — never at compile time.
    return _add(code, e, s.free_variables(e), mentioned_locations(e), _eval_stuck, _EMPTY, e)


# -- code kept by compiled units ----------------------------------------------

_UNIT_CODE = UnitCode()


def unit_code(unit) -> Code:
    """``unit``'s code, compiled the first time the unit starts and kept on
    the unit after that."""
    return _UNIT_CODE.get(unit, "cek-compiled", Code)


def compiled_cache_stats() -> dict:
    """Counters over the code compiled units keep for this machine.

    ``hits``: a unit's code was already built; ``misses``: a build;
    ``entries``: live units that hold code; ``capacity``: the pipeline LRU's
    default capacity, which bounds how long code lives per frontend.
    """
    return _UNIT_CODE.stats()


# -- snapshot codec for the compiled machine ----------------------------------
#
# Node records hold handler functions, so they do not leave the process.  The
# codec replaces every node with its portable address ``(root syntax,
# index)`` and every ``CClosure`` with a tagged tuple carrying its body's
# address plus a frozen environment; everything else in the state (leaf
# values, env cons cells, frame tuples, heap cells) is plain data already.
# Restoring resolves each address by compiling its root once — the walk is
# deterministic, so the node at the same index is the same handler over the
# same constants — which is exactly the recompile-on-restore contract
# ``stacklang.cek.CompiledExecution`` pioneered for mid-run pickling.  Both
# directions memoize by object identity so shared structure (environment
# tails, values parked in several frames) stays shared and the codec never
# re-walks it.

#: ``address(node) -> (root, index)`` while freezing.
Address = Callable[[Node], Tuple[s.Expr, int]]
#: ``code_of(root) -> Code`` while thawing.
CodeOf = Callable[[s.Expr], Code]


def _freeze_env(cell: Env, memo: dict, address: Address) -> Env:
    frozen_cells: List[Env] = []
    while cell is not None and id(cell) not in memo:
        frozen_cells.append(cell)
        cell = cell[2]
    frozen = None if cell is None else memo[id(cell)]
    for live in reversed(frozen_cells):
        frozen = (live[0], _freeze_value(live[1], memo, address), frozen)
        memo[id(live)] = frozen
    return frozen


def _freeze_value(value: object, memo: dict, address: Address) -> object:
    key = id(value)
    if key in memo:
        return memo[key]
    kind = type(value)
    if kind is CClosure:
        frozen = (
            "cclosure",
            value.parameter,
            value.needs_param,
            *address(value.node),
            _freeze_env(value.environment, memo, address),
        )
    elif kind is PairV:
        frozen = PairV(_freeze_value(value.first, memo, address), _freeze_value(value.second, memo, address))
    elif kind is InlV:
        frozen = InlV(_freeze_value(value.body, memo, address))
    elif kind is InrV:
        frozen = InrV(_freeze_value(value.body, memo, address))
    else:
        # IntV / UnitV / LocV: immutable plain data.
        frozen = value
    memo[key] = frozen
    return frozen


def _freeze_frame(frame: CFrame, memo: dict, address: Address) -> tuple:
    apply, names, site, env, value = frame
    return (
        _FRAME_TAGS[apply],
        names,
        None if site is _NO_SITE else address(site),
        _freeze_env(env, memo, address),
        None if value is None else _freeze_value(value, memo, address),
    )


def _freeze_heap(heap: Heap, memo: dict, address: Address) -> dict:
    return {
        "cells": {
            location: (_freeze_value(cell.value, memo, address), cell.kind)
            for location, cell in heap.cells.items()
        },
        "collections": heap.collections,
        "reclaimed": heap.reclaimed,
        # The allocator state rides along verbatim: address-for-address heap
        # equality after restore needs the exact free list, not a rebuilt one.
        "free": list(heap._free),
        "next": heap._next,
    }


def _thaw_env(cell: Env, memo: dict, code_of: CodeOf) -> Env:
    thawed_cells: List[Env] = []
    while cell is not None and id(cell) not in memo:
        thawed_cells.append(cell)
        cell = cell[2]
    thawed = None if cell is None else memo[id(cell)]
    for frozen in reversed(thawed_cells):
        thawed = (frozen[0], _thaw_value(frozen[1], memo, code_of), thawed)
        memo[id(frozen)] = thawed
    return thawed


def _thaw_value(value: object, memo: dict, code_of: CodeOf) -> object:
    key = id(value)
    if key in memo:
        return memo[key]
    kind = type(value)
    if kind is tuple:  # the only tuples in value position are frozen CClosures
        _tag, parameter, needs_param, root, index, environment = value
        code = code_of(root)
        thawed = CClosure(
            parameter,
            code.exprs[index],
            code.nodes[index],
            _thaw_env(environment, memo, code_of),
            needs_param,
            code.mentioned[index],
        )
    elif kind is PairV:
        thawed = PairV(_thaw_value(value.first, memo, code_of), _thaw_value(value.second, memo, code_of))
    elif kind is InlV:
        thawed = InlV(_thaw_value(value.body, memo, code_of))
    elif kind is InrV:
        thawed = InrV(_thaw_value(value.body, memo, code_of))
    else:
        thawed = value
    memo[key] = thawed
    return thawed


def _thaw_frame(frame: tuple, memo: dict, code_of: CodeOf) -> CFrame:
    tag, names, site, env, value = frame
    return (
        _FRAME_HANDLERS[tag],
        names,
        _NO_SITE if site is None else code_of(site[0]).nodes[site[1]],
        _thaw_env(env, memo, code_of),
        None if value is None else _thaw_value(value, memo, code_of),
    )


def _thaw_heap(state: dict, memo: dict, code_of: CodeOf) -> Heap:
    heap = Heap(
        cells={
            address: HeapCell(_thaw_value(value, memo, code_of), cell_kind)
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

    ``code`` is ``expr``'s compiled :class:`Code` when the caller keeps it
    (a unit's, via :func:`unit_code`); otherwise ``expr`` is compiled for
    this execution alone.
    """

    __slots__ = ("heap", "fuel", "steps", "result", "_codes", "_control", "_evaluating", "_env", "_kont")

    #: The snapshot tag this machine writes and restores (see
    #: :mod:`repro.core.snapshots` for the format contract).
    SNAPSHOT_KIND = "lcvm/cek-compiled"

    def __init__(
        self,
        expr: s.Expr,
        heap: Optional[Heap] = None,
        fuel: int = 100_000,
        code: Optional[Code] = None,
    ):
        if code is None:
            code = Code(expr)
        #: Every code this execution's nodes come from, the program's first.
        self._codes: List[Code] = [code]
        if heap is None:
            heap = Heap(trace=locations_of)
        else:
            for cell in heap.cells.values():
                cell.value = inject(cell.value, self._seeded_closure)
            heap.trace = locations_of
        self.heap = heap
        self.fuel = fuel
        self.steps = 0
        self.result: Optional[MachineResult] = None
        self._control: object = code.nodes[-1]
        self._evaluating = True
        self._env: Env = None
        self._kont: List[CFrame] = []

    def _seeded_closure(self, parameter: str, body: s.Expr) -> CClosure:
        """A pre-seeded heap's closed lambda, its body compiled once here."""
        code = Code(body)
        self._codes.append(code)
        return CClosure(parameter, body, code.nodes[-1], None, True, code.mentioned[-1])

    def _locate(self, node: Node) -> Tuple[Code, int]:
        index = node[1]
        for code in self._codes:
            if index < len(code.nodes) and code.nodes[index] is node:
                return code, index
        raise ValueError(f"node {index} belongs to no code of this execution")

    def _address(self, node: Node) -> Tuple[s.Expr, int]:
        code, index = self._locate(node)
        return code.root, index

    def _leftover(self, control: object, evaluating: bool) -> s.Expr:
        """The syntax a halted machine reports: the node's, or the value's."""
        if evaluating:
            code, index = self._locate(control)
            return code.exprs[index]
        return reify(control)

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
        try:
            while True:
                if steps >= budget:
                    self._control, self._evaluating, self._env, self.steps = control, evaluating, env, steps
                    if steps < fuel:
                        return None
                    leftover = self._leftover(control, evaluating)
                    self.result = MachineResult(
                        Status.OUT_OF_FUEL, Config(_finalize_heap(heap), leftover), steps
                    )
                    return self.result
                steps += 1
                if evaluating:
                    control, evaluating, env = control[0](control, env, kont, heap)
                elif kont:
                    frame = kont.pop()
                    control, evaluating, env = frame[0](frame, control, env, kont, heap)
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
            leftover = self._leftover(control, evaluating)
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

        Node records never enter the payload: control, frame sites, and
        closure bodies are stored as ``(root syntax, index)`` addresses and
        resolved on restore by compiling each root once.  The heap rides
        along with its exact allocator state, so a restored run's raw
        post-``callgc`` heap matches the uninterrupted run address-for-address.
        """
        if self.result is not None:
            raise ValueError("cannot snapshot a finished execution")
        memo: dict = {}
        address = self._address
        control = self._control
        return make_snapshot(
            self.SNAPSHOT_KIND,
            {
                "fuel": self.fuel,
                "steps": self.steps,
                "evaluating": self._evaluating,
                "control": (
                    address(control) if self._evaluating else _freeze_value(control, memo, address)
                ),
                "env": _freeze_env(self._env, memo, address),
                "kont": [_freeze_frame(frame, memo, address) for frame in self._kont],
                "heap": _freeze_heap(self.heap, memo, address),
            },
        )

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "CompiledExecution":
        """Rebuild a paused machine from :meth:`snapshot` output."""
        state = check_snapshot(snapshot, cls.SNAPSHOT_KIND)
        codes: List[Code] = []

        def code_of(root: s.Expr) -> Code:
            for code in codes:
                if code.root is root:
                    return code
            code = Code(root)
            codes.append(code)
            return code

        memo: dict = {}
        execution = cls.__new__(cls)
        execution._codes = codes
        execution.heap = _thaw_heap(state["heap"], memo, code_of)
        execution.fuel = state["fuel"]
        execution.steps = state["steps"]
        execution.result = None
        evaluating = state["evaluating"]
        if evaluating:
            root, index = state["control"]
            execution._control = code_of(root).nodes[index]
        else:
            execution._control = _thaw_value(state["control"], memo, code_of)
        execution._evaluating = evaluating
        execution._env = _thaw_env(state["env"], memo, code_of)
        execution._kont = [_thaw_frame(frame, memo, code_of) for frame in state["kont"]]
        return execution


def run_compiled(expr: s.Expr, heap: Optional[Heap] = None, fuel: int = 100_000) -> MachineResult:
    """Run a closed LCVM expression on the compiled-dispatch CEK machine.

    Returns the same :class:`~repro.lcvm.machine.MachineResult` shape as the
    reference machine: ``result.value`` is a syntax value, ``result.heap`` a
    syntax-valued :class:`~repro.lcvm.heap.Heap` whose raw post-``callgc``
    fragments match the substitution oracle exactly.  ``expr`` is compiled
    for this run alone; serving code runs a unit's kept code through
    :func:`unit_code` and slices :class:`CompiledExecution` itself.
    """
    return CompiledExecution(expr, heap=heap, fuel=fuel).run()
