"""The LCVM source-to-source optimizer behind the ``cek-opt`` backend.

Three transforms, each individually observation-preserving against the
substitution oracle (value, failure code, *and* raw post-GC heap — see the
soundness notes on each):

* **constant propagation** — ``let x = k in e`` with ``k`` a closed constant
  (``Int``/``Unit``/``Loc``) rewrites to ``e[x ↦ k]``.  This is exactly the
  machine's own ``Let`` transition applied early; closed constants cannot be
  captured, allocate nothing, and substitution is the oracle's.
* **constant folding** — ``BinOp`` on two integer literals, ``if`` on an
  integer literal, and ``fst``/``snd`` of a pair *value* reduce to their
  results, mirroring the machine transitions bit for bit (``<`` yields
  ``Int(0)`` for true, ``if`` takes the then-branch on ``0``).
* **dead-binding elimination** — ``let x = v in e`` with ``x`` not free in
  ``e`` drops to ``e``, but **only** when ``v`` is already a syntactic value:
  values evaluate to themselves with no effect, no failure, and no
  allocation, so removing the binding is unobservable.  A non-value right
  hand side (an application, a ``ref``, an unbound variable, a ``fail``) is
  never dropped — its effects and failures must still happen.

Because every rewrite either performs a machine transition early or deletes a
transition that provably does nothing, the optimizer preserves divergence
(non-values are never discarded) and heap shape (values allocate nothing), so
``cek-opt`` results — including raw heaps after ``callgc`` — are differential
against the unoptimized backends.
"""

from __future__ import annotations

from repro.lcvm import syntax as lcvm


def _fold_binop(op: str, left: int, right: int) -> lcvm.Expr:
    """Fold a primitive on two integers, mirroring the machine's arithmetic."""
    if op == "+":
        return lcvm.Int(left + right)
    if op == "-":
        return lcvm.Int(left - right)
    if op == "*":
        return lcvm.Int(left * right)
    if op == "<":
        return lcvm.Int(0 if left < right else 1)
    raise ValueError(f"unknown primitive operation {op!r}")


def _is_closed_constant(expr: lcvm.Expr) -> bool:
    """Constants that substitution can duplicate freely (no code, no captures)."""
    return isinstance(expr, (lcvm.Int, lcvm.Unit, lcvm.Loc))


def optimize(expr: lcvm.Expr) -> lcvm.Expr:
    """One bottom-up rewrite pass; returns an equivalent (possibly smaller) term.

    A pure function of the syntax: the ``cek-opt`` backend keeps its result
    with the unit's code (:func:`repro.lcvm.cek.unit_code`), so a cached
    program is optimized once.
    """
    if isinstance(expr, (lcvm.Unit, lcvm.Int, lcvm.Loc, lcvm.Var, lcvm.Fail, lcvm.CallGc)):
        return expr
    if isinstance(expr, lcvm.Pair):
        return lcvm.Pair(optimize(expr.first), optimize(expr.second))
    if isinstance(expr, lcvm.Fst):
        body = optimize(expr.body)
        if isinstance(body, lcvm.Pair) and lcvm.is_value(body):
            return body.first
        return lcvm.Fst(body)
    if isinstance(expr, lcvm.Snd):
        body = optimize(expr.body)
        if isinstance(body, lcvm.Pair) and lcvm.is_value(body):
            return body.second
        return lcvm.Snd(body)
    if isinstance(expr, lcvm.Inl):
        return lcvm.Inl(optimize(expr.body))
    if isinstance(expr, lcvm.Inr):
        return lcvm.Inr(optimize(expr.body))
    if isinstance(expr, lcvm.If):
        condition = optimize(expr.condition)
        if isinstance(condition, lcvm.Int):
            # `if` takes the first branch exactly when the scrutinee is 0.
            taken = expr.then_branch if condition.value == 0 else expr.else_branch
            return optimize(taken)
        return lcvm.If(condition, optimize(expr.then_branch), optimize(expr.else_branch))
    if isinstance(expr, lcvm.Match):
        scrutinee = optimize(expr.scrutinee)
        # Folding substitutes the payload into the branch, so it must be a
        # *closed* value: `substitute` assumes closed substituends (as at
        # runtime), and an open lambda could be captured by a branch binder.
        if (
            isinstance(scrutinee, (lcvm.Inl, lcvm.Inr))
            and lcvm.is_value(scrutinee)
            and not lcvm.free_variables(scrutinee)
        ):
            if isinstance(scrutinee, lcvm.Inl):
                name, branch = expr.left_name, expr.left_branch
            else:
                name, branch = expr.right_name, expr.right_branch
            return optimize(lcvm.substitute(branch, name, scrutinee.body))
        return lcvm.Match(
            scrutinee,
            expr.left_name,
            optimize(expr.left_branch),
            expr.right_name,
            optimize(expr.right_branch),
        )
    if isinstance(expr, lcvm.Let):
        bound = optimize(expr.bound)
        if _is_closed_constant(bound):
            return optimize(lcvm.substitute(expr.body, expr.name, bound))
        body = optimize(expr.body)
        if lcvm.is_value(bound) and expr.name not in lcvm.free_variables(body):
            return body
        return lcvm.Let(expr.name, bound, body)
    if isinstance(expr, lcvm.Lam):
        return lcvm.Lam(expr.parameter, optimize(expr.body))
    if isinstance(expr, lcvm.App):
        return lcvm.App(optimize(expr.function), optimize(expr.argument))
    if isinstance(expr, lcvm.NewRef):
        return lcvm.NewRef(optimize(expr.initial))
    if isinstance(expr, lcvm.Deref):
        return lcvm.Deref(optimize(expr.reference))
    if isinstance(expr, lcvm.Assign):
        return lcvm.Assign(optimize(expr.reference), optimize(expr.value))
    if isinstance(expr, lcvm.BinOp):
        left = optimize(expr.left)
        right = optimize(expr.right)
        if isinstance(left, lcvm.Int) and isinstance(right, lcvm.Int):
            return _fold_binop(expr.op, left.value, right.value)
        return lcvm.BinOp(expr.op, left, right)
    if isinstance(expr, lcvm.Alloc):
        return lcvm.Alloc(optimize(expr.initial))
    if isinstance(expr, lcvm.Free):
        return lcvm.Free(optimize(expr.reference))
    if isinstance(expr, lcvm.GcMov):
        return lcvm.GcMov(optimize(expr.reference))
    if isinstance(expr, lcvm.Protect):
        return lcvm.Protect(optimize(expr.body), expr.flag)
    raise TypeError(f"unknown LCVM expression {expr!r}")
