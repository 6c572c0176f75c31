"""Convertibility rules and glue code for RefHL ∼ RefLL (Fig. 4): :data:`RULES`.

Glue code for this case study is a StackLang *program suffix*: applying the
conversion ``C[τ ↦ τ̄]`` to a compiled term ``e⁺`` appends the suffix,
``e⁺, C[τ ↦ τ̄]`` (Fig. 3).  So every template below starts with ``e⁺``, and
``(conv τ σ)`` splices in the suffix of a premise.  The rows of
:data:`RULES` are the rules; :class:`~repro.core.convertibility.RuleTable`
reads them.

From the paper: ``bool ∼ int`` and ``ref bool ∼ ref int`` are no-ops both
ways (booleans compile to integers; sharing the cell is sound because
``V[[bool]] = V[[int]]``); ``τ₁ + τ₂ ∼ [int]`` re-tags the payload and fails
with ``Conv`` on an array shorter than two elements or with an unknown tag;
``τ₁ × τ₂ ∼ [τ̄]`` is elided in the figure and reconstructed in its style.
Extensions (§3 "Convertibility" makes the judgment extensible):
``unit ∼ int`` collapses every integer to 0, and ``(τ₁ → τ₂) ∼ (τ̄₁ → τ̄₂)``
wraps the function in a thunk converting its argument in and its result out.

:data:`SHARE_COPY` and :data:`SHARE_PROXY` are the other two ways §3's
"Discussion" shares a reference; the default relation does not register them.
"""

from __future__ import annotations

from repro.core.convertibility import ConvertibilityRelation, Premise, RuleTable, hole_or
from repro.core.errors import ErrorCode
from repro.refhl.parser import GRAMMAR as REFHL
from repro.refll.parser import GRAMMAR as REFLL
from repro.stacklang.macros import dup, swap
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
    Num,
    Program,
    Push,
    Read,
    Thunk,
    Var,
    Write,
    program,
)
from repro.util.grammar import Grammar

LANGUAGE_A = "RefHL"
LANGUAGE_B = "RefLL"

#: The empty program — the no-op conversion ``·`` of Fig. 4.
NO_OP: Program = ()

#: StackLang glue: every expression is a program, an instruction or a value;
#: ``(lam x,y P …)`` is Fig. 3's ``lam x, y. P``.
STACKLANG = Grammar(
    "StackLang glue",
    {
        "()": tuple,
        "n": Num,
        "x": hole_or(Var),
        "add": Add,
        "less?": Less,
        "call": Call,
        "idx": Idx,
        "len": Len,
        "alloc": Alloc,
        "read": Read,
        "write": Write,
        "(push e)": Push,
        "(arr e ...)": Arr,
        "(thunk e ...)": lambda body: Thunk(program(*body)),
        "(lam x e ...)": lambda binders, body: Lam(tuple(binders.split(",")), program(*body)),
        "(if0 e e)": lambda then, otherwise: If0(program(then), program(otherwise)),
        "(do e ...)": lambda body: program(*body),
        "(fail x)": lambda code: Fail(ErrorCode(code)),
        "(dup x)": dup,
        "(swap x)": swap,
        "(conv x y)": lambda source, target: Premise(source, target, NO_OP),
    },
    {},
)

rule = RuleTable(REFHL, REFLL, STACKLANG)

#: Fail with ``Conv`` unless the array on top has at least two elements.
_AT_LEAST_TWO = "(dup _guard) len (push 2) (swap _guard) less? (if0 (fail Conv) ())"
#: ``lam xv, xt. push [xt, xv]`` — reassemble a [tag, payload] array.
_RETAG = "(lam conv_xv,conv_xt (push (arr conv_xt conv_xv)))"

RULES = (
    rule("bool ~ int", "bool", "int"),
    rule("unit ~ int (extension)", "unit", "int", b_to_a="(do e⁺ (lam conv_u (push 0)))"),
    rule("ref bool ~ ref int", "(ref bool)", "(ref int)"),
    rule(
        "sum ~ [int]", "(sum τ1 τ2)", "(array int)", "τ1 ~ int", "τ2 ~ int",
        a_to_b=f"""(do e⁺ (dup _sum) (push 1) idx (swap _sum) (push 0) idx (dup _sumtag)
                   (if0 (do (swap _suml) (conv τ1 int)) (do (swap _sumr) (conv τ2 int)))
                   {_RETAG})""",
        b_to_a=f"""(do e⁺ {_AT_LEAST_TWO} (dup _arr) (push 1) idx (swap _arr) (push 0) idx (dup _arrtag)
                   (if0 (do (swap _arrl) (conv int τ1))
                        (do (dup _arrtag2) (push -1) add
                            (if0 (do (swap _arrr) (conv int τ2)) (fail Conv))))
                   {_RETAG})""",
    ),
    rule(
        "prod ~ [elem] (elided in Fig. 4)", "(prod τ1 τ2)", "(array σ)", "τ1 ~ σ", "τ2 ~ σ",
        a_to_b="""(do e⁺ (dup _pair) (push 1) idx (swap _pair) (push 0) idx (conv τ1 σ) (swap _pair2) (conv τ2 σ)
                   (lam conv_p2,conv_p1 (push (arr conv_p1 conv_p2))))""",
        b_to_a=f"""(do e⁺ {_AT_LEAST_TWO} (dup _arrp) (push 1) idx (swap _arrp) (push 0) idx
                   (conv σ τ1) (swap _arrp2) (conv σ τ2) (lam conv_q2,conv_q1 (push (arr conv_q1 conv_q2))))""",
    ),
    rule(
        # Arguments arrive in the other language, so they convert backward.
        "fun ~ fun (extension)", "(-> τ1 τ2)", "(-> σ1 σ2)", "τ1 ~ σ1", "τ2 ~ σ2",
        a_to_b="""(do e⁺ (lam conv_fun (push (thunk (lam conv_arg
                   (push conv_arg) (conv σ1 τ1) (push conv_fun) call (conv τ2 σ2))))))""",
        b_to_a="""(do e⁺ (lam conv_fun (push (thunk (lam conv_arg
                   (push conv_arg) (conv τ1 σ1) (push conv_fun) call (conv σ2 τ2))))))""",
    ),
)

#: Copy-and-convert: read the cell, convert its contents, allocate a fresh cell.
SHARE_COPY = rule(
    "ref τ ~ ref τ̄ (copy)", "(ref τ)", "(ref σ)", "τ ~ σ",
    a_to_b="(do e⁺ read (conv τ σ) alloc)",
    b_to_a="(do e⁺ read (conv σ τ) alloc)",
)

#: Read/write proxies: wrap the cell in ``[reader-thunk, writer-thunk]``, which
#: convert on every access; the writer stores the value on top and pushes 0.
SHARE_PROXY = rule(
    "ref τ ~ ref τ̄ (proxy)", "(ref τ)", "(ref σ)", "τ ~ σ",
    a_to_b="""(do e⁺ (lam proxy_loc (push (arr
               (thunk (push proxy_loc) read (conv τ σ))
               (thunk (lam proxy_value (push proxy_loc) (push proxy_value) (conv σ τ) write (push 0)))))))""",
    b_to_a="""(do e⁺ (lam proxy_loc (push (arr
               (thunk (push proxy_loc) read (conv σ τ))
               (thunk (lam proxy_value (push proxy_loc) (push proxy_value) (conv τ σ) write (push 0)))))))""",
)


def make_convertibility() -> ConvertibilityRelation:
    """Build the RefHL ∼ RefLL convertibility relation with all rules of Fig. 4."""
    return ConvertibilityRelation(LANGUAGE_A, LANGUAGE_B, list(RULES))
