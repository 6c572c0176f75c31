"""Convertibility rules and glue code for Affi ∼ MiniML (Fig. 9): :data:`RULES`.

Glue code for the LCVM-targeting case studies is a *wrapper*, a term around
the compiled term ``e⁺``: ``C[τ̄ ↦ τ](e⁺)``.  :data:`LCVM` reads it, and the
rows of :data:`RULES` are the rules.

From the paper: ``bool ∼ int`` is the identity from Affi (booleans compile
to 0/1) and normalizes any integer into {0, 1} with ``if e⁺ 0 1`` from
MiniML; ``unit ∼ unit`` is the identity; ``τ̄₁ ⊗ τ̄₂ ∼ τ₁ × τ₂`` converts the
components.  The central rule ``τ̄₁ ⊸ τ̄₂ ∼ (unit → τ₁) → τ₂`` exposes an
affine function to MiniML as one expecting a *thunk* of its argument, and
uses a MiniML function of that shape as an affine one; both directions
re-protect the argument with the ``thunk`` guard, so it is forced at most
once.  Extensions: ``int ∼ int`` is the identity, and ``!τ̄ ∼ τ`` converts
like its payload, since an unrestricted value owns no affine resources.
"""

from __future__ import annotations

from repro.affi import thunk_guard
from repro.affi.parser import GRAMMAR as AFFI
from repro.core.convertibility import ConvertibilityRelation, Premise, RuleTable, hole_or
from repro.lcvm import syntax as t
from repro.miniml.parser import GRAMMAR as MINIML
from repro.util.grammar import Grammar

LANGUAGE_A = "Affi"
LANGUAGE_B = "MiniML"

#: LCVM glue, shared with §5; ``(thunk e)`` is Affi's guard macro.
LCVM = Grammar(
    "LCVM glue",
    {
        "()": t.Unit,
        "n": t.Int,
        "x": hole_or(t.Var),
        "(let (x e) e)": t.Let,
        "(lam x e)": t.Lam,
        "(e e)": t.App,
        "(pair e e)": t.Pair,
        "(fst e)": t.Fst,
        "(snd e)": t.Snd,
        "(if e e e)": t.If,
        "(! e)": t.Deref,
        "(set! e e)": t.Assign,
        "(alloc e)": t.Alloc,
        "(gcmov e)": t.GcMov,
        "(thunk e)": thunk_guard,
        "(conv x y e)": Premise,
    },
    {},
)

rule = RuleTable(AFFI, MINIML, LCVM)

RULES = (
    rule("bool ~ int", "bool", "int", b_to_a="(if e⁺ 0 1)"),
    rule("unit ~ unit", "unit", "unit"),
    rule("int ~ int (extension)", "int", "int"),
    rule(
        "tensor ~ prod", "(tensor τ1 τ2)", "(prod σ1 σ2)", "τ1 ~ σ1", "τ2 ~ σ2",
        a_to_b="(let (pair%conv e⁺) (pair (conv τ1 σ1 (fst pair%conv)) (conv τ2 σ2 (snd pair%conv))))",
        b_to_a="(let (pair%conv e⁺) (pair (conv σ1 τ1 (fst pair%conv)) (conv σ2 τ2 (snd pair%conv))))",
    ),
    rule("!τ ~ τ (extension)", "(! τ)", "σ", "τ ~ σ", a_to_b="(conv τ σ e⁺)", b_to_a="(conv σ τ e⁺)"),
    rule(
        # MiniML passes a thunk of the argument: force it, convert the value
        # and guard it for the affine callee; the result converts back out.
        "⊸ ~ (unit→τ)→τ", "(-o τ1 τ2)", "(-> (-> unit σ1) σ2)", "τ1 ~ σ1", "τ2 ~ σ2",
        a_to_b="""(let (fun%x e⁺) (lam fun%thnk
                    (let (fun%conv (conv σ1 τ1 (fun%thnk ())))
                      (let (fun%acc (thunk fun%conv)) (conv τ2 σ2 (fun%x fun%acc))))))""",
        b_to_a="""(let (fun%x e⁺) (lam fun%thnk
                    (let (fun%acc (thunk (conv τ1 σ1 (fun%thnk ())))) (conv σ2 τ2 (fun%x fun%acc)))))""",
    ),
)


def make_convertibility() -> ConvertibilityRelation:
    """Build the Affi ∼ MiniML convertibility relation (Fig. 9 plus extensions)."""
    return ConvertibilityRelation(LANGUAGE_A, LANGUAGE_B, list(RULES))
