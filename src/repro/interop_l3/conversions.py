"""Convertibility rules and glue code for MiniML ∼ L3 (§5): :data:`RULES`.

The relation is oriented MiniML-type ∼ L3-type, and its glue is LCVM, read
by §4's :data:`~repro.interop_affine.conversions.LCVM`.  The rows of
:data:`RULES` are the rules.  From the paper:

* ``ref τ ∼ ∃ζ. cap ζ τ̄ ⊗ !ptr ζ`` (written ``REF τ̄``), when ``τ ∼ τ̄``.
  L3 → MiniML converts **in place** and transfers ownership with ``gcmov``:
  the unique capability guarantees no other alias exists, so nothing is
  copied.  MiniML → L3 cannot know whether aliases exist, so it copies the
  contents into a fresh manually managed cell.
* ``⟨τ̄⟩ ∼ τ̄`` for ``τ̄ ∈ Duplicable`` — identities both ways; the
  restriction is a purely static side condition.
* ``(∀α. α → α → α) ∼ bool`` — Church booleans against L3 booleans.
* ``τ₁ → τ₂ ∼ !(!τ̄₁ ⊸ τ̄₂)`` when ``τ₁ ∼ τ̄₁`` and ``τ₂ ∼ τ̄₂``.

Extensions: ``unit ∼ unit`` and ``int ∼ bool`` (the §4-style bridge, which
gives the reference rule a simple payload to exercise).
"""

from __future__ import annotations

from repro.core.convertibility import Bindings, ConvertibilityRelation, RuleTable
from repro.interop_affine.conversions import LCVM
from repro.l3 import types as l3_ty
from repro.l3.parser import GRAMMAR as L3
from repro.miniml.parser import GRAMMAR as MINIML

LANGUAGE_A = "MiniML"
LANGUAGE_B = "L3"


def _duplicable(bound: Bindings) -> bool:
    """``τ̄ ∈ Duplicable``, for ``⟨τ̄⟩ ∼ τ̄``."""
    return l3_ty.is_duplicable(bound["σ"])


def _pointer_to_binder(bound: Bindings) -> bool:
    """``σ2`` is ``!ptr ζ`` or ``ptr ζ``: the pointer half of a ``REF τ̄`` package."""
    pointer = l3_ty.PtrType(bound["ζ"])
    return bound["σ2"] in (pointer, l3_ty.BangType(pointer))


rule = RuleTable(MINIML, L3, LCVM)

RULES = (
    rule("unit ~ unit", "unit", "unit"),
    rule("int ~ bool (extension)", "int", "bool", a_to_b="(if e⁺ 0 1)"),
    rule("foreign ⟨τ⟩ ~ τ (Duplicable)", "(foreign σ)", "σ", side=_duplicable),
    rule(
        "Church BOOL ~ bool", "(forall α (-> α (-> α α)))", "bool",
        a_to_b="(((e⁺ ()) 0) 1)",
        b_to_a="(if e⁺ (lam _ (lam x (lam y x))) (lam _ (lam x (lam y y))))",
    ),
    rule(
        "ref τ ~ REF τ̄", "(ref τ1)", "(exists ζ (tensor (cap ζ σ1) σ2))", "τ1 ~ σ1", side=_pointer_to_binder,
        a_to_b="(let (refconv%x (alloc (conv τ1 σ1 (! e⁺)))) (pair () refconv%x))",
        b_to_a="""(let (refconv%x (snd e⁺))
                    (let (_ (set! refconv%x (conv σ1 τ1 (! refconv%x)))) (gcmov refconv%x)))""",
    ),
    rule(
        "τ→τ ~ !(!τ̄ ⊸ τ̄)", "(-> τ1 τ2)", "(! (-o (! σ1) σ2))", "τ1 ~ σ1", "τ2 ~ σ2",
        a_to_b="(let (funconv%f e⁺) (lam funconv%x (conv τ2 σ2 (funconv%f (conv σ1 τ1 funconv%x)))))",
        b_to_a="(let (funconv%f e⁺) (lam funconv%x (conv σ2 τ2 (funconv%f (conv τ1 σ1 funconv%x)))))",
    ),
)


def make_convertibility() -> ConvertibilityRelation:
    """Build the MiniML ∼ L3 convertibility relation (§5)."""
    return ConvertibilityRelation(LANGUAGE_A, LANGUAGE_B, list(RULES))
