"""Bounded soundness checkers for the §3 system.

These implement, as decision procedures bounded by a step budget and a finite
sample of inhabitants, the meta-theoretic statements of the paper:

* :func:`check_convertibility_soundness` — Lemma 3.1: if ``τ ∼ τ̄`` then
  appending ``C[τ ↦ τ̄]`` to any program in ``E[[τ]]`` yields a program in
  ``E[[τ̄]]``, and vice versa.
* :func:`check_fundamental_property` — Theorem 3.2: compiled well-typed
  programs inhabit the expression relation at their type.
* :func:`check_type_safety` — Theorems 3.3/3.4: well-typed programs never
  reach ``fail Type`` and never get stuck; they run to a value or a
  well-defined ``Conv``/``Idx`` failure (or exhaust the fuel).
* :func:`check_reference_sharing_requires_identical_interpretations` — the
  design lesson of the case study: sharing ``ref`` across the boundary with
  no-op glue is sound exactly when the referent interpretations coincide.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.convertibility import ConvertibilityRelation
from repro.core.errors import ErrorCode
from repro.core.interop import InteropSystem
from repro.core.realizability import CheckReport, Counterexample
from repro.core.worlds import World
from repro.interop_refs.conversions import LANGUAGE_A, LANGUAGE_B, make_convertibility
from repro.interop_refs.model import RefsModel, hl_tag, ll_tag
from repro.refhl import parse_type as parse_hl_type
from repro.refhl import types as hl
from repro.refll import parse_type as parse_ll_type
from repro.refll import types as ll
from repro.stacklang.machine import Status, run
from repro.stacklang.syntax import Alloc, Program, Push, program

# ---------------------------------------------------------------------------
# Default sampling corpora
# ---------------------------------------------------------------------------

#: Convertible type pairs exercised by default (all derivable from Fig. 4 plus
#: the documented extensions).
DEFAULT_CONVERTIBLE_PAIRS: Sequence[Tuple[str, str]] = (
    ("bool", "int"),
    ("unit", "int"),
    ("(ref bool)", "(ref int)"),
    ("(sum bool bool)", "(array int)"),
    ("(sum unit bool)", "(array int)"),
    ("(prod bool bool)", "(array int)"),
    ("(prod unit unit)", "(array int)"),
    ("(-> bool bool)", "(-> int int)"),
)

#: Well-typed closed RefHL programs (several crossing the boundary).
DEFAULT_REFHL_CORPUS: Sequence[str] = (
    "(if true false true)",
    "((lam (x bool) (if x false true)) true)",
    "(fst (pair true (pair false true)))",
    "(snd (pair true (pair false true)))",
    "(match (inl (sum bool unit) true) (x x) (y false))",
    "(match (inr (sum unit bool) false) (x true) (y y))",
    "(! (ref true))",
    "(set! (ref true) false)",
    "((lam (r (ref bool)) (! r)) (ref false))",
    "(if (boundary bool (+ 1 0)) true false)",
    "(boundary bool 0)",
    "(boundary (prod bool bool) (array 0 1))",
    "(! (boundary (ref bool) (ref 3)))",
)

#: Well-typed closed RefLL programs (several crossing the boundary).
DEFAULT_REFLL_CORPUS: Sequence[str] = (
    "(+ 1 2)",
    "((lam (x int) (+ x 1)) 41)",
    "(idx (array 1 2 3) 1)",
    "(idx (array 1 2) 5)",
    "(if0 0 10 20)",
    "(! (ref 5))",
    "(set! (ref 1) 2)",
    "((lam (f (-> int int)) (f 3)) (lam (y int) (+ y y)))",
    "(+ 1 (boundary int true))",
    "(boundary (array int) (pair true false))",
    "(boundary (array int) (inl (sum bool bool) true))",
    "(! (boundary (ref int) (ref false)))",
)


def parse_pairs(pairs: Iterable[Tuple[str, str]]):
    return [(parse_hl_type(a), parse_ll_type(b)) for a, b in pairs]


# ---------------------------------------------------------------------------
# Lemma 3.1 — convertibility soundness
# ---------------------------------------------------------------------------


def _sample_programs(model: RefsModel, language: str, source_type, world: World) -> List[Program]:
    """Small programs inhabiting ``E[[τ]]`` used as inputs to the conversions."""
    programs: List[Program] = []
    for value in model.sample_values(language, source_type, world):
        programs.append(program(Push(value)))
    if isinstance(source_type, (hl.RefType, ll.RefType)):
        referent_tag = (
            hl_tag(source_type.referent) if language == LANGUAGE_A else ll_tag(source_type.referent)
        )
        programs.append(program(Push(model.canonical_value(referent_tag)), Alloc()))
    return programs


def check_convertibility_soundness(
    system: Optional[InteropSystem] = None,
    model: Optional[RefsModel] = None,
    relation: Optional[ConvertibilityRelation] = None,
    pairs: Optional[Iterable[Tuple[str, str]]] = None,
    step_budget: int = 64,
    **_ignored,
) -> CheckReport:
    """Bounded check of Lemma 3.1 over the default (or supplied) pairs."""
    model = model or RefsModel()
    relation = relation or (system.convertibility if system is not None else make_convertibility())
    report = CheckReport(name="Lemma 3.1 (convertibility soundness, RefHL~RefLL)")
    world = model.default_world(step_budget)

    for type_a, type_b in parse_pairs(pairs or DEFAULT_CONVERTIBLE_PAIRS):
        conversion = relation.query(type_a, type_b)
        if conversion is None:
            report.record_failure(
                Counterexample(
                    description="expected a derivable convertibility pair",
                    source_type=(type_a, type_b),
                )
            )
            continue
        for candidate in _sample_programs(model, LANGUAGE_A, type_a, world):
            if not model.expression_in_type(LANGUAGE_A, type_a, world, candidate):
                continue  # not a valid sample; skip rather than misreport
            converted = conversion.apply_a_to_b(candidate)
            if model.expression_in_type(LANGUAGE_B, type_b, world, converted):
                report.record_success()
            else:
                report.record_failure(
                    Counterexample(
                        description=f"C[{type_a} -> {type_b}] left the expression relation",
                        source_type=type_b,
                        target_term=converted,
                    )
                )
        for candidate in _sample_programs(model, LANGUAGE_B, type_b, world):
            if not model.expression_in_type(LANGUAGE_B, type_b, world, candidate):
                continue
            converted = conversion.apply_b_to_a(candidate)
            if model.expression_in_type(LANGUAGE_A, type_a, world, converted):
                report.record_success()
            else:
                report.record_failure(
                    Counterexample(
                        description=f"C[{type_b} -> {type_a}] left the expression relation",
                        source_type=type_a,
                        target_term=converted,
                    )
                )
    return report


# ---------------------------------------------------------------------------
# Theorem 3.2 — fundamental property
# ---------------------------------------------------------------------------


def check_fundamental_property(
    system: Optional[InteropSystem] = None,
    model: Optional[RefsModel] = None,
    refhl_corpus: Sequence[str] = DEFAULT_REFHL_CORPUS,
    refll_corpus: Sequence[str] = DEFAULT_REFLL_CORPUS,
    step_budget: int = 256,
    **_ignored,
) -> CheckReport:
    """Bounded check of Theorem 3.2 over a corpus of well-typed programs."""
    from repro.interop_refs.system import make_system

    system = system or make_system()
    model = model or RefsModel()
    report = CheckReport(name="Theorem 3.2 (fundamental property, RefHL/RefLL)")
    world = model.default_world(step_budget)

    for language, corpus in ((LANGUAGE_A, refhl_corpus), (LANGUAGE_B, refll_corpus)):
        for source in corpus:
            unit = system.compile_source(language, source)
            if model.expression_in_type(language, unit.type, world, unit.target_code):
                report.record_success()
            else:
                report.record_failure(
                    Counterexample(
                        description=f"compiled {language} program left E[[{unit.type}]]",
                        source_type=unit.type,
                        target_term=source,
                    )
                )
    return report


# ---------------------------------------------------------------------------
# Theorems 3.3 / 3.4 — type safety
# ---------------------------------------------------------------------------


def check_type_safety(
    system: Optional[InteropSystem] = None,
    refhl_corpus: Sequence[str] = DEFAULT_REFHL_CORPUS,
    refll_corpus: Sequence[str] = DEFAULT_REFLL_CORPUS,
    fuel: int = 20_000,
    **_ignored,
) -> CheckReport:
    """Bounded check of Theorems 3.3/3.4 over a corpus of well-typed programs."""
    from repro.interop_refs.system import make_system

    system = system or make_system()
    report = CheckReport(name="Theorems 3.3/3.4 (type safety, RefHL/RefLL)")

    for language, corpus in ((LANGUAGE_A, refhl_corpus), (LANGUAGE_B, refll_corpus)):
        for source in corpus:
            unit = system.compile_source(language, source)
            result = run(unit.target_code, fuel=fuel)
            acceptable = (
                result.status is Status.VALUE
                or result.status is Status.OUT_OF_FUEL
                or (result.status is Status.FAIL and result.failure_code in (ErrorCode.CONV, ErrorCode.IDX))
            )
            if acceptable:
                report.record_success()
            else:
                report.record_failure(
                    Counterexample(
                        description=f"well-typed {language} program violated type safety "
                        f"(status={result.status.value}, code={result.failure_code})",
                        target_term=source,
                    )
                )
    return report


# ---------------------------------------------------------------------------
# The case study's design lesson (§3 Discussion)
# ---------------------------------------------------------------------------


def check_reference_sharing_requires_identical_interpretations(
    model: Optional[RefsModel] = None,
    **_ignored,
) -> CheckReport:
    """Directly check the claim driving §3: no-op ``ref`` sharing needs
    ``V[[τ]] = V[[τ̄]]``.

    * ``V[[bool]] = V[[int]]`` holds, so ``ref bool ∼ ref int`` with no-op
      glue is sound (a location typed ``int`` inhabits ``V[[ref bool]]``).
    * ``V[[unit]] ≠ V[[int]]``, so the analogous no-op sharing of
      ``ref unit`` and ``ref int`` would be unsound, and the model rejects it
      (a location typed ``int`` does *not* inhabit ``V[[ref unit]]``).
    """
    model = model or RefsModel()
    report = CheckReport(name="§3: reference sharing requires identical interpretations")

    world = model.default_world(16).extend_heap_typing(0, ll_tag(ll.INT))
    from repro.stacklang.syntax import Loc

    shared_location = Loc(0)

    if model.value_in_type(LANGUAGE_A, hl.RefType(hl.BOOL), world, shared_location):
        report.record_success()
    else:
        report.record_failure(
            Counterexample(
                description="a location typed int should inhabit V[[ref bool]] (V[[bool]] = V[[int]])",
                source_type=hl.RefType(hl.BOOL),
            )
        )

    if not model.value_in_type(LANGUAGE_A, hl.RefType(hl.UNIT), world, shared_location):
        report.record_success()
    else:
        report.record_failure(
            Counterexample(
                description="a location typed int must NOT inhabit V[[ref unit]] (V[[unit]] ≠ V[[int]])",
                source_type=hl.RefType(hl.UNIT),
            )
        )

    if model.same_interpretation(hl_tag(hl.BOOL), ll_tag(ll.INT)):
        report.record_success()
    else:
        report.record_failure(Counterexample(description="V[[bool]] = V[[int]] should hold"))

    if not model.same_interpretation(hl_tag(hl.UNIT), ll_tag(ll.INT)):
        report.record_success()
    else:
        report.record_failure(Counterexample(description="V[[unit]] = V[[int]] should NOT hold"))

    return report
