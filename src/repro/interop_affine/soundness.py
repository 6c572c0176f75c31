"""Bounded soundness checkers for the §4 system (Affi & MiniML).

* :func:`check_convertibility_soundness` — the §4 analogue of Lemma 3.1 over
  the Fig. 9 rules.
* :func:`check_type_safety` — the §4 analogue of Theorems 3.3/3.4: well-typed
  multi-language programs never reach ``fail Type``/``fail Ptr`` and never get
  stuck; ``fail Conv`` (a dynamic affinity violation detected by a guard) is a
  permitted, well-defined outcome.
* :func:`check_affine_enforcement` — the case study's behavioural claims:
  dynamic affine resources fail with ``Conv`` on their second use; static
  affine resources run guard-free and the *phantom* semantics (not the target)
  rules out their duplication.
* :func:`check_phantom_erasure_agreement` — the erasure lemma: a program that
  runs under the augmented semantics erases to a program with the same
  behaviour under the standard semantics.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from repro.core.convertibility import ConvertibilityRelation
from repro.core.errors import ErrorCode
from repro.core.interop import InteropSystem
from repro.core.realizability import CheckReport, Counterexample
from repro.interop_affine.conversions import LANGUAGE_A, LANGUAGE_B, make_convertibility
from repro.interop_affine.model import AffineModel
from repro.interop_affine.phantom import phantom_run
from repro.lcvm import machine as lcvm_machine
from repro.lcvm import syntax as t
from repro.lcvm.machine import Status
from repro.affi import parse_type as parse_affi_type
from repro.miniml import parse_type as parse_ml_type

DEFAULT_CONVERTIBLE_PAIRS: Sequence[Tuple[str, str]] = (
    ("bool", "int"),
    ("unit", "unit"),
    ("int", "int"),
    ("(tensor int bool)", "(prod int int)"),
    ("(! bool)", "int"),
    ("(-o int int)", "(-> (-> unit int) int)"),
)

DEFAULT_AFFI_CORPUS: Sequence[str] = (
    "((dlam (a int) a) 5)",
    "((slam (a int) a) 5)",
    "(let-tensor (a b) (tensor 1 2) a)",
    "(let-tensor (a b) (tensor 1 2) (tensor b a))",
    "(let! (x (bang 3)) x)",
    "(proj1 (with 1 true))",
    "(proj2 (with 1 true))",
    "(if true 1 2)",
    "(boundary int (+ 1 2))",
    "((dlam (a int) (boundary int (+ 1 (boundary int a)))) 4)",
    "((slam (a int) ((dlam (b int) b) a)) 9)",
)

DEFAULT_ML_CORPUS: Sequence[str] = (
    "(+ 1 1)",
    "(boundary int true)",
    "(+ 1 (boundary int 41))",
    "(boundary (prod int int) (tensor 1 true))",
    "(fst (boundary (prod int int) (tensor 7 false)))",
    "((lam (p (prod int int)) (snd p)) (boundary (prod int int) (tensor 1 2)))",
    "((boundary (-> (-> unit int) int) (dlam (a int) a)) (lam (u unit) 5))",
    "(let (r (ref 1)) (let (ignore (set! r (boundary int true))) (! r)))",
)

#: The canonical dynamic-affinity violation (§4): a MiniML function that
#: forces its thunked argument twice, converted to an Affi ⊸ and applied.
DOUBLE_FORCE_PROGRAM = "((boundary (-o int int) (lam (f (-> unit int)) (+ (f unit) (f unit)))) 3)"

#: The same shape but forcing only once — must succeed.
SINGLE_FORCE_PROGRAM = "((boundary (-o int int) (lam (f (-> unit int)) (+ 1 (f unit)))) 3)"


def _parse_pairs(pairs: Iterable[Tuple[str, str]]):
    return [(parse_affi_type(a), parse_ml_type(b)) for a, b in pairs]


def check_convertibility_soundness(
    system: Optional[InteropSystem] = None,
    model: Optional[AffineModel] = None,
    relation: Optional[ConvertibilityRelation] = None,
    pairs: Optional[Iterable[Tuple[str, str]]] = None,
    step_budget: int = 256,
    **_ignored,
) -> CheckReport:
    """Bounded check of convertibility soundness (Lemma 3.1 analogue for §4)."""
    model = model or AffineModel()
    relation = relation or (system.convertibility if system is not None else make_convertibility())
    report = CheckReport(name="Lemma 3.1 analogue (convertibility soundness, Affi~MiniML)")
    world = model.default_world(step_budget)

    for type_a, type_b in _parse_pairs(pairs or DEFAULT_CONVERTIBLE_PAIRS):
        conversion = relation.query(type_a, type_b)
        if conversion is None:
            report.record_failure(
                Counterexample(description="expected a derivable pair", source_type=(type_a, type_b))
            )
            continue
        for sample in model.sample_values(LANGUAGE_A, type_a, world):
            converted = conversion.apply_a_to_b(sample)
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
        for sample in model.sample_values(LANGUAGE_B, type_b, world):
            converted = conversion.apply_b_to_a(sample)
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


def check_type_safety(
    system: Optional[InteropSystem] = None,
    affi_corpus: Sequence[str] = DEFAULT_AFFI_CORPUS,
    ml_corpus: Sequence[str] = DEFAULT_ML_CORPUS,
    fuel: int = 50_000,
    **_ignored,
) -> CheckReport:
    """Well-typed §4 programs never fail Type/Ptr and never get stuck."""
    from repro.interop_affine.system import make_system

    system = system or make_system()
    report = CheckReport(name="Type safety (Affi/MiniML corpus)")
    for language, corpus in ((LANGUAGE_A, affi_corpus), (LANGUAGE_B, ml_corpus)):
        for source in corpus:
            unit = system.compile_source(language, source)
            result = lcvm_machine.run(unit.target_code, fuel=fuel)
            acceptable = result.status is Status.VALUE or (
                result.status is Status.FAIL and result.failure_code is ErrorCode.CONV
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


def check_affine_enforcement(
    system: Optional[InteropSystem] = None,
    fuel: int = 50_000,
    **_ignored,
) -> CheckReport:
    """The behavioural heart of §4: dynamic guards fire, static affinity is free."""
    from repro.interop_affine.system import make_system

    system = system or make_system()
    report = CheckReport(name="§4 affine enforcement (dynamic guards + phantom flags)")

    # (a) Forcing a dynamic affine resource twice fails with Conv (not Type).
    double = system.run_source(LANGUAGE_A, DOUBLE_FORCE_PROGRAM)
    if not double.ok and double.failure is ErrorCode.CONV:
        report.record_success()
    else:
        report.record_failure(
            Counterexample(
                description=f"double force should fail Conv, got {double}",
                target_term=DOUBLE_FORCE_PROGRAM,
            )
        )

    # (b) Forcing it once succeeds.
    single = system.run_source(LANGUAGE_A, SINGLE_FORCE_PROGRAM)
    if single.ok and single.value == t.Int(4):
        report.record_success()
    else:
        report.record_failure(
            Counterexample(
                description=f"single force should produce 4, got {single}",
                target_term=SINGLE_FORCE_PROGRAM,
            )
        )

    # (c) Compiled well-typed Affi programs never get stuck under the phantom
    #     semantics (the augmented-machine progress property behind Fig. 10).
    for source in DEFAULT_AFFI_CORPUS:
        unit = system.compile_source(LANGUAGE_A, source)
        result = phantom_run(unit.target_code, fuel=fuel)
        if result.status in (Status.VALUE, Status.OUT_OF_FUEL) or (
            result.status is Status.FAIL and result.failure_code is ErrorCode.CONV
        ):
            report.record_success()
        else:
            report.record_failure(
                Counterexample(
                    description=f"phantom semantics got {result.status.value} on well-typed program",
                    target_term=source,
                )
            )

    # (d) A target program that duplicates a static binding is *excluded by the
    #     model*: the standard semantics runs it happily, the phantom semantics
    #     gets stuck.  (This is what "the invariant lives in the model, not the
    #     target" means.)
    from repro.affi.compiler import static_name

    duplicating = t.Let(
        static_name("a"),
        t.Int(1),
        t.BinOp("+", t.Var(static_name("a")), t.Var(static_name("a"))),
    )
    standard = lcvm_machine.run(duplicating, fuel=fuel)
    augmented = phantom_run(duplicating, fuel=fuel)
    if standard.status is Status.VALUE and augmented.status is Status.STUCK:
        report.record_success()
    else:
        report.record_failure(
            Counterexample(
                description=(
                    "duplicating a static binding should run under the standard semantics "
                    f"but be stuck under the phantom semantics; got {standard.status.value} / {augmented.status.value}"
                ),
                target_term=duplicating,
            )
        )
    return report


def check_phantom_erasure_agreement(
    system: Optional[InteropSystem] = None,
    affi_corpus: Sequence[str] = DEFAULT_AFFI_CORPUS,
    ml_corpus: Sequence[str] = DEFAULT_ML_CORPUS,
    fuel: int = 50_000,
    **_ignored,
) -> CheckReport:
    """Erasure lemma: augmented and standard runs agree on compiled programs."""
    from repro.interop_affine.system import make_system

    system = system or make_system()
    report = CheckReport(name="§4 erasure agreement (phantom vs standard semantics)")
    for language, corpus in ((LANGUAGE_A, affi_corpus), (LANGUAGE_B, ml_corpus)):
        for source in corpus:
            unit = system.compile_source(language, source)
            standard = lcvm_machine.run(unit.target_code, fuel=fuel)
            augmented = phantom_run(unit.target_code, fuel=fuel)
            same_status = standard.status == augmented.status
            same_value = standard.value == augmented.value
            same_failure = standard.failure_code == augmented.failure_code
            if same_status and same_value and same_failure:
                report.record_success()
            else:
                report.record_failure(
                    Counterexample(
                        description=(
                            f"standard run ({standard.status.value}, {standard.value}) disagrees with "
                            f"augmented run ({augmented.status.value}, {augmented.value})"
                        ),
                        target_term=source,
                    )
                )
    return report
