"""The unified per-node static-analysis framework (run on demand).

One entry point, :func:`analyze_unit`, runs every analysis over a compiled
:class:`~repro.core.language.CompiledUnit` and returns an
:class:`AnalysisReport` of plain data:

* crossing-site enumeration (:mod:`repro.analysis.crossings`) joined with
  the boundary records the unit's own typecheck wrote, so each site carries
  its type pair and the convertibility rule whose glue was baked into the
  compiled handler;
* effect/purity facts and node counts (:mod:`repro.analysis.effects`);
* the StackLang stack-effect/arity verifier's findings
  (:mod:`repro.analysis.stack_effects`).

:func:`make_analyzer` returns two frontend hooks.  The verifier is the one
check that can reject a program: the systems register it as ``verify`` on
their StackLang frontends, so every pipeline still aborts on definite
underflow with a structured :class:`StaticVerificationError` instead of
letting the machine crash at runtime.  The analyzer is registered as
``analyze``; the pipeline defers it to the first read of
``CompiledUnit.analysis``, so the report is built only for its readers (the
serving layer's ``analyze_only`` mode and ``tools/analyze.py``).  A unit
pickled into the cross-process artifact store carries the hook and its
boundary records instead, and builds its report on its first read there.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Mapping, Optional, Tuple

from repro.analysis.crossings import crossing_histogram, enumerate_crossings
from repro.analysis.effects import (
    lcvm_effects,
    lcvm_node_count,
    stack_effects,
    stack_instruction_count,
    summarize,
)
from repro.analysis.report import AnalysisReport, CrossingSite, EffectSummary, StackIssue
from repro.analysis.stack_effects import (
    StackVerification,
    StaticVerificationError,
    require_verified,
    verify_program,
)

#: Per-crossing step surcharge in the cost estimate: glue evaluation plus the
#: converted value's extra traversal, a small constant per site.
CROSSING_STEP_COST = 4

__all__ = [
    "AnalysisReport",
    "CrossingSite",
    "EffectSummary",
    "StackIssue",
    "StackVerification",
    "StaticVerificationError",
    "CROSSING_STEP_COST",
    "analyze_unit",
    "make_analyzer",
    "crossing_histogram",
    "enumerate_crossings",
    "lcvm_effects",
    "lcvm_node_count",
    "stack_effects",
    "stack_instruction_count",
    "summarize",
    "require_verified",
    "verify_program",
]


def analyze_unit(
    unit: Any,
    target: str,
    languages: Tuple[str, str],
    boundary_types: Optional[Mapping[int, Any]] = None,
    resolved_rules: Optional[Mapping[int, str]] = None,
) -> AnalysisReport:
    """Analyze one compiled unit; never raises on verification findings.

    ``target`` is ``"stacklang"`` or ``"lcvm"``; ``languages`` is the
    system's ``(language_a, language_b)`` name pair.  The maps are the
    unit's boundary records (both keyed by ``id(boundary)``).  StackLang
    verifier findings land in ``verified``/``errors``/``warnings``; the
    pipeline's ``verify`` hook is what rejects a program.
    """
    sites = enumerate_crossings(
        unit.term,
        host_language=unit.language,
        languages=languages,
        boundary_types=boundary_types,
        resolved_rules=resolved_rules,
    )
    effects, node_count = summarize(target, unit.target_code)
    errors: Tuple[StackIssue, ...] = ()
    warnings: Tuple[StackIssue, ...] = ()
    if target == "stacklang":
        verification = verify_program(unit.target_code)
        errors, warnings = verification.errors, verification.warnings
    return AnalysisReport(
        language=unit.language,
        target=target,
        node_count=node_count,
        crossings=sites,
        effects=effects,
        estimated_steps=node_count + CROSSING_STEP_COST * len(sites),
        verified=not errors,
        errors=errors,
        warnings=warnings,
    )


def _verify_stacklang(unit: Any) -> None:
    require_verified(unit.target_code)


def _analyze(target: str, languages: Tuple[str, str], unit: Any) -> AnalysisReport:
    records = unit.records
    return analyze_unit(
        unit,
        target=target,
        languages=languages,
        boundary_types=None if records is None else records.types,
        resolved_rules=None if records is None else records.rules,
    )


def make_analyzer(
    target: str, languages: Tuple[str, str]
) -> Tuple[Callable[[Any], AnalysisReport], Optional[Callable[[Any], None]]]:
    """The ``(analyze, verify)`` hooks for a system's frontends.

    ``analyze`` reads the unit's own boundary records (``unit.records``,
    the :class:`~repro.core.boundary.BoundaryRecords` the pipeline took from
    the hooks), so a report built long after the pipeline still sees exactly
    what that unit's typecheck recorded.  It is a module-level function bound
    to ``(target, languages)``, so it pickles with a unit whose report is
    not built yet.  ``verify`` raises :class:`StaticVerificationError` on
    definite StackLang underflow; LCVM programs are tree-structured and
    always verify, so it is ``None`` there.
    """
    return functools.partial(_analyze, target, languages), (
        _verify_stacklang if target == "stacklang" else None
    )
