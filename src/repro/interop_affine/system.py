"""Assembling the Affi/MiniML interoperability system (§4).

The boundary hooks implement the Fig. 7 boundary rules:

* a MiniML boundary ``⦇e_Affi⦈^τ`` typechecks the Affi term with the Affi
  typechecker (threading MiniML's Γ as the foreign environment), requires
  ``no•(Ω_e)`` — the embedded term may not consume *static* affine resources,
  since MiniML offers them no protection — and requires ``τ̄ ∼ τ``;
* an Affi boundary ``⦇e_ML⦈^τ̄`` typechecks the MiniML term and requires
  ``τ̄ ∼ τ``.

Compilation of a boundary compiles the foreign term with the foreign compiler
and applies the glue typechecking resolved (:mod:`repro.core.boundary`).
"""

from __future__ import annotations

from typing import Optional

from repro import analysis
from repro.affi import compiler as affi_compiler
from repro.affi import parser as affi_parser
from repro.affi import syntax as affi_syntax
from repro.affi import typechecker as affi_typechecker
from repro.affi.types import Mode
from repro.core.boundary import Boundaries, BoundaryRecords
from repro.core.convertibility import ConvertibilityRelation
from repro.core.errors import LinearityError
from repro.core.interop import InteropSystem
from repro.core.language import LanguageFrontend
from repro.interop_affine.conversions import LANGUAGE_A, LANGUAGE_B, make_convertibility
from repro.lcvm.backends import make_lcvm_backend
from repro.miniml import compiler as ml_compiler
from repro.miniml import parser as ml_parser
from repro.miniml import syntax as ml_syntax
from repro.miniml import typechecker as ml_typechecker
from repro.util.grammar import wire


class _AffiBoundaries(Boundaries):
    """Boundaries plus the Affi compiler's side table, reset with the records."""

    def __init__(self, relation: ConvertibilityRelation) -> None:
        super().__init__(relation)
        self.annotations = affi_typechecker.Annotations()

    def take_records(self) -> BoundaryRecords:
        # The compiler has consumed the Affi annotations by the time a
        # pipeline hands its records over, so they go with them.
        self.annotations.variable_resolutions.clear()
        self.annotations.application_modes.clear()
        return super().take_records()


def make_system(relation: Optional[ConvertibilityRelation] = None) -> InteropSystem:
    """Build the complete §4 interoperability system."""
    relation = relation or make_convertibility()
    boundaries = _AffiBoundaries(relation)
    annotations = boundaries.annotations
    analyze, _ = analysis.make_analyzer("lcvm", (LANGUAGE_A, LANGUAGE_B))

    def ml_boundary_type(boundary: ml_syntax.Boundary, env, type_vars, foreign_env):
        """Type a MiniML boundary embedding an Affi term."""
        affine_env = dict(foreign_env or {})
        affi_type, usage = affi_typechecker.check_with_usage(
            boundary.foreign_term,
            unrestricted={},
            affine=affine_env,
            foreign_env=env,
            boundary_hook=affi_boundary_type,
            annotations=annotations,
        )
        static_usage = {
            name for name in usage if name in affine_env and affine_env[name][1] is Mode.STATIC
        }
        if static_usage:
            raise LinearityError(
                "an Affi term embedded in MiniML may not consume static affine variables "
                f"(no•(Ω) in Fig. 7): {sorted(static_usage)}"
            )
        return boundaries.resolve(boundary, LANGUAGE_B, affi_type), usage

    def affi_boundary_type(boundary: affi_syntax.Boundary, unrestricted, affine, foreign_env):
        """Type an Affi boundary embedding a MiniML term."""
        ml_type, usage = ml_typechecker.check_with_usage(
            boundary.foreign_term,
            env=dict(foreign_env or {}),
            foreign_env=affine,
            boundary_hook=ml_boundary_type,
        )
        return boundaries.resolve(boundary, LANGUAGE_A, ml_type), usage

    def ml_compile_boundary(boundary: ml_syntax.Boundary):
        compiled = affi_compiler.compile_expr(
            boundary.foreign_term, annotations=annotations, boundary_hook=affi_compile_boundary
        )
        return boundaries.compile(boundary, compiled)

    def affi_compile_boundary(boundary: affi_syntax.Boundary):
        compiled = ml_compiler.compile_expr(boundary.foreign_term, boundary_hook=ml_compile_boundary)
        return boundaries.compile(boundary, compiled)

    affi_grammar, ml_grammar = wire(affi_parser.GRAMMAR, ml_parser.GRAMMAR)
    # ⟨τ⟩ embeds an L3 type, and §4 has no L3: its MiniML refuses (foreign τ̄).
    ml_grammar.foreign = None
    affi_frontend = LanguageFrontend(
        name=LANGUAGE_A,
        parse_expr=affi_grammar.parse_expr,
        parse_type=affi_grammar.parse_type,
        typecheck=lambda term, unrestricted=None, affine=None, foreign_env=None: affi_typechecker.typecheck(
            term,
            unrestricted=unrestricted,
            affine=affine,
            foreign_env=foreign_env,
            boundary_hook=affi_boundary_type,
            annotations=annotations,
        ),
        compile=lambda term: affi_compiler.compile_expr(
            term, annotations=annotations, boundary_hook=affi_compile_boundary
        ),
        analyze=analyze,
        take_records=boundaries.take_records,
    )
    ml_frontend = LanguageFrontend(
        name=LANGUAGE_B,
        parse_expr=ml_grammar.parse_expr,
        parse_type=ml_grammar.parse_type,
        typecheck=lambda term, env=None, type_vars=None, foreign_env=None: ml_typechecker.typecheck(
            term,
            env=env,
            type_vars=type_vars,
            foreign_env=foreign_env,
            boundary_hook=ml_boundary_type,
        ),
        compile=lambda term: ml_compiler.compile_expr(term, boundary_hook=ml_compile_boundary),
        analyze=analyze,
        take_records=boundaries.take_records,
    )
    # The two LCVM engines: the compiled-dispatch CEK machine is the
    # default and the substitution machine is the differential-testing
    # oracle.  Both start resumable executions, so the serving layer can
    # step-slice per-request runs of this system.
    backend = make_lcvm_backend(name="LCVM")

    system = InteropSystem(
        name="affine & unrestricted (§4)",
        language_a=affi_frontend,
        language_b=ml_frontend,
        target=backend,
        convertibility=relation,
    )

    from repro.interop_affine import soundness

    system.register_check(
        "convertibility-soundness", lambda **kwargs: soundness.check_convertibility_soundness(system=system, **kwargs)
    )
    system.register_check("type-safety", lambda **kwargs: soundness.check_type_safety(system=system, **kwargs))
    system.register_check(
        "affine-enforcement", lambda **kwargs: soundness.check_affine_enforcement(system=system, **kwargs)
    )
    system.register_check(
        "phantom-erasure", lambda **kwargs: soundness.check_phantom_erasure_agreement(system=system, **kwargs)
    )
    return system
