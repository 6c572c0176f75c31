"""Assembling the Affi/MiniML interoperability system (§4).

The boundary hooks implement the Fig. 7 boundary rules:

* a MiniML boundary ``⦇e_Affi⦈^τ`` typechecks the Affi term with the Affi
  typechecker (threading MiniML's Γ as the foreign environment), requires
  ``no•(Ω_e)`` — the embedded term may not consume *static* affine resources,
  since MiniML offers them no protection — and requires ``τ̄ ∼ τ``;
* an Affi boundary ``⦇e_ML⦈^τ̄`` typechecks the MiniML term and requires
  ``τ̄ ∼ τ``.

Compilation of a boundary compiles the foreign term with the foreign compiler
and applies the conversion wrapper for the appropriate direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro import analysis
from repro.affi import compiler as affi_compiler
from repro.affi import parser as affi_parser
from repro.affi import syntax as affi_syntax
from repro.affi import typechecker as affi_typechecker
from repro.affi import types as affi_types
from repro.affi.types import Mode
from repro.core.convertibility import ConvertibilityRelation
from repro.core.errors import ConvertibilityError, LinearityError
from repro.core.interop import BoundaryRecorder, BoundaryRecords, InteropSystem
from repro.core.language import LanguageFrontend
from repro.interop_affine.conversions import LANGUAGE_A, LANGUAGE_B, make_convertibility
from repro.lcvm.backends import make_lcvm_backend
from repro.miniml import compiler as ml_compiler
from repro.miniml import parser as ml_parser
from repro.miniml import syntax as ml_syntax
from repro.miniml import typechecker as ml_typechecker
from repro.miniml import types as ml_types


@dataclass
class AffineBoundaryHooks(BoundaryRecorder):
    """Mutually recursive typecheck/compile hooks for Affi and MiniML."""

    relation: ConvertibilityRelation
    annotations: affi_typechecker.Annotations = field(default_factory=affi_typechecker.Annotations)
    boundary_types: Dict[int, object] = field(default_factory=dict)
    #: Static glue pre-resolution (see :class:`BoundaryHooks` in §3): when on,
    #: typechecking captures the oriented conversion closure per boundary and
    #: compilation bakes it in without a dynamic relation lookup.
    preresolve: bool = True
    resolved_glue: Dict[int, Callable] = field(default_factory=dict)
    resolved_rules: Dict[int, str] = field(default_factory=dict)

    def take_records(self) -> BoundaryRecords:
        # The compiler has consumed the Affi annotations by the time a
        # pipeline hands its records over, so they go with them.
        self.annotations.variable_resolutions.clear()
        self.annotations.application_modes.clear()
        return super().take_records()

    # -- typechecking ---------------------------------------------------------

    def ml_boundary_type(self, boundary: ml_syntax.Boundary, env, type_vars, foreign_env):
        """Type a MiniML boundary embedding an Affi term."""
        affine_env = dict(foreign_env or {})
        affi_type, usage = affi_typechecker.check_with_usage(
            boundary.foreign_term,
            unrestricted={},
            affine=affine_env,
            foreign_env=env,
            boundary_hook=self.affi_boundary_type,
            annotations=self.annotations,
        )
        static_usage = {
            name for name in usage if name in affine_env and affine_env[name][1] is Mode.STATIC
        }
        if static_usage:
            raise LinearityError(
                "an Affi term embedded in MiniML may not consume static affine variables "
                f"(no•(Ω) in Fig. 7): {sorted(static_usage)}"
            )
        conversion = self.relation.query(affi_type, boundary.annotation)
        if conversion is None:
            raise ConvertibilityError(
                f"MiniML boundary at type {boundary.annotation} embeds an Affi term of type "
                f"{affi_type}, but {affi_type} ~ {boundary.annotation} is not derivable"
            )
        self.boundary_types[id(boundary)] = affi_type
        if self.preresolve:
            self.resolved_glue[id(boundary)] = conversion.apply_a_to_b
            self.resolved_rules[id(boundary)] = conversion.rule_name
        return boundary.annotation, usage

    def affi_boundary_type(self, boundary: affi_syntax.Boundary, unrestricted, affine, foreign_env):
        """Type an Affi boundary embedding a MiniML term."""
        ml_type, usage = ml_typechecker.check_with_usage(
            boundary.foreign_term,
            env=dict(foreign_env or {}),
            foreign_env=affine,
            boundary_hook=self.ml_boundary_type,
        )
        conversion = self.relation.query(boundary.annotation, ml_type)
        if conversion is None:
            raise ConvertibilityError(
                f"Affi boundary at type {boundary.annotation} embeds a MiniML term of type "
                f"{ml_type}, but {boundary.annotation} ~ {ml_type} is not derivable"
            )
        self.boundary_types[id(boundary)] = ml_type
        if self.preresolve:
            self.resolved_glue[id(boundary)] = conversion.apply_b_to_a
            self.resolved_rules[id(boundary)] = conversion.rule_name
        return boundary.annotation, usage

    # -- compilation ----------------------------------------------------------

    def ml_compile_boundary(self, boundary: ml_syntax.Boundary):
        compiled = affi_compiler.compile_expr(
            boundary.foreign_term, annotations=self.annotations, boundary_hook=self.affi_compile_boundary
        )
        glue = self.resolved_glue.pop(id(boundary), None)
        if glue is not None:
            self.relation.count_preresolved()
            return glue(compiled)
        affi_type = self.boundary_types.get(id(boundary))
        if affi_type is None:
            affi_type, _usage = affi_typechecker.check_with_usage(
                boundary.foreign_term,
                boundary_hook=self.affi_boundary_type,
                annotations=self.annotations,
            )
        conversion = self.relation.require(affi_type, boundary.annotation)
        return conversion.apply_a_to_b(compiled)

    def affi_compile_boundary(self, boundary: affi_syntax.Boundary):
        compiled = ml_compiler.compile_expr(boundary.foreign_term, boundary_hook=self.ml_compile_boundary)
        glue = self.resolved_glue.pop(id(boundary), None)
        if glue is not None:
            self.relation.count_preresolved()
            return glue(compiled)
        ml_type = self.boundary_types.get(id(boundary))
        if ml_type is None:
            ml_type = ml_typechecker.typecheck(boundary.foreign_term, boundary_hook=self.ml_boundary_type)
        conversion = self.relation.require(boundary.annotation, ml_type)
        return conversion.apply_b_to_a(compiled)


def make_system(
    relation: Optional[ConvertibilityRelation] = None, preresolve: bool = True
) -> InteropSystem:
    """Build the complete §4 interoperability system.

    ``preresolve=False`` disables static glue pre-resolution (the benchmark's
    counter/wall-clock differential baseline).
    """
    relation = relation or make_convertibility()
    hooks = AffineBoundaryHooks(relation, preresolve=preresolve)
    analyze, _ = analysis.make_analyzer("lcvm", (LANGUAGE_A, LANGUAGE_B))

    # Mutually recursive boundary parsers: an Affi boundary embeds a MiniML
    # term whose own boundaries embed Affi terms, and so on.
    def _parse_ml_inside_affi(sexpr):
        return ml_parser.parse_expr_sexpr(sexpr, _parse_affi_inside_ml)

    def _parse_affi_inside_ml(sexpr):
        return affi_parser.parse_expr_sexpr(sexpr, _parse_ml_inside_affi)

    affi_frontend = LanguageFrontend(
        name=LANGUAGE_A,
        parse_expr=affi_parser.make_parser(_parse_ml_inside_affi),
        parse_type=affi_types.parse_type,
        typecheck=lambda term, unrestricted=None, affine=None, foreign_env=None: affi_typechecker.typecheck(
            term,
            unrestricted=unrestricted,
            affine=affine,
            foreign_env=foreign_env,
            boundary_hook=hooks.affi_boundary_type,
            annotations=hooks.annotations,
        ),
        compile=lambda term: affi_compiler.compile_expr(
            term, annotations=hooks.annotations, boundary_hook=hooks.affi_compile_boundary
        ),
        analyze=analyze,
        take_records=hooks.take_records,
    )
    ml_frontend = LanguageFrontend(
        name=LANGUAGE_B,
        parse_expr=ml_parser.make_parser(_parse_affi_inside_ml),
        parse_type=ml_types.parse_type,
        typecheck=lambda term, env=None, type_vars=None, foreign_env=None: ml_typechecker.typecheck(
            term,
            env=env,
            type_vars=type_vars,
            foreign_env=foreign_env,
            boundary_hook=hooks.ml_boundary_type,
        ),
        compile=lambda term: ml_compiler.compile_expr(term, boundary_hook=hooks.ml_compile_boundary),
        analyze=analyze,
        take_records=hooks.take_records,
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
