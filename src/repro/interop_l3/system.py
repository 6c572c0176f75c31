"""Assembling the MiniML/L3 interoperability system (§5)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro import analysis
from repro.core.convertibility import ConvertibilityRelation
from repro.core.errors import ConvertibilityError
from repro.core.interop import BoundaryRecorder, InteropSystem
from repro.core.language import LanguageFrontend
from repro.interop_l3.conversions import LANGUAGE_A, LANGUAGE_B, make_convertibility
from repro.lcvm.backends import make_lcvm_backend
from repro.l3 import compiler as l3_compiler
from repro.l3 import parser as l3_parser
from repro.l3 import syntax as l3_syntax
from repro.l3 import typechecker as l3_typechecker
from repro.l3 import types as l3_types
from repro.miniml import compiler as ml_compiler
from repro.miniml import parser as ml_parser
from repro.miniml import syntax as ml_syntax
from repro.miniml import typechecker as ml_typechecker
from repro.miniml import types as ml_types


@dataclass
class L3BoundaryHooks(BoundaryRecorder):
    """Mutually recursive typecheck/compile hooks for MiniML and L3."""

    relation: ConvertibilityRelation
    boundary_types: Dict[int, object] = field(default_factory=dict)
    #: Static glue pre-resolution (see :class:`BoundaryHooks` in §3): when on,
    #: typechecking captures the oriented conversion closure per boundary and
    #: compilation bakes it in without a dynamic relation lookup.
    preresolve: bool = True
    resolved_glue: Dict[int, Callable] = field(default_factory=dict)
    resolved_rules: Dict[int, str] = field(default_factory=dict)

    # -- typechecking ---------------------------------------------------------

    def ml_boundary_type(self, boundary: ml_syntax.Boundary, env, type_vars, foreign_env):
        """Type a MiniML boundary embedding an L3 term."""
        l3_type, usage = l3_typechecker.check_with_usage(
            boundary.foreign_term,
            linear=dict(foreign_env or {}),
            foreign_env=env,
            boundary_hook=self.l3_boundary_type,
        )
        conversion = self.relation.query(boundary.annotation, l3_type)
        if conversion is None:
            raise ConvertibilityError(
                f"MiniML boundary at type {boundary.annotation} embeds an L3 term of type "
                f"{l3_type}, but {boundary.annotation} ~ {l3_type} is not derivable"
            )
        self.boundary_types[id(boundary)] = l3_type
        if self.preresolve:
            self.resolved_glue[id(boundary)] = conversion.apply_b_to_a
            self.resolved_rules[id(boundary)] = conversion.rule_name
        return boundary.annotation, usage

    def l3_boundary_type(self, boundary: l3_syntax.Boundary, linear, unrestricted, locations, foreign_env):
        """Type an L3 boundary embedding a MiniML term."""
        ml_type, usage = ml_typechecker.check_with_usage(
            boundary.foreign_term,
            env=dict(foreign_env or {}),
            foreign_env=linear,
            boundary_hook=self.ml_boundary_type,
        )
        conversion = self.relation.query(ml_type, boundary.annotation)
        if conversion is None:
            raise ConvertibilityError(
                f"L3 boundary at type {boundary.annotation} embeds a MiniML term of type "
                f"{ml_type}, but {ml_type} ~ {boundary.annotation} is not derivable"
            )
        self.boundary_types[id(boundary)] = ml_type
        if self.preresolve:
            self.resolved_glue[id(boundary)] = conversion.apply_a_to_b
            self.resolved_rules[id(boundary)] = conversion.rule_name
        return boundary.annotation, usage

    # -- compilation ----------------------------------------------------------

    def ml_compile_boundary(self, boundary: ml_syntax.Boundary):
        compiled = l3_compiler.compile_expr(boundary.foreign_term, boundary_hook=self.l3_compile_boundary)
        glue = self.resolved_glue.pop(id(boundary), None)
        if glue is not None:
            self.relation.count_preresolved()
            return glue(compiled)
        l3_type = self.boundary_types.get(id(boundary))
        if l3_type is None:
            l3_type, _usage = l3_typechecker.check_with_usage(
                boundary.foreign_term, boundary_hook=self.l3_boundary_type
            )
        conversion = self.relation.require(boundary.annotation, l3_type)
        return conversion.apply_b_to_a(compiled)

    def l3_compile_boundary(self, boundary: l3_syntax.Boundary):
        compiled = ml_compiler.compile_expr(boundary.foreign_term, boundary_hook=self.ml_compile_boundary)
        glue = self.resolved_glue.pop(id(boundary), None)
        if glue is not None:
            self.relation.count_preresolved()
            return glue(compiled)
        ml_type = self.boundary_types.get(id(boundary))
        if ml_type is None:
            ml_type = ml_typechecker.typecheck(boundary.foreign_term, boundary_hook=self.ml_boundary_type)
        conversion = self.relation.require(ml_type, boundary.annotation)
        return conversion.apply_a_to_b(compiled)


def make_system(
    relation: Optional[ConvertibilityRelation] = None, preresolve: bool = True
) -> InteropSystem:
    """Build the complete §5 interoperability system.

    ``preresolve=False`` disables static glue pre-resolution (the benchmark's
    counter/wall-clock differential baseline).
    """
    relation = relation or make_convertibility()
    hooks = L3BoundaryHooks(relation, preresolve=preresolve)
    analyze, _ = analysis.make_analyzer("lcvm", (LANGUAGE_A, LANGUAGE_B))

    def _parse_l3_inside_ml(sexpr):
        return l3_parser.parse_expr_sexpr(sexpr, _parse_ml_inside_l3)

    def _parse_ml_inside_l3(sexpr):
        return ml_parser.parse_expr_sexpr(sexpr, _parse_l3_inside_ml)

    ml_frontend = LanguageFrontend(
        name=LANGUAGE_A,
        parse_expr=ml_parser.make_parser(_parse_l3_inside_ml),
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
    l3_frontend = LanguageFrontend(
        name=LANGUAGE_B,
        parse_expr=l3_parser.make_parser(_parse_ml_inside_l3),
        parse_type=l3_types.parse_type,
        typecheck=lambda term, linear=None, unrestricted=None, locations=None, foreign_env=None: l3_typechecker.typecheck(
            term,
            linear=linear,
            unrestricted=unrestricted,
            locations=locations,
            foreign_env=foreign_env,
            boundary_hook=hooks.l3_boundary_type,
        ),
        compile=lambda term: l3_compiler.compile_expr(term, boundary_hook=hooks.l3_compile_boundary),
        analyze=analyze,
        take_records=hooks.take_records,
    )
    # The two LCVM engines: the compiled-dispatch CEK machine is the
    # default and the substitution machine is the differential-testing
    # oracle.  Both start resumable executions, so the serving layer can
    # step-slice per-request runs of this system.
    backend = make_lcvm_backend(name="LCVM+memory")

    system = InteropSystem(
        name="memory management & polymorphism (§5)",
        language_a=ml_frontend,
        language_b=l3_frontend,
        target=backend,
        convertibility=relation,
    )

    from repro.interop_l3 import soundness

    system.register_check(
        "convertibility-soundness", lambda **kwargs: soundness.check_convertibility_soundness(system=system, **kwargs)
    )
    system.register_check("type-safety", lambda **kwargs: soundness.check_type_safety(system=system, **kwargs))
    system.register_check(
        "ownership-transfer", lambda **kwargs: soundness.check_ownership_transfer(system=system, **kwargs)
    )
    system.register_check(
        "foreign-types", lambda **kwargs: soundness.check_foreign_type_discipline(system=system, **kwargs)
    )
    return system
