"""Assembling the MiniML/L3 interoperability system (§5).

Each boundary typechecks its foreign term with the other language's
typechecker (threading the host's environment as the foreign one) and
resolves its glue through :mod:`repro.core.boundary`; compiling it compiles
the foreign term and applies that glue.
"""

from __future__ import annotations

from typing import Optional

from repro import analysis
from repro.core.boundary import Boundaries
from repro.core.convertibility import ConvertibilityRelation
from repro.core.interop import InteropSystem
from repro.core.language import LanguageFrontend
from repro.interop_l3.conversions import LANGUAGE_A, LANGUAGE_B, make_convertibility
from repro.lcvm.backends import make_lcvm_backend
from repro.l3 import compiler as l3_compiler
from repro.l3 import parser as l3_parser
from repro.l3 import syntax as l3_syntax
from repro.l3 import typechecker as l3_typechecker
from repro.miniml import compiler as ml_compiler
from repro.miniml import parser as ml_parser
from repro.miniml import syntax as ml_syntax
from repro.miniml import typechecker as ml_typechecker
from repro.util.grammar import wire


def make_system(relation: Optional[ConvertibilityRelation] = None) -> InteropSystem:
    """Build the complete §5 interoperability system."""
    relation = relation or make_convertibility()
    boundaries = Boundaries(relation)
    analyze, _ = analysis.make_analyzer("lcvm", (LANGUAGE_A, LANGUAGE_B))

    def ml_boundary_type(boundary: ml_syntax.Boundary, env, type_vars, foreign_env):
        """Type a MiniML boundary embedding an L3 term."""
        l3_type, usage = l3_typechecker.check_with_usage(
            boundary.foreign_term,
            linear=dict(foreign_env or {}),
            foreign_env=env,
            boundary_hook=l3_boundary_type,
        )
        return boundaries.resolve(boundary, LANGUAGE_A, l3_type), usage

    def l3_boundary_type(boundary: l3_syntax.Boundary, linear, unrestricted, locations, foreign_env):
        """Type an L3 boundary embedding a MiniML term."""
        ml_type, usage = ml_typechecker.check_with_usage(
            boundary.foreign_term,
            env=dict(foreign_env or {}),
            foreign_env=linear,
            boundary_hook=ml_boundary_type,
        )
        return boundaries.resolve(boundary, LANGUAGE_B, ml_type), usage

    def ml_compile_boundary(boundary: ml_syntax.Boundary):
        compiled = l3_compiler.compile_expr(boundary.foreign_term, boundary_hook=l3_compile_boundary)
        return boundaries.compile(boundary, compiled)

    def l3_compile_boundary(boundary: l3_syntax.Boundary):
        compiled = ml_compiler.compile_expr(boundary.foreign_term, boundary_hook=ml_compile_boundary)
        return boundaries.compile(boundary, compiled)

    ml_grammar, l3_grammar = wire(ml_parser.GRAMMAR, l3_parser.GRAMMAR)
    ml_frontend = LanguageFrontend(
        name=LANGUAGE_A,
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
    l3_frontend = LanguageFrontend(
        name=LANGUAGE_B,
        parse_expr=l3_grammar.parse_expr,
        parse_type=l3_grammar.parse_type,
        typecheck=lambda term, linear=None, unrestricted=None, locations=None, foreign_env=None: l3_typechecker.typecheck(
            term,
            linear=linear,
            unrestricted=unrestricted,
            locations=locations,
            foreign_env=foreign_env,
            boundary_hook=l3_boundary_type,
        ),
        compile=lambda term: l3_compiler.compile_expr(term, boundary_hook=l3_compile_boundary),
        analyze=analyze,
        take_records=boundaries.take_records,
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
