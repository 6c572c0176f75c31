"""Assembling the RefHL/RefLL interoperability system (§3).

This wires the two front ends, the StackLang backend, the convertibility
relation, and the boundary rule into one :class:`~repro.core.interop.InteropSystem`.

The boundary hooks implement the two non-standard rules of the system:

* typechecking ``⦇ē⦈^τ`` checks the foreign term with the *other* language's
  typechecker (with the environments swapped, since Γ and Γ̄ are threaded
  through both languages) and then requires ``τ ∼ τ̄``, resolving the glue;
* compiling ``⦇ē⦈^τ`` compiles the foreign term with the other language's
  compiler and appends the glue typechecking resolved.
"""

from __future__ import annotations

from typing import Optional

from repro import analysis
from repro.core.boundary import Boundaries
from repro.core.convertibility import ConvertibilityRelation
from repro.core.interop import InteropSystem, RunResult
from repro.core.language import Engine, LanguageFrontend, ResumableExecution, TargetBackend
from repro.interop_refs.conversions import LANGUAGE_A, LANGUAGE_B, make_convertibility
from repro.refhl import compiler as hl_compiler
from repro.refhl import parser as hl_parser
from repro.refhl import syntax as hl_syntax
from repro.refhl import typechecker as hl_typechecker
from repro.refhl import types as hl_types
from repro.refll import compiler as ll_compiler
from repro.refll import parser as ll_parser
from repro.refll import syntax as ll_syntax
from repro.refll import typechecker as ll_typechecker
from repro.refll import types as ll_types
from repro.stacklang import cek as stack_cek
from repro.stacklang import machine as stack_machine
from repro.stacklang.machine import Status
from repro.util.grammar import wire


def _stacklang_result(result) -> RunResult:
    if result.status is Status.VALUE:
        return RunResult(value=result.value, steps=result.steps)
    if result.status is Status.EMPTY:
        return RunResult(value=None, steps=result.steps)
    return RunResult(failure=result.failure_code or result.status.value, steps=result.steps)


def _start_stacklang(unit, fuel: int = 100_000) -> ResumableExecution:
    """Start a resumable Fig. 2 reference-machine execution (oracle, sliced)."""
    return ResumableExecution(stack_machine.SubstitutionExecution(unit.target_code, fuel=fuel), _stacklang_result)


def _start_stacklang_compiled(unit, fuel: int = 100_000) -> ResumableExecution:
    """Start a resumable pc-threaded execution of ``unit``'s kept op array."""
    execution = stack_cek.CompiledExecution(unit.target_code, fuel=fuel, code=stack_cek.unit_code(unit))
    return ResumableExecution(execution, _stacklang_result)


def _restore_stacklang(snapshot: dict) -> ResumableExecution:
    """Rebuild a paused Fig. 2 reference-machine execution from a snapshot."""
    return ResumableExecution(stack_machine.SubstitutionExecution.from_snapshot(snapshot), _stacklang_result)


def _restore_stacklang_compiled(snapshot: dict) -> ResumableExecution:
    """Rebuild a paused pc-threaded execution, recompiling the op array."""
    return ResumableExecution(stack_cek.CompiledExecution.from_snapshot(snapshot), _stacklang_result)


def make_system(relation: Optional[ConvertibilityRelation] = None) -> InteropSystem:
    """Build the complete §3 interoperability system."""
    relation = relation or make_convertibility()
    boundaries = Boundaries(relation)
    analyze, verify = analysis.make_analyzer("stacklang", (LANGUAGE_A, LANGUAGE_B))

    def refhl_boundary_type(boundary: hl_syntax.Boundary, env, foreign_env) -> hl_types.Type:
        foreign_type = ll_typechecker.typecheck(
            boundary.foreign_term, env=foreign_env, foreign_env=env, boundary_hook=refll_boundary_type
        )
        return boundaries.resolve(boundary, LANGUAGE_A, foreign_type)

    def refll_boundary_type(boundary: ll_syntax.Boundary, env, foreign_env) -> ll_types.Type:
        foreign_type = hl_typechecker.typecheck(
            boundary.foreign_term, env=foreign_env, foreign_env=env, boundary_hook=refhl_boundary_type
        )
        return boundaries.resolve(boundary, LANGUAGE_B, foreign_type)

    def refhl_compile_boundary(boundary: hl_syntax.Boundary):
        compiled = ll_compiler.compile_expr(boundary.foreign_term, boundary_hook=refll_compile_boundary)
        return boundaries.compile(boundary, compiled)

    def refll_compile_boundary(boundary: ll_syntax.Boundary):
        compiled = hl_compiler.compile_expr(boundary.foreign_term, boundary_hook=refhl_compile_boundary)
        return boundaries.compile(boundary, compiled)

    hl_grammar, ll_grammar = wire(hl_parser.GRAMMAR, ll_parser.GRAMMAR)
    refhl_frontend = LanguageFrontend(
        name=LANGUAGE_A,
        parse_expr=hl_grammar.parse_expr,
        parse_type=hl_grammar.parse_type,
        typecheck=lambda term, env=None, foreign_env=None: hl_typechecker.typecheck(
            term, env=env, foreign_env=foreign_env, boundary_hook=refhl_boundary_type
        ),
        compile=lambda term: hl_compiler.compile_expr(term, boundary_hook=refhl_compile_boundary),
        verify=verify,
        analyze=analyze,
        take_records=boundaries.take_records,
    )
    refll_frontend = LanguageFrontend(
        name=LANGUAGE_B,
        parse_expr=ll_grammar.parse_expr,
        parse_type=ll_grammar.parse_type,
        typecheck=lambda term, env=None, foreign_env=None: ll_typechecker.typecheck(
            term, env=env, foreign_env=foreign_env, boundary_hook=refll_boundary_type
        ),
        compile=lambda term: ll_compiler.compile_expr(term, boundary_hook=refll_compile_boundary),
        verify=verify,
        analyze=analyze,
        take_records=boundaries.take_records,
    )
    # StackLang has two engines: the pc-threaded compiled machine is the
    # default, and the substitution machine is the differential-testing
    # oracle.  Both start resumable executions, so the serving layer
    # step-slices the oracle with the same bounded per-turn latency as the
    # compiled machine.
    backend = TargetBackend(
        name="StackLang",
        engines={
            "substitution": Engine(_start_stacklang, _restore_stacklang),
            "cek-compiled": Engine(_start_stacklang_compiled, _restore_stacklang_compiled),
        },
        default_backend="cek-compiled",
    )

    system = InteropSystem(
        name="shared-memory (§3)",
        language_a=refhl_frontend,
        language_b=refll_frontend,
        target=backend,
        convertibility=relation,
    )

    # Registered lazily to avoid importing the checkers when they are unused.
    from repro.interop_refs import soundness

    system.register_check("convertibility-soundness", lambda **kwargs: soundness.check_convertibility_soundness(system=system, **kwargs))
    system.register_check("fundamental-property", lambda **kwargs: soundness.check_fundamental_property(system=system, **kwargs))
    system.register_check("type-safety", lambda **kwargs: soundness.check_type_safety(system=system, **kwargs))
    return system
