"""Core framework: convertibility, boundaries, worlds, realizability, interop."""

from repro.core.boundary import Boundaries, BoundaryRecords
from repro.core.convertibility import Conversion, ConvertibilityRelation, ConvertibilityRule
from repro.core.errors import (
    CompileError,
    ConvertibilityError,
    ErrorCode,
    LinearityError,
    MachineFailure,
    ModelError,
    OutOfFuelError,
    ParseError,
    ReproError,
    ScopeError,
    SourceError,
    StuckError,
    TargetError,
    TypeCheckError,
)
from repro.core.interop import InteropSystem, RunResult
from repro.core.language import CompiledUnit, LanguageFrontend, TargetBackend
from repro.core.names import NameSupply, Span, is_generated_name
from repro.core.realizability import CheckReport, Counterexample
from repro.core.worlds import (
    USED,
    TypeTag,
    World,
    affine_extends,
    fresh_location,
    merge_disjoint,
    world_flags,
)

__all__ = [
    "Boundaries",
    "BoundaryRecords",
    "Conversion",
    "ConvertibilityRelation",
    "ConvertibilityRule",
    "CompileError",
    "ConvertibilityError",
    "ErrorCode",
    "LinearityError",
    "MachineFailure",
    "ModelError",
    "OutOfFuelError",
    "ParseError",
    "ReproError",
    "ScopeError",
    "SourceError",
    "StuckError",
    "TargetError",
    "TypeCheckError",
    "InteropSystem",
    "RunResult",
    "CompiledUnit",
    "LanguageFrontend",
    "TargetBackend",
    "NameSupply",
    "Span",
    "is_generated_name",
    "CheckReport",
    "Counterexample",
    "USED",
    "TypeTag",
    "World",
    "affine_extends",
    "fresh_location",
    "merge_disjoint",
    "world_flags",
]
