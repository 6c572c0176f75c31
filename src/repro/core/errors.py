"""Error hierarchy for the interoperability framework.

The paper's target languages signal failure with ``fail c`` where ``c`` is an
error code drawn from {Type, Conv, Idx, Ptr}.  We mirror those codes here and
additionally provide library-level errors for the front ends (parse errors,
type errors raised by the static checkers) and for the evaluators (running out
of fuel, genuinely stuck configurations — which, per the paper's type-safety
theorems, should never be reachable from well-typed programs).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ErrorCode(enum.Enum):
    """Dynamic error codes used by the target machines (Fig. 2 and Fig. 6)."""

    TYPE = "Type"
    CONV = "Conv"
    IDX = "Idx"
    PTR = "Ptr"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SourceError(ReproError):
    """Base class for errors raised while processing source programs."""


class ParseError(SourceError):
    """The s-expression front end rejected the input."""


class TypeCheckError(SourceError):
    """A source-language static semantics rejected the program."""


class ScopeError(TypeCheckError):
    """An unbound variable or location variable was referenced."""


class ConvertibilityError(SourceError):
    """A boundary was used at a pair of types not related by ``~``."""


class LinearityError(TypeCheckError):
    """A linear/affine resource was duplicated or otherwise misused."""


class CompileError(ReproError):
    """A compiler was given a term it cannot translate."""


class TargetError(ReproError):
    """Base class for dynamic errors raised by target machines."""


@dataclass
class MachineFailure(TargetError):
    """The machine executed ``fail c`` and halted with code ``c``.

    This is *well-defined* failure in the sense of the paper: the type-safety
    theorems permit termination in ``Fail c`` for c in {Conv, Idx, Ptr} but
    never for ``Type``.
    """

    code: ErrorCode
    message: str = ""

    def __str__(self) -> str:
        if self.message:
            return f"fail {self.code}: {self.message}"
        return f"fail {self.code}"


class StuckError(TargetError):
    """The machine reached a configuration with no applicable rule.

    Well-typed programs never get stuck (Theorems 3.3/3.4); encountering this
    error in a compiled, well-typed program indicates a bug in a compiler or
    conversion.
    """


class OutOfFuelError(TargetError):
    """Evaluation exceeded the supplied step budget."""


class ModelError(ReproError):
    """A logical-relation membership check was invoked incorrectly."""


class RequestError(ReproError):
    """A serving request has a field of the wrong type or out of range."""
