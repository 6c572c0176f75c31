"""Fresh-name generation and source locations.

Compilers and glue-code generators need fresh target-level variable names
(e.g. the ``x_fresh`` in Fig. 8's compilation of tensor destructuring).  A
:class:`NameSupply` hands out names that cannot collide with user-written
names because they embed a reserved separator (``%``) that the parsers
reject.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

RESERVED_SEPARATOR = "%"


@dataclass
class Span:
    """A half-open region of source text, used for error reporting."""

    start: int = 0
    end: int = 0
    source_name: str = "<input>"

    def __str__(self) -> str:
        return f"{self.source_name}[{self.start}:{self.end}]"


@dataclass
class NameSupply:
    """Deterministic supply of fresh names.

    The supply is deterministic so that compilation is reproducible: compiling
    the same program twice yields syntactically identical target code, which
    the test suite relies on.
    """

    prefix: str = "tmp"
    _counter: Iterator[int] = field(default_factory=itertools.count, repr=False)

    def fresh(self, hint: Optional[str] = None) -> str:
        """Return a new name, optionally incorporating ``hint`` for readability."""
        base = hint if hint else self.prefix
        return f"{base}{RESERVED_SEPARATOR}{next(self._counter)}"


def is_generated_name(name: str) -> bool:
    """Return True if ``name`` was produced by a :class:`NameSupply`."""
    return RESERVED_SEPARATOR in name
