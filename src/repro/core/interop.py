"""The multi-language driver: gluing two frontends, a target, and a relation.

An :class:`InteropSystem` packages everything §2 lists as the inputs and
outputs of the framework for one pair of languages:

* the two :class:`~repro.core.language.LanguageFrontend` records,
* the shared :class:`~repro.core.language.TargetBackend`,
* the :class:`~repro.core.convertibility.ConvertibilityRelation`, and
* (optionally) the realizability model / soundness checkers.

Each case-study package constructs one of these (``make_system()``), and the
examples and benchmarks drive them uniformly: parse a mixed program in either
language, typecheck it (boundaries recursively invoke the other language's
typechecker), compile it (boundaries insert glue code), and run it on the
target machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.core.convertibility import ConvertibilityRelation
from repro.core.errors import ReproError
from repro.core.language import CompiledUnit, LanguageFrontend, TargetBackend
from repro.core.realizability import CheckReport


@dataclass
class RunResult:
    """The observable outcome of running a compiled multi-language program."""

    value: Any = None
    failure: Optional[Any] = None
    steps: int = 0

    @property
    def ok(self) -> bool:
        return self.failure is None

    def __str__(self) -> str:
        if self.ok:
            return f"value {self.value} (in {self.steps} steps)"
        return f"failure {self.failure} (after {self.steps} steps)"


@dataclass
class InteropSystem:
    """A complete interoperability system for one pair of source languages."""

    name: str
    language_a: LanguageFrontend
    language_b: LanguageFrontend
    target: TargetBackend
    convertibility: ConvertibilityRelation
    soundness_checks: Dict[str, Callable[..., CheckReport]] = field(default_factory=dict)

    # -- front-end dispatch ---------------------------------------------------

    def frontend(self, language_name: str) -> LanguageFrontend:
        if language_name == self.language_a.name:
            return self.language_a
        if language_name == self.language_b.name:
            return self.language_b
        raise ReproError(
            f"system {self.name!r} has languages {self.language_a.name!r} and "
            f"{self.language_b.name!r}, not {language_name!r}"
        )

    def compile_source(self, language_name: str, source: str, **typecheck_kwargs: Any) -> CompiledUnit:
        """Parse, typecheck, and compile ``source`` written in ``language_name``.

        Results are memoized per frontend, so repeated boundary crossings of
        the same program skip the parse/typecheck/compile pipeline entirely.
        """
        return self.frontend(language_name).pipeline(source, **typecheck_kwargs)

    def run_source(
        self,
        language_name: str,
        source: str,
        fuel: int = 100_000,
        backend: Optional[str] = None,
        **typecheck_kwargs: Any,
    ) -> RunResult:
        """Compile and execute a program; return its observable outcome.

        ``backend`` names one of the target's engines (``None`` runs the
        target's default, normally ``cek-compiled``).
        """
        unit = self.compile_source(language_name, source, **typecheck_kwargs)
        return self.run_unit(unit, fuel=fuel, backend=backend)

    def run_unit(self, unit: CompiledUnit, fuel: int = 100_000, backend: Optional[str] = None) -> RunResult:
        """Run a unit to completion; it keeps the machine code the backend builds."""
        # One slice of ``fuel`` transitions always halts the machine.
        return self.target.start(unit, backend=backend, fuel=fuel).step_n(max(1, fuel))

    def run_compiled(self, target_code: Any, fuel: int = 100_000, backend: Optional[str] = None) -> RunResult:
        """Run bare target code; machine code is built for this run alone."""
        return self.start_compiled(target_code, fuel=fuel, backend=backend).step_n(max(1, fuel))

    # -- resumable executions (the serving layer's entry points) --------------

    def start_compiled(self, target_code: Any, fuel: int = 100_000, backend: Optional[str] = None):
        """Start a resumable execution of bare target code; its machine code
        lives in a unit of its own, as long as the execution."""
        unit = CompiledUnit(language=self.target.name, term=None, type=None, target_code=target_code)
        return self.target.start(unit, backend=backend, fuel=fuel)

    def restore_execution(self, snapshot: dict, backend: Optional[str] = None):
        """Rebuild a paused resumable execution from a machine-state snapshot.

        The snapshot is the versioned plain-data dict a paused execution's
        ``snapshot()`` produced — possibly in another process or an earlier
        incarnation of this one.  ``backend`` defaults to the backend the
        snapshot's ``kind`` tag names; the restored execution continues from
        exactly the captured slice boundary.
        """
        return self.target.restore(snapshot, backend=backend)

    # -- caches ---------------------------------------------------------------

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Pipeline-cache statistics per frontend (for benchmarks/diagnostics).

        The extra ``convertibility`` entry reports the glue-lookup counters
        of the shared :class:`ConvertibilityRelation`: ``lookups`` (memo
        ``hits`` + rule-derivation ``misses``), all made while typechecking,
        and the boundary sites compiled from the glue typechecking resolved
        (``preresolved``).
        """
        return {
            self.language_a.name: self.language_a.cache_stats(),
            self.language_b.name: self.language_b.cache_stats(),
            "convertibility": self.convertibility.stats(),
        }

    # -- soundness ------------------------------------------------------------

    def register_check(self, name: str, check: Callable[..., CheckReport]) -> None:
        self.soundness_checks[name] = check

    def run_soundness_checks(self, **kwargs: Any) -> Dict[str, CheckReport]:
        """Run every registered bounded soundness check and collect reports."""
        return {name: check(**kwargs) for name, check in self.soundness_checks.items()}
