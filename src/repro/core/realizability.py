"""Generic machinery for realizability models (§2.3–§2.5).

A realizability model interprets each *source* type as a set of *target*
terms.  Concretely every case-study model in this repository provides:

* a **value relation** ``V[[τ]]`` — a predicate over (world, target value);
* an **expression relation** ``E[[τ]]`` — a predicate over (world, target
  term) defined by running the target machine for at most ``W.k`` steps and
  checking the result against ``V[[τ]]``;
* **soundness checkers** that sample/enumerate inhabitants and verify the
  statements of Lemma 3.1 (convertibility soundness) and Theorems 3.2–3.4
  (fundamental property and type safety) up to a bound.

This module provides the shared scaffolding: the result record returned by
the bounded checkers and the counterexamples it collects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List


@dataclass
class Counterexample:
    """A witness that a bounded soundness check failed."""

    description: str
    source_type: Any = None
    target_term: Any = None
    detail: str = ""

    def __str__(self) -> str:
        parts = [self.description]
        if self.source_type is not None:
            parts.append(f"type: {self.source_type}")
        if self.target_term is not None:
            parts.append(f"term: {self.target_term}")
        if self.detail:
            parts.append(self.detail)
        return " | ".join(parts)


@dataclass
class CheckReport:
    """The outcome of a bounded logical-relation check."""

    name: str
    checked: int = 0
    counterexamples: List[Counterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def record_success(self, count: int = 1) -> None:
        self.checked += count

    def record_failure(self, counterexample: Counterexample) -> None:
        self.counterexamples.append(counterexample)

    def summary(self) -> str:
        status = "OK" if self.ok else f"FAILED ({len(self.counterexamples)} counterexamples)"
        return f"[{status}] {self.name}: {self.checked} membership checks"

    def __str__(self) -> str:
        lines = [self.summary()]
        lines.extend(f"  - {ce}" for ce in self.counterexamples)
        return "\n".join(lines)
