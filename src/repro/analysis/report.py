"""The structured results of the per-node static-analysis framework.

Everything in this module is deliberately *plain data*: frozen dataclasses
of strings, ints, bools, and tuples.  A report pickles (so it rides inside
:class:`~repro.core.language.CompiledUnit` through the pipeline LRU and the
cross-process artifact store) and serializes to JSON (``to_dict``), and it
never holds live objects — types are stringified, glue closures stay in the
boundary hooks where they belong.

Three result families:

* :class:`CrossingSite` — one statically enumerated cross-language boundary,
  with the host/foreign type pair and (when resolved) the convertibility
  rule that witnessed it;
* :class:`EffectSummary` — the conservative effect/purity facts for a
  compiled target program: may it allocate, read or write references,
  trigger a collection, fail, or diverge;
* :class:`StackIssue` — one structured finding of the StackLang
  stack-effect/arity verifier (definite underflow is an error; a branch
  whose arms disagree on their stack effect is a warning).

:class:`AnalysisReport` bundles them with the step-cost estimate the serving
layer uses as an admission/placement hint.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Tuple


@dataclass(frozen=True)
class CrossingSite:
    """One cross-language boundary found by static crossing enumeration."""

    #: The language whose context contains the boundary term.
    host_language: str
    #: The host-side annotation ``τ`` of ``⦇e⦈^τ`` (stringified).
    host_type: str
    #: The foreign type the embedded term was checked at (stringified;
    #: ``"?"`` when enumeration ran without typechecker records).
    foreign_type: str
    #: Name of the convertibility rule witnessing the crossing, when the
    #: glue was statically pre-resolved (``None`` otherwise).
    rule: Optional[str] = None
    #: Boundary nesting depth: 0 for a top-level crossing, 1 for a crossing
    #: inside another boundary's foreign term, and so on.
    depth: int = 0


@dataclass(frozen=True)
class EffectSummary:
    """Conservative (may-) effect facts about one compiled target program.

    Every flag is an over-approximation: ``False`` is a guarantee (the
    program provably does not do it), ``True`` only means the analysis could
    not rule it out.  ``may_diverge`` in particular is syntactic — any
    application/call can in principle loop, so only programs without them
    are certified terminating.
    """

    allocates: bool = False
    reads_refs: bool = False
    writes_refs: bool = False
    calls_gc: bool = False
    may_fail: bool = False
    may_diverge: bool = False

    def effect_free(self) -> bool:
        """True when the program provably has no effect of any kind."""
        return not (
            self.allocates
            or self.reads_refs
            or self.writes_refs
            or self.calls_gc
            or self.may_fail
            or self.may_diverge
        )


@dataclass(frozen=True)
class StackIssue:
    """One structured finding of the StackLang stack-effect verifier."""

    #: ``"underflow"`` (definite: the instruction pops more values than the
    #: stack can hold at that point) or ``"branch-mismatch"`` (the two arms
    #: of an ``if0`` leave provably different stack depths).
    kind: str
    #: Instruction path from the program root, e.g. ``"2.then.0"``.
    location: str
    #: Values the instruction needs on the stack.
    needed: int
    #: Values provably available there.
    available: int
    message: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.location}: {self.message}"


@dataclass(frozen=True)
class AnalysisReport:
    """The full static-analysis report for one compiled unit."""

    #: Source language of the analyzed unit.
    language: str
    #: Target the unit compiled to (``"lcvm"`` or ``"stacklang"``).
    target: str
    #: Node (LCVM) or instruction (StackLang) count of the compiled code.
    node_count: int
    #: Statically enumerated cross-language boundary sites.
    crossings: Tuple[CrossingSite, ...] = ()
    effects: EffectSummary = field(default_factory=EffectSummary)
    #: Conservative *lower bound* on machine transitions: each compiled
    #: node/instruction costs at least one.  When ``effects.may_diverge`` is
    #: True this is a floor, not a ceiling — the serving layer treats it as
    #: a relative weight for placement, never as a fuel substitute.
    estimated_steps: int = 0
    #: True when the target-level verifier found no errors (LCVM programs
    #: are tree-structured and always verify; StackLang programs verify when
    #: the stack-effect checker proves no definite underflow).
    verified: bool = True
    errors: Tuple[StackIssue, ...] = ()
    warnings: Tuple[StackIssue, ...] = ()

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def to_dict(self) -> Dict[str, Any]:
        """The report as JSON-ready plain dicts (the wire/CLI shape)."""
        payload = asdict(self)
        payload["crossing_count"] = self.crossing_count
        payload["crossings"] = [asdict(site) for site in self.crossings]
        payload["errors"] = [asdict(issue) for issue in self.errors]
        payload["warnings"] = [asdict(issue) for issue in self.warnings]
        return payload

    def summary(self) -> str:
        """A short human-readable rendering (the ``tools/analyze.py`` view)."""
        effect_bits = [
            name
            for name, flag in (
                ("alloc", self.effects.allocates),
                ("read", self.effects.reads_refs),
                ("write", self.effects.writes_refs),
                ("gc", self.effects.calls_gc),
                ("fail?", self.effects.may_fail),
                ("diverge?", self.effects.may_diverge),
            )
            if flag
        ]
        lines = [
            f"language {self.language} -> target {self.target}",
            f"nodes {self.node_count}, estimated steps >= {self.estimated_steps}",
            f"crossings {self.crossing_count}",
            "effects " + (", ".join(effect_bits) if effect_bits else "none"),
            f"verified {self.verified}",
        ]
        lines.extend(f"  error: {issue}" for issue in self.errors)
        lines.extend(f"  warning: {issue}" for issue in self.warnings)
        return "\n".join(lines)
