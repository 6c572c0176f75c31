"""The convertibility relation ``τ_A ∼ τ_B`` (§2.2).

The framework requires the designer of an interoperability system to specify,
explicitly and extensibly, which types of language ``A`` are interconvertible
with which types of language ``B``, and to supply target-level glue code
witnessing each direction of the conversion.

This module provides the generic registry.  It is deliberately agnostic about
what "glue code" is: for the StackLang case study glue is a program suffix
(instructions appended after the producer), while for the LCVM case studies
glue is a function from target expressions to target expressions.  Both are
packaged as callables ``apply_a_to_b`` / ``apply_b_to_a`` that take the
compiled target term and return the converted target term.

Rules are *schematic*: a rule such as ``τ₁ + τ₂ ∼ [int]`` only applies when
its premises (``τ₁ ∼ int`` and ``τ₂ ∼ int``) hold, so rules receive the whole
relation and may query it recursively.  The registry memoizes queries and
guards against cycles introduced by recursive rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import ConvertibilityError

GlueFn = Callable[[Any], Any]


@dataclass
class Conversion:
    """A witnessed instance of ``type_a ∼ type_b``.

    ``apply_a_to_b`` implements ``C[τ_A ↦ τ_B]``: given a compiled target term
    that behaves as ``type_a``, it returns a target term that behaves as
    ``type_b`` (and vice versa for ``apply_b_to_a``).  ``rule_name`` records
    which registered rule produced the conversion, which the soundness
    checkers use for reporting.
    """

    type_a: Any
    type_b: Any
    apply_a_to_b: GlueFn
    apply_b_to_a: GlueFn
    rule_name: str = "<anonymous>"


class ConvertibilityRule:
    """One schematic rule of the convertibility judgment.

    A rule is a named partial function: ``try_apply`` returns a
    :class:`Conversion` when the rule matches the requested pair of types and
    ``None`` otherwise.  Rules may consult ``relation`` recursively to
    discharge premises.
    """

    def __init__(self, name: str, matcher: Callable[[Any, Any, "ConvertibilityRelation"], Optional[Conversion]]):
        self.name = name
        self._matcher = matcher

    def try_apply(self, type_a: Any, type_b: Any, relation: "ConvertibilityRelation") -> Optional[Conversion]:
        conversion = self._matcher(type_a, type_b, relation)
        if conversion is not None and conversion.rule_name == "<anonymous>":
            conversion.rule_name = self.name
        return conversion

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConvertibilityRule({self.name!r})"


@dataclass
class ConvertibilityRelation:
    """The extensible judgment ``τ_A ∼ τ_B`` for a fixed pair of languages.

    Every :meth:`query` is a glue lookup, and the relation counts them:
    ``hits`` (memo dict hits) and ``misses`` (full rule derivations).
    Boundaries query it once, while typechecking; compiling a boundary uses
    the glue that query resolved, with **no** query at all, and reports it
    via :meth:`count_preresolved`.  :meth:`stats` surfaces the counters
    through ``InteropSystem.cache_stats()``.
    """

    language_a: str
    language_b: str
    rules: List[ConvertibilityRule] = field(default_factory=list)
    hits: int = 0
    misses: int = 0
    preresolved: int = 0
    _memo: Dict[Tuple[Any, Any], Optional[Conversion]] = field(default_factory=dict, repr=False)
    _in_progress: set = field(default_factory=set, repr=False)
    #: Queries whose evaluation hit a cycle cutoff in some premise.  Their
    #: negative results are path-dependent and must not be memoized.
    _tainted: set = field(default_factory=set, repr=False)

    def register(self, rule: ConvertibilityRule) -> ConvertibilityRule:
        """Add a rule; later rules take precedence over earlier ones."""
        self.rules.append(rule)
        self._memo.clear()
        return rule

    def register_pair(self, type_a: Any, type_b: Any, a_to_b: GlueFn, b_to_a: GlueFn, name: Optional[str] = None) -> None:
        """Register a non-schematic rule for one concrete pair of types."""
        rule_name = name or f"{type_a} ~ {type_b}"

        def matcher(query_a, query_b, _relation):
            if query_a == type_a and query_b == type_b:
                return Conversion(type_a, type_b, a_to_b, b_to_a, rule_name)
            return None

        self.register(ConvertibilityRule(rule_name, matcher))

    def query(self, type_a: Any, type_b: Any) -> Optional[Conversion]:
        """Return a conversion witnessing ``type_a ∼ type_b``, or None."""
        key = (type_a, type_b)
        if key in self._memo:
            self.hits += 1
            return self._memo[key]
        if key in self._in_progress:
            # A recursive premise loops back on itself; treat as not derivable
            # along this path (the relation is inductively generated).  Every
            # query currently on the stack is an ancestor of this cutoff, so a
            # *negative* answer for any of them only means "not derivable from
            # this position" — taint them all so those answers are not cached.
            self._tainted.update(self._in_progress)
            return None
        self._in_progress.add(key)
        self.misses += 1
        try:
            found: Optional[Conversion] = None
            for rule in reversed(self.rules):
                found = rule.try_apply(type_a, type_b, self)
                if found is not None:
                    break
            # A successful derivation never rests on a cutoff (cutoffs only
            # prune), so positive results are always safe to memoize; negative
            # results are cached only when no premise hit a cycle.
            if found is not None or key not in self._tainted:
                self._memo[key] = found
            return found
        finally:
            self._in_progress.discard(key)
            self._tainted.discard(key)

    def convertible(self, type_a: Any, type_b: Any) -> bool:
        """Return True iff ``type_a ∼ type_b`` is derivable."""
        return self.query(type_a, type_b) is not None

    def require(self, type_a: Any, type_b: Any) -> Conversion:
        """Like :meth:`query` but raise :class:`ConvertibilityError` on failure."""
        conversion = self.query(type_a, type_b)
        if conversion is None:
            raise ConvertibilityError(
                f"no convertibility rule relates {self.language_a} type {type_a} "
                f"with {self.language_b} type {type_b}"
            )
        return conversion

    # -- glue-lookup accounting ------------------------------------------------

    def count_preresolved(self) -> None:
        """Record one boundary compiled from the glue its typecheck resolved.

        Called by :meth:`repro.core.boundary.Boundaries.compile`, so
        compiling the site performed **zero** :meth:`query` lookups.  The
        tier-1 analysis tests compare this counter against ``lookups`` to
        prove the compile phase makes none.
        """
        self.preresolved += 1

    def stats(self) -> Dict[str, int]:
        """Glue-lookup counters: dynamic queries vs. statically served sites."""
        return {
            "entries": len(self._memo),
            "hits": self.hits,
            "misses": self.misses,
            "lookups": self.hits + self.misses,
            "preresolved": self.preresolved,
        }

    def reset_stats(self) -> None:
        """Zero the lookup counters (the memo itself is left intact)."""
        self.hits = 0
        self.misses = 0
        self.preresolved = 0
