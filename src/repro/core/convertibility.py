"""The convertibility relation ``τ_A ∼ τ_B`` (§2.2), and its rules as rows.

The framework requires the designer of an interoperability system to specify,
explicitly and extensibly, which types of language ``A`` are interconvertible
with which types of language ``B``, and to supply target-level glue code
witnessing each direction of the conversion.

:class:`ConvertibilityRelation` is the generic registry.  A rule is any
named partial function from a pair of types to a :class:`Conversion`, whose
glue is a pair of callables ``apply_a_to_b`` / ``apply_b_to_a`` from the
compiled target term to the converted target term.  Rules are *schematic*:
``τ₁ + τ₂ ∼ [int]`` only applies when its premises ``τ₁ ∼ int`` and
``τ₂ ∼ int`` hold, so rules receive the whole relation and may query it
recursively.  The registry memoizes queries and guards against cycles
introduced by recursive rules.

Each case study writes its rules as rows of a :class:`RuleTable`, the way
the paper states them as inference rules::

    rule("tensor ~ prod", "(tensor τ1 τ2)", "(prod σ1 σ2)", "τ1 ~ σ1", "τ2 ~ σ2",
         a_to_b="(let (p e⁺) (pair (conv τ1 σ1 (fst p)) (conv τ2 σ2 (snd p))))", ...)

* The A and B patterns are types in each language's own syntax, read once
  by its :class:`~repro.util.grammar.Grammar`, where atoms starting with
  ``τ`` or ``σ`` are metavariables.  Every other name in a pattern, such as
  the ``α`` of ``(forall α (-> α (-> α α)))``, matches any name, the same
  one at each occurrence.
* Premises ``"τ1 ~ σ1"`` are instances of the relation, queried in order.
* ``side`` is an optional named predicate on the metavariables' values.
* A glue template is a term of the target machine, read by that machine's
  glue grammar: ``e⁺`` is the compiled term being converted, and
  ``(conv τ1 σ1 e)`` converts ``e`` with premise ``τ1 ~ σ1``, from ``τ1``
  to ``σ1``; ``(conv σ1 τ1 e)`` is the premise's backward direction.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import ConvertibilityError, ParseError

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
    rule_name: str


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
        return self._matcher(type_a, type_b, relation)

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


# -- rules as rows ---------------------------------------------------------------


class Premise:
    """``(conv x y e)`` in a glue template: convert ``arg`` from ``x`` to ``y``."""

    __slots__ = ("source", "target", "arg")

    def __init__(self, source: str, target: str, arg: Any) -> None:
        self.source, self.target, self.arg = source, target, arg


#: ``e⁺`` in a glue template: the compiled term being converted.
HOLE = object()


def hole_or(variable: Callable[[str], Any]) -> Callable[[str], Any]:
    """A glue grammar's variable entry: ``e⁺`` reads as :data:`HOLE`."""
    return lambda name: HOLE if name == "e⁺" else variable(name)


Bindings = Dict[str, Any]
Builder = Callable[[Any, List[Conversion]], Any]


def _pattern_grammar(grammar: Any) -> Any:
    """A copy of ``grammar`` whose types read ``τ…``/``σ…`` atoms as
    metavariables, which are their names: a pattern binds every name it holds."""
    patterns = copy.copy(grammar)
    patterns.types = copy.copy(grammar.types)
    plain = grammar.types.variable

    def variable(text: str) -> Any:
        if text[0] in "τσ":
            return text
        if plain is None:
            raise ParseError(f"unknown {grammar.name} type {text!r} in a rule pattern")
        return plain(text)

    patterns.types.variable = variable
    if grammar.foreign is not None:
        patterns.foreign = _pattern_grammar(grammar.foreign)
    return patterns


def _match(pattern: Any, value: Any, bound: Bindings) -> bool:
    """Match ``value`` against ``pattern``, extending ``bound``."""
    if isinstance(pattern, str):  # a metavariable or a bound name
        if pattern in bound:
            return bound[pattern] == value
        bound[pattern] = value
        return True
    if pattern.__class__ is not value.__class__:
        return False
    return all(_match(p, v, bound) for p, v in zip(vars(pattern).values(), vars(value).values()))


def _instantiate(pattern: Any, bound: Bindings) -> Any:
    if isinstance(pattern, str):
        return bound.get(pattern, pattern)
    fields = vars(pattern).values()
    return pattern.__class__(*[_instantiate(field, bound) for field in fields]) if fields else pattern


def _builder(node: Any, premises: Dict[Tuple[str, str], Tuple[int, bool]]) -> Optional[Builder]:
    """A function ``(e⁺, premise conversions) → term`` rebuilding ``node``,
    or None when ``node`` holds no hole and no premise call, so is its own value.

    A tuple is a StackLang program: a hole or premise value inside one, itself
    a program, is spliced in.
    """
    if node is HOLE:
        return lambda hole, glue: hole
    if node.__class__ is Premise:
        key = (node.source, node.target)
        if key not in premises:
            raise ParseError(f"glue template converts {key[0]} to {key[1]}, which no premise relates")
        index, forward = premises[key]
        arg = _builder(node.arg, premises) or (lambda hole, glue, value=node.arg: value)
        if forward:
            return lambda hole, glue: glue[index].apply_a_to_b(arg(hole, glue))
        return lambda hole, glue: glue[index].apply_b_to_a(arg(hole, glue))
    if node.__class__ is tuple:
        builds = [_builder(item, premises) for item in node]
        if not any(builds):
            return None
        parts: List[Any] = []  # builders, and runs of constant items as lists
        for build, item in zip(builds, node):
            if build is not None:
                parts.append(build)
            elif parts and parts[-1].__class__ is list:
                parts[-1].append(item)
            else:
                parts.append([item])

        def splice(hole: Any, glue: List[Conversion]) -> Tuple[Any, ...]:
            out: List[Any] = []
            for part in parts:
                if part.__class__ is list:
                    out.extend(part)
                else:
                    value = part(hole, glue)
                    if value.__class__ is tuple:
                        out.extend(value)
                    else:
                        out.append(value)
            return tuple(out)

        return splice
    if not hasattr(node, "__dataclass_fields__"):
        return None
    fields = list(vars(node).values())
    builds = [_builder(field, premises) for field in fields]
    if not any(builds):
        return None
    cls = node.__class__
    parts = [build or (lambda hole, glue, value=field: value) for build, field in zip(builds, fields)]
    return lambda hole, glue: cls(*[part(hole, glue) for part in parts])


def _glue(template: Builder, premises: List[Conversion]) -> GlueFn:
    """Instantiate ``template`` with the premises' glue, once; the result
    puts each compiled term where the template has ``e⁺``."""
    term = template(HOLE, premises)
    fill = _builder(term, {})
    if fill is None:
        return lambda compiled: term
    return lambda compiled: fill(compiled, premises)


class RuleTable:
    """Reads one system's rules, written as rows, into :class:`ConvertibilityRule` s.

    ``grammar_a`` and ``grammar_b`` read the two languages' type patterns;
    ``glue`` is the target machine's glue grammar, which reads templates.
    Calling the table with one row returns that row's rule.
    """

    def __init__(self, grammar_a: Any, grammar_b: Any, glue: Any) -> None:
        self.patterns_a = _pattern_grammar(grammar_a)
        self.patterns_b = _pattern_grammar(grammar_b)
        self.glue = glue

    def __call__(
        self,
        name: str,
        type_a: str,
        type_b: str,
        *premises: str,
        side: Optional[Callable[[Bindings], bool]] = None,
        a_to_b: str = "e⁺",
        b_to_a: str = "e⁺",
    ) -> ConvertibilityRule:
        pattern_a = self.patterns_a.parse_type(type_a)
        pattern_b = self.patterns_b.parse_type(type_b)
        pairs = [premise.split(" ~ ") for premise in premises]
        premise_patterns = [(self.patterns_a.parse_type(a), self.patterns_b.parse_type(b)) for a, b in pairs]
        directions: Dict[Tuple[str, str], Tuple[int, bool]] = {}
        for index, (a, b) in enumerate(pairs):
            directions[(a, b)], directions[(b, a)] = (index, True), (index, False)
        forward, backward = (self._template(template, directions) for template in (a_to_b, b_to_a))

        def matcher(query_a: Any, query_b: Any, relation: ConvertibilityRelation) -> Optional[Conversion]:
            bound: Bindings = {}
            if not (_match(pattern_a, query_a, bound) and _match(pattern_b, query_b, bound)):
                return None
            if side is not None and not side(bound):
                return None
            glue = [relation.query(_instantiate(a, bound), _instantiate(b, bound)) for a, b in premise_patterns]
            if any(conversion is None for conversion in glue):
                return None
            return Conversion(query_a, query_b, _glue(forward, glue), _glue(backward, glue), name)

        return ConvertibilityRule(name, matcher)

    def _template(self, text: str, directions: Dict[Tuple[str, str], Tuple[int, bool]]) -> Builder:
        term = self.glue.parse_expr(text)
        return _builder(term, directions) or (lambda hole, glue: term)
