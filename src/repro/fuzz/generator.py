"""Seeded, size-bounded generation of well-typed multi-language programs.

One generator drives all three case-study systems.  Every emitted
:class:`FuzzCase` is *well-typed by construction*: programs are assembled
from per-system template grammars whose holes are all of type ``int`` and
whose templates map ``int`` subterms to ``int`` terms, so any composition
typechecks.  The templates were chosen to stress exactly what the
differential oracle compares:

* **deep boundary crossings** — every system has templates that bounce
  through the foreign language (the same shapes as
  :mod:`repro.util.workloads`, but randomly composed instead of linearly
  nested);
* **GC-heavy allocation churn** — reference cells allocated, written, read,
  and immediately dropped, so the raw post-``callgc`` heap comparison has
  garbage to disagree about;
* **frame-rooted cells** — a live cell whose only GC root, at the
  ``callgc`` before an allocation, is the environment of a continuation
  frame (``framegc``), so a compiled machine that skips frame environments
  frees a cell the program still reads;
* **divergent runs** — closed Landin's-knot programs (a reference cell tied
  back through itself) that loop forever; every backend must report
  ``out_of_fuel`` under the case's deliberately small fuel budget;
* **expected failures** — ill-typed programs tagged with the *class* of the
  structured frontend error they must raise (``TypeCheckError``,
  ``ScopeError``, and — affine system only — ``LinearityError`` for
  affine-variable reuse).

Generation is deterministic: the same ``seed`` produces the same case
sequence, byte for byte, so CI failures replay locally.  Cases carry their
construction tree, which the greedy shrinker walks; cases loaded back from
a corpus file carry only the rendered source (the tree is not needed to
replay, only to shrink).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Fuel for ordinary generated cases: generous, the bounded sizes stay far
#: below it on every backend granularity.
DEFAULT_FUEL = 250_000
#: Fuel for divergent cases: small enough that every backend runs out,
#: large enough to take several scheduler slices first.
DIVERGENT_FUEL = 2_000

#: Node-count ceiling for generated trees.  The crossing templates nest a
#: handful of parser levels per node and the recursive s-expression parsers
#: cap out near depth ~80, so this stays comfortably below that.
MAX_NODES = 14

SYSTEM_NAMES = ("refs", "affine", "l3")

# ---------------------------------------------------------------------------
# Template grammars (every hole and every result is an ``int`` term)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Template:
    """One ``int``-typed production: a format string with ``arity`` holes."""

    name: str
    pattern: str
    arity: int


@dataclass(frozen=True)
class Node:
    """A generated expression tree: a template applied to child trees.

    Leaves carry ``literal`` (an integer literal's spelling) instead of a
    template.  Trees render to source deterministically and are what the
    shrinker rewrites.
    """

    template: Optional[Template] = None
    children: Tuple["Node", ...] = ()
    literal: Optional[str] = None

    def render(self) -> str:
        if self.literal is not None:
            return self.literal
        assert self.template is not None
        return self.template.pattern.format(*(child.render() for child in self.children))

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)


def leaf(number: int) -> Node:
    return Node(literal=str(number))


#: §3 host language RefLL: crossings into RefHL, arrays, reference churn.
REFS_TEMPLATES = (
    Template("cross", "(+ 1 (boundary int (if (boundary bool {0}) false true)))", 1),
    Template("add", "(+ {0} {1})", 2),
    Template("deref", "(! (ref {0}))", 1),
    Template("churn", "(! (ref (! (ref {0}))))", 1),
    Template("setref", "(set! (ref {0}) {1})", 2),
    Template("apply", "((lam (x int) (+ x {0})) {1})", 2),
    Template("if0", "(if0 {0} {1} {2})", 3),
    Template("index", "(idx (array {0} {1}) 0)", 2),
)

#: MiniML compiles ``ref`` to a ``callgc`` followed by the allocation.  When
#: the inner ``ref`` collects, ``r`` is bound only in the environment of the
#: frame waiting to add ``(! r)``: the one root keeping its cell alive.
_FRAME_GC = "(let (r (ref {0})) (+ (! (ref {1})) (! r)))"

#: §4 host language MiniML: crossings into Affi (plain, through a dynamic
#: affine function, through a tensor destructuring), cells, pairs.
AFFINE_TEMPLATES = (
    Template("cross", "(boundary int (boundary int {0}))", 1),
    Template("crossfn", "(boundary int ((dlam (x int) x) (boundary int {0})))", 1),
    Template("crosstensor", "(boundary int (let-tensor (a b) (tensor (boundary int {0}) 3) a))", 1),
    Template("add", "(+ {0} {1})", 2),
    Template("deref", "(! (ref {0}))", 1),
    Template("refcell", "(let (r (ref {0})) (let (u (set! r {1})) (! r)))", 2),
    Template("apply", "((lam (x int) (+ x x)) {0})", 1),
    Template("pair", "(fst (pair {0} {1}))", 2),
    Template("churn", "(! (ref (! (ref {0}))))", 1),
    Template("framegc", _FRAME_GC, 2),
)

#: §5 host language MiniML: crossings that dereference and mutate
#: L3-allocated cells, plus the shared pure/cell templates.
L3_TEMPLATES = (
    Template("cross", "(+ {0} (! (boundary (ref int) (new true))))", 1),
    Template("crosscell", "(let (r (boundary (ref int) (new false))) (let (u (set! r {0})) (! r)))", 1),
    Template("add", "(+ {0} {1})", 2),
    Template("deref", "(! (ref {0}))", 1),
    Template("refcell", "(let (r (ref {0})) (let (u (set! r {1})) (! r)))", 2),
    Template("pair", "(snd (pair {0} {1}))", 2),
    Template("churn", "(! (ref (! (ref {0}))))", 1),
    Template("framegc", _FRAME_GC, 2),
)

TEMPLATES: Dict[str, Tuple[Template, ...]] = {
    "refs": REFS_TEMPLATES,
    "affine": AFFINE_TEMPLATES,
    "l3": L3_TEMPLATES,
}

#: The host language each system's generated programs are written in.
HOST_LANGUAGE = {"refs": "RefLL", "affine": "MiniML", "l3": "MiniML"}

#: Landin's knot per target: a function cell rewired to call through itself,
#: then forced — well-typed, genuinely divergent on every backend.
_REFLL_KNOT = (
    "((lam (r (ref (-> int int)))"
    " ((lam (u int) ((! r) 0))"
    "  (set! r (lam (x int) ((! r) x)))))"
    " (ref (lam (x int) x)))"
)
_MINIML_KNOT = (
    "((lam (r (ref (-> int int)))"
    " ((lam (u unit) ((! r) 0))"
    "  (set! r (lam (x int) ((! r) x)))))"
    " (ref (lam (x int) x)))"
)

DIVERGENT_SOURCES = {
    "refs": ("RefLL", _REFLL_KNOT),
    "affine": ("MiniML", _MINIML_KNOT),
    "l3": ("MiniML", _MINIML_KNOT),
}

#: Expected-failure templates: ``(language, pattern-with-one-int-hole,
#: expected structured error class name)``.  The affine system contributes
#: the paper's own headline failure: an affine variable used twice.
STATIC_ERROR_TEMPLATES: Dict[str, Tuple[Tuple[str, str, str], ...]] = {
    "refs": (
        ("RefLL", "(+ {0} (lam (x int) x))", "TypeCheckError"),
        ("RefLL", "(+ {0} fuzz_unbound)", "ScopeError"),
    ),
    "affine": (
        ("Affi", "(let-tensor (a b) (tensor {0} 2) (tensor a a))", "LinearityError"),
        ("MiniML", "(+ {0} (lam (x int) x))", "TypeCheckError"),
        ("MiniML", "(+ {0} fuzz_unbound)", "ScopeError"),
    ),
    "l3": (
        ("MiniML", "(+ {0} (lam (x int) x))", "TypeCheckError"),
        ("MiniML", "(+ {0} fuzz_unbound)", "ScopeError"),
    ),
}


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


@dataclass
class FuzzCase:
    """One generated program plus everything the oracle needs to judge it."""

    system: str
    language: str
    source: str
    #: ``"ok"`` (must run and agree everywhere), ``"divergent"`` (every
    #: backend must report ``out_of_fuel``), or ``"static-error"`` (the
    #: frontend must raise exactly ``expected_error``).
    kind: str = "ok"
    expected_error: Optional[str] = None
    fuel: int = DEFAULT_FUEL
    #: The generator seed and per-case index, for replay provenance.
    seed: int = 0
    index: int = 0
    #: The construction tree (``None`` for corpus-loaded cases; only the
    #: shrinker needs it).
    tree: Optional[Node] = field(default=None, repr=False, compare=False)

    def label(self) -> str:
        return f"{self.system}/{self.language}#{self.index} ({self.kind})"

    def with_tree(self, tree: Node) -> "FuzzCase":
        return replace(self, tree=tree, source=tree.render())

    def to_dict(self) -> Dict[str, Any]:
        """The corpus-file form: everything replay needs, no tree."""
        return {
            "system": self.system,
            "language": self.language,
            "source": self.source,
            "kind": self.kind,
            "expected_error": self.expected_error,
            "fuel": self.fuel,
            "seed": self.seed,
            "index": self.index,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FuzzCase":
        return cls(
            system=payload["system"],
            language=payload["language"],
            source=payload["source"],
            kind=payload.get("kind", "ok"),
            expected_error=payload.get("expected_error"),
            fuel=int(payload.get("fuel", DEFAULT_FUEL)),
            seed=int(payload.get("seed", 0)),
            index=int(payload.get("index", 0)),
        )


# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------


class FuzzGenerator:
    """Deterministic case stream: same seed, same cases, same order."""

    def __init__(
        self,
        seed: int = 0,
        systems: Sequence[str] = SYSTEM_NAMES,
        max_nodes: int = MAX_NODES,
    ):
        unknown = set(systems) - set(SYSTEM_NAMES)
        if unknown:
            raise ValueError(f"unknown systems {sorted(unknown)}; known: {list(SYSTEM_NAMES)}")
        if max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
        self.seed = seed
        self.systems = tuple(systems)
        self.max_nodes = max_nodes
        self._rng = random.Random(seed)
        self._index = 0

    # -- tree construction ----------------------------------------------------

    def _build_tree(self, system: str, budget: int) -> Node:
        """A random tree of at most ``budget`` nodes, every hole an int."""
        rng = self._rng
        if budget <= 1:
            return leaf(rng.randrange(10))
        # Only templates whose holes fit in the remaining budget keep the
        # ``size() <= max_nodes`` bound exact (every grammar has arity-1
        # templates, so budget >= 2 always has a candidate).
        fitting = [t for t in TEMPLATES[system] if t.arity <= budget - 1]
        template = rng.choice(fitting)
        remaining = budget - 1
        if template.arity == 0:
            return Node(template=template)
        # Split the remaining budget across the holes (each gets >= 1).
        shares = [1] * template.arity
        for _ in range(remaining - template.arity):
            shares[rng.randrange(template.arity)] += 1
        children = tuple(self._build_tree(system, share) for share in shares)
        return Node(template=template, children=children)

    # -- case construction ----------------------------------------------------

    def _ok_case(self, system: str) -> FuzzCase:
        budget = self._rng.randint(2, self.max_nodes)
        tree = self._build_tree(system, budget)
        return FuzzCase(
            system=system,
            language=HOST_LANGUAGE[system],
            source=tree.render(),
            kind="ok",
            fuel=DEFAULT_FUEL,
            seed=self.seed,
            index=self._index,
            tree=tree,
        )

    def _divergent_case(self, system: str) -> FuzzCase:
        language, source = DIVERGENT_SOURCES[system]
        return FuzzCase(
            system=system,
            language=language,
            source=source,
            kind="divergent",
            fuel=DIVERGENT_FUEL,
            seed=self.seed,
            index=self._index,
        )

    def _static_error_case(self, system: str) -> FuzzCase:
        language, pattern, expected = self._rng.choice(STATIC_ERROR_TEMPLATES[system])
        return FuzzCase(
            system=system,
            language=language,
            source=pattern.format(self._rng.randrange(10)),
            kind="static-error",
            expected_error=expected,
            fuel=DEFAULT_FUEL,
            seed=self.seed,
            index=self._index,
        )

    def next_case(self) -> FuzzCase:
        """The next case: systems round-robin, kinds by weighted draw."""
        system = self.systems[self._index % len(self.systems)]
        roll = self._rng.random()
        if roll < 0.08:
            case = self._divergent_case(system)
        elif roll < 0.20:
            case = self._static_error_case(system)
        else:
            case = self._ok_case(system)
        self._index += 1
        return case

    def generate(self, count: int) -> Iterator[FuzzCase]:
        for _ in range(count):
            yield self.next_case()

    def take(self, count: int) -> List[FuzzCase]:
        return list(self.generate(count))
