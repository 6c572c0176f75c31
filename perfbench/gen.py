"""Seeded input streams for the benchmark, each program with its reference value.

Every program is built as a tree of ``int``-typed templates, rendered to
source, and evaluated *in Python from the same tree*: each template carries
the integer function it denotes, so the expected value of a program never
comes from a ``repro`` backend.  The semantics encoded here are the paper's
conversions as the case studies implement them:

* RefLL ``int`` to RefHL ``bool`` maps ``0`` to ``true`` and anything else to
  ``false``; RefHL ``bool`` back to ``int`` maps ``true`` to ``0`` and
  ``false`` to ``1``.  A converted ``bool`` keeps the integer's
  representation, so templates only return ``bool`` literals they chose.
  RefLL ``set!`` returns ``0``.
* L3 ``(new true)`` read as a MiniML ``int`` cell holds ``0``; ``(new
  false)`` holds ``1``.

Three streams, all deterministic in the seed and independent of the program
under test (this module imports nothing from ``repro``):

* :func:`cold_stream` -- never-repeated programs for ``cold-mix``: systems
  in fixed round-robin order, trees in a narrow node-count band, s-expression
  depth capped under the recursive parsers' limit.
* :func:`warm_programs` -- the small cache-resident set for ``warm-loop``:
  a boundary-crossing function iterated ``2**k`` times by nesting a
  "twice" combinator ``k`` deep, which no optimizer folds.
* :func:`batch_stream` -- batches of eight for ``pool-mix`` and ``net-mix``
  mixing repeats of multi-slice hot programs, recently seen programs and
  fresh ones.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

SYSTEMS = ("refs", "affine", "l3")

#: The host language each system's programs are written in.
LANGUAGE = {"refs": "RefLL", "affine": "MiniML", "l3": "MiniML"}

#: Fresh trees hold between these many template nodes (leaves included).
COLD_NODES = (9, 12)

#: Rendered programs never nest parentheses deeper than this; the recursive
#: parsers fail past about 80.
MAX_DEPTH = 60

#: Fuel for every generated program: far above what any of them needs.
FUEL = 1_000_000


@dataclass(frozen=True)
class Template:
    """An ``int``-typed production with ``arity`` ``int`` holes and its meaning."""

    name: str
    pattern: str
    arity: int
    meaning: Callable[..., int]


def _refs_bool(number: int) -> bool:
    return number == 0


def _refs_int(flag: bool) -> int:
    return 0 if flag else 1


REFS_TEMPLATES = (
    Template(
        "cross",
        "(+ 1 (boundary int (if (boundary bool {0}) false true)))",
        1,
        lambda a: 1 + _refs_int(not _refs_bool(a)),
    ),
    Template(
        "cross2",
        "(boundary int (if (boundary bool {0}) (if (boundary bool {1}) true false) false))",
        2,
        lambda a, b: _refs_int(_refs_bool(b) if _refs_bool(a) else False),
    ),
    Template("add", "(+ {0} {1})", 2, lambda a, b: a + b),
    Template("deref", "(! (ref {0}))", 1, lambda a: a),
    Template("churn", "(! (ref (! (ref {0}))))", 1, lambda a: a),
    Template("setref", "(+ 1 (set! (ref {0}) {1}))", 2, lambda a, b: 1),
    Template("apply", "((lam (x int) (+ x {0})) {1})", 2, lambda a, b: b + a),
    Template("if0", "(if0 {0} {1} {2})", 3, lambda a, b, c: b if a == 0 else c),
    Template("index", "(idx (array {0} {1}) 1)", 2, lambda a, b: b),
)

AFFINE_TEMPLATES = (
    Template("cross", "(boundary int (boundary int {0}))", 1, lambda a: a),
    Template("crossfn", "(boundary int ((dlam (x int) x) (boundary int {0})))", 1, lambda a: a),
    Template(
        "crosstensor",
        "(boundary int (let-tensor (a b) (tensor (boundary int {0}) 3) a))",
        1,
        lambda a: a,
    ),
    Template("add", "(+ {0} {1})", 2, lambda a, b: a + b),
    Template("deref", "(! (ref {0}))", 1, lambda a: a),
    Template("refcell", "(let (r (ref {0})) (let (u (set! r {1})) (! r)))", 2, lambda a, b: b),
    Template("apply", "((lam (x int) (+ x x)) {0})", 1, lambda a: a + a),
    Template("pair", "(fst (pair {0} {1}))", 2, lambda a, b: a),
    Template("churn", "(! (ref (! (ref {0}))))", 1, lambda a: a),
)

L3_TEMPLATES = (
    Template("cross", "(+ {0} (! (boundary (ref int) (new true))))", 1, lambda a: a),
    Template("crossone", "(+ {0} (! (boundary (ref int) (new false))))", 1, lambda a: a + 1),
    Template(
        "crosscell",
        "(let (r (boundary (ref int) (new false))) (let (u (set! r {0})) (! r)))",
        1,
        lambda a: a,
    ),
    Template("add", "(+ {0} {1})", 2, lambda a, b: a + b),
    Template("deref", "(! (ref {0}))", 1, lambda a: a),
    Template("refcell", "(let (r (ref {0})) (let (u (set! r {1})) (! r)))", 2, lambda a, b: b),
    Template("pair", "(snd (pair {0} {1}))", 2, lambda a, b: b),
    Template("churn", "(! (ref (! (ref {0}))))", 1, lambda a: a),
)

TEMPLATES: Dict[str, Tuple[Template, ...]] = {
    "refs": REFS_TEMPLATES,
    "affine": AFFINE_TEMPLATES,
    "l3": L3_TEMPLATES,
}


@dataclass(frozen=True)
class Node:
    """A template applied to child trees, or an integer leaf."""

    template: Optional[Template] = None
    children: Tuple["Node", ...] = ()
    literal: int = 0

    def render(self) -> str:
        if self.template is None:
            return str(self.literal)
        return self.template.pattern.format(*(child.render() for child in self.children))

    def value(self) -> int:
        if self.template is None:
            return self.literal
        return self.template.meaning(*(child.value() for child in self.children))


@dataclass(frozen=True)
class Program:
    """One generated submission and the value it must evaluate to."""

    system: str
    source: str
    expected: int
    #: ``"cold"``, ``"warm"``, ``"hot"``, ``"recent"`` or ``"fresh"``.
    kind: str
    #: Template nodes of a generated tree, or ``k`` of an iterated program.
    size: int

    @property
    def language(self) -> str:
        return LANGUAGE[self.system]


def nesting_depth(source: str) -> int:
    depth = deepest = 0
    for char in source:
        if char == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif char == ")":
            depth -= 1
    return deepest


def _tree(rng: random.Random, system: str, budget: int) -> Node:
    """A random tree of exactly ``budget`` nodes (every hole an ``int``)."""
    if budget <= 1:
        return Node(literal=rng.randrange(10))
    fitting = [template for template in TEMPLATES[system] if template.arity <= budget - 1]
    template = rng.choice(fitting)
    shares = [1] * template.arity
    for _ in range(budget - 1 - template.arity):
        shares[rng.randrange(template.arity)] += 1
    return Node(template, tuple(_tree(rng, system, share) for share in shares))


def _fresh(rng: random.Random, position: int, seen: set, kind: str) -> Program:
    """The never-drawn program at ``position`` of a fresh stream.

    The system and the node count follow from the position alone -- systems
    round-robin, sizes cycling through :data:`COLD_NODES` -- so every seed
    gives the same composition and only the trees differ.
    """
    system = SYSTEMS[position % len(SYSTEMS)]
    low, high = COLD_NODES
    size = low + (position // len(SYSTEMS)) % (high - low + 1)
    while True:
        tree = _tree(rng, system, size)
        source = tree.render()
        if source not in seen and nesting_depth(source) <= MAX_DEPTH:
            seen.add(source)
            return Program(system, source, tree.value(), kind, size)


def cold_stream(seed: int) -> Iterator[Program]:
    """Endless never-repeated programs in a fixed system and size order."""
    rng = random.Random(f"cold/{seed}")
    seen: set = set()
    for position in itertools.count():
        yield _fresh(rng, position, seen, "cold")


# -- warm-loop: iterated boundary-crossing functions ---------------------------

#: ``twice g = \\x. g (g x)``; nesting it ``k`` times applies ``g`` ``2**k`` times.
TWICE = "(lam (g (-> int int)) (lam (x int) (g (g x))))"

#: Per system: ``(step function, increment, k)``.  Each function crosses the
#: boundary once per application and adds ``increment``; ``twice`` nested
#: ``k`` deep applies it ``2**k`` times.  The depths give each system a
#: similar share of machine time: an l3 crossing allocates and converts a
#: cell, so one of its steps costs about three times an affine one.
WARM_FUNCTIONS: Dict[str, Tuple[Tuple[str, int, int], ...]] = {
    # (boundary bool (+ y c)) is false for y >= 0, c >= 1, and false
    # converts back to 1.
    "refs": (
        ("(lam (y int) (+ y (boundary int (if (boundary bool (+ y 1)) true false))))", 1, 9),
        ("(lam (y int) (+ (+ y 1) (boundary int (if (boundary bool (+ y 2)) true false))))", 2, 9),
    ),
    "affine": (
        ("(lam (y int) (boundary int (boundary int (+ y 1))))", 1, 10),
        ("(lam (y int) (boundary int ((dlam (z int) z) (boundary int (+ y 2)))))", 2, 8),
    ),
    "l3": (
        ("(lam (y int) (+ y (! (boundary (ref int) (new false)))))", 1, 7),
        ("(lam (y int) (let (r (boundary (ref int) (new true))) (let (u (set! r (+ y 2))) (! r))))", 2, 7),
    ),
}


def _iterated(system: str, function: str, increment: int, depth: int, start: int, kind: str) -> Program:
    applied = function
    for _ in range(depth):
        applied = f"({TWICE} {applied})"
    return Program(system, f"({applied} {start})", start + increment * 2**depth, kind, depth)


def warm_programs(seed: int, shallower: int = 0, kind: str = "warm") -> List[Program]:
    """One iterated program per step function of every system.

    The seed picks each program's starting argument, so the set's
    composition and machine work are the same for every seed; ``shallower``
    takes that many levels off every nesting depth.
    """
    rng = random.Random(f"{kind}/{seed}")
    return [
        _iterated(system, function, increment, depth - shallower, rng.randrange(1000), kind)
        for system in SYSTEMS
        for function, increment, depth in WARM_FUNCTIONS[system]
    ]


def warm_batches(seed: int, programs: Sequence[Program]) -> Iterator[List[Program]]:
    """Endless batches: each a seeded shuffle of the whole warm set."""
    rng = random.Random(f"warm-batches/{seed}")
    while True:
        batch = list(programs)
        rng.shuffle(batch)
        yield batch


# -- pool-mix / net-mix: mixed batches of eight --------------------------------

BATCH = 8
#: Per batch: two copies of one hot program (they coalesce on one VM), two
#: programs first seen a few batches earlier (cached somewhere in the fleet,
#: maybe on another worker), and four never-seen programs.
HOT_COPIES = 2
RECENT = 2
FRESH = BATCH - HOT_COPIES - RECENT
#: Hot programs are the warm-loop set made this many levels shallower: each
#: still runs for several slices, so workers stream checkpoints for it.
HOT_SHALLOWER = 4
#: Recent programs are drawn from the fresh programs of the last this many
#: batches.
RECENT_WINDOW = 8


def batch_stream(seed: int) -> Iterator[List[Program]]:
    """Endless batches of :data:`BATCH` programs from a fixed seeded stream.

    Which hot program and which earlier batch's programs a batch repeats
    follows from its position, so every seed gives the same system and size
    composition; the seed draws the trees, the starting arguments and the
    order within each batch.
    """
    rng = random.Random(f"batch/{seed}")
    seen: set = set()
    positions = itertools.count()
    hot = warm_programs(seed, HOT_SHALLOWER, "hot")
    history: List[List[Program]] = []
    for number in itertools.count():
        batch = [hot[number % len(hot)]] * HOT_COPIES
        for offset in range(RECENT):
            back = 1 + (number + 3 * offset) % RECENT_WINDOW
            if back <= len(history):
                program = history[-back][(number + offset) % FRESH]
                batch.append(replace(program, kind="recent"))
            else:
                batch.append(_fresh(rng, next(positions), seen, "fresh"))
        new = [_fresh(rng, next(positions), seen, "fresh") for _ in range(FRESH)]
        batch += new
        history = (history + [new])[-RECENT_WINDOW:]
        rng.shuffle(batch)
        yield batch


def digest(batches: Sequence[Sequence[Program]]) -> str:
    """A stable fingerprint of an input stream (for the seed checks)."""
    hasher = hashlib.sha256()
    for batch in batches:
        for program in batch:
            hasher.update(f"{program.system}\x00{program.source}\x00{program.expected}\n".encode())
        hasher.update(b"--\n")
    return hasher.hexdigest()
