"""Deep boundary-crossing workload generators shared by benchmarks and tests.

One generator per case study, each producing a source program that bounces
across the language boundary ``depth`` times — the standard stress shape for
backend comparisons, the serving benchmark, and the serving tests.  Keeping
them here (rather than copied per call site) guarantees every consumer
measures the *same* program family.

Keep ``depth`` within ``repro.util.grammar.MAX_NESTING``, the deepest list
nesting any frontend reads: depth 90 on refs, 120 on affine and 357 on l3.
Deeper programs end in a ``ParseError``, because the typecheckers and
compilers after the reader recurse on the tree too.
"""

from __future__ import annotations


def nested_refll_boundary(depth: int) -> str:
    """§3: a RefLL int expression that bounces through RefHL ``depth`` times."""
    source = "1"
    for _ in range(depth):
        source = f"(+ 1 (boundary int (if (boundary bool {source}) false true)))"
    return source


def nested_ml_affi_boundary(depth: int) -> str:
    """§4: a MiniML int expression that bounces through Affi ``depth`` times."""
    source = "1"
    for _ in range(depth):
        source = f"(+ 1 (boundary int (boundary int {source})))"
    return source


def nested_ml_l3_boundary(depth: int) -> str:
    """§5: a MiniML sum that dereferences an L3-allocated cell ``depth`` times."""
    source = "1"
    for _ in range(depth):
        source = f"(+ {source} (! (boundary (ref int) (new true))))"
    return source
