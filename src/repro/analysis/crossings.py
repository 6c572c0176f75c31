"""Static enumeration of cross-language boundary sites in a source term.

Every source language in the framework represents a crossing the same way —
a ``Boundary`` node carrying ``foreign_term`` (the embedded other-language
term) and ``annotation`` (the host-side type ``τ`` of ``⦇ē⦈^τ``) — so one
generic walk enumerates crossings for all three interop systems without
importing any of their syntaxes.  The walk recurses through plain dataclass
nodes and tuples, flipping the host language each time it passes through a
boundary, and joins each site against the typechecker's records:

* ``boundary_types`` (written by every hooks object, keyed by
  ``id(boundary)``) supplies the foreign type the embedded term was checked
  at;
* ``resolved_rules`` (written by the pre-resolving hooks) supplies the name
  of the convertibility rule whose glue was statically baked into the
  compiled handler for that site.

Each pipeline takes the records its own typecheck wrote and keeps them on
the unit until its report is built, so both maps are populated for every
reachable boundary; the ``"?"`` fallback only appears when the walk is used
standalone on an unchecked term.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.analysis.report import CrossingSite


def _children(node: Any) -> List[Any]:
    """Walkable children of one AST node (dataclass fields and sequence items)."""
    if isinstance(node, (tuple, list)):
        return list(node)
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        return [getattr(node, field.name) for field in dataclasses.fields(node)]
    return []


def _is_boundary(node: Any) -> bool:
    return hasattr(node, "foreign_term") and hasattr(node, "annotation")


def enumerate_crossings(
    term: Any,
    host_language: str,
    languages: Tuple[str, str],
    boundary_types: Optional[Mapping[int, Any]] = None,
    resolved_rules: Optional[Mapping[int, str]] = None,
) -> Tuple[CrossingSite, ...]:
    """All boundary sites in ``term``, in deterministic pre-order.

    ``languages`` is the system's ``(language_a, language_b)`` pair; crossing
    a boundary flips the host between the two.
    """
    types: Mapping[int, Any] = boundary_types or {}
    rules: Mapping[int, str] = resolved_rules or {}
    sites: List[CrossingSite] = []
    # (node, host language, boundary nesting depth), pre-order via a stack.
    todo: List[Tuple[Any, str, int]] = [(term, host_language, 0)]
    while todo:
        node, host, depth = todo.pop()
        if _is_boundary(node):
            foreign = languages[1] if host == languages[0] else languages[0]
            known = types.get(id(node))
            sites.append(
                CrossingSite(
                    host_language=host,
                    host_type=str(node.annotation),
                    foreign_type="?" if known is None else str(known),
                    rule=rules.get(id(node)),
                    depth=depth,
                )
            )
            todo.append((node.foreign_term, foreign, depth + 1))
            continue
        for child in reversed(_children(node)):
            if isinstance(child, (str, int, float, bool)) or child is None:
                continue
            todo.append((child, host, depth))
    return tuple(sites)


def crossing_histogram(sites: Tuple[CrossingSite, ...]) -> Dict[str, int]:
    """Sites per host language (a compact summary for reports and logs)."""
    histogram: Dict[str, int] = {}
    for site in sites:
        histogram[site.host_language] = histogram.get(site.host_language, 0) + 1
    return histogram
