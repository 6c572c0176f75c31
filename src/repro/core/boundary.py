"""The Matthews–Findler boundary rule (§2.1), implemented once for every system.

Each source language in this repository embeds terms of the *other* language
via a boundary form written ``(boundary τ e)`` in the surface syntax.  The
paper gives one rule for such a term ``⦇e⦈^τ``: the embedded term ``e`` is
typechecked by the foreign language's typechecker, the host type ``τ`` and
the foreign type must satisfy ``τ_A ∼ τ_B``, and the compiled foreign term is
wrapped in that conversion's glue.

The boundary AST node lives in each language's syntax module (so that the
language's own visitors see it); every node carries a ``foreign_term`` and
the host-type ``annotation``.  :class:`Boundaries` is the rule itself: each
system's typecheck hooks call :meth:`Boundaries.resolve` once they know the
foreign type, and its compile hooks call :meth:`Boundaries.compile` once the
foreign term is compiled.  What differs per system — which typechecker and
compiler run the foreign term, and any extra side condition — stays in the
system's ``make_system``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, NamedTuple, Tuple

from repro.core.convertibility import ConvertibilityRelation, GlueFn
from repro.core.errors import CompileError, ConvertibilityError


class BoundaryRecords(NamedTuple):
    """What one pipeline's typecheck recorded, keyed by ``id(boundary)``.

    Ids mean nothing in another process, so the records pickle as
    ``(boundary node, foreign type, rule)`` triples and re-key themselves
    on load.  Pickled with the unit's term, each node is the very object
    the unpickled term holds (pickle's memo keeps one copy), so the
    importer's report joins exactly as the publisher's would.
    """

    #: The foreign type each embedded term was checked at.
    types: Dict[int, Any]
    #: The convertibility rule behind each boundary site.
    rules: Dict[int, str]
    #: The boundary node itself, kept for the trip between processes.
    nodes: Dict[int, Any]

    @classmethod
    def from_sites(cls, sites: Iterable[Tuple[Any, Any, str]]) -> "BoundaryRecords":
        records = cls({}, {}, {})
        for node, foreign_type, rule in sites:
            key = id(node)
            records.types[key] = foreign_type
            records.rules[key] = rule
            records.nodes[key] = node
        return records

    def __reduce__(self) -> Tuple[Any, Tuple[Any, ...]]:
        sites = [(node, self.types[key], self.rules[key]) for key, node in self.nodes.items()]
        return (BoundaryRecords.from_sites, (sites,))


class Boundaries:
    """One system's boundary sites: resolved at typecheck, glued at compile.

    Typechecking a boundary derives its conversion, so :meth:`resolve` keeps
    the glue oriented toward the host (plus the foreign type and rule name
    the analysis tier reports, and the node they describe) under
    ``id(boundary)``; :meth:`compile` pops that glue, so compiling a site
    performs no relation lookup at all.  The frontends call
    :meth:`take_records` at the end of every pipeline, rejected ones
    included, so no pipeline's records stay behind: they live exactly as
    long as the unit they describe, and an id a later program reuses never
    meets a stale entry.
    """

    def __init__(self, relation: ConvertibilityRelation) -> None:
        self.relation = relation
        self.boundary_types: Dict[int, Any] = {}
        self.resolved_rules: Dict[int, str] = {}
        self.boundary_nodes: Dict[int, Any] = {}
        #: Oriented glue per boundary site (compiled foreign term → host term).
        self.resolved_glue: Dict[int, GlueFn] = {}

    def resolve(self, boundary: Any, host_language: str, foreign_type: Any) -> Any:
        """Require ``τ_A ∼ τ_B`` for a boundary whose foreign term has
        ``foreign_type``; return the boundary's host type, its annotation."""
        relation = self.relation
        annotation = boundary.annotation
        host_is_a = host_language == relation.language_a
        if host_is_a:
            foreign_language, pair = relation.language_b, (annotation, foreign_type)
        else:
            foreign_language, pair = relation.language_a, (foreign_type, annotation)
        conversion = relation.query(*pair)
        if conversion is None:
            raise ConvertibilityError(
                f"{host_language} boundary at type {annotation} embeds a foreign {foreign_language} "
                f"term of type {foreign_type}, but {pair[0]} ~ {pair[1]} is not derivable"
            )
        key = id(boundary)
        self.boundary_types[key] = foreign_type
        self.resolved_rules[key] = conversion.rule_name
        self.boundary_nodes[key] = boundary
        self.resolved_glue[key] = conversion.apply_b_to_a if host_is_a else conversion.apply_a_to_b
        return annotation

    def compile(self, boundary: Any, compiled_foreign: Any) -> Any:
        """Wrap the compiled foreign term in the glue :meth:`resolve` kept:
        ``C[τ_foreign ↦ τ_host](e⁺)`` exactly as in Fig. 3 / Fig. 13."""
        glue = self.resolved_glue.pop(id(boundary), None)
        if glue is None:
            raise CompileError(f"boundary at type {boundary.annotation} compiled before it was typechecked")
        self.relation.count_preresolved()
        return glue(compiled_foreign)

    def take_records(self) -> BoundaryRecords:
        records = BoundaryRecords(self.boundary_types, self.resolved_rules, self.boundary_nodes)
        self.boundary_types, self.resolved_rules, self.boundary_nodes = {}, {}, {}
        self.resolved_glue.clear()
        return records
