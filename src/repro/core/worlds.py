"""Step-indexed worlds and heap typings (Fig. 5, Fig. 10, Fig. 14).

Every realizability model in the paper is built on a *world*: a step budget
``k`` together with a heap typing ``Ψ`` mapping target heap locations to type
interpretations.  The case studies enrich worlds with extra components — an
affine flag store ``Θ`` in §4, and pinned/GC bookkeeping in §5 — but the
step-index/heap-typing skeleton and the notion of world extension
(``W ⊑ W'``: the step budget may shrink, locations keep their types) are
shared.  This module provides that skeleton.

Because this is an executable approximation of the model rather than a proof
assistant formalization, heap typings map locations to *semantic type tags*
(a language name paired with a source type) rather than to arbitrary elements
of ``Typ``.  The tags are interpreted back into value relations by the
per-case-study models; this is exactly the standard finitary restriction used
when testing step-indexed logical relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, Mapping, Optional

from repro.core.errors import ModelError


@dataclass(frozen=True)
class TypeTag:
    """A semantic type tag: which language's type a heap cell is ascribed."""

    language: str
    type: Any

    def __str__(self) -> str:
        return f"{self.language}:{self.type}"


@dataclass(frozen=True)
class World:
    """A step-indexed world ``(k, Ψ)`` with an optional affine flag store ``Θ``.

    * ``step_budget`` — the step index ``k``.
    * ``heap_typing`` — ``Ψ``: location → :class:`TypeTag`.
    * ``affine_store`` — ``Θ`` (only used by the §4 model): location →
      either the marker :data:`USED` or a frozenset of phantom flags.
    """

    step_budget: int
    heap_typing: Mapping[int, TypeTag] = field(default_factory=dict)
    affine_store: Mapping[int, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.step_budget < 0:
            raise ModelError("step budget must be non-negative")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def initial(step_budget: int, heap_typing: Optional[Mapping[int, TypeTag]] = None) -> "World":
        return World(step_budget, dict(heap_typing or {}), {})

    # -- accessors -----------------------------------------------------------

    def type_of(self, location: int) -> Optional[TypeTag]:
        return self.heap_typing.get(location)

    def locations(self) -> Iterable[int]:
        return self.heap_typing.keys()

    # -- world operations ----------------------------------------------------

    def later(self, steps: int = 1) -> "World":
        """Return the world with a step budget smaller by ``steps`` (⌊·⌋)."""
        if steps > self.step_budget:
            raise ModelError("cannot spend more steps than the budget allows")
        return replace(self, step_budget=self.step_budget - steps)

    def with_budget(self, step_budget: int) -> "World":
        return replace(self, step_budget=step_budget)

    def extend_heap_typing(self, location: int, tag: TypeTag) -> "World":
        """Allocate a new location in the heap typing (must be fresh)."""
        if location in self.heap_typing:
            raise ModelError(f"location {location} is already in the heap typing")
        new_typing = dict(self.heap_typing)
        new_typing[location] = tag
        return replace(self, heap_typing=new_typing)

    def with_affine_store(self, affine_store: Mapping[int, Any]) -> "World":
        return replace(self, affine_store=dict(affine_store))

    # -- extension relation ---------------------------------------------------

    def extends(self, earlier: "World") -> bool:
        """Return True if ``self ⊒ earlier`` for the basic (Fig. 5) extension.

        The future world may have a smaller step budget and may have *more*
        locations, but every location typed in the earlier world must keep the
        same type tag.  Case-study-specific extension conditions (affine store
        monotonicity in §4, pinning in §5) are layered on top of this check by
        the respective model modules.
        """
        if self.step_budget > earlier.step_budget:
            return False
        for location, tag in earlier.heap_typing.items():
            if self.heap_typing.get(location) != tag:
                return False
        return True


#: Marker recording that a dynamic affine flag has been consumed (§4, Θ(ℓ) = used).
USED = "used"


def affine_extends(later_world: World, earlier_world: World, excluded_flags: frozenset = frozenset()) -> bool:
    """World extension for the §4 model (``⊑_Φ`` in Fig. 10).

    In addition to the basic conditions, the affine store may only mark
    entries as used (never unmark them), every earlier dynamic flag must still
    be present, and neither world may mention phantom flags from
    ``excluded_flags`` (the "rest" owned elsewhere).
    """
    if not later_world.extends(earlier_world):
        return False
    if excluded_flags & world_flags(earlier_world):
        return False
    if excluded_flags & world_flags(later_world):
        return False
    for location, entry in earlier_world.affine_store.items():
        if location not in later_world.affine_store:
            return False
        later_entry = later_world.affine_store[location]
        if entry == USED and later_entry != USED:
            return False
        if entry != USED and later_entry not in (USED, entry):
            return False
    return True


def world_flags(world: World) -> frozenset:
    """Return ``flags(W)``: all phantom flags closed over by dynamic flags in Θ."""
    flags: set = set()
    for entry in world.affine_store.values():
        if entry != USED:
            flags.update(entry)
    return frozenset(flags)


def fresh_location(*heaps: Mapping[int, Any]) -> int:
    """Return a location not used by any of the given heaps/typings."""
    highest = -1
    for heap in heaps:
        for location in heap:
            if location > highest:
                highest = location
    return highest + 1


def merge_disjoint(left: Mapping[int, Any], right: Mapping[int, Any]) -> Dict[int, Any]:
    """Disjoint union of two heaps (``⊎``); raises if domains overlap."""
    overlap = set(left) & set(right)
    if overlap:
        raise ModelError(f"heaps overlap on locations {sorted(overlap)}")
    merged = dict(left)
    merged.update(right)
    return merged
