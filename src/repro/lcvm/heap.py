"""The LCVM heap with garbage-collected and manually managed cells (Fig. 12).

The §5 extension of LCVM lets the *same* pool of location names be used for
both garbage-collected (``ℓ ↦gc v``) and manually managed (``ℓ ↦m v``) cells,
with names re-usable after collection or ``free``.  ``gcmov`` transfers a
manual cell to the collector (the key instruction behind the
``ref τ ∼ REF τ`` conversion); ``callgc`` runs a mark-and-sweep collection
whose roots are supplied by the machine (the locations mentioned by the
current program).

Allocation keeps a free list plus a high-water-mark counter, so
``fresh_address`` is O(log n) instead of a linear scan from 0, while
preserving the Fig. 12 name-reuse semantics exactly: the smallest address not
currently in the heap's domain is always the one handed out next.

The heap is shared between evaluators that store different value
representations: the substitution machine stores syntax values, while the
environment-based evaluators store runtime values.  The ``trace`` hook tells
the collector how to find the locations inside whatever is stored.
"""

from __future__ import annotations

import copy
import enum
import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set

from repro.core.errors import ErrorCode, MachineFailure
from repro.lcvm.syntax import Expr, mentioned_locations


class CellKind(enum.Enum):
    """How a heap cell is managed."""

    GC = "gc"
    MANUAL = "manual"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass
class HeapCell:
    """One heap binding: a stored value and its management discipline."""

    value: Expr
    kind: CellKind


def _dangling(address: int) -> MachineFailure:
    return MachineFailure(ErrorCode.PTR, f"dangling access to ℓ{address}")


@dataclass
class Heap:
    """A mutable LCVM heap.

    The heap is deliberately a small, explicit object (not a raw dict) because
    the §5 realizability model needs to split it into GC'd and manual
    fragments, and the machine needs allocation, freeing, moving, and
    collection as primitive operations.
    """

    cells: Dict[int, HeapCell] = field(default_factory=dict)
    #: Statistics for tests and diagnostics (collections run, cells reclaimed).
    collections: int = 0
    reclaimed: int = 0
    #: Extracts the locations mentioned by a stored value; evaluators that
    #: store runtime values instead of syntax plug in their own walker.
    trace: Callable[[Any], Iterable[int]] = field(default=mentioned_locations, repr=False)
    #: Min-heap of freed addresses below the high-water mark (may contain
    #: stale entries if ``cells`` is mutated directly; ``fresh_address``
    #: lazily discards those).
    _free: List[int] = field(default_factory=list, init=False, repr=False)
    #: High-water mark: every address >= ``_next`` has never been handed out.
    _next: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        self._rebuild_allocator()

    def _rebuild_allocator(self) -> None:
        """Recompute the free list from ``cells`` (after bulk construction)."""
        self._next = max(self.cells, default=-1) + 1
        self._free = [address for address in range(self._next) if address not in self.cells]
        heapq.heapify(self._free)

    # -- basic operations -----------------------------------------------------

    def fresh_address(self) -> int:
        """Return the smallest unused address (freed/collected names are re-used).

        This is a pure query: it does not reserve the address.  Calling it
        twice without an intervening ``allocate`` returns the same name.
        """
        while self._free and self._free[0] in self.cells:
            heapq.heappop(self._free)  # stale entry from direct cells mutation
        counter = self._next
        while counter in self.cells:  # direct cells mutation past the mark
            counter += 1
        if self._free and self._free[0] < counter:
            return self._free[0]
        # The counter candidate also covers direct cells mutation *below* the
        # mark: gaps the free list never saw are still found smallest-first.
        return counter

    def allocate(self, value: Expr, kind: CellKind) -> int:
        address = self.fresh_address()
        if self._free and self._free[0] == address:
            heapq.heappop(self._free)
        self.cells[address] = HeapCell(value, kind)
        if address >= self._next:
            self._next = address + 1
        return address

    def contains(self, address: int) -> bool:
        return address in self.cells

    def kind_of(self, address: int) -> Optional[CellKind]:
        cell = self.cells.get(address)
        return cell.kind if cell is not None else None

    def read(self, address: int) -> Expr:
        cell = self.cells.get(address)
        if cell is None:
            raise _dangling(address)
        return cell.value

    def write(self, address: int, value: Expr) -> None:
        cell = self.cells.get(address)
        if cell is None:
            raise _dangling(address)
        cell.value = value

    def free(self, address: int) -> None:
        if address not in self.cells:
            raise _dangling(address)
        del self.cells[address]
        heapq.heappush(self._free, address)

    def move_to_gc(self, address: int) -> None:
        cell = self.cells.get(address)
        if cell is None:
            raise _dangling(address)
        cell.kind = CellKind.GC

    # -- fragments (used by the §5 model) --------------------------------------

    def gc_fragment(self) -> Dict[int, Expr]:
        return {address: cell.value for address, cell in self.cells.items() if cell.kind is CellKind.GC}

    def manual_fragment(self) -> Dict[int, Expr]:
        return {address: cell.value for address, cell in self.cells.items() if cell.kind is CellKind.MANUAL}

    def snapshot(self) -> Dict[int, HeapCell]:
        """A shallow copy of the cells (used by tests and the model)."""
        return {address: HeapCell(cell.value, cell.kind) for address, cell in self.cells.items()}

    def copy(self) -> "Heap":
        """An independent heap with fresh cells and the exact allocator state."""
        heap = copy.copy(self)  # no __post_init__: the free list is not rebuilt
        heap.cells = self.snapshot()
        heap._free = list(self._free)
        return heap

    # -- garbage collection -----------------------------------------------------

    def reachable_from(self, roots: Iterable[int]) -> Set[int]:
        """Locations transitively reachable from ``roots`` through stored values."""
        seen: Set[int] = set()
        frontier = [address for address in roots if address in self.cells]
        while frontier:
            address = frontier.pop()
            if address in seen:
                continue
            seen.add(address)
            cell = self.cells.get(address)
            if cell is None:
                continue
            for child in self.trace(cell.value):
                if child not in seen and child in self.cells:
                    frontier.append(child)
        return seen

    def collect(self, roots: Iterable[int], pinned: Iterable[int] = ()) -> int:
        """Mark-and-sweep over the GC'd cells.

        Manual cells are never collected (they are freed explicitly), but they
        *are* traced: a manual cell holding a GC'd location keeps that location
        alive.  ``pinned`` locations are always retained (used by the model's
        pinned-location set L).
        """
        all_roots = set(roots) | set(pinned)
        # Manual cells act as additional roots because the collector cannot
        # prove they are dead.
        all_roots.update(address for address, cell in self.cells.items() if cell.kind is CellKind.MANUAL)
        live = self.reachable_from(all_roots)
        dead = [
            address
            for address, cell in self.cells.items()
            if cell.kind is CellKind.GC and address not in live
        ]
        for address in dead:
            del self.cells[address]
            heapq.heappush(self._free, address)
        self.collections += 1
        self.reclaimed += len(dead)
        return len(dead)

    # -- dunder helpers ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, address: int) -> bool:
        return address in self.cells

    def __str__(self) -> str:
        entries = ", ".join(
            f"ℓ{address} ↦{cell.kind.value} {cell.value}" for address, cell in sorted(self.cells.items())
        )
        return "{" + entries + "}"
