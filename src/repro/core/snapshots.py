"""Versioned, process-portable machine-state snapshots.

A snapshot is a plain dict — ``{"version": 2, "kind": "<family>/<backend>",
...state...}`` — holding everything a paused resumable execution needs to
continue somewhere else: heap cells, environments, continuation/work/value
stacks, step accounting, and the remaining fuel, all as picklable data.
Compiled machine code is *never* in the payload; restores recompile it
deterministically from the syntax the snapshot carries (the same trick
``stacklang.cek.CompiledExecution`` uses for mid-run pickling), so a
snapshot taken in one process restores in any other.

The ``kind`` tag names the exact machine that wrote the snapshot and, by
convention, ends in the backend name it is registered under — e.g.
``"lcvm/cek-compiled"`` restores through the lcvm registry's
``"cek-compiled"`` backend.  :func:`snapshot_backend_name` relies on that
convention so a :meth:`repro.core.language.TargetBackend.restore` call can
route a bare snapshot without being told the backend.  Each target has
two engines, so there are four live kinds: ``lcvm/substitution``,
``lcvm/cek-compiled``, ``stacklang/substitution`` and
``stacklang/cek-compiled``.  A kind whose backend is not registered — such
as one written by a removed machine (``lcvm/bigstep``, ``lcvm/cek``,
``lcvm/cek-opt``, ``stacklang/cek``) — routes nowhere and is refused with a
:class:`~repro.core.errors.ReproError`.

Two copy disciplines, both built on one pickle round-trip
(:func:`plain_copy`):

* ``snapshot()`` copies its state *out* so the snapshot never aliases the
  live machine (stepping on after a snapshot must not mutate it);
* ``from_snapshot()`` copies the state *in* again, so one snapshot restores
  any number of independent executions — two restores never share a heap.

A single ``pickle.dumps`` of the whole state dict preserves the object
graph's internal sharing (a subtree reachable twice stays one object after
the round-trip), so a compiled-CEK restore finds every address into one root
under that one root object and compiles it once.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict

#: Bump when the snapshot state layout changes incompatibly; restores check
#: it and refuse snapshots written by a different layout.
SNAPSHOT_VERSION = 2


def plain_copy(state: Any) -> Any:
    """One pickle round-trip: a deep copy preserving internal sharing."""
    return pickle.loads(pickle.dumps(state))


def make_snapshot(kind: str, state: Dict[str, Any]) -> Dict[str, Any]:
    """Assemble a versioned snapshot dict around a *copy* of ``state``."""
    snapshot = {"version": SNAPSHOT_VERSION, "kind": kind}
    snapshot.update(plain_copy(state))
    return snapshot


def check_snapshot(snapshot: Any, kind: str) -> Dict[str, Any]:
    """Validate a snapshot's kind/version; return a defensive copy of it.

    The copy is what makes one snapshot restorable many times over: each
    restore installs its own object graph, so two executions restored from
    the same snapshot never share a mutable heap or stack.
    """
    if not isinstance(snapshot, dict):
        raise ValueError(f"not a snapshot: {type(snapshot).__name__}")
    found = snapshot.get("kind")
    if found != kind:
        raise ValueError(f"snapshot kind {found!r} cannot restore a {kind!r} machine")
    version = snapshot.get("version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {version!r} (this build reads version {SNAPSHOT_VERSION})"
        )
    return plain_copy(snapshot)


def snapshot_backend_name(snapshot: Any) -> str:
    """The backend name a snapshot restores under: the ``kind``'s last segment."""
    if not isinstance(snapshot, dict) or not isinstance(snapshot.get("kind"), str):
        raise ValueError(f"not a snapshot: {type(snapshot).__name__}")
    return snapshot["kind"].rsplit("/", 1)[-1]
