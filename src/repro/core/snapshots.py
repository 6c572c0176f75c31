"""Versioned, process-portable machine-state snapshots.

A snapshot is a plain dict — ``{"version": 3, "kind": "<family>/<backend>",
...state...}`` — holding everything a paused resumable execution needs to
continue somewhere else: heap cells, environments, continuation/work/value
stacks, step accounting, and the remaining fuel, all as picklable data.
Compiled machine code is *never* in the payload; restores recompile it
deterministically from the syntax the snapshot carries, so a snapshot taken
in one process restores in any other.

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

One copy rule, kept by each engine: ``snapshot()`` and ``from_snapshot()``
copy exactly the *mutable* containers of the machine's state — heaps, value
and frame stacks — and share everything immutable (syntax, environments,
runtime values).  So stepping on after a snapshot never changes it, and one
snapshot restores any number of independent executions that never share a
heap.  This module only tags and checks; it never copies, and never touches
bytes — a snapshot becomes bytes only where it leaves the process, through
:mod:`repro.core.codec`.
"""

from __future__ import annotations

from typing import Any, Dict

#: Bump when the snapshot state layout changes incompatibly; restores check
#: it and refuse snapshots written by a different layout.
SNAPSHOT_VERSION = 3


def make_snapshot(kind: str, state: Dict[str, Any]) -> Dict[str, Any]:
    """Tag ``state``, which the engine has already copied, as a snapshot."""
    return {"version": SNAPSHOT_VERSION, "kind": kind, **state}


def check_snapshot(snapshot: Any, kind: str) -> Dict[str, Any]:
    """Validate a snapshot's kind/version and return it; the restoring
    engine copies what it will mutate."""
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
    return snapshot


def snapshot_backend_name(snapshot: Any) -> str:
    """The backend name a snapshot restores under: the ``kind``'s last segment."""
    if not isinstance(snapshot, dict) or not isinstance(snapshot.get("kind"), str):
        raise ValueError(f"not a snapshot: {type(snapshot).__name__}")
    return snapshot["kind"].rsplit("/", 1)[-1]
