"""Durable checkpoints: machine-state snapshots plus their serving context.

A machine-level ``snapshot()`` (see :mod:`repro.core.snapshots`) reifies one
paused execution as versioned plain data, but on its own it does not say how
to *serve* the continuation: which interop system owns it, which backend's
restorer rebuilds it, or which request it answers.  A :class:`Checkpoint`
bundles exactly that context with the snapshot, so the serving layer can
move a paused run anywhere a scheduler exists — another worker process
(mid-run migration off a crashed shard), a later scheduler turn (preemption
under fuel accounting), or a future incarnation of the whole process
(:class:`CheckpointStore`).

The :class:`CheckpointStore` is the durability layer: a directory of
checkpoints encoded by :mod:`repro.core.codec`, written atomically (temp
file + ``os.replace``) so a crash mid-write can never leave a truncated
checkpoint where a loadable one should be.  Checkpoints are plain data end
to end — the snapshot inside references compiled code by its syntax handle
and every restorer recompiles deterministically — so a store written by one
process restores in any other, including across interpreter restarts.

The store is also hardened against the failures a durability layer exists
for: a truncated, tampered, or wrong-version file raises a structured
:class:`CheckpointCorrupt` (naming its path) rather than the codec's
``CodecError``, and :meth:`CheckpointStore.scan` /
:meth:`CheckpointStore.load_all` never let one corrupt file break listing
the rest.  :meth:`CheckpointStore.gc` ages out stale checkpoints by
``max_age_seconds`` and bounds the directory by ``max_total_bytes``
(oldest-first eviction) —
:meth:`~repro.serve.scheduler.Scheduler.resume_stored` runs it automatically
after dropping each consumed checkpoint.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.codec import CodecError, decode, encode
from repro.core.errors import ReproError
from repro.serve.faults import FaultPlan
from repro.serve.request import Request

__all__ = ["CHECKPOINT_VERSION", "Checkpoint", "CheckpointCorrupt", "CheckpointStore"]

#: Bump when the Checkpoint shape changes incompatibly; the store refuses to
#: load checkpoints written under a different version (the snapshot inside
#: carries its own version, checked by the machine-level restorers).
CHECKPOINT_VERSION = 2


class CheckpointCorrupt(ReproError, ValueError):
    """A checkpoint file failed to load: truncated, tampered, or wrong version.

    Carries the offending ``path`` and a ``reason`` so callers can log,
    quarantine, or delete the file — and subclasses ``ValueError`` so
    pre-hardening callers that caught the store's old raw errors keep
    working.
    """

    def __init__(self, path: str, reason: str):
        super().__init__(f"corrupt checkpoint {path}: {reason}")
        self.path = path
        self.reason = reason


@dataclass
class Checkpoint:
    """One paused request: its snapshot plus everything needed to resume it.

    ``snapshot`` is ``None`` only for a checkpoint taken before the run's
    first slice (``slices == 0``) that a member streamed upstream: the
    paused state is then the request's initial state, so the request itself
    is the whole checkpoint, and
    :meth:`~repro.serve.scheduler.Scheduler.resume` starts it afresh.
    In-process ``on_checkpoint`` observers and preempted responses always
    carry a full snapshot.
    """

    #: The original submission (its fuel/typecheck policy already lives in
    #: the snapshot; kept whole so the resumed Response reads identically).
    request: Request
    #: Registered name of the interop system that was serving the request.
    system: str
    #: The resolved backend name (never ``None`` — resolution happened at
    #: admission), routing straight to the target's snapshot restorer.
    backend: str
    #: The versioned plain-data machine snapshot from the last slice
    #: boundary, or ``None`` for a streamed slice-0 checkpoint.
    snapshot: Optional[dict]
    #: Scheduler slices granted before this checkpoint was taken.
    slices: int = 0
    version: int = CHECKPOINT_VERSION

    def label(self) -> str:
        return self.request.label()


class CheckpointStore:
    """A directory of encoded checkpoints with atomic writes.

    ``save`` returns the file path; ``load`` takes one back.  Filenames embed
    the request label, the writing process id, and a per-store counter, so
    concurrent stores over one directory never collide.  Use :meth:`paths`
    to enumerate what survived a process restart, :meth:`scan` to load
    everything loadable without one corrupt file spoiling the rest, and
    :meth:`gc` to evict by age and total size.

    ``max_age_seconds`` / ``max_total_bytes`` are the store's *default* GC
    limits, applied by :meth:`gc` when called without arguments (as
    :meth:`~repro.serve.scheduler.Scheduler.resume_stored` does after a
    successful resume).  ``fault_plan`` arms the ``store.write`` /
    ``restore.tamper`` fault sites for the chaos harness.
    """

    SUFFIX = ".ckpt"

    def __init__(
        self,
        directory: str,
        max_age_seconds: Optional[float] = None,
        max_total_bytes: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.max_age_seconds = max_age_seconds
        self.max_total_bytes = max_total_bytes
        self.fault_plan = fault_plan
        self._counter = 0

    def save(self, checkpoint: Checkpoint) -> str:
        """Persist one checkpoint atomically; returns its path."""
        label = "".join(
            ch if ch.isalnum() or ch in "-_" else "-" for ch in checkpoint.label()
        )
        name = f"{label or 'request'}-{os.getpid()}-{self._counter:06d}{self.SUFFIX}"
        self._counter += 1
        path = os.path.join(self.directory, name)
        if self.fault_plan is not None and self.fault_plan.fire(
            "store.write", request_id=checkpoint.request.request_id
        ):
            raise OSError(f"injected checkpoint-store write failure: {path}")
        payload = encode(checkpoint)
        # Write-then-rename: a reader (or a restarted process) either sees
        # the complete checkpoint or nothing — never a torn file.
        descriptor, temporary = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(payload)
            os.replace(temporary, path)
        except BaseException:
            try:
                os.unlink(temporary)
            except OSError:
                pass
            raise
        return path

    def load(self, path: str) -> Checkpoint:
        """Read one checkpoint back, validating its shape and version.

        Anything short of a well-formed, current-version :class:`Checkpoint`
        — a truncated write from a dying process, bytes that decode to the
        wrong type, a version from a different era — raises
        :class:`CheckpointCorrupt` naming the path; no raw codec error
        escapes.
        """
        with open(path, "rb") as handle:
            payload = handle.read()
        if self.fault_plan is not None and self.fault_plan.fire("restore.tamper"):
            payload = payload[: len(payload) // 2]
        try:
            checkpoint = decode(payload)
        except CodecError as error:
            raise CheckpointCorrupt(path, str(error)) from error
        if not isinstance(checkpoint, Checkpoint):
            raise CheckpointCorrupt(path, f"holds {type(checkpoint).__name__}, not a Checkpoint")
        if checkpoint.version != CHECKPOINT_VERSION:
            raise CheckpointCorrupt(
                path,
                f"checkpoint version {checkpoint.version}, "
                f"this process reads version {CHECKPOINT_VERSION}",
            )
        return checkpoint

    def paths(self) -> List[str]:
        """Every checkpoint file currently in the store, oldest name first."""
        return sorted(
            os.path.join(self.directory, name)
            for name in os.listdir(self.directory)
            if name.endswith(self.SUFFIX)
        )

    def scan(self) -> Tuple[List[Tuple[str, Checkpoint]], List[Tuple[str, CheckpointCorrupt]]]:
        """Everything loadable and everything corrupt, in :meth:`paths` order.

        One corrupt file never hides the healthy ones: it lands in the
        second list (with its structured error) while the scan continues.
        """
        loadable: List[Tuple[str, Checkpoint]] = []
        corrupt: List[Tuple[str, CheckpointCorrupt]] = []
        for path in self.paths():
            try:
                loadable.append((path, self.load(path)))
            except CheckpointCorrupt as error:
                corrupt.append((path, error))
            except FileNotFoundError:
                continue  # raced with a concurrent delete/gc: already gone
        return loadable, corrupt

    def load_all(self, strict: bool = False) -> List[Checkpoint]:
        """Load every stored checkpoint (in :meth:`paths` order).

        Corrupt files are skipped by default — a restart must be able to
        resume the healthy majority past one torn file.  ``strict=True``
        restores the raise-on-first-corruption behaviour.
        """
        if strict:
            return [self.load(path) for path in self.paths()]
        loadable, _corrupt = self.scan()
        return [checkpoint for _path, checkpoint in loadable]

    def delete(self, path: str) -> None:
        """Remove one checkpoint (missing files are already deleted — no-op)."""
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass

    def gc(
        self,
        max_age_seconds: Optional[float] = None,
        max_total_bytes: Optional[int] = None,
        now: Optional[float] = None,
    ) -> List[str]:
        """Evict stale checkpoints by age, then bound the store by size.

        Age first: every file older than ``max_age_seconds`` (by mtime,
        against ``now``/wall clock) is removed — corrupt leftovers included;
        age needs no successful decode.  Then size: while the survivors
        total more than ``max_total_bytes``, the oldest file goes first.
        Limits default to the store's configured ones; ``None`` disables
        that dimension.  Returns the paths removed, oldest first.
        """
        max_age = max_age_seconds if max_age_seconds is not None else self.max_age_seconds
        max_bytes = max_total_bytes if max_total_bytes is not None else self.max_total_bytes
        if max_age is None and max_bytes is None:
            return []
        entries: List[Tuple[float, int, str]] = []
        for path in self.paths():
            try:
                stat = os.stat(path)
            except OSError:
                continue  # raced with a concurrent delete: nothing to evict
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()
        removed: List[str] = []
        survivors: List[Tuple[float, int, str]] = []
        moment = now if now is not None else time.time()
        for mtime, size, path in entries:
            if max_age is not None and moment - mtime >= max_age:
                self.delete(path)
                removed.append(path)
            else:
                survivors.append((mtime, size, path))
        if max_bytes is not None:
            total = sum(size for _mtime, size, _path in survivors)
            for _mtime, size, path in survivors:
                if total <= max_bytes:
                    break
                self.delete(path)
                removed.append(path)
                total -= size
        return removed
