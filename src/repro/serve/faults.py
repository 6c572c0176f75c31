"""Deterministic fault injection for the serving tier.

Reliability code that only runs when a real worker dies is untested code.
This module makes every recovery path a *scheduled* event: a
:class:`FaultPlan` is a seeded, picklable list of :class:`Fault` specs, each
naming a **site** (where in the stack it fires), an optional target (shard,
request id, slice number), and a repetition count.  The plan travels with
the pool into every worker process, so the same plan produces the same
faults at the same slice boundaries on every run — which is what lets the
reliability tests require that results under faults equal the fault-free
differential baseline.

Fault-site catalog (see ``docs/reliability.md`` for the recovery path each
one exercises):

========================  =====================================================
site                      effect when it fires
========================  =====================================================
``worker.crash``          the worker process exits hard (``os._exit``) at the
                          targeted slice boundary — only ever inside a worker
                          (the plan must be :meth:`~FaultPlan.bind`-bound to a
                          shard), never in the parent/scheduler process
``worker.slow``           the execution sleeps ``delay_seconds`` at the
                          targeted slice boundary (a straggling shard; pairs
                          with ``Request.deadline_seconds``)
``checkpoint.pickle``     a slice-boundary checkpoint fails to serialize and
                          is not streamed/persisted (the request loses its
                          migration safety net and must retry from scratch)
``store.write``           :meth:`CheckpointStore.save` raises ``OSError``
                          (a full/failing disk)
``restore.tamper``        the bytes read back from disk — or the snapshot
                          handed to ``resume`` — are corrupted before
                          restore, exercising the ``CheckpointCorrupt`` /
                          version-check rejection paths
``net.drop``              a network worker's connection dies abruptly at the
                          targeted slice boundary, *after* that boundary's
                          checkpoint frame was written — the router sees EOF
                          mid-batch and must recover by checkpoint migration
                          (breaker quarantine included); in a pipe-based
                          worker the site degrades to a whole-batch error
``net.slow``              a network worker stalls ``delay_seconds`` before
                          writing its terminal RESPONSE frame (a slow link /
                          wedged peer; pairs with the router's
                          ``attempt_timeout_seconds`` per-attempt deadline)
========================  =====================================================

Faults are matched *structurally*, not probabilistically: a fault with
``request_id="refs-deep"``, ``at_slice=2`` fires exactly when that request
finishes its second slice, every run.  ``times`` bounds repetition per
process (``None`` = unlimited); counters live in plan instances, so a
respawned worker (which receives a fresh unpickled copy) starts over — target
faults by shard/request so recovered work on *other* shards does not
re-trigger them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

__all__ = ["FAULT_SITES", "Fault", "FaultPlan"]

#: Every site a :class:`Fault` may name, in stack order.
FAULT_SITES = (
    "worker.crash",
    "worker.slow",
    "checkpoint.pickle",
    "store.write",
    "restore.tamper",
    "net.drop",
    "net.slow",
)


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: a site, an optional target, a repetition bound."""

    #: Which hook fires this fault — one of :data:`FAULT_SITES`.
    site: str
    #: Only fire for this request id (``None`` = any request at the site).
    request_id: Optional[str] = None
    #: Only fire inside the worker bound to this shard (``None`` = any).
    shard: Optional[int] = None
    #: Only fire when the targeted execution has completed exactly this many
    #: slices (``None`` = any slice).  Only meaningful for the two
    #: ``worker.*`` sites, which are checked at slice boundaries.
    at_slice: Optional[int] = None
    #: How many times this fault may fire per process (``None`` = unlimited).
    times: Optional[int] = 1
    #: ``worker.slow`` only: how long the targeted slice boundary stalls.
    delay_seconds: float = 0.05
    #: ``worker.crash`` only: the process exit code (distinctive by default
    #: so a test can tell an injected crash from a real one).
    exit_code: int = 23

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r}; known: {FAULT_SITES}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")
        if self.delay_seconds < 0:
            raise ValueError(f"delay_seconds must be >= 0, got {self.delay_seconds}")

    def matches(
        self,
        site: str,
        shard: Optional[int],
        request_id: Optional[str],
        slices: Optional[int],
    ) -> bool:
        if site != self.site:
            return False
        if self.shard is not None and shard != self.shard:
            return False
        if self.request_id is not None and request_id != self.request_id:
            return False
        if self.at_slice is not None and slices != self.at_slice:
            return False
        return True


@dataclass
class FaultPlan:
    """A seeded, picklable schedule of faults, threaded through the stack.

    The parent builds one plan and hands it to the :class:`WorkerPool` (or a
    :class:`~repro.serve.scheduler.Scheduler` / ``CheckpointStore``
    directly); each worker receives a pickled copy :meth:`bind`-bound to its
    shard index, so shard-targeted faults fire only where they were aimed.
    ``seed`` exists for plans that want reproducible randomness via
    :meth:`rng`; the built-in sites are fully structural and ignore it.
    """

    faults: Sequence[Fault] = ()
    seed: int = 0
    #: The shard this copy of the plan runs in (``None`` in the parent /
    #: in-process scheduler).  Set by :meth:`bind` inside each worker.
    shard: Optional[int] = None
    #: Per-fault fire counts, by index into ``faults`` — per *process*: a
    #: respawned worker's fresh copy starts at zero.
    fired_counts: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        self.faults = tuple(self.faults)

    def bind(self, shard: int) -> "FaultPlan":
        """Mark this copy of the plan as running inside worker ``shard``."""
        self.shard = shard
        return self

    def rng(self):
        import random

        return random.Random(self.seed)

    # -- firing ---------------------------------------------------------------

    def fire(
        self,
        site: str,
        request_id: Optional[str] = None,
        slices: Optional[int] = None,
    ) -> Optional[Fault]:
        """The matching armed fault for this event, consuming one charge.

        Returns ``None`` when no fault matches (the overwhelmingly common
        case — callers treat ``None`` as "proceed normally").
        """
        for index, fault in enumerate(self.faults):
            if not fault.matches(site, self.shard, request_id, slices):
                continue
            count = self.fired_counts.get(index, 0)
            if fault.times is not None and count >= fault.times:
                continue
            self.fired_counts[index] = count + 1
            return fault
        return None

    def fired(self) -> Dict[str, int]:
        """Total fires per site, in this process."""
        totals: Dict[str, int] = {}
        for index, count in self.fired_counts.items():
            site = self.faults[index].site
            totals[site] = totals.get(site, 0) + count
        return totals

    # -- execution instrumentation --------------------------------------------

    def instrument(self, execution: Any, request_id: Optional[str] = None) -> Any:
        """Wrap an execution so ``worker.*`` faults fire at its slice boundaries.

        Faults targeting other requests leave the wrapper inert; a plan with
        no ``worker.*`` faults at all skips the wrapper entirely.
        """
        if not any(fault.site.startswith("worker.") for fault in self.faults):
            return execution
        return _FaultyExecution(execution, self, request_id)


class _FaultyExecution:
    """A stepping proxy that fires ``worker.*`` faults at slice boundaries.

    Wraps the *raw* execution (inside the scheduler's crash guard), counting
    completed slices.  ``worker.slow`` stalls the boundary; ``worker.crash``
    exits the process hard — but only when the plan is bound to a shard,
    i.e. only inside a worker process.  An unbound plan (in-process
    scheduler, the pool parent) never crash-faults: killing the coordinating
    process is not a recovery path anyone can exercise.
    """

    __slots__ = ("_execution", "_plan", "_request_id", "_slices")

    def __init__(self, execution: Any, plan: FaultPlan, request_id: Optional[str]):
        self._execution = execution
        self._plan = plan
        self._request_id = request_id
        self._slices = 0

    def step_n(self, limit: int) -> Optional[Any]:
        result = self._execution.step_n(limit)
        self._slices += 1
        slow = self._plan.fire("worker.slow", self._request_id, self._slices)
        if slow is not None:
            time.sleep(slow.delay_seconds)
        crash = self._plan.fire("worker.crash", self._request_id, self._slices)
        if crash is not None and self._plan.shard is not None:
            os._exit(crash.exit_code)
        return result

    def __getattr__(self, name: str) -> Any:
        # Snapshot capability and anything else passes through untouched.
        return getattr(self._execution, name)
