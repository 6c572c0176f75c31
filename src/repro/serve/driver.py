"""The slice loop: many machines advanced in bounded turns on one thread.

Every admitted program arrives as a *resumable execution* — an object with
``step_n(limit)`` returning the final result once the machine halts or
``None`` while it still has work and fuel.  The driver grants each execution
at most ``slice_steps`` machine transitions per slice and moves on, so N
concurrent programs advance in turns on a single OS thread with no shared
machine state.  Fuel stays per-execution: a request that exhausts its own
budget fails alone, in its own slice, without disturbing its neighbours.

The module's contract is the bounded-latency invariant: for every driven
execution, ``steps ≤ slices × slice_steps`` — a backend can never advance
more machine transitions than the turns it was granted allow, whatever its
neighbours do.  The serving tests assert the inequality per response and
``bench_serving.py --check`` gates it in CI; a backend that runs to
completion inside one slice (the old ``BlockingExecution`` behaviour)
violates it on any deep program.

There is one entry point, :meth:`StepSlicedDriver.run_batch`, a weighted
round-robin loop.  Each turn grants an execution up to its integer
``weight`` consecutive slices; the serving layer maps
:attr:`repro.serve.request.Request.priority` classes onto these weights
(high = 8, standard = 2, best-effort = 1), which is what
``bench_serving.py --qos`` gates: under contention, high-priority p99
latency strictly beats best-effort — with identical results to sequential
execution, because weights shape latency, never outcomes.  The other
orders are special cases of the same loop:

* ``sequential=True`` is an unbounded weight: each execution runs to
  completion before the next starts (the differential twin CI's
  ``bench_serving.py --check`` compares against);
* ``schedule`` is a caller-chosen prefix of single-slice grants before the
  weighted turns begin; the hypothesis tests drive it with arbitrary
  interleavings to prove results are independent of scheduling;
* ``on_checkpoint(index, slices)`` fires at slice boundaries, where paused
  machine state is reifiable as a snapshot — for every execution before any
  slice runs (``slices == 0``), then after every ``checkpoint_every``
  slices; it is the substrate for checkpoint streaming and mid-run
  migration;
* ``max_slices`` preempts: an execution still running after that many
  slices stops at the boundary with ``result=None``.

Deadlines ride on the same invariant: an optional per-execution
``deadline`` (seconds of run time, measured from that execution's first
slice) is checked after every slice — which the bounded latency makes both
cheap (one clock read per slice) and precise (at most one slice of
overshoot).  An expired execution stops at the boundary with a
:class:`~repro.serve.reliability.DeadlineExceeded` result, so its stopped
state is exactly reifiable.  The clock is injectable (default
:func:`time.perf_counter`) so tests drive deadlines with fake time.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, List, NamedTuple, Optional, Sequence

from repro.serve.reliability import DeadlineExceeded


class DrivenResult(NamedTuple):
    """One execution's outcome: final result, slice count, wall-clock latency."""

    result: Any
    slices: int
    seconds: float


def _deadline_list(
    deadlines: Optional[Sequence[Optional[float]]], count: int
) -> List[Optional[float]]:
    """Normalize a per-execution deadline vector (``None`` = no deadlines)."""
    if deadlines is None:
        return [None] * count
    if len(deadlines) != count:
        raise ValueError(
            f"deadlines must match executions: got {len(deadlines)} for {count}"
        )
    return list(deadlines)


def _weight_list(weights: Optional[Sequence[int]], count: int) -> List[int]:
    """Normalize a per-execution weight vector (``None`` = round-robin)."""
    if weights is None:
        return [1] * count
    if len(weights) != count:
        raise ValueError(f"weights must match executions: got {len(weights)} for {count}")
    for weight in weights:
        if not isinstance(weight, int) or isinstance(weight, bool) or weight < 1:
            raise ValueError(f"weights must be positive ints, got {weight!r}")
    return list(weights)


class StepSlicedDriver:
    """Interleaves resumable executions by bounded transition slices."""

    def __init__(self, slice_steps: int = 512, clock: Callable[[], float] = time.perf_counter):
        if slice_steps < 1:
            raise ValueError(f"slice_steps must be >= 1, got {slice_steps}")
        self.slice_steps = slice_steps
        self.clock = clock

    def run_batch(
        self,
        executions: Sequence[Any],
        deadlines: Optional[Sequence[Optional[float]]] = None,
        weights: Optional[Sequence[int]] = None,
        sequential: bool = False,
        schedule: Sequence[int] = (),
        on_checkpoint: Optional[Callable[[int, int], None]] = None,
        checkpoint_every: int = 1,
        max_slices: Optional[int] = None,
    ) -> List[DrivenResult]:
        """Drive every execution until it halts or stops; results in input order.

        ``schedule`` entries are indices (taken modulo the batch size), each
        granting that execution one slice — a no-op once it has stopped —
        before the weighted turns begin.  A stopped execution's
        :class:`DrivenResult` carries ``result=None`` when ``max_slices``
        preempted it and a :class:`DeadlineExceeded` when its deadline did.
        Results equal the sequential order's for any weights, schedule and
        hooks: the machines are deterministic and slicing is
        observation-free.
        """
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if max_slices is not None and max_slices < 1:
            raise ValueError(f"max_slices must be >= 1, got {max_slices}")
        count = len(executions)
        if not count:
            return []
        per_deadline = _deadline_list(deadlines, count)
        per_weight = [sys.maxsize] * count if sequential else _weight_list(weights, count)
        slice_steps = self.slice_steps
        clock = self.clock
        results: List[Any] = [None] * count
        slices = [0] * count
        started = [0.0] * count
        elapsed = [0.0] * count
        stopped = [False] * count

        def grant(index: int, turns: int) -> None:
            execution = executions[index]
            deadline = per_deadline[index]
            if not slices[index]:
                started[index] = clock()
            for _ in range(turns):
                outcome = execution.step_n(slice_steps)
                slices[index] += 1
                spent = clock() - started[index]
                if outcome is None:
                    if on_checkpoint is not None and slices[index] % checkpoint_every == 0:
                        on_checkpoint(index, slices[index])
                    if deadline is not None and spent >= deadline:
                        outcome = DeadlineExceeded(deadline, spent)
                    elif max_slices is None or slices[index] < max_slices:
                        continue
                results[index] = outcome
                elapsed[index] = spent
                stopped[index] = True
                return

        if on_checkpoint is not None:
            for index in range(count):
                on_checkpoint(index, 0)
        for index in schedule:
            if not stopped[index % count]:
                grant(index % count, 1)
        live = [index for index in range(count) if not stopped[index]]
        while live:
            for index in live:
                grant(index, per_weight[index])
            live = [index for index in live if not stopped[index]]
        return [DrivenResult(results[i], slices[i], elapsed[i]) for i in range(count)]
