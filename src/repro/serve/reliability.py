"""Reliability policy primitives for the serving tier.

PR 6 built the *mechanism* for surviving failures — reified machine-state
snapshots, checkpoint streaming, crashed-shard migration — and this module
supplies the *policy* that decides when to use it:

* :class:`DeadlineExceeded` — the structured driven outcome for a request
  stopped at a slice boundary because it ran past its
  :attr:`~repro.serve.request.Request.deadline_seconds` budget.  The
  bounded-latency invariant (``steps ≤ slices × slice_steps``) is what makes
  deadline checks both cheap and precise: the driver only needs to look at
  the clock between slices.
* :class:`RetryPolicy` — exponential backoff with deterministic, seeded
  jitter for re-dispatching failed or migrated requests.
* :class:`CircuitBreaker` / :class:`BreakerPolicy` — a per-shard health
  tracker with the classic closed → open → half-open → closed state machine
  over a sliding failure window, so a crash-looping worker is quarantined
  instead of respawned forever.
* :class:`AdmissionController` — batch-size load shedding, so an
  oversized batch degrades *some* requests deterministically
  (``rejected_overload``) instead of degrading everyone.
* :class:`DispatchPolicy` — the network router's placement/liveness knobs:
  how many consistent-hash candidates load-aware dispatch may choose among,
  the per-attempt frame timeout that turns a slow link into a structured
  drop, and the heartbeat cadence that feeds load reports back.

Everything here is deterministic under injection: the breaker takes a clock,
the retry policy takes an RNG, and nothing reads ambient global state — the
fault-injection tests drive all of it with fake time.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "DeadlineExceeded",
    "DispatchPolicy",
    "RetryPolicy",
    "BreakerPolicy",
    "CircuitBreaker",
    "AdmissionController",
]


class DeadlineExceeded:
    """Sentinel driven outcome: the request ran past its deadline.

    Produced by the :class:`~repro.serve.driver.StepSlicedDriver` at a slice
    boundary — never mid-slice — so for snapshot-capable backends the paused
    state at the moment of expiry is exactly reifiable: the scheduler
    attaches it to the response as a resumable checkpoint.  A retry (with a
    fresh per-attempt budget) therefore continues from where the deadline
    struck instead of paying the work again.
    """

    __slots__ = ("deadline_seconds", "elapsed_seconds")

    def __init__(self, deadline_seconds: float, elapsed_seconds: float):
        self.deadline_seconds = deadline_seconds
        self.elapsed_seconds = elapsed_seconds

    def __repr__(self) -> str:
        return (
            f"DeadlineExceeded(deadline_seconds={self.deadline_seconds!r}, "
            f"elapsed_seconds={self.elapsed_seconds!r})"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with bounded, seeded jitter.

    ``delay_seconds(attempt)`` is the pause before recovery attempt
    ``attempt`` (1-based): ``base * multiplier**(attempt-1)`` capped at
    ``max_delay_seconds``, then scaled by a uniform factor in
    ``[1-jitter, 1+jitter]`` drawn from the caller's RNG.  Passing a seeded
    :class:`random.Random` makes the whole schedule reproducible — the chaos
    harness depends on that.  How many attempts happen at all is *not* this
    policy's call: that is the per-request
    :attr:`~repro.serve.request.Request.retry_budget`.
    """

    base_delay_seconds: float = 0.02
    multiplier: float = 2.0
    max_delay_seconds: float = 0.5
    jitter: float = 0.2

    def __post_init__(self):
        if self.base_delay_seconds < 0:
            raise ValueError(f"base_delay_seconds must be >= 0, got {self.base_delay_seconds}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay_seconds(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = min(
            self.base_delay_seconds * self.multiplier ** (attempt - 1),
            self.max_delay_seconds,
        )
        if rng is not None and self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(delay, 0.0)


@dataclass(frozen=True)
class BreakerPolicy:
    """Tuning knobs for one :class:`CircuitBreaker`.

    ``failure_threshold`` failures inside the trailing ``window_seconds``
    open the breaker; after ``cooldown_seconds`` it goes half-open and admits
    ``half_open_trials`` probe dispatches — one success closes it, one
    failure re-opens it (restarting the cooldown).
    """

    failure_threshold: int = 3
    window_seconds: float = 30.0
    cooldown_seconds: float = 2.0
    half_open_trials: int = 1

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {self.failure_threshold}")
        if self.window_seconds <= 0:
            raise ValueError(f"window_seconds must be > 0, got {self.window_seconds}")
        if self.cooldown_seconds < 0:
            raise ValueError(f"cooldown_seconds must be >= 0, got {self.cooldown_seconds}")
        if self.half_open_trials < 1:
            raise ValueError(f"half_open_trials must be >= 1, got {self.half_open_trials}")


class CircuitBreaker:
    """Sliding-window circuit breaker with an injectable clock.

    State machine: **closed** (healthy; failures accumulate in a sliding
    window) → **open** (quarantined: :meth:`allow` answers ``False`` until
    the cooldown elapses) → **half_open** (a bounded number of probe
    dispatches are admitted) → **closed** on a probe success, or back to
    **open** on a probe failure.  All transitions are appended (with their
    timestamp) to a bounded :attr:`transitions` log so a front end's
    ``stats()["members"]`` can show the full history deterministically.

    The clock is injected (default :func:`time.monotonic`) so tests and the
    fault harness can drive cooldowns with fake time.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    #: Transition-log entries kept per breaker (oldest dropped first).
    MAX_TRANSITIONS = 64

    def __init__(
        self,
        policy: Optional[BreakerPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.policy = policy or BreakerPolicy()
        self.clock = clock
        self._state = self.CLOSED
        self._failures: List[float] = []  # timestamps inside the window
        self._opened_at: Optional[float] = None
        self._trials_left = 0
        self.failure_count = 0  # lifetime, not windowed
        self.success_count = 0
        self.transitions: List[Tuple[str, float]] = [(self.CLOSED, self.clock())]

    # -- internals ------------------------------------------------------------

    def _transition(self, state: str, now: float) -> None:
        if state == self._state:
            return
        self._state = state
        self.transitions.append((state, now))
        if len(self.transitions) > self.MAX_TRANSITIONS:
            del self.transitions[: len(self.transitions) - self.MAX_TRANSITIONS]

    def _prune(self, now: float) -> None:
        cutoff = now - self.policy.window_seconds
        while self._failures and self._failures[0] <= cutoff:
            self._failures.pop(0)

    # -- queries --------------------------------------------------------------

    def state(self) -> str:
        """The current state, promoting open → half_open when the cooldown is up."""
        now = self.clock()
        if self._state == self.OPEN and self._opened_at is not None:
            if now - self._opened_at >= self.policy.cooldown_seconds:
                self._trials_left = self.policy.half_open_trials
                self._transition(self.HALF_OPEN, now)
        return self._state

    def allow(self) -> bool:
        """May a dispatch be placed on this shard right now?

        Closed: always.  Open: never (until the cooldown promotes the
        breaker to half-open).  Half-open: yes for up to
        ``half_open_trials`` probe dispatches, then no until one of the
        probes reports back.
        """
        state = self.state()
        if state == self.CLOSED:
            return True
        if state == self.HALF_OPEN and self._trials_left > 0:
            self._trials_left -= 1
            return True
        return False

    # -- outcomes -------------------------------------------------------------

    def record_failure(self) -> None:
        """One dispatch on this shard failed (worker crash, pipe death)."""
        now = self.clock()
        self.failure_count += 1
        state = self.state()
        if state == self.HALF_OPEN:
            # The probe failed: straight back to quarantine, fresh cooldown.
            self._opened_at = now
            self._failures = []
            self._transition(self.OPEN, now)
            return
        self._failures.append(now)
        self._prune(now)
        if state == self.CLOSED and len(self._failures) >= self.policy.failure_threshold:
            self._opened_at = now
            self._failures = []
            self._transition(self.OPEN, now)

    def record_success(self) -> None:
        """One dispatch on this shard completed cleanly."""
        now = self.clock()
        self.success_count += 1
        if self.state() == self.HALF_OPEN:
            self._transition(self.CLOSED, now)
        self._prune(now)

    def stats(self) -> Dict[str, object]:
        """A plain-data view of this breaker for ``stats()["members"]``."""
        return {
            "state": self.state(),
            "failures": self.failure_count,
            "successes": self.success_count,
            "window_failures": len(self._failures),
            "transitions": [name for name, _when in self.transitions],
        }


@dataclass(frozen=True)
class DispatchPolicy:
    """Placement and liveness knobs for the network router.

    ``top_k`` / ``balance_load`` shape placement: a request's consistent-hash
    ring order is computed as always, but with ``balance_load`` on the router
    picks the *least-loaded* (the batch's placed load plus the member's
    reported queue depth) among the first ``top_k`` ring candidates, so a hot program
    spreads over exactly ``k`` warm-ish endpoints instead of queueing on one
    — ``Request.affinity`` still chooses the candidate *set* (it is the
    placement key), which is what demotes it from a pin to a locality hint.
    With ``balance_load`` off (or ``top_k=1``) placement is pure consistent
    hashing, the differential-friendly mode.

    ``attempt_timeout_seconds`` is the per-attempt deadline: the timeout of
    every endpoint socket, so no frame read from a worker blocks the router
    longer.  A link that stalls past it — slow network, wedged worker — is
    treated exactly like a dropped connection (breaker failure, checkpoint
    migration / redispatch against the retry budget) instead of stalling
    the whole batch.  ``None`` waits forever.
    """

    top_k: int = 2
    balance_load: bool = True
    attempt_timeout_seconds: Optional[float] = None

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.attempt_timeout_seconds is not None and self.attempt_timeout_seconds <= 0:
            raise ValueError(
                f"attempt_timeout_seconds must be > 0 or None, got {self.attempt_timeout_seconds}"
            )


class AdmissionController:
    """Deterministic load shedding by batch size.

    ``max_batch`` caps how many requests of one batch are admitted at all;
    the rest — always the *tail* of the batch, so shedding is deterministic
    and order-preserving — are rejected with ``rejected_overload``.  ``None``
    disables the limit.
    """

    def __init__(self, max_batch: Optional[int] = None):
        if max_batch is not None and max_batch < 1:
            raise ValueError(f"max_batch must be >= 1 or None, got {max_batch}")
        self.max_batch = max_batch
        self.shed_count = 0

    def batch_cutoff(self, size: int) -> int:
        """How many requests of a ``size``-request batch are admitted."""
        if self.max_batch is None:
            return size
        return min(size, self.max_batch)

    def count_shed(self, count: int = 1) -> None:
        self.shed_count += count

    def stats(self) -> Dict[str, Optional[int]]:
        return {"max_batch": self.max_batch, "shed": self.shed_count}
