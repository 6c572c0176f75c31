"""How fast the host runs Python right now, so timings can be put on one scale.

The benchmark runs on shared machines whose speed for interpreted code
drifts by up to 2x within minutes, as neighbours come and go.  A timing
taken in a slow minute and one taken in a fast minute are not comparable,
so the benchmark reports every duration in *reference milliseconds*: the
wall time it measured, scaled by how much slower or faster than
:data:`REFERENCE_SECONDS` a fixed probe ran at that moment.

The probe is a small tree-walking evaluator -- attribute loads, method
calls, dictionary lookups, no allocation of containers -- the kind of work
a Python interpreter does in the frontends and machines, written here so
that nothing in the program under test can make it faster or slower.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Tuple

#: The probe's duration on the reference machine (a 2-vCPU Xeon sandbox at
#: its usual, contended speed).  Only the ratio to it matters.
REFERENCE_SECONDS = 0.0004

#: Probes are taken between calls at least this far apart.
INTERVAL_SECONDS = 0.05

#: A call is scaled by the median of the probes within this distance of its
#: midpoint (at least :data:`MIN_PROBES` of the nearest ones).
WINDOW_SECONDS = 0.25
MIN_PROBES = 3


class _Add:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def evaluate(self, env):
        return self.left.evaluate(env) + self.right.evaluate(env)


class _Var:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def evaluate(self, env):
        return env[self.name]


class _Lit:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def evaluate(self, env):
        return self.value


def _tree(depth: int, index: int):
    if depth == 0:
        return _Var(f"x{index % 4}") if index % 3 else _Lit(index)
    return _Add(_tree(depth - 1, 2 * index), _tree(depth - 1, 2 * index + 1))


_TREE = _tree(7, 1)
_ENV = {"x0": 1, "x1": 2, "x2": 3, "x3": 4}
_ROUNDS = 12


def probe() -> float:
    """Seconds the fixed probe takes right now."""
    began = time.perf_counter()
    for _ in range(_ROUNDS):
        _TREE.evaluate(_ENV)
    return time.perf_counter() - began


class Speedometer:
    """Probes taken through a run, and the scale factor they give any moment."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.seconds: List[float] = []
        #: Total wall time spent probing, to take out of a timed interval
        #: that probes ran inside.
        self.spent = 0.0

    def sample(self) -> None:
        began = time.perf_counter()
        seconds = probe()
        self.times.append(began + seconds / 2)
        self.seconds.append(seconds)
        self.spent += time.perf_counter() - began

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_SECONDS:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_SECONDS`` over the probe speed around ``[start, end]``."""
        middle = (start + end) / 2
        low = bisect.bisect_left(self.times, start - WINDOW_SECONDS)
        high = bisect.bisect_right(self.times, end + WINDOW_SECONDS)
        if high - low < MIN_PROBES:
            nearest = sorted(range(len(self.times)), key=lambda index: abs(self.times[index] - middle))
            chosen = [self.seconds[index] for index in nearest[:MIN_PROBES]]
        else:
            chosen = self.seconds[low:high]
        return REFERENCE_SECONDS / statistics.median(chosen)

    def scale(self, spans: List[Tuple[float, float]]) -> List[float]:
        """Each ``(start, end)`` wall interval in reference seconds."""
        return [(end - start) * self.factor(start, end) for start, end in spans]

    def median_probe(self) -> float:
        return statistics.median(self.seconds)
