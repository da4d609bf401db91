"""Host speed next to and during each job, from a fixed pure-Python kernel.

On a shared host the speed of one core drifts by up to 2x within a minute
(NOTES.md), far more than any change worth measuring.  So the benchmark runs
a small kernel three times between jobs and, by a SIGALRM timer, every
INTERVAL_S during a job, and divides each job's time (less the time spent in
the kernel) by the kernel's slowness over the job: the trimmed mean of the
samples taken during the job, or for a job too short to hold three, the
median of the samples on both sides, over NOMINAL_S.  The kernel never
calls twcert, so a change to the program leaves it alone; it
mixes the kinds of work the workloads do: bitmask reachability over vertex
subsets, a backtracking search through generators, and exact Fraction sums.
Do not edit the kernel or NOMINAL_S: every recorded number depends on them.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Iterator, Optional

# Seconds the kernel typically takes between jobs on a shared 2.0 GHz Xeon
# core with Python 3.11; a normalized time is what the job would take at
# that speed.
NOMINAL_S = 0.0012
INTERVAL_S = 0.05
ADJACENT = 3  # kernel runs between two jobs

_N = 12
_MASKS = [0] * _N
for _v in range(_N):
    for _u in ((_v + 1) % _N, (_v * 5 + 3) % _N):
        if _u != _v:
            _MASKS[_v] |= 1 << _u
            _MASKS[_u] |= 1 << _v


def _reach(seed: int, allowed: int) -> int:
    cur = seed & allowed
    while True:
        nxt = cur
        m = cur
        while m:
            low = m & -m
            nxt |= _MASKS[low.bit_length() - 1] & allowed
            m ^= low
        if nxt == cur:
            return cur
        cur = nxt


def _paths(path: list[int], used: int, depth: int):
    if depth == 0:
        yield tuple(path)
        return
    last = path[-1]
    for v in range(_N):
        if used >> v & 1 or not _MASKS[last] >> v & 1:
            continue
        if any(_MASKS[u] >> v & 1 for u in path[:-1]):
            continue  # induced paths only
        path.append(v)
        yield from _paths(path, used | 1 << v, depth - 1)
        path.pop()


def kernel() -> int:
    """About a millisecond of work."""
    acc = 0
    for s in range(1, 1 << 8):
        acc += _reach(s & -s, s).bit_count()
    for start in (0, 6):
        for p in _paths([start], 1 << start, 6):
            acc += p[-1]
    for k in range(3):
        total = Fraction(0)
        for i in range(1, 40):
            total += Fraction(i + k, 7 * i + 3)
        acc += total.numerator % 7
    return acc


def sample() -> float:
    """Seconds one run of the kernel takes right now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Sampling:
    """Kernel samples taken during one job, and the time they took."""

    def __init__(self, samples: Optional[list[float]] = None, paused: float = 0.0) -> None:
        self.samples: list[float] = samples or []
        self.paused = paused


class Probe:
    """Host speed measured around and during a sequence of jobs."""

    def __init__(self) -> None:
        self.last = self._batch()

    @staticmethod
    def _batch() -> list[float]:
        return [sample() for _ in range(ADJACENT)]

    def speed(self, during: Optional[Sampling] = None) -> float:
        """Host slowness (1.0 = nominal) over the job that just ended.

        The mean over the job tracks a host that switches between fast and
        slow phases; trimming drops a sample a stray interrupt slowed."""
        after = self._batch()
        if during is not None and len(during.samples) >= ADJACENT:
            ordered = sorted(during.samples)
            cut = len(ordered) // 10
            level = statistics.mean(ordered[cut:len(ordered) - cut])
        else:
            level = statistics.median(self.last + (during.samples if during else []) + after)
        self.last = after
        return level / NOMINAL_S



@contextmanager
def sampling(on_pause: Optional[Callable[[float], None]] = None) -> Iterator[Sampling]:
    """Sample the kernel every INTERVAL_S inside the block.  on_pause gets the
    length of each interruption, so that a tracer can leave it out."""
    got = Sampling()

    def handler(signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        got.samples.append(time.perf_counter() - start)
        paused = time.perf_counter() - start
        got.paused += paused
        if on_pause is not None:
            on_pause(paused)

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield got
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
