"""Host-speed reference: a fixed kernel sampled while the units run.

The shared host this benchmark runs on changes speed by up to 2x, within
seconds and for minutes at a time, which moves every raw timing of a run.
The kernel below does the same kind of work as the package (a greedy
walk on a 20 x 20 grid: tuple arithmetic, dict look-ups, numpy draws,
argmax and an in-place update on a small table) and never calls the
package, so a change to the program leaves it alone.

A Speedometer runs a short slice of the kernel every INTERVAL_S of wall
time, from a SIGALRM handler in the main thread, so the slices interleave
with the unit being measured and see the host as the unit sees it.  A
unit's time excludes the slices that fell into it.  A unit that runs on
several cores in a process pool leaves the main thread waiting while the
workers fill the cores, and slices taken then would measure the
contention; for such units the Speedometer does not interrupt.  Right
after each unit it runs a block of BLOCK_SLICES slices in each of `jobs`
helper processes at once, loading the cores as the unit did, and their
mean measures the speed instead.  Timings are reported in reference
seconds,

    reference seconds = seconds * REFERENCE_SLICE_S / mean slice seconds,

the time the unit would have taken on a host that runs one slice in
exactly REFERENCE_SLICE_S.
"""
from __future__ import annotations

import multiprocessing
import signal
import time

import numpy as np

INTERVAL_S = 0.1
SLICE_STEPS = 1250
BLOCK_SLICES = 20
# Nominal slice time; about the measured one on a 2-core x86-64 host.
REFERENCE_SLICE_S = 0.005
GRID = 20
DELTAS = ((0, -1), (0, 1), (-1, 0), (1, 0))


def kernel(steps: int = SLICE_STEPS) -> float:
    """A deterministic greedy walk with a tabular update; returns its sum."""
    rng = np.random.default_rng(12345)
    table = np.zeros((GRID, GRID, 4))
    support = {(x, y): 1.0 - 0.1 * (abs(x - 10) + abs(y - 10))
               for x in range(8, 13) for y in range(8, 13)}
    visits = {}
    pos = (0, 0)
    total = 0.0
    for i in range(steps):
        if i % 8 == 0:
            direction = int(rng.integers(4))
        else:
            direction = int(np.argmax(table[pos[0], pos[1]]))
        dx, dy = DELTAS[direction]
        x, y = pos[0] + dx, pos[1] + dy
        if 0 <= x < GRID and 0 <= y < GRID:
            pos = (x, y)
        level = support.get(pos, 0.0)
        visits[pos] = visits.get(pos, 0) + 1
        table[pos[0], pos[1], direction] += 0.1 * (level - table[pos[0], pos[1], direction])
        total += level
    return total


def kernel_seconds(steps: int = SLICE_STEPS) -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    kernel(steps)
    return time.perf_counter() - start


def _block(_=None) -> list[float]:
    return [kernel_seconds() for _ in range(BLOCK_SLICES)]


class Speedometer:
    """Host-speed samples for units that use `jobs` cores.

    jobs == 1: a slice every INTERVAL_S in the main thread, kept as
    (start, end).  jobs > 1: blocks run by `jobs` helper processes.
    """

    def __init__(self, jobs: int = 1):
        self.jobs = jobs
        self.slices: list[tuple[float, float]] = []
        self._previous = None
        self._helpers = None

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        kernel()
        self.slices.append((start, time.perf_counter()))

    def __enter__(self):
        kernel()  # warm-up
        if self.jobs == 1:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        else:
            self._helpers = multiprocessing.get_context("fork").Pool(self.jobs)
            self.block()  # warm-up
        return self

    def __exit__(self, *exc):
        if self._helpers is not None:
            self._helpers.close()
            self._helpers.join()
        else:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def block(self) -> list[float]:
        """Slice durations of a block in each helper, all run at once."""
        blocks = self._helpers.map(_block, range(self.jobs), chunksize=1)
        return [seconds for block in blocks for seconds in block]

    def during(self, start: float, end: float) -> list[float]:
        """Durations of the slices taken between start and end."""
        return [b - a for a, b in self.slices if a >= start and b <= end]


def reference_seconds(seconds: float, slice_seconds: float) -> float:
    return seconds * REFERENCE_SLICE_S / slice_seconds
