"""Host-speed reference: a fixed piece of work that does not touch equiosc.

The benchmark host is a few cores of a shared machine whose speed drifts by
1.5-2x over seconds to minutes, for wall time and CPU time alike. The timed
run therefore interleaves this reference with the library's tasks and reports
its times rescaled to a nominal host speed:

    normalized seconds = measured seconds * NOMINAL_UNIT_S / (measured seconds of one unit)

where the unit's measured seconds is its mean over the same stretch of the run.
A change to equiosc cannot change the reference, so it moves the normalized
time exactly as it moves the wall time; a drift of the host moves both the
task time and the reference time and largely cancels.

The host's speed changes within a second, and one library call can take
seconds, so reference units placed only between calls would sample the host
at other moments than the calls ran in. ``Meter.interleaved`` instead runs one
unit from a SIGALRM handler at a fixed wall-clock interval, inside the calls
as well (Python runs the handler between bytecodes); the caller subtracts the
reference seconds spent inside a call from that call's time.

One unit mirrors the library's hot path: golden-section maximization of a sum
of logarithms in pure Python (as in ``translates``), a small numpy candidate
grid (as in ``applications``), and reads of Python objects scattered over a
few megabytes of heap, about a third of the unit's time. The mix matters,
as the host's cache and memory contention varies apart from its core speed:
in six roundtrip_small runs timed against several references at once, one
that only computed in the first-level cache left a spread of 0.11 and one
with heap reads 0.05; with two thirds of its time on heap reads it
overcorrected union_compare.
"""

from __future__ import annotations

import math
import random
import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Seconds of one unit on the 2-core x86_64 host the bounds were set on, in a
# quiet stretch (Python 3.11, numpy 2.4). It only sets the scale of the
# normalized numbers; any fixed value would do.
NOMINAL_UNIT_S = 0.001

_NODES = (0.05, 0.2, 0.45, 0.7, 0.93)
_INTERVALS = tuple(zip((0.0,) + _NODES, _NODES + (1.0,)))
_GRID = np.linspace(0.0, 1.0, 257)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# 64k (float, int) tuples, about 5 MB, visited in a fixed shuffled order.
_HEAP_OBJECTS = 1 << 16
_READS = 3000
_shuffle = random.Random(0)
_WALK = [(_shuffle.random(), i) for i in range(_HEAP_OBJECTS)]
_shuffle.shuffle(_WALK)
_walk_at = 0


def _g(t: float) -> float:
    s = 0.0
    for y in _NODES:
        s += math.log(abs(t - y))
    return s


def _golden_max(lo: float, hi: float) -> float:
    a, b = lo, hi
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = _g(c), _g(d)
    while b - a > 1e-12:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = _g(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = _g(d)
    return max(fc, fd)


def unit() -> float:
    """One unit of reference work (about NOMINAL_UNIT_S seconds)."""
    global _walk_at
    total = 0.0
    for _ in range(2):
        for lo, hi in _INTERVALS:
            total += _golden_max(lo + 1e-3, hi - 1e-3)
    grid = np.log(np.abs(_GRID[:, None] - np.asarray(_NODES)) + 1e-3).sum(axis=1)
    for value, _ in _WALK[_walk_at:_walk_at + _READS]:
        total += value
    _walk_at = (_walk_at + _READS) % _HEAP_OBJECTS
    return total + float(grid.max())


class Meter:
    """Runs reference units and keeps their count and seconds."""

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0
        self._busy = False

    def run(self, units: int = 1) -> None:
        t0 = perf_counter()
        for _ in range(units):
            unit()
        self.seconds += perf_counter() - t0
        self.units += units

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives during a unit is dropped
            return
        self._busy = True
        try:
            self.run()
        finally:
            self._busy = False

    @contextmanager
    def interleaved(self, interval_s: float):
        """Run one unit every ``interval_s`` seconds of wall time while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def unit_s(self) -> float:
        return self.seconds / self.units
