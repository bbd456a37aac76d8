"""A host clock calibrated against the host's own speed.

The benchmark's host timings are converted to *calibrated seconds*:
the time the same work would take on a host where one probe takes
:data:`NOMINAL_PROBE_S`.  The conversion cancels changes in the
host's own speed, not in the program's.

Why: on a shared host a fixed pure-Python loop runs at speeds up to
1.6x apart, per core, switching every few seconds and drifting over
minutes (neighbours contending for the core; CPU time tracks wall
time, so it is lost CPU speed, not scheduling).  Raw wall time then
measures the neighbours as much as the program.

How: while the clock runs, a ``SIGALRM`` interval timer interrupts the
process every :data:`PERIOD_S` and runs a fixed probe, a short loop of
the dict, attribute and integer work the simulator's interpreter loop
is made of, timing it.  Probes are also run once when the clock starts
and once when it stops.  The time between two probes counts at the
rate the nearby probes ran: gap x ``NOMINAL_PROBE_S`` / (median
duration of the :data:`WINDOW` probes around the gap).  Time spent in
the probes themselves does not count.  The probes cost about 1% of the
host time.

Usage::

    clock = HostClock()
    clock.start()
    a = clock.now(); ...; b = clock.now()
    clock.stop()
    clock.seconds(a, b)      # calibrated seconds between the stamps

The clock owns ``SIGALRM`` while it runs; nothing in ``repro`` uses it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

#: probe interval
PERIOD_S = 0.02
#: loop iterations of one probe (about 0.2 ms)
PROBE_ITERS = 1200
#: one probe's duration on the reference host: the fast state of the
#: 2-vCPU x86 VM (Python 3.11) the benchmark was built on
NOMINAL_PROBE_S = 200e-6
#: probes whose median gives the rate of the gap between two of them
WINDOW = 4

now = time.perf_counter


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def _probe_work(table: dict, cell: _Cell) -> int:
    total = 0
    for i in range(PROBE_ITERS):
        key = i & 63
        table[key] = table.get(key, 0) + i
        cell.value = total
        total += (i ^ cell.value) % 7
    return total


class HostClock:
    """Interleaves probes with the measured work; converts
    ``perf_counter`` stamps taken while it ran into calibrated seconds."""

    now = staticmethod(now)

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self._table: dict = {}
        self._cell = _Cell()
        self._busy = False
        self._previous = None
        self._cum: list[float] = []
        self._rate: list[float] = []

    def _probe(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        begin = now()
        _probe_work(self._table, self._cell)
        end = now()
        self.starts.append(begin)
        self.ends.append(end)
        self._busy = False

    def start(self) -> None:
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._probe()
        self._calibrate()

    def _calibrate(self) -> None:
        durations = [end - begin for begin, end in zip(self.starts, self.ends)]
        # gap k runs from the end of probe k-1 to the start of probe k
        half = WINDOW // 2
        self._rate = [0.0]
        self._cum = [0.0]
        for k in range(1, len(durations)):
            near = durations[max(0, k - half):k + half]
            rate = NOMINAL_PROBE_S / statistics.median(near)
            gap = self.starts[k] - self.ends[k - 1]
            self._rate.append(rate)
            self._cum.append(self._cum[-1] + gap * rate)

    def at(self, stamp: float) -> float:
        """Calibrated seconds from the start of the clock to ``stamp``."""
        k = bisect.bisect_right(self.starts, stamp)
        if k == 0:
            return 0.0
        if k == len(self.starts):
            return self._cum[-1]
        return self._cum[k - 1] + self._rate[k] * max(
            0.0, stamp - self.ends[k - 1]
        )

    def seconds(self, begin: float, end: float) -> float:
        """Calibrated seconds between two ``now()`` stamps."""
        return self.at(end) - self.at(begin)
