"""A clock that measures the machine's speed while the benchmark runs.

Other tenants of the shared machine the benchmark was tuned on slow all
code by up to 2x, in phases from under a second to minutes long. The
process's CPU time slows with its wall time (there is no steal time to
leave out), so neither clock gives steady figures: the same pass of the
same code reads up to 40% apart between runs.

While a `SpeedClock` runs, a SIGALRM handler times `probe()` every
PROBE_INTERVAL_S of wall time, also in the middle of `sim.run()`. The
mean time of the probes taken during an interval tells how fast the
machine ran during it, and `scale()` of those probes turns seconds
measured over the interval into seconds at the speed at which `probe()`
takes PROBE_REF_S. On the tuning machine the log of one `sim.run()`'s
wall time followed the log of the mean probe time with a correlation of
0.85 to 0.98, and the spread between quartiles of single calls fell
from 0.12-0.48 to 0.05-0.11 of the median (see README.md). `probe()`
calls nothing in racsim, so a change to racsim cannot move it, and
scaling cannot hide a regression.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

# 25 probes per second of about 0.9 ms each take about 2.3% of the time; a
# longer probe followed the simulator's slowdown more closely than a shorter one
PROBE_INTERVAL_S = 0.04
# About the median time of probe() on a 2-vCPU virtual machine with Python
# 3.11.7; it only fixes the unit of the scaled seconds.
PROBE_REF_S = 0.00090


def probe() -> int:
    """A fixed piece of pure-Python work in the simulator's style: tuple
    keys, dictionary lookups, float arithmetic and number formatting."""
    table: dict = {}
    acc, lines = 0.0, []
    for i in range(1600):
        key = (i & 127, i & 3)
        acc = acc * 0.5 + table.get(key, 0.25)
        table[key] = acc - i
        if i & 15 == 0:
            lines.append("%d,%.6g" % (i, acc))
    return len(lines)


def scale(probes: list[float]) -> float:
    """Scaled seconds per measured second over the interval in which
    `probes` were taken."""
    return PROBE_REF_S / statistics.fmean(probes)


class SpeedClock:
    """`now()` is wall time without the time spent in probes;
    `since(mark())` lists the probe times taken after the mark."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._spent = 0.0

    def _probe(self, signum, frame) -> None:
        start = perf_counter()
        probe()
        elapsed = perf_counter() - start
        self._samples.append(elapsed)
        self._spent += elapsed

    def now(self) -> float:
        return perf_counter() - self._spent

    def mark(self) -> int:
        return len(self._samples)

    def since(self, mark: int) -> list[float]:
        return self._samples[mark:]

    def __enter__(self) -> "SpeedClock":
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
