"""CPU speed probe, to take the host's speed swings out of pass times.

The CPU speed a process sees on the machine the benchmark was built on
swings by up to 2x, in spells of a fraction of a second to minutes, and
independently on each CPU (see README.md, "Steadiness").  A pass takes
2-4 s, so raw pass times mostly measure which spells a run happened to
hit.

While a pass runs, a ``Probe`` thread in the runner, on the same CPU as
the pass, runs a fixed pure-Python loop every ``PERIOD_S`` and takes its
thread CPU time.  Thread CPU time counts only the time the loop itself
ran, so it measures the CPU's speed at that moment even though the probe
shares the CPU with the pass.  ``normalize`` converts a measured interval
into the seconds it would have taken at the reference speed, at which
one probe takes ``REF_S``: the interval times the mean of REF_S / probe
time over the probes inside it.  The probes' own CPU time within the
interval (about 2 % of it) is subtracted first.
"""

from __future__ import annotations

import math
import statistics
import threading
import time

LOOPS = 2500
# CPU seconds of one probe at the reference speed: the fast state of the
# 2-vCPU Xeon VM the benchmark was built on (Python 3.11).
REF_S = 0.5e-3
PERIOD_S = 0.025


def _work(n: int) -> float:
    acc, table = 0.0, {}
    for i in range(n):
        x = (i % 97) * 0.25 + 1.0
        acc += math.sqrt(x) / (x + acc % 3.0)
        table[i & 255] = acc
    return acc + len(table)


class Probe:
    """Sample the CPU speed from a thread while the ``with`` block runs.

    ``samples`` holds one (monotonic time at the probe's middle, probe CPU
    seconds) pair per probe.
    """

    def __init__(self) -> None:
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            t0, c0 = time.monotonic(), time.thread_time()
            _work(LOOPS)
            c1, t1 = time.thread_time(), time.monotonic()
            self.samples.append(((t0 + t1) / 2.0, c1 - c0))

    def __enter__(self) -> "Probe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def normalize(self, start: float, end: float) -> float:
        """Seconds that [start, end] would have taken at the reference speed.

        Uses the probes inside the interval, or the one nearest to its
        middle when none falls inside it (a very short interval).
        """
        inside = [cpu for t, cpu in self.samples if start <= t <= end]
        rated = inside
        if not rated:
            mid = (start + end) / 2.0
            rated = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return (end - start - sum(inside)) * statistics.mean(REF_S / cpu for cpu in rated)
