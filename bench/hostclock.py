"""Host-speed-corrected timing for the benchmark's end-to-end metrics.

The benchmark runs on small shares of shared hosts, whose speed drifts by
tens of percent over seconds to minutes: on a 2-core VM, identical `rotavg
sweep` passes in one process took anywhere from 1.7 to 3.2 s. Plain wall
time then measures the neighbours, not the program. A `HostClock` measures
the host's speed while the program runs: a timer signal interrupts the
process every `PERIOD_S` of wall time and runs a fixed pure-Python probe,
whose duration rises and falls with the speed the process gets. A span
timed on the clock reports its wall time minus the probes run inside it,
scaled by `NOMINAL_PROBE_S` over the mean probe duration inside it: the time
the span would take on a host where one probe takes `NOMINAL_PROBE_S`.

The probe is pure Python so that it can run before numpy is imported (set-up
time includes that import) and so that no change to rotavg alters it. It
costs about one percent of the run.
"""

from __future__ import annotations

import signal
import time
from array import array

PERIOD_S = 0.01  # wall time between probes
NOMINAL_PROBE_S = 100e-6  # probe duration that corrected times are scaled to
PROBE_ITERATIONS = 400


def probe():
    """Fixed work: float arithmetic, a dict store and loop overhead."""
    d, s = {}, 0.0
    for i in range(PROBE_ITERATIONS):
        x = (i * 0.618) % 1.0
        s += x * x - s * 1e-3
        d[i & 15] = s
    return s


class HostClock:
    """Probes the host's speed while entered; times spans against it."""

    def __init__(self):
        self.probe_s = array("d")
        self._prev_handler = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        self.probe_s.append(time.perf_counter() - t0)

    def __enter__(self):
        self._prev_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._prev_handler)

    def start(self):
        """A mark to pass to `elapsed` at the end of the span."""
        return len(self.probe_s), time.perf_counter()

    def elapsed(self, mark):
        """(wall seconds, corrected seconds) since `mark`. A span too short
        to hold a probe is scaled by the mean of every probe so far."""
        end = time.perf_counter()
        first, start = mark
        inside = self.probe_s[first:]
        wall = end - start
        probes = inside if len(inside) else self.probe_s
        if not len(probes):
            return wall, wall
        mean = sum(probes) / len(probes)
        return wall, (wall - sum(inside)) * NOMINAL_PROBE_S / mean
