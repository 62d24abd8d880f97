"""Speed probe: corrects timings for the machine's own speed at the moment.

On a shared virtual machine the same code runs up to twice as slow while
neighbours are busy, and the slow and fast stretches alternate every second
or so.  A timer signal runs ``probe`` -- a fixed piece of pure-Python work
that uses no haantjeskit code -- every ``interval`` seconds of wall time,
in the thread being measured, and records how long it took.  The probes
sample the machine's speed uniformly over the measured stretch, so

    normalised time = (wall time - time spent in probes) * mean(REF_S / d)

over the probe durations ``d`` is the time the stretch would have taken had
the machine run throughout at the speed at which the probe takes ``REF_S``.
"""

from __future__ import annotations

import signal
from time import perf_counter

# Duration of one probe when the machine runs at full speed: the fastest
# probe seen inside a pass on a 2-vCPU Xeon virtual machine (2.1 GHz),
# CPython 3.11.  Normalised figures are seconds at that speed.
REF_S = 0.5e-3
INTERVAL_S = 0.05  # between probes during a pass: 1-2% of its time
SETUP_INTERVAL_S = 0.01  # during an import of about 0.2 s
# This module imports nothing beyond ``signal`` and ``time``, so that loading
# it adds next to nothing to a timed interpreter start.


def probe():
    """Jet-like work: complex products and small tuples, as in the program."""
    z = 0.5 + 0.25j
    g = (1.0, 0.5, 0.25, 0.125, 0.1, 0.2)
    d = {}
    for i in range(400):
        z = z * (0.999 + 0.001j) + 0.001
        g = tuple(z * x + 0.5 * x for x in g)
        d[i & 31] = g
    return d


class SpeedProbe:
    """Context manager that runs ``probe`` from ``SIGALRM`` every
    ``interval`` seconds of wall time; ``samples`` holds the durations."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        probe()
        self.samples.append(perf_counter() - t0)

    def take(self) -> list:
        """The durations recorded since the last ``take``."""
        out, self.samples = self.samples, []
        return out

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def timed_probe() -> float:
    t0 = perf_counter()
    probe()
    return perf_counter() - t0


def normalised(wall: float, samples, spent: float | None = None) -> float:
    """``wall`` minus the probes run inside it (``spent``, by default the
    sum of ``samples``), rescaled by the speed the ``samples`` measured."""
    if spent is None:
        spent = sum(samples)
    return (wall - spent) * sum(REF_S / d for d in samples) / len(samples)
