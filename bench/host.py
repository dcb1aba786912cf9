"""Host-speed probes: correct timings for the speed of a shared host.

On a shared virtual machine the speed of one vCPU drifts by up to 2x over
tens of seconds as other tenants come and go, which swamps run-to-run
comparisons of raw times.  A run therefore times a fixed probe kernel, which
runs no fqrank code, every PROBE_EVERY seconds between ops, and divides each
op's time by the host's slowdown: the median probe time within PROBE_SPAN
seconds of the op (or the op's own duration, if longer) over the kernel's
reference time.  Corrected times read as
seconds on the reference host.  A change to fqrank does not change the
probe, so it shows in full.

Code types slow down by different factors, so each workload probes with the
kernel closest to its own code: small numpy calls, or Fraction arithmetic.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from functools import cache
from time import perf_counter

PROBE_EVERY = 0.05
PROBE_SPAN = 0.5

@cache
def _matrix():
    import numpy as np  # imported late: set-up probes run before numpy is loaded

    return np, (np.arange(900, dtype=np.int64).reshape(30, 30) * 7919) % 97


def _numpy_kernel() -> None:
    np, m = _matrix()
    m = m.copy()
    for r in range(29):
        m[r + 1:] = (m[r + 1:] - np.outer(m[r + 1:, r], m[r])) % 97


def _python_kernel() -> None:
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(1, i)


# kernel -> (function, fastest time seen on a 2-vCPU Xeon (Sapphire Rapids) KVM guest)
KERNELS = {"numpy": (_numpy_kernel, 226e-6), "python": (_python_kernel, 301e-6)}


def probe(kernel: str) -> float:
    """Seconds taken by one run of a probe kernel."""
    fn = KERNELS[kernel][0]
    t = perf_counter()
    fn()
    return perf_counter() - t


class Probes:
    """Times of one probe kernel, taken at most every PROBE_EVERY seconds."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.ref = KERNELS[kernel][1]
        self.at: list[float] = []
        self.took: list[float] = []

    def maybe(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= PROBE_EVERY:
            self.take()

    def take(self) -> None:
        self.at.append(perf_counter())
        self.took.append(probe(self.kernel))

    def slowdown(self, start: float, end: float) -> float:
        """Median probe time near [start, end] over the reference time.

        No probe runs during an op, so a long op takes probes from as far on
        either side as it lasts."""
        span = max(PROBE_SPAN, end - start)
        a = bisect.bisect_left(self.at, start - span)
        b = bisect.bisect_right(self.at, end + span)
        a = min(a, len(self.took) - 1)
        return statistics.median(self.took[a:max(b, a + 1)]) / self.ref
