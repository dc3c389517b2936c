"""Request timing normalised to a fixed host speed.

On a small shared host the speed of a core drifts by 20-40% over tens of
seconds with what the neighbours run, and averaging over a longer run does
not remove the drift.  So each untraced run also times a small fixed
calibration kernel (a pure-Python loop and a few numpy passes over a 1.6 MB
array, the two kinds of work the package does) every ``PERIOD`` seconds,
from a SIGALRM handler that interrupts the workload.  A request's time is
then rescaled to the speed at which the kernel takes ``KERNEL_REF_S``:

    normalised = (raw - kernel time inside the request) * KERNEL_REF_S / k

where k is the median kernel time during the request, or over the
``NEAREST`` samples nearest to it when the request holds fewer (host speed
drifts over tens of seconds, so a 3 s window still tracks it).  The
kernel's own time is taken out of the request first.  A change to the
package moves its requests' times and not the kernel's, so it shows in the
normalised time in full; the host's drift moves both and cancels.  Raw
times are printed next to the normalised ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

#: Kernel time, in seconds, at the reference host speed.  About the
#: kernel's median on a 2-core 2.1 GHz Xeon VM.
KERNEL_REF_S = 2.5e-3
PERIOD = 0.2
NEAREST = 15


class SpeedProbe:
    """Samples the calibration kernel while active; a context manager."""

    def __init__(self):
        self._data = np.random.default_rng(0).random(200_000)
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def kernel(self) -> None:
        t0 = time.perf_counter()
        s = 0
        for i in range(20_000):
            s += i * i
        for _ in range(3):
            (self._data * 1.0001).sum()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self.kernel()
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.kernel())
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalise(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] would take at the reference speed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = (t1 - t0) - sum(durations[lo:hi])
        if hi - lo < NEAREST:
            mid = 0.5 * (t0 + t1)
            nearest = sorted(range(len(durations)), key=lambda i: abs(self.starts[i] - mid))
            window = [durations[i] for i in nearest[:NEAREST]]
        else:
            window = durations[lo:hi]
        return own * KERNEL_REF_S / statistics.median(window)
