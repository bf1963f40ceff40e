"""How fast the host runs Python right now, to put times taken at different
moments on one scale.

The host is shared: its speed drifts by a quarter or more within minutes, on
both CPUs at once, with almost no steal time.  A pass that happens to run in
a slow minute is slow for that reason alone.  A fixed kernel of pure-Python
arithmetic, timed often and in the same thread as the work it calibrates,
slows down with it, while nothing the program does changes the kernel.

* ``Sampler`` times the kernel every ``PERIOD_S`` of a pass, from a
  ``SIGALRM`` handler: the pass pauses while the kernel runs, so the two
  never run at the same time, and the samples cover the whole pass.  Each
  timed kernel follows an untimed one, which refills the caches the pass
  has just used.
* ``sample`` times the kernel a few times in a row, for a moment outside a
  pass (the set-up launches).

``scaled(seconds, kernel_s)`` gives the time the work would have taken on
a host where one kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1  # two kernels every 0.1 s of a pass: about 1 % of its time
REFERENCE_S = 400e-6  # a kernel's typical time on the 2-vCPU Xeon host


def kernel() -> None:
    """Rational and small-integer arithmetic, like the exact layers' inner loops."""
    total = Fraction(0)
    for i in range(1, 40):
        total = total + Fraction(i, i + 7) * Fraction(3, 5)
    x = 0
    for i in range(800):
        x = (x * 31 + i) % 1000003


def timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def sample(count: int) -> float:
    """Median time of ``count`` kernels run back to back."""
    return statistics.median(timed_kernel() for _ in range(count))


def scaled(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_S / kernel_s


class Sampler:
    """Times the kernel every ``PERIOD_S`` while the ``with`` block runs."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spent = 0.0  # seconds the block was paused for kernels

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        # With the collector off, a collection of the pass's heap never lands
        # in a kernel's time.
        collecting = gc.isenabled()
        gc.disable()
        try:
            kernel()  # refills the caches the pass just used, so the timed one sees the host
            self.times.append(timed_kernel())
        finally:
            if collecting:
                gc.enable()
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.times:  # a block shorter than one period
            self.times.append(timed_kernel())

    @property
    def kernel_s(self) -> float:
        """Mean kernel time without the fastest and slowest tenth: the host's
        speed averaged over the pass, not moved by one preempted kernel."""
        times = sorted(self.times)
        cut = len(times) // 10
        return statistics.fmean(times[cut:len(times) - cut])
