"""Machine-speed probe: scales op latencies to a fixed reference speed.

Co-tenants on a shared host slow every core of a small virtual machine by
up to 2x for seconds to minutes at a time, for pure-Python and numpy code
alike (an edit_distance call measured 2.1 ms in quiet phases and 4.0 ms in
busy ones).
Such swings dwarf the change one commit makes.  So while an op runs, a
SIGALRM timer times a small fixed kernel every INTERVAL_S, and the op's
latency, less the time spent in the timer handler, is multiplied by
REFERENCE_KERNEL_S over the mean kernel time.  Set-up times are scaled the
same way by bursts of kernel calls just before and after.  The kernel is
the benchmark's own code and never calls repeatcap, so no change to the
library moves it.

The timer handler runs the kernel twice and times the second call: right
after a memory-heavy op has flushed the caches, a single call reads
1.3-1.8x slow, which would tie the scale to the op's memory traffic.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Median kernel time in quiet phases on the 2-vCPU virtual machine the
# benchmark was written on (Intel Xeon, Python 3.11, numpy 2.4): scaled
# latencies are seconds at that speed.
REFERENCE_KERNEL_S = 6.2e-5
INTERVAL_S = 0.02
BURST_SAMPLES = 25

_VEC = np.linspace(0.0, 1.0, 8192)


def _kernel() -> None:
    # Interpreted integer work like the decoder's bit-parallel loop, then a
    # cache-resident vector op like a quadrature panel.
    acc = 0
    for i in range(600):
        acc = (acc * 1_000_003 + i) & 0xFFFFFFFFFFFF
    np.exp(_VEC).sum()


def _timed_kernel() -> float:
    # The first call refills the caches an op has just flushed; timing it
    # would read 1.3-1.8x slow inside memory-heavy ops.
    _kernel()
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def burst_s() -> float:
    """Median kernel time over BURST_SAMPLES back-to-back calls."""
    return statistics.median(_timed_kernel() for _ in range(BURST_SAMPLES))


def scaled(seconds: float, kernel_s: float) -> float:
    """seconds measured while the kernel took kernel_s, at the reference speed."""
    return seconds * REFERENCE_KERNEL_S / kernel_s


class SpeedProbe:
    """Context manager that samples the kernel time on a wall-clock timer."""

    def __init__(self):
        self._kernel_s: list[float] = []
        self._handler_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self._kernel_s.append(_timed_kernel())
        self._handler_s += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def reset(self) -> None:
        self._kernel_s, self._handler_s = [], 0.0

    def scale(self, latency: float) -> float:
        """latency, measured since the last reset, at the reference speed.

        The timer's samples cover long ops; a burst right after the op, with
        the weight of BURST_SAMPLES samples, covers short ones.  The time
        spent in the timer handler is not the op's.
        """
        in_op, handler_s = list(self._kernel_s), self._handler_s
        kernel_s = statistics.fmean(in_op + [burst_s()] * BURST_SAMPLES)
        return scaled(latency - handler_s, kernel_s)
