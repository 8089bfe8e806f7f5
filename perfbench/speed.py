"""Machine-speed reference for timings taken on a shared host.

On the shared 2-core virtual machine this benchmark was written on, the same
code runs up to 1.5-2 times slower at some times than at others, because of
load outside the container.  The state switches within a second at some times and holds for
minutes at others: set-up times read 0.19 s in one state and 0.29-0.36 s in
the other within the same ten minutes, and pass times move by the same factor.
Medians within a run cannot remove that, because a whole run often falls in
one state.

So the speed is sampled while the work runs.  A timer signal takes a sample
every ``PERIOD_S`` of wall time, and one more is taken before and after each
timed call.  A call's reference time is the work it did expressed at the
speed where the kernel takes its reference time: the wall time the call spent
outside the sampling, times the mean over the samples of reference time over
sampled time.  The kernels do not call the package, so a change to the package
moves reference times as it moves wall times.

The program is paused while a sample runs (Python runs the signal handler
between bytecodes), but it leaves the caches cold: a kernel run right after a
64 MB vectorized loop took 18 % longer than a warm one, right after the
width-1 filter trajectory 6 % longer.  So a sample runs the kernel
``WARMUP + 1`` times and keeps only the last run, which took within 0.5 % of
the warm time after either kind of work (``speed_check.py`` measures this).
The program's own working set therefore does not slow the samples and is not
divided out of its time.

Passes use a kernel of small numpy calls like the package's cell kernels: on
this host it tracks their slowdowns closely.  Set-up processes use a
pure-Python loop, which needs no numpy, so sampling can start before the
package and numpy are imported.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.025
WARMUP = 2


def python_kernel_s() -> float:
    """Wall time of one run of a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    return time.perf_counter() - start


def numpy_kernel_s() -> float:
    """Wall time of one run of a fixed loop of small numpy calls."""
    import numpy as np

    rates = np.array([[0.0, 1.3], [0.8, 0.0]])
    wide = np.linspace(0.1, 0.9, 400).reshape(200, 2)
    narrow = np.array([0.3, 0.7])
    start = time.perf_counter()
    for _ in range(20):
        e = np.exp(wide * 1e-3)
        wide = e * np.einsum("ij,...j->...i", rates, wide / e)
        wide = wide / wide.sum(axis=1, keepdims=True)
        f = np.exp(narrow * 1e-3)
        narrow = f * np.einsum("ij,j->i", rates, narrow / f)
        narrow = narrow / narrow.sum()
    return time.perf_counter() - start


# Kernel times in the fast state of the machine the benchmark was written on.
REFERENCE_S = {python_kernel_s: 1.8e-4, numpy_kernel_s: 4.0e-4}


def warm_sample_s(kernel) -> float:
    """Wall time of one kernel run after ``WARMUP`` discarded runs."""
    for _ in range(WARMUP):
        kernel()
    return kernel()


class SpeedSampler:
    """``with SpeedSampler(kernel) as s:`` samples the kernel on SIGALRM;
    ``s.time(fn)`` times a call."""

    def __init__(self, kernel=numpy_kernel_s, on_sample=None):
        self.kernel = kernel
        self.reference_s = REFERENCE_S[kernel]
        self.on_sample = on_sample  # told the duration of each timer-driven sample

    def __enter__(self):
        self.samples: list[float] = []
        self.sampling_s = 0.0  # wall time spent in timer-driven samples
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(warm_sample_s(self.kernel))
        seconds = time.perf_counter() - start
        self.sampling_s += seconds
        if self.on_sample is not None:
            self.on_sample(seconds)

    def time(self, fn):
        """Call ``fn()``; return (result, wall seconds outside the sampling, reference seconds)."""
        first = len(self.samples)
        self.samples.append(warm_sample_s(self.kernel))
        sampling_before = self.sampling_s
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        net = wall - (self.sampling_s - sampling_before)
        self.samples.append(warm_sample_s(self.kernel))
        taken = self.samples[first:]
        return result, net, net * statistics.fmean(self.reference_s / k for k in taken)
