"""Machine-speed probe: a fixed calibration kernel timed at a steady
interval, interleaved with the workload in the same thread.

On a shared host the speed of identical work drifts by up to 1.6x, in
phases lasting from seconds to minutes, which no useful regression bound
survives.  A kernel of the same kind as the solvers' loops slows down with
it when it runs on the same CPU at the same moments, but not when it runs
before or after a repetition or on the other CPU.  So an interval timer
(``SIGALRM``) interrupts the workload every ``INTERVAL_S`` seconds and the
handler runs the kernel: a few proximal-gradient iterations of a small
logistic problem with an L1-ball projection and of a small least-squares
problem with a soft threshold, written here and calling nothing in sbopt,
so a change to the library moves the scaled times exactly as it moves the
wall times.

``Probe.seconds(a, b)`` is the wall time of an interval minus the handler's
time inside it, multiplied by ``REF_S`` over the mean kernel time measured
during it: the interval's length at the speed at which the kernel takes
``REF_S``.  On lrp-ref repetitions whose wall time ranged 4.3-7.0 s, the
scaled times had a coefficient of variation of 3% against 15% unscaled.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List

import numpy as np

INTERVAL_S = 0.05
# The kernel's median time on the two-vCPU Xeon VM the benchmark was
# defined on; scaled times are seconds at that speed.
REF_S = 0.85e-3
# An interval with fewer samples than this takes the mean of the last
# MIN_SAMPLES samples before its end.
MIN_SAMPLES = 20


class _Kernel:
    """The calibration work; inputs are fixed, built once."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.A = (rng.random((200, 50)) < 0.3).astype(float)
        self.y = (rng.random(200) < 0.5).astype(float)
        self.B = rng.normal(size=(100, 190))
        self.b = rng.normal(size=100)
        self.ranks = np.arange(1.0, 51.0)

    def _project_l1(self, v):
        u = np.sort(np.abs(v))[::-1]
        c = np.cumsum(u) - 1.0
        k = np.nonzero(u * self.ranks > c)[0][-1]
        return np.sign(v) * np.maximum(np.abs(v) - c[k] / (k + 1), 0.0)

    def __call__(self):
        x = np.zeros(50)
        for _ in range(8):
            z = self.A @ x
            g = self.A.T @ (1.0 / (1.0 + np.exp(-z)) - self.y) / 200.0
            np.mean(np.logaddexp(0.0, z) - self.y * z)
            x = self._project_l1(x - 0.5 * g)
        w = np.zeros(190)
        for _ in range(20):
            w = w - 1e-3 * (self.B.T @ (self.B @ w - self.b))
            w = np.sign(w) * np.maximum(np.abs(w) - 1e-4, 0.0)


class Probe:
    """Samples the kernel from a ``SIGALRM`` handler between ``start`` and
    ``stop``; sample start times are ``perf_counter_ns`` values."""

    def __init__(self):
        self.kernel = _Kernel()
        self.start_ns: List[int] = []
        self._busy = [0]  # prefix sums of sample durations
        self._running = False
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter_ns()
        self.kernel()
        t1 = time.perf_counter_ns()
        self.start_ns.append(t0)
        self._busy.append(self._busy[-1] + t1 - t0)

    def start(self):
        """Take ``MIN_SAMPLES`` samples at once, so that every interval
        has a speed, then sample on the timer."""
        for _ in range(MIN_SAMPLES):
            self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._running = False

    def seconds(self, a_ns: int, b_ns: int) -> float:
        """Scaled length of ``[a_ns, b_ns]``: see the module docstring."""
        lo = bisect.bisect_left(self.start_ns, a_ns)
        hi = bisect.bisect_left(self.start_ns, b_ns)
        busy = self._busy[hi] - self._busy[lo]
        first = max(0, min(lo, hi - MIN_SAMPLES))
        mean = (self._busy[hi] - self._busy[first]) / (hi - first)
        return (b_ns - a_ns - busy) / 1e9 * (REF_S * 1e9 / mean)

    def mean_kernel_s(self) -> float:
        n = len(self.start_ns)
        return self._busy[-1] / n / 1e9 if n else 0.0
