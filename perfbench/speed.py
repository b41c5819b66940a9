"""Timing that corrects for the speed of a shared host.

On a small VM that shares its cores, the same pass can run up to 1.8 times
slower for seconds or minutes at a time, whatever the program does. A
``SpeedClock`` therefore samples the machine's speed while it times a
section: every ``INTERVAL_S`` a SIGALRM handler, running in the timed thread
between two bytecodes, times a fixed kernel. The section's seconds at
reference speed are

    (wall - time spent in the handler) * reference / mean kernel time

The kernels use no splitflow code, so a change to the program moves the
section's time and not the kernel's. The numeric kernel does what a pass
does at small scale (small numpy products and a scipy RK45 solve), and
tracks a pass's slow phases better than pure Python does. The pure-Python
kernel is for sections that import numpy themselves. Each reference only
sets the scale: it is about the kernel's time on a 2-vCPU Xeon VM in a quiet
phase, so reference seconds read close to wall seconds there.

This module imports only the standard library; the numeric kernel imports
numpy and scipy when a clock that uses it is made.
"""

import signal
import time

INTERVAL_S = 0.04
MIN_SAMPLES = 8        # topped up after the section when it was too short


def _python_kernel():
    acc = 0.0
    table = {}
    seq = []
    for i in range(500):
        acc = acc * 0.5 + i * 1.5
        table[i & 15] = acc
        seq.append(acc)
    return sum(seq) + len(table)


def _numeric_kernel():
    """A numeric kernel over fixed data, made on first use."""
    import numpy as np
    from scipy.integrate import solve_ivp

    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 40))
    x = rng.standard_normal(40)
    m = -np.eye(10) + 0.1 * rng.standard_normal((10, 10))
    y0 = np.ones(10)

    def kernel():
        s = 0.0
        for i in range(40):
            s += float((a @ x)[i % 20]) * 1e-9
            s += float(np.maximum(x - s, 0.0)[0]) * 1e-12
        sol = solve_ivp(lambda t, y: m @ y, (0.0, 2.0), y0,
                        rtol=1e-6, atol=1e-9)
        return s + sol.y[0, -1]

    return kernel


# kernel time at reference speed, s
PYTHON_REFERENCE_S = 1.0e-4
NUMERIC_REFERENCE_S = 1.0e-3


class SpeedClock:
    """Context manager timing one section; read ``seconds`` (reference
    speed) and ``wall`` (wall-clock, handler time included) after it.

    ``numeric`` picks the numeric kernel; leave it off for a section that
    imports numpy, so that the import is part of what it times."""

    def __init__(self, numeric=True):
        if numeric:
            self._kernel, self._reference = _numeric_kernel(), NUMERIC_REFERENCE_S
        else:
            self._kernel, self._reference = _python_kernel, PYTHON_REFERENCE_S
        self.samples = []
        self.wall = None
        self.in_handler = 0.0
        self._old = None
        self._start = None

    def _sample(self, *_):
        start = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.in_handler = sum(self.samples)
        while len(self.samples) < MIN_SAMPLES:
            self._sample()
        return False

    @property
    def kernel_s(self):
        """Mean kernel time over the section."""
        return sum(self.samples) / len(self.samples)

    @property
    def seconds(self):
        return (self.wall - self.in_handler) * self._reference / self.kernel_s
