"""A machine-speed reference for timing on a shared, noisy host.

On a host shared with other tenants the same code runs up to about 1.7x
slower for seconds at a time, in CPU time as well as wall time, so raw wall
time spreads by 10-15 % from one run to the next.  ``Probe`` times a small
fixed kernel every ``INTERVAL_S`` seconds of wall time, from a SIGALRM
handler, while the measured code runs.  The kernel is the benchmark's own
code, small numpy calls and object creation like the program's jet
arithmetic.  So it slows down with the program: on the 2-core host this was
written on, its time tracked the times of ``packet`` and ``packet_fd`` with
an exponent of about 1.  And a change to the program cannot change it.  A
time is scaled to reference speed by ``REFERENCE_S`` over the kernel's mean
time during the same interval.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

INTERVAL_S = 0.01
REFERENCE_S = 1.0e-4  # the kernel's time at reference speed

_N = 35
_RNG = np.random.default_rng(20151217)
_I = _RNG.integers(0, _N, 300)
_J = _RNG.integers(0, _N, 300)
_K = np.sort(_RNG.integers(0, _N, 300))
_A = _RNG.normal(size=_N)
_B = _RNG.normal(size=_N)


class _Box:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c


def kernel() -> float:
    """Small numpy calls on short arrays, as in one jet product, twenty times."""
    x = _Box(_A)
    for _ in range(20):
        out = np.zeros(_N)
        out += np.bincount(_K, weights=x.c[_I] * _B[_J], minlength=_N)
        x = _Box(out * 0.5)
    return float(x.c[0])


class Probe:
    """Context manager that samples the kernel's time while it is active."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _fire(self, signum, frame):
        # a collection of the program's garbage must not land in the sample
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        if enabled:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def scaled(self, wall: float, lo: int, hi: int) -> float:
        """``wall`` seconds, spanning samples ``lo:hi``, at reference speed.

        The probe's own time is taken out first.  An interval too short to
        hold a sample is scaled by the mean over every sample so far.
        """
        window = self.samples[lo:hi] or self.samples
        if not window:
            return wall
        busy = wall - sum(self.samples[lo:hi])
        return busy * REFERENCE_S * len(window) / sum(window)
