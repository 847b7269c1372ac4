"""Calibrated timing: wall time scaled by a fixed kernel's speed around it.

Other tenants of a shared host slow everything a process does: in short
bursts, and by up to 2x for minutes at a time.  Raw wall-clock medians of
the same code moved by 20% between runs (quartile spread over median,
six seeds) and by 2x between quiet and busy minutes.  Every time behind
an end-to-end metric is therefore scaled by REFERENCE_S over the time of
a fixed kernel measured in the same process just before and just after
it.  The kernel is the one most of the program's time goes to: mpmath's
complex SVD, here of a fixed 7x6 matrix at 286 bits, best of two.
"""

from __future__ import annotations

import math
import random
import time

BITS = 286
# the kernel's best-of-two time on an idle vCPU of a 2.1 GHz Xeon
REFERENCE_S = 0.026


def _matrix(mp):
    rng = random.Random(0)
    return mp.matrix([[mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                       for _ in range(6)] for _ in range(7)])


def kernel_seconds() -> float:
    """Best-of-two wall time of the calibration kernel, now."""
    from mpmath import mp

    best = math.inf
    with mp.workprec(BITS):
        matrix = _matrix(mp)
        for _ in range(2):
            start = time.perf_counter()
            mp.svd_c(matrix)
            best = min(best, time.perf_counter() - start)
    return best


def calibrated(seconds: float, *kernels: float) -> float:
    """`seconds` at the reference speed, given kernel times around it."""
    return seconds * REFERENCE_S * len(kernels) / sum(kernels)


class Clock:
    """Times calls, probing the kernel between consecutive calls."""

    def __init__(self):
        self._last = kernel_seconds()

    def timed(self, fn):
        """(result, exception, wall seconds, calibrated seconds) of fn()."""
        before = self._last
        result = exc = None
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as err:
            exc = err
        seconds = time.perf_counter() - start
        self._last = kernel_seconds()
        return result, exc, seconds, calibrated(seconds, before, self._last)
