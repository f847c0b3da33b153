"""A fixed piece of pure-Python exact arithmetic that gauges the host's speed.

The benchmark runs on shared virtual machines whose effective CPU speed moves
by a factor of up to two over minutes (frequency and neighbours on the same
cores; the process is not descheduled, so CPU time moves with wall time).  A
run times this kernel after every op and scales each op's latency by
``REFERENCE_S / (the kernel's local median time)``: the reported times are
seconds at the speed at which one sample takes ``REFERENCE_S``.  The kernel
does the kind of work pmfiber does (elimination with Python ints, Fractions
and Gaussian-integer pairs, then printing the numbers) and never imports
pmfiber, so no change to the library can move it.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction
from typing import List, Sequence

# Median sample time on a 2-vCPU Intel Xeon VM (Python 3.11.7) at its usual
# speed; any constant would do, this one keeps the scaled times close to
# that machine's raw ones.
REFERENCE_S = 0.004

_RNG = random.Random("pmfiber-bench:calibrate")
_RATIONAL = [[Fraction(_RNG.randint(-5, 5), _RNG.randint(1, 4)) for _ in range(7)] for _ in range(7)]
_GAUSSIAN = [[(_RNG.randint(-5, 5), _RNG.randint(-5, 5)) for _ in range(7)] for _ in range(7)]


def _det_fraction(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Gaussian elimination over Q."""
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k + 1, n):
                m[i][j] -= f * m[k][j]
    return det


def _det_gaussian(rows) -> tuple:
    """Fraction-free elimination over Z[i], entries as (re, im) pairs."""
    m = [list(r) for r in rows]
    n = len(m)
    prev = (1, 0)
    for k in range(n - 1):
        p = m[k][k]
        if p == (0, 0):
            return (0, 0)
        nrm = prev[0] * prev[0] + prev[1] * prev[1]
        for i in range(k + 1, n):
            a = m[i][k]
            for j in range(k + 1, n):
                x, y = m[i][j], m[k][j]
                re_ = x[0] * p[0] - x[1] * p[1] - (a[0] * y[0] - a[1] * y[1])
                im_ = x[0] * p[1] + x[1] * p[0] - (a[0] * y[1] + a[1] * y[0])
                m[i][j] = ((re_ * prev[0] + im_ * prev[1]) // nrm, (im_ * prev[0] - re_ * prev[1]) // nrm)
        prev = p
    return m[n - 1][n - 1]


def kernel() -> str:
    """The fixed work: two determinants, printed."""
    out = []
    for _ in range(5):
        out.append(str(_det_fraction(_RATIONAL)))
        out.append(str(_det_gaussian(_GAUSSIAN)))
    return " ".join(out)


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def speed_factors(samples: List[float], half_window: int = 8) -> List[float]:
    """For each sample, ``REFERENCE_S`` over the median of the samples within
    ``half_window`` places of it: the factor that turns a time measured next
    to that sample into seconds at reference speed."""
    out = []
    for k in range(len(samples)):
        local = samples[max(0, k - half_window): k + half_window + 1]
        out.append(REFERENCE_S / statistics.median(local))
    return out
