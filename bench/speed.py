"""Machine-speed calibration, so times from a shared host can be compared.

On a shared machine the same Python work runs up to about 1.5x slower in
some periods than in others, and a period can outlast a whole run, so no
statistic over one run's requests removes it. A fixed calibration workload,
timed between requests in the same process, slows down with them. Every
request time is therefore reported at reference speed: multiplied by
REFERENCE_S / (calibration time measured around it). Over ten 15 s runs per
workload, the spread (interquartile range over median) of cases_per_s was
10-22% raw and 3-7% calibrated. The raw values are in the report too.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import time
from fractions import Fraction

# calibration time that defines reference speed: about its median on the
# 2-vCPU 2.1 GHz Xeon VM the benchmark was tuned on
REFERENCE_S = 0.004
EVERY_S = 0.2  # calibrate at most this often between requests
WINDOW_S = 1.0  # calibrations within this distance of a request scale it


def calibrate():
    """Seconds taken by a fixed mix of Fraction, big-int and float work.

    The three parts take about equal time. Each alone tracks the machine's
    slow and fast periods more or less strongly than zinv does (Fraction
    work 1.76x slower in slow periods, big ints 1.33x, float powers 1.43x,
    zinv requests 1.52x on the machine this was tuned on); the mix tracks it
    at about zinv's rate. The cyclic garbage collector is held off meanwhile:
    a collection would charge the calibration for the caller's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        frac = Fraction(1, 3)
        for i in range(180):
            frac = frac * Fraction(3, 7) + Fraction(1, 5) if i % 50 else Fraction(1, 3)
        big = 3**2000
        for k in range(200, 2700):
            big += math.comb(k, 3) * math.comb(k, 2)
        for i in range(500):
            big = (big * 7 + i) // 3
        acc = 0.0
        for i in range(5800):
            acc += (i * 0.37) ** 1.5 % 7.1
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factors(times, calibrations):
    """REFERENCE_S over the median calibration within WINDOW_S of each time.

    calibrations is a time-ordered list of (time, seconds); the nearest one
    is used when none lies within the window.
    """
    stamps = [t for t, _ in calibrations]
    out = []
    for t in times:
        lo = bisect.bisect_left(stamps, t - WINDOW_S)
        hi = bisect.bisect_right(stamps, t + WINDOW_S)
        if lo == hi:
            nearest = min(range(len(stamps)), key=lambda i: abs(stamps[i] - t))
            lo, hi = nearest, nearest + 1
        out.append(REFERENCE_S / statistics.median(s for _, s in calibrations[lo:hi]))
    return out
