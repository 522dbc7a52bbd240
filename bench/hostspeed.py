"""Host speed, for scaling measured times to a reference speed.

A shared host's speed drifts: on a shared 2-vCPU Xeon VM (2.1 GHz,
Python 3.11) the same second of sc7core calls took anywhere from 0.64 to
1.05 s over three minutes, in stretches lasting tens of seconds, so the
median of a 30 s run moved by 10-30% from run to run.  The benchmark
therefore times a fixed reference task between its measurements, about
twice a second, and scales each measured time by REFERENCE_S over the
reference time around it.  There, in three sets of ten 30 s runs, scaling
cut the spread (interquartile range over median) of wall_s from
0.11-0.23 to 0.03-0.05 on point-queries and from 0.18-0.29 to 0.04-0.08
on series-table.  On verify-sweep, whose single call lasts about 6 s and
is bracketed only at its ends, it cut the spread from 0.14 to 0.06 and
from 0.15 to 0.07 in two sets and raised it from 0.08 to 0.10 in the
third, so it is applied to every workload alike.  A timer loop alone
(small integers, one small dict) tracked the host about half as well as
this task: it does not feel the host the way list-heavy, big-integer
code does.

The reference task imitates sc7core's kernels (a list-slice series
product, a reduced-form style scan, Fraction sums) but lives in the
benchmark's own files and imports nothing from sc7core, so no change to
sc7core moves it.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from time import perf_counter

# Seconds the reference task took at the reference speed (its median on
# the machine above); scaled times are seconds at that speed.
REFERENCE_S = 0.055
# The worker runs the reference task after every call that ends this long
# after its last run, and after every pass.
REFERENCE_EVERY_S = 0.5


def _reference_task() -> int:
    series = [0] * 1200
    series[0] = 1
    for m in range(1, 1200):  # prod (1 - q^m), truncated
        series[m:] = [x - y for x, y in zip(series[m:], series)]
    D, forms, a = 200_003, 0, 1
    while 3 * a * a <= D:
        for b in range(1 - a, a + 1):
            if (b * b + D) % (4 * a) == 0:
                forms += 1
        a += 1
    total = sum((Fraction(k, 2 * k + 1) for k in range(1, 400)), Fraction(0))
    return series[-1] + forms + total.denominator


def sample(refs: list) -> None:
    """Runs the reference task once; appends (midpoint, seconds) to `refs`."""
    start = perf_counter()
    _reference_task()
    end = perf_counter()
    refs.append(((start + end) / 2, end - start))


def host_scale(start: float, end: float, refs: list) -> float:
    """REFERENCE_S over the mean of the reference runs just before `start`
    and just after `end`.  (In the measurements above, the two runs that
    bracket a call tracked its speed as well as wider averages or better.)"""
    i = bisect.bisect_left(refs, start, key=lambda r: r[0]) - 1
    j = bisect.bisect_right(refs, end, key=lambda r: r[0])
    return 2 * REFERENCE_S / (refs[max(i, 0)][1] + refs[min(j, len(refs) - 1)][1])
