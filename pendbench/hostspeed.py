"""The host's current speed, read from a fixed reference computation.

The benchmark's host is a shared VM whose speed drifts by up to 2x within
a minute, as other tenants come and go: the same op takes 1.6 s in one run
and 3 s in the next.  Timing a fixed computation next to every op reads the
speed the op ran at, and rescaling the op's wall time by it gives the time
the op would take on a host where the reference takes ``REF_S``.  The
reference does not touch pendavg, so a change to pendavg moves the rescaled
times as it moves the wall times at a fixed host speed.  The rescaling is as
good as the ops slow down like the reference does, which is why the
reference is work of the ops' own kind.

On the 2-vCPU Xeon VM the baseline was measured on, one reference run took
7-16 ms.  Over seven minutes there, medians over 8-12 repeats of the same
search or shoot op spread 4-8% (quartile distance over median) once
rescaled, and 21-29% as wall times.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Nominal seconds of one reference run: the unit the rescaled times are in.
REF_S = 0.008
# Reference runs per reading; their median is the reading.
SLICES = 9
# Readings on each side of an op that its reference averages.  The host's
# speed drifts over some ten seconds while single readings jitter by about
# 20%, so a few ops' worth of readings on each side follow the drift and
# average the jitter.
SIDE = 3


def _rhs(t, y):
    return np.array([y[1], -math.sin(y[0]) + 0.1 * math.cos(1.3 * t), y[3], -2.0 * y[2] + 0.05 * y[0] * y[0]])


def reference():
    """Fixed work of the ops' own kind: 400 RK4 steps of a small forced pendulum on
    4-element numpy arrays, i.e. interpreter and tiny-array overhead."""
    y = np.array([0.3, 0.0, 0.1, 0.0])
    h, t = 0.01, 0.0
    for _ in range(400):
        a = _rhs(t, y)
        b = _rhs(t + h / 2, y + h / 2 * a)
        c = _rhs(t + h / 2, y + h / 2 * b)
        d = _rhs(t + h, y + h * c)
        y = y + h / 6 * (a + 2 * b + 2 * c + d)
        t += h
    return y


def reading(clock=time.perf_counter):
    """Median seconds of ``SLICES`` reference runs, now."""
    times = []
    for _ in range(SLICES):
        start = clock()
        reference()
        times.append(clock() - start)
    return statistics.median(times)


def op_reference(readings, i):
    """Reference seconds for op ``i`` of a run whose ``readings`` were taken
    before the first op and after each op: the mean of up to ``SIDE``
    readings on each side of it."""
    window = readings[max(0, i + 1 - SIDE):i + 1 + SIDE]
    return sum(window) / len(window)


def rescale(seconds, ref_s):
    """Wall ``seconds`` taken while the reference took ``ref_s``, at nominal speed."""
    return seconds * REF_S / ref_s
