"""Machine-speed calibration for the timed commands.

The benchmark runs on shared machines whose speed for a fixed amount of work
drifts by tens of percent over seconds to minutes.  A pass's commands are
therefore each bracketed by a calibration probe: a fixed piece of work, in
the benchmark's own code, made of the same kinds of operation the library
spends its time on (stepping an 11.7k-bit residue with big-integer adds,
compares and true divisions plus a complex exponential per step, the
double-double float loop of the flow carriers, and small numpy ufunc calls).
The library is not called, so a change to the library cannot move the probe.

A command's scaled time is its wall time times REF_S over the mean of the
probes just before and just after it: the time the command would take on a
machine that runs the probe in REF_S seconds.  The raw wall times are kept
alongside.
"""

from __future__ import annotations

import cmath
import math
import time
from typing import Callable, Optional

import numpy as np

# Median probe time on the machine the benchmark was written on (2-core
# shared VM, CPython 3.11).  Only ratios against it matter: it fixes the
# unit of the scaled times, so scaled and raw seconds agree there.
REF_S = 0.16

_Q = (1 << 11700) - 1155  # odd modulus of the exp k4 snapshot's size
_L = pow(3, 7331, _Q)
_STEP = (_L * 104729) % _Q
_TWO_PI = 2.0 * math.pi
_U = np.linspace(0.0, 1.0, 4096)


def _bigint_steps(n: int = 11000) -> complex:
    cur, rk, acc = _L, _STEP >> 3, 0j
    for a in range(1, n + 1):
        if min(cur, _Q - cur) == a * rk:  # the resonant-scan comparison
            acc += 1.0
        acc += cmath.exp(1j * _TWO_PI * (cur / _Q))
        cur += _STEP
        if cur >= _Q:
            cur -= _Q
    return acc


def _float_steps(n: int = 25000) -> float:
    hi, lo = [0.1, 0.2, 0.3, 0.4], [0.0] * 4
    ahi, alo = 0.6180339887498949, 1e-17
    block = np.empty((4, 64))
    for j in range(n):
        for i in range(4):
            s = hi[i] + ahi
            bb = s - hi[i]
            e = (hi[i] - (s - bb)) + (ahi - bb) + lo[i] + alo
            h = s + e
            if h >= 1.0:
                h -= 1.0
            hi[i], lo[i] = h, e - (h - s)
            block[i, j & 63] = h
    return hi[0]


def _numpy_calls(n: int = 120) -> float:
    total = 0.0
    for m in range(1, n + 1):
        ang = _TWO_PI * np.mod(m * _U, 1.0)
        total += float((0.5 * np.cos(ang) - 0.25 * np.sin(ang)).sum())
    return total


def probe() -> float:
    """Seconds one fixed calibration probe takes now."""
    t0 = time.perf_counter()
    _bigint_steps()
    _float_steps()
    _numpy_calls()
    return time.perf_counter() - t0


class Clock:
    """Times commands, raw and (when calibrating) scaled to REF_S speed."""

    def __init__(self, calibrate: bool = False):
        self.calibrate = calibrate
        self.raw = 0.0
        self.scaled = 0.0
        self.probes = []
        self._before: Optional[float] = self._probe() if calibrate else None

    def _probe(self) -> float:
        p = probe()
        self.probes.append(p)
        return p

    def reset(self) -> None:
        """Start a new pass; the last probe still brackets the next command."""
        self.raw = 0.0
        self.scaled = 0.0

    def run(self, fn: Callable, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        self.raw += dt
        if self.calibrate:
            after = self._probe()
            self.scaled += dt * REF_S / (0.5 * (self._before + after))
            self._before = after
        return out
