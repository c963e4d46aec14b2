"""Independent routes to the quantities the workloads compute.

None of these shares an engine with correlation_sum: they walk the orbit
itself (closed form or stepped) or reduce each phase against the snapshot
from scratch, and add the terms with math.fsum.  They are slow by design and
run outside the timed passes.
"""

from __future__ import annotations

import math
from typing import Callable

from mobiusflow import orbit_direct, orbit_fast, pairing, sieve_segment
from mobiusflow.flow import FlowConfig, FrequencyVector, TorusPoint


def _cis(t: float) -> complex:
    a = 2.0 * math.pi * t
    return complex(math.cos(a), math.sin(a))


def _weighted_sum(n_top: int, length: int, phase: Callable[[int], float]) -> complex:
    table = sieve_segment(n_top, length)
    terms = []
    for n in range(n_top - length + 1, n_top + 1):
        mu = table.mu(n)
        if mu:
            terms.append(mu * _cis(phase(n)))
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


def fast_route_correlation(
    cfg: FlowConfig, b: FrequencyVector, x: TorusPoint, n_top: int, length: int
) -> complex:
    """sum mu(n) e(<b, T^n x>) with every T^n x from orbit_fast."""
    return _weighted_sum(n_top, length, lambda n: pairing(b, orbit_fast(cfg, x, n)))


def stepped_correlation(
    cfg: FlowConfig, b: FrequencyVector, x: TorusPoint, n_top: int, length: int
) -> complex:
    """sum mu(n) e(<b, T^n x>) walking the segment one step() at a time."""
    n_lo = n_top - length + 1
    p = orbit_fast(cfg, x, n_lo)
    phases = {}
    for n in range(n_lo, n_top + 1):
        phases[n] = pairing(b, p)
        if n < n_top:
            p = orbit_direct(cfg, p, 1)
    return _weighted_sum(n_top, length, phases.__getitem__)


def twisted_oracle(angle, b: FrequencyVector, x: TorusPoint, n_top: int, length: int) -> complex:
    """The h = 0 correlation: sum mu(n) e(<b, x> + b_1 n alpha), each
    b_1 n alpha reduced exactly against the snapshot."""
    l, q = angle.snapshot
    b1 = b.entries[0]
    const = math.fsum(bv * xv for bv, xv in zip(b.entries, x.coords))
    return _weighted_sum(
        n_top, length, lambda n: (const + ((b1 * n * l) % q) / q) % 1.0
    )
