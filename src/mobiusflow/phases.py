"""Scalar phase helpers.

Every oscillatory sum in this package feeds trig functions with arguments
that were reduced mod 1 while still exact.  Along an index range that is
contfrac.phase_turns; the helpers here cover single phases: e(frac) for a
reduced phase, the balanced fold of a residue, e(r/q) - 1 without
cancellation for small divisors, and {n c} on the dyadic value of a float.
Floats appear only after the reduction, so phase accuracy does not degrade
with the length of an orbit or the size of a frequency.
"""

from __future__ import annotations

import math

__all__ = [
    "TWO_PI",
    "cis",
    "fold_signed",
    "cis_minus_one",
    "frac_dyadic",
]

TWO_PI = 2.0 * math.pi


def cis(frac: float) -> complex:
    """e(frac) for a phase given in turns."""
    a = TWO_PI * frac
    return complex(math.cos(a), math.sin(a))


def fold_signed(r: int, q: int) -> int:
    """Fold a residue in [0, q) to the balanced range (-q/2, q/2]."""
    return r if 2 * r <= q else r - q


def cis_minus_one(rs: int, q: int) -> complex:
    """e(rs/q) - 1 without cancellation near the origin.

    rs must already be balanced; the sine form keeps full relative accuracy
    for residues as small as the subnormal floor.
    """
    f = rs / q
    s = math.sin(math.pi * f)
    return complex(-2.0 * s * s, 2.0 * s * math.cos(math.pi * f))


def frac_dyadic(c: float, n: int) -> float:
    """{n * c} computed exactly on the dyadic expansion of c.

    A float is mant * 2**e with integer mant, so n*c mod 1 is an integer
    masking problem; the only rounding is the final division.
    """
    if c == 0.0 or n == 0:
        return 0.0
    f, e = math.frexp(c)
    mant = int(f * 9007199254740992.0)  # f * 2**53, exact
    e -= 53
    if e >= 0:
        return 0.0
    denom = 1 << (-e)
    return ((n * mant) % denom) / denom
