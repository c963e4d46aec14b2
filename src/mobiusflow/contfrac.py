"""Exact continued-fraction engine for Liouville-type rotation angles.

An angle is represented by its partial quotients together with a snapshot
convergent l/q taken well past the advertised growth range, so that every
quantity the rest of the package touches (residues, distances to integers,
resonance bands) is computed in exact integer arithmetic against l/q.
Quotients past the advertised index are 1, which keeps the snapshot a strict
refinement of every advertised convergent without changing the growth class.

The module also holds the package's one phase engine.  faithful_modulus is
the single faithful-range rule: it refuses multipliers the snapshot cannot
resolve, and residues, signed residues and frac_mod1 are always taken
against the snapshot, so a resonance is a statement about the snapshot.
phase_turns returns the correctly rounded fractional parts of phases
against the snapshot; twisted sums, correlation sums, the rational closed
form, orbit stepping and Fourier series all take their phases from it.

- Every call reduces against the one convergent l_k/q_k that
  reducing_convergent picks for its multiplier, reach and seed (the orbit
  walker reads the same value, spectrum's flat scan the same
  matched_convergent).  Entries whose phase against l_k/q_k is dyadic
  (among them 0 and every midpoint), the indices the fix-up divisor d
  divides, are reduced again on the snapshot; every other one rounds alike.
- class_modulus is the one class rule built on that pick, and it answers
  as reducing_convergent does, with (q_k, d): when every multiplier of a
  walk or a sum picks the same q_k, below the span and BLOCK_STEPS, each
  phase off the multiples of d, the gcd of the multipliers' fix-up
  divisors, is a function of n mod q_k, so the orbit walker
  (flow._fiber_blocks) and the summer (moebius.mu_phase_sum, given the
  rule's answer) evaluate one phase per class and recompute the multiples
  of d.
- Both reductions are one function, _residue_turns: (n u + s) mod D / D for
  D = q_k 2^e and a seed sp/2^e, rounded once.  Its integer width comes
  from D alone: wrapping uint64 for a power of two up to 2^64 (the dyadic
  value of a float, such as a drift head, see _dyadic_turns, which
  FourierSeries evaluation calls with its modes as n), int64 NumPy below
  2^31 (q_3 = 8102 on exp k4, unseeded), else Python ints one index at a
  time (about 66 bits for a 53-bit seed on exp k4, against its 11,733-bit
  snapshot).

cis, fold_signed and cis_minus_one turn a reduced phase into a float.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import ClassVar, Optional, Sequence, Union

import numpy as np
from mpmath import mp

__all__ = [
    "TWO_PI",
    "cis",
    "fold_signed",
    "cis_minus_one",
    "Convergent",
    "PartialQuotients",
    "AngleCF",
    "Certificate",
    "BoundsCertificate",
    "QuotientsExhausted",
    "PrecisionFloorError",
    "ResourceBudgetError",
    "AngleDocumentError",
    "convergents_from_quotients",
    "build_exp_alpha",
    "build_poly_alpha",
    "explicit_angle",
    "rational_angle",
    "dyadic_angle",
    "faithful_modulus",
    "matched_convergent",
    "reducing_convergent",
    "class_modulus",
    "phase_turns",
    "frac_mod1",
    "residue",
    "signed_residue",
    "small_divisor",
    "check_convergent_bounds",
    "legendre_locate",
    "angle_to_json",
    "angle_from_json",
    "angle_digest",
]

# Quotients appended past the advertised index.  phi^64 > 2e13, so the
# snapshot refines the last advertised convergent by far more than any
# strict-inequality margin the certificates need.
GOLDEN_TAIL_STEPS = 64

# Precision floor: the snapshot must resolve phases n*m*alpha for n up to
# N_MAX and frequencies up to M_MAX with 2^60 of headroom, so that the float
# obtained from an exact residue is faithful to the ideal angle.
DEFAULT_N_MAX = 10**8
DEFAULT_M_MAX = 10**6
PRECISION_FLOOR = DEFAULT_N_MAX * DEFAULT_M_MAX * 2**60

# Hard ceiling on the bit size of any denominator a builder will produce.
# One exponential step past a four-digit q_k would need ~1e3500 bits.
BIT_BUDGET = 1 << 22

# Largest modulus D (exclusive) of _residue_turns' int64 width: (n mod D) and
# u = (mult l 2^e mod D) both stay below 2^31, so (n mod D) u + s < 2^63.
INT64_MODULUS_CAP = 1 << 31

UINT64_MASK = (1 << 64) - 1

# Steps per block of the orbit walker, and the largest class modulus
# class_modulus hands out: a table over the classes is one block wide.
BLOCK_STEPS = 1 << 13

TWO_PI = 2.0 * math.pi


class QuotientsExhausted(ValueError):
    """Requested an index past the stored partial quotients."""


class PrecisionFloorError(ValueError):
    """Snapshot denominator too small for the requested resolution."""


class ResourceBudgetError(RuntimeError):
    """Construction would exceed the integer bit budget."""


class AngleDocumentError(ValueError):
    """Serialized angle fails its internal consistency check."""


@dataclass(frozen=True)
class Convergent:
    k: int
    l: int
    q: int


@dataclass(frozen=True)
class PartialQuotients:
    a0: int
    quotients: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.a0 < 0:
            raise ValueError("a0 must be nonnegative")
        for a in self.quotients:
            if a < 1:
                raise ValueError("partial quotients must be positive integers")


@dataclass(frozen=True)
class AngleCF:
    """A rotation angle pinned to an exact rational snapshot.

    convergents runs from index 0 through the snapshot index; k_star is the
    advertised index, past which the quotients are the padding tail.  Every
    field is in the angle document, so an angle equals its JSON round trip;
    explicit_angle is the one constructor.
    """

    pq: PartialQuotients
    convergents: tuple[Convergent, ...]
    k_star: int
    kind: str
    tau: Optional[Fraction] = None
    exact: bool = False  # True when the quotients are the complete expansion

    @property
    def snap_index(self) -> int:
        return len(self.convergents) - 1

    @property
    def l_snapshot(self) -> int:
        return self.convergents[-1].l

    @property
    def q_snapshot(self) -> int:
        return self.convergents[-1].q

    @property
    def snapshot(self) -> tuple[int, int]:
        c = self.convergents[-1]
        return (c.l, c.q)

    @property
    def float_value(self) -> float:
        return self.l_snapshot / self.q_snapshot

    def q(self, k: int) -> int:
        return self.convergents[k].q

    def l(self, k: int) -> int:
        return self.convergents[k].l

    @cached_property
    def _digest(self) -> str:
        blob = json.dumps(angle_to_json(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def convergents_from_quotients(a0: int, quotients: Sequence[int]) -> list[Convergent]:
    """Run the standard recurrence l_{k+1} = a_{k+1} l_k + l_{k-1} (same for q)."""
    convs = [Convergent(0, a0, 1)]
    if not quotients:
        return convs
    convs.append(Convergent(1, a0 * quotients[0] + 1, quotients[0]))
    for k in range(2, len(quotients) + 1):
        a = quotients[k - 1]
        prev, prev2 = convs[-1], convs[-2]
        convs.append(Convergent(k, a * prev.l + prev2.l, a * prev.q + prev2.q))
    return convs


def _iroot(n: int, r: int) -> int:
    """Floor of the r-th root of a nonnegative integer."""
    if n < 0:
        raise ValueError("negative radicand")
    if r == 1 or n <= 1:
        return n
    x = 1 << -((-n.bit_length()) // r)
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


def _nearest_exp_over(qk: int) -> int:
    """Round-half-up integer nearest e^{qk} / qk."""
    digits = max(200, int(qk * 0.4343) + 60)
    with mp.workdps(digits):
        x = mp.exp(qk) / qk
        return int(mp.floor(x + mp.mpf(1) / 2))


def _exp_ratio(q_next: int, qk: int) -> float:
    with mp.workdps(60):
        return float(mp.mpf(q_next) * mp.exp(-qk))


def _finish_angle(
    quotients: list[int],
    k_star: int,
    kind: str,
    tau: Optional[Fraction],
    precision_floor: int,
) -> AngleCF:
    angle = explicit_angle(
        quotients + [1] * GOLDEN_TAIL_STEPS, kind=kind, k_star=k_star, tau=tau
    )
    q_snap = angle.q_snapshot
    # the angle document stores the snapshot in decimal, which CPython caps
    digit_cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_cap and q_snap >= 10**digit_cap:
        raise ResourceBudgetError(
            f"the snapshot denominator has about {int(q_snap.bit_length() * 0.30103)} "
            f"digits, over the {digit_cap}-digit limit for integers in an angle "
            f"document; use a smaller k_star"
        )
    if q_snap <= precision_floor:
        raise PrecisionFloorError(
            f"snapshot denominator has {len(str(q_snap))} digits, below the "
            f"precision floor; choose a larger k_star"
        )
    return angle


def build_exp_alpha(
    k_star: int,
    *,
    seed_q1: int = 2,
    precision_floor: int = PRECISION_FLOOR,
    bit_budget: int = BIT_BUDGET,
) -> AngleCF:
    """Build an angle whose denominators track e^{q_k}.

    Greedy rule: a_{k+1} is the nearest integer to e^{q_k} / q_k, so
    q_{k+1} = a_{k+1} q_k + q_{k-1} lands within the [1/2, 3] window around
    e^{q_k}.  Growth is doubly exponential; one step past a four-digit
    denominator would need more bits than the budget allows, so k_star is
    effectively capped at 4 for the default seed.

    Raises ResourceBudgetError when a step would exceed bit_budget and
    PrecisionFloorError when the snapshot comes out too coarse.
    """
    if k_star < 3:
        raise ValueError("k_star must be at least 3")
    if seed_q1 < 1:
        raise ValueError("seed_q1 must be positive")
    quotients = [seed_q1]
    q_prev, q_cur = 1, seed_q1
    for k in range(1, k_star):
        if q_cur * 14427 > bit_budget * 10000:  # q_cur * log2(e) bits, integer-safe
            need = str(q_cur * 14427 // 10000)
            shown = need if len(need) <= 12 else f"{need[0]}.{need[1:4]}e{len(need) - 1}"
            raise ResourceBudgetError(
                f"step k={k}: the next denominator needs about "
                f"{shown} bits, over the budget of {bit_budget}; "
                f"use k_star <= {k}"
            )
        a_next = max(1, _nearest_exp_over(q_cur))
        q_next = a_next * q_cur + q_prev
        if k >= 2:
            ratio = _exp_ratio(q_next, q_cur)
            if not 0.5 <= ratio <= 3.0:
                raise ValueError(
                    f"growth ratio {ratio} at k={k} escaped the [1/2, 3] window"
                )
        quotients.append(a_next)
        q_prev, q_cur = q_cur, q_next
    return _finish_angle(quotients, k_star, "exp-type", None, precision_floor)


def build_poly_alpha(
    tau: Union[int, str, Fraction],
    k_star: int,
    *,
    seed_q1: int = 2,
    precision_floor: int = PRECISION_FLOOR,
    bit_budget: int = BIT_BUDGET,
) -> AngleCF:
    """Build an angle with polynomial denominator growth q_{k+1} ~ q_k**tau.

    tau must be a rational greater than 3 (pass an int, a Fraction, or a
    string like "10/3"; floats are rejected so the exponent stays exact).
    Every built step satisfies q_{k+1} <= 2 q_k**tau, checked in exact
    integer arithmetic.
    """
    if isinstance(tau, float):
        raise TypeError("tau must be exact: pass an int, Fraction, or 'p/r' string")
    tau = Fraction(tau)
    if tau <= 3:
        raise ValueError("tau must exceed 3")
    if k_star < 3:
        raise ValueError("k_star must be at least 3")
    if seed_q1 < 1:
        raise ValueError("seed_q1 must be positive")
    p, r = tau.numerator, tau.denominator
    quotients = [seed_q1]
    q_prev, q_cur = 1, seed_q1
    for k in range(1, k_star):
        if q_cur.bit_length() * p // r > bit_budget:
            raise ResourceBudgetError(
                f"step k={k} would exceed the bit budget; use k_star <= {k}"
            )
        a_next = max(1, _iroot(q_cur ** (p - r), r))
        q_next = a_next * q_cur + q_prev
        if q_next**r > 2**r * q_cur**p:
            raise ValueError(f"cap q_(k+1) <= 2 q_k**tau violated at k={k}")
        quotients.append(a_next)
        q_prev, q_cur = q_cur, q_next
    return _finish_angle(quotients, k_star, "poly-type", tau, precision_floor)


def explicit_angle(
    quotients: Sequence[int],
    *,
    a0: int = 0,
    kind: str = "explicit",
    k_star: Optional[int] = None,
    tau: Optional[Fraction] = None,
    exact: bool = False,
) -> AngleCF:
    """Wrap quotients without padding or floor checks: the one AngleCF
    constructor.  The builders pad the golden tail and check the floor
    around it (_finish_angle); rational_angle, dyadic_angle and
    angle_from_json call it too."""
    pq = PartialQuotients(a0, tuple(int(a) for a in quotients))
    convs = convergents_from_quotients(pq.a0, pq.quotients)
    return AngleCF(
        pq=pq,
        convergents=tuple(convs),
        k_star=len(pq.quotients) if k_star is None else k_star,
        kind=kind,
        tau=tau,
        exact=exact,
    )


def rational_angle(l: int, q: int) -> AngleCF:
    """Angle equal to the exact rational l/q in [0, 1)."""
    if q < 1:
        raise ValueError("denominator must be positive")
    if not (0 <= l < q):
        raise ValueError("need 0 <= l < q")
    if math.gcd(l, q) != 1:
        raise ValueError("l/q must be in lowest terms")
    quotients = []
    x, y = l, q
    a0, x = divmod(x, y)
    while x:
        a, rem = divmod(y, x)
        quotients.append(a)
        y, x = x, rem
    angle = explicit_angle(quotients, a0=a0, kind="explicit", exact=True)
    if angle.snapshot != (l, q):
        raise AngleDocumentError("continued fraction of l/q failed to round-trip")
    return angle


def dyadic_angle(x: float) -> AngleCF:
    """The exact rational {x} of a finite float, whose denominator is a power
    of two; an infinite or nan x is refused with ValueError."""
    if not math.isfinite(x):
        raise ValueError(f"angle {x!r} is not a finite float")
    f = Fraction(x) % 1
    return rational_angle(f.numerator, f.denominator)


def cis(frac: float) -> complex:
    """e(frac) for a phase given in turns."""
    a = TWO_PI * frac
    return complex(math.cos(a), math.sin(a))


def cis_ratio(k: int, den: int) -> complex:
    """e(k/den) in double precision, the float twin of mp_cis.

    k mod den is read as a 64-bit binary fraction x / 2^64 of a turn (cut
    short by under 2^-64) and split at the nearest quarter turn,
    x / 2^64 = j/4 + t with |t| <= 1/8, so cos and sin see an angle of at
    most pi/4 and each part lands within 2^-53 of e(k/den) (rounding
    2 pi k/den on the whole turn put it up to 1e-15 off); the factor i^j is
    a swap of parts and signs, exact.
    """
    x = ((k % den) << 64) // den
    j = (4 * x + (1 << 63)) >> 64
    a = TWO_PI * ((4 * x - (j << 64)) / 2.0**66)
    c, s = math.cos(a), math.sin(a)
    return (complex(c, s), complex(-s, c), complex(-c, -s), complex(s, -c))[j % 4]


def mp_cis(k: int, den: int):
    """e(k/den) at the mp precision; 2 k/den mod 2 is cut to max(200, prec + 16)
    bits first, far cheaper than handing snapshot-sized integers to mpmath."""
    bits = max(200, mp.prec + 16)
    return mp.expjpi(mp.ldexp(((k % den) << (bits + 1)) // den, -bits))


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


def faithful_modulus(angle: AngleCF, reach: int) -> tuple[int, int]:
    """The snapshot (l, q), once checked to resolve every |mult * n| <= |reach|.

    This is the package's one faithful-range rule.  For a non-exact angle the
    snapshot sits within 1/q^2 of every extension of the quotients, so a
    reduction is trusted only while |reach| * 2^60 < q^2; past that line the
    extensions cannot be told apart and PrecisionFloorError is raised.  Exact
    angles have no ceiling.  matched_convergent picks the reducing convergent.
    """
    l, q = angle.snapshot
    scaled = abs(reach) << 60
    # q^2 >= 2^(2b - 2) for a b-bit q, so a shorter scaled reach needs no square
    if angle.exact or scaled.bit_length() <= 2 * q.bit_length() - 2 or scaled < q * q:
        return l, q
    raise PrecisionFloorError(
        f"|reach| = {abs(reach)} exceeds the snapshot's faithful range"
    )


def matched_convergent(angle: AngleCF, reach: int, e: int = 0) -> Convergent:
    """The convergent l_k/q_k whose rounded phases equal the snapshot's.

    For phases {seed + mult * n * alpha} with |mult * n| <= |reach| and a
    seed sp/2^e (e = 0 for no seed), k is the smallest index below the
    snapshot with |reach| * q_k * 2^(54+e) < q_{k+1}.  An exact angle, or an
    angle where no index qualifies, gets its own snapshot convergent.

    Why that k rounds like the snapshot l/q.  V_k = {seed + mult n l_k/q_k}
    has a reduced denominator b 2^s that divides q_k 2^e, with b odd, so
    b <= q_k and b 2^s <= q_k 2^e.  A rounding midpoint of doubles in [0, 1)
    is M = odd/2^t; the ones next to a V_k in [2^-(j+1), 2^-j) have
    t <= j + 55 (t = 1075 below 2^-1022), and V_k >= 1/(b 2^s) gives
    2^(j+1) <= b 2^s, so 2^t <= b 2^(s+54).  When V_k is not dyadic (b > 1),
    |V_k - M| >= 1/(b 2^max(s, t)) >= 1/(b^2 2^(s+54)) >= 1/(q_k^2 2^(54+e)),
    and V_k lies at least 1/(b 2^s), more than that, from 0 and from 1.  The
    snapshot moves V_k by |mult n (l/q - l_k/q_k)| <= |reach| / (q_k q_{k+1}),
    strictly less than 1/(q_k^2 2^(54+e)) by the choice of k, so no midpoint
    and no wrap lies between the two values, and they round to the same
    double.  A dyadic V_k (b = 1) may be 0 or a midpoint; phase_turns
    recomputes those entries on the snapshot.  spectrum's flat scan steps
    against the same convergent, see check_flat_lower_bound.
    """
    cs = angle.convergents
    if not angle.exact:
        scaled = abs(reach) << (54 + e)
        for c, nxt in zip(cs, cs[1:]):
            if scaled * c.q < nxt.q:
                return c
    return cs[-1]


def reducing_convergent(
    angle: AngleCF, mult: int, reach: int, seed: float = 0.0
) -> tuple[Convergent, int]:
    """The convergent l_k/q_k phase_turns reduces against, and its fix-up divisor.

    For phases {seed + mult * n * alpha} with |n| <= reach, l_k/q_k is the
    convergent matched_convergent picks for |mult| * reach and the seed's
    bit count e.  Its phase V_k is dyadic exactly when d divides n, with
    d = odd(q_k) / gcd(odd(q_k), mult) and odd(q_k) the odd part of q_k
    (gcd(l_k, q_k) = 1); only there can V_k be 0 or a rounding midpoint, so
    only there is the phase recomputed on the snapshot.  d = 0 when there is
    nothing to recompute: l_k/q_k is the snapshot, or mult = 0, which makes
    the snapshot's error mult * n * (l/q - l_k/q_k) vanish.
    """
    e = float(seed).as_integer_ratio()[1].bit_length() - 1
    c = matched_convergent(angle, mult * reach, e)
    if c.q == angle.q_snapshot or not mult:
        return c, 0
    odd = c.q >> ((c.q & -c.q).bit_length() - 1)
    return c, odd // math.gcd(odd, mult)


def class_modulus(
    angle: AngleCF, mults: Sequence[int], reach: int, span: int, seed: float = 0.0
) -> Optional[tuple[int, int]]:
    """(q_k, d) when every phase is a function of n mod q_k off the multiples of d.

    This is the one class rule, for the orbit walker and the correlation
    kernel alike, and it answers as reducing_convergent does: a modulus and
    one fix-up divisor.  For phases {seed + m * n * alpha} with |n| <= reach
    and m in mults, each multiplier's phase_turns reduces against the
    convergent reducing_convergent picks, with fix-up divisor
    d_m = odd(q_k) / gcd(odd(q_k), m).  When every multiplier picks the same
    q_k and that q_k is not the snapshot (every d_m != 0), each phase off its
    fix-ups is the rounded {seed + m n l_k/q_k}, a function of n mod q_k.
    d is the gcd of the d_m, so every fix-up index is a multiple of d and
    the multiples of d are whole classes, since d | q_k; a multiple of d that
    no d_m divides has the same phase per term as per class, because
    phase_turns rounds correctly whichever convergent reduces it.  The rule
    returns (q_k, d) only when, further, d > 1 (with d = 1 every index would
    be recomputed), q_k < span, so that a span of that many indices repeats
    a class, and q_k <= BLOCK_STEPS, so that a table over the classes stays
    one walker block wide; else, and for no multipliers, it returns None.
    Each m * reach must lie in the faithful range, or PrecisionFloorError is
    raised, as phase_turns would on the same indices.
    """
    picks, d = set(), 0
    for m in mults:
        faithful_modulus(angle, m * reach)
        c, d_m = reducing_convergent(angle, m, reach, seed)
        if not d_m:
            return None
        picks.add(c.q)
        d = math.gcd(d, d_m)
    if len(picks) != 1:
        return None
    (q,) = picks
    return (q, d) if d > 1 and q < span and q <= BLOCK_STEPS else None


def _dyadic_turns(ns: np.ndarray, unit: int, shift: int, k: int) -> np.ndarray:
    """Correctly rounded ((n * unit + shift) mod 2^k) / 2^k for each n of a
    uint64 array, k <= 64.

    Only the low k bits count, and wrapping uint64 arithmetic keeps the low
    64, so n, unit and shift may be taken mod 2^64 (two's complement).  The
    masked residue is converted to float once, which rounds it correctly, and
    the scaling by 2^-k is exact.
    """
    r = ns * np.uint64(unit & UINT64_MASK)
    if shift:
        r += np.uint64(shift & UINT64_MASK)
    r &= np.uint64((1 << k) - 1)
    return r.astype(np.float64) * 2.0**-k


def _indices(ns) -> np.ndarray:
    """ns as an int64 array when every index fits in int64, else as an
    object array of Python ints."""
    if isinstance(ns, np.ndarray) and ns.dtype == np.int64:
        return ns
    if isinstance(ns, range) and max(map(abs, (ns.start, ns.stop, ns.step))) < 1 << 63:
        return np.arange(ns.start, ns.stop, ns.step, dtype=np.int64)
    ns = [int(n) for n in ns]
    fits = not ns or -(1 << 63) <= min(ns) <= max(ns) < 1 << 63
    return np.array(ns, dtype=np.int64 if fits else object)


def phase_turns(angle: AngleCF, mult: int, ns, seed: float = 0.0) -> np.ndarray:
    """Correctly rounded {seed + mult * n * alpha} for each n of ns.

    Every entry is the double nearest to the exact (seed + mult * n * l/q)
    mod 1 for the snapshot l/q, after faithful_modulus has checked the range
    (so PrecisionFloorError is raised exactly where it says).  ns is read
    once, into an int64 array or, past int64, an object array of ints.  The
    phases are reduced by _residue_turns against the convergent l_k/q_k that
    reducing_convergent picks, and where l_k/q_k is not the snapshot, the
    entries whose index the fix-up divisor d divides are reduced again on
    the snapshot.  When d exceeds every |n| (int64 indices and d >= 2^63,
    say) that is n = 0 alone.
    """
    ns = _indices(ns)
    if not len(ns):
        return np.empty(0)
    reach = max(-int(ns.min()), int(ns.max()))
    l, q = faithful_modulus(angle, mult * reach)
    c, d = reducing_convergent(angle, mult, reach, seed)
    out = _residue_turns(c.l, c.q, mult, ns, seed)
    if d:
        at = np.flatnonzero(ns == 0 if d > reach else ns % d == 0)
        out[at] = _residue_turns(l, q, mult, ns[at], seed)
    return out


def _residue_turns(l: int, q: int, mult: int, ns, seed: float = 0.0) -> np.ndarray:
    """{seed + mult * n * l/q} for each n of ns, from one exact residue each.

    For seed = sp/2^e the phase is (n u + s) mod D / D, with D = q 2^e,
    u = mult l 2^e mod D and s = sp q mod D; each entry is that residue
    divided by D once, which rounds it correctly, so every width below gives
    the same bits.  ns is an int64 array or any sequence of ints, and the
    integer width is taken from D alone:

    - D a power of two, at most 2^64: the low bits of wrapping uint64
      products, see _dyadic_turns;
    - D < 2^31: int64 NumPy, where (n mod D) u + s stays below 2^63;
    - otherwise, and for indices past int64: Python ints, one index at a time.

    The range is not checked here; phase_turns calls faithful_modulus first.
    """
    if not len(ns):
        return np.empty(0)
    sp, two_e = float(seed).as_integer_ratio()
    den = q * two_e
    u = (mult * l * two_e) % den
    s = (sp * q) % den
    if isinstance(ns, np.ndarray) and ns.dtype == np.int64:
        if den <= 1 << 64 and den & (den - 1) == 0:
            return _dyadic_turns(ns.view(np.uint64), u, s, den.bit_length() - 1)
        if den < INT64_MODULUS_CAP:
            r = ns % den
            r *= u
            if s:
                r += s
            r %= den
            return r / den
        ns = memoryview(ns)  # Python ints one at a time, no list of them
    return np.fromiter(((n * u + s) % den / den for n in ns), np.float64, count=len(ns))


def residue(mult: int, angle: AngleCF) -> int:
    """(mult * l) mod q for the snapshot l/q, valid for any sign of mult.

    Python's % already returns the least nonnegative residue for either
    sign, so mult is not reduced first: for a negative mult, mult % q is a
    snapshot-sized q - |mult|, and its product with l would need a long
    division twice the snapshot's size.  For non-exact angles the multiplier
    must stay inside the faithful range (see faithful_modulus)."""
    l, q = faithful_modulus(angle, mult)
    return (mult * l) % q


def signed_residue(mult: int, angle: AngleCF) -> int:
    """Residue folded to (-q/2, q/2], so ||mult * alpha|| = |result| / q."""
    return fold_signed(residue(mult, angle), angle.q_snapshot)


def frac_mod1(n: int, angle: AngleCF) -> float:
    """{n * alpha} as a float, reduced exactly before conversion."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return residue(n, angle) / angle.q_snapshot


def small_divisor(mult: int, angle: AngleCF) -> complex:
    """e(mult * alpha) - 1 from the exact snapshot residue, without cancellation.

    0j where the snapshot makes mult resonant (residue 0), for the caller to
    handle; a nonzero residue whose divisor underflows double precision
    raises PrecisionFloorError."""
    rs = signed_residue(mult, angle)
    if rs == 0:
        return 0j
    divisor = cis_minus_one(rs, angle.q_snapshot)
    if divisor == 0:
        raise PrecisionFloorError(
            f"small divisor at m = {mult} underflows double precision"
        )
    return divisor


class Certificate:
    """A checked claim and everything it was checked on, as one JSON shape.

    A certificate is a frozen dataclass whose class names its claim and
    whose fields hold the range, the counts and the witnesses; passed (a
    field or a property) is the one verdict.  to_json writes
    {"claim", "pass", then every field in declaration order}: integers of
    magnitude 2^53 or more as decimal strings, tuples as lists, dicts
    converted value by value, and non-finite floats as null, so the document
    is strict JSON that any parser reads without loss.
    """

    claim: ClassVar[str]

    def to_json(self) -> dict:
        doc = {"claim": self.claim, "pass": self.passed}
        for f in fields(self):
            if f.name != "passed":
                doc[f.name] = _json_value(getattr(self, f.name))
        return doc


def _json_value(v):
    if isinstance(v, int):  # bools too: they are below 2^53
        return str(v) if abs(v) >= 1 << 53 else v
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, (tuple, list)):
        return [_json_value(x) for x in v]
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    return v


@dataclass(frozen=True)
class BoundsCertificate(Certificate):
    """1/(2 q_{k+1}) < ||q_k alpha|| < 1/q_{k+1} and the determinant for one k.

    The verdicts are exact; dist, lo and hi are float witnesses (lo and hi
    read 0.0 once q_{k+1} reaches 2^53)."""

    claim = "two-sided convergent bounds with determinant identity"

    k: int
    lower_ok: bool      # 1/(2 q_{k+1}) < ||q_k alpha||
    upper_ok: bool      # ||q_k alpha|| < 1/q_{k+1}
    det_ok: bool        # l_{k+1} q_k - l_k q_{k+1} = (-1)^k
    coprime_ok: bool
    dist: float
    lo: float
    hi: float

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok and self.det_ok and self.coprime_ok


def check_convergent_bounds(angle: AngleCF, k: int) -> BoundsCertificate:
    """Certify 1/(2 q_{k+1}) < ||q_k alpha|| < 1/q_{k+1} in exact arithmetic.

    Valid for 1 <= k <= snapshot index - 2: at the snapshot edge the upper
    bound degenerates to equality by construction, which is a statement about
    the snapshot and not about the angle.
    """
    if not 1 <= k <= angle.snap_index - 2:
        raise QuotientsExhausted(
            f"k={k} outside the certified range 1..{angle.snap_index - 2}"
        )
    l_snap, q_snap = angle.snapshot
    qk = angle.q(k)
    qk1 = angle.q(k + 1)
    a = abs(fold_signed((qk * l_snap) % q_snap, q_snap))
    lower_ok = q_snap < 2 * qk1 * a
    upper_ok = a * qk1 < q_snap
    det = angle.l(k + 1) * qk - angle.l(k) * qk1
    det_ok = det == (-1) ** k
    coprime_ok = math.gcd(angle.l(k), qk) == 1
    return BoundsCertificate(
        k=k,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
        det_ok=det_ok,
        coprime_ok=coprime_ok,
        dist=a / q_snap,
        lo=1.0 / (2.0 * qk1) if qk1 < 2**53 else 0.0,
        hi=1.0 / qk1 if qk1 < 2**53 else 0.0,
    )


def legendre_locate(l: int, q: int, angle: AngleCF) -> Optional[int]:
    """Index k with l/q = l_k/q_k when |alpha - l/q| < 1/(2q^2), else None.

    The hypothesis is tested exactly; a rational that fails it is reported as
    not-a-convergent by returning None.
    """
    if q < 1:
        raise ValueError("q must be positive")
    if math.gcd(l, q) != 1:
        raise ValueError("l/q must be in lowest terms")
    l_snap, q_snap = angle.snapshot
    if q >= q_snap:
        raise PrecisionFloorError("q must stay below the snapshot denominator")
    # |alpha - l/q| < 1/(2 q^2)  <=>  2 q |l_snap q - l q_snap| < q_snap
    if 2 * q * abs(l_snap * q - l * q_snap) >= q_snap:
        return None
    for c in angle.convergents:
        if c.q == q and c.l == l:
            return c.k
    return None


def angle_to_json(angle: AngleCF) -> dict:
    doc = {
        "kind": angle.kind,
        "k_star": angle.k_star,
        "a0": str(angle.pq.a0),
        "quotients": [str(a) for a in angle.pq.quotients],
        "snapshot": {"l": str(angle.l_snapshot), "q": str(angle.q_snapshot)},
        "exact": angle.exact,
    }
    if angle.tau is not None:
        doc["tau"] = f"{angle.tau.numerator}/{angle.tau.denominator}"
    return doc


def angle_from_json(doc: Union[str, dict]) -> AngleCF:
    """Rebuild an angle, verifying the stored snapshot against the quotients."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    # numbers are read as text: 4.7, Infinity or true is refused, not truncated
    try:
        a0 = int(str(doc["a0"]))
        if not isinstance(doc["quotients"], list):
            raise TypeError("quotients must be a list")
        quotients = [int(str(a)) for a in doc["quotients"]]
        kind = doc["kind"]
        k_star = int(str(doc["k_star"]))
        snap_l = int(str(doc["snapshot"]["l"]))
        snap_q = int(str(doc["snapshot"]["q"]))
        tau = None if doc.get("tau") is None else Fraction(str(doc["tau"]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise AngleDocumentError(f"malformed angle document: {exc}") from exc
    exact = doc.get("exact", False)
    if not isinstance(exact, bool):  # "false" would read as true
        raise AngleDocumentError(f"malformed angle document: exact is {exact!r}")
    # q_k only grows, so the denominators alone are stepped first and the
    # document refused once one passes the stored q: the full recurrence
    # costs time quadratic in the quotients' digits and would run to the end
    q_prev, q = 0, 1
    for a in quotients:
        if a < 1:
            break  # explicit_angle refuses it
        q_prev, q = q, a * q + q_prev
        if q > snap_q:
            raise AngleDocumentError("the quotients give a q past the stored snapshot's")
    angle = explicit_angle(
        quotients, a0=a0, kind=kind, k_star=k_star, tau=tau, exact=exact
    )
    if angle.snapshot != (snap_l, snap_q):
        raise AngleDocumentError(
            "stored snapshot disagrees with the recurrence over the quotients"
        )
    return angle


def angle_digest(angle: AngleCF) -> str:
    """sha256 of the canonical angle document, computed once per angle."""
    return angle._digest
