"""Frequency classification along a rotation's convergent ladder.

Every nonzero integer frequency m sits in exactly one band q_k <= |m| < q_{k+1}
of the denominator ladder.  Which bands divide m decides whether e(m alpha) - 1
is dangerously small, and all of the series manipulations downstream split on
that distinction.  This module does the splitting and verifies the two
Diophantine facts the splits rely on:

  * the flat lower bound  ||m alpha|| >= 1/(2|m|)  off the resonant set, and
  * the exact scaling     ||a q_k alpha|| = a ||q_k alpha||  inside a band.

Every pass/fail decision here is an exact integer comparison: either
against the snapshot rationals, or against a convergent l_k/q_k whose error
is proven smaller than the integer gap the comparison needs, with the one
undecidable value handed back to the snapshot.  Floats appear only as
reported witnesses, and every reported witness is the snapshot's.

The flat scan takes the balanced residue r = fold(m l_k mod q_k) against the
smallest convergent with q_{k+1} > 4 m_limit^2 (q_3 = 8102 on exp k4 for
m_limit >= 46), so the integer key 2m|r| lies strictly within 1/2 of
q_k 2m ||m alpha|| on the snapshot; a key other than q_k therefore decides
2m ||m alpha|| >= 1, and keys order the ratios.  Only keys equal to q_k and
the m sharing the least key (the worst-witness candidates) are recomputed
on the snapshot.  When no rung qualifies, that is when the snapshot's q is
at most 4 m_limit^2, the same scan runs on the snapshot itself, where every
key is exact.  Either way q_k <= 4 m_limit^2 < 2^49 for every m_limit the scan
budget admits, so one scan takes every angle in int64 NumPy chunks.  It
reads the keys, which pass int64, as doubles, whose rounding keeps their
order, and recomputes in Python ints only those that can decide a verdict
or the least key.

The scaling identity needs no witness scan: one lemma decides it.  With
t_k = q_k l mod q, d_k = fold(t_k) and r_k = |d_k| > 0, fold(a t_k mod q)
is the balanced value congruent to a d_k.  If 2 a r_k <= q that value is
a d_k itself (or q/2 when a d_k = -q/2), of size a r_k; if 2 a r_k > q its
size is at most q/2 < a r_k.  So ||a q_k alpha|| = a ||q_k alpha|| holds
exactly for a <= q // (2 r_k).  Each sampled multiplier's verdict, the
scanned count and the whole-band verdict 2 a_max r_k <= q are read off
that one bound.

The flat lower bound needs care.  Its textbook proof hinges on q_k not
dividing m for the band k containing m, which the resonant-set definition
(k >= 2 and q_k | m) guarantees only for k >= 2.  Small divisible frequencies
slip through: m = 1 always violates the bound (||alpha|| < 1/2 for every
irrational), and so typically does m = q_1.  The certificate therefore scans
the provable domain {m : q_k(m) does not divide m}, and separately reports
every band-0/1 divisible m with its exact verdict, so the gap is visible
instead of silently papered over.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import log
from operator import attrgetter
from typing import NamedTuple, Optional, Union

import numpy as np

from .contfrac import (
    BIT_BUDGET,
    AngleCF,
    Certificate,
    Convergent,
    ResourceBudgetError,
    fold_signed,
)

DENSE_SCAN_LIMIT = 10**7
DENSE_PREFIX = 10**6
CHUNK = 1 << 13  # m per int64 chunk of the flat scan: 64 KiB an array

_q = attrgetter("q")


class SnapshotRangeError(ValueError):
    """Frequency or range parameter reaches past the built convergents."""


def _band_index(angle: AngleCF, x: Union[int, float]) -> int:
    """Largest k with q_k <= x (bands use the last index on ties q_0 = q_1 = 1).

    The callers have already refused x >= q_{k_star}, and each x is at least
    q_0 = 1, so k is a band of the ladder with q_{k+1} built.
    """
    return bisect_right(angle.convergents, x, key=_q) - 1


def _shown(n: int) -> str:
    """n in full below 10^40, else its order of magnitude."""
    return str(n) if n < 10**40 else f"~10^{n.bit_length() * 30103 // 100000}"


def _require_in_range(angle: AngleCF, m_abs: int, what: str) -> None:
    if m_abs >= angle.q(angle.k_star):
        raise SnapshotRangeError(
            f"{what} = {_shown(m_abs)} is not below q_{angle.k_star}; "
            "the classification is only certified inside the built ladder"
        )


LOG2_DIGITS = 64  # binary digits of the log2 bounds is_sharp compares
LOG2_FIX = 128  # fraction bits of the fixed point they are read in


def _log2_side(t: int, up: bool) -> Fraction:
    """A bound on log2 t for an integer t >= 1: at most log2 t when up is
    false, at least log2 t when up is true, within 2^-LOG2_DIGITS of it.

    The mantissa x = t / 2^e in [1, 2) is squared LOG2_DIGITS times in
    LOG2_FIX-bit fixed point, halved whenever it reaches 2, and each halving
    is a binary digit 1 of log2 x.  Rounding every step down (up) keeps
    log2 x at least (at most) the digits read after j steps plus log2 of the
    current mantissa over 2^j, a term in [0, 2^-j).
    """
    e = t.bit_length() - 1
    one, x, digits = 1 << LOG2_FIX, t << (LOG2_FIX - e), 0
    for _ in range(LOG2_DIGITS):
        x = -(-x * x >> LOG2_FIX) if up else x * x >> LOG2_FIX
        digit = x >= 2 * one
        if digit:
            x = -(-x >> 1) if up else x >> 1
        digits = 2 * digits + digit
    return e + Fraction(digits + (up and x > one), 1 << LOG2_DIGITS)


def _log2_bounds(q: int) -> tuple:
    """(lo, hi) with lo <= log2 q <= hi for an integer q >= 1, from its bit
    length and leading 64 bits t: t 2^z <= q < (t + 1) 2^z, and q = t 2^z
    when the bits below are zero."""
    z = max(q.bit_length() - 64, 0)
    t = q >> z
    return z + _log2_side(t, False), z + _log2_side(t + (q != t << z), True)


def is_sharp(angle: AngleCF, k: int, tau: Union[Fraction, int, str]) -> bool:
    """Whether q_k belongs to the fast-growth subset: q_{k+1} > q_k^(tau/3).

    For tau = p/s that is q_{k+1}^(3s) > q_k^p, decided from the bit lengths
    b0 of q_k and b1 of q_{k+1} first.  It holds when 3s (b1 - 1) >= p b0,
    since q_{k+1}^(3s) >= 2^(3s (b1 - 1)) and q_k^p < 2^(p b0) (or q_k^p <= 1
    < q_{k+1}^(3s) for p <= 0, as q_{k+1} >= 2); it fails when
    3s b1 <= p (b0 - 1), since q_{k+1}^(3s) < 2^(3s b1).  In between (p > 0)
    it compares 3s log2 q_{k+1} with p log2 q_k through certified bounds on
    each logarithm (_log2_bounds, within about 2^-62), exactly in Fractions.
    Only when those intervals overlap, a true near tie, are both sides
    powered exactly, and a power of more than BIT_BUDGET bits raises
    ResourceBudgetError.  The index k = 0 (value 1) never qualifies; a
    value 1 at k = 1 may.
    """
    if k < 1:
        return False
    tau = Fraction(tau)
    p, s = tau.numerator, tau.denominator
    qk, qn = angle.q(k), angle.q(k + 1)
    b0, b1 = qk.bit_length(), qn.bit_length()
    if 3 * s * (b1 - 1) >= p * b0:
        return True
    if 3 * s * b1 <= p * (b0 - 1):
        return False
    (lo_k, hi_k), (lo_n, hi_n) = _log2_bounds(qk), _log2_bounds(qn)
    if 3 * s * lo_n > p * hi_k:
        return True
    if 3 * s * hi_n <= p * lo_k:
        return False
    if max(3 * s * (b1 - 1), p * (b0 - 1)) >= BIT_BUDGET:
        raise ResourceBudgetError(
            f"deciding q_{k + 1}^(3s) > q_{k}^p for tau = p/s powers past "
            f"{BIT_BUDGET} bits"
        )
    return qn ** (3 * s) > qk ** p


@dataclass(frozen=True)
class SpectralClass:
    """Placement of one frequency relative to the convergent ladder."""

    m: int
    k: int  # band: q_k <= |m| < q_{k+1}; 0 for m = 0
    band_q: int
    divisible: bool  # band_q | m
    resonant: bool  # k >= 2 and band_q | m (m = 0 counts as resonant)
    theorem2_class: Optional[str] = None  # "M1" | "M2" | "M3" | "zero"


def classify(m: int, angle: AngleCF) -> SpectralClass:
    """Band and resonance of a frequency.

    m = 0 is reported resonant with band 0: its coefficient is handled by the
    drift bookkeeping downstream, never by the resonant series.
    """
    if m == 0:
        return SpectralClass(0, 0, 1, True, True)
    am = abs(m)
    _require_in_range(angle, am, "|m|")
    k = _band_index(angle, am)
    bq = angle.q(k)
    divisible = am % bq == 0
    return SpectralClass(m, k, bq, divisible, k >= 2 and divisible)


def classify_tau(
    m: int, angle: AngleCF, tau: Union[Fraction, int, str, None] = None
) -> SpectralClass:
    """classify plus the three-way split used for polynomial-type angles.

    M1: band denominator grows fast (sharp) and divides m.
    M2: band denominator divides m but grows slowly (value 1 included).
    M3: band denominator does not divide m.
    """
    if tau is None:
        tau = angle.tau
    if tau is None:
        raise ValueError("tau is required: pass it or use an angle that carries one")
    base = classify(m, angle)
    if m == 0:
        return SpectralClass(0, 0, 1, True, True, "zero")
    if not base.divisible:
        cls = "M3"
    elif is_sharp(angle, base.k, tau):
        cls = "M1"
    else:
        cls = "M2"
    return SpectralClass(base.m, base.k, base.band_q, base.divisible, base.resonant, cls)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class FlatBoundCertificate(Certificate):
    """Exhaustive check of 2|m| ||m alpha|| >= 1 on the provable domain.

    checked counts the frequencies actually compared; skipped_resonant the
    k >= 2 divisible ones the claim never covers; uncovered the band-0/1
    divisible ones where the textbook argument is silent (each carried with
    its exact verdict, capped at 64 entries).  controls lists the resonant
    witnesses m = q_k, which must all violate the bound.  With nothing
    checked worst_ratio is inf, which the JSON document writes as null.
    modulus_k and modulus_bits name the convergent l_k/q_k the scan stepped
    (the snapshot's index when it stepped the snapshot), and
    snapshot_recomputed counts the checked m whose key was recomputed on
    the snapshot.
    """

    claim = "2|m|*dist(m*alpha, Z) >= 1 off the divisible bands"

    m_limit: int
    checked: int
    passed: bool
    worst_m: int
    worst_ratio: float  # min over checked m of 2|m| ||m alpha||, >= 1 iff passed
    skipped_resonant: int
    uncovered_count: int
    uncovered: tuple  # (m, ratio, holds) for divisible m in bands 0/1
    controls: tuple  # (k, q_k, ratio, violates) for q_k <= m_limit, k >= 2
    modulus_k: int
    modulus_bits: int
    snapshot_recomputed: int


class _FlatScan(NamedTuple):
    """What one pass over 1 <= m <= m_limit finds against l_k/q_k.

    below: some checked m has key 2m|r| < q_k; at_modulus: the checked m
    whose key equals q_k; ties: the m sharing the least key, ascending;
    uncovered: the first 64 band-0/1 divisible m.
    """

    checked: int
    skipped: int
    below: bool
    at_modulus: list
    ties: list
    uncovered: list
    uncovered_count: int


def _flat_convergent(angle: AngleCF, m_limit: int) -> Convergent:
    """The smallest convergent with q_{k+1} > 4 m_limit^2, else the snapshot
    (the margin check_flat_lower_bound's proof needs)."""
    cs, bar = angle.convergents, 4 * m_limit * m_limit
    return next((c for c, nxt in zip(cs, cs[1:]) if nxt.q > bar), cs[-1])


def _scan_chunks(angle: AngleCF, m_limit: int, lk: int, qk: int) -> _FlatScan:
    """The scan over CHUNK m at a time in int64 arrays; needs q_k < 2^49.

    The band of each m is a searchsorted on the ladder clipped to
    m_limit + 1 (no m reaches a clipped rung).  A chunk from m = start
    takes start l_k mod q_k once in Python ints; its residues are then
    (j (l_k mod q_k) + that) mod q_k for j < CHUNK, every sum below
    CHUNK q_k < 2^62, and |r| = min(residue, q_k - residue).  The keys 2m|r|
    pass int64, so each is read as the double keyf = 2.0 m |r|: 2m and |r|
    are exact doubles and their product is rounded once, to nearest.  That
    rounding is monotone and exact on integers up to 2^53 > q_k + 1, so
    key <= q_k exactly when keyf <= q_k, and the m with a chunk's least key
    have the chunk's least keyf.  Only the m with keyf <= max(q_k, least
    keyf) have their keys recomputed in Python ints, and below, at_modulus
    and the ties are read off those exact keys; every m sharing the least
    key is its chunk's least, so the ties come out ascending across chunks.
    """
    top = m_limit + 1
    ladder = np.array([min(c.q, top) for c in angle.convergents], dtype=np.int64)
    step = lk % qk
    offsets = np.arange(CHUNK, dtype=np.int64) * np.int64(step)
    q64 = np.int64(qk)
    checked = skipped = uncovered_count = 0
    near, uncovered = [], []  # (m, exact key) of the m under max(q_k, least keyf)
    for start in range(1, top, CHUNK):
        m = np.arange(start, min(start + CHUNK, top), dtype=np.int64)
        rm = (offsets[: m.size] + start * step % qk) % q64
        k = np.searchsorted(ladder, m, side="right") - 1
        divisible = m % ladder[k] == 0
        if divisible.any():
            low = m[divisible & (k < 2)]
            uncovered_count += low.size
            skipped += int(np.count_nonzero(divisible)) - low.size
            uncovered += low[: 64 - len(uncovered)].tolist()
            m, rm = m[~divisible], rm[~divisible]
            if not m.size:
                continue
        checked += m.size
        r = np.minimum(rm, q64 - rm)
        keyf = 2.0 * m * r
        pick = keyf <= max(qk, keyf.min())
        near += [(a, 2 * a * b) for a, b in zip(m[pick].tolist(), r[pick].tolist())]
    least = min((key for _, key in near), default=None)
    return _FlatScan(
        checked,
        skipped,
        any(key < qk for _, key in near),
        [a for a, key in near if key == qk],
        [a for a, key in near if key == least],
        uncovered,
        uncovered_count,
    )


def check_flat_lower_bound(angle: AngleCF, m_limit: int) -> FlatBoundCertificate:
    """Scan 1 <= m <= m_limit with exact arithmetic (negative m are mirrors).

    The scan takes the balanced residue r = fold(m l_k mod q_k) against the
    smallest convergent l_k/q_k with q_{k+1} > 4 m_limit^2, or against the
    snapshot when no k qualifies (_flat_convergent).  Why its comparisons
    are the snapshot's: the snapshot l/q lies within 1/(q_k q_{k+1}) of
    l_k/q_k, and ||.|| is 1-Lipschitz, so |q_k ||m l/q|| - |r|| <= m/q_{k+1},
    and the integer key 2m|r| lies within 2 m_limit^2/q_{k+1} < 1/2 of
    X = q_k 2m ||m l/q||.
    The claim 2m ||m l/q|| >= 1 is X >= q_k: a key of q_k + 1 or more
    passes, q_k - 1 or less fails, and only key == q_k is recomputed on the
    snapshot.  A smaller key means a smaller X, so the worst witness is
    among the m sharing the least key; those are
    recomputed on the snapshot and the least exact value wins, the smallest
    m on a tie.  No checked m has r = 0: m <= m_limit < q_{k+1}, so a
    multiple of q_k lies in band k and is skipped or uncovered.  On the
    snapshot itself the same scan runs and its keys are exact.

    By the minimality of k, q_k <= 4 m_limit^2 < 2^49 for every m_limit up
    to DENSE_SCAN_LIMIT (the snapshot's q too, when no k qualifies), so
    _scan_chunks takes every angle in int64 arrays.  On 2 vCPUs with
    numpy 2.4, m_limit = 10^7 takes 0.25-0.4 s on exp k4 (q_3 = 8102 from
    m_limit 46 on) and on poly (4, 6) (q_3 = 83523 from 145 on), and 10^5
    3-4 ms.  Each chunk's arrays are 64 KiB; the NumPy kernels the chunks
    run for the first time raise the peak RSS of a `check spectrum`
    process by a few tenths of a MiB.

    The scan is linear in m_limit, which is why m_limit has a budget: past
    DENSE_SCAN_LIMIT it raises ResourceBudgetError before it starts.
    """
    if m_limit < 1:
        raise ValueError("m_limit must be >= 1")
    _require_in_range(angle, m_limit, "m_limit")
    if m_limit > DENSE_SCAN_LIMIT:
        raise ResourceBudgetError(
            f"m_limit = {m_limit} exceeds the linear scan budget of "
            f"{DENSE_SCAN_LIMIT} frequencies"
        )
    q = angle.q_snapshot
    l = angle.l_snapshot
    c = _flat_convergent(angle, m_limit)
    found = _scan_chunks(angle, m_limit, c.l, c.q)

    def snapshot_key(m: int) -> int:  # 2m ||m l/q|| q, exact
        return 2 * m * abs(fold_signed((m * l) % q, q))

    recomputed = {m: snapshot_key(m) for m in found.at_modulus}
    passed = not found.below and all(v >= q for v in recomputed.values())
    worst_num = None
    worst_m = 0
    for m in found.ties:
        if m not in recomputed:
            recomputed[m] = snapshot_key(m)
        if worst_num is None or recomputed[m] < worst_num:
            worst_num, worst_m = recomputed[m], m
    uncovered = []
    for m in found.uncovered:
        num = snapshot_key(m)
        uncovered.append((m, num / q, num >= q))
    controls = []
    for kk in range(2, len(angle.convergents) - 1):
        qc = angle.q(kk)
        if qc > m_limit:
            break
        key = snapshot_key(qc)
        controls.append((kk, qc, key / q, key < q))
    return FlatBoundCertificate(
        m_limit,
        found.checked,
        passed,
        worst_m,
        worst_num / q if worst_num is not None else float("inf"),
        found.skipped,
        found.uncovered_count,
        tuple(uncovered),
        tuple(controls),
        c.k,
        c.q.bit_length(),
        len(recomputed),
    )


@dataclass(frozen=True)
class ScalingCertificate(Certificate):
    """Per-band check of ||a q_k alpha|| = a ||q_k alpha|| for 1 <= a <= a_max.

    a_max is the largest a with a q_k < q_{k+1}, and r_k = q ||q_k alpha|| is
    the balanced residue of q_k l against the snapshot.  The identity holds
    exactly for a <= q // (2 r_k) (see check_resonant_scaling).  Verdicts:

      * equality_ok: the identity over the sampled a.  Up to
        DENSE_SCAN_LIMIT the sample is every a; past it the first
        DENSE_PREFIX, then the doubling grid DENSE_PREFIX 2^j < a_max and
        a_max itself, and partial is set.  The sample ends at a_max, so
        equality_ok is band_exact; scanned counts the sampled a, ascending,
        up to the first that fails.
      * band_exact: the identity over the whole band, the one integer
        inequality 2 a_max r_k <= q.
      * premise_ok: the paper's premise a_max ||q_k alpha|| < 1/q_k, exactly
        a_max r_k q_k < q, whose float value is premise_max.  For q_k >= 2
        it implies band_exact.

    The certificate passes when equality_ok and premise_ok hold.
    """

    claim = "dist(a q_k alpha, Z) = a * dist(q_k alpha, Z) on the band"

    k: int
    a_max: int
    scanned: int
    dense_upto: int
    partial: bool
    equality_ok: bool
    band_exact: bool
    premise_ok: bool
    premise_max: float

    @property
    def passed(self) -> bool:
        return self.equality_ok and self.premise_ok


def check_resonant_scaling(angle: AngleCF, k: int) -> ScalingCertificate:
    """Verify the in-band scaling identity with exact residues.

    Lemma: with t_k = q_k l mod q, d_k = fold(t_k) and r_k = |d_k| > 0,
    |fold(a t_k mod q)| = a r_k holds exactly for 1 <= a <= q // (2 r_k).
    Proof: fold(a t_k mod q) is the value in (-q/2, q/2] congruent to a d_k.
    If 2 a r_k <= q, a d_k lies in [-q/2, q/2], so that value is a d_k, or
    q/2 when a d_k = -q/2; either way its size is a r_k.  If 2 a r_k > q,
    its size is at most q/2 < a r_k.

    The identity therefore holds on an initial run of the ascending sample
    (every a up to a_max, or past DENSE_SCAN_LIMIT the first DENSE_PREFIX,
    the doubling grid and a_max, marked partial), and scanned is the number
    of sampled a <= q // (2 r_k).  No multiplier is reduced modulo q.
    """
    if not 0 <= k < angle.k_star:
        raise SnapshotRangeError(f"band {k} is not inside the built ladder")
    q = angle.q_snapshot
    qk = angle.q(k)
    a_max = (angle.q(k + 1) - 1) // qk
    if a_max < 1:
        raise SnapshotRangeError(f"band {k} admits no multiplier (q_{k+1} = q_k)")
    rk = abs(fold_signed((qk * angle.l_snapshot) % q, q))
    if rk == 0:
        raise SnapshotRangeError(f"q_{k} annihilates the snapshot; angle too shallow")
    last = q // (2 * rk)  # the largest a the identity holds for
    exact = a_max <= last  # the sample ends at a_max, so this is its verdict
    partial = a_max > DENSE_SCAN_LIMIT
    dense_upto = DENSE_PREFIX if partial else a_max
    if last < dense_upto:
        scanned = last
    else:
        scanned = dense_upto
        if partial:  # grid points dense_upto 2^j <= min(last, a_max - 1), then a_max
            grid = (min(last, a_max - 1) // dense_upto).bit_length() - 1
            scanned += grid + exact
    top = a_max * rk
    return ScalingCertificate(
        k, a_max, scanned, dense_upto, partial, exact, exact, top * qk < q, top / q,
    )


# ---------------------------------------------------------------------------
# truncation indices


def sharp_denominators(angle: AngleCF, tau, stop_above: int) -> list:
    """Ascending (k, q_k, q_{k+1}) for sharp bands, stopping once q_k > stop_above."""
    tau = Fraction(tau)
    out = []
    for k in range(1, angle.snap_index):
        qk = angle.q(k)
        if qk > stop_above:
            break
        if is_sharp(angle, k, tau):
            out.append((k, qk, angle.q(k + 1)))
    return out


@dataclass(frozen=True)
class TruncationIndex(Certificate):
    """Resonant truncation depths for a sum length N.

    K: deepest band with q_K <= 2 ln N.  K_prime: position of N in the ladder
    of sharp denominators, q~_{K'} < N <= q~_{K'}^+, where q~^+ means the next
    denominator in the full ladder; 0 when N is at or below the first sharp
    value, None when no tau is available.  passed re-checks both brackets on
    the ladder after the search; witness carries 2 ln N, q_K and the sharp
    bracket.
    """

    claim = "q_K <= 2 ln N < q_{K+1}; sharp ladder brackets N"

    n: int
    K: int
    K_prime: Optional[int]
    witness: dict
    passed: bool


def truncation_indices(angle: AngleCF, n: int, tau=None) -> TruncationIndex:
    """Locate the truncation depths for averaging up to N = n.

    K is _band_index(2 ln N), the band lookup classify uses: 2 ln N is
    refused at or past q_{k_star} first, and it is at least 2 ln 2 > q_0.
    The 2 ln N comparison runs in floats; ties against an integer q_k cannot
    occur to double precision for the q ladders in scope (growth is at least
    Fibonacci), and a 1e-12 relative guard raises rather than misplace K.

    K' is read off the sharp ladder (sharp_denominators up to N) in one
    pass: it is the number of sharp values q~ < N, and the bracket is the
    last of them with its successor denominator q~^+.  Those denominators
    ascend from k = 1, so every earlier successor lies below that value;
    when N > q~^+ too, N falls in a gap and SnapshotRangeError is raised.
    """
    if n < 2:
        raise ValueError("need N >= 2")
    target = 2.0 * log(n)
    if target >= angle.q(angle.k_star):
        raise SnapshotRangeError(f"2 ln N = {target:.3f} reaches past the built ladder")
    K = _band_index(angle, target)
    q_K, q_next = angle.q(K), angle.q(K + 1)
    near = target - q_K
    if q_next <= 2 * target:  # a farther rung is no tie, and may pass the float range
        near = min(near, q_next - target)
    if near < 1e-12 * max(1.0, target):
        raise SnapshotRangeError("2 ln N sits on a ladder rung; cannot certify K")
    if tau is None:
        tau = angle.tau
    K_prime = None
    witness = {"two_log_n": target, "q_K": str(q_K), "K_loglog": 0.0}
    if n > 2:
        witness["K_loglog"] = K / log(log(n))
    if tau is not None:
        ladder = sharp_denominators(angle, tau, n)
        K_prime = sum(qk < n for _, qk, _ in ladder)
        if K_prime:
            k, qk, qk_next = ladder[K_prime - 1]
            if n > qk_next:
                raise SnapshotRangeError(
                    f"N = {_shown(n)} falls in a gap of the sharp ladder; no K' exists"
                )
            witness["sharp_bracket"] = [k, str(qk), str(qk_next)]
        elif ladder:  # the first sharp value is N itself
            witness["sharp_bracket"] = "below first sharp value"
        else:
            witness["sharp_bracket"] = "no sharp values below N"
    passed = q_K <= target < q_next
    if K_prime:
        _, qk, qk_next = ladder[K_prime - 1]
        passed = passed and qk < n <= qk_next
    elif K_prime == 0 and ladder:
        passed = passed and n <= ladder[0][1]
    return TruncationIndex(n, K, K_prime, witness, passed)
