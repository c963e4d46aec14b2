"""Mobius tables and the one summer of mu-weighted phases over short segments.

Sieving is exact integer work: an entry is -1, 0 or +1 because of the
factorization of its index, never because a float rounded somewhere.
One summer, mu_phase_sum, pairs those exact weights with unit-modulus
phases, evaluates cos and sin with NumPy and adds with math.fsum, so working
memory does not grow with the segment and repeated runs over the same
inputs are bit-identical.  It walks the table in fixed-size chunks and asks
the caller for the phases (in turns) of each chunk's nonzero entries.
Given the class rule's answer (q_k, d), for phases that are a function of
n mod q_k outside the multiples of one divisor d of q_k, it first sums
H(r) e(phase(r)) over the classes r, with H(r) the exact sum of mu over the
class (one reshape-sum of whole rows of q_k, O(q_k) memory) and the phase
asked once per class, at a member, and then walks only the multiples of d.
contfrac.class_modulus, the one class rule, says when that applies and
gives (q_k, d); the callers (experiments._Plan.record, whose h = 0 row is
the twisted sum) ask it.  Any table works with a rule, so a progression
n = r (mod q), a table with mu set to 0 off the class, takes the class
route as well.

Memory is the binding constraint for the full sieve (about 18 bytes per
integer while building).  Both sieves check an explicit byte budget before
allocating and refuse with the required size, rather than letting numpy die
half way through a multi-gigabyte allocation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import fsum, isqrt
from typing import Callable, Optional, Tuple

import numpy as np

from .contfrac import TWO_PI

MEM_BUDGET_ENV = "MDL_MEM_BUDGET"
DEFAULT_MEM_BUDGET = 2 << 30  # bytes

BLOCK = 1 << 20
PHASE_CHUNK = 1 << 13  # table entries per chunk of a phase sum


class MemoryBudgetError(RuntimeError):
    """Raised instead of attempting an allocation beyond the byte budget."""


def memory_budget() -> int:
    raw = os.environ.get(MEM_BUDGET_ENV)
    if raw is None:
        return DEFAULT_MEM_BUDGET
    try:
        budget = int(raw)
    except ValueError as exc:
        raise MemoryBudgetError(f"{MEM_BUDGET_ENV} must be an integer byte count, got {raw!r}") from exc
    if budget <= 0:
        raise MemoryBudgetError(f"{MEM_BUDGET_ENV} must be positive, got {budget}")
    return budget


def _require_bytes(needed: int, what: str) -> None:
    budget = memory_budget()
    if needed > budget:
        raise MemoryBudgetError(
            f"{what} needs about {needed} bytes but the budget is {budget}; "
            f"raise {MEM_BUDGET_ENV} to allow it"
        )


@dataclass(frozen=True)
class MuTable:
    """Exact mu values on a contiguous integer range [n_lo, n_hi]."""

    n_lo: int
    n_hi: int
    values: np.ndarray  # int8, values[i] = mu(n_lo + i)

    def __post_init__(self):
        if self.n_lo < 1 or self.n_hi < self.n_lo:
            raise ValueError(f"bad range [{self.n_lo}, {self.n_hi}]")
        if len(self.values) != self.n_hi - self.n_lo + 1:
            raise ValueError("values length disagrees with the range")
        if self.values.dtype != np.int8:
            raise ValueError("values must be int8")

    def __len__(self) -> int:
        return self.n_hi - self.n_lo + 1

    def mu(self, n: int) -> int:
        if not self.n_lo <= n <= self.n_hi:
            raise IndexError(f"{n} outside [{self.n_lo}, {self.n_hi}]")
        return int(self.values[n - self.n_lo])

    def window(self, lo: int, hi: int) -> np.ndarray:
        """The values of mu on [lo, hi]; a range the table does not cover
        raises ValueError (a slice would wrap a negative offset silently)."""
        if self.n_lo > lo or self.n_hi < hi:
            raise ValueError(f"table covers [{self.n_lo}, {self.n_hi}], need [{lo}, {hi}]")
        return self.values[lo - self.n_lo : hi - self.n_lo + 1]


def _primes_upto(limit: int) -> np.ndarray:
    """Primes <= limit, ascending int64."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    composite = np.zeros(limit + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    return np.nonzero(~composite)[0].astype(np.int64)


def sieve_full(n_max: int) -> MuTable:
    """mu on [1, n_max] by the product-of-found-primes sieve.

    For each prime p <= sqrt(n_max) the sign is flipped on multiples of p and
    zeroed on multiples of p^2, while a companion array tracks the product of
    distinct primes found.  Whatever index still disagrees with its product
    owns exactly one prime factor above sqrt(n_max), hence one final flip.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    # mu + res + arange + comparison mask, all length n_max+1
    _require_bytes(18 * (n_max + 1), f"sieve_full({n_max})")
    mu = np.ones(n_max + 1, dtype=np.int8)
    res = np.ones(n_max + 1, dtype=np.int64)
    root = isqrt(n_max)
    composite = np.zeros(root + 1, dtype=bool)
    for p in range(2, root + 1):
        if composite[p]:
            continue
        composite[p * p :: p] = True
        mu[p::p] *= -1
        res[p::p] *= p
        mu[p * p :: p * p] = 0
    leftover = res != np.arange(n_max + 1, dtype=np.int64)
    mu[leftover] *= -1
    mu[0] = 0
    return MuTable(1, n_max, mu[1:].copy())


def sieve_segment(n_top: int, length: int) -> MuTable:
    """mu on the half-open segment (n_top - length, n_top].

    Same product trick as sieve_full, but run block by block so only the
    int8 output plus one block of int64 scratch is ever live.  Needs the
    primes up to sqrt(n_top) regardless of how short the segment is.
    """
    if not 1 <= length <= n_top:
        raise ValueError(f"need 1 <= length <= n_top, got length={length}, n_top={n_top}")
    root = isqrt(n_top)
    # output + primes + per-block (n, res, mu, mask) scratch
    block = min(BLOCK, length)
    _require_bytes(length + 9 * root + 26 * block, f"sieve_segment({n_top}, {length})")
    primes = _primes_upto(root)
    lo = n_top - length + 1
    out = np.empty(length, dtype=np.int8)
    for start in range(lo, n_top + 1, BLOCK):
        stop = min(start + BLOCK - 1, n_top)
        width = stop - start + 1
        mu = np.ones(width, dtype=np.int8)
        res = np.ones(width, dtype=np.int64)
        for p in primes:
            p = int(p)
            first = -start % p
            mu[first::p] *= -1
            res[first::p] *= p
            p2 = p * p
            first2 = -start % p2
            if first2 < width:
                mu[first2::p2] = 0
        n_vals = np.arange(start, stop + 1, dtype=np.int64)
        mu[res != n_vals] *= -1
        out[start - lo : stop - lo + 1] = mu
    return MuTable(lo, n_top, out)


# ---------------------------------------------------------------------------
# the summer


def _add_terms(re: list, im: list, weights: np.ndarray, turns: np.ndarray) -> None:
    """Append the math.fsum of weights * cos and of weights * sin at 2 pi turns."""
    ang = turns - np.floor(turns)  # turns mod 1, see flow._row_values
    ang *= TWO_PI
    re.append(fsum((weights * np.cos(ang)).tolist()))
    im.append(fsum((weights * np.sin(ang)).tolist()))


def mu_phase_sum(
    table: MuTable,
    n0: int,
    n_top: int,
    phases: Callable[[np.ndarray], np.ndarray],
    rule: Optional[Tuple[int, int]] = None,
) -> complex:
    """sum of mu(n) e(phase(n)) over n0 <= n <= n_top.

    phases maps an ascending int64 array of indices with nonzero mu to their
    phases in turns.  The table is walked PHASE_CHUNK entries at a time and
    each chunk is added with math.fsum, so the result is a fixed function of
    the inputs.  A table that does not cover [n0, n_top] raises ValueError.

    rule is the (q, d) of contfrac.class_modulus, or None.  With a rule,
    phases must be a function of n mod q except at the multiples of d, and
    the sum is S = sum_r H(r) e(phase(r)) + the multiples' terms: H(r), the
    sum of mu over the segment's n = r (mod q), is built exactly in int64
    from the int8 table (whole rows of q entries summed as one (rows, q)
    view and the tail row added, so working memory is O(q)), counted from
    n0, and phases is called once, at the first n of each class with
    H(r) != 0 that d does not divide, so each phase(r) is the per-term phase
    bit for bit.  The multiples of d, whole classes since d | q, are then
    walked term by term with step d.  Without a rule every term is walked,
    which is the class route's test oracle.
    """
    vals, d = table.window(n0, n_top), 1
    re, im = [], []
    if rule:
        q, d = rule
        rows, tail = divmod(len(vals), q)
        hist = vals[: rows * q].reshape(rows, q).sum(axis=0, dtype=np.int64)
        hist[:tail] += vals[rows * q :]
        first = -n0 % d
        hist[first::d] = 0
        offs = np.flatnonzero(hist)
        if len(offs):
            _add_terms(re, im, hist[offs].astype(np.float64), phases(n0 + offs))
        n0, vals = n0 + first, vals[first::d]
    for lo in range(0, len(vals), PHASE_CHUNK):
        mu = vals[lo : lo + PHASE_CHUNK]
        nz = np.flatnonzero(mu)
        if len(nz):
            _add_terms(re, im, mu[nz].astype(np.float64), phases(n0 + d * (lo + nz)))
    return complex(fsum(re), fsum(im))
