"""Finite Fourier series, resonant splits, and coboundary solving.

Everything here is a finite trigonometric polynomial carrying an explicit
bound on whatever tail was discarded.  That keeps each downstream check
quantitative: an evaluation is an exactly rounded finite sum (math.fsum) of
terms whose phases {m t} come from the phase engine in contfrac, correctly
rounded on the dyadic value of t, and an identity holds up to a number
computed from the decay class, never up to an unspecified constant.

FourierSeries owns the one reading of h, its fold: h(t) = c(0) + Re sum over
the positive modes m of F_m e(m t), F_m = c(m) + conj c(-m).  It is exact for
any coefficients, as Re(a e(t)) + Re(b e(-t)) = Re((a + conj b) e(t)), and has
no imaginary part to check.  eval, check_coeff_bound, the orbit walker and
the correlation kernel all read h through it.  eval takes a float or a 1-D
array of points: one (points x modes) phase table, one exact fsum per
point, and a float is the one-row case, with the same bits as in any block.

check_coboundary certifies g(t + alpha) - g(t) = h2(t) on sampled t, at the
exact alpha: g(t + alpha) is g's fold with each F_m turned by e(m alpha),
{m alpha} reduced on the snapshot by the phase engine, so it reads g(t)'s
cos and sin table, and h2(t) reads it too when their modes agree.  It draws
its samples in blocks of DEFECT_BLOCK table elements, and refuses more than
DEFECT_WORK_LIMIT samples x modes before the first block.

Small divisors e(m alpha) - 1 all come from contfrac.small_divisor: the
exact residue of m against the angle snapshot, turned into a float through
2 sin(pi x) forms, so a divisor of size 1e-4 near a resonant band is trusted
to full float precision rather than drowned by the subtraction of nearby
units.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import exp, fsum, inf, pi
from random import Random
from typing import Dict, Iterable, Mapping, NamedTuple, Optional, Tuple, Union

import numpy as np

from .contfrac import (
    TWO_PI, UINT64_MASK, AngleCF, Certificate, ResourceBudgetError, _dyadic_turns,
    angle_digest, cis, dyadic_angle, phase_turns, small_divisor,
)
from .spectrum import SnapshotRangeError, classify, classify_tau

COEFF_GRID = 1 << 12
TAIL_ENUM_LIMIT = 10**6
# Largest m_cut the random samplers build (2 * 10^4 stored coefficients); the
# benchmark uses at most 200
SAMPLE_MODE_LIMIT = 10**4
# Points x modes of one block of check_coboundary's phase tables
DEFECT_BLOCK = 1 << 13
# Largest samples x modes check_coboundary evaluates: at about 0.26 us per
# sample-mode (poly (4, 6), smooth:4.0:120) that is about 25 s of work
DEFECT_WORK_LIMIT = 10**8
# Absolute slack of the envelope check beside its relative 1e-9: a
# coefficient under 2^-1022 is subnormal, and rounding its parts and its
# modulus can each move it by half of 2^-1074, far more than 1e-9 of it
SUBNORMAL_SLACK = 2.0**-1072


class CoboundaryDomainError(ValueError):
    """A frequency whose small divisor may vanish was handed to the solver."""


@dataclass(frozen=True)
class Decay:
    """Declared coefficient decay: analytic(eta), smooth(tau), or finite."""

    kind: str  # "analytic" | "smooth" | "finite"
    param: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("analytic", "smooth", "finite"):
            raise ValueError(f"unknown decay kind {self.kind!r}")
        if self.kind == "finite":
            if self.param is not None:
                raise ValueError("finite decay takes no parameter")
        else:
            if self.param is None or not self.param > 0:
                raise ValueError(f"{self.kind} decay needs a positive parameter")
        if self.kind == "smooth" and self.param <= 3:
            raise ValueError("smooth decay requires an exponent above 3")

    def weight(self, m: int) -> float:
        """Upper envelope for |coefficient(m)| at unit constant, m != 0."""
        am = abs(m)
        if self.kind == "analytic":
            return exp(-self.param * am)
        if self.kind == "smooth":
            return am ** (-self.param)
        return 1.0


FINITE = Decay("finite")


class Fold(NamedTuple):
    """h = mean + Re sum coeffs[k] e(modes[k] t), over the positive modes, increasing."""

    modes: Tuple[int, ...]
    coeffs: Tuple[complex, ...]
    mean: float


class FourierSeries:
    """Immutable finite series sum of c(m) e(mt) with a certified tail bound.

    Coefficients must be conjugate-symmetric (the represented function is
    real) and must sit under decay_const times the decay envelope, up to a
    relative 1e-9 and SUBNORMAL_SLACK for rounding.  items,
    coeff, support, len and l1_norm speak of the modes +-m; eval reads the
    fold.  The positive modes are kept once as uint64 (m mod 2^64) for the
    engine's power-of-two kernel, and F_m as a complex array.
    """

    __slots__ = ("_pairs", "_map", "_fold", "_modes", "_coef", "decay", "truncation_error",
                 "decay_const")

    def __init__(
        self,
        coeffs: Mapping[int, complex],
        decay: Decay = FINITE,
        truncation_error: float = 0.0,
        decay_const: float = 1.0,
    ):
        cleaned = {}
        for m, c in coeffs.items():
            c = complex(c)
            if c != 0:
                cleaned[int(m)] = c
        for m, c in cleaned.items():
            mirror = cleaned.get(-m, 0j)
            if abs(mirror - c.conjugate()) > 1e-12 * max(1.0, abs(c)):
                raise ValueError(f"conjugate symmetry fails at m = {m}")
        if truncation_error < 0:
            raise ValueError("truncation_error must be nonnegative")
        for m, c in cleaned.items():
            if m == 0:
                continue
            cap = decay_const * decay.weight(m)
            if abs(c) > cap * (1 + 1e-9) + SUBNORMAL_SLACK:
                raise ValueError(
                    f"|c({m})| = {abs(c):.3e} breaks the declared "
                    f"{decay.kind} envelope {cap:.3e}"
                )
        self._pairs = tuple(sorted(cleaned.items(), key=lambda kv: (abs(kv[0]), kv[0])))
        self._map = cleaned
        modes = tuple(sorted({abs(m) for m in cleaned if m}))
        fold = tuple(self.coeff(m) + self.coeff(-m).conjugate() for m in modes)
        self._fold = Fold(modes, fold, self.coeff(0).real)
        self._modes = np.array([m & UINT64_MASK for m in modes], dtype=np.uint64)
        self._coef = np.array(fold, dtype=complex)
        self.decay = decay
        self.truncation_error = float(truncation_error)
        self.decay_const = float(decay_const)

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FourierSeries)
            and self._pairs == other._pairs
            and self.decay == other.decay
            and self.truncation_error == other.truncation_error
        )

    def coeff(self, m: int) -> complex:
        return self._map.get(m, 0j)

    def support(self) -> Tuple[int, ...]:
        return tuple(m for m, _ in self._pairs)

    def support_radius(self) -> int:
        return max((abs(m) for m in self._map), default=0)

    def items(self):
        """Coefficients in increasing (|m|, m) order."""
        return self._pairs

    @property
    def fold(self) -> Fold:
        """(modes, F_m, c(0)), built once: the reading every evaluation of h uses."""
        return self._fold

    def _turns(self, t) -> np.ndarray:
        """{m t} for each positive mode, correctly rounded on the dyadic value of t.

        t is a float, giving one row of phases, or a 1-D array of points,
        giving a (points, modes) table.  Each t is mant / 2^k with a 53-bit
        integer mant (np.frexp).  For k <= 64 the row comes from the
        engine's power-of-two kernel, one unit and width per row; a row with
        a smaller |t| (below 2^-12) takes its phases from phase_turns on
        dyadic_angle(t).  A non-finite t is refused with ValueError.
        """
        ts = np.asarray(t, dtype=np.float64)
        rows = ts.reshape(-1)
        if not np.isfinite(rows).all():
            raise ValueError(f"series evaluated at a non-finite point: {t!r}")
        frac, e = np.frexp(rows)
        mant = (frac * 2.0**53).astype(np.int64).view(np.uint64)
        k = np.maximum(np.minimum(53 - e, 64), 0)  # 64 on the rows below
        out = _dyadic_turns(self._modes, mant[:, None], 0, k[:, None])
        for i in np.flatnonzero(e < -11):
            out[i] = phase_turns(dyadic_angle(float(rows[i])), 1, self._fold.modes)
        return out.reshape(ts.shape + self._modes.shape)

    def _waves(self, t) -> Tuple[np.ndarray, np.ndarray]:
        """cos and sin of 2 pi {m t}: the tables every series on these modes reads."""
        ang = TWO_PI * self._turns(t)
        return np.cos(ang), np.sin(ang)

    def _sums(self, waves: Tuple[np.ndarray, np.ndarray], coef=None) -> np.ndarray:
        """c(0) + Re sum F_m e(m t) per point of waves, as one exact fsum of
        a row [c(0), one term per mode]; waves come from _waves on this
        series' modes (or another series' equal ones).  coef, when given,
        stands in for the F_m."""
        coef = self._coef if coef is None else coef
        cos, sin = waves
        table = np.empty(cos.shape[:-1] + (cos.shape[-1] + 1,))
        table[..., 0] = self._fold.mean
        terms = table[..., 1:]
        np.multiply(coef.real, cos, out=terms)
        terms -= coef.imag * sin
        flat = table.reshape(-1, table.shape[-1])
        sums = np.fromiter(map(fsum, map(memoryview, flat)), np.float64, len(flat))
        return sums.reshape(cos.shape[:-1])

    def eval(self, t):
        """c(0) + Re sum F_m e(m t), one exact fsum of c(0) and a term per mode.

        t is a float, and the value a float, or a 1-D array of points, and
        the values an array; a float is the one-row case of the same path.
        """
        sums = self._sums(self._waves(t))
        return float(sums) if np.ndim(t) == 0 else sums

    def l1_norm(self) -> float:
        return float(sum(abs(c) for _, c in self._pairs))


# ---------------------------------------------------------------------------
# the h families


def furstenberg_h(
    angle: AngleCF,
    t_coeffs: Union[Mapping[int, float], Iterable[float]],
    k_cut: Optional[int] = None,
    t_bound: Optional[float] = None,
) -> FourierSeries:
    """Weighted ladder series sum of t_k (1 - e(q_k alpha)) e(q_k x) plus mirror.

    The factor 1 - e(q_k alpha) shrinks like 1/q_{k+1}, so the series is very
    close to its own coboundary obstruction by construction.  t_coeffs maps
    k >= 1 to a real weight (a plain sequence is read as k = 1, 2, ...).
    """
    if not isinstance(t_coeffs, Mapping):
        t_coeffs = {k: t for k, t in enumerate(t_coeffs, start=1)}
    if k_cut is None:
        k_cut = max(t_coeffs, default=0)
    if k_cut > angle.k_star - 1:
        raise SnapshotRangeError(
            f"k_cut = {k_cut} reaches past the built ladder (max {angle.k_star - 1})"
        )
    coeffs: Dict[int, complex] = {}
    for k, t in t_coeffs.items():
        if not 1 <= k <= k_cut:
            raise ValueError(f"weight index {k} outside 1..{k_cut}")
        t = float(t)
        if t_bound is not None and abs(t) > t_bound:
            raise ValueError(f"|t_{k}| = {abs(t)} exceeds the declared bound {t_bound}")
        if t == 0.0:
            continue
        qk = angle.q(k)
        # ||q_k alpha|| ~ 1/q_{k+1}; past the subnormal floor this raises
        minus = small_divisor(qk, angle)  # e(q_k alpha) - 1
        coeffs[qk] = complex(-t * minus.real, -t * minus.imag)
        coeffs[-qk] = coeffs[qk].conjugate()
    # |1 - e(q_k alpha)| reaches 2 on a short ladder, so the envelope is the
    # largest |c|; a finite series has no tail, so no bound reads it
    cap = max((abs(c) for c in coeffs.values()), default=0.0)
    return FourierSeries(coeffs, FINITE, 0.0, max(1.0, cap))


def _random_phase_sample(decay: Decay, m_cut: int, seed: int, tail: float) -> FourierSeries:
    """c(0) = 1 and c(+-m) = decay.weight(m) e(+-phase_m) for m = 1..m_cut, each
    phase drawn uniformly in [0, 1) from Random(seed), in the order of m."""
    rng = Random(seed)
    coeffs: Dict[int, complex] = {0: 1.0 + 0j}
    for m in range(1, m_cut + 1):
        mag = decay.weight(m)
        z = cis(rng.random())
        coeffs[m] = complex(mag * z.real, mag * z.imag)
        coeffs[-m] = coeffs[m].conjugate()
    return FourierSeries(coeffs, decay, tail)


def _check_m_cut(m_cut: int) -> None:
    """Refuse m_cut < 1 (ValueError) or past SAMPLE_MODE_LIMIT (ResourceBudgetError)."""
    if m_cut < 1:
        raise ValueError("m_cut must be >= 1")
    if m_cut > SAMPLE_MODE_LIMIT:
        raise ResourceBudgetError(
            f"m_cut = {m_cut} is past the {SAMPLE_MODE_LIMIT} cap on sampled modes"
        )


def analytic_h_sample(eta: float, m_cut: int, seed: int) -> FourierSeries:
    """Random-phase series with |c(m)| = e^(-eta |m|) exactly and c(0) = 1.

    The tail bound is the closed geometric sum of the discarded envelope.
    eta must be finite and positive (an infinite eta would leave c(0)
    alone), and m_cut at most SAMPLE_MODE_LIMIT, checked before any mode.
    """
    if not 0 < eta < inf:
        raise ValueError(f"eta must be finite and positive, got {eta}")
    _check_m_cut(m_cut)
    x = exp(-eta)
    if x == 1.0:  # the tail bound below would divide by zero
        raise ValueError(f"eta = {eta} is too small: e^-eta rounds to 1")
    tail = 2.0 * x ** (m_cut + 1) / (1.0 - x)
    return _random_phase_sample(Decay("analytic", eta), m_cut, seed, tail)


def smooth_h_sample(tau: float, m_cut: int, seed: int) -> FourierSeries:
    """Random-phase series with |c(m)| = |m|^(-tau) exactly and c(0) = 1.

    Tail bound by integral comparison: 2 m_cut^(1-tau) / (tau - 1).  tau
    must be finite (an infinite tau would leave mode 1 alone), and m_cut at
    most SAMPLE_MODE_LIMIT, checked before any mode.
    """
    if not 3 < tau < inf:
        raise ValueError(f"tau must be finite and exceed 3, got {tau}")
    _check_m_cut(m_cut)
    tail = 2.0 * float(m_cut) ** (1.0 - tau) / (tau - 1.0)
    return _random_phase_sample(Decay("smooth", tau), m_cut, seed, tail)


# ---------------------------------------------------------------------------
# resonant splits


def _split_by(h: FourierSeries, into_first) -> Tuple[FourierSeries, FourierSeries, float]:
    first: Dict[int, complex] = {}
    second: Dict[int, complex] = {}
    for m, c in h.items():
        if m:
            (first if into_first(m) else second)[m] = c
    mk = lambda d: FourierSeries(d, h.decay, h.truncation_error, h.decay_const)
    return mk(first), mk(second), h.fold.mean


def split_resonant(
    h: FourierSeries, angle: AngleCF
) -> Tuple[FourierSeries, FourierSeries, float]:
    """(resonant part, flat part, mean): bands k >= 2 with q_k | m vs the rest.

    Both parts inherit the decay class and the (shared, hence conservative)
    tail bound of h.  Coefficientwise h = h1 + h2 + mean.
    """
    return _split_by(h, lambda m: classify(m, angle).resonant)


def split_tau(
    h: FourierSeries, angle: AngleCF, tau=None
) -> Tuple[FourierSeries, FourierSeries, float]:
    """(fast-band part M1, slow part M2 u M3, mean) for the three-way split."""
    return _split_by(h, lambda m: classify_tau(m, angle, tau).theorem2_class == "M1")


# ---------------------------------------------------------------------------
# coboundaries


@dataclass(frozen=True)
class CoboundaryFunction:
    """g with g(t + alpha) - g(t) reproducing a non-resonant series.

    identity_error_bound caps the sup-norm defect against the underlying
    infinite series; for the stored frequencies the identity is exact by
    construction, so sampled defects should only show float noise plus this
    bound.
    """

    series: FourierSeries
    source: dict
    identity_error_bound: float

    def defect(self, t, rhs: FourierSeries, alpha: Union[AngleCF, float]):
        """|g(t + alpha) - g(t) - rhs(t)| at a float t (a float), or at each
        point of a 1-D array t (an array).

        alpha is the angle, or a float read as its exact dyadic rational.
        g(t + alpha) is c(0) + Re sum F_m e(m alpha) e(m t): g's folded
        coefficients turned by e(m alpha), with {m alpha} from
        phase_turns(alpha, 1, modes), reduced exactly on the snapshot, so no
        rounded t + alpha enters.  It reads g(t)'s cos and sin table, and so
        does rhs(t) when rhs has g's positive modes, as the split it was
        solved from does unless a quotient underflowed.  A mode past the
        snapshot's faithful range raises PrecisionFloorError.
        """
        if not isinstance(alpha, AngleCF):
            alpha = dyadic_angle(alpha)
        g = self.series
        waves = g._waves(t)
        here = g._sums(waves)
        driven = rhs._sums(waves if rhs.fold.modes == g.fold.modes else rhs._waves(t))
        shift = TWO_PI * phase_turns(alpha, 1, g.fold.modes)
        stepped = g._sums(waves, g._coef * (np.cos(shift) + 1j * np.sin(shift)))
        out = np.abs(stepped - here - driven)
        return float(out) if np.ndim(t) == 0 else out


def _float_tau(tau) -> float:
    """tau, an int, float, Fraction or exact string such as "10/3", as a
    float; inf past the float range."""
    try:
        return float(Fraction(tau))
    except OverflowError:
        return inf


def _tail_closed_form(decay: Decay, const: float, cut: int, theorem2_tau) -> float:
    """2 sum_{|m|>cut} envelope(m)/|e(m alpha)-1| under the small-divisor bounds.

    Flat-regime divisors: |e(m alpha)-1| >= 4 ||m alpha|| >= 2/|m| for bands
    k >= 1 without their divisor, and >= 2/|m|^(tau/3) on the slow divisible
    bands; the unified exponent tau/3 (or 1 in the flat split) makes one
    closed form per decay class.
    """
    if decay.kind == "finite":
        return 0.0
    if cut < 1:
        raise ValueError("tail bound needs a positive support radius")
    power = 1.0 if theorem2_tau is None else _float_tau(theorem2_tau) / 3.0
    if decay.kind == "smooth":
        s = decay.param - power  # sum m^(power - tau) <= cut^(1 - s)/(s - 1)
        if s <= 1.0:
            raise ValueError("decay too weak against tau/3 divisors")
        return 2.0 * const * float(cut) ** (1.0 - s) / (s - 1.0)
    x = exp(-decay.param)
    if theorem2_tau is None:  # sum_{m > cut} m x^m in closed form
        return 2.0 * const * (x ** (cut + 1) * ((cut + 1) - cut * x) / (1.0 - x) ** 2)
    # analytic decay against m^(tau/3) divisors: numeric sum, geometric from
    # far enough out; remainder bounded by a geometric comparison.  A sum
    # past the float range (a large tau: 25^(1000/3) already is) bounds
    # nothing and is refused
    total = 0.0
    m = cut + 1
    try:
        while total < inf:
            term = float(m) ** power * x**m
            total += term
            m += 1
            ratio = x * (1.0 + 1.0 / (m - 1)) ** power
            if ratio < 1.0 and term * ratio / (1.0 - ratio) < total * 1e-18 + 1e-300:
                total += term * ratio / (1.0 - ratio)
                break
            if m > cut + 10**6:
                raise ValueError("analytic tail refuses to settle; eta too small")
    except OverflowError:
        total = inf
    if total == inf:
        raise ValueError(
            f"the analytic tail against tau/3 divisors passes the float range (tau = {theorem2_tau})"
        )
    return 2.0 * const * total


def _tail_uncovered_extra(
    angle: AngleCF, decay: Decay, const: float, cut: int, theorem2_tau
) -> float:
    """Exact-divisor contributions for divisible m in (cut, q_2).

    Below q_2 the generic lower bounds fail on the divisible frequencies
    (their band index is 0 or 1), so each one is added with its true divisor
    instead; there are at most q_2 of them.
    """
    if decay.kind == "finite":
        return 0.0
    q1, q2 = angle.q(1), angle.q(2)
    if cut + 1 >= q2:
        return 0.0
    if q2 - cut > TAIL_ENUM_LIMIT:
        raise ValueError(
            "too many sub-q_2 frequencies to enumerate; store a larger cut"
        )
    extra = 0.0
    for m in range(cut + 1, q2):
        band_q = q1 if m >= q1 else 1
        if m % band_q:
            continue
        if theorem2_tau is not None:
            if classify_tau(m, angle, theorem2_tau).theorem2_class != "M2":
                continue
        div = abs(small_divisor(m, angle))
        extra += 4.0 * const * decay.weight(m) / div
    return extra


def solve_coboundary(
    h_nonres: FourierSeries, angle: AngleCF, tau=None
) -> CoboundaryFunction:
    """Divide each coefficient by its exact small divisor e(m alpha) - 1.

    With tau = None the input must avoid the resonant set (divisible bands
    k >= 2); with tau given it must avoid the fast divisible bands (class M1)
    and the error bound switches to the slow-band divisor estimates.  The
    bound is _tail_closed_form plus _tail_uncovered_extra, each 0.0 for a
    finite series.
    """
    coeffs: Dict[int, complex] = {}
    for m, c in h_nonres.items():
        if m == 0:
            raise CoboundaryDomainError(
                "mean term present: e(0) - 1 vanishes, split the mean off first"
            )
        if tau is None:
            if classify(m, angle).resonant:
                raise CoboundaryDomainError(f"m = {m} lies in a resonant band")
        else:
            if classify_tau(m, angle, tau).theorem2_class == "M1":
                raise CoboundaryDomainError(f"m = {m} lies in a fast divisible band")
        divisor = small_divisor(m, angle)
        if divisor == 0:
            raise CoboundaryDomainError(f"m = {m} annihilates the snapshot")
        coeffs[m] = c / divisor
    cut = h_nonres.support_radius()
    bound = _tail_closed_form(
        h_nonres.decay, h_nonres.decay_const, cut, tau
    ) + _tail_uncovered_extra(angle, h_nonres.decay, h_nonres.decay_const, cut, tau)
    g = FourierSeries(coeffs, FINITE, 0.0)
    source = {
        "angle": angle_digest(angle),
        "decay": h_nonres.decay.kind,
        "support": len(h_nonres),
        "mode": "flat-split" if tau is None else f"tau-split:{tau}",
    }
    return CoboundaryFunction(g, source, bound)


@dataclass(frozen=True)
class CoboundaryCertificate(Certificate):
    """Sampled check of the coboundary identity g(t + alpha) - g(t) = h2(t).

    The points are the first samples draws of Random(seed).random(), in
    [0, 1).  worst_defect is the largest |g(t + alpha) - g(t) - h2(t)| among
    them (nan, and a failure, if any defect is nan); budget is g's
    identity_error_bound plus 1e-12 of float slack; psi_support counts the
    coefficients of g.
    """

    claim = "|g(t+alpha) - g(t) - h2(t)| <= budget on sampled t"

    samples: int
    seed: int
    worst_defect: float
    budget: float
    psi_support: int
    passed: bool


def check_coboundary(
    psi: CoboundaryFunction, rhs: FourierSeries, angle: AngleCF, samples: int, seed: int
) -> CoboundaryCertificate:
    """Certify g(t + alpha) - g(t) = rhs(t) up to the budget on sampled t.

    The samples are drawn in blocks of max(1, DEFECT_BLOCK // K) points for
    K positive modes, and each block's defects come from one psi.defect
    call on its phase tables at the angle, so memory stays O(DEFECT_BLOCK)
    whatever samples is.  Every defect is bit for bit the one-point defect
    at the same t.  samples < 1 is refused with ValueError, and
    samples x K past DEFECT_WORK_LIMIT with ResourceBudgetError, before the
    first block.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    modes = max(len(psi.series.fold.modes), len(rhs.fold.modes), 1)
    if samples * modes > DEFECT_WORK_LIMIT:
        raise ResourceBudgetError(
            f"{samples} samples x {modes} modes is past the {DEFECT_WORK_LIMIT} "
            f"cap on the coboundary check's work; use fewer samples"
        )
    rows = max(1, DEFECT_BLOCK // modes)
    rng = Random(seed)
    worst = 0.0
    for start in range(0, samples, rows):
        ts = np.array([rng.random() for _ in range(min(rows, samples - start))])
        worst = float(np.max(psi.defect(ts, rhs, angle), initial=worst))
    budget = psi.identity_error_bound + 1e-12
    return CoboundaryCertificate(
        samples, seed, worst, budget, len(psi.series), worst <= budget
    )


# ---------------------------------------------------------------------------
# coefficient decay certificate for composed exponentials


@dataclass(frozen=True)
class CoeffBoundCertificate(Certificate):
    """Grid check of |c(m)| m^2 <= 8 (sup|f'|^2 + sup|f''|) for F = e(f).

    The 8 is audited slack over the integration-by-parts constant; the grid
    is fine enough that aliasing for the analytic integrands in scope sits
    below the stated noise floor.  worst_m and worst_lhs are the frequency
    with the largest |c(m)| m^2 and that value; rhs is the bound built from
    the grid sup-norms deriv_norm (sup|f'|) and second_norm (sup|f''|).
    """

    claim = "|c(m)| m^2 <= 8 (sup|f'|^2 + sup|f''|) for F = e(f)"

    m_limit: int
    grid: int
    passed: bool
    worst_m: int
    worst_lhs: float
    rhs: float
    deriv_norm: float
    second_norm: float
    noise_floor: float


def check_coeff_bound(f: FourierSeries, m_limit: int) -> CoeffBoundCertificate:
    """Certify the quadratic coefficient decay of e(f) on a 4096-point grid.

    f, f' and f'' are built from f's fold, so they are real.  Coefficients of
    F come from one FFT; the derivative sup-norms are grid maxima of the
    termwise derivatives.  Frequencies past half the grid alias and are
    refused.
    """
    if m_limit < 1:
        raise ValueError("m_limit must be >= 1")
    if m_limit > COEFF_GRID // 2 - 1:
        raise ValueError(
            f"m_limit {m_limit} aliases on a {COEFF_GRID}-point grid; keep it below "
            f"{COEFF_GRID // 2}"
        )
    ts = np.arange(COEFF_GRID) / COEFF_GRID
    modes, fold, mean = f.fold
    f_vals = np.full(COEFF_GRID, mean)
    d1, d2 = np.zeros((2, COEFF_GRID))
    for m, c in zip(modes, fold):
        w = 2j * pi * m
        wave = c * np.exp(w * ts)
        f_vals += wave.real
        d1 += (w * wave).real
        d2 += (w * w * wave).real
    coeffs = np.fft.fft(np.exp(2j * pi * f_vals)) / COEFF_GRID
    n1 = float(np.abs(d1).max())
    n2 = float(np.abs(d2).max())
    rhs = 8.0 * (n1 * n1 + n2)
    noise = 1e-6
    passed = True
    worst_m = 0
    worst_lhs = 0.0
    for m in range(1, m_limit + 1):
        for sgn in (m, -m):
            lhs = abs(coeffs[sgn % COEFF_GRID]) * m * m
            if lhs > worst_lhs:
                worst_lhs, worst_m = lhs, sgn
            if lhs > rhs + noise:
                passed = False
    return CoeffBoundCertificate(
        m_limit, COEFF_GRID, passed, worst_m, worst_lhs, rhs, n1, n2, noise
    )
