"""Mobius-weighted correlation sums along skew-product orbits.

The headline quantity is S = sum of mu(n) e(<b, T^n x>) over a short segment
(N - M, N].  The constant phase <b, x> is taken out of every term and applied
once, S = e(<b, x> mod 1) * sum of mu(n) e(phase(n)), and phase(n) is
assembled algebraically instead of materializing orbits: h is read through
its fold (harmonic.FourierSeries.fold), so each positive frequency m of h
carries the modes +-m at once through F_m = c(m) + conj c(-m), and
contributes through the closed geometric kernel, whose weights over the
active coordinates fold into one complex number per frequency; the base term
b_1 n alpha and every e(m n alpha) come from the exact phase engine
contfrac.phase_turns, which rounds each phase as the snapshot does but
reduces it against the convergent contfrac.reducing_convergent picks
(q_3 = 8102 for the exp-type angle, so in int64); and the mean of h (plus any
frequency the snapshot makes resonant) becomes a drift slope, reduced mod 1
in extended precision and stepped exactly as a dyadic rational.
Off the fix-ups every one of those phases is a function of n mod q_k, so
when there is no drift and contfrac.class_modulus, the one class rule, holds
for b_1 and every weighted mode, it gives (q_k, d): one q_k for all, not the
snapshot, q_k < M and q_k <= BLOCK_STEPS, and d > 1 the gcd of the modes'
fix-up divisors, so every fix-up is a multiple of d (q_3 = 8102 on exp k4,
d = 4051).  moebius.mu_class_sum then sums the mu-histogram H(r) over the
classes against one phase per class, read by the same closure, and the
multiples of d term by term.  Otherwise (a drift row, M <= q_k, d = 1,
poly tau=4, an exact angle) moebius.mu_phase_sum evaluates the phases over
fixed-size chunks of the nonzero-mu indices.  Both add with math.fsum, so every record
is reproducible bit for bit.  The one route covers b = 0 (the Mertens
difference) and h = 0 (the twisted rotation sum) exactly, with no shortcut
for either.

Everything but the mu-table depends on (cfg, b, x) alone, so it is built
once, as a plan (_plan): b_1, e(<b, x>), the kernel weights, their constant
part and the drift.  correlation_sum builds one per call and sweep one for
all its rows; nothing keeps a plan past the call.  A non-resonant amplitude
is a float sum of e(m u_nu) from contfrac.cis_ratio, the rule orbit_fast
uses; mp is left only where a slope is reduced mod 1 (the mean, the
resonant modes and _drift).

For a rational angle l/q, rational_case gives an independent route on the
same fiber bases: h cycles with period q, so each residue class mod q
carries a constant phase (the exact prefix of h over the cycle, read per
positive frequency as above, with every amplitude at 50 digits and no small
divisor) plus a multiple of the full-cycle slope.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from hashlib import sha256
from math import ceil, log
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from mpmath import mp

from .contfrac import (
    TWO_PI,
    ResourceBudgetError,
    cis,
    cis_ratio,
    class_modulus,
    dyadic_angle,
    mp_cis,
    phase_turns,
    small_divisor,
)
from .flow import (
    DIRECT_STEP_LIMIT,
    FlowConfig,
    FrequencyVector,
    TorusPoint,
    _check_point,
    _coord_bases,
    _seed_of,
    birkhoff_avg,
)
from .moebius import MuTable, mu_class_sum, mu_phase_sum, sieve_segment
# not called here since the kernel route covers h = 0, but the benchmark's
# tracer (perfbench/tracing.py) wraps experiments.twisted_sum by name
from .moebius import twisted_sum  # noqa: F401

CSV_HEADER = "N,M,theta,b,re_S,im_S,norm,runtime_ms"
THETA_FLOOR = 0.625  # short intervals below N^(5/8) are outside the window
PREFIX_TERM_LIMIT = 10**6  # rational_case prefix terms, about 15 us each


@dataclass(frozen=True)
class CorrelationRecord:
    n_top: int
    length: int
    theta: float
    b: FrequencyVector
    x: TorusPoint
    value: complex
    runtime_ms: float

    @property
    def normalized(self) -> float:
        return abs(self.value) / self.length

    @property
    def in_window(self) -> bool:
        return THETA_FLOOR < self.theta <= 1.0

    def csv_row(self) -> str:
        return (
            f"{self.n_top},{self.length},{self.theta!r},{self.b.label()},"
            f"{self.value.real!r},{self.value.imag!r},"
            f"{self.normalized!r},{self.runtime_ms!r}"
        )


def records_to_csv(records: Iterable[CorrelationRecord]) -> str:
    lines = [CSV_HEADER]
    lines.extend(rec.csv_row() for rec in records)
    return "\n".join(lines) + "\n"


def records_digest(records: Iterable[CorrelationRecord]) -> str:
    """Reproducibility hash over everything except wall-clock noise."""
    h = sha256()
    for rec in records:
        h.update(
            (
                f"{rec.n_top},{rec.length},{rec.theta!r},{rec.b.label()},"
                f"{','.join(repr(c) for c in rec.x.coords)},"
                f"{rec.value.real!r},{rec.value.imag!r}\n"
            ).encode()
        )
    return h.hexdigest()[:16]


def _theta_of(n_top: int, length: int) -> float:
    if n_top <= 1:
        return 1.0
    return log(length) / log(n_top)


def _drift(slope) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """k -> {k * slope} for an mp slope, or None when the slope is an integer.

    The slope is reduced mod 1 in extended precision; its float head is
    stepped exactly as a dyadic rational and the tail it leaves is added as
    k * tail, so one ulp of the slope never gets multiplied by k.
    """
    with mp.workdps(50):
        slope = mp.frac(slope)
        hi = float(slope)
        lo = float(slope - hi)
    if hi == 0.0 and lo == 0.0:
        return None
    head = dyadic_angle(hi)
    return lambda ks: phase_turns(head, 1, ks) + ks * lo


def _record(b, x, n_top, length, theta, value, t0) -> CorrelationRecord:
    return CorrelationRecord(
        n_top=n_top,
        length=length,
        theta=theta,
        b=b,
        x=x,
        value=value,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
    )


def _setup(cfg, b, x):
    """What the plan and rational_case share, all fixed by (cfg, b, x): the
    guards on x and b, b_1, the unit factor e(<b, x>), and (b_nu, num_nu) for
    the fiber coordinates b touches, with the common denominator den of
    their arguments u_nu = num_nu / den (none, and den 0, if b touches no
    fiber).  The bases come from flow._coord_bases, range-checked for the
    largest positive mode of h."""
    _check_point(cfg, x, b)
    b1 = b.entries[0] if b.entries else 0
    const = sum(bv * xv for bv, xv in zip(b.entries, x.coords) if bv != 0)
    # (nu, b_nu) for the fiber coordinates the pairing vector touches
    active = [(nu, bv) for nu, bv in enumerate(b.entries[1 : cfg.v], start=2) if bv != 0]
    fibers, den = [], 0
    if active:
        nums, den = _coord_bases(cfg, *_seed_of(cfg, x), max(cfg.h.fold.modes, default=0))
        fibers = [(bv, nums[nu - 2]) for nu, bv in active]
    return b1, cis(const % 1.0), fibers, den


def _mp_amplitude(m, f, fibers, den):
    """A_m = F_m sum_nu b_nu e(m u_nu) at the mp precision: the pairing of the
    modes +-m k steps later is Re(A_m e(m k alpha))."""
    return f * sum(bv * mp_cis(m * num, den) for bv, num in fibers)


def _segment(n_top, length, table) -> Tuple[MuTable, int]:
    """The segment's guard, its table (sieved unless one is given) and n_lo."""
    if not 1 <= length <= n_top:
        raise ValueError("need 1 <= length <= n_top")
    if table is None:
        table = sieve_segment(n_top, length)
    return table, n_top - length + 1


@dataclass(frozen=True)
class _Plan:
    """Everything of S that (cfg, b, x) fix, built once by _plan.

    b1 and turn = e(<b, x> mod 1) come from _setup; weights holds one kernel
    weight W_m = A_m / (e(m alpha) - 1) per non-resonant positive mode, and
    base_phase = -sum Re W_m.  Past turn the pairing phase at n is
    b_1 n alpha + base_phase + sum Re(W_m e(m n alpha)) + drift(n), with
    drift None when its slope is an integer.  A plan lives for one
    correlation_sum or one sweep; nothing caches it across calls.
    """

    cfg: FlowConfig
    b: FrequencyVector
    x: TorusPoint
    b1: int
    turn: complex
    weights: Tuple[Tuple[int, complex], ...]
    base_phase: float
    drift: Optional[Callable[[np.ndarray], np.ndarray]]

    def phases(self, ns: np.ndarray) -> np.ndarray:
        phase = np.full(len(ns), self.base_phase)
        if self.b1 != 0:
            phase += phase_turns(self.cfg.alpha, self.b1, ns)
        if self.drift:
            phase += self.drift(ns)
        for m, w in self.weights:
            ang = TWO_PI * phase_turns(self.cfg.alpha, m, ns)
            phase += w.real * np.cos(ang) - w.imag * np.sin(ang)
        return phase

    def record(self, n_top, length, table=None, theta=None, t0=None) -> CorrelationRecord:
        """The segment (n_top - length, n_top] summed on the class route
        when the class rule holds and there is no drift, else per term."""
        t0 = time.perf_counter() if t0 is None else t0
        table, n_lo = _segment(n_top, length, table)
        theta = _theta_of(n_top, length) if theta is None else float(theta)
        mults = ([self.b1] if self.b1 else []) + [m for m, _ in self.weights]
        rule = None if self.drift else class_modulus(self.cfg.alpha, mults, n_top, length)
        if rule:
            value = self.turn * mu_class_sum(table, n_lo, n_top, *rule, self.phases)
        else:
            value = self.turn * mu_phase_sum(table, n_lo, n_top, 1, self.phases)
        return _record(self.b, self.x, n_top, length, theta, value, t0)


def _plan(cfg: FlowConfig, b: FrequencyVector, x: TorusPoint) -> _Plan:
    """The plan of S for (cfg, b, x), amplitudes in floats where they can be.

    A non-resonant mode's amplitude A_m = F_m sum_nu b_nu e(m u_nu) is a
    float sum, each e(m u_nu) from contfrac.cis_ratio as orbit_fast reads it,
    and W_m = A_m / small_divisor(m, alpha).  mp is kept where a slope is
    reduced mod 1: the mean's share c(0) sum_nu b_nu per step and the
    amplitude of each mode the snapshot makes resonant (small_divisor 0),
    both summed at 50 digits into the drift's slope, which _drift reduces.
    """
    b1, turn, fibers, den = _setup(cfg, b, x)
    weights: List[Tuple[int, complex]] = []
    base_phase = 0.0
    with mp.workdps(50):
        slope = mp.mpf(0)  # the mean's n identical terms per step are a drift
        if fibers:
            modes, fold, c0 = cfg.h.fold
            slope = mp.mpf(c0) * sum(bv for bv, _ in fibers)
            for m, f in zip(modes, fold):
                zden = small_divisor(m, cfg.alpha)
                if zden == 0:
                    # the snapshot makes e(m alpha) = 1: a drift as well
                    slope += mp.re(_mp_amplitude(m, f, fibers, den))
                    continue
                w = f * sum(bv * cis_ratio(m * num, den) for bv, num in fibers) / zden
                weights.append((m, w))
                base_phase -= w.real
    return _Plan(cfg, b, x, b1, turn, tuple(weights), base_phase, _drift(slope))


def correlation_sum(
    cfg: FlowConfig,
    b: FrequencyVector,
    x: TorusPoint,
    n_top: int,
    length: int,
    *,
    table: Optional[MuTable] = None,
) -> CorrelationRecord:
    """S = sum of mu(n) e(<b, T^n x>) for n in (n_top - length, n_top].

    One route for every b and h, through one plan built for this call
    (_plan): the constant phase <b, x> is taken out of the sum and applied
    once as e(<b, x> mod 1), and the rest runs the kernel expansion over h's
    positive frequencies, with float amplitudes for the non-resonant ones,
    one phase_turns call per positive non-resonant frequency and batch of
    phases (plus one for b_1 and one for the drift, when there is one), read
    through h's fold.  The batches are the class table and the chunks of
    the multiples of d when the class rule holds and there is no drift, else
    the table's chunks.  So the zero vector gives the exact Mertens difference, and a
    driving series without coefficients gives e(<b, x>) times the twisted
    rotation sum, bit for bit.
    """
    t0 = time.perf_counter()
    return _plan(cfg, b, x).record(n_top, length, table, t0=t0)


def sweep_segments(theta: float, n_list: Sequence[int]) -> List[Tuple[int, int]]:
    """(N, M) with M = ceil(N^theta) for each N of a strictly ascending list."""
    if theta <= THETA_FLOOR:
        warnings.warn(
            f"theta = {theta} is at or below the 5/8 window floor; "
            "running anyway",
            RuntimeWarning,
            stacklevel=3,
        )
    if list(n_list) != sorted(set(int(n) for n in n_list)):
        raise ValueError("n_list must be strictly ascending")
    if n_list and n_list[0] < 1:
        raise ValueError(f"every N must be at least 1, got {n_list[0]}")
    return [(n_top, min(int(n_top), ceil(n_top**theta))) for n_top in n_list]


def sweep(
    cfg: FlowConfig,
    b: FrequencyVector,
    x: TorusPoint,
    theta: float,
    n_list: Sequence[int],
) -> List[CorrelationRecord]:
    """One record per N with M = ceil(N^theta), every row read through one
    plan, built once for (cfg, b, x) after the segments are checked."""
    segments = sweep_segments(theta, n_list)
    plan = _plan(cfg, b, x)
    return [plan.record(n_top, length, theta=theta) for n_top, length in segments]


def check_prefix_budget(cfg: FlowConfig) -> None:
    """Refuse a rational angle whose closed form would sum too many terms.

    rational_case's prefix sums K + 1 terms to 50 digits at each of the q
    cycle points (K positive modes of h, about 15 us a term), so a q (K + 1)
    past PREFIX_TERM_LIMIT = 10^6 (about 15 s) raises ResourceBudgetError.
    It depends on cfg alone, so a sweep checks it once, before it sieves.
    """
    q = cfg.alpha.snapshot[1]
    terms = q * (len(cfg.h.fold.modes) + 1)
    if terms > PREFIX_TERM_LIMIT:
        raise ResourceBudgetError(
            f"rational_case sums {terms} prefix terms over q = {q} cycle points, "
            f"past the {PREFIX_TERM_LIMIT} cap"
        )


def rational_case(
    cfg: FlowConfig,
    b: FrequencyVector,
    x: TorusPoint,
    n_top: int,
    length: int,
    *,
    table: Optional[MuTable] = None,
) -> CorrelationRecord:
    """Correlation over a rational angle via the residue-class closed form.

    For alpha = l/q the h argument cycles with period q, so the orbit sum up
    to n = r + k q splits into the prefix of the cycle below r plus k whole
    cycles: each residue class r mod q carries a constant phase plus an
    arithmetic progression in k.  It shares _setup (guards, b_1, e(<b, x>),
    fiber bases) with correlation_sum but no plan: its amplitudes are its
    own, at 50 digits, and it reads no kernel weight or small divisor, so
    the CLI's 1e-9 cross-check compares two independent routes.  table, when
    given, must cover the segment (n_top - length, n_top], as for
    correlation_sum; otherwise it is sieved.  check_prefix_budget runs
    first, before anything is sieved or allocated.
    """
    if not cfg.alpha.exact:
        raise ValueError("rational_case needs an angle with an exact snapshot")
    check_prefix_budget(cfg)
    l, q = cfg.alpha.snapshot
    t0 = time.perf_counter()
    b1, turn, fibers, den = _setup(cfg, b, x)
    table, n_lo = _segment(n_top, length, table)

    # the pairing of h summed over the first r cycle points (the class
    # prefix) and over the whole cycle (the slope per period), both to 50
    # digits and reduced mod 1 before they become floats.  At cycle point j
    # the pairing is mean + Re sum_m A_m e(m l/q)^j over the positive modes
    # m, with every A_m at 50 digits: this route computes no float amplitude
    # and no small divisor, so it stays independent of correlation_sum's
    prefix = np.zeros(q)
    with mp.workdps(50):
        slope = mp.mpf(0)
        modes, fold, c0 = cfg.h.fold
        mean = mp.mpf(c0) * sum(bv for bv, _ in fibers)
        terms = [
            (_mp_amplitude(m, f, fibers, den), mp.expjpi(2 * mp.mpf((m * l) % q) / q))
            for m, f in zip(modes, fold)
        ] if fibers else []
        if terms or mean:
            for j in range(q):
                prefix[j] = float(mp.frac(slope))
                slope += mean + sum(mp.re(a) for a, _ in terms)
                terms = [(a * z, z) for a, z in terms]
    drift = _drift(slope)

    def phases(ns: np.ndarray) -> np.ndarray:
        # n = r + k q: the class prefix, b1 {n alpha}, and k whole cycles
        phase = prefix[ns % q]
        if b1 != 0:
            phase += phase_turns(cfg.alpha, b1, ns)
        if drift:
            phase += drift(ns // q)
        return phase

    value = turn * mu_phase_sum(table, n_lo, n_top, 1, phases)
    return _record(b, x, n_top, length, _theta_of(n_top, length), value, t0)


@dataclass(frozen=True)
class IrregularityTable:
    rows: Tuple[Tuple[str, int, complex], ...]
    spread: float

    def to_json(self) -> dict:
        return {
            "rows": [
                {"label": lab, "n": n, "re": v.real, "im": v.imag, "abs": abs(v)}
                for lab, n, v in self.rows
            ],
            "spread": self.spread,
        }


def irregularity_demo(
    cfg: FlowConfig,
    x: TorusPoint,
    k_range: Iterable[int] = (1, 2, 3),
    dyadic: Iterable[int] = tuple(2**j for j in range(7, 14)),
) -> IrregularityTable:
    """Birkhoff averages of e(x_2) at denominator times and dyadic times.

    Averages along the denominator subsequence hug different limit points
    than generic times; the table records the raw values and the spread of
    the moduli over the denominator rows.  Nothing is asserted beyond shape:
    the interesting behaviour is asymptotic and desk scale only sketches it.
    """
    if cfg.alpha.kind != "exp-type":
        raise ValueError("the demonstration needs an exp-type angle")
    b = FrequencyVector.unit(2, cfg.v)
    rows = []
    moduli = []
    for k in sorted(set(int(k) for k in k_range)):
        n = cfg.alpha.q(k)
        if n > DIRECT_STEP_LIMIT:
            raise ValueError(f"q_{k} = {n} is past desk scale; stop at a smaller k")
        avg = birkhoff_avg(cfg, b, x, n)
        rows.append((f"q_{k}", n, avg))
        moduli.append(abs(avg))
    for n in sorted(set(int(n) for n in dyadic)):
        rows.append((f"2^{n.bit_length() - 1}", n, birkhoff_avg(cfg, b, x, n)))
    spread = max(moduli) - min(moduli) if moduli else 0.0
    return IrregularityTable(rows=tuple(rows), spread=spread)
