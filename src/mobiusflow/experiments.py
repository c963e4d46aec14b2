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
d = 4051).  Every row is one call of moebius.mu_phase_sum, the one summer,
with that answer: given (q_k, d) it sums the mu-histogram H(r) over the
classes against one phase per class, read by the same closure, and the
multiples of d term by term; without it (a drift row, M <= q_k, d = 1,
poly tau=4, an exact angle) it evaluates the phases over fixed-size chunks
of the nonzero-mu indices.  It adds with math.fsum, so every record is
reproducible bit for bit.  The one route covers b = 0 (the Mertens
difference) and h = 0 (the twisted rotation sum) exactly, with no shortcut
for either.

Everything but the mu-table depends on (cfg, b, x) alone, so it is built
once, as a plan (_Plan): b, x, e(<b, x>), a phases closure and the
multipliers the class rule reads.  _Plan.record is the one row path: it
guards the segment, sieves it unless a table is given, asks class_modulus
and makes the one mu_phase_sum call.  _plan builds the kernel's plan: b_1,
the kernel weights, their constant part and the drift.  A non-resonant
amplitude is a float sum of e(m u_nu) from contfrac.cis_ratio, the rule
orbit_fast uses; mp is left only where a slope is reduced mod 1 (the mean,
the resonant modes and _drift).  correlation_sum builds one plan per call
and sweep one for all its rows, on every theta of its list; nothing keeps
a plan past the call.

For a rational angle l/q, _closed_form builds an independent plan on the
same fiber bases: h cycles with period q, so each residue class mod q
carries a constant phase (the exact prefix of h over the cycle, read per
positive frequency as above, with every amplitude at 50 digits and no small
divisor) plus a multiple of the full-cycle slope.  Its multipliers are (),
so its rows run per term.  rational_case reads one row of it, and
rational_sweep reads both plans, each built once, on one sieved segment
per row.
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
    AngleCF,
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
from .moebius import MuTable, mu_phase_sum, sieve_segment
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
    """Reproducibility hash over everything except wall-clock noise.

    A point's coordinates enter as TorusPoint.serialized, which the point
    builds once: a sweep's rows share one point, and with V coordinates a
    per-row serialization is O(rows V) work."""
    h = sha256()
    for rec in records:
        h.update(f"{rec.n_top},{rec.length},{rec.theta!r},{rec.b.label()},".encode())
        h.update(rec.x.serialized)
        h.update(f",{rec.value.real!r},{rec.value.imag!r}\n".encode())
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


def _setup(cfg, b, x):
    """What _plan and _closed_form share, all fixed by (cfg, b, x): the
    guards on x and b, b_1, the unit factor e(<b, x>), and (b_nu, num_nu) for
    the fiber coordinates b touches, with the common denominator den of
    their arguments u_nu = num_nu / den (none, and den 0, if b touches no
    fiber).  flow._coord_bases builds those bases alone, not all V - 1,
    range-checked for the largest positive mode of h."""
    _check_point(cfg, x, b)
    b1 = b.entries[0]
    const = sum(bv * xv for bv, xv in zip(b.entries, x.coords) if bv != 0)
    # (nu, b_nu) for the fiber coordinates the pairing vector touches
    active = [(nu, bv) for nu, bv in enumerate(b.entries[1 : cfg.v], start=2) if bv != 0]
    fibers, den = [], 0
    if active:
        top = max(cfg.h.fold.modes, default=0)
        nums, den = _coord_bases(cfg, *_seed_of(cfg, x), top, [nu for nu, _ in active])
        fibers = [(bv, num) for (_, bv), num in zip(active, nums)]
    return b1, cis(const % 1.0), fibers, den


def _mp_amplitude(m, f, fibers, den):
    """A_m = F_m sum_nu b_nu e(m u_nu) at the mp precision: the pairing of the
    modes +-m k steps later is Re(A_m e(m k alpha))."""
    return f * sum(bv * mp_cis(m * num, den) for bv, num in fibers)


@dataclass(frozen=True)
class _Plan:
    """Everything of S that (cfg, b, x) fix: the one row path of both routes.

    turn = e(<b, x> mod 1) is taken out of every term, and phases maps an
    ascending int64 array of indices n to the rest of the pairing phase in
    turns.  mults are the multipliers of alpha in phases, which the class
    rule reads; they are () for a drift row and for the closed form, whose
    rows then run per term.  _plan builds the kernel's plan and _closed_form
    the rational closed form's.  A plan lives for one correlation_sum,
    rational_case, sweep or rational_sweep call; nothing caches it across
    calls.
    """

    alpha: AngleCF
    b: FrequencyVector
    x: TorusPoint
    turn: complex
    phases: Callable[[np.ndarray], np.ndarray]
    mults: Tuple[int, ...]

    def record(self, n_top, length, table=None, theta=None) -> CorrelationRecord:
        """The segment (n_top - length, n_top] summed by mu_phase_sum with
        the class rule's answer for mults.  table, when given, must cover
        the segment; otherwise it is sieved.  theta defaults to
        log M / log N, and runtime_ms times the row, not the plan."""
        t0 = time.perf_counter()
        if not 1 <= length <= n_top:
            raise ValueError("need 1 <= length <= n_top")
        if table is None:
            table = sieve_segment(n_top, length)
        theta = _theta_of(n_top, length) if theta is None else float(theta)
        rule = class_modulus(self.alpha, self.mults, n_top, length)
        value = self.turn * mu_phase_sum(table, n_top - length + 1, n_top, 1, self.phases, rule)
        runtime_ms = (time.perf_counter() - t0) * 1e3
        return CorrelationRecord(n_top, length, theta, self.b, self.x, value, runtime_ms)


def _weights(cfg: FlowConfig, fibers, den):
    """The kernel weights and the drift, amplitudes in floats where they can be.

    One weight W_m = A_m / small_divisor(m, alpha) per non-resonant positive
    mode, its amplitude A_m = F_m sum_nu b_nu e(m u_nu) a float sum, each
    e(m u_nu) from contfrac.cis_ratio as orbit_fast reads it.  mp is kept
    where a slope is reduced mod 1: the mean's share c(0) sum_nu b_nu per
    step and the amplitude of each mode the snapshot makes resonant
    (small_divisor 0), both summed at 50 digits into the drift's slope,
    which _drift reduces.
    """
    weights: List[Tuple[int, complex]] = []
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
    return weights, _drift(slope)


def _plan(cfg: FlowConfig, b: FrequencyVector, x: TorusPoint) -> _Plan:
    """The kernel's plan of S for (cfg, b, x).

    Past turn, the pairing phase at n is b_1 n alpha + base_phase +
    sum Re(W_m e(m n alpha)) + drift(n) over the weights of _weights, with
    base_phase = -sum Re W_m and drift None when its slope is an integer.
    With no drift the class rule reads b_1 (when nonzero) and every
    weighted mode.
    """
    b1, turn, fibers, den = _setup(cfg, b, x)
    weights, drift = _weights(cfg, fibers, den)
    base_phase = 0.0
    for _, w in weights:
        base_phase -= w.real

    def phases(ns: np.ndarray) -> np.ndarray:
        phase = np.full(len(ns), base_phase)
        if b1 != 0:
            phase += phase_turns(cfg.alpha, b1, ns)
        if drift:
            phase += drift(ns)
        for m, w in weights:
            ang = TWO_PI * phase_turns(cfg.alpha, m, ns)
            phase += w.real * np.cos(ang) - w.imag * np.sin(ang)
        return phase

    mults = () if drift else ((b1,) if b1 else ()) + tuple(m for m, _ in weights)
    return _Plan(cfg.alpha, b, x, turn, phases, mults)


def _closed_form(cfg: FlowConfig, b: FrequencyVector, x: TorusPoint) -> _Plan:
    """The residue-class plan of S for a rational angle l/q.

    An angle without an exact snapshot is refused.  The class prefix sums
    K + 1 terms to 50 digits at each of the q cycle points (K positive modes
    of h, about 15 us a term), so a q (K + 1) past PREFIX_TERM_LIMIT = 10^6
    (about 15 s) raises ResourceBudgetError, before anything is built,
    sieved or allocated.
    """
    if not cfg.alpha.exact:
        raise ValueError("rational_case needs an angle with an exact snapshot")
    l, q = cfg.alpha.snapshot
    cost = q * (len(cfg.h.fold.modes) + 1)
    if cost > PREFIX_TERM_LIMIT:
        raise ResourceBudgetError(
            f"rational_case sums {cost} prefix terms over q = {q} cycle points, "
            f"past the {PREFIX_TERM_LIMIT} cap"
        )
    b1, turn, fibers, den = _setup(cfg, b, x)

    # the pairing of h summed over the first r cycle points (the class
    # prefix) and over the whole cycle (the slope per period), both to 50
    # digits and reduced mod 1 before they become floats.  At cycle point j
    # the pairing is mean + Re sum_m A_m e(m l/q)^j over the positive modes
    # m, with every A_m at 50 digits: this route computes no float amplitude
    # and no small divisor, so it stays independent of the kernel's
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

    return _Plan(cfg.alpha, b, x, turn, phases, ())


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
    return _plan(cfg, b, x).record(n_top, length, table)


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
    thetas: Sequence[float],
    n_list: Sequence[int],
) -> List[List[CorrelationRecord]]:
    """One list of records per theta of thetas, one record per N with
    M = ceil(N^theta).  The plan does not depend on theta, so every row is
    read through one plan, built once for (cfg, b, x) after every theta's
    segments are checked."""
    per_theta = []
    for theta in thetas:  # a loop, so a window warning names the caller's line
        per_theta.append((theta, sweep_segments(theta, n_list)))
    plan = _plan(cfg, b, x)
    return [
        [plan.record(n_top, length, theta=theta) for n_top, length in segments]
        for theta, segments in per_theta
    ]


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
    arithmetic progression in k.  Its plan (_closed_form) shares _setup
    (guards, b_1, e(<b, x>), fiber bases) and _Plan.record with
    correlation_sum, but its amplitudes are its own, at 50 digits, and it
    reads no kernel weight or small divisor, so the CLI's 1e-9 cross-check
    compares two independent routes.  table, when given, must cover the
    segment (n_top - length, n_top], as for correlation_sum; otherwise it is
    sieved.  The prefix cap is checked first, before anything is sieved or
    allocated.
    """
    return _closed_form(cfg, b, x).record(n_top, length, table)


def rational_sweep(
    cfg: FlowConfig,
    b: FrequencyVector,
    x: TorusPoint,
    thetas: Sequence[float],
    n_list: Sequence[int],
) -> List[List[Tuple[CorrelationRecord, complex]]]:
    """Both routes of a rational angle over the rows of sweep(cfg, b, x,
    thetas, n_list), one list per theta of thetas: per row, the closed form's
    record at that theta and the kernel's S on the same sieved segment, for
    the CLI to compare.  Neither plan depends on theta, so each is built
    once per call, the closed form's first, after every theta's segments
    are checked, so its prefix cap is checked before any segment is sieved."""
    per_theta = []
    for theta in thetas:  # a loop, so a window warning names the caller's line
        per_theta.append((theta, sweep_segments(theta, n_list)))
    closed, kernel = _closed_form(cfg, b, x), _plan(cfg, b, x)

    def row(theta, n_top, length):
        table = sieve_segment(n_top, length)
        rec = closed.record(n_top, length, table, theta)
        return rec, kernel.record(n_top, length, table).value

    return [[row(theta, *segment) for segment in segments] for theta, segments in per_theta]


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
