"""Mobius-weighted correlation sums along skew-product orbits.

The headline quantity is S = sum of mu(n) e(<b, T^n x>) over a short segment
(N - M, N].  The constant phase <b, x> is taken out of every term and applied
once, S = e(<b, x> mod 1) * sum of mu(n) e(phase(n)), and phase(n) is
assembled algebraically instead of materializing orbits: each coefficient of
h contributes through the closed geometric kernel, whose weights over the
active coordinates fold into one complex number per frequency; the base term
b_1 n alpha and every e(m n alpha) come from the exact phase engine
contfrac.phase_turns, which rounds each phase as the snapshot does but
reduces it in int64 against the smallest convergent that rounds alike
(q_3 = 8102 for the exp-type angle); and the mean of h (plus any frequency
the snapshot makes resonant) becomes a drift slope, reduced mod 1 in extended
precision and stepped exactly as a dyadic rational.  moebius.mu_phase_sum
evaluates the phases over fixed-size chunks of the nonzero-mu indices and
adds them with math.fsum, so every record is reproducible bit for bit.  The
one route covers b = 0 (the Mertens difference) and h = 0 (the twisted
rotation sum) exactly, with no shortcut for either.

For a rational angle l/q, rational_case gives an independent route on the
same set-up: h cycles with period q, so each residue class mod q carries a
constant phase (the exact prefix of h over the cycle) plus a multiple of the
full-cycle slope.
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

from .contfrac import TWO_PI, cis, dyadic_angle, phase_turns, small_divisor
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


def _amplitudes(modes, active, nums: List[int], den: int) -> list:
    """A_m = c(m) sum_nu b_nu e(m u_nu) per mode (m, c), in the ambient mp
    precision, for u_nu = nums[nu - 2] / den: the pairing of mode m with the
    active coordinates k steps later is Re(A_m e(m k alpha))."""

    def e(k: int):
        # k/den is cut to 200 fractional bits first, which is far cheaper
        # than handing snapshot-sized integers to mpmath
        return mp.expjpi(mp.ldexp(((k % den) << 201) // den, -200))

    return [c * sum(bv * e(m * nums[nu - 2]) for nu, bv in active) for m, c in modes]


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


def _setup(cfg, b, x, n_top, length, table):
    """What both routes share: the guards, the segment's table (sieved unless
    one is given), n_lo, b_1, the unit factor e(<b, x>) and the amplitudes
    A_m of h over the coordinates b touches past the first (none if it
    touches none of them)."""
    _check_point(cfg, x)
    if b.top_index > cfg.v:
        raise ValueError(f"vector touches coordinate {b.top_index}, config has {cfg.v}")
    if not 1 <= length <= n_top:
        raise ValueError("need 1 <= length <= n_top")
    if table is None:
        table = sieve_segment(n_top, length)
    b1 = b.entries[0] if b.entries else 0
    const = sum(bv * xv for bv, xv in zip(b.entries, x.coords) if bv != 0)
    # (nu, b_nu) for the fiber coordinates the pairing vector touches
    active = [(nu, bv) for nu, bv in enumerate(b.entries[1 : cfg.v], start=2) if bv != 0]
    amps = []
    if active:
        nums, den = _coord_bases(cfg, *_seed_of(cfg, x))
        with mp.workdps(50):
            amps = _amplitudes(cfg.h.items(), active, nums, den)
    return table, n_top - length + 1, b1, cis(const % 1.0), amps


def correlation_sum(
    cfg: FlowConfig,
    b: FrequencyVector,
    x: TorusPoint,
    n_top: int,
    length: int,
    *,
    table: Optional[MuTable] = None,
    theta: Optional[float] = None,
) -> CorrelationRecord:
    """S = sum of mu(n) e(<b, T^n x>) for n in (n_top - length, n_top].

    One route for every b and h: the constant phase <b, x> is taken out of
    the sum and applied once as e(<b, x> mod 1), and the rest runs the kernel
    expansion, one phase_turns call per frequency and chunk.  So the zero
    vector gives the exact Mertens difference, and a driving series without
    coefficients gives e(<b, x>) times the twisted rotation sum, bit for bit.
    """
    t0 = time.perf_counter()
    table, n_lo, b1, turn, amps = _setup(cfg, b, x, n_top, length, table)
    theta = _theta_of(n_top, length) if theta is None else float(theta)

    # one kernel weight per frequency, folded over the active coordinates:
    # W_m = A_m / (e(m alpha) - 1); past e(<b, x>) the pairing phase is then
    # b_1 n alpha - sum Re W_m + sum Re(W_m e(m n alpha)) + drift(n)
    weights: List[Tuple[int, complex]] = []
    base_phase = 0.0
    slope = mp.mpf(0)
    with mp.workdps(50):
        for (m, _), amp in zip(cfg.h.items(), amps):
            zden = small_divisor(m, cfg.alpha)
            if zden == 0:
                # the snapshot makes e(m alpha) = 1 (m = 0 always does):
                # n identical terms per step, so the mode is a drift
                slope += mp.re(amp)
                continue
            w = complex(amp) / zden
            weights.append((m, w))
            base_phase -= w.real
    drift = _drift(slope)

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

    value = turn * mu_phase_sum(table, n_lo, n_top, 1, phases)
    return _record(b, x, n_top, length, theta, value, t0)


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
    return [(n_top, min(int(n_top), ceil(n_top**theta))) for n_top in n_list]


def sweep(
    cfg: FlowConfig,
    b: FrequencyVector,
    x: TorusPoint,
    theta: float,
    n_list: Sequence[int],
) -> List[CorrelationRecord]:
    """One record per N with M = ceil(N^theta)."""
    return [
        correlation_sum(cfg, b, x, n_top, length, theta=theta)
        for n_top, length in sweep_segments(theta, n_list)
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
    arithmetic progression in k.  table, when given, must cover the segment
    (n_top - length, n_top], as for correlation_sum; otherwise it is sieved.
    """
    if not cfg.alpha.exact:
        raise ValueError("rational_case needs an angle with an exact snapshot")
    t0 = time.perf_counter()
    table, n_lo, b1, turn, amps = _setup(cfg, b, x, n_top, length, table)
    l, q = cfg.alpha.snapshot

    # the pairing of h summed over the first r cycle points (the class
    # prefix) and over the whole cycle (the slope per period), both to 50
    # digits and reduced mod 1 before they become floats.  At cycle point j
    # the pairing is Re sum_m A_m e(m l/q)^j with A_m = c(m) sum b_nu e(m u_nu).
    prefix = np.zeros(q)
    slope = mp.mpf(0)
    if amps:
        with mp.workdps(50):
            terms = [
                (amp, mp.expjpi(2 * mp.mpf((m * l) % q) / q))
                for (m, _), amp in zip(cfg.h.items(), amps)
            ]
            for j in range(q):
                prefix[j] = float(mp.frac(slope))
                slope += sum(mp.re(a) for a, _ in terms)
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
