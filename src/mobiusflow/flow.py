"""Skew products on a truncated torus over a rigid base rotation.

The map sends x_1 to x_1 + alpha and every higher coordinate nu to
x_nu + h(x_1 + (nu - 2) beta), so coordinate nu never feeds back into any
lower one.  Truncating at dimension V is therefore exact, not an
approximation, and all the interesting arithmetic lives in the base
coordinate: x_n = {seed + n alpha} comes from the exact phase engine
contfrac.phase_turns, correctly rounded at every step, and the h argument of
coordinate nu is {x_n + (nu - 2) beta}.  The engine reduces the seeded base
orbit against the convergent contfrac.reducing_convergent picks for the
walk's reach and the seed's bit count (8102 on the exp k4 angle, the 66-bit
q_4 of poly tau=4) and reduces again on the snapshot only the steps where
that phase is dyadic.  Each step is one exact residue modulo q_k 2^e for a
seed of e bits, rounded once, in one of the engine's three integer widths,
read from q_k and e (int64 NumPy for exp k4's q_3 < 2^31 and e <= 64,
Python ints for poly tau=4's 66-bit q_4; the drift {n c(0)} below, on a
power-of-two modulus, the low bits of a uint64 product).  Nothing is
carried from one step to the next in floating point, so a 10^7-step orbit
does not drift.

h is read through its fold h.fold (harmonic.FourierSeries): c(0) plus Re of
a sum over the positive modes m of F_m e(m t), F_m = c(m) + conj c(-m).
Every stepped orbit (orbit_direct, step, birkhoff_avg, distality_probe,
check_conjugacy) comes from one walker, _fiber_blocks, and birkhoff_avg
adds its block terms through the Moebius summer's accumulator,
moebius._add_terms, with weight 1.  Every fiber row
reads h on one base orbit shifted by (nu - 2) beta, so the walker builds one
phase table e(m x_n) per block and weights it per row by
F_m e(m (nu - 2) beta), reduced exactly in fixed point.  Outside the dyadic
steps, x_n is a function of n mod q_k for that convergent, so a walk longer
than q_k (with q_k at most one block) evaluates x_n and the rows once per
residue class and gathers every later step, recomputing only the dyadic
ones, the multiples of d = odd(q_k); contfrac.class_modulus is the rule
and gives the pair (q_k, d).  A walk with no rule is the case (0, 1): no
class table, and the same fix-up path recomputes every step.
FlowConfig._reading builds the row weights once per config, so one step
pays no set-up.  The walker sums h less its
mean c(0) in floats and adds the mean as the exact drift {n c(0)}, as the
closed form orbit_fast does, so the fiber error does not grow with
ulp(n c(0)).

_row_values evaluates the rows on two routes with the same bits.  A block
of thousands of steps goes one mode at a time, eight elementwise NumPy calls
per mode on arrays one row wide.  A narrow one (one step(), the fix-up
steps of a class walk, a short walk) builds the (width, K) phase table for
all modes at once, takes one cos and one sin, and sums the signed products
with one np.add.accumulate along the mode axis: a strictly left-to-right
0 + p_1 - q_1 + p_2 - ..., the loop's own order, where np.add.reduce or a
matrix product would reorder it.  NARROW_ELEMENTS, the largest rows x width
x (2K + 1) term array the narrow route builds, sits below where the two
cross on the benchmark's configs.

beta only needs to be irrational; it is the golden fraction stored as the
128-fractional-bit integer BETA_FIX, so j * beta mod 1 stays exact in fixed
point for any j we can iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import fsum, isqrt
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from mpmath import mp

from .contfrac import (
    BLOCK_STEPS,
    TWO_PI,
    AngleCF,
    Certificate,
    ResourceBudgetError,
    angle_digest,
    cis_minus_one,
    cis_ratio,
    class_modulus,
    dyadic_angle,
    faithful_modulus,
    mp_cis,
    phase_turns,
    residue,
    signed_residue,
    small_divisor,
)
from .harmonic import (
    FINITE,
    CoboundaryFunction,
    FourierSeries,
    solve_coboundary,
    split_tau,
)
from .moebius import _add_terms

BETA_BITS = 128
BETA_SCALE = 1 << BETA_BITS
# floor(beta * 2^128) for beta = (sqrt(5) - 1) / 2
BETA_FIX = isqrt(5 << (2 * BETA_BITS - 2)) - (1 << (BETA_BITS - 1))

DIRECT_STEP_LIMIT = 10**7
# _row_values' narrow route up to this many terms (256 KiB): the routes
# cross near 45k-50k terms at K = 24 with 3 or 7 rows, 110k at K = 60
NARROW_ELEMENTS = 1 << 15
FLOAT_SLACK = 1e-12


@dataclass(frozen=True)
class TorusPoint:
    """Point on the truncated torus, coordinates in [0, 1).

    The base tag, when present, pins the first coordinate exactly:
    x_1 = {base_seed + base_steps * alpha} for the angle whose digest is
    base_angle.  Orbit operations create and advance the tag so that repeated
    stepping never accumulates rounding in the base coordinate; points built
    by hand carry no tag and seed the exact arithmetic from their float x_1.
    """

    coords: Tuple[float, ...]
    base_seed: Optional[float] = None
    base_steps: int = 0
    base_angle: Optional[str] = None

    def __post_init__(self):
        coords = tuple(float(c) for c in self.coords)
        if len(coords) < 2:
            raise ValueError("need at least two coordinates")
        for c in coords:
            if not 0.0 <= c < 1.0:
                raise ValueError(f"coordinate {c!r} outside [0, 1)")
        object.__setattr__(self, "coords", coords)

    @property
    def v(self) -> int:
        return len(self.coords)

    @cached_property
    def serialized(self) -> bytes:
        """The coordinates as comma-joined reprs, built once per point:
        experiments.records_digest hashes them for every row on the point,
        and the CLI's config digest hashes them once."""
        return ",".join(map(repr, self.coords)).encode()


@dataclass(frozen=True)
class FrequencyVector:
    """Integer pairing vector b_1..b_V, finitely supported.

    rho and norm follow the convention that the base coordinate does not
    count: rho = sum of b_nu and norm = sum of |b_nu| over nu >= 2 only.
    Every consumer pairs b with float coordinates, so an entry past 2^53 in
    size, which has no exact float, is refused with ValueError.
    """

    entries: Tuple[int, ...]

    def __post_init__(self):
        entries = tuple(int(b) for b in self.entries)
        if not entries:
            entries = (0,)
        if any(abs(b) > 2**53 for b in entries):
            raise ValueError("a pairing vector entry past 2^53 has no exact float")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def unit(cls, nu: int, size: Optional[int] = None) -> "FrequencyVector":
        if nu < 1:
            raise ValueError("coordinate index starts at 1")
        size = max(nu, size or 0)
        return cls(tuple(1 if i == nu else 0 for i in range(1, size + 1)))

    @property
    def rho(self) -> int:
        return sum(self.entries[1:])

    @property
    def norm(self) -> int:
        return sum(abs(b) for b in self.entries[1:])

    @property
    def top_index(self) -> int:
        """Highest coordinate with a nonzero entry (0 for the zero vector)."""
        for i in range(len(self.entries), 0, -1):
            if self.entries[i - 1] != 0:
                return i
        return 0

    def label(self) -> str:
        return ";".join(str(b) for b in self.entries)


@dataclass(frozen=True)
class FlowConfig:
    """Immutable bundle: angle, driving series, truncation V."""

    alpha: AngleCF
    h: FourierSeries
    v: int = 8

    def __post_init__(self):
        if self.v < 2:
            raise ValueError("truncation dimension must be at least 2")

    @cached_property
    def _reading(self) -> Tuple[tuple, tuple, Optional[AngleCF], np.ndarray]:
        """(modes, fold, mean, weights): the walker's reading of h, once per config.

        modes and fold are h.fold's; mean is the dyadic angle of c(0), or
        None when c(0) is an integer; weights[i, k] is F_m e(m i beta) for
        m = modes[k], with m i beta reduced mod 1 in BETA_FIX fixed point,
        for every fiber row i = nu - 2 (each entry computed on its own).
        """
        modes, fold, c0 = self.h.fold
        offs = np.array(
            [[m * i * BETA_FIX % BETA_SCALE / BETA_SCALE for m in modes]
             for i in range(self.v - 1)]
        )
        mean = dyadic_angle(c0) if c0 % 1.0 else None
        return modes, fold, mean, np.array(fold) * np.exp(1j * TWO_PI * offs)


# ---------------------------------------------------------------------------
# exact base arithmetic


def _seed_of(cfg: FlowConfig, x: TorusPoint) -> Tuple[float, int]:
    if x.base_seed is not None and x.base_angle == angle_digest(cfg.alpha):
        return x.base_seed, x.base_steps
    return x.coords[0], 0


def _coord_bases(
    cfg: FlowConfig, seed: float, start: int, top: int = 1,
    nus: Optional[Sequence[int]] = None,
) -> Tuple[List[int], int]:
    """Numerators of {seed + start*alpha + (nu-2)*beta} for the fiber
    coordinates nus (all of nu = 2..V when None), in that order, plus den.

    top is the largest m for which the caller reduces m times these bases
    (1 when it reads them alone); past the faithful range of top * start, or
    of start itself, PrecisionFloorError is raised, as residue and
    phase_turns do.
    """
    faithful_modulus(cfg.alpha, top * start)
    q = cfg.alpha.q_snapshot
    sp, sq = float(seed).as_integer_ratio()
    r0 = residue(start, cfg.alpha)
    den = q * sq * BETA_SCALE
    head = sp * q * BETA_SCALE + r0 * sq * BETA_SCALE
    qsq = q * sq
    nums = []
    for nu in range(2, cfg.v + 1) if nus is None else nus:
        off = ((nu - 2) * BETA_FIX) % BETA_SCALE
        nums.append((head + off * qsq) % den)
    return nums, den


def _row_values(
    xs: np.ndarray, modes: Sequence[int], weights: np.ndarray, out: np.ndarray
) -> None:
    """out[k, j] = 0 + sum_m (Wr[k, m] cos - Wi[k, m] sin)(2 pi {m xs[j]}).

    These are the fiber rows' values of h less its mean before the cumsum,
    for row weights W = weights, one row per row of out and one column per
    mode.  Both routes take the phase 2 pi {m xs[j]} as the same three
    elementwise steps (multiply by float(m), mod 1, times 2 pi), and add the
    terms left to right in mode order, starting from 0.0: column j reads
    xs[j] alone, in the same operations and order wherever it sits, so the
    two routes give the same bits.

    Mod 1 is a - floor(a), the package's one way to take it: on every finite
    a it gives the bits np.mod gives for the divisor 1.0, at a third of the
    cost.  floor(a) is an exact integer.  For a >= 0 the difference lies on
    a's own grid, so it is exact, and it is fmod(a, 1).  For a < 0, np.mod
    returns RN(fmod(a, 1) + 1), one rounding of the same real number
    a - floor(a).  Integers and -0.0 give +0.0 on both routes.

    When out.size (2K + 1), the size of the narrow route's term array, is at
    most NARROW_ELEMENTS, the call goes through _row_values_at_once; a wider
    one goes through _row_values_by_mode.  With no rows there is nothing to
    compute.
    """
    if not out.size:
        return
    if out.size * (2 * len(modes) + 1) <= NARROW_ELEMENTS:
        _row_values_at_once(xs, modes, weights, out)
    else:
        _row_values_by_mode(xs, modes, weights, out)


def _row_values_at_once(
    xs: np.ndarray, modes: Sequence[int], weights: np.ndarray, out: np.ndarray
) -> None:
    """The narrow route: every mode in one pass, about a dozen NumPy calls.

    One (width, K) phase table 2 pi {m xs[j]}, one cos and one sin, then the
    products laid out as [0.0, Wr_1 c_1, -Wi_1 s_1, Wr_2 c_2, ...] along the
    last axis of a (rows, width, 2K + 1) array and summed by one
    np.add.accumulate, which adds strictly left to right as the wide route's
    out += / out -= do: x - y is x + (-y) in IEEE arithmetic, signed zeros
    included, and the leading 0.0 is the wide route's out.fill(0.0).
    np.add.reduce or a matrix product would reorder the sum.
    """
    ang = np.multiply.outer(xs, np.array(modes, dtype=float))
    ang -= np.floor(ang)
    ang *= TWO_PI
    terms = np.empty(out.shape + (2 * len(modes) + 1,))
    terms[..., 0] = 0.0
    np.multiply(weights.real[:, None, :], np.cos(ang), out=terms[..., 1::2])
    np.multiply(-weights.imag[:, None, :], np.sin(ang), out=terms[..., 2::2])
    np.add.accumulate(terms, axis=-1, out=terms)
    out[...] = terms[..., -1]


def _row_values_by_mode(
    xs: np.ndarray, modes: Sequence[int], weights: np.ndarray, out: np.ndarray
) -> None:
    """The wide route: one mode at a time, eight elementwise NumPy calls each.

    Its arrays are one row of out wide, where the narrow route's are 2K + 1
    times out's size, so a block of thousands of steps stays in cache.  c
    holds floor(m xs) for the mod 1 before it holds the cosines.
    """
    sn, c = np.empty((2, len(xs)))
    out.fill(0.0)
    for m, w in zip(modes, weights.T[:, :, None]):
        np.multiply(xs, m, out=sn)
        sn -= np.floor(sn, out=c)
        sn *= TWO_PI
        np.cos(sn, out=c)
        np.sin(sn, out=sn)
        out += w.real * c
        out -= w.imag * sn


def _fiber_blocks(
    cfg: FlowConfig, x: TorusPoint, n: int, rows: Sequence[int]
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """(x_after, fiber) per block of the orbit T^1 x .. T^n x: the one orbit walker.

    fiber[k, j] is fiber coordinate nu = rows[k] + 2 after step s, the
    block's j-th: x_nu plus the sum of h over the first s steps.  Row k reads
    h at u = x_s + off_k, off_k = {rows[k] beta}, and e(m u) = e(m x_s)
    e(m off_k).  So the walker builds one phase table cos, sin(2 pi {m x_s})
    on the correctly rounded base orbit, over the positive modes m
    (_row_values: one mode at a time on a wide block, all modes in one
    table and one in-order np.add.accumulate on a narrow one, with the same
    bits).  Row k is sum_m (Wr[k, m] cos - Wi[k, m] sin) with row weights
    W[k, m] = F_m e(m off_k) for h's folded coefficient F_m, m rows[k] beta
    reduced mod 1 in BETA_FIX fixed point.  Broadcast products summed in
    mode order (no matrix product) keep a row's bits independent of which
    other rows are asked for.

    Periodicity.  contfrac.class_modulus, the one class rule, is asked for
    multiplier 1, the walk's reach max(-start, start + n), the span n and
    the seed.  When it gives (q_k, d) (l_k/q_k is not the snapshot,
    d = odd(q_k) > 1, q_k < n and q_k <= BLOCK_STEPS: the class route), x_s
    is the rounded {seed + (start + s) l_k/q_k}, a function of
    (start + s) mod q_k, except at the fix-ups, the s with d | start + s,
    where phase_turns recomputes on the snapshot.  The walker then
    evaluates x_s and the row values once, for s = 0..q_k - 1, into tables
    no wider than a block, and gathers every step s from class s mod q_k.
    No rule reads as (q, d) = (0, 1), as moebius.mu_phase_sum reads it: no
    table, and every step a fix-up.  Either way each block then takes the
    one fix-up path: phase_turns evaluates x_s at the steps d divides,
    every step when d = 1, and _row_values their row values.  The rows
    equal a per-step evaluation bit for bit, since cos and sin give the
    same bits whatever an element's place in its array.  A one-step walk
    asks no rule, and phase_turns picks the convergent once.  The tables
    live for one call.  Blocks are contiguous views of one fiber buffer,
    and x_after is one reused buffer too, so a caller copies what it keeps
    past the next block.

    The sum of h splits in two.  h less its mean c(0) is summed as a float
    cumsum inside the block, started from the exactly rounded total of the
    blocks before it (the last block's totals are not taken: nothing reads
    them); the mean part s c(0) enters as the exact drift {s c(0)} from the
    phase engine, so c(0) never joins a float sum.  Neither part depends on
    x, so two points on one base orbit share them exactly.  Every row of a
    block is finished at once, in the per-row order: cumsum along the row,
    plus its carry, plus the drift, plus its start fiber, mod 1.  The modes
    and row weights come from cfg._reading, built once per config.  A walk
    past DIRECT_STEP_LIMIT steps raises ResourceBudgetError before its first
    block.
    """
    if n > DIRECT_STEP_LIMIT:
        raise ResourceBudgetError(f"a walk of {n} steps exceeds the {DIRECT_STEP_LIMIT} cap")
    seed, start = _seed_of(cfg, x)
    modes, _, mean, weights = cfg._reading
    weights = weights[list(rows)]
    fibers = np.array([x.coords[i + 1] for i in rows])
    # the class route needs q_k < n, and q_k >= 1; no rule reads as
    # (q, d) = (0, 1): no class table, and every step is a fix-up
    rule = n > 1 and class_modulus(cfg.alpha, (1,), max(-start, start + n), n, seed)
    q, d = rule or (0, 1)
    if q:
        x_cls = phase_turns(cfg.alpha, 1, range(start, start + q), seed)
        g_cls = np.empty((len(rows), q))
        _row_values(x_cls, modes, weights, g_cls)  # its temporaries are freed before fiber exists
    fiber = np.empty(len(rows) * min(n, BLOCK_STEPS))  # each block a contiguous view
    xs_buf = np.empty(min(n, BLOCK_STEPS) + 1)
    totals = [[] for _ in rows]
    for done in range(0, n, BLOCK_STEPS):
        width = min(BLOCK_STEPS, n - done)
        block = fiber[:len(rows) * width].reshape(len(rows), width)
        xs = xs_buf[:width + 1]
        head = start + done
        if q:
            cls = np.arange(done, done + width + 1)
            cls %= q
            np.take(x_cls, cls, out=xs, mode="clip")
            np.take(g_cls, cls[:-1], axis=1, out=block, mode="clip")
            del cls  # no index array is held across the yield
        first = -head % d  # the block's first fix-up
        if first <= width:
            fix = range(head + first, head + width + 1, d)
            xs[first::d] = phase_turns(cfg.alpha, 1, fix, seed)
            _row_values(xs[first:width:d], modes, weights, block[:, first::d])
        if rows:
            carry = np.array([fsum(t) for t in totals])
            if done + width < n:  # the last block's totals would go unread
                for t, row in zip(totals, block):
                    t.append(fsum(memoryview(row)))  # no list of 8192 floats
            np.cumsum(block, axis=1, out=block)
            block += carry[:, None]
            if mean is not None:
                block += phase_turns(mean, 1, range(done + 1, done + width + 1))
            block += fibers[:, None]
            block -= np.floor(block)
        yield xs[1:], block


def _circle_coords(values: Iterable[float]) -> Tuple[float, ...]:
    """values as TorusPoint coordinates, 1.0 read as 0.0 on the circle.

    Reducing a tiny negative mod 1 rounds it up to 1.0, and the phase engine
    correctly rounds a base coordinate of 1 less a tiny number to 1.0.
    """
    return tuple(0.0 if c == 1.0 else float(c) for c in values)


def _result_point(
    cfg: FlowConfig, coords: Iterable[float], seed: float, steps: int
) -> TorusPoint:
    """T^n x as a TorusPoint, tagged with the exact base {seed + steps alpha}."""
    return TorusPoint(_circle_coords(coords), seed, steps, angle_digest(cfg.alpha))


def _check_point(cfg: FlowConfig, x: TorusPoint, b: Optional[FrequencyVector] = None):
    """x has cfg's dimension, and b (when given) touches no coordinate past it."""
    if x.v != cfg.v:
        raise ValueError(f"point has dimension {x.v}, config expects {cfg.v}")
    if b is not None and b.top_index > cfg.v:
        raise ValueError(f"vector touches coordinate {b.top_index}, config has {cfg.v}")


def _step_count(n, minimum: int, what: str) -> int:
    """n as a step count for the public orbit functions.

    n must have an integer value (5e4 reads as 50000, 2.5 is refused) and be
    at least minimum.  A walk's DIRECT_STEP_LIMIT is _fiber_blocks' to check;
    orbit_fast has no cap, since its cost does not grow with n.
    """
    try:
        count = int(n)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != n:
        raise ValueError(f"step count {n!r} is not an integer")
    if count < minimum:
        raise ValueError(f"{what} needs at least {minimum} steps, got {count}")
    return count


# ---------------------------------------------------------------------------
# stepping


def _orbit_points(cfg: FlowConfig, x: TorusPoint, ns: Sequence[int]) -> Iterator[TorusPoint]:
    """T^n x for each n of ns, ascending and positive, read off one walk to ns[-1].

    Step n of the walk is column n - 1 of its blocks, the column a walk of n
    steps ends on, so each point is orbit_direct(cfg, x, n) bit for bit.
    """
    seed, start = _seed_of(cfg, x)
    done, k = 0, 0
    for x_after, fiber in _fiber_blocks(cfg, x, ns[-1], range(cfg.v - 1)):
        done += len(x_after)
        while k < len(ns) and ns[k] <= done:
            j = ns[k] - done - 1  # from the block's end
            yield _result_point(cfg, [x_after[j], *fiber[:, j].tolist()], seed, start + ns[k])
            k += 1


def orbit_direct(cfg: FlowConfig, x: TorusPoint, n: int) -> TorusPoint:
    """n-fold composition by walking the orbit with _fiber_blocks, O(n)."""
    _check_point(cfg, x)
    n = _step_count(n, 0, "direct orbit")
    if n == 0:
        return x
    (point,) = _orbit_points(cfg, x, [n])
    return point


def step(cfg: FlowConfig, x: TorusPoint) -> TorusPoint:
    """One application of the skew product."""
    return orbit_direct(cfg, x, 1)


def orbit_fast(cfg: FlowConfig, x: TorusPoint, n: int) -> TorusPoint:
    """n-fold composition in closed form, O(#modes) independent of n.

    Per positive frequency m, the folded coefficient F_m contributes
    Re F_m e(m u) (e(mn alpha) - 1)/(e(m alpha) - 1), the +-m pair's sum,
    with every phase taken from the exact snapshot.  A frequency the snapshot
    makes resonant (rational angles) adds n Re F_m e(m u) instead, summed
    and reduced mod 1 with 50 digits past those of n, so a large n loses
    nothing.  The mean c(0) turns into the exact dyadic drift {n c(0)}.  The
    modes, F_m and the mean come from cfg._reading.
    """
    _check_point(cfg, x)
    n = _step_count(n, 0, "fast orbit")
    if n == 0:
        return x
    seed, start = _seed_of(cfg, x)
    q = cfg.alpha.q_snapshot
    modes, fold, mean, _ = cfg._reading
    nums, den = _coord_bases(cfg, seed, start, max(modes, default=0))
    drift = 0.0 if mean is None else float(phase_turns(mean, 1, [n])[0])
    # per-frequency constants shared by every coordinate
    kernels, resonant = [], []
    for m, f in zip(modes, fold):
        zden = small_divisor(m, cfg.alpha)
        if zden == 0:
            resonant.append((m, f))
            continue
        znum = cis_minus_one(signed_residue(m * n, cfg.alpha), q)
        kernels.append((m, f * (znum / zden)))
    coords = [float(phase_turns(cfg.alpha, 1, [start + n], seed)[0])]
    for i in range(cfg.v - 1):
        base = nums[i]
        terms = [(ck * cis_ratio(m * base, den)).real for m, ck in kernels]
        if resonant:
            with mp.workdps(50 + len(str(n))):
                amp = sum(mp.re(f * mp_cis(m * base, den)) for m, f in resonant)
                terms.append(float(mp.frac(n * amp)))
        coords.append((x.coords[i + 1] + drift + fsum(terms)) % 1.0)
    return _result_point(cfg, coords, seed, start + n)


# ---------------------------------------------------------------------------
# pairing, metric, distality


def pairing(b: FrequencyVector, x: TorusPoint) -> float:
    """<b, x> mod 1 at the current point, in [0, 1) like a coordinate."""
    if b.top_index > x.v:
        raise ValueError(
            f"vector touches coordinate {b.top_index}, point has {x.v}"
        )
    t = fsum(bv * xv for bv, xv in zip(b.entries, x.coords)) % 1.0
    return 0.0 if t == 1.0 else t  # a tiny negative sum rounds up to 1.0


def _circle_dist(a: float, b: float) -> float:
    e = abs(a - b) % 1.0
    return min(e, 1.0 - e)


def _torus_distance(xs: Sequence[np.ndarray], ys: Sequence[np.ndarray]) -> np.ndarray:
    """d = sum over nu of 2^-nu min(e, 1 - e), e = |xs[nu-1] - ys[nu-1]|, elementwise.

    xs and ys hold one array per coordinate (points along the last axis);
    the terms are added in coordinate order, starting from 0.0.
    """
    d, e, f = np.zeros((3, len(xs[0])))
    for nu, (a, b) in enumerate(zip(xs, ys), start=1):
        np.subtract(a, b, out=e)
        np.abs(e, out=e)
        np.subtract(1.0, e, out=f)
        np.minimum(e, f, out=e)
        e *= 0.5**nu
        d += e
    return d


def metric_d(x: TorusPoint, y: TorusPoint) -> float:
    """Sum of 2^-nu times the circle distance per coordinate."""
    if x.v != y.v:
        raise ValueError("dimension mismatch")
    return float(_torus_distance(np.array(x.coords)[:, None], np.array(y.coords)[:, None])[0])


@dataclass(frozen=True)
class DistalityProbe(Certificate):
    """d(T^n x, T^n y) over n = 0..n_max against the separation bound.

    min_distance and spread are the smallest observed distance and its range
    over the orbit; same_base says which bound applies (see distality_probe).
    """

    claim = "inf_n d(T^n x, T^n y) >= separation bound"

    min_distance: float
    bound: float
    passed: bool
    same_base: bool
    spread: float
    n_max: int


def distality_probe(
    cfg: FlowConfig, x: TorusPoint, y: TorusPoint, n_max: int
) -> DistalityProbe:
    """Track d(T^n x, T^n y) for n = 0..n_max against the separation bound.

    Distinct base coordinates keep at least half their circle distance
    forever; equal base coordinates make the h increments cancel, so the
    distance is pinned at 2^-nu0 times the first differing coordinate gap
    and should not move at all (the probe reports the observed spread).
    """
    _check_point(cfg, x)
    _check_point(cfg, y)
    if x.coords == y.coords:
        raise ValueError("points coincide")
    n_max = _step_count(n_max, 0, "distality probe")
    same_base = x.coords[0] == y.coords[0]
    if same_base:
        nu0 = next(
            i + 1 for i, (a, b) in enumerate(zip(x.coords, y.coords)) if a != b
        )
        bound = _circle_dist(x.coords[nu0 - 1], y.coords[nu0 - 1]) * 0.5**nu0
    else:
        bound = 0.5 * _circle_dist(x.coords[0], y.coords[0])
    dmin = dmax = metric_d(x, y)
    rows = range(cfg.v - 1)
    for (x1, fx), (y1, fy) in zip(
        _fiber_blocks(cfg, x, n_max, rows), _fiber_blocks(cfg, y, n_max, rows)
    ):
        d = _torus_distance([x1, *fx], [y1, *fy])
        dmin = min(dmin, float(np.min(d)))
        dmax = max(dmax, float(np.max(d)))
    return DistalityProbe(
        min_distance=dmin,
        bound=bound,
        passed=dmin >= bound - FLOAT_SLACK,
        same_base=same_base,
        spread=dmax - dmin,
        n_max=n_max,
    )


# ---------------------------------------------------------------------------
# Birkhoff averages


def birkhoff_avg(
    cfg: FlowConfig, b: FrequencyVector, x: TorusPoint, n_steps: int
) -> complex:
    """(1/N) sum over n = 1..N of e(<b, T^n x>).

    Each walked block's pairing phase <b, T^n x> is added through
    moebius._add_terms with weight 1, the accumulator of the Moebius sum
    over the same orbit: the two sums differ only in their weights.
    """
    _check_point(cfg, x, b)
    n_steps = _step_count(n_steps, 1, "Birkhoff average")
    rows = [i for i, bv in enumerate(b.entries[1:]) if bv != 0]
    re, im = [], []
    for x_after, fiber in _fiber_blocks(cfg, x, n_steps, rows):
        phase = b.entries[0] * x_after
        for i, row in zip(rows, fiber):
            phase += b.entries[i + 1] * row
        _add_terms(re, im, 1.0, phase)
    return complex(fsum(re) / n_steps, fsum(im) / n_steps)


# ---------------------------------------------------------------------------
# conjugacy


@dataclass(frozen=True)
class ConjugacyPair:
    """T and its straightened twin: T = Psi^-1 after T1 after Psi.

    top drives with the mean plus the fast resonant coefficients only; psi
    solves the coboundary for everything else, and the change of variables
    shifts coordinate nu by psi evaluated at the same argument h sees.
    """

    base: FlowConfig
    top: FlowConfig
    psi: CoboundaryFunction
    tau: float


def build_conjugacy(cfg: FlowConfig, tau: float) -> ConjugacyPair:
    h1p, h2p, mean = split_tau(cfg.h, cfg.alpha, tau)
    psi = solve_coboundary(h2p, cfg.alpha, tau=tau)
    top_coeffs = dict(h1p.items())
    if mean != 0.0:
        top_coeffs[0] = complex(mean, 0.0)
    top = replace(
        cfg, h=FourierSeries(top_coeffs, FINITE, 0.0, max(1.0, h1p.decay_const))
    )
    return ConjugacyPair(base=cfg, top=top, psi=psi, tau=float(tau))


def psi_map(pair: ConjugacyPair, x: TorusPoint, inverse: bool = False) -> TorusPoint:
    """Shift coordinate nu by -psi (or +psi) at the exact h argument, psi
    evaluated at every coordinate's argument in one array call."""
    cfg = pair.base
    _check_point(cfg, x)
    seed, start = _seed_of(cfg, x)
    nums, den = _coord_bases(cfg, seed, start)
    sign = 1.0 if inverse else -1.0
    shifts = pair.psi.series.eval(np.array([num / den for num in nums]))
    coords = [x.coords[0]]
    for xi, shift in zip(x.coords[1:], shifts.tolist()):
        coords.append((xi + sign * shift) % 1.0)
    return replace(x, coords=_circle_coords(coords))  # x's tags, as they are


def psi_inv(pair: ConjugacyPair, x: TorusPoint) -> TorusPoint:
    return psi_map(pair, x, inverse=True)


@dataclass(frozen=True)
class ConjugacyCertificate(Certificate):
    """Per-n defect of T^n x against Psi^-1(T1^n(Psi x)) and its budget."""

    claim = "T^n = Psi^-1 after T1^n after Psi within budget"

    n_values: Tuple[int, ...]
    defects: Tuple[float, ...]
    budgets: Tuple[float, ...]
    passed: bool


def check_conjugacy(
    pair: ConjugacyPair, x: TorusPoint, n_values: Iterable[int]
) -> ConjugacyCertificate:
    """Compare T^n x against Psi^-1(T1^n(Psi x)) coordinatewise.

    Both orbits run the truncated series, whose coboundary identity is exact
    by construction, so the per-step budget is the certified tail bound of
    psi plus a float allowance scaled by the size of psi.  T and T1 each
    walk once, to the largest n, and every n reads its point off that walk.
    """
    cfg = pair.base
    _check_point(cfg, x)
    eps_step = FLOAT_SLACK * max(1.0, pair.psi.series.l1_norm())
    per_step = pair.psi.identity_error_bound + eps_step
    ns = sorted({int(n) for n in n_values})
    if ns and ns[0] < 1:
        raise ValueError("conjugacy check needs positive step counts")
    y = psi_map(pair, x)
    defects = []
    budgets = []
    ok = True
    # zip reads ns first, so an empty ns starts neither walk
    for n, a, b in zip(ns, _orbit_points(cfg, x, ns), _orbit_points(pair.top, y, ns)):
        bpt = psi_inv(pair, b)
        defect = max(
            _circle_dist(ai, bi) for ai, bi in zip(a.coords, bpt.coords)
        )
        budget = n * per_step + 10.0 * eps_step
        defects.append(defect)
        budgets.append(budget)
        ok = ok and defect <= budget
    return ConjugacyCertificate(
        n_values=tuple(ns),
        defects=tuple(defects),
        budgets=tuple(budgets),
        passed=ok,
    )
