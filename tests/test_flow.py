"""Skew-product stepping, closed-form orbits, distality, conjugacy."""

import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import fsum
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from mobiusflow import build_exp_alpha, build_poly_alpha, contfrac, flow
from mobiusflow.contfrac import (
    TWO_PI,
    PrecisionFloorError,
    ResourceBudgetError,
    angle_digest,
    cis,
    cis_minus_one,
    dyadic_angle,
    explicit_angle,
    faithful_modulus,
    frac_mod1,
    matched_convergent,
    phase_turns,
    rational_angle,
    reducing_convergent,
    signed_residue,
    small_divisor,
)
from mobiusflow.flow import (
    BETA_FIX,
    BLOCK_STEPS,
    DIRECT_STEP_LIMIT,
    NARROW_ELEMENTS,
    ConjugacyPair,
    FlowConfig,
    FrequencyVector,
    TorusPoint,
    birkhoff_avg,
    build_conjugacy,
    check_conjugacy,
    distality_probe,
    metric_d,
    orbit_direct,
    orbit_fast,
    pairing,
    psi_inv,
    psi_map,
    step,
    _coord_bases,
    _fiber_blocks,
    _row_values,
    _row_values_at_once,
    _row_values_by_mode,
    _seed_of,
)
from mobiusflow.experiments import correlation_sum
from mobiusflow.harmonic import (
    FINITE,
    CoboundaryFunction,
    FourierSeries,
    analytic_h_sample,
    furstenberg_h,
)


def _circle(a, b):
    e = abs(a - b) % 1.0
    return min(e, 1.0 - e)


def _cfg(angle, v=4, h=None):
    return FlowConfig(alpha=angle, h=h if h is not None else analytic_h_sample(1.0, 6, 11), v=v)


# ---------------------------------------------------------------------------
# value objects


def test_torus_point_validation():
    with pytest.raises(ValueError):
        TorusPoint((0.5,))
    with pytest.raises(ValueError):
        TorusPoint((0.5, 1.0))
    with pytest.raises(ValueError):
        TorusPoint((-0.1, 0.5))
    p = TorusPoint((0.5, 0.25, 0.125))
    assert p.v == 3


def test_frequency_vector_refuses_an_entry_past_2_53():
    # every entry is paired with float coordinates: past 2^53 it has no float
    assert FrequencyVector((2**53, -(2**53))).entries == (2**53, -(2**53))
    with pytest.raises(ValueError, match="2\\^53"):
        FrequencyVector((0, -(2**53) - 1))


def test_frequency_vector_conventions():
    b = FrequencyVector((3, 1, -2))
    assert b.rho == -1  # base entry does not count
    assert b.norm == 3
    assert b.top_index == 3
    assert b.label() == "3;1;-2"
    assert FrequencyVector((5, 0)).top_index == 1
    assert FrequencyVector(()).top_index == 0
    e2 = FrequencyVector.unit(2, 4)
    assert e2.entries == (0, 1, 0, 0)
    with pytest.raises(ValueError):
        FrequencyVector.unit(0)


def test_flow_config_validation(exp_angle):
    with pytest.raises(ValueError):
        FlowConfig(alpha=exp_angle, h=FourierSeries({}), v=1)


def test_beta_fixed_point_against_mpmath():
    with mp.workdps(60):
        want = int(mp.floor((mp.sqrt(5) - 1) / 2 * 2**128))
    assert BETA_FIX == want


# ---------------------------------------------------------------------------
# stepping and the exact base coordinate


def test_zero_series_is_a_pure_rotation(exp_angle):
    cfg = _cfg(exp_angle, v=3, h=FourierSeries({}))
    x = TorusPoint((0.0, 0.3, 0.7))
    y = orbit_direct(cfg, x, 1000)
    assert y.coords[1:] == (0.3, 0.7)
    assert y.coords[0] == frac_mod1(1000, exp_angle)
    assert y.base_steps == 1000 and y.base_angle == angle_digest(exp_angle)


def test_repeated_step_keeps_base_exact(exp_angle):
    cfg = _cfg(exp_angle, v=2)
    x = TorusPoint((0.0, 0.5))
    for _ in range(50):
        x = step(cfg, x)
    assert x.base_steps == 50
    assert x.coords[0] == frac_mod1(50, exp_angle)


def test_hand_seed_fraction_oracle(exp_angle):
    cfg = _cfg(exp_angle, v=2, h=FourierSeries({}))
    x = TorusPoint((0.3, 0.0))
    y = orbit_direct(cfg, x, 777)
    l, q = exp_angle.snapshot
    want = (Fraction(0.3) + 777 * Fraction(l, q)) % 1
    assert y.coords[0] == want.numerator / want.denominator


def test_truncation_is_exact(exp_angle):
    h = analytic_h_sample(1.0, 5, 3)
    big = FlowConfig(alpha=exp_angle, h=h, v=6)
    small = FlowConfig(alpha=exp_angle, h=h, v=3)
    xb = TorusPoint((0.1, 0.2, 0.3, 0.4, 0.5, 0.6))
    xs = TorusPoint((0.1, 0.2, 0.3))
    yb = orbit_direct(big, xb, 400)
    ys = orbit_direct(small, xs, 400)
    assert yb.coords[:3] == ys.coords


def test_semigroup_property(exp_angle):
    cfg = _cfg(exp_angle, v=4)
    x = TorusPoint((0.3, 0.71, 0.05, 0.42))
    once = orbit_direct(cfg, x, 1500)
    twice = orbit_direct(cfg, orbit_direct(cfg, x, 700), 800)
    assert once.coords[0] == twice.coords[0]
    for a, b in zip(once.coords[1:], twice.coords[1:]):
        assert _circle(a, b) < 1e-10


def test_fast_matches_direct(exp_angle, poly_angle):
    for angle in (exp_angle, poly_angle):
        cfg = _cfg(angle, v=4)
        x = TorusPoint((0.3, 0.71, 0.05, 0.42))
        for n in (1, 13, 500, 2000):
            a = orbit_direct(cfg, x, n)
            b = orbit_fast(cfg, x, n)
            assert a.coords[0] == b.coords[0]
            for u, w in zip(a.coords[1:], b.coords[1:]):
                assert _circle(u, w) < 1e-8


def test_direct_walk_past_int64_matches_fast(exp_angle):
    # 2^64 + 5 steps in, the walker's indices are past int64; 4100 steps
    # cross a multiple of 4051, an entry recomputed on the snapshot
    cfg = _cfg(exp_angle, v=4)
    x = orbit_fast(cfg, TorusPoint((0.3, 0.71, 0.05, 0.42)), 2**64 + 5)
    assert x.base_steps == 2**64 + 5
    for n in (1, 13, 4100):
        a = orbit_direct(cfg, x, n)
        b = orbit_fast(cfg, x, n)
        assert a.coords[0] == b.coords[0]
        for u, w in zip(a.coords[1:], b.coords[1:]):
            assert _circle(u, w) < 1e-8


def test_fiber_arguments_keep_the_faithful_range():
    # a 52-bit snapshot resolves |reach| below about 1.0e13.  orbit_fast and
    # correlation_sum reduce 20 * start * alpha for the mode 20 of h, so a
    # chained orbit must stop at the first start with 20 * start past that
    # range, not fold it silently
    angle = explicit_angle([1] * 75)
    assert angle.q_snapshot.bit_length() == 52
    h = FourierSeries({0: 0.5, 20: 0.01 + 0.02j, -20: 0.01 - 0.02j})
    cfg = FlowConfig(alpha=angle, h=h, v=3)
    b = FrequencyVector((0, 1, 1))
    # 20 * 7 * 2^36 is about 9.6e12, 20 * 8 * 2^36 about 1.1e13
    faithful_modulus(angle, 20 * 7 * 2**36)
    with pytest.raises(PrecisionFloorError):
        faithful_modulus(angle, 20 * 8 * 2**36)
    p = TorusPoint((0.1, 0.2, 0.3))
    for _ in range(8):
        p = orbit_fast(cfg, p, 2**36)
    assert p.base_steps == 8 * 2**36
    with pytest.raises(PrecisionFloorError):
        orbit_fast(cfg, p, 2**36)
    with pytest.raises(PrecisionFloorError):
        correlation_sum(cfg, b, p, 1000, 100)
    far = replace(p, base_steps=12 * 2**36)
    with pytest.raises(PrecisionFloorError):
        orbit_fast(cfg, far, 1)
    with pytest.raises(PrecisionFloorError):
        correlation_sum(cfg, b, far, 1000, 100)
    # one call earlier, 20 * start is still inside the range and both run
    near = replace(p, base_steps=7 * 2**36)
    assert orbit_fast(cfg, near, 2**36).base_steps == 8 * 2**36
    assert np.isfinite(correlation_sum(cfg, b, near, 1000, 100).value)


def test_fast_handles_resonant_rational():
    angle = rational_angle(1, 3)
    h = FourierSeries({3: 0.1, -3: 0.1, 0: 0.05})
    cfg = FlowConfig(alpha=angle, h=h, v=3)
    x = TorusPoint((0.2, 0.4, 0.6))
    a = orbit_direct(cfg, x, 600)
    b = orbit_fast(cfg, x, 600)
    for u, w in zip(a.coords, b.coords):
        assert _circle(u, w) < 1e-9


def test_fast_resonant_modes_stay_exact_at_large_n():
    # on 1/3 the mode 3 is resonant: n steps add n Re(F_3 e(3 u)), which a
    # float n F_3 rounds away once n passes 2^53
    cfg = FlowConfig(alpha=rational_angle(1, 3), h=FourierSeries({3: 0.1, -3: 0.1}), v=3)
    x = TorusPoint((0.2, 0.4, 0.7))
    for n in (3 * 10**5, 2**60, 2**64 + 5):
        got = orbit_fast(cfg, x, n).coords
        with mp.workdps(60):
            want = [mp.frac(mp.mpf(0.2) + mp.mpf(n) / 3)]
            for i, xv in enumerate(x.coords[1:]):
                u = mp.mpf(0.2) + mp.mpf(i * BETA_FIX) / mp.mpf(2) ** 128
                want.append(mp.frac(xv + n * mp.mpf(0.2) * mp.cospi(6 * u)))
        assert max(_circle(a, float(w)) for a, w in zip(got, want)) <= 1e-12, n
        if n == 2**60:
            assert abs(got[1] - 0.2709) < 1e-4
        if n == 2**64 + 5:
            assert abs(got[1] - 0.5251) < 1e-4


def _unfolded_fast(cfg, x, n):
    """orbit_fast's coordinates with h read as every coefficient c(m), both
    signs of each mode apart, and its drift from a fresh dyadic angle."""
    seed, start = _seed_of(cfg, x)
    q = cfg.alpha.q_snapshot
    nums, den = _coord_bases(cfg, seed, start)
    drift = float(phase_turns(dyadic_angle(cfg.h.coeff(0).real), 1, [n])[0])
    kernels = []
    for m, c in cfg.h.items():
        if m:
            zden = small_divisor(m, cfg.alpha)
            znum = cis_minus_one(signed_residue(m * n, cfg.alpha), q)
            kernels.append((m, c * n if zden == 0 else c * (znum / zden)))
    coords = [float(phase_turns(cfg.alpha, 1, [start + n], seed)[0])]
    for i in range(cfg.v - 1):
        total = fsum((ck * cis(((m * nums[i]) % den) / den)).real for m, ck in kernels)
        coords.append((x.coords[i + 1] + drift + total) % 1.0)
    return coords


def _near_symmetric(c0, modes=6):
    """A series the constructor accepts with c(-m) = conj c(m) + 1e-13."""
    coeffs = {0: c0}
    for m in range(1, modes + 1):
        c = cis(0.37 * m) * 0.3 / m
        coeffs[m], coeffs[-m] = c, c.conjugate() + 1e-13
    return FourierSeries(coeffs)


@pytest.mark.parametrize("c0", [0.0, 0.3, 2.5])
def test_folded_fast_orbit_matches_the_unfolded_one(exp_angle, c0):
    # 2^64 + 5 steps pass int64; on 1/3 the modes 3 and 6 are resonant, and
    # a resonant mode sums n equal terms, so both routes round at ulp(n |c|)
    x = TorusPoint((0.3, 0.71, 0.05, 0.42))
    for angle, ns in ((exp_angle, (1, 5 * 10**4, 2**64 + 5)),
                      (rational_angle(1, 3), (1, 600, 5 * 10**4))):
        for h in (analytic_h_sample(1.0, 6, 11), _near_symmetric(c0), FourierSeries({0: c0})):
            cfg = FlowConfig(alpha=angle, h=h, v=4)
            for n in ns:
                got = orbit_fast(cfg, x, n).coords
                want = _unfolded_fast(cfg, x, n)
                tol = 1e-12 + angle.exact * n * h.l1_norm() * 2.0**-52
                assert got[0] == want[0]
                assert max(_circle(a, b) for a, b in zip(got, want)) <= tol, (h, n)
        empty = FlowConfig(alpha=angle, h=FourierSeries({}), v=4)
        for n in ns:
            assert list(orbit_fast(empty, x, n).coords) == _unfolded_fast(empty, x, n)


def test_mean_drift_is_dyadic_exact(exp_angle):
    cfg = _cfg(exp_angle, v=3, h=FourierSeries({0: 0.3}))
    x = TorusPoint((0.0, 0.25, 0.75))
    for n in (5000, 10**5):
        a = orbit_direct(cfg, x, n)
        b = orbit_fast(cfg, x, n)
        for u, w in zip(a.coords, b.coords):
            assert _circle(u, w) < 1e-13


def test_orbit_guards(exp_angle):
    cfg = _cfg(exp_angle, v=3)
    x = TorusPoint((0.1, 0.2, 0.3))
    with pytest.raises(ValueError):
        orbit_direct(cfg, TorusPoint((0.1, 0.2)), 5)
    with pytest.raises(ValueError):
        orbit_direct(cfg, x, -1)
    with pytest.raises(ResourceBudgetError):
        orbit_direct(cfg, x, DIRECT_STEP_LIMIT + 1)
    assert orbit_direct(cfg, x, 0) is x
    big = orbit_fast(cfg, x, 10**12)  # closed form has no step cap
    assert all(0.0 <= c < 1.0 for c in big.coords)
    # the walker's integer-value rule, without its cap: 2.5 was read as 2
    assert orbit_fast(cfg, x, 5e4) == orbit_fast(cfg, x, 50000)
    assert orbit_fast(cfg, x, 1e13) == orbit_fast(cfg, x, 10**13)
    assert orbit_fast(cfg, x, 0.0) is x
    for bad in (2.5, -1, -1.0, float("nan"), float("inf"), "5"):
        with pytest.raises(ValueError):
            orbit_fast(cfg, x, bad)


def test_coordinates_that_round_to_one_fold_to_zero(exp_angle):
    # a fiber sum a hair below 0 reduces mod 1 to 1.0, and {8102 alpha} is
    # 1 less about 1e-3519, which the phase engine correctly rounds to 1.0
    cfg = FlowConfig(alpha=exp_angle, h=FourierSeries({1: -5e-18, -1: -5e-18}), v=2)
    x = TorusPoint((0.0, 0.0))
    for y in (orbit_direct(cfg, x, 1), step(cfg, x), orbit_fast(cfg, x, 1)):
        assert y.coords == (frac_mod1(1, exp_angle), 0.0)
    rot = FlowConfig(alpha=exp_angle, h=FourierSeries({}), v=2)
    for y in (orbit_direct(rot, x, 8102), orbit_fast(rot, x, 8102)):
        assert y.coords == (0.0, 0.0) and y.base_steps == 8102
    psi = CoboundaryFunction(FourierSeries({0: 5e-18}), {}, 0.0)
    pair = ConjugacyPair(base=cfg, top=cfg, psi=psi, tau=4.0)
    assert psi_map(pair, x).coords == (0.0, 0.0)


def _tagged(cfg, coords, seed, steps):
    return TorusPoint(
        coords, base_seed=seed, base_steps=steps, base_angle=angle_digest(cfg.alpha)
    )


def _walk(cfg, x, n, rows):
    # the walker reuses its arrays from block to block
    return [(xa.copy(), f.copy()) for xa, f in _fiber_blocks(cfg, x, n, rows)]


def test_fiber_blocks_builds_the_requested_rows(exp_angle):
    cfg = _cfg(exp_angle, v=8)
    x = _tagged(cfg, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8), 0.3, 5)
    every = _walk(cfg, x, 9000, range(7))
    some = _walk(cfg, x, 9000, [0, 2, 6])
    none = _walk(cfg, x, 9000, [])
    assert [f.shape for _, f in some] == [(3, 8192), (3, 808)]
    assert [f.shape for _, f in none] == [(0, 8192), (0, 808)]
    for (xa, a), (xb, b), (xc, _) in zip(every, some, none):
        assert np.array_equal(xa, xb) and np.array_equal(xa, xc)
        assert np.array_equal(a[[0, 2, 6]], b)


def _oracle_fibers(cfg, x, n, rows):
    """Fiber rows after steps 1..n, one mode, row and step at a time, and the
    largest partial sum of h less its mean.

    h at step s and coordinate nu = i + 2 is Re sum_m c(m) e(m u) over every
    mode, with u = {x_s + off} and off = {i beta} rounded to a float; the
    mean c(0) enters as the exact drift {s c(0)}.
    """
    seed, start = (x.base_seed, x.base_steps) if x.base_seed is not None else (x.coords[0], 0)
    xs = phase_turns(cfg.alpha, 1, range(start, start + n), seed)
    p, q = cfg.h.coeff(0).real.as_integer_ratio()
    drift = np.array([(s * p) % q / q for s in range(1, n + 1)])
    out, peak = [], 0.0
    for i in rows:
        u = np.mod(xs + (i * BETA_FIX % 2**128) / 2**128, 1.0)
        h = np.zeros(n)
        for m, c in cfg.h.items():
            if m != 0:
                ang = 2 * np.pi * np.mod(m * u, 1.0)
                h += c.real * np.cos(ang) - c.imag * np.sin(ang)
        sums = np.cumsum(h)
        peak = max(peak, float(np.abs(sums).max()))
        out.append(np.mod(x.coords[i + 1] + sums + drift, 1.0))
    return np.array(out).reshape(len(rows), n), peak


@st.composite
def _walker_cases(draw):
    v = draw(st.integers(2, 8))
    coeffs = {0: draw(st.sampled_from([0.0, 1.0, -2.0]) | st.floats(-3, 3))}
    for m in draw(st.sets(st.integers(1, 40), max_size=6)):
        c = complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
        # the mirror may miss conj(c) by up to the 1e-12 the series allows
        slack = draw(st.sampled_from([0.0, 1e-12, -1e-12]))
        coeffs[m], coeffs[-m] = c, c.conjugate() + complex(slack, -slack) / 2
    coords = tuple(draw(st.floats(0, 1, exclude_max=True)) for _ in range(v))
    steps = draw(st.none() | st.integers(0, 10**6))
    n = draw(st.integers(1, 300) | st.integers(BLOCK_STEPS - 50, BLOCK_STEPS + 300))
    rows = draw(st.lists(st.integers(0, v - 2), unique=True))
    return v, coeffs, coords, steps, n, sorted(rows)


@settings(max_examples=40, deadline=None)
@given(case=_walker_cases())
@example(case=(8, {0: 1.0, 24: 0.3 - 0.1j, -24: 0.3 + 0.1j}, (0.25,) * 8, 5,
                BLOCK_STEPS + 1, list(range(7))))
@example(case=(3, {0: 0.3}, (0.0, 0.5, 0.9), None, 9000, [0, 1]))
def test_fiber_blocks_match_a_per_mode_oracle(case):
    # the angle is built here, not taken from the fixture, so that a failing
    # example does not print its 11.7k-bit snapshot
    v, coeffs, coords, steps, n, rows = case
    h = FourierSeries(coeffs, FINITE, 0.0, 2.0)
    cfg = FlowConfig(alpha=build_exp_alpha(4), h=h, v=v)
    x = TorusPoint(coords) if steps is None else _tagged(cfg, coords, coords[0], steps)
    blocks = _walk(cfg, x, n, rows)
    got = np.concatenate([f for _, f in blocks], axis=1).reshape(len(rows), n)
    want, peak = _oracle_fibers(cfg, x, n, rows)
    # a phase {m u} is off by a few ulp of m on either route, and each
    # cumsum step rounds at the size of the partial sum
    per_step = 1 + 2 * np.pi * sum(abs(c) * (abs(m) + 1) for m, c in cfg.h.items() if m)
    tol = n * 2.0**-50 * (per_step + peak)
    dev = np.abs(got - want)
    assert np.all(np.minimum(dev, 1.0 - dev) <= tol)


def test_direct_matches_fast_within_4e12_on_48_modes(exp_angle):
    cfg = FlowConfig(alpha=exp_angle, h=analytic_h_sample(1.0, 24, 1), v=8)
    rng = Random(1)
    x = TorusPoint(tuple(rng.random() for _ in range(8)))
    a, b = orbit_direct(cfg, x, 50000), orbit_fast(cfg, x, 50000)
    assert a.coords[0] == b.coords[0]
    assert max(_circle(u, w) for u, w in zip(a.coords, b.coords)) <= 4e-12


def test_direct_orbit_memory_stays_bounded(exp_angle):
    cfg = FlowConfig(alpha=exp_angle, h=analytic_h_sample(1.0, 24, 1), v=8)
    x = TorusPoint((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8))
    orbit_direct(cfg, x, 100)  # caches that outlive the call fill here
    tracemalloc.start()
    try:
        orbit_direct(cfg, x, 50000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_walker_setup_is_built_once_per_config(exp_angle):
    cfg = _cfg(exp_angle, v=4)
    assert cfg._reading is cfg._reading
    other = replace(cfg, h=analytic_h_sample(1.0, 6, 12))
    assert other._reading is not cfg._reading
    x = TorusPoint((0.1, 0.2, 0.3, 0.4))
    orbit_direct(cfg, x, 5)  # fills cfg's set-up first
    fresh = FlowConfig(alpha=exp_angle, h=other.h, v=4)
    assert orbit_direct(other, x, 300).coords == orbit_direct(fresh, x, 300).coords
    assert orbit_direct(other, x, 300).coords != orbit_direct(cfg, x, 300).coords
    # 50 chained steps on one config equal 50 steps that each build their
    # own set-up; the base coordinate equals orbit_direct's, and the fibers
    # differ from it only by the order of the float sums
    p = r = x
    for _ in range(50):
        p, r = step(cfg, p), step(replace(cfg), r)
    assert p == r
    want = orbit_direct(cfg, x, 50)
    assert p.coords[0] == want.coords[0] and p.base_steps == want.base_steps == 50
    assert max(_circle(a, b) for a, b in zip(p.coords, want.coords)) <= 1e-13


@pytest.mark.parametrize("fn", [np.cos, np.sin])
def test_trig_bits_do_not_depend_on_array_position(fn):
    # the class route gathers values evaluated at other positions, and
    # _row_values evaluates a strided slice of fix-ups: a SIMD kernel whose
    # tail or unaligned path rounded differently would break bit identity
    xs = np.random.default_rng(7).random(256) * TWO_PI
    full = fn(xs).view(np.int64)
    buf = np.empty(128)
    for off in range(41):
        for length in range(1, 65):
            assert np.array_equal(fn(xs[off:off + length]).view(np.int64),
                                  full[off:off + length]), (off, length)
            out = buf[off + 3:off + 3 + length]
            fn(xs[off:off + length], out=out)
            assert np.array_equal(out.view(np.int64), full[off:off + length])
    for start, stride in [(0, 2), (1, 3), (5, 7), (2, 57)]:
        assert np.array_equal(fn(xs[start::stride]).view(np.int64), full[start::stride])
    # the narrow route of _row_values takes one cos, sin over a (width, K)
    # phase table: each column must equal the wide route's 1-D evaluation
    us = xs / TWO_PI
    for modes in [(1,), (1, 2, 3), tuple(range(1, 25)), (7, 2**53 + 5, 40)]:
        for width in (1, 2, 3, 5, 8, 17, 64, 256):
            table = np.multiply.outer(us[:width], np.array(modes, dtype=float))
            table = np.mod(table, 1.0) * TWO_PI
            got = fn(table)
            for k, m in enumerate(modes):
                col = np.mod(np.multiply(us[:width], m), 1.0) * TWO_PI
                assert np.array_equal(col.view(np.int64), table[:, k].view(np.int64))
                assert np.array_equal(got[:, k].view(np.int64), fn(col).view(np.int64)), \
                    (modes, width, k)


def _per_block_walk(cfg, x, n, rows):
    """The walker with every block evaluated in full: the class route's oracle.

    The per-block loop written out on its own: one phase_turns call per
    block and one cos, sin per mode over every step of it.
    """
    seed, start = _seed_of(cfg, x)
    modes, _, mean, weights = cfg._reading
    weights = weights[list(rows)].T[:, :, None]
    totals = [[] for _ in rows]
    out = []
    for done in range(0, n, BLOCK_STEPS):
        width = min(BLOCK_STEPS, n - done)
        xs = phase_turns(cfg.alpha, 1, range(start + done, start + done + width + 1), seed)
        block = np.zeros((len(rows), width))
        for m, w in zip(modes, weights):
            ang = np.mod(xs[:-1] * m, 1.0) * TWO_PI
            block += w.real * np.cos(ang)
            block -= w.imag * np.sin(ang)
        if rows and mean is not None:
            drift = phase_turns(mean, 1, range(done + 1, done + width + 1))
        for k, (i, row) in enumerate(zip(rows, block)):
            carry = fsum(totals[k])
            totals[k].append(fsum(row))
            np.cumsum(row, out=row)
            row += carry
            if mean is not None:
                row += drift
            row += x.coords[i + 1]
            np.mod(row, 1.0, out=row)
        out.append((xs[1:], block))
    return out


def test_class_route_matches_the_per_block_walk_bit_for_bit():
    h = FourierSeries({0: 0.3, 1: 0.2 - 0.1j, -1: 0.2 + 0.1j, 5: 0.05j, -5: -0.05j,
                       24: 0.3 - 0.1j, -24: 0.3 + 0.1j}, FINITE, 0.0, 2.0)
    row_sets = [range(7), [0, 2, 6], []]
    rng = Random(4)
    on_route = 0
    # x_1 = 0 puts a fix-up phase on 0, where the snapshot may round to 1.0;
    # seed 2^-54 makes 1/2 + 2^-54 a rounding midpoint that the snapshot's
    # error rounds one way for s < 0 and the other for s > 0
    seeds = [(x1, start) for x1 in (0.0, 0.8125) for start in (0, 4049, 2**64 + 5)]
    for seed_q1 in (2, 1):  # q_3 = 8102 with fix-ups at 4051 | s; q_3 = 57, dense fix-ups
        cfg = FlowConfig(alpha=build_exp_alpha(4, seed_q1=seed_q1), h=h, v=8)
        q = cfg.alpha.q(3)
        for x1, start in seeds + [(2.0**-54, -12001)]:
            fibers = tuple(rng.random() for _ in range(7))
            x = _tagged(cfg, (x1, *fibers), x1, start) if start else TorusPoint((x1, *fibers))
            for j, n in enumerate((q - 1, q, q + 1, 2 * q + 1, 50000)):
                rows = row_sets[(j + start) % 3]
                got = _walk(cfg, x, n, rows)
                want = _per_block_walk(cfg, x, n, rows)
                assert len(got) == len(want)
                for (xa, fa), (xb, fb) in zip(got, want):
                    assert np.array_equal(xa.view(np.int64), xb.view(np.int64))
                    assert np.array_equal(fa.view(np.int64), fb.view(np.int64))
                e = float(x1).as_integer_ratio()[1].bit_length() - 1
                reach = max(-start, start + n)
                on_route += matched_convergent(cfg.alpha, reach, e).q == q < n
    # every walk longer than q_3 on q_3 = 8102; on q_3 = 57 the walks of
    # seeds 0 and 0.8125 from steps 0 and 4049
    assert on_route == 7 * 3 + 2 * 2 * 3


_signed_zero = st.sampled_from([0.0, -0.0])


@st.composite
def _row_value_cases(draw):
    k = draw(st.integers(0, 8))
    small, huge = st.integers(1, 60), st.integers(2**53 + 1, 2**62)
    modes = tuple(draw(st.lists(small | huge, min_size=k, max_size=k)))
    part = _signed_zero | st.floats(-2, 2)
    table = np.array([[complex(draw(part), draw(part)) for _ in range(k)] for _ in range(7)],
                     dtype=complex).reshape(7, k)
    rows = sorted(draw(st.lists(st.integers(0, 6), unique=True)))
    at_cap = NARROW_ELEMENTS // (max(len(rows), 1) * (2 * k + 1))
    width = draw(st.sampled_from([0, 1, at_cap, at_cap + 1]) | st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.random(width)
    xs[rng.random(width) < 0.1] = 0.0
    stride = draw(st.sampled_from([1, 2, 57]))  # the fix-up slice block[:, first::d]
    return xs, modes, table[rows], stride

@settings(max_examples=60, deadline=None)
@given(case=_row_value_cases())
@example(case=(np.array([0.0, 0.25, 0.7]), (), np.zeros((3, 0), dtype=complex), 1))
@example(case=(np.array([0.5]), (3, 2**60 + 1), np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)]]), 2))
def test_row_value_routes_agree_bit_for_bit(case):
    # the narrow route's in-order accumulate must give the per-mode loop's
    # bits: every width, row subset, mode set, signed zero and out layout
    xs, modes, weights, stride = case
    shape = (len(weights), len(xs))
    outs = []
    for route in (_row_values_at_once, _row_values_by_mode, _row_values):
        buf = np.full((shape[0], shape[1] * stride + 1), np.nan)
        out = buf[:, 1::stride]
        route(xs, modes, weights, out)
        outs.append(out.copy().view(np.int64))
    assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])


def test_chained_steps_match_the_per_block_walk_bit_for_bit():
    # each step() is a one-step walk on the narrow route; _per_block_walk is
    # the per-mode loop with per-row finishing, so they must agree exactly
    h = FourierSeries({0: 0.3, 1: 0.2 - 0.1j, -1: 0.2 + 0.1j, 5: 0.05j, -5: -0.05j,
                       24: 0.3 - 0.1j, -24: 0.3 + 0.1j}, FINITE, 0.0, 2.0)
    angles = [build_exp_alpha(4, seed_q1=2), build_exp_alpha(4, seed_q1=1),
              build_poly_alpha(4, 6)]
    rng = Random(6)
    for alpha in angles:
        cfg = FlowConfig(alpha=alpha, h=h, v=8)
        p = TorusPoint(tuple(rng.random() for _ in range(8)))
        for _ in range(60):
            ((xs, block),) = _per_block_walk(cfg, p, 1, range(7))
            want = [float(xs[-1]), *block[:, -1].tolist()]
            want = np.array([0.0 if c == 1.0 else c for c in want])
            p = step(cfg, p)
            assert np.array_equal(np.array(p.coords).view(np.int64), want.view(np.int64))


def test_walker_step_counts_share_one_rule(exp_angle):
    cfg = _cfg(exp_angle, v=3)
    x, y = TorusPoint((0.1, 0.2, 0.3)), TorusPoint((0.35, 0.2, 0.3))
    b = FrequencyVector((1, 1, -1))
    # a float with an integer value is that count, on every walker caller
    assert orbit_direct(cfg, x, 5e4) == orbit_direct(cfg, x, 50000)
    assert birkhoff_avg(cfg, b, x, 5e4) == birkhoff_avg(cfg, b, x, 50000)
    assert distality_probe(cfg, x, y, 5e4) == distality_probe(cfg, x, y, 50000)
    for bad in (2.5, float("nan"), float("inf"), "5"):
        with pytest.raises(ValueError):
            orbit_direct(cfg, x, bad)
        with pytest.raises(ValueError):
            birkhoff_avg(cfg, b, x, bad)
        with pytest.raises(ValueError):
            distality_probe(cfg, x, y, bad)
    # past the cap the probe refuses at once instead of walking 10^9 steps
    t0 = time.perf_counter()
    for n in (DIRECT_STEP_LIMIT + 1, 10**9, 1e9):
        with pytest.raises(ResourceBudgetError):
            distality_probe(cfg, x, y, n)
    assert time.perf_counter() - t0 < 1.0


def test_one_step_picks_its_convergent_once(exp_angle, monkeypatch):
    # the walker's pick decides only the class route, which needs q_k < n,
    # so a one-step walk leaves the pick to phase_turns
    calls = []

    def counting(*args):
        calls.append(args)
        return reducing_convergent(*args)

    # the walker picks through contfrac.class_modulus, phase_turns directly
    monkeypatch.setattr(contfrac, "reducing_convergent", counting)
    cfg = _cfg(exp_angle, v=3)
    assert cfg._reading[2] is None  # c(0) = 1: no drift to take from phase_turns
    x = TorusPoint((0.1, 0.2, 0.3))
    want = orbit_direct(cfg, x, 1)
    calls.clear()
    assert step(cfg, x) == want
    assert len(calls) == 1
    # a long walk still picks q_3 = 8102 and takes the class route: one
    # table of 8102 classes, no block evaluated in full
    lengths = []

    def recording(angle, mult, ns, seed=0.0):
        lengths.append(len(ns))
        return phase_turns(angle, mult, ns, seed)

    monkeypatch.setattr(flow, "phase_turns", recording)
    calls.clear()
    orbit_direct(cfg, x, 50000)
    assert calls[0][:3] == (exp_angle, 1, 50000)
    assert lengths[0] == 8102 and BLOCK_STEPS + 1 not in lengths


def test_distality_memory_does_not_grow_with_the_walk(exp_angle):
    # the class tables are one block wide whatever the walk's length; one
    # float per step would add 1.5 MiB at n = 200000.  One fiber row keeps
    # the traced run short (fsum's per-element floats are slow to trace)
    cfg = FlowConfig(alpha=exp_angle, h=analytic_h_sample(1.0, 24, 1), v=2)
    x = TorusPoint((0.1, 0.2))
    y = TorusPoint((0.35, 0.2))
    distality_probe(cfg, x, y, 100)  # caches that outlive the call fill here
    peaks = []
    for n in (20000, 200000):
        tracemalloc.start()
        try:
            distality_probe(cfg, x, y, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 64 * 2**10


# ---------------------------------------------------------------------------
# pairing, metric, distality


def test_pairing_and_metric():
    x = TorusPoint((0.25, 0.5))
    assert pairing(FrequencyVector((1, 2)), x) == 0.25
    assert pairing(FrequencyVector.unit(2, 2), x) == 0.5
    with pytest.raises(ValueError):
        pairing(FrequencyVector((0, 0, 1)), x)
    y = TorusPoint((0.75, 0.75))
    assert metric_d(x, y) == 0.5 * 0.5 + 0.25 * 0.25
    # -1e-20 mod 1 rounds up to 1.0; the circle reads it as 0.0
    assert pairing(FrequencyVector((0, -1)), TorusPoint((0.5, 1e-20))) == 0.0
    with pytest.raises(ValueError):
        metric_d(x, TorusPoint((0.1, 0.2, 0.3)))


def test_distality_same_base_pins_distance(exp_angle):
    cfg = _cfg(exp_angle, v=3)
    x = TorusPoint((0.2, 0.3, 0.4))
    y = TorusPoint((0.2, 0.45, 0.4))
    pr = distality_probe(cfg, x, y, 400)
    assert pr.same_base
    assert abs(pr.bound - 0.0375) < 1e-15  # gap 0.15 at coordinate 2, weight 1/4
    assert pr.passed
    assert pr.spread < 1e-12  # increments cancel exactly on a shared stream


def test_distality_split_base(exp_angle):
    cfg = _cfg(exp_angle, v=3)
    x = TorusPoint((0.37, 0.3, 0.4))
    y = TorusPoint((0.62, 0.3, 0.4))
    pr = distality_probe(cfg, x, y, 400)
    assert not pr.same_base
    assert pr.bound == pytest.approx(0.125, abs=1e-15)
    assert pr.passed
    assert pr.min_distance >= pr.bound - 1e-12


def test_distality_guards(exp_angle):
    cfg = _cfg(exp_angle, v=3)
    x = TorusPoint((0.1, 0.2, 0.3))
    with pytest.raises(ValueError):
        distality_probe(cfg, x, x, 10)
    with pytest.raises(ValueError):
        distality_probe(cfg, x, TorusPoint((0.1, 0.2, 0.4)), -1)


# ---------------------------------------------------------------------------
# Birkhoff averages


def test_birkhoff_zero_vector(exp_angle):
    cfg = _cfg(exp_angle, v=3)
    x = TorusPoint((0.1, 0.2, 0.3))
    assert birkhoff_avg(cfg, FrequencyVector((0, 0, 0)), x, 1000) == 1.0 + 0j


def test_birkhoff_base_vector_oracle(exp_angle):
    cfg = _cfg(exp_angle, v=2)
    x = TorusPoint((0.0, 0.5))
    n = 3000
    got = birkhoff_avg(cfg, FrequencyVector((1, 0)), x, n)
    zs = [cis(frac_mod1(j, exp_angle)) for j in range(1, n + 1)]
    want = complex(fsum(z.real for z in zs), fsum(z.imag for z in zs)) / n
    assert abs(got - want) < 1e-9
    # the base rotation equidistributes, so the average is already small
    assert abs(got) < 0.05


def test_birkhoff_fiber_vector_against_stepping(exp_angle):
    cfg = _cfg(exp_angle, v=3)
    x = TorusPoint((0.3, 0.9, 0.2))
    b = FrequencyVector((0, 1, 1))
    n = 500
    got = birkhoff_avg(cfg, b, x, n)
    acc = 0j
    xn = x
    for _ in range(n):
        xn = step(cfg, xn)
        acc += cis(pairing(b, xn))
    assert abs(got - acc / n) < 1e-9


def test_birkhoff_guards(exp_angle):
    cfg = _cfg(exp_angle, v=2)
    x = TorusPoint((0.1, 0.2))
    with pytest.raises(ValueError):
        birkhoff_avg(cfg, FrequencyVector((0, 0, 1)), x, 100)
    with pytest.raises(ValueError):
        birkhoff_avg(cfg, FrequencyVector((1, 0)), x, 0)
    with pytest.raises(ResourceBudgetError):
        birkhoff_avg(cfg, FrequencyVector((1, 0)), x, DIRECT_STEP_LIMIT + 1)


# ---------------------------------------------------------------------------
# conjugacy


def test_conjugacy_straightens_slow_modes(poly_angle):
    from mobiusflow.harmonic import smooth_h_sample
    from mobiusflow.spectrum import classify_tau

    cfg = FlowConfig(alpha=poly_angle, h=smooth_h_sample(4.0, 60, 9), v=4)
    pair = build_conjugacy(cfg, 4)
    for m in pair.top.h.support():
        if m:
            assert classify_tau(m, poly_angle).theorem2_class == "M1"
    x = TorusPoint((0.3, 0.71, 0.05, 0.42))
    cert = check_conjugacy(pair, x, [1, 5, 50, 200])
    assert cert.passed
    for d, bud in zip(cert.defects, cert.budgets):
        assert d <= bud
    doc = cert.to_json()
    assert doc["pass"] is True and len(doc["defects"]) == 4


def test_conjugacy_psi_roundtrip(poly_angle):
    from mobiusflow.harmonic import smooth_h_sample

    cfg = FlowConfig(alpha=poly_angle, h=smooth_h_sample(4.0, 60, 9), v=3)
    pair = build_conjugacy(cfg, 4)
    x = TorusPoint((0.3, 0.71, 0.05))
    back = psi_inv(pair, psi_map(pair, x))
    assert back.coords[0] == x.coords[0]
    for a, b in zip(back.coords[1:], x.coords[1:]):
        assert _circle(a, b) < 1e-12


def test_conjugacy_pure_fast_part_needs_no_psi(poly_angle):
    # a ladder series on a fully sharp angle lands in M1 entirely
    h = furstenberg_h(poly_angle, [0.5, 0.25])
    cfg = FlowConfig(alpha=poly_angle, h=h, v=3)
    pair = build_conjugacy(cfg, 4)
    assert len(pair.psi.series) == 0
    assert pair.psi.identity_error_bound == 0.0
    x = TorusPoint((0.2, 0.4, 0.8))
    cert = check_conjugacy(pair, x, [1, 10, 100])
    assert cert.passed
    assert cert.defects == (0.0, 0.0, 0.0)  # top equals base bit for bit


def test_conjugacy_needs_positive_steps(poly_angle):
    from mobiusflow.harmonic import smooth_h_sample

    cfg = FlowConfig(alpha=poly_angle, h=smooth_h_sample(4.0, 20, 9), v=3)
    pair = build_conjugacy(cfg, 4)
    with pytest.raises(ValueError):
        check_conjugacy(pair, TorusPoint((0.1, 0.2, 0.3)), [0, 5])
