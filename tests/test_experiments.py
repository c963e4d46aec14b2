"""Correlation sums: reductions, kernel vs brute force, rational closed form.

The generic path is checked against three independent computations: the
sieve alone (b = 0), the twisted rotation sum (h = 0), and literal orbit
stepping with per-point pairing.  The stepped oracle itself drifts by about
an ulp per step, so those comparisons get the looser 5e-9 line while the
algebraically equivalent routes must agree to 1e-10 or exactly.  The fold of
h into its positive modes is checked against a loop over every coefficient
and against an mpmath sum of the terms one by one.
"""

import builtins
import math
import time
import warnings
from collections import Counter
from hashlib import sha256
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from mobiusflow import experiments, flow
from mobiusflow.contfrac import (
    TWO_PI,
    PrecisionFloorError,
    ResourceBudgetError,
    build_exp_alpha,
    build_poly_alpha,
    cis,
    dyadic_angle,
    explicit_angle,
    phase_turns,
    rational_angle,
    small_divisor,
)
from mobiusflow.experiments import (
    CSV_HEADER,
    CorrelationRecord,
    _drift,
    _plan,
    _setup,
    _weights,
    PREFIX_TERM_LIMIT,
    THETA_FLOOR,
    correlation_sum,
    irregularity_demo,
    rational_case,
    records_digest,
    records_to_csv,
    sweep,
    twisted_sum,
)
from mobiusflow.flow import (
    DIRECT_STEP_LIMIT,
    FlowConfig,
    FrequencyVector,
    TorusPoint,
    _coord_bases,
    _seed_of,
    pairing,
    step,
)
from mobiusflow.harmonic import FourierSeries, analytic_h_sample, furstenberg_h
from mobiusflow.moebius import (
    PHASE_CHUNK,
    MuTable,
    mu_phase_sum,
    sieve_full,
    sieve_segment,
)


@pytest.fixture(scope="module")
def exp_cfg(exp_angle):
    return FlowConfig(alpha=exp_angle, h=analytic_h_sample(1.0, 6, 11), v=4)


X4 = TorusPoint((0.3, 0.71, 0.05, 0.42))
B_MIXED = FrequencyVector((1, 2, 0, -1))


def _stepped_oracle(cfg, b, x, n_top, length):
    table = sieve_segment(n_top, n_top)
    acc = 0j
    xn = x
    for n in range(1, n_top + 1):
        xn = step(cfg, xn)
        if n > n_top - length:
            mu = table.mu(n)
            if mu:
                acc += mu * cis(pairing(b, xn))
    return acc


# ---------------------------------------------------------------------------
# exact reductions


RATIONAL = rational_angle(355, 1131)


def test_zero_vector_is_mertens(exp_cfg):
    full = sieve_full(1000)
    want = sum(full.mu(n) for n in range(501, 1001))
    zero = FrequencyVector((0, 0, 0, 0))
    rat_cfg = FlowConfig(alpha=RATIONAL, h=exp_cfg.h, v=4)
    for rec in (
        correlation_sum(exp_cfg, zero, X4, 1000, 500),
        correlation_sum(rat_cfg, zero, X4, 1000, 500),
        rational_case(rat_cfg, zero, X4, 1000, 500),
    ):
        assert rec.value == complex(want, 0.0)
        assert rec.value.imag == 0.0
        assert rec.theta == pytest.approx(math.log(500) / math.log(1000))


def test_empty_series_is_twisted_rotation(exp_angle):
    for angle, route in (
        (exp_angle, correlation_sum),
        (RATIONAL, correlation_sum),
        (RATIONAL, rational_case),
    ):
        cfg = FlowConfig(alpha=angle, h=FourierSeries({}), v=4)
        rec = route(cfg, FrequencyVector.unit(1, 4), X4, 2000, 900)
        tw = twisted_sum(2000, 900, 1, 0, angle, mult=1)
        assert rec.value == cis(0.3 % 1.0) * tw.value
        # a tail entry and a negative base multiplier keep the identity
        bmix = FrequencyVector((-2, 0, 3, 0))
        rec = route(cfg, bmix, X4, 2000, 900)
        tw = twisted_sum(2000, 900, 1, 0, angle, mult=-2)
        assert rec.value == cis((-2 * 0.3 + 3 * 0.05) % 1.0) * tw.value


# ---------------------------------------------------------------------------
# kernel path against literal stepping


def test_kernel_matches_stepped_orbit(exp_cfg):
    rec = correlation_sum(exp_cfg, B_MIXED, X4, 400, 400)
    want = _stepped_oracle(exp_cfg, B_MIXED, X4, 400, 400)
    assert abs(rec.value - want) < 1e-10


def test_kernel_matches_stepping_on_short_suffix(exp_cfg):
    rec = correlation_sum(exp_cfg, B_MIXED, X4, 600, 150)
    want = _stepped_oracle(exp_cfg, B_MIXED, X4, 600, 150)
    assert abs(rec.value - want) < 1e-10


def test_kernel_poly_ladder_series(poly_angle):
    h = furstenberg_h(poly_angle, [0.5, 0.25, 0.125], k_cut=3)
    cfg = FlowConfig(alpha=poly_angle, h=h, v=3)
    x = TorusPoint((0.3, 0.9, 0.2))
    b = FrequencyVector((0, 1, 1))
    rec = correlation_sum(cfg, b, x, 300, 300)
    want = _stepped_oracle(cfg, b, x, 300, 300)
    assert abs(rec.value - want) < 1e-10


def test_kernel_determinism(exp_cfg):
    a = correlation_sum(exp_cfg, B_MIXED, X4, 5000, 1200)
    b = correlation_sum(exp_cfg, B_MIXED, X4, 5000, 1200)
    assert a.value == b.value


def test_correlation_guards(exp_cfg, exp_angle):
    # both routes run the same guards
    rat_cfg = FlowConfig(alpha=RATIONAL, h=exp_cfg.h, v=4)
    for route, cfg in ((correlation_sum, exp_cfg), (rational_case, rat_cfg)):
        with pytest.raises(ValueError):
            route(cfg, B_MIXED, X4, 100, 101)
        with pytest.raises(ValueError):
            route(cfg, B_MIXED, X4, 100, 0)
        with pytest.raises(ValueError):
            route(cfg, FrequencyVector((1, 0, 0, 0, 1)), X4, 100, 100)
        with pytest.raises(ValueError):
            route(cfg, B_MIXED, TorusPoint((0.3, 0.71, 0.05)), 100, 100)
    # a 3-digit snapshot cannot carry residue streams a million steps
    shallow = explicit_angle([2, 9, 2, 1, 3])
    cfg = FlowConfig(alpha=shallow, h=FourierSeries({1: 0.1, -1: 0.1}), v=2)
    with pytest.raises(PrecisionFloorError):
        correlation_sum(cfg, FrequencyVector((1, 0)), TorusPoint((0.1, 0.2)), 10**6, 10)


def test_short_table_is_refused_on_every_phase_route(exp_angle):
    # [8501, 9000] neither reaches 10000 nor starts by 7001: no route may
    # read past either end of it
    short = sieve_segment(9000, 500)
    kernel = FlowConfig(alpha=exp_angle, h=analytic_h_sample(1.0, 6, 1), v=4)
    twisted = FlowConfig(alpha=exp_angle, h=FourierSeries({}), v=4)
    zero = FrequencyVector((0, 0, 0, 0))
    for cfg in (kernel, twisted):
        for b in (B_MIXED, zero):
            with pytest.raises(ValueError, match="table covers"):
                correlation_sum(cfg, b, X4, 10000, 3000, table=short)
    wide = sieve_segment(10000, 3000)
    early = MuTable(7001, 9999, wide.values[:-1])
    with pytest.raises(ValueError, match="table covers"):
        correlation_sum(kernel, B_MIXED, X4, 10000, 3000, table=early)
    own = correlation_sum(kernel, B_MIXED, X4, 10000, 3000)
    assert correlation_sum(kernel, B_MIXED, X4, 10000, 3000, table=wide).value == own.value
    # the rational closed form takes a table on the same terms
    rational = FlowConfig(alpha=rational_angle(1, 2), h=kernel.h, v=4)
    for b in (B_MIXED, zero):
        with pytest.raises(ValueError, match="table covers"):
            rational_case(rational, b, X4, 10000, 3000, table=short)
    own = rational_case(rational, B_MIXED, X4, 10000, 3000)
    assert rational_case(rational, B_MIXED, X4, 10000, 3000, table=wide).value == own.value


# ---------------------------------------------------------------------------
# rational closed form


def test_rational_matches_generic_at_scale(exp_cfg):
    cfg = FlowConfig(alpha=rational_angle(1, 2), h=exp_cfg.h, v=4)
    rec_g = correlation_sum(cfg, B_MIXED, X4, 100000, 1000)
    rec_r = rational_case(cfg, B_MIXED, X4, 100000, 1000)
    assert abs(rec_g.value - rec_r.value) < 1e-9
    assert rec_g.theta == rec_r.theta


def test_rational_matches_stepping(exp_cfg):
    cfg = FlowConfig(alpha=rational_angle(1, 2), h=exp_cfg.h, v=4)
    rec = rational_case(cfg, B_MIXED, X4, 500, 500)
    want = _stepped_oracle(cfg, B_MIXED, X4, 500, 500)
    assert abs(rec.value - want) < 5e-9


def test_alpha_zero_degenerates(exp_cfg):
    cfg = FlowConfig(alpha=rational_angle(0, 1), h=exp_cfg.h, v=4)
    rec_g = correlation_sum(cfg, B_MIXED, X4, 2000, 2000)
    rec_r = rational_case(cfg, B_MIXED, X4, 2000, 2000)
    assert abs(rec_g.value - rec_r.value) < 1e-9
    want = _stepped_oracle(cfg, B_MIXED, X4, 2000, 2000)
    assert abs(rec_g.value - want) < 5e-9


@pytest.mark.parametrize("seed", [0, 1])
def test_rational_case_has_no_prefix_drift(seed):
    # 1131 cycle points: the class prefixes of h must not pile up rounding
    cfg = FlowConfig(alpha=rational_angle(355, 1131), h=analytic_h_sample(1.0, 8, 3), v=4)
    x = TorusPoint(np.random.RandomState(seed).rand(4))
    n_top = 10**4
    length = math.ceil(n_top**0.8)
    rat = rational_case(cfg, B_MIXED, x, n_top, length)
    gen = correlation_sum(cfg, B_MIXED, x, n_top, length)
    assert abs(rat.value - gen.value) < 1e-11


@settings(max_examples=6, deadline=None)
@given(
    st.integers(2, 80).flatmap(
        lambda q: st.tuples(st.just(q), st.integers(1, q - 1).filter(lambda l: gcd(l, q) == 1))
    ),
    st.integers(0, 2**16),
)
@example(lq=(4, 1), seed=5)
def test_chunk_seams_match_rational_case(lq, seed):
    # small q puts some modes of h on the resonant (drift) path
    q, l = lq
    cfg = FlowConfig(alpha=rational_angle(l, q), h=analytic_h_sample(1.0, 8, seed), v=4)
    x = TorusPoint(np.random.RandomState(seed).rand(4))
    n_top, length = 40_000, 3 * PHASE_CHUNK + 77
    gen = correlation_sum(cfg, B_MIXED, x, n_top, length)
    rat = rational_case(cfg, B_MIXED, x, n_top, length)
    assert abs(gen.value - rat.value) < 1e-11


def test_rational_needs_exact_angle(exp_cfg):
    with pytest.raises(ValueError):
        rational_case(exp_cfg, B_MIXED, X4, 1000, 1000)


def test_rational_case_refuses_a_cycle_past_the_step_cap():
    # the class prefix steps all q cycle points, whatever the segment
    h = analytic_h_sample(1.0, 8, 0)
    cfg = FlowConfig(alpha=rational_angle(1, DIRECT_STEP_LIMIT + 1), h=h, v=4)
    for b in (B_MIXED, FrequencyVector((0, 0, 0, 0))):
        with pytest.raises(ResourceBudgetError, match="cycle points"):
            rational_case(cfg, b, X4, 10**4, 100)


def test_rational_case_caps_its_prefix_terms(monkeypatch):
    # the prefix sums K + 1 terms at each of the q cycle points: with K = 8
    # positive modes, a q just past PREFIX_TERM_LIMIT / 9 is refused at once,
    # before the segment is sieved
    h = analytic_h_sample(1.0, 8, 0)
    q = PREFIX_TERM_LIMIT // 9 + 1
    cfg = FlowConfig(alpha=rational_angle(1, q), h=h, v=4)
    monkeypatch.setattr(experiments, "sieve_segment", lambda *a: pytest.fail("sieved"))
    t0 = time.perf_counter()
    with pytest.raises(ResourceBudgetError, match="prefix terms"):
        rational_case(cfg, B_MIXED, X4, 10**6, 10**5)
    assert time.perf_counter() - t0 < 0.5


# ---------------------------------------------------------------------------
# the fold: h's positive modes with F_m = c(m) + conj c(-m)


def _unfolded_sum(cfg, b, x, n_top, length):
    """S with h read as all its coefficients, the mean and both signs of
    every mode, each with its own kernel weight and phase_turns call."""
    b1 = b.entries[0]
    const = sum(bv * xv for bv, xv in zip(b.entries, x.coords) if bv != 0)
    active = [(nu, bv) for nu, bv in enumerate(b.entries[1:], start=2) if bv != 0]
    nums, den = _coord_bases(cfg, *_seed_of(cfg, x))
    weights, base, slope = [], 0.0, mp.mpf(0)
    with mp.workdps(50):
        for m, c in cfg.h.items() if active else ():
            amp = c * sum(
                bv * mp.expjpi(2 * mp.mpf(m * nums[nu - 2] % den) / den) for nu, bv in active
            )
            zden = small_divisor(m, cfg.alpha)
            if zden == 0:
                slope += mp.re(amp)
                continue
            w = complex(amp) / zden
            weights.append((m, w))
            base -= w.real
        slope = mp.frac(slope)
        hi = float(slope)
        lo = float(slope - hi)

    def phases(ns):
        phase = np.full(len(ns), base)
        if b1:
            phase += phase_turns(cfg.alpha, b1, ns)
        if hi or lo:
            phase += phase_turns(dyadic_angle(hi), 1, ns) + ns * lo
        for m, w in weights:
            ang = TWO_PI * phase_turns(cfg.alpha, m, ns)
            phase += w.real * np.cos(ang) - w.imag * np.sin(ang)
        return phase

    table = sieve_segment(n_top, length)
    return cis(const % 1.0) * mu_phase_sum(table, n_top - length + 1, n_top, phases)


def _near_symmetric(c0, modes=5):
    """A series the constructor accepts with c(-m) = conj c(m) + 1e-13."""
    coeffs = {0: c0}
    for m in range(1, modes + 1):
        c = cis(0.37 * m) * 0.3 / m
        coeffs[m], coeffs[-m] = c, c.conjugate() + 1e-13
    return FourierSeries(coeffs)


FOLD_SERIES = [
    ("analytic", lambda: analytic_h_sample(1.0, 6, 11)),
    ("near-symmetric-c0-0", lambda: _near_symmetric(0.0)),
    ("near-symmetric-c0-0.3", lambda: _near_symmetric(0.3)),
    ("near-symmetric-c0-2.5", lambda: _near_symmetric(2.5)),
    ("mean-only", lambda: FourierSeries({0: 0.3})),
    # on 1/3 the modes 3 and 6 are resonant
    ("six-modes-c0-0.3", lambda: _near_symmetric(0.3, 6)),
]


@pytest.mark.parametrize("label, series", FOLD_SERIES, ids=[f[0] for f in FOLD_SERIES])
def test_folded_kernel_matches_the_unfolded_one(exp_angle, label, series):
    h = series()
    for angle in (exp_angle, rational_angle(1, 3)):
        cfg = FlowConfig(alpha=angle, h=h, v=4)
        for b in (B_MIXED, FrequencyVector((0, 1, 3, -1)), FrequencyVector((2, 0, 1, 0))):
            want = _unfolded_sum(cfg, b, X4, 10**4, 1200)
            routes = [correlation_sum] + [rational_case] * angle.exact
            for route in routes:
                got = route(cfg, b, X4, 10**4, 1200).value
                assert abs(got - want) <= 1e-12, (angle.kind, b, route.__name__)


def test_folded_kernel_keeps_the_exact_reductions(exp_angle):
    third = rational_angle(1, 3)
    for angle in (exp_angle, third):
        empty = FlowConfig(alpha=angle, h=FourierSeries({}), v=4)
        full = FlowConfig(alpha=angle, h=_near_symmetric(2.5, 6), v=4)
        zero = FrequencyVector((0, 0, 0, 0))
        routes = [correlation_sum] + [rational_case] * angle.exact
        for route in routes:
            for cfg, b in ((empty, B_MIXED), (full, zero), (empty, zero)):
                want = _unfolded_sum(cfg, b, X4, 10**4, 1200)
                assert route(cfg, b, X4, 10**4, 1200).value == want


def test_kernel_makes_one_phase_call_per_positive_frequency(exp_angle, monkeypatch):
    # analytic:1.0:24 with b_1 != 0: one call for b_1 and one per positive
    # mode (none resonant, and the mean 1 * 2 leaves no drift) per batch of
    # phases.  Below q_3 = 8102 the kernel runs per term, one batch per
    # chunk; past it, one batch for the class table and one per fix-up batch
    cfg = FlowConfig(alpha=exp_angle, h=analytic_h_sample(1.0, 24, 0), v=8)
    b = FrequencyVector((1, 1, 0, -1, 0, 0, 0, 2))
    x = TorusPoint((0.3, 0.71, 0.05, 0.42, 0.9, 0.1, 0.5, 0.25))
    calls, batches, rules = [0], [], []

    def counted(*args, **kwargs):
        calls[0] += 1
        return phase_turns(*args, **kwargs)

    def batched(table, n0, n_top, phases, rule=None):
        def per_batch(ns):
            batches.append(len(ns))
            return phases(ns)

        rules.append(rule)
        return mu_phase_sum(table, n0, n_top, per_batch, rule)

    monkeypatch.setattr(experiments, "phase_turns", counted)
    monkeypatch.setattr(experiments, "mu_phase_sum", batched)
    correlation_sum(cfg, b, x, 10**6, 8000)
    assert rules == [None] and len(batches) == 1 and calls[0] == 25
    calls[0] = 0
    batches.clear()
    correlation_sum(cfg, b, x, 10**6, 3 * PHASE_CHUNK)
    # 6189 classes hold mu != 0 off the fix-ups; 2 nonzero mu lie on n = 0 mod 4051
    assert rules == [None, (8102, 4051)] and batches == [6189, 2] and calls[0] == 25 + 25 * 1


def _routes(monkeypatch, cfg, b, n_top, length):
    """correlation_sum's value, and for each call that passed a class rule,
    the summer's value beside the per-term sum of the same phases closure."""
    seen = []

    def both(table, n0, top, phases, rule=None):
        got = mu_phase_sum(table, n0, top, phases, rule)
        if rule:
            seen.append((got, mu_phase_sum(table, n0, top, phases), *rule))
        return got

    monkeypatch.setattr(experiments, "mu_phase_sum", both)
    return correlation_sum(cfg, b, X4, n_top, length).value, seen


EXP_Q1 = build_exp_alpha(4, seed_q1=1)  # q_3 = 57 = 3 * 19


@pytest.mark.parametrize("angle, h, b, length, q, fixups", [
    # the route boundary: q_3 = 8102 < M is needed
    (None, analytic_h_sample(1.0, 6, 11), B_MIXED, 8000, None, None),
    (None, analytic_h_sample(1.0, 6, 11), B_MIXED, 8102, None, None),
    (None, analytic_h_sample(1.0, 6, 11), B_MIXED, 8103, 8102, {4051}),
    # modes 3, 6, .. take d_m = 19 and mode 19 takes d_m = 3: their gcd
    # d = 1 would recompute every n, so the row runs per term
    (EXP_Q1, analytic_h_sample(1.0, 24, 1), B_MIXED, 5000, 57, {57, 19, 3}),
    # h = 0 with b_1 != 0, and b_1 = 3 sharing the factor 3 with q_3 = 57
    (None, FourierSeries({}), FrequencyVector((-2, 0, 3, 0)), 20000, 8102, {4051}),
    (EXP_Q1, FourierSeries({}), FrequencyVector((3, 0, 3, 0)), 5000, 57, {19}),
    # mixed fix-up divisors on the class route: d_m = 57 and 19 give d = 19
    (EXP_Q1, analytic_h_sample(1.0, 6, 1), B_MIXED, 5000, 57, {57, 19}),
])
def test_class_route_matches_the_per_term_sum(exp_angle, monkeypatch, angle, h, b, length,
                                              q, fixups):
    # fixups holds the multipliers' fix-up divisors d_m; the rule's d is their gcd
    cfg = FlowConfig(alpha=angle or exp_angle, h=h, v=4)
    _, seen = _routes(monkeypatch, cfg, b, 10**5, length)
    if q is None or gcd(*fixups) == 1:
        assert not seen  # M <= q_3, or d = 1: per term, as before
        return
    ((got, want, got_q, d),) = seen
    assert (got_q, d) == (q, gcd(*fixups))
    # only the order of the sum changes: each H(r) cos rounds once
    assert abs(got - want) <= 1e-12


def test_drift_rows_stay_per_term(exp_angle, monkeypatch):
    # c(0) = 0.3 makes a drift {0.3 k}, which no class table can carry
    h = FourierSeries({0: 0.3, 1: 0.1 + 0.2j, -1: 0.1 - 0.2j, 2: 0.05j, -2: -0.05j})
    cfg = FlowConfig(alpha=exp_angle, h=h, v=4)
    value, seen = _routes(monkeypatch, cfg, B_MIXED, 10**5, 20000)
    assert not seen
    monkeypatch.setattr(experiments, "class_modulus", lambda *args: None)
    assert correlation_sum(cfg, B_MIXED, X4, 10**5, 20000).value == value


def test_kernel_matches_an_mpmath_per_term_oracle(exp_angle):
    # every term from its own closed form at 40 digits: all coefficients,
    # exact snapshot residues, no kernel weights and no chunking
    cfg = FlowConfig(alpha=exp_angle, h=analytic_h_sample(1.0, 6, 11), v=4)
    n_top = 10**4
    length = math.ceil(n_top**0.625)
    l, q = exp_angle.snapshot
    nums, den = _coord_bases(cfg, X4.coords[0], 0)
    table = sieve_segment(n_top, length)
    with mp.workdps(40):
        def e(num, d):
            return mp.expjpi(2 * mp.mpf(num % d) / d)

        active = [(nu, bv) for nu, bv in enumerate(B_MIXED.entries[1:], start=2) if bv]
        kernels = [
            (m, mp.mpc(c) * sum(bv * e(m * nums[nu - 2], den) for nu, bv in active),
             e(m * l, q) - 1)
            for m, c in cfg.h.items() if m
        ]
        const = sum(mp.mpf(bv) * xv for bv, xv in zip(B_MIXED.entries, X4.coords))
        drift = mp.mpf(cfg.h.coeff(0).real) * sum(bv for _, bv in active)
        want = mp.mpc(0)
        for n in range(n_top - length + 1, n_top + 1):
            if table.mu(n):
                tot = sum(a * (e(m * n * l, q) - 1) / z for m, a, z in kernels)
                ph = const + B_MIXED.entries[0] * mp.mpf(n * l % q) / q + n * drift + mp.re(tot)
                want += table.mu(n) * mp.expjpi(2 * mp.frac(ph))
        want = complex(want)
    assert abs(correlation_sum(cfg, B_MIXED, X4, n_top, length).value - want) <= 5e-13


# ---------------------------------------------------------------------------
# the plan: what (cfg, b, x) fix, built once


def _mp_weights(cfg, fibers, den):
    """_weights with every amplitude summed at 50 digits and rounded once,
    each e(m u_nu) from mp.expjpi on the exact residue: a route for the
    weights that shares no float arithmetic with _weights."""
    modes, fold, c0 = cfg.h.fold
    weights = []
    with mp.workdps(50):
        slope = mp.mpf(c0) * sum(bv for bv, _ in fibers)
        for m, f in zip(modes, fold):
            amp = mp.mpc(f) * sum(
                bv * mp.expjpi(2 * mp.mpf(m * num % den) / den) for bv, num in fibers
            )
            zden = small_divisor(m, cfg.alpha)
            if zden == 0:
                slope += mp.re(amp)
                continue
            weights.append((m, complex(amp) / zden))
    return weights, _drift(slope)


B_ONE_FIBER = FrequencyVector((0, 0, 2, 0))
B_THREE_FIBERS = FrequencyVector((1, 2, -1, 3))


@pytest.mark.parametrize("angle", [
    None,  # exp k4, seed_q1 = 2: q_3 = 8102, so M = 9000 takes the class route
    EXP_Q1,
    build_poly_alpha(4, 6),
    rational_angle(355, 1131),
    rational_angle(1, 3),  # modes 3 and 6 are resonant: a drift
], ids=["exp-k4-q1-2", "exp-k4-q1-1", "poly-4-6", "355/1131", "1/3"])
@pytest.mark.parametrize("b", [B_ONE_FIBER, B_THREE_FIBERS], ids=["one-fiber", "three-fibers"])
def test_float_amplitudes_match_the_50_digit_route(exp_angle, angle, b, monkeypatch):
    cfg = FlowConfig(alpha=angle or exp_angle, h=analytic_h_sample(1.0, 8, 3), v=4)
    _, _, fibers, den = _setup(cfg, b, X4)
    weights, drift = _weights(cfg, fibers, den)
    want, want_drift = _mp_weights(cfg, fibers, den)
    assert [m for m, _ in weights] == [m for m, _ in want]
    for (_, w), (_, ref) in zip(weights, want):
        assert abs(w - ref) <= 1e-15 * max(1.0, abs(ref))
    ks = np.arange(-5, 10**6, 997)
    if cfg.alpha.snapshot == (1, 3):
        assert [m for m, _ in weights] == [1, 2, 4, 5, 7, 8]
        # the resonant amplitudes reach the drift through the 50-digit slope
        assert drift is not None
        assert np.array_equal(drift(ks), want_drift(ks))
    else:
        assert drift is None and want_drift is None
    plan = _plan(cfg, b, X4)
    monkeypatch.setattr(experiments, "_weights", _mp_weights)
    mp_plan = _plan(cfg, b, X4)
    for n_top, length in ((10**4, 10**4), (10**5, 3000), (10**6, 9000)):
        got = plan.record(n_top, length).value
        assert abs(got - mp_plan.record(n_top, length).value) <= 1e-12


def test_sweep_builds_one_plan(exp_angle, monkeypatch):
    # analytic:1.0:24 on exp k4 has no resonant mode: three rows on each of
    # three thetas build one plan, which reads the fiber bases once, each
    # small divisor once, and no 50-digit cis
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(experiments, name, wrapper)

    for name in ("_plan", "_coord_bases", "small_divisor", "mp_cis"):
        counted(name, getattr(experiments, name))
    cfg = FlowConfig(alpha=exp_angle, h=analytic_h_sample(1.0, 24, 0), v=8)
    b = FrequencyVector((1, 1, 0, -1, 0, 0, 0, 2))
    x = TorusPoint((0.3, 0.71, 0.05, 0.42, 0.9, 0.1, 0.5, 0.25))
    per_theta = sweep(cfg, b, x, [0.7, 0.8, 0.9], [10**4, 10**5, 3 * 10**5])
    assert [[r.theta for r in recs] for recs in per_theta] == [[t] * 3 for t in (0.7, 0.8, 0.9)]
    assert counts == {"_plan": 1, "_coord_bases": 1, "small_divisor": 24}
    # on 1/3 the resonant modes 3 and 6 read 50-digit cis once per sweep,
    # once for each of the three fibers b touches
    counts.clear()
    cfg = FlowConfig(alpha=rational_angle(1, 3), h=analytic_h_sample(1.0, 8, 3), v=4)
    sweep(cfg, B_THREE_FIBERS, X4, [0.7], [10**3, 10**4, 10**5])
    assert counts == {"_plan": 1, "_coord_bases": 1, "small_divisor": 8, "mp_cis": 2 * 3}


def test_rational_case_reads_no_small_divisor(monkeypatch):
    # the closed form keeps its own 50-digit amplitudes, so the CLI's
    # cross-check compares two routes that share no kernel weight
    cfg = FlowConfig(alpha=rational_angle(1, 3), h=analytic_h_sample(1.0, 8, 3), v=4)
    want = rational_case(cfg, B_THREE_FIBERS, X4, 10**4, 2000).value

    def refuse(*args):
        raise AssertionError("rational_case called small_divisor")

    monkeypatch.setattr(experiments, "small_divisor", refuse)
    assert rational_case(cfg, B_THREE_FIBERS, X4, 10**4, 2000).value == want
    with pytest.raises(AssertionError, match="small_divisor"):
        correlation_sum(cfg, B_THREE_FIBERS, X4, 10**4, 2000)


def test_setup_builds_bases_only_for_the_fibers_b_touches(exp_angle, monkeypatch):
    # each base is a snapshot-sized integer (about 12k bits on exp k4); all
    # V - 1 were built and the untouched ones dropped, so --v 10^6 took
    # 1.6 GiB for a vector on two coordinates
    cfg = FlowConfig(alpha=exp_angle, h=analytic_h_sample(1.0, 6, 0), v=3000)
    x = TorusPoint(tuple((0.37 * i) % 1.0 for i in range(3000)))
    b = FrequencyVector((1, 2) + (0,) * 1500 + (-3,))
    built = []

    def recorded(*args):
        nums, den = _coord_bases(*args)
        built.append(len(nums))
        return nums, den

    monkeypatch.setattr(experiments, "_coord_bases", recorded)
    _, _, fibers, den = experiments._setup(cfg, b, x)
    assert built == [2]
    nums, want_den = _coord_bases(cfg, *_seed_of(cfg, x), 6)
    assert den == want_den and fibers == [(2, nums[0]), (-3, nums[1501])]


# ---------------------------------------------------------------------------
# sweeps and records


def test_sweep_shapes_and_window(exp_cfg):
    recs, = sweep(exp_cfg, B_MIXED, X4, [0.7], [10**3, 10**4, 10**5])
    assert [r.n_top for r in recs] == [10**3, 10**4, 10**5]
    for r in recs:
        assert r.length == min(r.n_top, math.ceil(r.n_top**0.7))
        assert r.theta == 0.7
        assert abs(r.value) <= r.length + 1e-9
        assert 0.0 <= r.normalized <= 1.0
        assert r.in_window
    full = sweep(exp_cfg, B_MIXED, X4, [1.0], [100])[0][0]
    assert full.length == 100 and full.in_window


def test_sweep_guards(exp_cfg):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sweep(exp_cfg, B_MIXED, X4, [THETA_FLOOR], [100])
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)
    with pytest.raises(ValueError):
        sweep(exp_cfg, B_MIXED, X4, [0.7], [100, 100])
    with pytest.raises(ValueError):
        sweep(exp_cfg, B_MIXED, X4, [0.7], [200, 100])


def test_csv_and_digest_reproducibility(exp_cfg):
    recs, = sweep(exp_cfg, B_MIXED, X4, [0.7], [10**3, 10**4])
    csv = records_to_csv(recs)
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("1000,")
    cells = lines[1].split(",")
    assert cells[3] == B_MIXED.label() == "1;2;0;-1"
    again, = sweep(exp_cfg, B_MIXED, X4, [0.7], [10**3, 10**4])
    assert [r.value for r in again] == [r.value for r in recs]
    assert records_digest(again) == records_digest(recs)
    # the digest pins everything except the wall-clock column
    assert len(records_digest(recs)) == 16


def _digest_by_formula(records):
    """records_digest's formula, with x serialized again for every record."""
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


def _records(points):
    b = FrequencyVector((1, 2, 0, -1))
    for i, x in enumerate(points):
        yield CorrelationRecord(10**3 * (i + 1), 100 + i, 0.7, b, x, complex(i, -0.1 / 3), 1.5)


def test_records_digest_keeps_its_formula():
    # rows on two different points, interleaved, so every rows_digest stays
    x1, x2 = TorusPoint((0.1, 0.2, 0.3, 0.4)), TorusPoint((0.5, 1 / 3, 0.0, 0.875))
    recs = list(_records([x1, x2, x1, x2, x2]))
    assert records_digest(recs) == _digest_by_formula(recs)

    def fresh():  # points made per record and dropped with it: no id is reused
        return (TorusPoint((0.01 * i, 0.5, 0.25, 0.125)) for i in range(8))

    assert records_digest(_records(fresh())) == _digest_by_formula(_records(fresh()))


def test_records_digest_serializes_each_point_once(monkeypatch):
    # V = 1000 coordinates on 6 rows: 1000 reprs, not 6000, and none more
    # for a second digest or the bytes the CLI's config digest hashes
    calls = Counter()

    def counting(obj):
        calls["repr"] += 1
        return builtins.repr(obj)

    monkeypatch.setattr(flow, "repr", counting, raising=False)
    x = TorusPoint(tuple(i / 1024 for i in range(1000)))
    first = records_digest(_records([x] * 6))
    assert calls["repr"] == 1000
    assert records_digest(_records([x] * 6)) == first
    assert x.serialized == ",".join(builtins.repr(c) for c in x.coords).encode()
    assert calls["repr"] == 1000


# ---------------------------------------------------------------------------
# irregularity demonstration


def test_irregularity_table(exp_cfg):
    table = irregularity_demo(exp_cfg, X4, k_range=(1, 2, 3), dyadic=(128, 256))
    assert len(table.rows) == 5
    assert [r[0] for r in table.rows][:3] == ["q_1", "q_2", "q_3"]
    assert all(abs(r[2]) <= 1.0 + 1e-12 for r in table.rows)
    assert table.spread >= 0.0
    doc = table.to_json()
    assert len(doc["rows"]) == 5
    assert doc["spread"] == table.spread


def test_irregularity_guards(exp_cfg, poly_angle):
    cfg_p = FlowConfig(alpha=poly_angle, h=analytic_h_sample(1.0, 4, 2), v=3)
    with pytest.raises(ValueError):
        irregularity_demo(cfg_p, TorusPoint((0.3, 0.9, 0.2)))
    with pytest.raises(ValueError):
        irregularity_demo(exp_cfg, X4, k_range=(4,))  # q_4 is astronomically big
