"""Series arithmetic, the h families, resonant splits, coboundary solving.

The heavy oracles are mpmath: series evaluation at 50 digits, Bessel
coefficients for the composed exponential, and the closed tail sums.
"""

from fractions import Fraction
from math import exp, fsum, pi
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from mobiusflow import harmonic
from mobiusflow.contfrac import (
    TWO_PI, PrecisionFloorError, ResourceBudgetError, cis, rational_angle,
)
from mobiusflow.harmonic import (
    FINITE,
    SAMPLE_MODE_LIMIT,
    CoboundaryDomainError,
    Decay,
    FourierSeries,
    analytic_h_sample,
    check_coboundary,
    check_coeff_bound,
    furstenberg_h,
    smooth_h_sample,
    solve_coboundary,
    split_resonant,
    split_tau,
    _tail_closed_form,
    _tail_uncovered_extra,
)
from mobiusflow.spectrum import SnapshotRangeError, classify, classify_tau


# ---------------------------------------------------------------------------
# decay declarations and series construction


def test_decay_validation():
    with pytest.raises(ValueError):
        Decay("cubic")
    with pytest.raises(ValueError):
        Decay("finite", 1.0)
    with pytest.raises(ValueError):
        Decay("analytic")
    with pytest.raises(ValueError):
        Decay("analytic", -1.0)
    with pytest.raises(ValueError):
        Decay("smooth", 3.0)
    assert Decay("analytic", 2.0).weight(3) == exp(-6.0)
    assert Decay("smooth", 4.0).weight(2) == 2.0**-4


def test_series_requires_conjugate_symmetry():
    with pytest.raises(ValueError):
        FourierSeries({1: 0.5})
    with pytest.raises(ValueError):
        FourierSeries({1: 0.5 + 0.1j, -1: 0.5 + 0.1j})
    with pytest.raises(ValueError):
        FourierSeries({0: 1j})
    ok = FourierSeries({1: 0.5 + 0.1j, -1: 0.5 - 0.1j})
    assert len(ok) == 2


def test_series_enforces_envelope():
    with pytest.raises(ValueError):
        FourierSeries({1: 2.0, -1: 2.0}, Decay("analytic", 1.0))
    fits = FourierSeries({1: 2.0, -1: 2.0}, Decay("analytic", 1.0), 0.0, 8.0)
    assert fits.decay_const == 8.0
    with pytest.raises(ValueError):
        FourierSeries({}, FINITE, -0.5)


def test_series_order_and_access():
    s = FourierSeries({2: 1j, -2: -1j, 1: 0.5, -1: 0.5, 0: 3.0})
    assert s.support() == (0, -1, 1, -2, 2)
    assert [m for m, _ in s.items()] == [0, -1, 1, -2, 2]
    assert s.support_radius() == 2
    assert s.coeff(2) == 1j and s.coeff(5) == 0j
    assert s.coeff(0) == 3.0
    # zero coefficients are dropped
    assert len(FourierSeries({1: 0.0, -1: 0.0})) == 0


def _mp_eval(s, t):
    """Re sum over +-m of c(m) e(m t) at 60 digits, m t taken exactly."""
    with mp.workdps(60):
        z = mp.fsum(mp.mpc(c) * mp.expjpi(2 * m * mp.mpf(t)) for m, c in s.items())
        return mp.re(z)


def test_eval_against_mpmath():
    cases = [
        {0: 0.25, 1: 0.3 - 0.2j, -1: 0.3 + 0.2j, 4: 0.05, -4: 0.05},
        # near-symmetric: c(-m) is conj c(m) up to the admitted 1e-12
        {0: -1.5, 2: 0.7 + 0.1j, -2: 0.7 - 0.1j + 3e-13j, 9: -0.2j, -9: 0.2j + 1e-13},
        # a tiny coefficient with no mirror
        {0: 0.5, 3: 0.4 + 0.3j, -3: 0.4 - 0.3j, 7: 5e-13, -11: -1e-12j},
        # modes at and past 2^64
        {1: 0.5, -1: 0.5, 2**64: 0.3j, -(2**64): -0.3j, 2**70 + 3: 0.1 - 0.2j,
         -(2**70 + 3): 0.1 + 0.2j},
    ]
    ts = [0.0, 0.1, 0.625, 0.99, 3.7, -0.3, -2.25, 2.0**-13, -(2.0**-20) * 3, 1e-9, -1e-300]
    for coeffs in cases:
        s = FourierSeries(coeffs)
        tol = 1e-14 * max(1.0, s.l1_norm())
        for t in ts:
            assert abs(s.eval(t) - float(_mp_eval(s, t))) <= tol, (coeffs, t)


_MODES = st.integers(1, 300) | st.integers(1, 2**70) | st.sampled_from(
    [2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64, 2**64 + 1]
)


@st.composite
def _eval_points(draw):
    """t = +-mant / 2^k with k around the kernel's edge at 64, or any t in [-4, 4]."""
    if draw(st.booleans()):
        return draw(st.floats(-4.0, 4.0))
    k = draw(st.integers(58, 70))
    mant = draw(st.integers(2**52, 2**53 - 1) | st.integers(1, 2**53 - 1))
    return draw(st.sampled_from([1.0, -1.0])) * mant * 2.0**-k


@settings(max_examples=300, deadline=None)
@given(
    t=_eval_points(),
    modes=st.lists(_MODES, min_size=1, max_size=12),
    parts=st.lists(st.floats(-1.0, 1.0), min_size=24, max_size=24),
)
def test_eval_phases_match_a_fraction_oracle(t, modes, parts):
    coeffs = {0: 0.5}
    for m, re, im in zip(modes, parts[::2], parts[1::2]):
        coeffs[m] = complex(re, im)
        coeffs[-m] = complex(re, -im)
    s = FourierSeries(coeffs, FINITE, 0.0, 2.0)
    pos = sorted({m for m in coeffs if m > 0 and coeffs[m] != 0})
    assert s.fold.modes == tuple(pos) and s.fold.mean == 0.5
    assert s.fold.coeffs == tuple(coeffs[m] + coeffs[-m].conjugate() for m in pos)
    want = np.array([float(Fraction(m) * Fraction(t) % 1) for m in pos])
    got = s._turns(t)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # eval is one fsum of c(0) and Re(F_m e(m t)) per positive mode
    ang = TWO_PI * want
    fold = np.array(s.fold.coeffs, dtype=complex)
    terms = fold.real * np.cos(ang) - fold.imag * np.sin(ang)
    assert s.eval(t) == fsum([0.5, *terms.tolist()])


# |t| below 2^-12, subnormals among them, whose rows leave the kernel for
# phase_turns; 2^-12 itself is the kernel's k = 64 edge
_TINY_POINTS = st.floats(-(2.0**-12), 2.0**-12) | st.sampled_from(
    [5e-324, -5e-324, 2.0**-1022, 2.0**-13, 2.0**-12, 2.0**-12 * (1 - 2.0**-53), 3 * 2.0**-40]
)


def _series_on(modes, parts):
    coeffs = {0: 0.5}
    for m, re, im in zip(modes, parts[::2], parts[1::2]):
        coeffs[m] = complex(re, im)
        coeffs[-m] = complex(re, -im)
    return FourierSeries(coeffs, FINITE, 0.0, 2.0)


@settings(max_examples=200, deadline=None)
@given(
    ts=st.lists(_eval_points() | _TINY_POINTS, min_size=1, max_size=10),
    modes=st.lists(_MODES, min_size=1, max_size=12),
    parts=st.lists(st.floats(-1.0, 1.0), min_size=24, max_size=24),
)
def test_batched_eval_is_the_scalar_eval_row_by_row(ts, modes, parts):
    # a block of points, kernel rows and phase_turns rows mixed, gives each
    # row the bits of the one-point call and of the Fraction oracle
    s = _series_on(modes, parts)
    pos = s.fold.modes
    block = np.array(ts)
    turns = s._turns(block)
    want = np.array([[float(Fraction(m) * Fraction(t) % 1) for m in pos] for t in ts])
    assert turns.shape == (len(ts), len(pos))
    assert np.array_equal(turns.view(np.int64), want.view(np.int64))
    one = np.array([s.eval(t) for t in ts])
    assert all(type(s.eval(t)) is float for t in ts[:1])
    assert np.array_equal(s.eval(block).view(np.int64), one.view(np.int64))


def test_eval_blocks_of_any_length_and_refuses_non_finite_points():
    s = FourierSeries({0: 0.25, 3: 0.5j, -3: -0.5j}, FINITE, 0.0, 1.0)
    assert s.eval(np.empty(0)).shape == (0,)
    assert s._turns(0.1).shape == (1,) and s._turns(np.array([0.1])).shape == (1, 1)
    empty = FourierSeries({})
    assert empty.eval(0.3) == 0.0 and empty.eval(np.array([0.1, 5e-324])).tolist() == [0.0, 0.0]
    for bad in (float("nan"), float("inf"), np.array([0.1, -float("inf")])):
        with pytest.raises(ValueError, match="non-finite"):
            s.eval(bad)


def test_scale_and_norms():
    s = FourierSeries({1: 0.5, -1: 0.5}, Decay("analytic", 0.2), 0.25, 1.0)
    assert s.l1_norm() == 1.0


# ---------------------------------------------------------------------------
# the h families


def test_furstenberg_support_and_magnitudes(exp_angle):
    h = furstenberg_h(exp_angle, [0.5, 0.25])
    assert set(h.support()) == {2, -2, 9, -9}
    l, q = exp_angle.snapshot
    weights = {1: 0.5, 2: 0.25}
    with mp.workdps(len(str(q)) + 20):
        alpha = mp.mpf(l) / q
        for k, t in weights.items():
            qk = exp_angle.q(k)
            want = -t * (mp.e ** (2j * mp.pi * qk * alpha) - 1)
            got = h.coeff(qk)
            assert abs(got - complex(float(mp.re(want)), float(mp.im(want)))) < 1e-15
            # |1 - e(q_k alpha)| q_{k+1} lands in (2, 2 pi] by the two-sided bounds
            product = abs(got) / t * exp_angle.q(k + 1)
            assert 2.0 < product <= 2 * pi * (1 + 1e-12)
            assert h.coeff(-qk) == got.conjugate()


def test_furstenberg_guards(exp_angle):
    with pytest.raises(SnapshotRangeError):
        furstenberg_h(exp_angle, {4: 1.0})
    with pytest.raises(ValueError):
        furstenberg_h(exp_angle, {2: 1.0}, k_cut=1)
    with pytest.raises(ValueError):
        furstenberg_h(exp_angle, {1: 2.0}, t_bound=1.0)
    assert len(furstenberg_h(exp_angle, {1: 0.0})) == 0


@pytest.mark.parametrize("lq", [(5, 8), (13, 21), (2, 7), (355, 1131)])
def test_furstenberg_declares_the_envelope_of_a_short_ladder(lq):
    # |1 - e(q_k alpha)| reaches 2 when ||q_k alpha|| is near 1/2: on 5/8
    # the unit weights made |c(1)| = 1.848 against a declared envelope of 1
    angle = rational_angle(*lq)
    k_cut = angle.k_star - 1
    h = furstenberg_h(angle, [1.0] * k_cut, k_cut=k_cut)
    top = max(abs(c) for _, c in h.items())
    assert h.decay_const == max(1.0, top)
    assert h.decay == FINITE and h.truncation_error == 0.0


def test_furstenberg_precision_floor(exp_angle, poly_angle):
    # ||q_3 alpha|| ~ e^-8102 underflows any float
    with pytest.raises(PrecisionFloorError):
        furstenberg_h(exp_angle, {3: 1.0})
    # the poly ladder only reaches ~1e-315 at depth 5: still representable
    deep = furstenberg_h(poly_angle, [1.0, 0.5, 0.25, 0.125, 0.0625])
    assert poly_angle.q(5) in set(deep.support())


def test_analytic_sample_shape():
    h = analytic_h_sample(1.0, 40, 11)
    assert h.coeff(0) == 1.0
    assert len(h) == 81
    for m in (1, 7, 40):
        assert abs(h.coeff(m)) == pytest.approx(exp(-m), rel=1e-14)
        assert h.coeff(-m) == h.coeff(m).conjugate()
    assert h.truncation_error == 4.944886438217784e-18
    x = exp(-1.0)
    assert h.truncation_error == 2.0 * x**41 / (1.0 - x)
    with pytest.raises(ValueError):
        analytic_h_sample(0.0, 10, 1)
    with pytest.raises(ValueError):
        analytic_h_sample(1.0, 0, 1)
    # e^-eta rounds to 1 for eta up to 2^-54: the tail bound would divide by 0
    with pytest.raises(ValueError, match="e\\^-eta rounds to 1"):
        analytic_h_sample(1e-300, 3, 1)


def test_smooth_sample_shape():
    h = smooth_h_sample(4.0, 100, 3)
    assert h.coeff(0) == 1.0
    assert abs(h.coeff(10)) == pytest.approx(1e-4, rel=1e-14)
    assert h.truncation_error == 6.666666666666666e-07
    assert h.truncation_error == 2.0 * 100.0**-3 / 3.0
    with pytest.raises(ValueError):
        smooth_h_sample(3.0, 10, 1)


def test_samples_refuse_infinite_envelopes():
    # eta = inf left c(0) alone and tau = inf a lone mode 1, without a word
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="eta must be finite"):
            analytic_h_sample(bad, 3, 1)
        with pytest.raises(ValueError, match="tau must be finite"):
            smooth_h_sample(bad, 3, 1)


def test_samples_refuse_m_cut_past_the_cap_before_any_mode(monkeypatch):
    # m_cut = 10^8 would store 2 * 10^8 coefficients; the cap is checked first
    def no_modes(*args):
        raise AssertionError("a mode was sampled")

    monkeypatch.setattr(harmonic, "_random_phase_sample", no_modes)
    for sample, shape in ((analytic_h_sample, 1.0), (smooth_h_sample, 4.0)):
        with pytest.raises(ResourceBudgetError, match="10000 cap"):
            sample(shape, SAMPLE_MODE_LIMIT + 1, 1)
        with pytest.raises(ResourceBudgetError):
            sample(shape, 10**8, 1)
    monkeypatch.undo()
    assert SAMPLE_MODE_LIMIT == 10**4
    assert len(smooth_h_sample(4.0, SAMPLE_MODE_LIMIT, 1)) == 2 * SAMPLE_MODE_LIMIT + 1


@pytest.mark.parametrize("m_cut", [700, 727, 730, 740, 1000, 5000])
def test_analytic_samples_build_past_the_subnormal_line(m_cut):
    # e^-m is subnormal from m = 709 and 0 from m = 746.  Rounding the parts
    # of a subnormal c(m) moved |c(m)| past its envelope by far more than a
    # relative 1e-9, so seeds 1, 2, 4 and 5 raised ValueError from m_cut = 727
    decay = Decay("analytic", 1.0)
    for seed in range(6):
        h = analytic_h_sample(1.0, m_cut, seed)
        # every coefficient is still e^-m e(phase_m), rounded as before
        rng = Random(seed)
        for m in range(1, m_cut + 1):
            z, mag = cis(rng.random()), decay.weight(m)
            assert h.coeff(m) == complex(mag * z.real, mag * z.imag)
        assert h.coeff(0) == 1.0 and h.support_radius() <= 745


def test_envelope_slack_is_absolute_only_below_the_normal_range():
    tiny = 2.0**-1074
    # a subnormal coefficient two least subnormals past its envelope is rounding
    FourierSeries({7: 1e-316 + 2 * tiny, -7: 1e-316 + 2 * tiny}, FINITE, 0.0, 1e-316)
    # further past, or a normal coefficient past 1e-9 of its envelope, is refused
    with pytest.raises(ValueError, match="envelope"):
        FourierSeries({7: 1e-320, -7: 1e-320}, FINITE, 0.0, 1e-321)
    with pytest.raises(ValueError, match="envelope"):
        FourierSeries({7: 1e-300 * (1 + 1e-8), -7: 1e-300 * (1 + 1e-8)}, FINITE, 0.0, 1e-300)


def test_samples_are_seeded():
    assert analytic_h_sample(1.0, 10, 5) == analytic_h_sample(1.0, 10, 5)
    assert analytic_h_sample(1.0, 10, 5) != analytic_h_sample(1.0, 10, 6)


# ---------------------------------------------------------------------------
# splits


def test_split_resonant_partition(exp_angle):
    h = analytic_h_sample(1.0, 40, 11)
    h1, h2, mean = split_resonant(h, exp_angle)
    assert mean == 1.0
    assert set(h1.support()) == {9, -9, 18, -18, 27, -27, 36, -36}
    assert len(h2) == 72
    assert not set(h1.support()) & set(h2.support())
    for m in h.support():
        if m:
            assert h.coeff(m) == h1.coeff(m) + h2.coeff(m)
            assert classify(m, exp_angle).resonant == (h1.coeff(m) != 0)
    assert h1.decay == h.decay and h1.truncation_error == h.truncation_error


def test_split_tau_partition(poly_angle):
    h = smooth_h_sample(4.0, 200, 3)
    m1, rest, mean = split_tau(h, poly_angle)
    assert mean == 1.0
    assert len(m1) == 38 and len(rest) == 362
    for m in m1.support():
        assert classify_tau(m, poly_angle).theorem2_class == "M1"
    for m in rest.support():
        assert classify_tau(m, poly_angle).theorem2_class in ("M2", "M3")


# ---------------------------------------------------------------------------
# coboundaries


def _max_defect(g, rhs, alpha_float, samples=400, seed=1234):
    rng = Random(seed)
    return max(g.defect(rng.random(), rhs, alpha_float) for _ in range(samples))


def test_flat_coboundary_identity(exp_angle):
    h = analytic_h_sample(1.0, 40, 11)
    _, h2, _ = split_resonant(h, exp_angle)
    g = solve_coboundary(h2, exp_angle)
    assert g.identity_error_bound == 2.0561815269208592e-16
    assert len(g.series) == len(h2)
    budget = g.identity_error_bound + 1e-12 * max(1.0, g.series.l1_norm())
    assert _max_defect(g, h2, exp_angle.float_value) <= budget
    assert g.source["mode"] == "flat-split"


def test_finite_coboundary_is_exact_bound_zero(exp_angle):
    h = furstenberg_h(exp_angle, [0.3, 0.2])
    _, h2, mean = split_resonant(h, exp_angle)
    assert mean == 0.0
    g = solve_coboundary(h2, exp_angle)
    assert g.identity_error_bound == 0.0
    assert set(g.series.support()) == {2, -2}
    # the ladder construction makes g's coefficient the weight itself
    assert abs(g.series.coeff(2) + 0.3) < 1e-15
    assert _max_defect(g, h2, exp_angle.float_value, samples=200) < 1e-12


def test_tau_coboundary_identity(poly_angle):
    h = smooth_h_sample(4.0, 200, 3)
    _, rest, _ = split_tau(h, poly_angle)
    g = solve_coboundary(rest, poly_angle, tau=4)
    assert g.identity_error_bound == 0.00017544106429277166
    budget = g.identity_error_bound + 1e-12 * max(1.0, g.series.l1_norm())
    assert _max_defect(g, rest, poly_angle.float_value) <= budget
    assert g.source["mode"] == "tau-split:4"


@pytest.mark.parametrize("case", ["shared", "separate"])
def test_batched_defect_is_the_scalar_defect(case, exp_angle, monkeypatch):
    # g solves every mode of h2, so g(t) and h2(t) read one phase table; h,
    # with its resonant modes and mean, has other modes and takes its own
    h = analytic_h_sample(1.0, 745, 0)
    _, h2, _ = split_resonant(h, exp_angle)
    g = solve_coboundary(h2, exp_angle)
    rhs = {"shared": h2, "separate": h}[case]
    assert (g.series.fold.modes == rhs.fold.modes) == (case == "shared")
    alpha = exp_angle.float_value
    rng = Random(5)
    ts = [rng.random() for _ in range(50)] + [0.0, 2.0**-12, 2.0**-30, 5e-324, -0.25]
    one = np.array([g.defect(t, rhs, alpha) for t in ts])
    assert type(g.defect(ts[0], rhs, alpha)) is float
    calls = []
    waves = FourierSeries._waves
    monkeypatch.setattr(FourierSeries, "_waves", lambda s, t: calls.append(t) or waves(s, t))
    block = g.defect(np.array(ts), rhs, alpha)
    assert np.array_equal(block.view(np.int64), one.view(np.int64))
    assert len(calls) == {"shared": 2, "separate": 3}[case]


def test_check_coboundary_certificate(exp_angle):
    _, h2, _ = split_resonant(analytic_h_sample(1.0, 24, 0), exp_angle)
    g = solve_coboundary(h2, exp_angle)
    rows = harmonic.DEFECT_BLOCK // len(h2.fold.modes)
    alpha = exp_angle.float_value
    for samples in (1, rows, rows + 1, 2 * rows + 5):
        cert = check_coboundary(g, h2, exp_angle, samples, 7)
        rng = Random(7)
        worst = max(g.defect(rng.random(), h2, alpha) for _ in range(samples))
        assert cert.worst_defect.hex() == worst.hex()
        assert (cert.samples, cert.seed, cert.psi_support) == (samples, 7, len(g.series))
        assert cert.budget == g.identity_error_bound + 1e-12
        assert cert.passed is (worst <= cert.budget) is True
    with pytest.raises(ValueError, match="samples must be >= 1"):
        check_coboundary(g, h2, exp_angle, 0, 7)


def test_check_coboundary_fails_on_a_nan_defect(exp_angle, monkeypatch):
    # the one-point loop kept max(worst, nan) = worst, so a nan defect passed
    _, h2, _ = split_resonant(analytic_h_sample(1.0, 24, 0), exp_angle)
    g = solve_coboundary(h2, exp_angle)
    defect = harmonic.CoboundaryFunction.defect

    def poisoned(self, t, rhs, alpha_float):
        out = defect(self, t, rhs, alpha_float)
        out[len(out) // 2] = float("nan")
        return out

    monkeypatch.setattr(harmonic.CoboundaryFunction, "defect", poisoned)
    cert = check_coboundary(g, h2, exp_angle, 1000, 0)
    assert cert.worst_defect != cert.worst_defect and cert.passed is False
    assert cert.to_json()["worst_defect"] is None


def test_analytic_tau_tail_matches_mpmath(poly_angle):
    h = analytic_h_sample(1.0, 40, 11)
    _, rest, _ = split_tau(h, poly_angle)
    g = solve_coboundary(rest, poly_angle, tau=4)
    with mp.workdps(40):
        true_tail = 2.0 * mp.nsum(
            lambda m: m ** (mp.mpf(4) / 3) * mp.e**-m, [41, mp.inf]
        )
    # conservative: at least the true closed sum, within a tenth of a percent
    assert float(true_tail) <= g.identity_error_bound <= float(true_tail) * 1.001


def test_flat_split_smooth_tail_closed_form(exp_angle):
    # check coboundary --h smooth:4.0:20 on exp k4: the flat split bounds each
    # divisor by 2/|m|, so the bound is 2 sum_{m > 20} m^(1 - tau), at most
    # 2 * 20^(2 - tau) / (tau - 2); the cut 20 reaches past q_2 = 9
    _, rest, _ = split_resonant(smooth_h_sample(4.0, 20, 0), exp_angle)
    assert rest.support_radius() == 20
    g = solve_coboundary(rest, exp_angle)
    assert g.identity_error_bound == pytest.approx(2.0 * 20.0**-2.0 / 2.0, rel=1e-15)
    with mp.workdps(30):
        true_tail = 2.0 * mp.nsum(lambda m: m ** (1 - mp.mpf(4)), [21, mp.inf])
    assert float(true_tail) <= g.identity_error_bound <= float(true_tail) * 1.1


def test_uncovered_divisible_modes_take_their_exact_divisors(exp_angle):
    # check coboundary --h analytic:1.0:5 on exp k4: the cut 5 sits below
    # q_2 = 9, so the multiples 6 and 8 of q_1 = 2 in (5, 9) have no generic
    # divisor bound and enter with 4 e^-m / |e(m alpha) - 1|, the divisor
    # taken here from mpmath on the snapshot
    assert (exp_angle.q(1), exp_angle.q(2)) == (2, 9)
    l, q = exp_angle.snapshot

    def direct(ms):
        with mp.workdps(60):
            alpha = mp.mpf(l) / q
            return fsum(4.0 * exp(-m) / float(2 * abs(mp.sinpi(m * alpha))) for m in ms)

    h = analytic_h_sample(1.0, 5, 0)
    _, flat, _ = split_resonant(h, exp_angle)
    assert flat.support_radius() == 5
    extra = _tail_uncovered_extra(exp_angle, flat.decay, flat.decay_const, 5, None)
    assert extra == pytest.approx(direct([6, 8]), rel=1e-12)
    g = solve_coboundary(flat, exp_angle)
    assert g.identity_error_bound == _tail_closed_form(flat.decay, 1.0, 5, None) + extra
    # the tau split keeps only the slow band M2: 6 and 8 are M2 at tau = 10
    # and in the fast band M1 at tau = 4, where nothing is added
    for tau, want in ((10, [6, 8]), (4, [])):
        assert {classify_tau(m, exp_angle, tau).theorem2_class for m in (6, 8)} == {
            "M2" if want else "M1"
        }
        _, slow, _ = split_tau(h, exp_angle, tau)
        assert slow.support_radius() == 5
        extra = _tail_uncovered_extra(exp_angle, slow.decay, slow.decay_const, 5, tau)
        assert extra == pytest.approx(direct(want), rel=1e-12, abs=0.0)


def test_coboundary_domain_errors(exp_angle, poly_angle):
    h = analytic_h_sample(1.0, 40, 11)
    with pytest.raises(CoboundaryDomainError):
        solve_coboundary(h, exp_angle)  # mean still present
    h1, _, _ = split_resonant(h, exp_angle)
    with pytest.raises(CoboundaryDomainError):
        solve_coboundary(h1, exp_angle)  # resonant coefficients
    m1, _, _ = split_tau(smooth_h_sample(4.0, 60, 2), poly_angle)
    with pytest.raises(CoboundaryDomainError):
        solve_coboundary(m1, poly_angle, tau=4)


def test_coboundary_decay_too_weak(poly_angle):
    weak = smooth_h_sample(3.2, 50, 5)
    _, rest, _ = split_tau(weak, poly_angle, tau=7)
    with pytest.raises(ValueError):
        solve_coboundary(rest, poly_angle, tau=7)


def test_coboundary_rational_resonance():
    # a divisible band-2 frequency inside a rational ladder is refused
    angle = rational_angle(5, 17)  # q ladder 1, 3, 7, 17
    h = FourierSeries({14: 0.1, -14: 0.1})
    with pytest.raises(CoboundaryDomainError):
        solve_coboundary(h, angle)
    with pytest.raises(SnapshotRangeError):
        solve_coboundary(FourierSeries({17: 0.1, -17: 0.1}), angle)


# ---------------------------------------------------------------------------
# coefficient decay of composed exponentials


def test_coeff_bound_bessel_oracle():
    f = FourierSeries({1: 0.25, -1: 0.25})  # f(t) = 0.5 cos(2 pi t)
    cert = check_coeff_bound(f, 64)
    assert cert.passed
    assert cert.rhs == pytest.approx(24 * pi**2, rel=1e-12)
    # c(m) of e(f) = e^{i pi cos} is i^m J_m(pi)
    with mp.workdps(30):
        want_lhs = {m: float(abs(mp.besselj(m, mp.pi))) * m * m for m in (1, 2, 3, 4)}
    worst_true = max(want_lhs.values())
    assert cert.worst_lhs == pytest.approx(worst_true, rel=1e-6)
    assert abs(cert.worst_m) == max(want_lhs, key=want_lhs.get)
    doc = cert.to_json()
    assert doc["pass"] is True and doc["grid"] == 4096


def test_coeff_bound_validation():
    f = FourierSeries({1: 0.25, -1: 0.25})
    with pytest.raises(ValueError):
        check_coeff_bound(f, 0)
    with pytest.raises(ValueError):
        check_coeff_bound(f, 2048)
    assert check_coeff_bound(f, 2047).m_limit == 2047
