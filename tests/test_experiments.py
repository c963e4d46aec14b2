"""Correlation sums: reductions, kernel vs brute force, rational closed form.

The generic path is checked against three independent computations: the
sieve alone (b = 0), the twisted rotation sum (h = 0), and literal orbit
stepping with per-point pairing.  The stepped oracle itself drifts by about
an ulp per step, so those comparisons get the looser 5e-9 line while the
algebraically equivalent routes must agree to 1e-10 or exactly.
"""

import math
import warnings
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mobiusflow.contfrac import (
    PrecisionFloorError,
    cis,
    explicit_angle,
    rational_angle,
)
from mobiusflow.experiments import (
    CSV_HEADER,
    THETA_FLOOR,
    correlation_sum,
    irregularity_demo,
    rational_case,
    records_digest,
    records_to_csv,
    sweep,
)
from mobiusflow.flow import FlowConfig, FrequencyVector, TorusPoint, pairing, step
from mobiusflow.harmonic import FourierSeries, analytic_h_sample, furstenberg_h
from mobiusflow.moebius import PHASE_CHUNK, sieve_full, sieve_segment, twisted_sum


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
    with pytest.raises(ValueError, match="table covers"):
        correlation_sum(kernel, B_MIXED, X4, 10000, 3000, table=wide.restrict(7001, 9999))
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


# ---------------------------------------------------------------------------
# sweeps and records


def test_sweep_shapes_and_window(exp_cfg):
    recs = sweep(exp_cfg, B_MIXED, X4, 0.7, [10**3, 10**4, 10**5])
    assert [r.n_top for r in recs] == [10**3, 10**4, 10**5]
    for r in recs:
        assert r.length == min(r.n_top, math.ceil(r.n_top**0.7))
        assert r.theta == 0.7
        assert abs(r.value) <= r.length + 1e-9
        assert 0.0 <= r.normalized <= 1.0
        assert r.in_window
    full = sweep(exp_cfg, B_MIXED, X4, 1.0, [100])[0]
    assert full.length == 100 and full.in_window


def test_sweep_guards(exp_cfg):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sweep(exp_cfg, B_MIXED, X4, THETA_FLOOR, [100])
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)
    with pytest.raises(ValueError):
        sweep(exp_cfg, B_MIXED, X4, 0.7, [100, 100])
    with pytest.raises(ValueError):
        sweep(exp_cfg, B_MIXED, X4, 0.7, [200, 100])


def test_csv_and_digest_reproducibility(exp_cfg):
    recs = sweep(exp_cfg, B_MIXED, X4, 0.7, [10**3, 10**4])
    csv = records_to_csv(recs)
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("1000,")
    cells = lines[1].split(",")
    assert cells[3] == B_MIXED.label() == "1;2;0;-1"
    again = sweep(exp_cfg, B_MIXED, X4, 0.7, [10**3, 10**4])
    assert [r.value for r in again] == [r.value for r in recs]
    assert records_digest(again) == records_digest(recs)
    # the digest pins everything except the wall-clock column
    assert len(records_digest(recs)) == 16


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
