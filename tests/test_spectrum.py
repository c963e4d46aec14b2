"""Band placement, the flat lower bound, in-band scaling, truncation depths."""

from fractions import Fraction
from math import log

import pytest

from mobiusflow.contfrac import explicit_angle
from mobiusflow.spectrum import (
    SnapshotRangeError,
    check_flat_lower_bound,
    check_resonant_scaling,
    classify,
    classify_tau,
    is_sharp,
    sharp_denominators,
    truncation_indices,
)


def _band_of(angle, m_abs):
    qs = [c.q for c in angle.convergents]
    k = 0
    while k + 1 < len(qs) and qs[k + 1] <= m_abs:
        k += 1
    return k


# ---------------------------------------------------------------------------
# classification


def test_classify_matches_definition(exp_angle):
    probes = list(range(1, 200)) + [8101, 8102, 8103, 9000, 16204, -7, -9, -8102]
    for m in probes:
        got = classify(m, exp_angle)
        k = _band_of(exp_angle, abs(m))
        assert got.m == m and got.k == k
        assert got.band_q == exp_angle.q(k)
        assert got.divisible == (abs(m) % exp_angle.q(k) == 0)
        assert got.resonant == (k >= 2 and got.divisible)


def test_classify_zero_and_range(exp_angle):
    z = classify(0, exp_angle)
    assert (z.k, z.band_q, z.resonant) == (0, 1, True)
    with pytest.raises(SnapshotRangeError):
        classify(exp_angle.q(exp_angle.k_star), exp_angle)
    with pytest.raises(SnapshotRangeError):
        classify(exp_angle.q(exp_angle.k_star) * 7, exp_angle)
    # the top band is astronomically wide; huge m still classifies
    assert classify(10**50, exp_angle).k == 3


def test_is_sharp_exact():
    fib = explicit_angle([1] * 12)
    tau = Fraction(10, 3)
    assert not is_sharp(fib, 0, tau)
    for k in range(1, 11):
        want = fib.q(k + 1) ** 9 > fib.q(k) ** 10
        assert is_sharp(fib, k, tau) == want
    # small rungs are sharp, the deep Fibonacci rungs are not
    assert is_sharp(fib, 2, tau)
    assert not is_sharp(fib, 10, tau)


def test_classify_tau_three_way(poly_angle):
    # every built poly band is sharp, so divisible means M1
    cases = {2: "M1", 3: "M3", 4: "M1", 17: "M1", 34: "M1", 35: "M3", 100: "M3"}
    for m, want in cases.items():
        got = classify_tau(m, poly_angle)
        assert got.theorem2_class == want, m
    assert classify_tau(0, poly_angle).theorem2_class == "zero"


def test_classify_tau_slow_band_is_m2():
    fib = explicit_angle([1] * 12)
    got = classify_tau(89, fib, Fraction(10, 3))  # q_10 = 89 is not sharp
    assert got.divisible and got.theorem2_class == "M2"
    assert classify_tau(5, fib, Fraction(10, 3)).theorem2_class == "M1"


def test_classify_tau_needs_tau(exp_angle, poly_angle):
    with pytest.raises(ValueError):
        classify_tau(7, exp_angle)
    assert classify_tau(7, exp_angle, 4).theorem2_class == "M3"
    assert classify_tau(7, poly_angle).theorem2_class == "M3"


# ---------------------------------------------------------------------------
# flat lower bound


def test_flat_bound_frozen_partition(exp_angle):
    cert = check_flat_lower_bound(exp_angle, 20000)
    assert cert.passed
    assert cert.worst_ratio >= 1.0
    # band 2 multiples of 9: 900 of them; band 3 multiples of 8102: two
    assert cert.skipped_resonant == 902
    # m = 1 plus the even m in band 1 (2, 4, 6, 8)
    assert cert.uncovered_count == 5
    assert cert.checked == 20000 - 902 - 5
    uncovered = {u[0]: u for u in cert.uncovered}
    assert set(uncovered) == {1, 2, 4, 6, 8}
    assert uncovered[1][2] is False  # ||alpha|| < 1/2 for every angle
    # every resonant witness must violate the bound, that is the point
    assert {c[1] for c in cert.controls} == {9, 8102}
    assert all(c[3] for c in cert.controls)


def test_flat_bound_worst_witness_by_brute(exp_angle):
    limit = 2000
    cert = check_flat_lower_bound(exp_angle, limit)
    l, q = exp_angle.snapshot
    best = None
    for m in range(1, limit + 1):
        k = _band_of(exp_angle, m)
        if m % exp_angle.q(k) == 0:
            continue
        t = (m * l) % q
        num = 2 * m * min(t, q - t)
        if best is None or num < best[0]:
            best = (num, m)
    assert cert.worst_m == best[1]
    assert cert.worst_ratio == best[0] / q
    assert cert.worst_m == 7  # smallest margin in the first bands


def test_flat_bound_validation(exp_angle):
    with pytest.raises(ValueError):
        check_flat_lower_bound(exp_angle, 0)
    with pytest.raises(SnapshotRangeError):
        check_flat_lower_bound(exp_angle, exp_angle.q(4))


def test_flat_bound_json_shape(exp_angle):
    doc = check_flat_lower_bound(exp_angle, 100).to_json()
    assert doc["pass"] is True
    assert doc["checked"] + doc["skipped_resonant"] + doc["uncovered_count"] == 100


# ---------------------------------------------------------------------------
# resonant scaling


def test_scaling_dense_bands(exp_angle):
    c1 = check_resonant_scaling(exp_angle, 1)
    assert (c1.a_max, c1.scanned, c1.partial) == (4, 4, False)
    assert c1.passed and c1.premise_ok
    c2 = check_resonant_scaling(exp_angle, 2)
    assert (c2.a_max, c2.scanned, c2.partial) == (900, 900, False)
    assert c2.passed and c2.premise_ok
    assert c2.premise_max < 1.0 / exp_angle.q(2)


def test_scaling_matches_fraction_arithmetic(exp_angle):
    # independent check of the identity on band 2 via Fraction
    l, q = exp_angle.snapshot
    alpha = Fraction(l, q)
    qk = exp_angle.q(2)
    base = abs(qk * alpha - round(qk * alpha))
    for a in (1, 7, 250, 900):
        v = a * qk * alpha
        assert abs(v - round(v)) == a * base


def test_scaling_range_errors(exp_angle):
    with pytest.raises(SnapshotRangeError):
        check_resonant_scaling(exp_angle, 4)
    with pytest.raises(SnapshotRangeError):
        check_resonant_scaling(exp_angle, -1)
    squeezed = explicit_angle([1, 2, 3])  # q_1 = q_0 = 1: no multiplier fits
    with pytest.raises(SnapshotRangeError):
        check_resonant_scaling(squeezed, 0)


def test_scaling_json_shape(exp_angle):
    doc = check_resonant_scaling(exp_angle, 1).to_json()
    assert doc["pass"] is True
    assert doc["k"] == 1


# ---------------------------------------------------------------------------
# truncation indices


def test_truncation_exp(exp_angle):
    t = truncation_indices(exp_angle, 10**6)
    assert t.K == 2 and t.K_prime is None
    assert t.witness["q_K"] == "9"
    assert abs(t.witness["two_log_n"] - 2 * log(10**6)) < 1e-12
    small = truncation_indices(exp_angle, 2)
    assert small.K == 0


def test_truncation_poly_sharp_bracket(poly_angle):
    t = truncation_indices(poly_angle, 10**6)
    assert t.K == 2
    assert t.K_prime == 3
    bracket = t.witness["sharp_bracket"]
    assert bracket[0] == 3 and bracket[1] == "83523"


def test_truncation_explicit_tau(exp_angle):
    t = truncation_indices(exp_angle, 10**6, tau=Fraction(10, 3))
    assert t.K_prime == 3
    tiny = truncation_indices(exp_angle, 2, tau=Fraction(10, 3))
    assert tiny.K_prime == 0  # at the first sharp value q_1 = 2


def test_truncation_errors(exp_angle):
    with pytest.raises(ValueError):
        truncation_indices(exp_angle, 1)
    shallow = explicit_angle([2, 9], k_star=2)
    with pytest.raises(SnapshotRangeError):
        truncation_indices(shallow, 20000)


def test_sharp_denominators_ladder(exp_angle, poly_angle):
    ks = [k for k, _, _ in sharp_denominators(exp_angle, Fraction(10, 3), 10**4)]
    assert ks == [1, 2, 3]
    ks_p = [k for k, _, _ in sharp_denominators(poly_angle, 4, 10**5)]
    assert ks_p == [1, 2, 3]
