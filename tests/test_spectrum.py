"""Band placement, the flat lower bound, in-band scaling, truncation depths."""

import random
from fractions import Fraction
from math import log

import pytest

from mobiusflow import spectrum
from mobiusflow.contfrac import ResourceBudgetError, explicit_angle
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


def _random_angles(seed, count):
    """Explicit angles whose wide rungs make long, partial and failing bands."""
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(2, 7)
        yield explicit_angle(
            [rng.choice([1, 2, 3, rng.randint(1, 60), rng.randint(1, 5000)])
             for _ in range(size)]
        )


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


def _flat_oracle(angle, m_limit):
    """The flat certificate's fields, from ||m alpha|| in Fraction arithmetic."""
    alpha = Fraction(*angle.snapshot)
    qs = [c.q for c in angle.convergents]

    def ratio(m):
        x = m * alpha
        return 2 * m * abs(x - round(x))

    checked = skipped = 0
    worst = None
    uncovered = []
    for m in range(1, m_limit + 1):
        r = ratio(m)
        k = _band_of(angle, m)
        if m % qs[k] == 0:
            if k >= 2:
                skipped += 1
            else:
                uncovered.append((m, float(r), r >= 1))
            continue
        checked += 1
        if worst is None or r < worst[0]:
            worst = (r, m)
    controls = tuple(
        (k, qs[k], float(ratio(qs[k])), ratio(qs[k]) < 1)
        for k in range(2, len(qs) - 1) if qs[k] <= m_limit
    )
    return (
        m_limit, checked, worst is None or worst[0] >= 1,
        0 if worst is None else worst[1],
        float("inf") if worst is None else float(worst[0]),
        skipped, len(uncovered), tuple(uncovered[:64]), controls,
    )


def test_flat_bound_matches_fraction_oracle(exp_angle, poly_angle):
    cases = [(exp_angle, 1), (exp_angle, 1500), (poly_angle, 1500)]
    cases += [(a, 300) for a in _random_angles(11, 40) if a.q(a.k_star) > 300]
    for angle, m_limit in cases:
        cert = check_flat_lower_bound(angle, m_limit)
        got = tuple(getattr(cert, f) for f in (
            "m_limit", "checked", "passed", "worst_m", "worst_ratio",
            "skipped_resonant", "uncovered_count", "uncovered", "controls"))
        assert got == _flat_oracle(angle, m_limit)


def test_flat_bound_budget(exp_angle, monkeypatch):
    # the scan is linear in m_limit: past the budget it refuses before it starts
    with pytest.raises(ResourceBudgetError):
        check_flat_lower_bound(exp_angle, 10**11)
    monkeypatch.setattr(spectrum, "DENSE_SCAN_LIMIT", 50)
    assert check_flat_lower_bound(exp_angle, 50).m_limit == 50
    with pytest.raises(ResourceBudgetError):
        check_flat_lower_bound(exp_angle, 51)


def test_flat_bound_json_shape(exp_angle):
    doc = check_flat_lower_bound(exp_angle, 100).to_json()
    assert doc["pass"] is True
    assert doc["checked"] + doc["skipped_resonant"] + doc["uncovered_count"] == 100


# ---------------------------------------------------------------------------
# resonant scaling


def test_scaling_dense_bands(exp_angle):
    c1 = check_resonant_scaling(exp_angle, 1)
    assert (c1.a_max, c1.scanned, c1.partial) == (4, 4, False)
    assert c1.passed and c1.premise_ok and c1.band_exact
    c2 = check_resonant_scaling(exp_angle, 2)
    assert (c2.a_max, c2.scanned, c2.partial) == (900, 900, False)
    assert c2.passed and c2.premise_ok and c2.band_exact
    assert c2.premise_max < 1.0 / exp_angle.q(2)


def test_scaling_top_band_of_exp(exp_angle):
    # a_max has 3515 digits: a million dense steps, the doubling grid, a_max
    c3 = check_resonant_scaling(exp_angle, 3)
    assert len(str(c3.a_max)) == 3515
    assert (c3.scanned, c3.dense_upto, c3.partial) == (1011656, 10**6, True)
    assert c3.equality_ok and c3.passed and c3.premise_ok
    assert c3.band_exact  # the whole band, not only the scanned multipliers


def _scaling_oracle(angle, k):
    """(equality_ok, scanned) by a direct mulmod at each dense and grid a."""
    l, q = angle.snapshot
    qk = angle.q(k)
    a_max = (angle.q(k + 1) - 1) // qk
    rk = min((qk * l) % q, q - (qk * l) % q)
    if a_max > spectrum.DENSE_SCAN_LIMIT:
        points = list(range(1, spectrum.DENSE_PREFIX + 1))
        a = 2 * spectrum.DENSE_PREFIX
        while a < a_max:
            points.append(a)
            a *= 2
        points.append(a_max)
    else:
        points = range(1, a_max + 1)
    scanned = 0
    for a in points:
        t = (a * qk * l) % q
        if min(t, q - t) != a * rk:
            return False, scanned
        scanned += 1
    return True, scanned


def _bands(seed, count):
    for angle in _random_angles(seed, count):
        for k in range(angle.k_star):
            try:
                yield angle, k, check_resonant_scaling(angle, k)
            except SnapshotRangeError:
                continue


def test_scaling_matches_direct_mulmod_oracle(monkeypatch):
    monkeypatch.setattr(spectrum, "DENSE_SCAN_LIMIT", 300)
    monkeypatch.setattr(spectrum, "DENSE_PREFIX", 40)
    seen = {"partial": 0, "dense fail": 0, "grid fail": 0}
    for angle, k, cert in _bands(7, 300):
        assert (cert.equality_ok, cert.scanned) == _scaling_oracle(angle, k)
        want_dense = min(cert.a_max, 40) if cert.partial else cert.a_max
        assert cert.dense_upto == want_dense
        seen["partial"] += cert.partial
        if not cert.equality_ok:
            seen["grid fail" if cert.scanned >= cert.dense_upto else "dense fail"] += 1
    assert all(seen.values()), seen


def test_scaling_band_exact_is_the_whole_band_verdict():
    # no band here is past DENSE_SCAN_LIMIT, so the oracle scans every a
    implied, verdicts = 0, set()
    for angle, k, cert in _bands(3, 200):
        assert not cert.partial
        assert cert.band_exact == _scaling_oracle(angle, k)[0] == cert.equality_ok
        verdicts.add(cert.band_exact)
        if cert.premise_ok and angle.q(k) >= 2:
            assert cert.band_exact
            implied += 1
    assert implied and verdicts == {True, False}


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
