"""Band placement, the flat lower bound, in-band scaling, truncation depths."""

import random
import re
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from math import log

import pytest
from mpmath import mp

from mobiusflow import build_exp_alpha, build_poly_alpha, spectrum
from mobiusflow.contfrac import (
    Convergent,
    ResourceBudgetError,
    explicit_angle,
    fold_signed,
    rational_angle,
)
from mobiusflow.spectrum import (
    SnapshotRangeError,
    check_flat_lower_bound,
    check_resonant_scaling,
    classify,
    classify_tau,
    is_sharp,
    sharp_denominators,
    truncation_indices,
    _log2_bounds,
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


def test_classify_matches_definition(exp_angle, poly_angle):
    # seed_q1 = 1 ties q_0 = q_1 = 1, and m = 1 takes the later band, 1
    tied = build_exp_alpha(4, seed_q1=1)
    assert classify(1, tied).k == 1
    for angle in (exp_angle, tied, poly_angle):
        rungs = [c.q for c in angle.convergents[1 : angle.k_star]]
        probes = list(range(1, 200)) + [9000, -7, -9]
        probes += [s * (q + d) for q in rungs for d in (-1, 0, 1, q) for s in (1, -1)]
        for m in probes:
            if m == 0:
                continue
            got = classify(m, angle)
            k = _band_of(angle, abs(m))
            assert got.m == m and got.k == k, (angle.q(1), m)
            assert got.band_q == angle.q(k)
            assert got.divisible == (abs(m) % angle.q(k) == 0)
            assert got.resonant == (k >= 2 and got.divisible)
        # truncation_indices reads its K off the same band lookup
        for n in (2, 3, 10, 10**6, 10**40):
            assert truncation_indices(angle, n).K == _band_of(angle, 2 * log(n)), (angle.q(1), n)


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


def test_is_sharp_bit_bounds_agree_with_powering():
    # the bit-length rules decide most tau and the exact powers the rest;
    # tau <= 0 and ties between the two sides included
    rng = random.Random(5)
    for angle in _random_angles(5, 40):
        for k in range(1, angle.snap_index):
            for _ in range(6):
                tau = Fraction(rng.randint(-4, 80), rng.randint(1, 9))
                p, s = tau.numerator, tau.denominator
                want = angle.q(k + 1) ** (3 * s) > angle.q(k) ** p
                assert is_sharp(angle, k, tau) == want, (angle.pq, k, tau)


def test_is_sharp_huge_tau_decides_at_once(exp_angle):
    # q_1 = 2: a q_k^(10^400) of 10^400 bits is never built
    for k in range(1, exp_angle.k_star):
        assert not is_sharp(exp_angle, k, 10**400)
        assert is_sharp(exp_angle, k, Fraction(1, 10**400))
    # q_1 = 1 leaves the bit-length rules undecided, but 1^p costs nothing
    assert is_sharp(build_exp_alpha(4, seed_q1=1), 1, 10**400)


def test_is_sharp_near_tie_past_the_budget(exp_angle):
    # q_1 = 2, q_2 = 9: the threshold is tau = 3 log2 9 = 9.5098..., the bit
    # lengths decide only tau <= 4.5 and tau >= 12.  Within 10^-30 of it the
    # log2 bounds (about 2^-62 wide) overlap too, and the exact powers would
    # have about 10^31 bits
    with mp.workdps(60):
        threshold = 3 * mp.log(9, 2)
        near = Fraction(int(threshold * 10**30), 10**30)
    with pytest.raises(ResourceBudgetError, match="bits"):
        is_sharp(exp_angle, 1, near)
    # 9.1e-16 past it (a float's 3 log2 9 to 15 digits) the bounds decide
    tau = Fraction(int(3 * log(9, 2) * 10**15) * 10**6, 10**21)
    with mp.workdps(60):
        assert mp.mpf(tau.numerator) / tau.denominator - threshold > 9e-16
    assert not is_sharp(exp_angle, 1, tau)


def test_is_sharp_decides_benign_tau_without_powering(exp_angle, monkeypatch):
    # tau = 7.5 + 1/(2 10^21) at k = 1: log2 9 = 3.17 against tau/3 = 2.5,
    # where the bit lengths alone decided nothing and the powers would have
    # about 10^22 bits; with no powering allowed it still decides
    monkeypatch.setattr(spectrum, "BIT_BUDGET", 0)
    tau = Fraction(15 * 10**21 + 1, 2 * 10**21)
    assert is_sharp(exp_angle, 1, tau)
    assert not is_sharp(exp_angle, 1, Fraction(10**22 + 1, 10**21))  # tau/3 > 3.33
    rng = random.Random(7)
    for angle in _random_angles(3, 30):
        for k in range(1, angle.snap_index):
            for _ in range(4):
                tau = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**5))
                t = mp.mpf(tau.numerator) / tau.denominator
                lk, ln = mp.log(angle.q(k), 2), mp.log(angle.q(k + 1), 2)
                if abs(3 * ln - t * lk) > 1e-9 * (1 + t * lk):
                    assert is_sharp(angle, k, tau) == (3 * ln > t * lk)


def _sharp_by_powering(angle, k, tau):
    p, s = tau.numerator, tau.denominator
    return angle.q(k + 1) ** (3 * s) > angle.q(k) ** p


def test_is_sharp_powers_a_true_near_tie(poly_angle, exp_angle, monkeypatch):
    # poly (4, 6) has q_{k+1} = q_k^4 + q_{k-1}, so at tau = 12 the sides
    # q_{k+1}^3 and q_k^12 differ by a factor 1 + O(q_{k-1} / q_k^4): at
    # k = 4 and 5 the bit lengths and the 64-digit log2 bounds leave it open,
    # and only the exact powers decide
    tau = Fraction(12)
    for k in (4, 5):
        assert poly_angle.q(k + 1) == poly_angle.q(k) ** 4 + poly_angle.q(k - 1)
        assert is_sharp(poly_angle, k, tau) and _sharp_by_powering(poly_angle, k, tau)
    # the power stage is the one that ran: with no bits to power it refuses
    monkeypatch.setattr(spectrum, "BIT_BUDGET", 1)
    for k in (4, 5):
        with pytest.raises(ResourceBudgetError, match=rf"q_{k + 1}\^\(3s\) > q_{k}\^p"):
            is_sharp(poly_angle, k, tau)
    monkeypatch.undo()
    # with one-digit log2 bounds many more cases reach the powers, and every
    # verdict is still exact powering's
    monkeypatch.setattr(spectrum, "LOG2_DIGITS", 1)
    taus = [Fraction(4), Fraction(10, 3), Fraction(119, 10), Fraction(12), Fraction(121, 10)]
    cases = [(poly_angle, k, tau) for k in range(1, 6) for tau in taus]
    cases += [(exp_angle, k, tau) for k in range(1, 4) for tau in taus]
    powered = 0
    for angle, k, tau in cases:
        assert is_sharp(angle, k, tau) == _sharp_by_powering(angle, k, tau), (angle.pq, k, tau)
        with monkeypatch.context() as budget:
            budget.setattr(spectrum, "BIT_BUDGET", 1)
            try:
                is_sharp(angle, k, tau)
            except ResourceBudgetError:
                powered += 1
    assert (len(cases), powered) == (40, 13)


def test_log2_bounds_hold_and_are_tight():
    rng = random.Random(11)
    with mp.workprec(400):
        for bits in (1, 2, 5, 53, 63, 64, 65, 66, 200, 3000):
            for _ in range(30):
                q = rng.getrandbits(bits) | 1 << (bits - 1)
                lo, hi = _log2_bounds(q)
                exact = mp.log(q, 2)
                assert mp.mpf(lo.numerator) / lo.denominator <= exact
                assert exact <= mp.mpf(hi.numerator) / hi.denominator
                assert hi - lo < Fraction(1, 2**61)
        for e in (0, 1, 63, 64, 65, 1000):
            assert _log2_bounds(1 << e) == (e, e)


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
    # a_max has 3515 digits: a million dense multipliers, the doubling grid
    # and a_max are sampled, and every sampled a is below q // (2 r_3)
    c3 = check_resonant_scaling(exp_angle, 3)
    assert len(str(c3.a_max)) == 3515
    assert (c3.scanned, c3.dense_upto, c3.partial) == (1011656, 10**6, True)
    assert c3.equality_ok and c3.passed and c3.premise_ok
    assert c3.band_exact  # the whole band, not only the scanned multipliers


def _scaling_sample(angle, k):
    """The multipliers a band's certificate samples, ascending."""
    a_max = (angle.q(k + 1) - 1) // angle.q(k)
    if a_max <= spectrum.DENSE_SCAN_LIMIT:
        return range(1, a_max + 1)
    points = list(range(1, spectrum.DENSE_PREFIX + 1))
    a = 2 * spectrum.DENSE_PREFIX
    while a < a_max:
        points.append(a)
        a *= 2
    return points + [a_max]


def _scaling_oracle(angle, k):
    """(equality_ok, scanned) by a direct mulmod at each dense and grid a."""
    l, q = angle.snapshot
    qk = angle.q(k)
    rk = min((qk * l) % q, q - (qk * l) % q)
    scanned = 0
    for a in _scaling_sample(angle, k):
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
    seen = {"partial": 0, "dense fail": 0, "grid fail": 0, "a_max fail": 0}
    for angle, k, cert in _bands(7, 300):
        assert (cert.equality_ok, cert.scanned) == _scaling_oracle(angle, k)
        want_dense = min(cert.a_max, 40) if cert.partial else cert.a_max
        assert cert.dense_upto == want_dense
        seen["partial"] += cert.partial
        if not cert.equality_ok:
            a = _scaling_sample(angle, k)[cert.scanned]  # the first a that fails
            if a <= cert.dense_upto:
                seen["dense fail"] += 1
            else:
                seen["a_max fail" if a == cert.a_max else "grid fail"] += 1
    assert all(seen.values()), seen


def test_scaling_chunks_on_long_bands(monkeypatch):
    # long bands, a dense prefix of 3000: exp k4 band 3 and poly (4, 6)
    # band 5 have 44-bit r_k and pass; exp k4 band 2 has an 11.7k-bit r_k
    monkeypatch.setattr(spectrum, "DENSE_SCAN_LIMIT", 20000)
    monkeypatch.setattr(spectrum, "DENSE_PREFIX", 3000)
    cases = [(build_exp_alpha(4), 3), (build_poly_alpha(4, 6), 5), (build_exp_alpha(4), 2)]
    for angle, k in cases:
        cert = check_resonant_scaling(angle, k)
        assert (cert.equality_ok, cert.scanned) == _scaling_oracle(angle, k)


def test_fold_scales_exactly_below_the_bound():
    # the lemma behind the scaling certificate, exhaustively for q <= 60:
    # |fold(a t mod q)| = a |fold(t)| exactly when 2 a |fold(t)| <= q, both
    # signs of fold(t) and the a fold(t) = -q/2 edge included
    edges = 0
    for q in range(2, 61):
        for t in range(1, q):
            r = abs(fold_signed(t, q))
            for a in range(1, q + 1):
                holds = abs(fold_signed((a * t) % q, q)) == a * r
                assert holds == (2 * a * r <= q) == (a <= q // (2 * r)), (q, t, a)
                edges += a * fold_signed(t, q) * 2 == -q
    assert edges


def test_scaling_band_exact_is_the_whole_band_verdict(monkeypatch):
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
    # a partial band samples a_max last, so its verdict is the whole band's
    monkeypatch.setattr(spectrum, "DENSE_SCAN_LIMIT", 300)
    monkeypatch.setattr(spectrum, "DENSE_PREFIX", 40)
    verdicts = set()
    for angle, k, cert in _bands(7, 300):
        assert cert.equality_ok == cert.band_exact == _scaling_oracle(angle, k)[0]
        if cert.partial:
            verdicts.add(cert.band_exact)
    assert verdicts == {True, False}


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


def test_truncation_past_the_float_range(exp_angle, poly_angle):
    # 2 ln N for N = 10^4000 lies between q_3 = 8102 and q_4, an 11.7k-bit
    # rung: the near-tie guard took q_4 - 2 ln N in floats, OverflowError
    t = truncation_indices(exp_angle, 10**4000)
    assert (t.K, t.K_prime, t.passed) == (3, None, True)
    # a gap of the sharp ladder names a huge N by its order of magnitude,
    # also past the digits int -> str converts
    for n, shown in ((10**4000, "~10^4000"), (1 << 20000, "~10^6020")):
        with pytest.raises(SnapshotRangeError, match=re.escape(f"N = {shown} falls in a gap")):
            truncation_indices(poly_angle, n)


def _truncation_by_loop(angle, n, tau=None):
    """The sharp-ladder walk truncation_indices ran before its one pass, four
    exits and all, kept whole as the oracle of the differential test."""
    if n < 2:
        raise ValueError("need N >= 2")
    target = 2.0 * log(n)
    qs = [c.q for c in angle.convergents]
    if target >= qs[angle.k_star]:
        raise SnapshotRangeError(f"2 ln N = {target:.3f} reaches past the built ladder")
    K = bisect_right(qs, target) - 1
    near = min(abs(target - qs[K]), abs(qs[K + 1] - target))
    if near < 1e-12 * max(1.0, target):
        raise SnapshotRangeError("2 ln N sits on a ladder rung; cannot certify K")
    if tau is None:
        tau = angle.tau
    K_prime = None
    witness = {"two_log_n": target, "q_K": str(qs[K]), "K_loglog": 0.0}
    if n > 2:
        witness["K_loglog"] = K / log(log(n))
    if tau is not None:
        ladder = sharp_denominators(angle, tau, n)
        for pos, (k, qk, qk_next) in enumerate(ladder, start=1):
            if qk >= n:
                if pos == 1:
                    K_prime = 0
                    witness["sharp_bracket"] = "below first sharp value"
                    break
                raise SnapshotRangeError(
                    f"N = {n} falls in a gap of the sharp ladder; no K' exists"
                )
            if n <= qk_next:
                K_prime = pos
                witness["sharp_bracket"] = [k, str(qk), str(qk_next)]
                break
        if K_prime is None:
            if not ladder:
                K_prime = 0
                witness["sharp_bracket"] = "no sharp values below N"
            else:
                raise SnapshotRangeError(
                    f"N = {n} falls in a gap of the sharp ladder; no K' exists"
                )
    passed = qs[K] <= target < qs[K + 1]
    if K_prime:
        _, qk, qk_next = ladder[K_prime - 1]
        passed = passed and qk < n <= qk_next
    elif K_prime == 0 and ladder:
        passed = passed and n <= ladder[0][1]
    return spectrum.TruncationIndex(n, K, K_prime, witness, passed)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ResourceBudgetError) as exc:
        return type(exc), str(exc)


def test_truncation_one_pass_matches_the_ladder_walk():
    # explicit ladders mixing unit quotients (slow, non-sharp bands) with
    # wide ones, at every rung q_k, its neighbours and points between rungs
    rng = random.Random(26)
    seen = Counter()
    for _ in range(30):
        quotients = [
            rng.choice([1, 1, 2, 3, rng.randint(2, 40), rng.randint(10, 10**4)])
            for _ in range(10)
        ]
        angle = explicit_angle(quotients)
        qs = [angle.q(k) for k in range(1, 9)]
        ns = {2, 3, 5, 10, 50}
        for q, q_next in zip(qs, qs[1:]):
            ns.update({q - 1, q, q + 1, (q + q_next) // 2, q_next - 1})
        for tau in (Fraction(10, 3), 4, 6, 12):
            for n in sorted(m for m in ns if m >= 2):
                want = _outcome(_truncation_by_loop, angle, n, tau)
                assert _outcome(truncation_indices, angle, n, tau) == want, (quotients, n, tau)
                if isinstance(want, tuple):
                    seen["gap" if "gap of the sharp ladder" in want[1] else want[1]] += 1
                else:
                    bracket = want.witness["sharp_bracket"]
                    seen[bracket if isinstance(bracket, str) else "bracket"] += 1
    # every exit of the walk is reached
    assert seen["gap"] and seen["bracket"]
    assert seen["no sharp values below N"] and seen["below first sharp value"]


def test_sharp_denominators_ladder(exp_angle, poly_angle):
    ks = [k for k, _, _ in sharp_denominators(exp_angle, Fraction(10, 3), 10**4)]
    assert ks == [1, 2, 3]
    ks_p = [k for k, _, _ in sharp_denominators(poly_angle, 4, 10**5)]
    assert ks_p == [1, 2, 3]


# ---------------------------------------------------------------------------
# flat scan: the convergent route against the snapshot route

FLAT_FIELDS = (
    "m_limit", "checked", "passed", "worst_m", "worst_ratio",
    "skipped_resonant", "uncovered_count", "uncovered", "controls",
)


def _flat_fields(cert):
    return tuple(getattr(cert, f) for f in FLAT_FIELDS)


def _scan_words(angle, m_limit, lk, qk):
    """spectrum._scan_chunks one m at a time, in Python ints of any width:
    the exact oracle for the int64 scan, and the scan on a snapshot too
    wide for int64.

    r = fold(m l_k mod q_k) steps by one addition of fold(l_k) and at most
    one wrap per m.
    """
    qs = [c.q for c in angle.convergents]
    hi = qk // 2
    lo = hi - qk  # balanced residues are the r with lo < r <= hi
    k = 0
    while qs[k + 1] <= 1:
        k += 1
    dl = fold_signed(lk % qk, qk)
    r = checked = skipped = uncovered_count = 0
    below = False
    least = m_limit * qk + 1  # above every key 2m|r| <= m qk
    at_modulus, ties, uncovered = [], [], []
    for m in range(1, m_limit + 1):
        r += dl
        if r > hi:
            r -= qk
        elif r <= lo:
            r += qk
        while qs[k + 1] <= m:
            k += 1
        if m % qs[k] == 0:
            if k >= 2:
                skipped += 1
            else:
                uncovered_count += 1
                if len(uncovered) < 64:
                    uncovered.append(m)
            continue
        checked += 1
        key = 2 * m * abs(r)
        if key <= qk:
            if key < qk:
                below = True
            else:
                at_modulus.append(m)
        if key <= least:
            if key < least:
                least, ties = key, [m]
            else:
                ties.append(m)
    return spectrum._FlatScan(
        checked, skipped, below, at_modulus, ties, uncovered, uncovered_count
    )


def _flat_on_snapshot(angle, m_limit, monkeypatch):
    """The same certificate with every key taken on the snapshot (the exact
    route), through the word-loop oracle, since a snapshot may pass int64."""
    with monkeypatch.context() as patch:
        patch.setattr(spectrum, "_flat_convergent", lambda a, m_limit: a.convergents[-1])
        patch.setattr(spectrum, "_scan_chunks", _scan_words)
        cert = check_flat_lower_bound(angle, m_limit)
    assert cert.modulus_k == angle.snap_index
    return cert


def _flat_limits(angle, extra=(), cap=spectrum.DENSE_SCAN_LIMIT):
    qk = spectrum._flat_convergent(angle, 2000).q
    limits = {1, 2, 7, qk - 1, qk, qk + 1, 2000, *extra}
    return sorted(m for m in limits if 1 <= m <= cap and m < angle.q(angle.k_star))


def _assert_routes_agree(angle, m_limit, monkeypatch):
    cert = check_flat_lower_bound(angle, m_limit)
    assert _flat_fields(cert) == _flat_fields(_flat_on_snapshot(angle, m_limit, monkeypatch))
    c = spectrum._flat_convergent(angle, m_limit)
    assert angle.convergents[cert.modulus_k] == c
    assert cert.modulus_bits == c.q.bit_length()
    return cert


def test_flat_convergent_route_matches_snapshot_route(monkeypatch):
    angles = [
        build_exp_alpha(4, seed_q1=1), build_exp_alpha(4, seed_q1=2),
        build_poly_alpha(4, 4), build_poly_alpha(4, 6),
        explicit_angle([1] * 80), rational_angle(355, 1131),
    ]
    moduli = set()
    for angle in angles:
        for m_limit in _flat_limits(angle, extra=(10**5,)):
            cert = _assert_routes_agree(angle, m_limit, monkeypatch)
            moduli.add(cert.modulus_bits < angle.q_snapshot.bit_length())
    assert moduli == {True, False}  # both routes were taken
    exp = check_flat_lower_bound(build_exp_alpha(4), 10**5)
    assert (exp.passed, exp.checked, exp.worst_m) == (True, 99083, 7)
    assert (exp.modulus_k, exp.modulus_bits, exp.snapshot_recomputed) == (3, 13, 1)


def _random_wide_angles(seed, count):
    """Explicit angles with a few 40-90 bit quotients, so convergents qualify."""
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(3, 8)
        yield explicit_angle(
            [rng.choice([1, 2, 3, rng.randint(1, 60), rng.randint(1, 5000),
                         rng.randint(2**40, 2**90)])
             for _ in range(size)]
        )


def test_flat_convergent_route_on_random_angles(monkeypatch):
    routes = {"convergent": 0, "snapshot": 0}
    for angle in _random_wide_angles(5, 250):
        for m_limit in _flat_limits(angle, cap=20000):
            cert = _assert_routes_agree(angle, m_limit, monkeypatch)
            snap = cert.modulus_k == angle.snap_index
            routes["snapshot" if snap else "convergent"] += 1
    assert min(routes.values()) > 100, routes


def test_flat_routes_agree_with_fraction_oracle():
    for angle in list(_random_wide_angles(9, 30)) + [rational_angle(355, 1131)]:
        for m_limit in _flat_limits(angle, cap=2000):
            cert = check_flat_lower_bound(angle, m_limit)
            assert _flat_fields(cert) == _flat_oracle(angle, m_limit)


def test_flat_convergent_is_the_least_with_q_next_past_4_m_limit_squared():
    # q_(k+1) = 4 m_limit^2 is not enough for the proof's margin, one more is:
    # [0; 1, 399, 1, 1] has q = 1, 1, 400, 401, 801, and 4 * 10^2 = 400
    angle = explicit_angle([1, 399, 1, 1])
    assert [c.q for c in angle.convergents] == [1, 1, 400, 401, 801]
    assert spectrum._flat_convergent(angle, 10).k == 2  # q_3 = 401 > 400
    assert spectrum._flat_convergent(angle, 9).k == 1  # q_2 = 400 > 324
    # past every rung: the snapshot, whose q is then at most 4 m_limit^2
    assert spectrum._flat_convergent(angle, 15) == angle.convergents[-1]
    # by minimality every pick is at most 4 m_limit^2, under 2^49 at the budget
    for angle in (build_exp_alpha(4), build_poly_alpha(4, 6), explicit_angle([1] * 80)):
        for m_limit in (1, 2, 45, 46, 2000, spectrum.DENSE_SCAN_LIMIT):
            assert spectrum._flat_convergent(angle, m_limit).q <= 4 * m_limit**2 < 2**49


def test_flat_key_equal_to_modulus_is_decided_on_the_snapshot(monkeypatch):
    # For a convergent l_k/q_k no checked m has 2m|r| = q_k (that would put
    # some p/m exactly 1/(2m^2) from l_k/q_k, and searches over small ladders
    # find none), so the branch is reached through a substituted modulus.
    # On [0; 2, 2, 2^70, ...] m = 1, 2 are uncovered and m = 3 (band 1,
    # q_1 = 2) is checked; against 1/18 its key is 2 * 3 * 3 = 18.
    angle = explicit_angle([2, 2, 2**70, 1, 1])
    monkeypatch.setattr(spectrum, "_flat_convergent", lambda a, m_limit: Convergent(2, 1, 18))
    cert = check_flat_lower_bound(angle, 3)
    assert (cert.checked, cert.uncovered_count, cert.snapshot_recomputed) == (1, 2, 1)
    monkeypatch.undo()
    assert _flat_fields(cert) == _flat_oracle(angle, 3)
    assert cert.passed and cert.worst_m == 3
    # against 5/18 the key of m = 3 is again 18, while m = 7 has the least
    # key, 14: both go to the snapshot, m = 3 for its verdict
    monkeypatch.setattr(spectrum, "_flat_convergent", lambda a, m_limit: Convergent(2, 5, 18))
    cert = check_flat_lower_bound(angle, 7)
    assert (cert.checked, cert.worst_m, cert.snapshot_recomputed) == (3, 7, 2)
    l, q = angle.snapshot
    assert cert.worst_ratio == 14 * abs(fold_signed((7 * l) % q, q)) / q


def _least_keys(angle, m_limit):
    c = spectrum._flat_convergent(angle, m_limit)
    lk, qk = c.l, c.q
    keys = {}
    for m in range(1, m_limit + 1):
        if m % angle.q(_band_of(angle, m)):
            keys[m] = 2 * m * abs(fold_signed((m * lk) % qk, qk))
    least = min(keys.values())
    return [m for m in keys if keys[m] == least]


def test_flat_worst_witness_among_shared_least_keys(monkeypatch):
    # the m sharing the least key are ranked on the snapshot: on the first
    # angle the smaller m is the worst, on the second the larger one is
    for quotients, ties, worst in (([2, 2, 3], [3, 12], 3), ([5, 3, 5], [6, 11], 11)):
        angle = explicit_angle(quotients + [2**70, 1, 1, 1, 1, 2])
        assert _least_keys(angle, 200) == ties
        cert = _assert_routes_agree(angle, 200, monkeypatch)
        assert cert.worst_m == worst
        assert cert.snapshot_recomputed == len(ties)
        assert _flat_fields(cert) == _flat_oracle(angle, 200)
    # on the exact route tied keys are tied ratios: the smallest m wins
    exact = rational_angle(7, 17)
    assert _least_keys(exact, 16) == [3, 12]
    cert = check_flat_lower_bound(exact, 16)
    assert cert.worst_m == 3 and _flat_fields(cert) == _flat_oracle(exact, 16)


def test_flat_certificate_records_its_modulus(exp_angle):
    doc = check_flat_lower_bound(exp_angle, 2000).to_json()
    assert list(doc)[-3:] == ["modulus_k", "modulus_bits", "snapshot_recomputed"]
    assert (doc["modulus_k"], doc["modulus_bits"]) == (3, 13)
    golden = explicit_angle([1] * 80)
    # q_35 = F_36 = 14930352 and q_36 = 24157817 > 4 * 2000^2 = 16000000
    assert check_flat_lower_bound(golden, 2000).modulus_k == 35
    # on [0; 1, 1, 1] (q = 1, 1, 2, 3) no rung passes 4: the snapshot itself
    assert check_flat_lower_bound(explicit_angle([1, 1, 1]), 1).modulus_k == 3


# ---------------------------------------------------------------------------
# flat scan: int64 chunks against the word-loop oracle

CHUNK = spectrum.CHUNK


def _flat_with_oracle(angle, m_limit, monkeypatch):
    """The certificate, and the one the word-loop oracle gives on the same
    convergent; the two scans must find the same _FlatScan."""
    c = spectrum._flat_convergent(angle, m_limit)
    assert spectrum._scan_chunks(angle, m_limit, c.l, c.q) == _scan_words(angle, m_limit, c.l, c.q)
    cert = check_flat_lower_bound(angle, m_limit)
    with monkeypatch.context() as patch:
        patch.setattr(spectrum, "_scan_chunks", _scan_words)
        oracle = check_flat_lower_bound(angle, m_limit)
    return cert, oracle


@pytest.mark.parametrize("m_limit", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_flat_chunk_seams_match_the_word_loop(exp_angle, m_limit, monkeypatch):
    cert, oracle = _flat_with_oracle(exp_angle, m_limit, monkeypatch)
    assert cert.modulus_k == 3
    assert cert == oracle  # every field, snapshot_recomputed included
    # multiples of q_2 = 9 below q_3 = 8102, then of q_3
    skipped = min(m_limit, 8101) // 9 + m_limit // 8102
    assert cert.skipped_resonant == skipped and cert.uncovered_count == 5
    assert cert.checked == m_limit - skipped - 5
    assert (cert.passed, cert.worst_m) == (True, 7)


def test_flat_least_key_ties_span_chunks(monkeypatch):
    # with 8 m a chunk the tied least keys of m = 3 and 12 (and of 6 and 11)
    # fall in two chunks: both stay ties and both go to the snapshot
    monkeypatch.setattr(spectrum, "CHUNK", 8)
    for quotients, ties, worst in (([2, 2, 3], [3, 12], 3), ([5, 3, 5], [6, 11], 11)):
        angle = explicit_angle(quotients + [2**70, 1, 1, 1, 1, 2])
        assert _least_keys(angle, 200) == ties
        cert, oracle = _flat_with_oracle(angle, 200, monkeypatch)
        assert cert == oracle
        assert cert.worst_m == worst and cert.snapshot_recomputed == 2
        assert _flat_fields(cert) == _flat_oracle(angle, 200)


@pytest.mark.parametrize("chunk", [CHUNK, 4])
def test_flat_key_equal_to_modulus_through_the_chunks(chunk, monkeypatch):
    # the substituted 1/18 and 5/18 of the snapshot test: m = 3 has key 18
    # and goes to the snapshot; with 4 m a chunk the least key (m = 7, 14)
    # lies in the next chunk
    monkeypatch.setattr(spectrum, "CHUNK", chunk)
    angle = explicit_angle([2, 2, 2**70, 1, 1])
    for lk, m_limit, recomputed, worst in ((1, 3, 1, 3), (5, 7, 2, 7)):
        monkeypatch.setattr(spectrum, "_flat_convergent",
                            lambda a, m_limit, lk=lk: Convergent(2, lk, 18))
        cert, oracle = _flat_with_oracle(angle, m_limit, monkeypatch)
        assert cert == oracle
        assert (cert.snapshot_recomputed, cert.worst_m) == (recomputed, worst)
        assert cert.passed is (lk == 1)  # key 14 < 18 fails against 5/18


@pytest.mark.parametrize("chunk", [CHUNK, 32])
def test_flat_uncovered_past_64_across_a_seam(chunk, monkeypatch):
    # q_1 = 200 and q_2 = 200001: the 199 m of band 0 and the multiples of
    # 200 are uncovered, 280 in all over three chunks; the first 64 are
    # kept, and with 32 m a chunk they come from two
    monkeypatch.setattr(spectrum, "CHUNK", chunk)
    angle = explicit_angle([200, 1000, 2**70, 1, 1])
    m_limit = 2 * CHUNK + 1
    cert, oracle = _flat_with_oracle(angle, m_limit, monkeypatch)
    assert cert.modulus_k == 2
    assert cert == oracle
    assert cert.uncovered_count == 199 + m_limit // 200 == 280
    assert [u[0] for u in cert.uncovered] == list(range(1, 65))
    assert _flat_fields(cert) == _flat_oracle(angle, m_limit)


@pytest.mark.parametrize("chunk", [CHUNK, 1000])
def test_flat_keys_past_2_53_and_2_63(exp_angle, chunk, monkeypatch):
    # q_k = 4 * 10^14, the most the rule picks at the 10^7 budget: its
    # keys 2m|r| run from below 2^53 to past 2^63 by m = 40000, every
    # residue sum stays in int64, and the scan must equal the oracle's
    monkeypatch.setattr(spectrum, "CHUNK", chunk)
    qk = 4 * spectrum.DENSE_SCAN_LIMIT**2
    lk = 3**33 % qk | 1
    m_limit = 40000
    keys = [2 * m * abs(fold_signed(m * lk % qk, qk)) for m in range(1, m_limit + 1)]
    assert min(keys) < 2**53 and max(keys) > 2**63
    monkeypatch.setattr(spectrum, "_flat_convergent", lambda a, m_limit: Convergent(3, lk, qk))
    cert, oracle = _flat_with_oracle(exp_angle, m_limit, monkeypatch)
    assert cert == oracle
    assert cert.modulus_bits == qk.bit_length() == 49


def test_flat_float_tied_keys_are_decided_exactly(monkeypatch):
    # [0; 40000, 2^70, ...] checks only m = 40001 and 40002 up to 40002.
    # Against this l_k/q_k (q_k just under 4 * 10^14) their keys pass 2^63
    # and differ by 2, less than a double can tell apart: only the smaller,
    # m = 40002, is the least key, and only its exact key says so
    qk, lk = 398986624508656, 168410926164205
    k1, k2 = (2 * m * abs(fold_signed(m * lk % qk, qk)) for m in (40001, 40002))
    assert k1 - k2 == 2 and k2 > 2**63 and float(k1) == float(k2)
    angle = explicit_angle([40000, 2**70, 1, 1])
    found = spectrum._scan_chunks(angle, 40002, lk, qk)
    assert found == _scan_words(angle, 40002, lk, qk)
    assert (found.checked, found.ties) == (2, [40002])
    monkeypatch.setattr(spectrum, "_flat_convergent", lambda a, m_limit: Convergent(1, lk, qk))
    cert, oracle = _flat_with_oracle(angle, 40002, monkeypatch)
    assert cert == oracle and cert.snapshot_recomputed == 1
