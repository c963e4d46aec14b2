"""Recurrence, growth policies, exact reductions and the angle document format.

Oracles: textbook convergents of pi, the Fibonacci ladder, and mpmath at a
working precision comfortably past the snapshot size.
"""

import json
import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from mobiusflow import contfrac
from mobiusflow.contfrac import (
    AngleDocumentError,
    Convergent,
    PrecisionFloorError,
    QuotientsExhausted,
    ResourceBudgetError,
    angle_digest,
    angle_from_json,
    angle_to_json,
    build_exp_alpha,
    build_poly_alpha,
    check_convergent_bounds,
    cis_ratio,
    class_modulus,
    dyadic_angle,
    explicit_angle,
    faithful_modulus,
    frac_mod1,
    legendre_locate,
    matched_convergent,
    phase_turns,
    rational_angle,
    reducing_convergent,
    residue,
    signed_residue,
    _residue_turns,
)
from mobiusflow.experiments import twisted_sum
from mobiusflow.spectrum import is_sharp

# 100 examples, or 300 under the ci profile (tests/conftest.py); the
# phase-engine tests take their counts from it
PHASE_EXAMPLES = settings.default.max_examples

EXP_SMALL_QS = (1, 2, 9, 8102)  # exp k4 denominators below its 11,689-bit q_4
EXP_DIGEST = "d37b34e10939ad70d2fbd83837086816281bb9278e6e4fa3929e6954104bdea8"


# ---------------------------------------------------------------------------
# e(k/den) in double precision


@settings(max_examples=PHASE_EXAMPLES, deadline=None)
@given(
    st.integers(-(2**3100), 2**3100),
    st.one_of(st.integers(1, 64), st.integers(1, 2**64), st.integers(2**64, 2**3000)),
)
@example(k=7, den=8)
@example(k=-1, den=3 * 2**70 + 1)
def test_cis_ratio_is_within_an_ulp_on_every_turn(k, den):
    # the quarter-turn split keeps cos and sin on |angle| <= pi/4; the whole
    # turn 2 pi k/den rounded at once can be off by several ulps near 1
    z = cis_ratio(k, den)
    with mp.workdps(40):
        want = mp.expjpi(2 * mp.mpf(k % den) / den)
    assert abs(z.real - float(want.real)) <= 2**-52
    assert abs(z.imag - float(want.imag)) <= 2**-52


def test_cis_ratio_quarter_turns_are_exact():
    for den in (4, 8, 4 * 8102, 4 * (2**200 + 1)):
        got = [cis_ratio(j * den // 4 + t * den, den) for j in range(4) for t in (-3, 0, 5)]
        assert got == [z for z in (1, 1j, -1, -1j) for _ in range(3)]


# ---------------------------------------------------------------------------
# recurrence against classical expansions


def test_pi_convergents_match_textbook():
    angle = explicit_angle([7, 15, 1], a0=3)
    got = [(c.l, c.q) for c in angle.convergents]
    assert got == [(3, 1), (22, 7), (333, 106), (355, 113)]
    with mp.workdps(60):
        for k in range(3):
            l, q = got[k]
            q_next = got[k + 1][1]
            err = abs(mp.pi - mp.mpf(l) / q)
            assert err < mp.mpf(1) / (q * q_next)


def test_fibonacci_denominators():
    angle = explicit_angle([1] * 20)
    fib = [1, 1]
    while len(fib) < 21:
        fib.append(fib[-1] + fib[-2])
    assert [c.q for c in angle.convergents] == fib[:21]
    # snapshot ratio approaches the golden fraction
    assert abs(angle.float_value - 0.6180339887498949) < 1e-8


def test_determinant_identity_everywhere(exp_angle, poly_angle):
    for angle in (exp_angle, poly_angle):
        cs = angle.convergents
        for k in range(len(cs) - 1):
            det = cs[k + 1].l * cs[k].q - cs[k].l * cs[k + 1].q
            assert det == (-1) ** k


# ---------------------------------------------------------------------------
# exp-type builder


def test_exp_ladder_frozen_shape(exp_angle):
    assert exp_angle.kind == "exp-type"
    assert exp_angle.k_star == 4
    assert [exp_angle.q(k) for k in range(5)][:4] == [1, 2, 9, 8102]
    assert len(str(exp_angle.q(4))) == 3519
    # golden padding tail after the advertised index
    assert exp_angle.snap_index == 68
    assert exp_angle.pq.quotients[4:] == (1,) * 64
    assert exp_angle.float_value == 0.4444581584793878
    assert angle_digest(exp_angle) == EXP_DIGEST


def test_exp_growth_window(exp_angle):
    # every built step from k = 2 lands in the [1/2, 3] window around e^{q_k}
    for k in range(2, exp_angle.k_star):
        qk = exp_angle.q(k)
        with mp.workdps(max(60, int(qk * 0.4343) + 40)):
            ratio = mp.mpf(exp_angle.q(k + 1)) * mp.exp(-qk)
            assert 0.5 <= ratio <= 3


def test_exp_budget_refusal():
    with pytest.raises(ResourceBudgetError):
        build_exp_alpha(5)


def test_exp_seed_controls_start():
    # a shallow ladder needs the floor relaxed: the default guards real use
    angle = build_exp_alpha(3, seed_q1=3, precision_floor=1)
    assert angle.q(1) == 3
    assert angle.k_star == 3
    with pytest.raises(PrecisionFloorError):
        build_exp_alpha(3, seed_q1=3)


# ---------------------------------------------------------------------------
# poly-type builder


def test_poly_ladder_frozen_shape(poly_angle):
    assert poly_angle.kind == "poly-type"
    assert poly_angle.tau == Fraction(4)
    assert poly_angle.k_star == 6
    assert [poly_angle.q(k) for k in range(4)] == [1, 2, 17, 83523]


def test_poly_caps_hold_exactly(poly_angle):
    # every built step is under the cap and sharp, by spectrum's one rule
    for k in range(1, poly_angle.k_star):
        q_cur, q_next = poly_angle.q(k), poly_angle.q(k + 1)
        assert q_next <= 2 * q_cur**4
        assert q_next**3 > q_cur**4
        assert is_sharp(poly_angle, k, 4)


def test_poly_fractional_tau():
    angle = build_poly_alpha("10/3", 4, precision_floor=1)
    assert angle.tau == Fraction(10, 3)
    for k in range(1, 4):
        q_cur, q_next = angle.q(k), angle.q(k + 1)
        assert q_next**3 <= 2**3 * q_cur**10
        assert q_next**9 > q_cur**10


def test_poly_tau_validation():
    with pytest.raises(TypeError):
        build_poly_alpha(4.0, 6)
    with pytest.raises(ValueError):
        build_poly_alpha(3, 5)
    with pytest.raises(ValueError):
        build_poly_alpha("9/3", 5)


def test_builders_need_depth():
    with pytest.raises(ValueError):
        build_exp_alpha(2)
    with pytest.raises(ValueError):
        build_poly_alpha(4, 2)


@pytest.mark.parametrize("seed_q1", [0, -3])
def test_builders_need_a_positive_seed(seed_q1):
    for build in (build_exp_alpha, lambda k, **kw: build_poly_alpha(4, k, **kw)):
        with pytest.raises(ValueError, match="seed_q1 must be positive"):
            build(6, seed_q1=seed_q1)


# ---------------------------------------------------------------------------
# exact reductions


def test_frac_mod1_matches_high_precision(exp_angle):
    l, q = exp_angle.snapshot
    with mp.workdps(len(str(q)) + 40):
        alpha = mp.mpf(l) / mp.mpf(q)
        for n in (1, 7, 12345, 10**6, 987654321):
            want = float(mp.frac(alpha * n))
            assert abs(frac_mod1(n, exp_angle) - want) < 1e-15
    assert frac_mod1(10**6, exp_angle) == 0.15847938780548013


def test_frac_mod1_guards(exp_angle):
    with pytest.raises(ValueError):
        frac_mod1(-1, exp_angle)
    shallow = explicit_angle([2, 9])  # q = 19, far from exact
    with pytest.raises(PrecisionFloorError):
        frac_mod1(1, shallow)


def test_residue_folding(exp_angle):
    l, q = exp_angle.snapshot
    for m in (1, 2, 9, 8101, 8102, -7, -8102, 123456):
        r = residue(m, exp_angle)
        assert r == (m * l) % q
        s = signed_residue(m, exp_angle)
        assert 2 * abs(s) <= q
        assert (s - m * l) % q == 0
    shallow = explicit_angle([2, 9])
    with pytest.raises(PrecisionFloorError):
        residue(1, shallow)


@pytest.mark.parametrize("m", [7, 123456])
def test_negative_residue_needs_no_wider_product(exp_angle, m):
    # reducing -m first to the snapshot-sized q - m would double the
    # product's width and make the reduction a full long division
    def peak(mult):
        residue(mult, exp_angle)
        tracemalloc.start()
        try:
            residue(mult, exp_angle)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(-m) <= peak(m) + 1024


def test_rational_angle_exact():
    angle = rational_angle(3, 7)
    assert angle.snapshot == (3, 7)
    assert angle.exact
    for n in range(25):
        assert frac_mod1(n, angle) == ((3 * n) % 7) / 7
    # exact angles have no faithful-range ceiling
    assert residue(10**30, angle) == (10**30 * 3) % 7
    assert rational_angle(0, 1).float_value == 0.0


def test_rational_angle_validation():
    with pytest.raises(ValueError):
        rational_angle(1, 0)
    with pytest.raises(ValueError):
        rational_angle(7, 7)
    with pytest.raises(ValueError):
        rational_angle(2, 4)


# ---------------------------------------------------------------------------
# convergent bound certificates


def test_bounds_hold_through_tail(exp_angle, poly_angle):
    for angle in (exp_angle, poly_angle):
        for k in range(1, angle.k_star + 1):
            cert = check_convergent_bounds(angle, k)
            assert cert.passed
            assert cert.lower_ok and cert.upper_ok
            assert cert.det_ok and cert.coprime_ok
        # a few rungs into the padding tail stay certified
        for k in (angle.k_star + 1, angle.k_star + 5):
            assert check_convergent_bounds(angle, k).passed


def test_bounds_dist_matches_float(exp_angle):
    cert = check_convergent_bounds(exp_angle, 1)
    f = (2 * exp_angle.float_value) % 1.0
    assert cert.dist == pytest.approx(min(f, 1.0 - f), abs=1e-12)
    assert cert.lo < cert.dist < cert.hi


def test_bounds_domain_errors(exp_angle):
    with pytest.raises(QuotientsExhausted):
        check_convergent_bounds(exp_angle, 0)
    with pytest.raises(QuotientsExhausted):
        check_convergent_bounds(exp_angle, exp_angle.snap_index - 1)


# ---------------------------------------------------------------------------
# locating convergents


def test_legendre_roundtrip(exp_angle):
    for k in range(1, exp_angle.k_star):
        c = exp_angle.convergents[k]
        assert legendre_locate(c.l, c.q, exp_angle) == k
    # at k_star the next quotient is the padding 1, so the premise
    # |alpha - l/q| < 1/(2q^2) legitimately fails and the locator says so
    c = exp_angle.convergents[exp_angle.k_star]
    assert legendre_locate(c.l, c.q, exp_angle) is None


def test_legendre_small_exact_case():
    angle = rational_angle(5, 17)  # quotients [3, 2, 2]
    assert legendre_locate(1, 3, angle) == 1
    assert legendre_locate(2, 7, angle) == 2
    assert legendre_locate(1, 4, angle) is None  # premise fails
    with pytest.raises(ValueError):
        legendre_locate(2, 4, angle)
    with pytest.raises(PrecisionFloorError):
        legendre_locate(1, 17, angle)


# ---------------------------------------------------------------------------
# document format


def test_angle_json_roundtrip(exp_angle, poly_angle):
    for angle in (exp_angle, poly_angle):
        doc = angle_to_json(angle)
        back = angle_from_json(json.dumps(doc))
        assert back.convergents == angle.convergents
        assert back.k_star == angle.k_star
        assert back.kind == angle.kind
        assert back.tau == angle.tau
        assert angle_digest(back) == angle_digest(angle)
    keys = sorted(angle_to_json(exp_angle))
    assert keys == ["a0", "exact", "k_star", "kind", "quotients", "snapshot"]


@pytest.mark.parametrize("build", [
    lambda: build_exp_alpha(4),
    lambda: build_exp_alpha(4, seed_q1=1),
    lambda: build_poly_alpha(4, 6),
    lambda: build_poly_alpha("10/3", 5),
], ids=["exp-k4", "exp-k4-seed1", "poly-4-k6", "poly-10_3-k5"])
def test_built_angle_equals_its_json_round_trip(build):
    # the angle document holds every field, so nothing is lost on the way
    angle = build()
    assert angle_from_json(json.dumps(angle_to_json(angle))) == angle


def test_angle_json_tamper_detected(exp_angle):
    doc = angle_to_json(exp_angle)
    doc["snapshot"] = dict(doc["snapshot"], l=str(int(doc["snapshot"]["l"]) + 1))
    with pytest.raises(AngleDocumentError):
        angle_from_json(doc)
    with pytest.raises(AngleDocumentError):
        angle_from_json({"kind": "exp-type"})


@pytest.mark.parametrize("key, value", [
    ("tau", "1/0"), ("tau", "abc"), ("tau", True), ("tau", [4]),
    ("exact", "false"), ("exact", 0), ("exact", None),
    ("k_star", 6.7), ("a0", float("inf")),
])
def test_angle_document_fields_are_read_strictly(poly_angle, key, value):
    doc = angle_to_json(poly_angle)
    # numbers read as written
    back = angle_from_json(json.dumps(dict(doc, tau=4, a0=0, k_star=6)))
    assert (back.tau, back.pq.a0, back.k_star) == (4, 0, 6)
    with pytest.raises(AngleDocumentError):
        angle_from_json(json.dumps(dict(doc, **{key: value})))
    with pytest.raises(AngleDocumentError):  # "23" once read as the quotients 2, 3
        angle_from_json(dict(angle_to_json(rational_angle(3, 7)), quotients="23"))


@st.composite
def _documented_angles(draw):
    """Explicit angles with every field an angle document stores; at most 60
    quotients below 10^60 keep the snapshot under 3700 digits."""
    tau = draw(st.none() | st.fractions(min_value=3, max_value=100, max_denominator=50))
    quotients = draw(st.lists(st.integers(1, 10**60), max_size=60))
    return explicit_angle(
        quotients,
        a0=draw(st.integers(0, 10**20)),
        kind=draw(st.sampled_from(["explicit", "exp-type", "poly-type"])),
        k_star=draw(st.integers(0, 100)),
        tau=tau,
        exact=draw(st.booleans()),
    )


@settings(max_examples=100, deadline=None)
@given(_documented_angles(), st.sampled_from(["l", "q"]), st.integers(-5, 5).filter(bool))
def test_angle_json_round_trip(angle, field, delta):
    doc = angle_to_json(angle)
    back = angle_from_json(json.dumps(doc))
    assert back.convergents == angle.convergents
    assert (back.k_star, back.kind, back.tau, back.exact) == (
        angle.k_star, angle.kind, angle.tau, angle.exact
    )
    assert angle_digest(back) == angle_digest(angle)
    doc["snapshot"] = dict(doc["snapshot"], **{field: str(int(doc["snapshot"][field]) + delta)})
    with pytest.raises(AngleDocumentError):
        angle_from_json(doc)


@pytest.mark.parametrize("quotients", [
    [10**3999 + i for i in range(500)],  # 2 MB of digits: tens of seconds of recurrence
    [1] * 40_000,  # q_n >= F_(n+1): quadratic as well
])
def test_document_past_its_snapshot_is_refused_before_the_recurrence(monkeypatch,
                                                                      quotients):
    # the full recurrence ran over every quotient before q was compared with
    # the stored snapshot; the denominators passing q = 2 refuse it at once
    doc = {"kind": "explicit", "k_star": 3, "a0": "0", "exact": False,
           "quotients": [str(a) for a in quotients], "snapshot": {"l": "1", "q": "2"}}

    def refuse(*args):
        raise AssertionError("the full recurrence ran")

    monkeypatch.setattr(contfrac, "convergents_from_quotients", refuse)
    with pytest.raises(AngleDocumentError, match="past the stored snapshot"):
        angle_from_json(json.dumps(doc))


def test_explicit_angle_defaults():
    angle = explicit_angle([2, 1, 3])
    assert angle.k_star == 3
    assert angle.kind == "explicit"
    assert not angle.exact
    with pytest.raises(ValueError):
        explicit_angle([2, 0, 3])


# ---------------------------------------------------------------------------
# the phase engine


@st.composite
def _angles(draw):
    """Exact rationals, and explicit quotient lists long enough to give
    snapshots past 128 bits as well as ones too shallow for the range."""
    if draw(st.booleans()):
        q = draw(st.integers(1, 10**45))
        l = draw(st.integers(0, q - 1))
        g = gcd(l, q)
        return rational_angle(l // g, q // g)
    return explicit_angle(draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=30)))


@st.composite
def _index_runs(draw):
    start = draw(st.integers(-(10**12), 10**12))
    gaps = draw(st.lists(st.integers(0, 1000), min_size=0, max_size=60))
    ns = [start]
    for g in gaps:
        ns.append(ns[-1] + g)
    return np.array(ns, dtype=np.int64) if draw(st.booleans()) else ns


@settings(max_examples=3 * PHASE_EXAMPLES, deadline=None)
@given(_angles(), st.integers(-50, 50), _index_runs())
def test_phase_turns_matches_scalar_residues(angle, mult, ns):
    q = angle.q_snapshot
    try:
        want = [residue(mult * int(n), angle) / q for n in ns]
    except PrecisionFloorError:
        with pytest.raises(PrecisionFloorError):
            phase_turns(angle, mult, ns)
        return
    assert phase_turns(angle, mult, ns).tolist() == want


@settings(max_examples=PHASE_EXAMPLES, deadline=None)
@given(_angles(), st.integers(-50, 50), _index_runs(),
       st.floats(0.0, 1.0, exclude_max=True))
def test_phase_turns_seed_is_exact(angle, mult, ns, seed):
    l, q = angle.snapshot
    try:
        got = phase_turns(angle, mult, ns, seed)
    except PrecisionFloorError:
        return
    for n, g in zip(ns, got.tolist()):
        assert g == float((Fraction(seed) + Fraction(mult * int(n) * l, q)) % 1)


def test_phase_turns_on_the_exp_snapshot(exp_angle):
    ns = np.arange(10**7, 10**7 + 3000, 3)
    got = phase_turns(exp_angle, -7, ns)
    assert got.tolist() == [residue(-7 * int(n), exp_angle) / exp_angle.q_snapshot for n in ns]
    assert phase_turns(exp_angle, 1, []).shape == (0,)


def test_phase_turns_rounds_next_to_a_float_midpoint():
    # l/q sits within 1/q of the midpoint between two adjacent floats, closer
    # than the 128-bit bracket can resolve, on either side of it
    q = 3**100
    mid = Fraction(2**53 + 2 * 12345 + 1, 2**54)  # halfway between two floats near 0.5
    below = mid.numerator * q // mid.denominator
    above = below + 1
    below -= below % 3 == 0  # keep l coprime to q
    above += above % 3 == 0
    assert Fraction(below, q) < mid < Fraction(above, q)
    for l in (below, above):
        angle = rational_angle(l, q)
        assert phase_turns(angle, 1, [1]).tolist() == [l / q]
        assert phase_turns(angle, 3, [5, 7]).tolist() == [(15 * l % q) / q, (21 * l % q) / q]


@st.composite
def _reducible_cases(draw, exp_angle, poly_angle):
    """(angle, mult, ns) for the int64 path and for the ones that fall back.

    The angles are exp k4, poly tau=4 k6, random rationals, dyadic angles
    and short explicit snapshots with one huge quotient, such as
    [2, 1000, 10**30].  mult and ns lean on multiples of one of the angle's
    small denominators, where the residue against that convergent is 0.
    """
    kind = draw(st.sampled_from(["exp", "poly", "rational", "dyadic", "explicit"]))
    if kind == "exp":
        angle = exp_angle
    elif kind == "poly":
        angle = poly_angle
    elif kind == "rational":
        q = draw(st.integers(1, 2**31 + 5) | st.integers(1, 10**30))
        l = draw(st.integers(0, q - 1))
        g = gcd(l, q)
        angle = rational_angle(l // g, q // g)
    elif kind == "dyadic":
        angle = dyadic_angle(draw(st.floats(-4.0, 4.0)))
    else:
        head = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=4))
        huge = 10 ** draw(st.integers(18, 60)) + draw(st.integers(0, 10**6))
        tail = draw(st.lists(st.integers(1, 50), max_size=3))
        angle = explicit_angle(head + [huge] + tail)
    qk = draw(st.sampled_from([c.q for c in angle.convergents if c.q < 2**31]))
    mult = draw(st.integers(-50, 50)) * draw(st.sampled_from([1, qk, 3 * qk]))
    mult += draw(st.sampled_from([0, 0, 1, -1]))
    lim = 2**62 // qk
    start = draw(st.integers(-(2**62), 2**62 - 10**5))
    ns = [start + g for g in draw(st.lists(st.integers(0, 10**5), max_size=40))]
    ns += [qk * k for k in draw(st.lists(st.integers(-lim, lim), max_size=20))]
    ns += [qk * k for k in draw(st.lists(st.integers(-3000, 3000), max_size=20))]
    ns = sorted(set(ns)) or [qk]
    if draw(st.booleans()):
        return angle, mult, np.array(ns, dtype=np.int64)
    if draw(st.booleans()):
        ns.append(2**63 + draw(st.integers(0, 10**6)))  # past int64
    return angle, mult, ns


@settings(max_examples=3 * PHASE_EXAMPLES, deadline=None)
@given(data=st.data())
def test_phase_turns_matches_the_snapshot_generator(exp_angle, poly_angle, data):
    angle, mult, ns = data.draw(_reducible_cases(exp_angle, poly_angle))
    try:
        l, q = faithful_modulus(angle, mult * max(-int(ns[0]), int(ns[-1])))
    except PrecisionFloorError:
        with pytest.raises(PrecisionFloorError):
            phase_turns(angle, mult, ns)
        return
    got = phase_turns(angle, mult, ns)
    # the oracle on Python ints, not on the width the code under test takes
    want = _residue_turns(l, q, mult, [int(n) for n in ns])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def _dyadic_cases(draw):
    """(x, k, mult, ns) with {x} = odd / 2^k for k in 1..65.

    k = 65 is one past the uint64 kernel and takes the Python-int width.  The
    numerator often has its top bit set, x may be negative or past 1, mult
    runs past 2^64, and ns mixes small indices of both signs with ones near
    the int64 edges, as a list in any order or as an ascending int64 array.
    """
    k = draw(st.integers(1, 65))
    bits = min(k, 53)
    low = 1 << (bits - 1) if draw(st.booleans()) else 1
    frac = Fraction(draw(st.integers(low, (1 << bits) - 1)) | 1, 1 << k)
    whole = draw(st.integers(-3, 3))
    x = float(whole + frac) if float(whole + frac) == whole + frac else float(frac)
    mult = draw(st.sampled_from([1, -1, 3]) | st.integers(-(2**70), 2**70))
    index = st.integers(-(2**63) + 1, 2**63 - 1) | st.integers(-1000, 1000)
    ns = draw(st.lists(index, min_size=1, max_size=30))
    if draw(st.booleans()):
        ns = np.array(sorted(ns), dtype=np.int64)
    return x, k, mult, ns


@settings(max_examples=4 * PHASE_EXAMPLES, deadline=None)
@given(case=_dyadic_cases())
@example(case=((2**53 - 1) * 2.0**-64, 64, 1, [-1, 1, 2**11 + 1]))  # near 1, top bit set
@example(case=(-(2**52 + 1) * 2.0**-65, 65, 2**64 + 3, [7, -(2**63) + 1]))
@example(case=(0.75, 2, -(2**66) - 1, np.array([-5, 0, 2**62], dtype=np.int64)))
def test_phase_turns_dyadic_rule_matches_fraction(case):
    x, k, mult, ns = case
    angle = dyadic_angle(x)
    l, q = angle.snapshot
    assert q == 2**k and Fraction(l, q) == Fraction(x) % 1
    got = phase_turns(angle, mult, ns)
    want = np.array([float(Fraction(mult * int(n) * l, q) % 1) for n in ns])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    stepped = _residue_turns(l, q, mult, [int(n) for n in ns])
    assert np.array_equal(got.view(np.int64), stepped.view(np.int64))


def test_phase_turns_zero_residue_keeps_the_snapshot_error(exp_angle):
    # l_2/q_2 = 1000/2001 reduces these phases, but 2001 * alpha is the
    # snapshot error times 2001, not 0
    short = explicit_angle([2, 1000, 10**30])
    got = phase_turns(short, 1, np.array([2000, 2001, 4002]))
    want = _residue_turns(*short.snapshot, 1, [2000, 2001, 4002])
    assert got.tolist() == want.tolist()
    assert 0.0 < got[1] < 1e-33 and 0.0 < got[2] < 1e-32
    # {8102 alpha} on exp k4 is 1 less about 1e-3519: it rounds to 1.0
    assert phase_turns(exp_angle, 1, np.array([8102])).tolist() == [1.0]
    assert phase_turns(exp_angle, -1, np.array([8102])).tolist() == [0.0]
    assert not phase_turns(exp_angle, 0, np.arange(8000, 9000)).any()


def _odd_part(q):
    return q >> ((q & -q).bit_length() - 1)


def _fraction_turns(angle, mult, ns, seed):
    l, q = angle.snapshot
    return np.array([float((Fraction(seed) + Fraction(mult * int(n) * l, q)) % 1) for n in ns])


@st.composite
def _seeded_cases(draw):
    """(quotients, mult, ns, seed) on the seeded convergent route.

    quotients None stands for exp k4, where q_3 = 8102 serves every seed down
    to 5e-324; otherwise they make an explicit angle with one huge quotient,
    whose convergent before it serves a seed only while the quotient
    outgrows |reach| 2^(54+e).  The indices cover multiples of
    d = odd(q_k) / gcd(odd(q_k), mult) for one convergent q_k, the entries
    recomputed on the snapshot, and come as a range, a list (sometimes past
    int64) or an int64 array.
    """
    if draw(st.booleans()):
        quotients, small_qs = None, EXP_SMALL_QS
    else:
        head = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=4))
        huge = 2 ** draw(st.integers(150, 1300)) + draw(st.integers(0, 10**6))
        tail = draw(st.lists(st.integers(1, 50), max_size=3))
        quotients = head + [huge] + tail
        small_qs = [c.q for c in explicit_angle(quotients).convergents[:-1]]
    odd = _odd_part(draw(st.sampled_from(small_qs)))
    mult = draw(st.sampled_from([0, 1, -1, -3, 7]) | st.integers(-60, 60))
    mult *= draw(st.sampled_from([1, 1, odd]))
    d = odd // gcd(odd, mult)
    seed = draw(st.sampled_from([0.5, 2.0**-54, 1 - 2.0**-53, 5e-324])
                | st.floats(0.0, 1.0, exclude_max=True))
    start = d * draw(st.integers(-(2**61 // d), 2**61 // d)) + draw(st.sampled_from([0, 1, -1]))
    kind = draw(st.sampled_from(["range", "list", "array"]))
    if kind == "range":
        step = draw(st.sampled_from([1, d, d - 1 or 1, -d, 2 * d + 1]))
        return quotients, mult, range(start, start + step * draw(st.integers(1, 40)), step), seed
    ns = [start + g for g in draw(st.lists(st.integers(0, 3), max_size=10))]
    ns += [d * k for k in draw(st.lists(st.integers(-(2**62 // d), 2**62 // d), max_size=15))]
    ns += draw(st.lists(st.integers(-(2**62), 2**62), max_size=15)) or [start]
    if kind == "array":
        return quotients, mult, np.array(ns, dtype=np.int64), seed
    if draw(st.booleans()):
        ns.append(d * (2**63 // d + draw(st.integers(1, 10**6))))  # past int64
    return quotients, mult, ns, seed


@settings(max_examples=PHASE_EXAMPLES, deadline=None)
@given(case=_seeded_cases())
@example(case=(None, 0, np.array([0]), 0.5))
@example(case=(None, -1, range(0, 4051 * 30, 4051), 2.0**-54))
@example(case=(None, 1, range(4050, 4060), 0.5))  # n = 4051 is the second entry
@example(case=(None, -1, range(3 * 4051 + 2, 3 * 4051 - 9, -1), 2.0**-54))
@example(case=(None, 3, [2**63 + 4051, -4051, 0, 5], 5e-324))
# the convergent picked here, q_120, has 153 bits, so every entry steps a
# modulus past 128 bits
@example(case=([2] * 120 + [2**300] + [1] * 40, -3, range(-10**30, 10**30, 10**28 + 7), 0.5))
def test_seeded_phase_turns_match_fraction(exp_angle, case):
    quotients, mult, ns, seed = case
    angle = exp_angle if quotients is None else explicit_angle(quotients)
    got = phase_turns(angle, mult, ns, seed)
    want = _fraction_turns(angle, mult, ns, seed)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _dyadic_seed(draw, e):
    """A float seed whose exact value has denominator 2^e, at most 3 whole."""
    frac = Fraction(draw(st.integers(0, (1 << min(e, 53)) - 1)) | (e > 0), 1 << e)
    whole = draw(st.integers(-3, 3))
    seed = float(whole + frac) if float(whole + frac) == whole + frac else float(frac)
    return -seed if draw(st.booleans()) else seed


@st.composite
def _width_cases(draw):
    """(angle, mult, ns, seed) whose modulus D = q 2^e takes every width.

    The angles are exact, so l/q is the snapshot and D is q times the seed's
    2^e: a dyadic angle 2^k with a dyadic seed gives D = 2^(k+e) on either
    side of 2^64; a rational with q < 2000 and a seed of a few bits, or one
    of 0.5, 2.5, -0.25, gives D < 2^31, and -1e-300 gives a D past every
    fixed width.  mult runs past 2^64, and ns mixes small indices of both
    signs with the int64 edges, as an int64 array or a list.
    """
    if draw(st.booleans()):
        k = draw(st.integers(0, 65))
        angle = rational_angle(draw(st.integers(0, (1 << k) - 1)) | (k > 0), 1 << k)
        seed = _dyadic_seed(draw, draw(st.integers(max(0, 60 - k), 66 - k)))
    else:
        q = draw(st.integers(1, 2000))
        l = draw(st.integers(0, q - 1).filter(lambda l: gcd(l, q) == 1))
        angle = rational_angle(l, q)
        if draw(st.booleans()):
            seed = draw(st.sampled_from([0.0, 0.5, 2.5, -0.25, -1e-300, 3.0]))
        else:
            seed = _dyadic_seed(draw, draw(st.integers(0, 12)))
    mult = draw(st.sampled_from([0, 1, -1, 3, 2**64 + 1, -(2**65) - 7]) | st.integers(-(2**70), 2**70))
    edge = st.sampled_from([-(2**63), -(2**63) + 1, 2**63 - 1, 2**63 - 2, 2**62])
    ns = draw(st.lists(edge | st.integers(-1000, 1000) | st.integers(-(2**63), 2**63 - 1),
                       min_size=1, max_size=30))
    return angle, mult, ns, seed


@settings(max_examples=2 * PHASE_EXAMPLES, deadline=None)
@given(case=_width_cases())
@example(case=(rational_angle(0, 1), 5, [-(2**63), -1, 0, 7, 2**63 - 1], 2.0))  # D = 1
@example(case=(rational_angle(0, 1), 5, [-(2**63), 3, 2**63 - 1], -1.0))
@example(case=(dyadic_angle(0.75), 2**64 + 3, [-(2**63), -5, 2**63 - 1], -(2**61 + 1) * 2.0**-62))  # 2^64
@example(case=(dyadic_angle(0.75), -3, [-(2**63), -5, 2**63 - 1], (2**52 + 1) * 2.0**-63))  # 2^65
@example(case=(rational_angle(3, 7), -1, [-(2**63), -1, 0, 2**63 - 1], -0.25))  # D = 28
@example(case=(rational_angle(3, 7), 2**64 + 1, [-(2**63), 4, 2**63 - 1], -1e-300))
def test_every_width_matches_fraction(case):
    angle, mult, ns, seed = case
    want = _fraction_turns(angle, mult, ns, seed).view(np.int64)
    for form in (np.array(ns, dtype=np.int64), ns):
        got = phase_turns(angle, mult, form, seed)
        assert np.array_equal(got.view(np.int64), want), type(form)


def _python_int_turns(l, q, mult, ns, seed):
    """The oracle: _residue_turns on a list takes the Python-int width."""
    return _residue_turns(l, q, mult, [int(n) for n in ns], seed)


@pytest.mark.parametrize(
    "q, l, mult, seed, ns, falls",
    [
        # phase = seed < 2^-9 at n = 0 and every multiple of q: those fall back
        (8102, 3601, 1, 12345 * 2.0**-64, [0, 8102, -8102, 1, 2, 4051, 10**12], 3),
        # negative n and a negative seed
        (8102, 3601, 1, -0.3, [-(10**12) - 3, -8103, -1, 0, 5, 2**62], 0),
        # e = 64 exactly
        (8102, 3601, -1, (2**52 + 1) * 2.0**-64, list(range(-50, 50)), 7),
        (2**31 - 1, 2**30 + 12345, 7, 0.3, [-(2**63), -1, 0, 1, 2**31, 2**63 - 1], 0),
        # q = 2 and e = 64: D = 2^65 is no power of two the uint64 width takes
        (2, 1, 1, (2**52 + 3) * 2.0**-64, [-3, -2, -1, 0, 1, 2, 3, 2**62 + 1], 3),
        (8102, 3601, -13, 0.7071067811865476, list(range(1000, 1100)), 0),
        (8102, 3601, 2**70 + 3, 0.1, list(range(-100, 100)), 0),
        (57, 25, 4051, 1 - 2.0**-53, list(range(-300, 300, 7)), 0),
    ],
)
def test_seeded_int64_width_matches_python_ints(q, l, mult, seed, ns, falls, python_int_entries):
    e = float(seed).as_integer_ratio()[1].bit_length() - 1
    assert q * 2**e >= contfrac.INT64_MODULUS_CAP and q < contfrac.INT64_MODULUS_CAP and e <= 64
    want = _python_int_turns(l, q, mult, ns, seed)
    python_int_entries.clear()
    got = _residue_turns(l, q, mult, np.array(ns, dtype=np.int64), seed)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # only the phases below 2^-9 went to Python ints
    assert sum(k for k, _ in python_int_entries) == np.count_nonzero(want < 2.0**-9) == falls


def test_seeded_int64_width_ends_at_e_64(python_int_entries):
    # e = 64 takes the int64 width; e = 65 leaves every entry to Python ints
    ns = np.arange(-40, 40, dtype=np.int64)
    for e, wide in ((64, True), (65, False)):
        seed = (2**52 + 1) * 2.0**-e
        want = _python_int_turns(3601, 8102, 1, ns, seed)
        python_int_entries.clear()
        got = _residue_turns(3601, 8102, 1, ns, seed)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        taken = sum(k for k, _ in python_int_entries)
        assert taken == (np.count_nonzero(want < 2.0**-9) if wide else len(ns))
    # q = 2^31 + 11 is past the width's q, whatever the seed
    want = _python_int_turns(5, 2**31 + 11, 1, ns, 0.3)
    python_int_entries.clear()
    got = _residue_turns(5, 2**31 + 11, 1, ns, 0.3)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert sum(k for k, _ in python_int_entries) == len(ns)


def test_seeded_phase_turns_recomputes_its_fixups_on_the_snapshot(exp_angle, python_int_entries):
    # against q_3 = 8102 with a 53-bit seed the d = 4051 multiples are
    # recomputed on the snapshot, in Python ints, and the rest take the
    # int64 width
    seed = 0.3
    ns = range(4051 * 7 - 100, 4051 * 9 + 100)
    l, q = exp_angle.snapshot
    want = _python_int_turns(l, q, 1, ns, seed)
    python_int_entries.clear()
    got = phase_turns(exp_angle, 1, ns, seed)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    snapshot = [k for k, den in python_int_entries if den.bit_length() > 1000]
    assert snapshot == [3]  # 4051 * 7, * 8 and * 9
    assert sum(k for k, den in python_int_entries if den.bit_length() < 100) < 20


@st.composite
def _seeded_width_cases(draw):
    """(l, q, mult, ns, seed) on the seeded int64 width and its edges.

    q < 2^31 with named small and edge values; seeds of every kind: 53-bit
    floats of either sign, dyadic ones with e up to 66 (e = 65 and 66 are
    past the width), and small ones down to 2^-12; starts out to +-1e12 and
    the int64 edges.
    """
    q = draw(st.sampled_from([2, 3, 57, 8102, 2**31 - 1]) | st.integers(2, 2**31 - 1))
    l = draw(st.integers(0, q - 1))
    mult = draw(st.sampled_from([1, -1, 2, 24, -13, 4051]) | st.integers(-(2**70), 2**70))
    kind = draw(st.sampled_from(["float", "dyadic", "small"]))
    if kind == "float":
        seed = draw(st.floats(-1.0, 1.0))
    elif kind == "dyadic":
        e = draw(st.integers(1, 66))
        seed = draw(st.integers(1, 2**min(e, 53) - 1) | st.just(1)) * 2.0**-e
        seed = -seed if draw(st.booleans()) else seed
    else:
        seed = draw(st.floats(2.0**-12, 2.0**-9)) * draw(st.sampled_from([1, -1]))
    start = draw(st.integers(-(10**12), 10**12) | st.sampled_from([0, -(2**63), 2**63 - 600]))
    width = draw(st.integers(1, 500))
    ns = np.arange(start, start + width, dtype=np.int64)
    if draw(st.booleans()):
        ns = np.array(draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40)),
                      dtype=np.int64)
    return l, q, mult, ns, seed


@settings(max_examples=3 * PHASE_EXAMPLES, deadline=None)
@given(case=_seeded_width_cases())
@example(case=(3601, 8102, 1, np.arange(-5, 5, dtype=np.int64), 0.3))
@example(case=(1, 2, 1, np.arange(-5, 5, dtype=np.int64), (2**52 + 1) * 2.0**-64))
@example(case=(5, 2**31 - 1, -1, np.array([-(2**63), 2**63 - 1], dtype=np.int64), -0.3))
def test_seeded_int64_width_property(case):
    l, q, mult, ns, seed = case
    got = _residue_turns(l, q, mult, ns, seed)
    want = _python_int_turns(l, q, mult, ns, seed)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("mult, seed", [(3, 0.0), (-1, 2.0**-54)])
def test_phase_turns_reads_every_index_form_alike(exp_angle, mult, seed):
    # one index set in every form; n = 4051 is an entry recomputed on the
    # snapshot (d = 4051 for these mult), on both integer routes
    asc = range(1, 6 * 4051, 25)
    assert 4051 in asc
    want = _fraction_turns(exp_angle, mult, asc, seed).view(np.int64)
    forms = [
        np.array(asc, dtype=np.int64), np.array(asc, dtype=np.int32),
        np.array(asc, dtype=np.uint64), list(asc), tuple(asc), asc,
    ]
    for ns in forms:
        got = phase_turns(exp_angle, mult, ns, seed)
        assert np.array_equal(got.view(np.int64), want), type(ns)
    down = phase_turns(exp_angle, mult, asc[::-1], seed)
    assert np.array_equal(down[::-1].view(np.int64), want)
    # at the int64 edges (a range whose stop does not fit), and past them,
    # where the indices stay Python ints
    far = range(4051 * 2**52 - 1500, 4051 * 2**52 + 1500, 25)
    assert 4051 * 2**52 in far and far[0] >= 2**63
    for ns in (range(2**63 - 75, 2**63, 25), range(-(2**63), 75 - 2**63, 25), far, list(far)):
        got = phase_turns(exp_angle, mult, ns, seed)
        assert np.array_equal(got.view(np.int64), _fraction_turns(exp_angle, mult, ns, seed).view(np.int64))
    for empty in (range(0), [], np.empty(0, dtype=np.uint64)):
        assert phase_turns(exp_angle, mult, empty, seed).shape == (0,)


def test_seeded_dyadic_phases_are_recomputed_on_the_snapshot(exp_angle):
    # against l_3/q_3, {seed + mult * 4051 * alpha} is {seed + 1/2}: a
    # rounding midpoint for seed 2^-54 (and 0.25 + 2^-54), and 0 for seed
    # 1/2, where only the snapshot's error says which way the phase rounds
    l3, q3 = exp_angle.l(3), exp_angle.q(3)
    assert q3 == 2 * 4051 and l3 % 2
    for seed in (2.0**-54, 0.25 + 2.0**-54, 0.5):
        for mult in (1, -1, 3):
            got = phase_turns(exp_angle, mult, [4051], seed)
            assert got.tolist() == _fraction_turns(exp_angle, mult, [4051], seed).tolist()
    # which way depends on the sign of the snapshot's error
    up = phase_turns(exp_angle, -1, [4051], 2.0**-54)[0]
    down = phase_turns(exp_angle, 1, [4051], 2.0**-54)[0]
    assert (down, up) == (0.5, 0.5 + 2.0**-53)
    assert _residue_turns(l3, q3, -1, [4051], 2.0**-54)[0] == 0.5
    assert phase_turns(exp_angle, 1, [4051], 0.5).tolist() == [1.0]
    assert _residue_turns(l3, q3, 1, [4051], 0.5).tolist() == [0.0]


def test_the_convergent_rule_takes_the_seed_bits(exp_angle, poly_angle):
    assert tuple(c.q for c in exp_angle.convergents[:4]) == EXP_SMALL_QS
    exp3 = exp_angle.convergents[3]
    # exp k4: q_3 = 8102 for no seed, a 53-bit seed and 5e-324 (e = 1074)
    for e in (0, 53, 1074):
        for reach in (1, -(10**6), 10**12):
            assert matched_convergent(exp_angle, reach, e) == exp3
    # poly (4, 6): its 66-bit q_4, seeded (0.1 has e = 55) or not; q_5 has
    # 262 bits
    q4 = poly_angle.convergents[4]
    assert q4.q.bit_length() == 66
    for e in (0, 53, 55):
        assert matched_convergent(poly_angle, 10**6, e) == q4
    assert matched_convergent(poly_angle, 10**6, 200) == poly_angle.convergents[5]
    # unseeded choices below 2^31 are as before: the smallest k with
    # |reach| q_k 2^54 < q_{k+1}
    short = explicit_angle([2, 1000, 10**30])
    assert matched_convergent(short, 1) == Convergent(2, 1000, 2001)
    assert matched_convergent(short, 10**12) == Convergent(2, 1000, 2001)
    assert matched_convergent(short, 10**14) == short.convergents[-1]
    assert matched_convergent(rational_angle(3, 7), 10**40, 1074) == Convergent(2, 3, 7)
    # with no qualifying k the rule returns the snapshot, and a seed moves
    # the line: reach * 2001 * 2^(54+e) < q_3 holds for e = 0, not e = 53
    assert matched_convergent(short, 1, 53) == short.convergents[-1]
    # and rightly: for seed = sp/2^53 with sp 2001 = 1 mod 2^53, some n < 2001
    # puts {seed + n l_2/q_2} at 1/(2001 2^53), about 2^-64, where doubles
    # are 2^-116 apart and the snapshot's error n/(q_2 q_3) is about 2^-111
    sp = pow(2001, -1, 2**53)
    n = (1 - sp * 2001) // 2**53 * pow(1000, -1, 2001) % 2001
    seed = sp / 2**53
    got = phase_turns(short, 1, [n], seed)
    assert got.tolist() == _fraction_turns(short, 1, [n], seed).tolist()
    assert got[0] != _residue_turns(1000, 2001, 1, [n], seed)[0] == 2.0**-53 / 2001
    golden = explicit_angle([1] * 200)
    assert matched_convergent(golden, 1) == golden.convergents[-1]
    ns = range(-50, 50)
    assert phase_turns(golden, 3, ns, 0.3).tolist() == _fraction_turns(golden, 3, ns, 0.3).tolist()


def test_reducing_convergent_is_the_fixup_rule(exp_angle, poly_angle):
    # exp k4 with seed_q1 = 1: q_3 = 57 = 3 * 19 reduces these phases
    small = build_exp_alpha(4, seed_q1=1)
    assert small.convergents[3].q == 57
    for mult, d in ((1, 57), (-1, 57), (3, 19), (-6, 19), (19, 3), (57, 1), (-114, 1)):
        c, got = reducing_convergent(small, mult, 1000)
        assert (c.q, got) == (57, d), mult
        ns = range(-1000, 1001)
        want = _fraction_turns(small, mult, ns, 0.0).view(np.int64)
        assert np.array_equal(phase_turns(small, mult, ns).view(np.int64), want)
    # gcd(odd(q_3), mult) = 4051 on exp k4: every index is a fix-up
    c, d = reducing_convergent(exp_angle, 4051, 10**6)
    assert (c.q, d) == (8102, 1)
    assert reducing_convergent(exp_angle, 1, 10**6, 0.3) == (exp_angle.convergents[3], 4051)
    # the seed's bit count moves the convergent as matched_convergent says
    for e, seed in ((0, 0.0), (53, 2.0**-53), (200, 2.0**-200)):
        c, _ = reducing_convergent(poly_angle, -3, 10**6, seed)
        assert c == matched_convergent(poly_angle, 3 * 10**6, e)
    # nothing to recompute: mult = 0 (whose reach 0 takes q_0 = 1), the
    # snapshot itself, an exact angle
    assert reducing_convergent(exp_angle, 0, 10**6) == (exp_angle.convergents[0], 0)
    assert not phase_turns(exp_angle, 0, range(-9000, 9000)).any()
    short = explicit_angle([2, 1000, 10**30])
    assert reducing_convergent(short, 1, 10**14) == (short.convergents[-1], 0)
    third = rational_angle(1, 3)
    assert reducing_convergent(third, 5, 10**40) == (third.convergents[-1], 0)


def test_class_modulus_is_the_one_class_rule(exp_angle, poly_angle):
    # every multiplier picks q_3 = 8102 at reach 10^6, below the span; d is
    # the gcd of the fix-up divisors d_m, as reducing_convergent's d
    assert class_modulus(exp_angle, (1, -2, 24), 10**6, 8103) == (8102, 4051)
    c, d = reducing_convergent(exp_angle, 1, 10**6)
    assert class_modulus(exp_angle, (1,), 10**6, 8103) == (c.q, d)
    # d_m = 4051 and 1 leave d = 1: every index would be recomputed
    assert class_modulus(exp_angle, (1, 4051), 10**6, 9000) is None
    # a span of q_3 or less, no multiplier, mult = 0, an exact angle
    assert class_modulus(exp_angle, (1,), 10**6, 8102) is None
    assert class_modulus(exp_angle, (), 10**6, 10**6) is None
    assert class_modulus(exp_angle, (1, 0), 10**6, 10**6) is None
    assert class_modulus(rational_angle(1, 3), (1,), 10**6, 10**6) is None
    # poly (4, 6) picks its 66-bit q_4, past BLOCK_STEPS
    assert class_modulus(poly_angle, (1,), 10**6, 10**6) is None
    # on exp k4 with seed_q1 = 1, 10^7 n moves past q_3 = 57: the picks differ
    small = build_exp_alpha(4, seed_q1=1)
    assert class_modulus(small, (1, 19), 10**5, 100) == (57, 3)
    assert class_modulus(small, (1, 3), 10**5, 100) == (57, 19)
    assert class_modulus(small, (3, 19), 10**5, 100) is None  # d_m = 19, 3
    assert class_modulus(small, (1, 10**7), 10**5, 100) is None
    # the seed's bit count moves the pick: a 53-bit seed needs a longer q_k
    assert class_modulus(exp_angle, (1,), 10**6, 10**6, 0.3) == (8102, 4051)
    assert class_modulus(small, (1,), 10**5, 100, 0.3) is None
    # past the faithful range it refuses, as phase_turns does
    with pytest.raises(PrecisionFloorError):
        class_modulus(explicit_angle([2, 9, 2, 1]), (1,), 100, 100)


def test_int64_fixups_past_int64_divisors_are_n_zero(poly_angle):
    # poly (4, 6) reduces against its 66-bit q_4, whose odd part is past
    # int64: among int64 indices only n = 0 is a fix-up
    l, q = poly_angle.snapshot
    for mult, seed in ((1, 0.0), (-3, 0.0), (7, 0.0), (1, 0.1), (-1, 2.0**-54)):
        c, d = reducing_convergent(poly_angle, mult, 10**6, seed)
        assert c.q.bit_length() == 66 and d >= 2**63
        ns = np.array([-(10**6), -4051, -1, 0, 1, 2, 977, 10**6], dtype=np.int64)
        got = phase_turns(poly_angle, mult, ns, seed)
        want = _residue_turns(l, q, mult, ns, seed)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (mult, seed)
        dense = np.arange(-3000, 3001, dtype=np.int64)
        got = phase_turns(poly_angle, mult, dense, seed)
        want = _residue_turns(l, q, mult, dense, seed)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (mult, seed)


def test_faithful_modulus_is_the_range_rule(exp_angle):
    assert faithful_modulus(exp_angle, 10**20) == exp_angle.snapshot
    shallow = explicit_angle([2, 9, 2, 1])  # q = 60
    with pytest.raises(PrecisionFloorError):
        faithful_modulus(shallow, 1)
    assert faithful_modulus(shallow, 0) == shallow.snapshot
    for k in (4, 7, 11):
        angle = explicit_angle([2, 9, 2, 1, 3] * k)
        q = angle.q_snapshot
        edge = (q * q - 1) >> 60  # the largest reach with reach * 2^60 < q^2
        assert faithful_modulus(angle, -edge) == angle.snapshot
        with pytest.raises(PrecisionFloorError):
            faithful_modulus(angle, edge + 1)
    # exact angles have no ceiling
    assert faithful_modulus(rational_angle(1, 3), 10**100) == (1, 3)


def test_dyadic_angle_is_exact():
    assert dyadic_angle(0.125).snapshot == (1, 8)
    assert dyadic_angle(-0.25).snapshot == (3, 4)
    assert dyadic_angle(3.0).snapshot == (0, 1)
    a = dyadic_angle(0.1)
    assert Fraction(*a.snapshot) == Fraction(0.1) and a.exact


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")])
def test_dyadic_angle_refuses_a_non_finite_float(x):
    # Fraction(inf) raised OverflowError, an error no caller documents
    with pytest.raises(ValueError, match="not a finite float"):
        dyadic_angle(x)
    with pytest.raises(ValueError, match="not a finite float"):
        twisted_sum(100, 50, alpha=x)


def test_angle_digest_is_cached(exp_angle):
    assert angle_digest(exp_angle) is angle_digest(exp_angle)
    assert angle_digest(exp_angle) == EXP_DIGEST
