"""Sieves against independent factorization, twisted sums."""

from math import fsum, gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mobiusflow.contfrac import (
    PrecisionFloorError,
    cis,
    class_modulus,
    explicit_angle,
    frac_mod1,
    phase_turns,
    rational_angle,
)
from mobiusflow.moebius import (
    BLOCK,
    DEFAULT_MEM_BUDGET,
    MEM_BUDGET_ENV,
    PHASE_CHUNK,
    MemoryBudgetError,
    MuTable,
    memory_budget,
    mu_class_sum,
    mu_phase_sum,
    sieve_full,
    sieve_segment,
    twisted_sum,
)


def _mu_by_factorization(n: int) -> int:
    """Independent oracle: trial division, no sieve machinery."""
    if n == 1:
        return 1
    sign = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        else:
            p += 1 if p == 2 else 2
    return -sign  # one prime factor left


def test_first_values_are_textbook():
    got = sieve_full(10).values.tolist()
    assert got == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_sieve_against_trial_division():
    table = sieve_full(5000)
    for n in range(1, 5001):
        assert table.mu(n) == _mu_by_factorization(n), n


def test_mertens_classical_value():
    # M(100) = 1 is a standard table entry
    assert int(sieve_full(100).values.sum()) == 1


FULL_TOP = 2 * BLOCK + BLOCK // 4


@pytest.fixture(scope="module")
def full_table() -> MuTable:
    return sieve_full(FULL_TOP)


def test_segment_agrees_with_full_across_block_boundary(full_table):
    # sieve_segment counts its 2^20 blocks from the segment start, so a
    # segment longer than BLOCK is what puts a block seam inside it
    n_top, length = FULL_TOP, 1_300_000
    assert length > BLOCK
    seg = sieve_segment(n_top, length)
    assert seg.n_lo == n_top - length + 1
    assert np.array_equal(seg.values, full_table.values[seg.n_lo - 1 : n_top])


@st.composite
def _segments(draw):
    """(n_top, length) inside [1, FULL_TOP]; about half the segments are
    longer than BLOCK, so a block seam falls inside them."""
    if draw(st.booleans()):
        length = draw(st.integers(BLOCK + 1, FULL_TOP))
    else:
        length = draw(st.integers(1, 5000))
    return draw(st.integers(length, FULL_TOP)), length


@settings(max_examples=40, deadline=None)
@given(_segments())
def test_segment_matches_full_sieve(full_table, segment):
    n_top, length = segment
    seg = sieve_segment(n_top, length)
    assert (seg.n_lo, seg.n_hi) == (n_top - length + 1, n_top)
    assert np.array_equal(seg.values, full_table.values[seg.n_lo - 1 : n_top])


def test_segment_short_and_prefix():
    assert sieve_segment(10, 10).values.tolist() == sieve_full(10).values.tolist()
    one = sieve_segment(97, 1)
    assert len(one) == 1 and one.mu(97) == -1  # 97 is prime


def _squarefree_count(n_max):
    """#{n <= n_max squarefree} = sum_{d^2 <= n_max} mu(d) floor(n_max/d^2).

    Independent of the sieves' zero pattern: only needs mu up to sqrt(n_max).
    """
    root = isqrt(n_max)
    small = sieve_full(root)
    return sum(small.mu(d) * (n_max // (d * d)) for d in range(1, root + 1))


def test_squarefree_count():
    # independent boolean sieve
    n = 20000
    free = np.ones(n + 1, dtype=bool)
    d = 2
    while d * d <= n:
        free[d * d :: d * d] = False
        d += 1
    assert _squarefree_count(n) == int(free[1:].sum())
    # classical value
    assert _squarefree_count(10**6) == 607926


def test_table_access_and_restrict():
    t = sieve_full(50)
    assert len(t) == 50
    with pytest.raises(IndexError):
        t.mu(0)
    with pytest.raises(IndexError):
        t.mu(51)
    r = MuTable(10, 20, t.values[9:20])
    assert r.mu(15) == t.mu(15) == 1
    with pytest.raises(IndexError):
        r.mu(9)
    with pytest.raises(ValueError):
        MuTable(1, 3, np.zeros(2, dtype=np.int8))
    with pytest.raises(ValueError):
        MuTable(1, 3, np.zeros(3, dtype=np.int64))


def test_sieve_input_validation():
    with pytest.raises(ValueError):
        sieve_full(0)
    with pytest.raises(ValueError):
        sieve_segment(10, 11)
    with pytest.raises(ValueError):
        sieve_segment(10, 0)


# ---------------------------------------------------------------------------
# memory budget


def test_memory_budget_env(monkeypatch):
    monkeypatch.delenv(MEM_BUDGET_ENV, raising=False)
    assert memory_budget() == DEFAULT_MEM_BUDGET
    monkeypatch.setenv(MEM_BUDGET_ENV, "1000")
    assert memory_budget() == 1000
    with pytest.raises(MemoryBudgetError):
        sieve_full(10**6)
    with pytest.raises(MemoryBudgetError):
        sieve_segment(10**7, 10**6)
    monkeypatch.setenv(MEM_BUDGET_ENV, "lots")
    with pytest.raises(MemoryBudgetError):
        memory_budget()
    monkeypatch.setenv(MEM_BUDGET_ENV, "-4")
    with pytest.raises(MemoryBudgetError):
        memory_budget()


# ---------------------------------------------------------------------------
# twisted sums


def test_twisted_alpha_zero_is_mertens():
    got = twisted_sum(100, 100).value
    assert got == complex(int(sieve_full(100).values.sum()), 0.0)


def test_twisted_progression_decomposition():
    # alpha = 0: classes coprime to 3 plus the multiples recover the total
    n_top, length = 500, 300
    table = sieve_segment(n_top, length)
    total = sum(table.mu(n) for n in range(n_top - length + 1, n_top + 1))
    parts = sum(
        twisted_sum(n_top, length, 3, r, table=table).value.real for r in (1, 2)
    )
    mult3 = sum(
        table.mu(n) for n in range(n_top - length + 1, n_top + 1) if n % 3 == 0
    )
    assert parts + mult3 == total


def test_twisted_validation():
    with pytest.raises(ValueError):
        twisted_sum(100, 101)
    with pytest.raises(ValueError):
        twisted_sum(100, 0)
    with pytest.raises(ValueError):
        twisted_sum(100, 50, 0)
    with pytest.raises(ValueError):
        twisted_sum(100, 50, 4, 2)  # gcd(2, 4) > 1
    short = sieve_segment(50, 10)
    with pytest.raises(ValueError):
        twisted_sum(100, 50, table=short)


def test_twisted_residue_normalization_and_empty_class():
    a = twisted_sum(100, 50, 3, 1)
    b = twisted_sum(100, 50, 3, 4)
    assert a.value == b.value and a.r == b.r == 1
    empty = twisted_sum(10, 1, 3, 2)  # the single n = 10 is not 2 mod 3
    assert empty.value == 0j


def test_twisted_angle_matches_dyadic_float():
    # 1/8 is dyadic, so the float path reduces exactly too: identical bits
    a = twisted_sum(3000, 1500, alpha=rational_angle(1, 8))
    b = twisted_sum(3000, 1500, alpha=0.125)
    assert a.value == b.value
    assert a.alpha_float == 0.125


def test_twisted_mult_folds_into_angle():
    a = twisted_sum(2000, 800, alpha=rational_angle(1, 8), mult=2)
    b = twisted_sum(2000, 800, alpha=rational_angle(1, 4), mult=1)
    assert a.value == b.value
    m0 = twisted_sum(2000, 800, alpha=rational_angle(1, 8), mult=0)
    assert m0.value == complex(int(sieve_segment(2000, 800).values.sum()), 0.0)


def test_twisted_angle_against_brute(exp_angle):
    n_top, length = 400, 400
    table = sieve_full(n_top)
    got = twisted_sum(n_top, length, alpha=exp_angle, table=table).value
    l, q = exp_angle.snapshot
    acc = 0j
    for n in range(1, n_top + 1):
        m = table.mu(n)
        if m:
            acc += m * cis(((n * l) % q) / q)
    assert abs(got - acc) < 1e-12


def test_twisted_determinism(exp_angle):
    a = twisted_sum(5000, 2000, alpha=exp_angle)
    b = twisted_sum(5000, 2000, alpha=exp_angle)
    assert a.value == b.value
    assert abs(a.value) <= a.length
    assert 0.0 <= a.normalized <= 1.0


def test_twisted_faithful_range_guard():
    shallow = explicit_angle([2, 9, 2, 1])  # q = 60: tiny non-exact snapshot
    with pytest.raises(PrecisionFloorError):
        twisted_sum(100, 50, alpha=shallow)


@pytest.mark.parametrize("q, r", [(1, 0), (3, 2)])
def test_twisted_chunk_seams_against_brute(exp_angle, q, r):
    # the progression slice spans more than two chunks of the phase sum
    n_top, length = 100_000, 7 * PHASE_CHUNK + 123
    table = sieve_segment(n_top, length)
    got = twisted_sum(n_top, length, q, r, exp_angle, table=table).value
    terms = [
        table.mu(n) * cis(frac_mod1(n, exp_angle))
        for n in range(n_top - length + 1, n_top + 1)
        if table.mu(n) and n % q == r
    ]
    want = complex(fsum(z.real for z in terms), fsum(z.imag for z in terms))
    assert abs(got - want) < 1e-12


@pytest.mark.parametrize("n_top, length, q, divisors", [
    (10**5, 10**4, 8102, (4051,)),  # a tail row of 1898 entries
    (10**5, 57 * 40, 57, (57, 19)),  # whole rows only; d = 19 takes 3 classes of 57
    (5000, 300, 400, (5,)),  # q past the span: the tail row alone
])
def test_class_sum_with_zero_phases_is_the_mertens_difference(n_top, length, q, divisors):
    # H and the fix-up terms are exact, so the b = 0 sum is M(N) - M(N - M)
    # bit for bit, from a table that reaches below the segment as well
    full = sieve_full(n_top)
    want = int(full.values[n_top - length :].sum())
    table = sieve_segment(n_top, length + 37)
    # the fix-up divisors d_m meet in d = gcd(d_m), as contfrac.class_modulus has it
    got = mu_class_sum(table, n_top - length + 1, n_top, q, gcd(*divisors),
                       lambda ns: np.zeros(len(ns)))
    assert got == complex(want, 0.0)


@pytest.mark.parametrize("mult", [1, -2, 3])
def test_twisted_class_route_matches_the_per_term_sum(exp_angle, mult):
    n_top, length = 10**5, 3 * 8102 + 5
    assert class_modulus(exp_angle, (mult,), n_top, length) == (8102, 4051)
    table = sieve_segment(n_top, length)
    got = twisted_sum(n_top, length, alpha=exp_angle, table=table, mult=mult).value
    want = mu_phase_sum(table, n_top - length + 1, n_top, 1,
                        lambda ns: phase_turns(exp_angle, mult, ns))
    assert abs(got - want) <= 1e-12
