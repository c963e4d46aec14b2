"""Acceptance gate: ten headline guarantees, one printed verdict per line.

Every criterion computes its own pass flag from library certificates or
independent arithmetic, prints a [criterion NN] PASS/FAIL line that survives
pytest's capture, and enforces its runtime cap.  Observed decay values are
logged, never asserted against hard-coded numbers.
"""

import time
from contextlib import contextmanager
from math import ceil
from random import Random

import numpy as np
import pytest

from mobiusflow.cli import _random_finite_series
from mobiusflow.contfrac import check_convergent_bounds, cis, rational_angle
from mobiusflow.experiments import correlation_sum, rational_case, sweep, twisted_sum
from mobiusflow.flow import (
    FlowConfig,
    FrequencyVector,
    TorusPoint,
    build_conjugacy,
    check_conjugacy,
    distality_probe,
    orbit_direct,
    orbit_fast,
)
from mobiusflow.harmonic import (
    FourierSeries,
    analytic_h_sample,
    check_coeff_bound,
    furstenberg_h,
    smooth_h_sample,
    solve_coboundary,
    split_resonant,
    split_tau,
)
from mobiusflow.moebius import sieve_full, sieve_segment
from mobiusflow.spectrum import check_flat_lower_bound, check_resonant_scaling


@contextmanager
def _criterion(num, label, capsys, cap=None):
    t0 = time.perf_counter()
    outcome = {"ok": False}
    try:
        yield outcome
    except BaseException:
        elapsed = time.perf_counter() - t0
        with capsys.disabled():
            print(f"[criterion {num:02d}] FAIL {label} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if outcome["ok"] else "FAIL"
    with capsys.disabled():
        print(f"[criterion {num:02d}] {verdict} {label} ({elapsed:.2f}s)")
    assert outcome["ok"], f"criterion {num} failed: {label}"
    if cap is not None:
        assert elapsed < cap, f"criterion {num} took {elapsed:.2f}s, cap {cap}s"


def _circ(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def test_criterion_01_convergent_exactness(exp_angle, poly_angle, capsys):
    with _criterion(1, "convergent bounds and determinants exact", capsys, 1.0) as out:
        ok = True
        for angle in (exp_angle, poly_angle):
            for k in range(1, angle.k_star + 1):
                ok = ok and check_convergent_bounds(angle, k).passed
            for k in range(angle.k_star + 1):
                det = angle.l(k + 1) * angle.q(k) - angle.l(k) * angle.q(k + 1)
                ok = ok and abs(det) == 1
        out["ok"] = ok


def test_criterion_02_diophantine_claims(exp_angle, capsys):
    with _criterion(2, "flat lower bound and resonant scaling", capsys, 30.0) as out:
        flat = check_flat_lower_bound(exp_angle, 10**5)
        ok = flat.passed
        scanned = 0
        for k in range(1, exp_angle.k_star):
            cert = check_resonant_scaling(exp_angle, k)
            ok = ok and cert.passed
            scanned += cert.scanned
        out["ok"] = ok and scanned >= 10**6


def test_criterion_03_sieve_exactness(capsys):
    with _criterion(3, "sieve vs factorization and segment seams", capsys, 10.0) as out:

        def mu_brute(n):
            if n == 1:
                return 1
            cnt = 0
            d = 2
            while d * d <= n:
                if n % d == 0:
                    n //= d
                    if n % d == 0:
                        return 0
                    cnt += 1
                d += 1 if d == 2 else 2
            if n > 1:
                cnt += 1
            return -1 if cnt & 1 else 1

        small = sieve_full(10**5)
        ok = all(small.mu(n) == mu_brute(n) for n in range(1, 10**5 + 1))
        full = sieve_full(10**6)
        seg = sieve_segment(10**6, 10**6)
        out["ok"] = ok and np.array_equal(full.values, seg.values)


def test_criterion_04_coboundary_identity(exp_angle, poly_angle, capsys):
    with _criterion(4, "transfer identity within certified bounds", capsys, 5.0) as out:
        cases = [
            (exp_angle, furstenberg_h(exp_angle, [1.0, 1.0], k_cut=2), None),
            (exp_angle, analytic_h_sample(1.0, 40, 11), None),
            (poly_angle, smooth_h_sample(4.0, 200, 3), poly_angle.tau),
        ]
        rng = Random(4)
        ok = True
        for angle, h, tau in cases:
            if tau is None:
                _, h2, _ = split_resonant(h, angle)
                psi = solve_coboundary(h2, angle)
            else:
                _, h2, _ = split_tau(h, angle, tau)
                psi = solve_coboundary(h2, angle, tau=tau)
            budget = psi.identity_error_bound + 1e-12
            worst = max(psi.defect(rng.random(), h2, angle) for _ in range(1000))
            ok = ok and worst <= budget
        out["ok"] = ok


def test_criterion_05_orbit_oracle_equivalence(exp_angle, capsys):
    with _criterion(5, "closed-form orbit matches stepping", capsys, 30.0) as out:
        cfg = FlowConfig(alpha=exp_angle, h=analytic_h_sample(1.0, 6, 11), v=8)
        rng = Random(5)
        ok = True
        for _ in range(20):
            x = TorusPoint(tuple(rng.random() for _ in range(8)))
            for n in (97, 1234, 10**4):
                a = orbit_direct(cfg, x, n)
                b = orbit_fast(cfg, x, n)
                worst = max(_circ(u, w) for u, w in zip(a.coords, b.coords))
                ok = ok and worst < 1e-8
        out["ok"] = ok


def test_criterion_06_conjugacy_defect(poly_angle, capsys):
    with _criterion(6, "conjugated orbit within declared budget", capsys, 30.0) as out:
        cfg = FlowConfig(alpha=poly_angle, h=smooth_h_sample(4.0, 60, 9), v=4)
        pair = build_conjugacy(cfg, 4.0)
        x = TorusPoint((0.3, 0.71, 0.05, 0.42))
        cert = check_conjugacy(pair, x, [1, 10, 100, 500, 1000])
        out["ok"] = cert.passed and all(
            d <= b for d, b in zip(cert.defects, cert.budgets)
        )


def test_criterion_07_distality_probe(exp_angle, capsys):
    with _criterion(7, "orbit pairs stay separated", capsys) as out:
        cfg = FlowConfig(alpha=exp_angle, h=analytic_h_sample(1.0, 6, 11), v=3)
        rng = Random(7)
        ok = True
        for i in range(20):
            x = TorusPoint(tuple(rng.random() for _ in range(3)))
            if i < 10:
                # same base coordinate: distance must not move at all
                y = TorusPoint((x.coords[0], rng.random(), rng.random()))
            else:
                y = TorusPoint(tuple(rng.random() for _ in range(3)))
            probe = distality_probe(cfg, x, y, 10**4)
            ok = ok and probe.passed
            if probe.same_base:
                ok = ok and probe.spread <= 1e-12
        out["ok"] = ok


def test_criterion_08_exact_reductions(exp_angle, capsys):
    with _criterion(8, "degenerate cases collapse to closed forms", capsys) as out:
        h = analytic_h_sample(1.0, 6, 11)
        x = TorusPoint((0.3, 0.71, 0.05, 0.42))
        b = FrequencyVector((1, 2, 0, -1))

        cfg = FlowConfig(alpha=exp_angle, h=h, v=4)
        rec = correlation_sum(cfg, FrequencyVector((0, 0, 0, 0)), x, 10**5, 10**4)
        table = sieve_segment(10**5, 10**4)
        mertens = sum(table.mu(n) for n in range(9 * 10**4 + 1, 10**5 + 1))
        ok = rec.value == complex(mertens, 0.0)

        cfg_e = FlowConfig(alpha=exp_angle, h=FourierSeries({}), v=4)
        rec = correlation_sum(cfg_e, b, x, 10**5, 10**4)
        tw = twisted_sum(10**5, 10**4, 1, 0, exp_angle, mult=1)
        const = sum(bv * xv for bv, xv in zip(b.entries, x.coords) if bv != 0)
        ok = ok and rec.value == cis(const % 1.0) * tw.value

        cfg_r = FlowConfig(alpha=rational_angle(1, 2), h=h, v=4)
        length = ceil((10**5) ** 0.7)
        gen = correlation_sum(cfg_r, b, x, 10**5, length)
        rat = rational_case(cfg_r, b, x, 10**5, length)
        out["ok"] = ok and abs(gen.value - rat.value) < 1e-9


def test_criterion_09_qualitative_decay(exp_angle, capsys):
    with _criterion(9, "normalized sums shrink along the sweep", capsys, 600.0) as out:
        cfg = FlowConfig(
            alpha=exp_angle, h=furstenberg_h(exp_angle, [1.0, 1.0], k_cut=2), v=2
        )
        b = FrequencyVector.unit(2, 2)
        rng = Random(9)
        x = TorusPoint((rng.random(), rng.random()))
        recs, = sweep(cfg, b, x, [0.7], [10**4, 10**5, 10**6, 10**7])
        norms = [r.normalized for r in recs]
        with capsys.disabled():
            for r in recs:
                print(
                    f"[criterion 09] observed N={r.n_top:>8} M={r.length:>6} "
                    f"|S|/M={r.normalized:.6f}"
                )
        inversions = sum(norms[i + 1] > norms[i] for i in range(3))
        out["ok"] = norms[3] < norms[0] and inversions <= 1


def test_criterion_10_coefficient_decay_certificates(capsys):
    with _criterion(10, "random series satisfy the decay bound", capsys, 5.0) as out:
        rng = Random(0)
        ok = True
        for _ in range(10):
            cert = check_coeff_bound(_random_finite_series(rng), 1000)
            ok = ok and cert.passed
        out["ok"] = ok
