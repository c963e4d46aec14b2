"""Per-layer probes for the traced run.

Each probe times direct calls into one module's public functions on a fixed,
seeded configuration and records the counts the layer produced.  The
configurations are smaller than the workloads so the whole battery takes
about ten seconds; the traced passes supply each layer's share of the
workload itself.
"""

from __future__ import annotations

import statistics
import time
from math import ceil
from random import Random

import mobiusflow as mf
from mobiusflow.flow import FlowConfig, FrequencyVector, TorusPoint

from oracles import fast_route_correlation, stepped_correlation, twisted_oracle
from workloads import (
    EXP_B, SHORT_B, Context, parse_b, point_dev, series_from_spec,
)

SIZES = {
    "full": {
        "m_limit": 100000, "scaling_ks": (1, 2, 3), "defects": 1000,
        "orbit_n": 10000, "distality_n": 5000, "steps": 50,
        "sieve": (10**6, 0.8), "corr": (10**5, 0.7), "oracle_len": 64,
        "rational": ("355/1131", "analytic:1.0:8", 10**5, 0.8),
    },
    "tiny": {
        "m_limit": 2000, "scaling_ks": (1, 2), "defects": 50,
        "orbit_n": 300, "distality_n": 200, "steps": 5,
        "sieve": (10**4, 0.8), "corr": (10**3, 0.7), "oracle_len": 8,
        "rational": ("36/113", "analytic:1.0:4", 10**3, 0.8),
    },
}


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _median_time(reps: int, fn, *args):
    times = []
    for _ in range(reps):
        dt, out = _timed(fn, *args)
        times.append(dt)
    return statistics.median(times), out


def contfrac_probe(ctx: Context) -> dict:
    s = ctx.sizes

    def build():
        exp_k, q1 = s["exp"]
        return mf.build_exp_alpha(exp_k, seed_q1=q1), mf.build_poly_alpha(*s["poly"])

    def round_trip():
        return [mf.angle_from_json(mf.angle_to_json(a)) for a in (ctx.exp, ctx.poly)]

    build_s, _ = _median_time(5, build)
    json_s, _ = _median_time(5, round_trip)
    digest_s, _ = _median_time(21, mf.angle_digest, ctx.exp)
    return {
        "contfrac.build_s": (build_s, "s"),
        "contfrac.json_s": (json_s, "s"),
        "contfrac.digest_ms": (digest_s * 1e3, "ms"),
        "contfrac.snapshot_bits": (ctx.exp.q_snapshot.bit_length(), "count"),
    }


def spectrum_probe(ctx: Context, z: dict) -> dict:
    flat_s, flat = _timed(mf.check_flat_lower_bound, ctx.exp, z["m_limit"])
    scaling_s, scanned = 0.0, 0
    for k in z["scaling_ks"]:
        dt, cert = _timed(mf.check_resonant_scaling, ctx.poly, k)
        scaling_s += dt
        scanned += cert.scanned
    return {
        "spectrum.flat_s": (flat_s, "s"),
        "spectrum.flat_checked": (flat.checked, "count"),
        "spectrum.scaling_s": (scaling_s, "s"),
        "spectrum.scaling_scanned": (scanned, "count"),
    }


def harmonic_probe(ctx: Context, z: dict) -> dict:
    h = series_from_spec(ctx.sizes["poly_h"], ctx.inputs.h_seed)
    t0 = time.perf_counter()
    _, h2, _ = mf.split_tau(h, ctx.poly, ctx.poly.tau)
    psi = mf.solve_coboundary(h2, ctx.poly, tau=ctx.poly.tau)
    _, e2, _ = mf.split_resonant(ctx.series["exp"], ctx.exp)
    mf.solve_coboundary(e2, ctx.exp)
    solve_s = time.perf_counter() - t0
    rng = Random(ctx.inputs.h_seed)
    alpha = ctx.poly.float_value
    points = [rng.random() for _ in range(z["defects"])]
    defect_s, _ = _timed(lambda: [psi.defect(t, h2, alpha) for t in points])
    return {
        "harmonic.solve_s": (solve_s, "s"),
        "harmonic.defect_s": (defect_s, "s"),
        "harmonic.psi_terms": (len(psi.series), "count"),
    }


def flow_probe(ctx: Context, z: dict) -> dict:
    cfg = FlowConfig(alpha=ctx.exp, h=ctx.series["exp"], v=8)
    x, y = TorusPoint(ctx.inputs.x8), TorusPoint(ctx.inputs.y8)
    b = parse_b(EXP_B)
    n = z["orbit_n"]
    direct_s, direct = _timed(mf.orbit_direct, cfg, x, n)
    fast_s, fast = _median_time(5, mf.orbit_fast, cfg, x, n)
    birkhoff_s, _ = _timed(mf.birkhoff_avg, cfg, b, x, n)
    distality_s, _ = _timed(mf.distality_probe, cfg, x, y, z["distality_n"])
    t0 = time.perf_counter()
    p = x
    for _ in range(z["steps"]):
        p = mf.step(cfg, p)
    step_ms = (time.perf_counter() - t0) / z["steps"] * 1e3
    pcfg = FlowConfig(alpha=ctx.poly, h=ctx.series["conj"], v=4)
    pair = mf.build_conjugacy(pcfg, 4)
    conj_s, _ = _timed(
        mf.check_conjugacy, pair, TorusPoint(ctx.inputs.conj_x), ctx.sizes["conj_n"]
    )
    return {
        "flow.direct_s": (direct_s, "s"),
        "flow.fast_s": (fast_s, "s"),
        "flow.birkhoff_s": (birkhoff_s, "s"),
        "flow.distality_s": (distality_s, "s"),
        "flow.step_ms": (step_ms, "ms"),
        "flow.conjugacy_s": (conj_s, "s"),
        "flow.steps": (z["steps"], "count"),
        "flow.max_dev": (point_dev(direct, fast), "turn"),
    }


def moebius_probe(ctx: Context, z: dict) -> dict:
    n_top, theta = z["sieve"]
    length = ceil(n_top**theta)
    sieve_s, table = _median_time(3, mf.sieve_segment, n_top, length)
    twisted_s, tw = _timed(mf.twisted_sum, n_top, length, 1, 0, ctx.exp, table=table)
    want = twisted_oracle(ctx.exp, FrequencyVector((1,)), TorusPoint((0.0, 0.0)), n_top, length)
    return {
        "moebius.sieve_s": (sieve_s, "s"),
        "moebius.sieve_entries": (len(table), "count"),
        "moebius.nonzero_mu": (int((table.values != 0).sum()), "count"),
        "moebius.twisted_s": (twisted_s, "s"),
        "moebius.twisted_us_per_term": (twisted_s / length * 1e6, "us"),
        "moebius.max_abs_dS": (abs(tw.value - want), "1"),
    }


def experiments_probe(ctx: Context, z: dict) -> dict:
    cfg = FlowConfig(alpha=ctx.exp, h=ctx.series["exp"], v=8)
    x = TorusPoint(ctx.inputs.x8)
    b = parse_b(EXP_B)
    n_top, theta = z["corr"]
    length = ceil(n_top**theta)
    table = mf.sieve_segment(n_top, length)
    corr_s, rec = _timed(mf.correlation_sum, cfg, b, x, n_top, length, table=table)
    one = mf.sieve_segment(n_top, 1)
    fixed_s, _ = _timed(mf.correlation_sum, cfg, b, x, n_top, 1, table=one)
    short = z["oracle_len"]
    got = mf.correlation_sum(cfg, b, x, n_top, short)
    want = stepped_correlation(cfg, b, x, n_top, short)

    spec, h_spec, r_top, r_theta = z["rational"]
    l, q = (int(t) for t in spec.split("/"))
    h = series_from_spec(h_spec, ctx.inputs.h_seed)
    rcfg = FlowConfig(alpha=mf.rational_angle(l, q), h=h, v=4)
    x4 = TorusPoint(ctx.inputs.x4)
    b4 = parse_b(SHORT_B)
    r_len = ceil(r_top**r_theta)
    rational_s, rrec = _timed(mf.rational_case, rcfg, b4, x4, r_top, r_len)
    rational_fixed_s, _ = _timed(mf.rational_case, rcfg, b4, x4, r_top, 1)
    r_want = fast_route_correlation(rcfg, b4, x4, r_top, r_len)

    records = [rec, rrec]
    io_s, _ = _median_time(
        21, lambda: (mf.records_to_csv(records), mf.records_digest(records))
    )
    return {
        "experiments.corr_s": (corr_s, "s"),
        "experiments.fixed_s": (fixed_s, "s"),
        "experiments.us_per_term": (corr_s / length * 1e6, "us"),
        "experiments.rational_s": (rational_s, "s"),
        "experiments.rational_fixed_s": (rational_fixed_s, "s"),
        "experiments.io_s": (io_s, "s"),
        "experiments.max_abs_dS": (abs(got.value - want), "1"),
        "experiments.rational_max_abs_dS": (abs(rrec.value - r_want), "1"),
    }


def battery(ctx: Context) -> dict:
    """Every probe, in layer order: name -> (value, unit)."""
    z = SIZES[ctx.profile]
    out = contfrac_probe(ctx)
    for probe in (spectrum_probe, harmonic_probe, flow_probe, moebius_probe,
                  experiments_probe):
        out.update(probe(ctx, z))
    return out
