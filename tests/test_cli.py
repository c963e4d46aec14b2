"""End-to-end command line checks, driven through main() in process.

Exit code contract: 0 pass, 1 usage error, 2 certificate failure,
3 resource limit.
"""

import argparse
import json
import time
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mobiusflow import cli, experiments, spectrum
from mobiusflow.cli import main
from mobiusflow.contfrac import (
    BIT_BUDGET,
    ResourceBudgetError,
    angle_digest,
    angle_from_json,
    explicit_angle,
)
from mobiusflow.harmonic import furstenberg_h
from mobiusflow.moebius import MEM_BUDGET_ENV, sieve_segment

EXP_DIGEST_PREFIX = "d37b34e10939ad70"


@pytest.fixture(scope="module")
def exp_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("exp")
    assert main(["angle", "build-exp", "--k-star", "4", "--out", str(d)]) == 0
    return d


@pytest.fixture(scope="module")
def exp_file(exp_dir):
    return str(exp_dir / "angle-exp-k4.json")


@pytest.fixture(scope="module")
def poly_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("poly")
    code = main(["angle", "build-poly", "--tau", "4", "--k-star", "6", "--out", str(d)])
    assert code == 0
    return str(d / "angle-poly-t4-k6.json")


# ---------------------------------------------------------------------------
# angle commands


def test_build_artifacts(exp_dir, exp_file):
    angle = angle_from_json((exp_dir / "angle-exp-k4.json").read_text())
    assert angle.kind == "exp-type"
    assert angle_digest(angle).startswith(EXP_DIGEST_PREFIX)
    manifest = json.loads((exp_dir / "manifest.json").read_text())
    assert manifest["command"] == "angle build-exp"
    assert "angle-exp-k4.json" in manifest["outputs"]
    # 3519 digits at the ceiling rung plus 64 golden tail steps
    assert manifest["details"]["snapshot_digits"] == 3532


def test_build_to_stdout(capsys):
    assert main(["angle", "build-exp", "--k-star", "4"]) == 0
    out = capsys.readouterr().out
    assert '"quotients"' in out
    assert "manifest: {" in out


def test_inspect(exp_file, capsys):
    assert main(["angle", "inspect", "--angle", exp_file]) == 0
    out = capsys.readouterr().out
    assert "kind: exp-type" in out
    assert "k_star: 4   snapshot index: 68" in out
    assert EXP_DIGEST_PREFIX in out
    assert "0.4444581584793878" in out
    assert "(3519 digits)" in out
    # kind, k_star, digest, alpha, then q_0 .. q_(k_star + 2): nothing else
    assert len(out.splitlines()) == 4 + 7


def test_verify(exp_file, poly_file, tmp_path, capsys):
    out_dir = tmp_path / "report"
    code = main(
        ["angle", "verify", "--angle", exp_file, "--all", "--out", str(out_dir)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "bounds k=1: pass" in out
    assert "legendre round-trip k=1: pass" in out
    assert "FAIL" not in out
    report = json.loads((out_dir / "manifest.json").read_text())["details"]["certificates"]
    assert report and all(cert["pass"] for cert in report)
    assert main(["angle", "verify", "--angle", poly_file]) == 0


def test_verify_rejects_tampered_document(exp_file, tmp_path, capsys):
    doc = json.loads(open(exp_file).read())
    doc["snapshot"]["l"] = str(int(doc["snapshot"]["l"]) + 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["angle", "inspect", "--angle", str(bad)]) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{{{ not json")
    assert main(["angle", "verify", "--angle", str(garbage)]) == 2
    assert main(["angle", "inspect", "--angle", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


def test_verify_refuses_loose_angle_documents(poly_file, tmp_path, capsys):
    # a tau of 1/0 raised ZeroDivisionError, and "exact": "false" read as
    # true, which skips the faithful-range check
    doc = json.loads(open(poly_file).read())
    for i, (key, value) in enumerate([("tau", "1/0"), ("tau", "abc"), ("exact", "false")]):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(dict(doc, **{key: value})))
        assert main(["angle", "verify", "--angle", str(bad)]) == 2, (key, value)
    assert capsys.readouterr().err.count("malformed angle document") == 3


def test_build_past_bit_budget_is_resource_limit(capsys):
    assert main(["angle", "build-exp", "--k-star", "6"]) == 3
    assert "resource limit" in capsys.readouterr().err


def test_build_past_document_digit_limit_is_resource_limit(tmp_path, capsys):
    # the budget allows this ladder, but its snapshot has too many digits
    # for the decimal angle document; refuse before writing anything
    out_dir = tmp_path / "poly"
    code = main(["angle", "build-poly", "--tau", "20", "--k-star", "5",
                 "--out", str(out_dir)])
    assert code == 3
    assert "resource limit" in capsys.readouterr().err
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_env_budget_reaches_builder(monkeypatch, capsys):
    monkeypatch.setenv(MEM_BUDGET_ENV, "1000")
    assert main(["angle", "build-exp", "--k-star", "4"]) == 3
    capsys.readouterr()


def test_env_budget_never_raises_the_bit_budget(monkeypatch, capsys):
    # 10^8 bytes read as 8 * 10^8 bits, past BIT_BUDGET = 2^22, and
    # build-poly --tau 4 --k-star 40 ran for minutes instead of exiting 3
    seen = []

    def builder(*args, bit_budget=BIT_BUDGET, **kwargs):
        seen.append(bit_budget)
        raise ResourceBudgetError("stopped before building")

    for name in ("build_exp_alpha", "build_poly_alpha"):
        monkeypatch.setattr(cli, name, builder)
    for budget, bits in (("100000000", BIT_BUDGET), ("1000", 8000)):
        monkeypatch.setenv(MEM_BUDGET_ENV, budget)
        assert main(["angle", "build-exp", "--k-star", "4"]) == 3
        assert main(["angle", "build-poly", "--tau", "4", "--k-star", "40"]) == 3
        assert seen[-2:] == [bits, bits]
    capsys.readouterr()


# ---------------------------------------------------------------------------
# check commands


def test_check_spectrum(exp_file, tmp_path, capsys):
    out_dir = tmp_path / "spec"
    code = main(
        ["check", "spectrum", "--angle", exp_file,
         "--m-limit", "20000", "--n", "1000000", "--out", str(out_dir)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "flat lower bound up to 20000: pass" in out
    assert "resonant scaling k=1: pass" in out
    assert "resonant scaling k=3: pass" in out
    assert "(partial)" in out  # the top rung is only sampled past the dense range
    assert "truncation at n=1000000: K=2 K'=None" in out
    report = json.loads((out_dir / "manifest.json").read_text())["details"]
    assert report["passed"] is True
    assert report["flat"]["worst_m"] == 7
    assert len(report["scaling"]) == 3


def test_manifest_is_the_one_document_in_declared_key_order(exp_file, tmp_path, capsys):
    spec, verify = tmp_path / "spec", tmp_path / "verify"
    assert main(["check", "spectrum", "--angle", exp_file,
                 "--m-limit", "1000", "--out", str(spec)]) == 0
    assert main(["angle", "verify", "--angle", exp_file, "--out", str(verify)]) == 0
    capsys.readouterr()
    for out_dir in (spec, verify):
        assert [p.name for p in out_dir.iterdir()] == ["manifest.json"]
    details = json.loads((spec / "manifest.json").read_text())["details"]
    assert list(details["flat"])[:2] == ["claim", "pass"]
    assert all(list(doc)[:2] == ["claim", "pass"] for doc in details["scaling"])
    certs = json.loads((verify / "manifest.json").read_text())["details"]["certificates"]
    assert all(list(doc)[:2] == ["claim", "pass"] for doc in certs)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_check_spectrum_writes_strict_json(exp_file, tmp_path, capsys):
    # m_limit 1 checks nothing, so the worst flat ratio is inf
    out_dir = tmp_path / "strict"
    code = main(["check", "spectrum", "--angle", exp_file,
                 "--m-limit", "1", "--n", "1000", "--out", str(out_dir)])
    capsys.readouterr()
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for name in ["manifest.json", *manifest["outputs"]]:
        doc = json.loads((out_dir / name).read_text(), parse_constant=_refuse_constant)
        details = doc.get("details", doc)
        assert details["flat"]["worst_ratio"] is None
        assert details["truncation"]["K"] == 2


def test_check_spectrum_refuses_small_n_before_any_scan(exp_file, monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("the flat scan ran before --n was checked")

    monkeypatch.setattr(cli, "check_flat_lower_bound", unreachable)
    assert main(["check", "spectrum", "--angle", exp_file, "--n", "1"]) == 1
    captured = capsys.readouterr()
    assert "need N >= 2" in captured.err
    assert "flat lower bound" not in captured.out


def test_check_spectrum_m_limit_budget(exp_file, tmp_path, capsys):
    # 1e11 is far below q_4, but the flat scan is linear in m: it would run
    # for days, so the budget refuses it before the first step
    out_dir = tmp_path / "budget"
    code = main(["check", "spectrum", "--angle", exp_file,
                 "--m-limit", "100000000000", "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 3
    assert "resource limit" in err and "m_limit" in err
    assert not (out_dir / "manifest.json").exists()


def test_check_coboundary_variants(exp_file, poly_file, capsys):
    base = ["check", "coboundary", "--samples", "300"]
    assert main(base + ["--angle", exp_file]) == 0
    assert main(base + ["--angle", exp_file, "--h", "analytic:1.0:12"]) == 0
    assert main(base + ["--angle", poly_file, "--h", "smooth:4.0:60"]) == 0
    assert main(base + ["--angle", exp_file, "--h", "smooth:4.0:40", "--tau", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("coboundary identity over 300 samples: pass") == 4


def test_check_coboundary_huge_tau_finishes(exp_file, capsys):
    # tau = 10^400 is decided from bit lengths, and tau = 7.5 + 1/(2 10^21),
    # whose exact powers would have about 10^22 bits, from certified bounds
    # on log2 q_1 and log2 q_2 (it exited 3 when only bit lengths were read);
    # a true near tie, 3 log2 9 to 30 digits, would need powers past the bit
    # budget and exits 3
    base = ["check", "coboundary", "--angle", exp_file, "--samples", "10", "--tau"]
    assert main(base + ["1e400"]) == 0
    assert main(base + [f"{15 * 10**21 + 1}/{2 * 10**21}"]) == 0
    assert main(base + [f"9509775004326937088722433663686/{10**30}"]) == 3
    assert "resource limit" in capsys.readouterr().err


def test_check_coboundary_takes_a_fractional_tau(exp_file, capsys):
    # --tau 10/3 passed the flag's parser, but the tail bound read it with
    # float(), so every series with a tail exited 1
    for spec in ("smooth:4.0:40", "analytic:1.0:24"):
        assert main(["check", "coboundary", "--angle", exp_file, "--h", spec,
                     "--tau", "10/3", "--samples", "50"]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("coboundary identity over 50 samples: pass") == 2
    assert "error" not in captured.err


def test_check_coboundary_tail_past_the_float_range_is_refused(exp_file, capsys):
    # an analytic tail against |m|^(tau/3) divisors with tau = 1000 powers
    # 25^333 and raised OverflowError out of main; tau = 1e400 looped 10^6
    # terms and blamed eta
    for tau in ("1000", "1e300", "1e400"):
        t0 = time.perf_counter()
        assert main(["check", "coboundary", "--angle", exp_file, "--h", "analytic:1.0:24",
                     "--tau", tau, "--samples", "10"]) == 1
        assert time.perf_counter() - t0 < 2.0
    err = capsys.readouterr().err
    assert err.count("the analytic tail against tau/3 divisors passes the float range") == 3
    assert "eta too small" not in err


def test_furstenberg_default_cut_per_angle_kind(poly_file):
    # exp-type angles cut at k = 2, poly-type at 5, any other at snap_index - 2
    poly = angle_from_json(open(poly_file).read())
    assert cli._parse_h("furstenberg", poly, 0) == furstenberg_h(poly, [1.0] * 5, k_cut=5)
    assert cli._parse_h("furstenberg", poly, 0) != furstenberg_h(poly, [1.0] * 4, k_cut=4)
    other = explicit_angle([3, 4, 5, 3, 4, 5, 3, 4, 5, 2**80])  # faithful at q_8
    assert other.kind == "explicit" and other.snap_index == 10
    want = furstenberg_h(other, [1.0] * 8, k_cut=8)
    assert cli._parse_h("furstenberg", other, 0) == want
    assert cli._parse_h("furstenberg", other, 0) != furstenberg_h(other, [1.0] * 7, k_cut=7)


@pytest.mark.parametrize("lq", ["1/3", "1/2", "0/1"])
def test_furstenberg_on_an_angle_without_a_ladder_is_a_usage_error(lq, capsys):
    # the default cut max(1, snap_index - 2) = 1 reached past a ladder of
    # k_star - 1 <= 0 terms, and the error spoke of a "built ladder (max 0)"
    assert main(["sweep", "--rational", lq, "--v", "2", "--n", "1e3"]) == 1
    err = capsys.readouterr().err
    assert "no ladder term below its snapshot" in err
    assert "use --h none, analytic or smooth" in err
    assert "built ladder" not in err and "Traceback" not in err


@pytest.mark.parametrize("lq", ["2/7", "355/1131", "5/8", "13/21"])
def test_furstenberg_default_runs_on_rational_ladders(lq, capsys):
    # on 5/8 and 13/21, |c(1)| = 1.848 broke the declared envelope 1 (exit 1)
    assert main(["sweep", "--rational", lq, "--v", "2", "--n", "1e3"]) == 0
    assert "FAILED" not in capsys.readouterr().out


def test_check_coboundary_builds_subnormal_modes(exp_file, capsys):
    # with seed 1, c(727) rounded past its subnormal envelope and exited 1
    for seed in ("0", "1"):
        assert main(["check", "coboundary", "--angle", exp_file, "--h", "analytic:1.0:800",
                     "--seed", seed, "--samples", "50"]) == 0
    assert capsys.readouterr().out.count("samples: pass") == 2


def test_check_coboundary_bad_series_flag(exp_file, capsys):
    assert main(["check", "coboundary", "--angle", exp_file, "--h", "garbage"]) == 1
    assert main(["check", "coboundary", "--angle", exp_file, "--h", "analytic:zzz"]) == 1
    capsys.readouterr()


# worst_defect of check coboundary before its samples were evaluated in
# blocks (one psi.defect call per point), at --seed 0 unless given: exp k4
# analytic:1.0:24 has 22 modes, so a block holds 8192 // 22 = 372 points, and
# poly (4, 6) smooth:4.0:120 has 105 modes, 78 points a block
PINNED_DEFECTS = {
    ("exp", 1): "0x1.0000000000000p-51",
    ("exp", 373): "0x1.0000000000000p-50",
    ("exp", 1000): "0x1.0000000000000p-50",
    ("exp", 5000, 7): "0x1.1400000000000p-50",
    ("poly", 1): "0x1.2000000000000p-50",
    ("poly", 79): "0x1.4000000000000p-50",
    ("poly", 1000): "0x1.5800000000000p-50",
    ("poly", 5000, 7): "0x1.8800000000000p-50",
}
PINNED_RUNS = {
    "exp": ("analytic:1.0:24", "0x1.35435c76b3e4dp-30", 44),
    "poly": ("smooth:4.0:120", "0x1.af0075f25c268p-12", 210),
}


@pytest.mark.parametrize("case", list(PINNED_DEFECTS))
def test_check_coboundary_worst_defect_is_pinned(case, exp_file, poly_file, tmp_path, capsys):
    angle, samples, *seed = case
    spec, budget, support = PINNED_RUNS[angle]
    argv = ["check", "coboundary", "--angle", exp_file if angle == "exp" else poly_file,
            "--h", spec, "--samples", str(samples), "--seed", str(seed[0] if seed else 0)]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    details = json.loads((tmp_path / "manifest.json").read_text())["details"]
    assert details["worst_defect"].hex() == PINNED_DEFECTS[case]
    assert details["budget"].hex() == budget
    assert details["psi_support"] == support and details["passed"] is True
    assert details["pass"] is True and details["samples"] == samples
    worst = float.fromhex(PINNED_DEFECTS[case])
    assert (f"coboundary identity over {samples} samples: pass "
            f"(worst {worst:.3e}, budget {float.fromhex(budget):.3e})") in capsys.readouterr().out


def test_check_refuses_empty_sample_counts(exp_file, tmp_path, capsys):
    # a certificate over no samples checks nothing: refuse it, write nothing
    runs = [
        ["check", "coboundary", "--angle", exp_file, "--samples", "0"],
        ["check", "coboundary", "--angle", exp_file, "--samples", "-3"],
        ["check", "coeff-bound", "--count", "0"],
        ["check", "coeff-bound", "--count", "-1"],
    ]
    for i, argv in enumerate(runs):
        out_dir = tmp_path / str(i)
        assert main([*argv, "--out", str(out_dir)]) == 1, argv
        assert not out_dir.exists()
    captured = capsys.readouterr()
    assert "pass" not in captured.out
    assert captured.err.count("error:") == len(runs)
    assert "--samples must be >= 1, got -3" in captured.err


def test_check_coeff_bound(capsys):
    code = main(["check", "coeff-bound", "--seed", "0", "--count", "3",
                 "--m-limit", "500"])
    out = capsys.readouterr().out
    assert code == 0
    for i in range(3):
        assert f"series {i}: pass" in out


def test_check_coeff_bound_count_past_the_budget_is_refused(monkeypatch, tmp_path, capsys):
    # --count 10^8 printed series for hours, keeping every row: a count past
    # the budget exits 3 before the first series, and writes nothing
    def no_series(*args):
        raise AssertionError("a series ran past the --count budget")

    monkeypatch.setattr(cli, "check_coeff_bound", no_series)
    for count in (10**8, cli.COEFF_COUNT_LIMIT + 1):
        out_dir = tmp_path / str(count)
        assert main(["check", "coeff-bound", "--count", str(count),
                     "--out", str(out_dir)]) == 3
        assert not out_dir.exists()
    captured = capsys.readouterr()
    assert "series 0" not in captured.out
    assert captured.err.count(f"exceeds the budget of {cli.COEFF_COUNT_LIMIT} series") == 2
    # the budget itself runs
    monkeypatch.undo()
    monkeypatch.setattr(cli, "COEFF_COUNT_LIMIT", 3)
    assert main(["check", "coeff-bound", "--count", "3", "--m-limit", "100"]) == 0
    assert main(["check", "coeff-bound", "--count", "4", "--m-limit", "100"]) == 3


# ---------------------------------------------------------------------------
# sweep command

SWEEP_ARGS = [
    "sweep", "--h", "analytic:1.0:8", "--b", "1;2;0;-1",
    "--x", "0.3,0.71,0.05,0.42", "--v", "4", "--theta", "0.7", "--n", "1e3,1e4",
]


def test_sweep_artifacts_and_reproducibility(exp_file, tmp_path, capsys):
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    assert main(SWEEP_ARGS + ["--angle", exp_file, "--out", str(d1)]) == 0
    assert main(SWEEP_ARGS + ["--angle", exp_file, "--out", str(d2)]) == 0
    capsys.readouterr()

    csv1 = (d1 / "sweep.csv").read_text().strip().split("\n")
    csv2 = (d2 / "sweep.csv").read_text().strip().split("\n")
    assert csv1[0] == "N,M,theta,b,re_S,im_S,norm,runtime_ms"
    assert len(csv1) == 3
    # identical up to the wall-clock column
    strip = lambda line: line.rsplit(",", 1)[0]
    assert [strip(l) for l in csv1] == [strip(l) for l in csv2]

    m1 = json.loads((d1 / "manifest.json").read_text())
    m2 = json.loads((d2 / "manifest.json").read_text())
    assert m1["outputs"] == ["sweep.csv", "sweep.svg"]
    assert m1["details"]["rows_digest"] == m2["details"]["rows_digest"]
    assert len(m1["details"]["rows_digest"]) == 16
    assert len(m1["details"]["observations"]) == 2

    svg = ET.fromstring((d1 / "sweep.svg").read_text())
    assert svg.tag.endswith("svg")
    assert any(child.tag.endswith("polyline") for child in svg.iter())


def test_sweep_prints_manifest_without_out(exp_file, capsys):
    code = main(
        ["sweep", "--angle", exp_file, "--h", "none", "--b", "0;1",
         "--x", "0.3,0.7", "--v", "2", "--theta", "0.8", "--n", "200,400"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "|S|/M=" in out
    assert "manifest: {" in out


RATIONAL_ARGS = [
    "sweep", "--rational", "1/2", "--h", "analytic:1.0:6", "--b", "1;2;0;-1",
    "--x", "0.3,0.71,0.05,0.42", "--v", "4", "--theta", "0.8", "--n", "500,2000",
]


def test_sweep_rational_cross_check(capsys):
    code = main(RATIONAL_ARGS)
    out = capsys.readouterr().out
    assert code == 0
    assert "FAILED" not in out


def _negated_plan(plan):
    """A kernel route that disagrees with the closed form by more than 1e-9:
    its plan reads -S."""
    return replace(plan, turn=-plan.turn)


def _patch_result(monkeypatch, module, name, change):
    """Make module.name return change(its result)."""
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: change(fn(*args, **kwargs)))


def test_sweep_rational_cross_check_failure_exits_2(monkeypatch, tmp_path, capsys):
    _patch_result(monkeypatch, experiments, "_plan", _negated_plan)
    code = main(RATIONAL_ARGS + ["--out", str(tmp_path)])
    assert code == 2
    assert "rational cross-check FAILED against the generic path" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["details"]["rational_cross_check"] is False


def test_sweep_rational_records_the_sweep_theta(tmp_path, capsys):
    # ceil(N^0.8) makes log M / log N drift above 0.8; the rows must carry
    # the theta the sweep ran at, as the --angle path does
    code = main(
        ["sweep", "--rational", "355/1131", "--h", "analytic:1.0:8", "--v", "4",
         "--b", "1;2;0;-1", "--theta", "0.8", "--n", "1e4,1e5", "--seed", "2",
         "--out", str(tmp_path)]
    )
    assert code == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [o["theta"] for o in manifest["details"]["observations"]] == [0.8, 0.8]
    rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")[1:]
    assert [row.split(",")[2] for row in rows] == ["0.8", "0.8"]


def test_sweep_rational_sieves_each_segment_once(monkeypatch, capsys):
    calls = Counter()

    def counting(n_top, length, *args, **kwargs):
        calls[n_top, length] += 1
        return sieve_segment(n_top, length, *args, **kwargs)

    for module in (cli, experiments):
        monkeypatch.setattr(module, "sieve_segment", counting, raising=False)
    code = main(RATIONAL_ARGS)
    assert code == 0
    assert "rational_cross_check\": true" in capsys.readouterr().out
    # the closed form and its generic cross-check share one sieved segment
    assert calls == {(500, ceil(500**0.8)): 1, (2000, ceil(2000**0.8)): 1}


def test_sweep_rational_builds_each_plan_once(monkeypatch, capsys):
    # three rows on each of two thetas: the closed form's 50-digit
    # amplitudes (one per positive mode of h) and the kernel's small
    # divisors are each computed once per sweep, not once per row or theta
    counts = Counter()

    def counted(name):
        fn = getattr(experiments, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(experiments, name, wrapper)

    for name in ("_mp_amplitude", "small_divisor"):
        counted(name)
    code = main(
        ["sweep", "--rational", "355/1131", "--h", "analytic:1.0:8", "--b", "1;2;0;-1",
         "--x", "0.3,0.71,0.05,0.42", "--v", "4", "--theta", "0.7,0.8",
         "--n", "1e3,1e4,1e5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "rational_cross_check\": true" in out
    assert out.count("theta=0.7 N=") == 3 and out.count("theta=0.8 N=") == 3
    assert counts == {"_mp_amplitude": 8, "small_divisor": 8}


def test_sweep_rational_past_the_step_cap_is_resource_limit(capsys):
    # the closed form would step all 10,000,019 cycle points of its prefix
    code = main(["sweep", "--rational", "1/10000019", "--h", "analytic:1.0:8",
                 "--v", "4", "--n", "1e4"])
    assert code == 3
    err = capsys.readouterr().err
    assert "resource limit" in err and "Traceback" not in err


def test_sweep_rational_past_the_prefix_cap_exits_at_once(capsys):
    # 8 positive modes: q (8 + 1) is just past the prefix term cap
    q = experiments.PREFIX_TERM_LIMIT // 9 + 1
    t0 = time.perf_counter()
    code = main(["sweep", "--rational", f"1/{q}", "--h", "analytic:1.0:8",
                 "--v", "4", "--n", "1e4"])
    assert code == 3 and time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "prefix terms" in err and "Traceback" not in err


def test_sweep_rational_checks_the_prefix_cap_before_sieving(monkeypatch, capsys):
    # q (8 + 1) = 1,000,008 is past the cap: no segment of N = 10^10 is sieved
    def refuse(*args, **kwargs):
        raise AssertionError("sieved before the prefix cap was checked")

    monkeypatch.setattr(experiments, "sieve_segment", refuse)
    code = main(["sweep", "--rational", "1/111112", "--h", "analytic:1.0:8",
                 "--v", "4", "--n", "1e10"])
    assert code == 3
    err = capsys.readouterr().err
    assert "prefix terms" in err and "Traceback" not in err


def test_sweep_rational_needs_ascending_n(exp_file, capsys):
    # the rational path cuts its segments with sweep_segments(), as sweep()
    # does, so it refuses the same lists
    for source in (["--rational", "1/3"], ["--angle", exp_file]):
        code = main(
            ["sweep", *source, "--h", "analytic:1.0:4", "--v", "3",
             "--b", "1;1;1", "--n", "1e3,1e2"]
        )
        assert code == 1, source
    assert capsys.readouterr().err.count("strictly ascending") == 2


def test_sweep_b_entry_past_2_53_is_a_usage_error(exp_file, capsys):
    # a 400-digit entry has no float: b_nu x_nu raised OverflowError, which
    # escaped main
    code = main(["sweep", "--angle", exp_file, "--h", "analytic:1.0:4", "--v", "2",
                 "--n", "1e3", "--b", "0;1" + "0" * 400])
    assert code == 1
    err = capsys.readouterr().err
    assert "past 2^53" in err and "Traceback" not in err


def test_sweep_b_with_a_leading_minus(exp_file, capsys):
    # argparse reads a separate value with a leading minus as a flag, so
    # such a vector is written --b=-1;2, as the --b help says
    argv = ["sweep", "--angle", exp_file, "--h", "analytic:1.0:4", "--v", "2", "--n", "1e3"]
    assert main(argv + ["--b=-1;2"]) == 0
    capsys.readouterr()
    assert main(argv + ["--b", "-1;2"]) == 1
    err = capsys.readouterr().err
    assert "argument --b: expected one argument" in err and "Traceback" not in err


def test_sweep_usage_errors(exp_file, capsys):
    runs = [
        ["sweep", "--angle", exp_file, "--theta", "0", "--n", "100"],
        ["sweep", "--angle", exp_file, "--theta", "1.5", "--n", "100"],
        ["sweep", "--theta", "0.7", "--n", "100"],  # no angle source
        ["sweep", "--angle", exp_file, "--x", "0.1,0.2", "--v", "4"],
        ["sweep", "--angle", exp_file, "--b", "a;b"],
        ["sweep", "--angle", exp_file, "--h", "mystery"],
        ["sweep", "--rational", "7"],
        ["sweep", "--rational", "1/3", "--h", "none", "--v", "2", "--n", "-5"],
        ["sweep", "--rational", "1/3", "--h", "none", "--v", "2", "--n", "0,10"],
        ["sweep", "--rational", "1/3", "--h", "none", "--v", "2", "--theta", "nan"],
    ]
    for argv in runs:
        assert main(argv) == 1, argv
    err = capsys.readouterr().err
    assert err.count("error:") == len(runs)
    assert err.count("every N must be at least 1") == 2
    assert "theta must be in (0, 1], got nan" in err


def test_bad_tau_and_vanishing_eta_are_usage_errors(exp_file, capsys):
    # a tau of 1/0, and an eta whose e^-eta rounds to 1, raised
    # ZeroDivisionError; --rational beside --angle silently won
    runs = [
        ["angle", "build-poly", "--tau", "1/0", "--k-star", "6"],
        ["check", "coboundary", "--angle", exp_file, "--tau", "1/0"],
        ["check", "coboundary", "--angle", exp_file, "--h", "analytic:1e-300:3"],
        ["sweep", "--angle", exp_file, "--h", "analytic:1e-300:3", "--n", "1e4"],
        ["sweep", "--angle", exp_file, "--rational", "1/3", "--h", "none", "--n", "1e4"],
    ]
    for argv in runs:
        assert main(argv) == 1, argv
    err = capsys.readouterr().err
    assert err.count("error:") == len(runs)
    assert err.count("got '1/0'") == 2
    assert err.count("e^-eta rounds to 1") == 2
    assert "--angle FILE or --rational l/q, not both" in err


def test_empty_or_infinite_series_flags_are_usage_errors(exp_file, capsys):
    # furstenberg:0 and :-3 built h = 0, analytic:inf:3 h = c(0) and
    # smooth:inf:3 a lone mode 1, and each run exited 0
    specs = ["furstenberg:0", "furstenberg:-3", "analytic:inf:3", "smooth:inf:3"]
    for spec in specs:
        assert main(["sweep", "--angle", exp_file, "--h", spec, "--v", "2", "--n", "1e4"]) == 1
        assert main(["check", "coboundary", "--angle", exp_file, "--h", spec,
                     "--samples", "10"]) == 1
    err = capsys.readouterr().err
    assert err.count("error: bad --h value") == 2 * len(specs)
    assert err.count("k_cut must be >= 1") == 4 and err.count("must be finite") == 4


def test_series_flag_with_empty_or_extra_fields_is_a_usage_error(exp_file, capsys):
    # empty fields were dropped, so analytic::4 ran with eta = 4 and
    # m_cut = 24, and an extra field was ignored; each run exited 0
    specs = ["analytic::4", "analytic:", "analytic:1.0:4:9", "smooth:4.0:20:3",
             "furstenberg:2:7", "none:5"]
    for spec in specs:
        assert main(["sweep", "--angle", exp_file, "--h", spec, "--v", "2", "--n", "1e4"]) == 1
        assert main(["check", "coboundary", "--angle", exp_file, "--h", spec,
                     "--samples", "10"]) == 1
    err = capsys.readouterr().err
    assert err.count("error: bad --h value") == 2 * len(specs)
    assert err.count("takes no empty field") == 2 * len(specs)


_H_TOKENS = ["", "0", "1", "-1", "2", "4", "24", "0.5", "1.0", "3.5", "-0", "1e-300",
             "inf", "nan", "abc", "1/2"]


def _joined(tokens, junk, sep):
    """Lists of 1-4 tokens joined by sep, either all well formed or mixed
    with junk, so most drawn values reach past the parser."""
    return (st.lists(st.sampled_from(tokens), min_size=1, max_size=4)
            | st.lists(st.sampled_from(tokens + junk), min_size=1, max_size=4)).map(sep.join)


# values of the sweep flags, each drawn or left at its default; every size
# stays small (N below 10^10, V at most 12) so an example that runs finishes
# in well under a second
_SWEEP_FLAGS = {
    "--h": st.builds(
        lambda head, fields: ":".join([head, *fields]),
        st.sampled_from(["none", "furstenberg", "analytic", "smooth", "", "bogus"]),
        st.lists(st.sampled_from(_H_TOKENS), max_size=3),
    ),
    "--b": _joined(["0", "1", "-1", "2", "-3", "1" + "0" * 400], ["", "x"], ";"),
    "--x": _joined(["0.3", "0", "0.999", "1e-320"], ["1.0", "-0.2", "nan", "inf", "a"], ","),
    "--v": st.sampled_from(["2", "3", "4", "12"]) | st.sampled_from(["1", "0", "-1", "x"]),
    "--theta": _joined(["0.7", "0.9", "0.625", "1", "1e-300"], ["0", "1.5", "nan", "inf"],
                       ","),
    "--n": _joined(["1e3", "2e3", "5000", "1", "2", "1e9", "9007199254740993"],
                   ["0", "-5", "1e30", "2.5", "x", ""], ","),
}


@pytest.mark.filterwarnings("ignore:theta = .* window floor:RuntimeWarning")
@settings(max_examples=settings.default.max_examples // 4, deadline=10_000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=st.fixed_dictionaries({}, optional=_SWEEP_FLAGS))
def test_series_flag_exits_with_a_documented_code(exp_file, monkeypatch, flags):
    # any of --h, --b, --x, --v, --theta and --n, each drawn or left at its
    # default, either runs or is refused with a documented code; an
    # exception that escapes main fails the test, and so does an example
    # past the 10 s deadline
    monkeypatch.setenv(MEM_BUDGET_ENV, str(1 << 26))
    argv = ["sweep", "--angle", exp_file, "--h", "analytic:1.0:4", "--v", "2", "--n", "1e3"]
    # --b=-1;2 keeps a value with a leading minus from reading as a flag;
    # argparse keeps the last of a repeated flag
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    code = main(argv)
    assert code in (0, 1, 2, 3), argv


# (l, q) in lowest terms with 0 <= l < q <= 500
_LOWEST = st.builds(lambda l, q: Fraction(l % q, q), st.integers(0, 499), st.integers(1, 500)).map(
    lambda f: (f.numerator, f.denominator))

# --rational values: lowest-terms l/q with q <= 500, l >= q, non-lowest
# terms, q <= 0, three fields, non-integers, and a q past the prefix cap
_RATIONAL_SPECS = st.one_of(
    _LOWEST.map(lambda lq: "%d/%d" % lq),
    st.builds(lambda q, k: f"{q + k}/{q}", st.integers(1, 500), st.integers(0, 500)),
    st.builds(lambda lq, k: f"{k * lq[0]}/{k * lq[1]}", _LOWEST, st.integers(2, 9)),
    st.builds(lambda l, q: f"{l}/{q}", st.integers(-3, 3), st.integers(-500, 0)),
    st.sampled_from(["1/2/3", "0/1/1", "1.5/3", "1/2.5", "1e3/7", "a/b", "1/", "/3", "", "x"]),
    st.builds(lambda q: f"1/{q}", st.integers(experiments.PREFIX_TERM_LIMIT + 1, 10**7)),
)

# the same flags with N at most 10^6: the closed form's rows run per term
_RATIONAL_FLAGS = {
    **_SWEEP_FLAGS,
    "--n": _joined(["1e3", "2e3", "5000", "1", "2", "1e6"], ["0", "-5", "2.5", "x", ""], ","),
}


@pytest.mark.filterwarnings("ignore:theta = .* window floor:RuntimeWarning")
@settings(max_examples=settings.default.max_examples // 4, deadline=10_000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=_RATIONAL_SPECS, flags=st.fixed_dictionaries({}, optional=_RATIONAL_FLAGS))
def test_rational_flag_exits_with_a_documented_code(monkeypatch, spec, flags):
    # sweep --rational with a drawn l/q and the drawn sweep flags either runs
    # (its two routes cross-checked) or is refused with a documented code
    monkeypatch.setenv(MEM_BUDGET_ENV, str(1 << 26))
    argv = ["sweep", f"--rational={spec}", "--h", "analytic:1.0:4", "--v", "2", "--n", "1e3"]
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    code = main(argv)
    assert code in (0, 1, 2, 3), argv


# values of the check coboundary flags: --samples at and around a block of
# 8192 // 22 = 372 points (exp k4, analytic:1.0:24) and up to 5000, --tau as
# exact rationals, huge ones, near ties, and malformed ones
_COBOUNDARY_FLAGS = {
    "--samples": st.sampled_from(["1", "371", "372", "373", "5000", "0", "-3", "x", "1.5"])
    | st.integers(1, 5000).map(str),
    "--seed": st.integers(-2, 2**64).map(str) | st.sampled_from(["x", ""]),
    "--tau": st.sampled_from([
        "4", "10/3", "7.5", "3", "3.0000001", "1/0", "0", "-4", "1e400", "1" + "0" * 400,
        f"{15 * 10**21 + 1}/{2 * 10**21}", f"9509775004326937088722433663686/{10**30}",
        "nan", "inf", "x", "",
    ]) | st.integers(3, 10**30).map(str),
    "--h": st.builds(
        lambda head, fields: ":".join([head, *fields]),
        st.sampled_from(["none", "furstenberg", "analytic", "smooth", "", "bogus"]),
        st.lists(st.sampled_from(_H_TOKENS), max_size=3),
    ),
}


@settings(max_examples=settings.default.max_examples // 4, deadline=10_000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(poly=st.booleans(), flags=st.fixed_dictionaries({}, optional=_COBOUNDARY_FLAGS))
def test_coboundary_flags_exit_with_a_documented_code(exp_file, poly_file, monkeypatch,
                                                      poly, flags):
    # check coboundary with any of --samples, --seed, --tau and --h drawn
    # or left at its default either runs or is refused with a documented
    # code; an exception that escapes main fails the test, and so does an
    # example past the 10 s deadline
    monkeypatch.setenv(MEM_BUDGET_ENV, str(1 << 26))
    argv = ["check", "coboundary", "--angle", poly_file if poly else exp_file,
            "--h", "analytic:1.0:24", "--samples", "50"]
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    code = main(argv)
    assert code in (0, 1, 2, 3), argv


# values of the check spectrum flags: --m-limit at and past the scan's
# ends, at the int64 chunk seams, at and past its 10^7 budget, and
# malformed; --n below 2, huge, and malformed
_SEAM = spectrum.CHUNK
_SPECTRUM_FLAGS = {
    "--m-limit": st.sampled_from([
        "0", "-1", "-10000000", "1", str(_SEAM - 1), str(_SEAM), str(_SEAM + 1),
        str(2 * _SEAM + 1), str(spectrum.DENSE_SCAN_LIMIT), str(spectrum.DENSE_SCAN_LIMIT + 1),
        "1" + "0" * 400, "x", "1.5", "",
    ]) | st.integers(-3, 3 * _SEAM).map(str),
    "--n": st.sampled_from(["1", "0", "-5", "2", "3", "1000000", "1" + "0" * 400,
                            "1" + "0" * 4000, "x", "2.5", ""])
    | st.integers(-3, 10**30).map(str),
}


@settings(max_examples=settings.default.max_examples // 4, deadline=30_000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(poly=st.booleans(), flags=st.fixed_dictionaries({}, optional=_SPECTRUM_FLAGS))
@example(poly=False, flags={"--m-limit": str(spectrum.DENSE_SCAN_LIMIT)})
@example(poly=False, flags={"--m-limit": str(spectrum.DENSE_SCAN_LIMIT + 1)})
@example(poly=True, flags={"--m-limit": str(2 * _SEAM + 1)})
@example(poly=False, flags={"--n": "1" + "0" * 4000})  # 2 ln N past q_3: OverflowError
def test_spectrum_flags_exit_with_a_documented_code(exp_file, poly_file, monkeypatch, capsys,
                                                    poly, flags):
    # check spectrum with --m-limit and --n drawn or left at their defaults
    # either runs or is refused with a documented code, and exits 0 only
    # where the flat scan ran; an exception that escapes main fails the
    # test, and so does an example past the 30 s deadline (poly (4, 6) at
    # 10^7 steps its 66-bit q_4 one m at a time, about 4 s)
    monkeypatch.setenv(MEM_BUDGET_ENV, str(1 << 26))
    argv = ["check", "spectrum", "--angle", poly_file if poly else exp_file,
            "--m-limit", "1000"]
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    capsys.readouterr()
    code = main(argv)
    assert code in (0, 1, 2, 3), argv
    ran = "flat lower bound up to " in capsys.readouterr().out
    assert ran or code != 0, argv


def test_series_flag_past_the_mode_cap_is_resource_limit(exp_file, capsys):
    # smooth:4.0:100000 built 2 * 10^5 coefficients before any check (and
    # 10^8 modes exhausted memory); the cap is checked before the first mode
    spec = "smooth:4.0:100000"
    t0 = time.perf_counter()
    assert main(["sweep", "--angle", exp_file, "--h", spec, "--v", "2", "--n", "1e4"]) == 3
    assert main(["check", "coboundary", "--angle", exp_file, "--h", spec]) == 3
    assert time.perf_counter() - t0 < 5.0
    assert capsys.readouterr().err.count("past the 10000 cap") == 2


def test_sweep_n_is_parsed_exactly(monkeypatch, capsys):
    # 2^53 + 1 has no float; the refusal message shows the N that arrived
    monkeypatch.setenv(MEM_BUDGET_ENV, "1000")
    code = main(
        ["sweep", "--rational", "1/2", "--h", "none", "--b", "0;1",
         "--x", "0.3,0.7", "--v", "2", "--theta", "0.7", "--n", "9007199254740993"]
    )
    assert code == 3
    assert "sieve_segment(9007199254740993," in capsys.readouterr().err


def test_sweep_rejects_fractional_n(capsys):
    for n in ("2.5", "1e3,2.5e-1", "1e400", "ten"):
        code = main(
            ["sweep", "--rational", "1/2", "--h", "none", "--b", "0;1",
             "--x", "0.3,0.7", "--v", "2", "--theta", "0.7", "--n", n]
        )
        assert code == 1, n
    assert capsys.readouterr().err.count("error:") == 4


def test_sweep_memory_budget(monkeypatch, capsys):
    monkeypatch.setenv(MEM_BUDGET_ENV, "1000")
    code = main(
        ["sweep", "--rational", "1/2", "--h", "none", "--b", "0;1",
         "--x", "0.3,0.7", "--v", "2", "--theta", "0.7", "--n", "1e6"]
    )
    assert code == 3
    assert "resource limit" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# dispatch


def test_help_and_dispatch(capsys):
    assert main(["--help"]) == 0
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["angle"]) == 1
    assert main(["check"]) == 1
    capsys.readouterr()


def test_check_spectrum_h_is_no_help_abbreviation(exp_file, capsys):
    # check spectrum has no --h: argparse's prefix matching reads it as
    # --help, which prints usage and exits 0 without running a certificate
    code = main(["check", "spectrum", "--angle", exp_file, "--h", "x"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "flat lower bound" not in out and "unrecognized arguments: --h" in err


def test_check_coeff_bound_h_is_no_help_abbreviation(capsys):
    code = main(["check", "coeff-bound", "--h", "analytic:nan:3"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "series 0" not in out and "unrecognized arguments: --h" in err


def test_sweep_flag_prefix_is_no_abbreviation(capsys):
    # prefix matching reads --the as --theta
    code = main(["sweep", "--rational", "1/2", "--h", "none", "--v", "2",
                 "--the", "0.8", "--n", "1e3"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "|S|/M" not in out and "unrecognized arguments: --the" in err


def test_every_parser_matches_flags_in_full():
    assert all(not parser.allow_abbrev for parser in _parsers(cli._build_parser()))


def test_svg_escapes_as_saxutils_did(monkeypatch):
    # html.escape without quotes makes saxutils' three replacements, & < >
    from xml.sax.saxutils import escape

    title, label = 'a & b < c > d "e" \'f\'', "<&>\"'"
    groups = [(label, [(3.0, 0.1), (4.0, 0.05)])]
    svg = cli._svg_chart(groups, title)
    assert "&amp; b &lt; c &gt; d \"e\" 'f'" in svg and "&lt;&amp;&gt;\"'" in svg
    monkeypatch.setattr(cli, "escape", lambda text, quote=False: escape(text))
    assert cli._svg_chart(groups, title) == svg


# ---------------------------------------------------------------------------
# run report

MANIFEST_KEYS = ["command", "config_digest", "outputs", "started", "finished", "details"]

# every command that ends in cli._report: its argv (EXP stands for the exp
# k4 angle file), the files it writes under --out, and the patch that makes
# its verdict false (None for angle build, which has no verdict, and for a
# kernel sweep, which has no cross-check to fail)
REPORT_RUNS = {
    "build-exp": (["angle", "build-exp", "--k-star", "4"], ["angle-exp-k4.json"], None),
    "build-poly": (["angle", "build-poly", "--tau", "4", "--k-star", "6"],
                   ["angle-poly-t4-k6.json"], None),
    "verify": (["angle", "verify", "--angle", "EXP", "--all"], [],
               (cli, "check_convergent_bounds", lambda c: replace(c, det_ok=False))),
    "spectrum": (["check", "spectrum", "--angle", "EXP", "--m-limit", "1000"], [],
                 (cli, "check_flat_lower_bound", lambda c: replace(c, passed=False))),
    "coboundary": (["check", "coboundary", "--angle", "EXP", "--samples", "50"], [],
                   (cli, "solve_coboundary", lambda g: replace(g, identity_error_bound=-1.0))),
    "coeff-bound": (["check", "coeff-bound", "--count", "2", "--m-limit", "100"], [],
                    (cli, "check_coeff_bound", lambda c: replace(c, passed=False))),
    "sweep": (SWEEP_ARGS + ["--angle", "EXP"], ["sweep.csv", "sweep.svg"], None),
    "sweep-rational": (RATIONAL_ARGS, ["sweep.csv", "sweep.svg"],
                       (experiments, "_plan", _negated_plan)),
}


@pytest.mark.parametrize("run", list(REPORT_RUNS))
def test_report_writes_files_and_manifest_and_picks_the_exit_code(
    run, exp_file, tmp_path, monkeypatch, capsys
):
    argv, files, failing = REPORT_RUNS[run]
    argv = [exp_file if arg == "EXP" else arg for arg in argv]
    verdict = "rational_cross_check" if argv[0] == "sweep" else "passed"

    def manifests(code):
        """Run argv without and with --out; both must exit with code."""
        out_dir = tmp_path / str(code)
        assert main(argv) == code
        out = capsys.readouterr().out
        printed = json.loads(out[out.index("manifest: {") + len("manifest: "):])
        assert main(argv + ["--out", str(out_dir)]) == code
        capsys.readouterr()
        written = json.loads((out_dir / "manifest.json").read_text())
        assert list(printed) == list(written) == MANIFEST_KEYS
        assert printed["outputs"] == [] and written["outputs"] == files
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(files + ["manifest.json"])
        for key in ("command", "config_digest", "details"):
            assert printed[key] == written[key]
        return written["details"]

    assert manifests(0).get(verdict, True) is True
    if failing is not None:
        _patch_result(monkeypatch, *failing)
        assert manifests(2)[verdict] is False


def _manifest_without_clock(path):
    doc = json.loads(path.read_text())
    del doc["started"], doc["finished"]
    return doc


def test_parser_is_built_once_and_reused(exp_file, tmp_path, capsys):
    # a later call that relies on a default sees the default, not the value
    # an earlier call in the same process passed
    assert cli._build_parser() is cli._build_parser()
    base = ["check", "spectrum", "--angle", exp_file, "--n", "1000", "--out"]
    assert main([*base[:4], "--m-limit", "5", *base[4:], str(tmp_path / "first")]) == 0
    assert main([*base, str(tmp_path / "reused")]) == 0
    cli._build_parser.cache_clear()
    assert main([*base, str(tmp_path / "fresh")]) == 0
    capsys.readouterr()
    reused = _manifest_without_clock(tmp_path / "reused" / "manifest.json")
    assert reused == _manifest_without_clock(tmp_path / "fresh" / "manifest.json")
    assert reused["details"]["flat"]["m_limit"] == 100000
    first = _manifest_without_clock(tmp_path / "first" / "manifest.json")
    assert first["details"]["flat"]["m_limit"] == 5


def _parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_parser_keeps_no_state_between_parses():
    # the one parser is reused, so no action may accumulate into a default
    mutable = (list, dict, set, bytearray)
    for parser in _parsers(cli._build_parser()):
        for action in parser._actions:
            assert not isinstance(action, (argparse._AppendAction, argparse._AppendConstAction))
            assert not isinstance(action.default, mutable), action.dest
        assert not any(isinstance(v, mutable) for v in parser._defaults.values())
