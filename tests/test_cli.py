"""End-to-end command line checks, driven through main() in process.

Exit code contract: 0 pass, 1 usage error, 2 certificate failure,
3 resource limit.
"""

import json
import xml.etree.ElementTree as ET
from collections import Counter
from math import ceil

import pytest

from mobiusflow import cli, experiments
from mobiusflow.cli import main
from mobiusflow.contfrac import angle_digest, angle_from_json
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


def test_check_coboundary_variants(exp_file, poly_file, capsys):
    base = ["check", "coboundary", "--samples", "300"]
    assert main(base + ["--angle", exp_file]) == 0
    assert main(base + ["--angle", exp_file, "--h", "analytic:1.0:12"]) == 0
    assert main(base + ["--angle", poly_file, "--h", "smooth:4.0:60"]) == 0
    assert main(base + ["--angle", exp_file, "--h", "smooth:4.0:40", "--tau", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("coboundary identity over 300 samples: pass") == 4


def test_check_coboundary_bad_series_flag(exp_file, capsys):
    assert main(["check", "coboundary", "--angle", exp_file, "--h", "garbage"]) == 1
    assert main(["check", "coboundary", "--angle", exp_file, "--h", "analytic:zzz"]) == 1
    capsys.readouterr()


def test_check_coeff_bound(capsys):
    code = main(["check", "coeff-bound", "--seed", "0", "--count", "3",
                 "--m-limit", "500"])
    out = capsys.readouterr().out
    assert code == 0
    for i in range(3):
        assert f"series {i}: pass" in out


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


def test_sweep_rational_cross_check(capsys):
    code = main(
        ["sweep", "--rational", "1/2", "--h", "analytic:1.0:6", "--b", "1;2;0;-1",
         "--x", "0.3,0.71,0.05,0.42", "--v", "4", "--theta", "0.8", "--n", "500,2000"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "FAILED" not in out


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
    code = main(
        ["sweep", "--rational", "1/2", "--h", "analytic:1.0:6", "--b", "1;2;0;-1",
         "--x", "0.3,0.71,0.05,0.42", "--v", "4", "--theta", "0.8", "--n", "500,2000"]
    )
    assert code == 0
    assert "rational_cross_check\": true" in capsys.readouterr().out
    # the closed form and its generic cross-check share one sieved segment
    assert calls == {(500, ceil(500**0.8)): 1, (2000, ceil(2000**0.8)): 1}


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


def test_sweep_usage_errors(exp_file, capsys):
    runs = [
        ["sweep", "--angle", exp_file, "--theta", "0", "--n", "100"],
        ["sweep", "--angle", exp_file, "--theta", "1.5", "--n", "100"],
        ["sweep", "--theta", "0.7", "--n", "100"],  # no angle source
        ["sweep", "--angle", exp_file, "--x", "0.1,0.2", "--v", "4"],
        ["sweep", "--angle", exp_file, "--b", "a;b"],
        ["sweep", "--angle", exp_file, "--h", "mystery"],
        ["sweep", "--rational", "7"],
    ]
    for argv in runs:
        assert main(argv) == 1, argv
    err = capsys.readouterr().err
    assert err.count("error:") == len(runs)


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
