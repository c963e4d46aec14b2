"""The benchmark workloads: seeded inputs, set-up, timed passes, checks.

A workload is a fixed list of commands.  One pass runs them one after
another (a closed loop with one client) and its wall time is the sum of the
command intervals; reading the outputs back and checking them happens
outside those intervals.  Every record, certificate and orbit check a pass
produces is one operation in the ledger.

The seed only produces inputs: the start points x and the seeds of the
analytic/smooth driving-series samples.  The program under test receives
those generated values and nothing else.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Dict, List, Optional, Tuple

import mobiusflow
from mobiusflow import cli, flow
from mobiusflow.flow import FlowConfig, FrequencyVector, TorusPoint

from calibrate import Clock
from oracles import stepped_correlation, twisted_oracle

# tolerances the test suite already applies to the same comparisons
TOL_S = 1e-9  # S between two routes (the CLI's rational cross-check)
TOL_ORBIT = 1e-8  # orbit_direct against orbit_fast (acceptance criterion 05)
TOL_STEP = 1e-9  # chained step() and Birkhoff averages

EXP_B = "1;1;0;-1;0;0;0;2"
SHORT_B = "1;2;0;-1"

# Sizes.  "full" is what the benchmark measures; "tiny" runs the same code
# paths in seconds for the self-test.
PROFILES = {
    "full": {
        "exp": (4, 2),  # build_exp_alpha(k_star, seed_q1=...)
        "poly": (4, 6),
        "sweep_exp_n": "1e4,1e5,3e5",
        "sweep_none_n": "1e6",
        "m_limit": 100000,
        "certify_angle": "exp",
        "exp_h": "analytic:1.0:24",
        "poly_h": "smooth:4.0:120",
        "orbit_n": 50000,
        "distality_n": 20000,
        "steps": 200,
        "conj_m_cut": 60,
        "conj_n": (1, 10, 100, 500, 1000),
    },
    "tiny": {
        "exp": (4, 1),
        "poly": (4, 4),
        "sweep_exp_n": "1e3,1e4",
        "sweep_none_n": "1e4",
        "m_limit": 2000,
        "certify_angle": "poly",  # exp with seed_q1=1 has a degenerate band 1
        "exp_h": "analytic:1.0:6",
        "poly_h": "smooth:4.0:20",
        "orbit_n": 500,
        "distality_n": 300,
        "steps": 10,
        "conj_m_cut": 12,
        "conj_n": (1, 10, 50),
    },
}


@dataclass(frozen=True)
class Inputs:
    """Everything the seed decides."""

    h_seed: int
    conj_seed: int
    x8: Tuple[float, ...]
    y8: Tuple[float, ...]
    x4: Tuple[float, ...]
    conj_x: Tuple[float, ...]


def make_inputs(seed: int) -> Inputs:
    rng = Random(seed)
    return Inputs(
        h_seed=rng.randrange(1 << 31),
        conj_seed=rng.randrange(1 << 31),
        x8=tuple(rng.random() for _ in range(8)),
        y8=tuple(rng.random() for _ in range(8)),
        x4=tuple(rng.random() for _ in range(4)),
        conj_x=tuple(rng.random() for _ in range(4)),
    )


def parse_b(text: str) -> FrequencyVector:
    return FrequencyVector(tuple(int(t) for t in text.split(";")))


def series_from_spec(spec: str, seed: int) -> mobiusflow.FourierSeries:
    """The series a CLI --h flag 'analytic:eta:m_cut' or 'smooth:tau:m_cut' names."""
    kind, param, m_cut = spec.split(":")
    make = {"analytic": mobiusflow.analytic_h_sample, "smooth": mobiusflow.smooth_h_sample}
    return make[kind](float(param), int(m_cut), seed)


def _coords_arg(coords) -> str:
    return ",".join(repr(c) for c in coords)


def _circle(a: float, b: float) -> float:
    e = abs(a - b) % 1.0
    return min(e, 1.0 - e)


def point_dev(p: TorusPoint, q: TorusPoint) -> float:
    return max(_circle(a, b) for a, b in zip(p.coords, q.coords))


class Ledger:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)


@dataclass
class Context:
    """Set-up shared by the timed passes: angles, their JSON files, series."""

    profile: str
    inputs: Inputs
    work: Path
    exp: mobiusflow.AngleCF
    poly: mobiusflow.AngleCF
    exp_path: Path
    poly_path: Path
    series: Dict[str, mobiusflow.FourierSeries]
    sizes: dict


def setup(profile: str, seed: int, work: Path) -> Context:
    """Build both angles, round-trip them through the JSON documents the CLI
    loads, and build the driving series the API workloads use."""
    sizes = PROFILES[profile]
    inputs = make_inputs(seed)
    work.mkdir(parents=True, exist_ok=True)
    built = {
        "exp": mobiusflow.build_exp_alpha(sizes["exp"][0], seed_q1=sizes["exp"][1]),
        "poly": mobiusflow.build_poly_alpha(*sizes["poly"]),
    }
    loaded = {}
    paths = {}
    for name, angle in built.items():
        path = work / f"angle-{name}.json"
        path.write_text(json.dumps(mobiusflow.angle_to_json(angle), sort_keys=True))
        loaded[name] = mobiusflow.angle_from_json(path.read_text())
        paths[name] = path
    series = {
        "exp": series_from_spec(sizes["exp_h"], inputs.h_seed),
        "conj": mobiusflow.smooth_h_sample(4.0, sizes["conj_m_cut"], inputs.conj_seed),
    }
    return Context(
        profile, inputs, work, loaded["exp"], loaded["poly"],
        paths["exp"], paths["poly"], series, sizes,
    )


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""

    def __init__(self, ctx: Context, refs: Optional[dict] = None):
        self.ctx = ctx
        self.refs = refs  # frozen outputs for this seed, or None
        self.first = None  # outputs of the first pass

    def run_pass(self, clock: Optional[Clock] = None) -> Tuple[float, object]:
        """Run the commands once; the raw wall time and the outputs.

        Each command is timed by `clock`, which also keeps the pass's scaled
        time when it calibrates.
        """
        raise NotImplementedError

    def check_pass(self, out, ledger: Ledger) -> None:
        raise NotImplementedError

    def finish(self, ledger: Ledger) -> None:
        """Checks made once per run, outside the timed passes."""

    def reference(self, out) -> dict:
        """The frozen form of one pass's outputs."""
        raise NotImplementedError


@dataclass
class CliResult:
    label: str
    rc: int
    stdout: str
    out_dir: Path


class CliWorkload(Workload):
    """Runs mobiusflow.cli.main in-process, one command after another."""

    def commands(self) -> List[Tuple[str, List[str]]]:
        raise NotImplementedError

    @staticmethod
    def _main(argv: List[str]) -> int:
        try:
            return cli.main(argv)
        except Exception as exc:  # a crash is a failed operation
            print(f"{type(exc).__name__}: {exc}")
            return -1

    def run_pass(self, clock=None):
        clock = clock or Clock()
        clock.reset()
        results = []
        for label, argv in self.commands():
            out_dir = self.ctx.work / label
            shutil.rmtree(out_dir, ignore_errors=True)  # no stale outputs
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = clock.run(self._main, argv + ["--out", str(out_dir)])
            results.append(CliResult(label, rc, sink.getvalue(), out_dir))
        return clock.raw, results

    @staticmethod
    def artifact_bytes(results: List[CliResult]) -> int:
        return sum(
            p.stat().st_size
            for r in results if r.out_dir.is_dir()
            for p in r.out_dir.iterdir() if p.is_file()
        )


def read_sweep(res: CliResult) -> Tuple[List[Tuple[int, int, complex]], Optional[str]]:
    """Rows (N, M, S) from sweep.csv and the manifest's rows_digest."""
    try:
        with open(res.out_dir / "sweep.csv", newline="") as fh:
            rows = [
                (int(r["N"]), int(r["M"]), complex(float(r["re_S"]), float(r["im_S"])))
                for r in csv.DictReader(fh)
            ]
        manifest = json.loads((res.out_dir / "manifest.json").read_text())
    except (OSError, ValueError, KeyError):
        return [], None
    return rows, manifest["details"].get("rows_digest")


def _expected_rows(n_spec: str, theta: float) -> List[Tuple[int, int]]:
    out = []
    for tok in n_spec.split(","):
        n = int(float(tok))
        out.append((n, min(n, math.ceil(n**theta))))
    return out


class SweepExp(CliWorkload):
    """Two CLI sweeps on the exp angle; each row is one operation."""

    name = "sweep-exp"

    def sweeps(self):
        c, s = self.ctx, self.ctx.sizes
        h_seed = str(c.inputs.h_seed)
        return [
            ("kernel", ["sweep", "--angle", str(c.exp_path), "--h", s["exp_h"],
                        "--v", "8", "--b", EXP_B, "--x", _coords_arg(c.inputs.x8),
                        "--theta", "0.7", "--n", s["sweep_exp_n"], "--seed", h_seed],
             s["sweep_exp_n"], 0.7),
            ("twisted", ["sweep", "--angle", str(c.exp_path), "--h", "none",
                         "--v", "4", "--b", SHORT_B, "--x", _coords_arg(c.inputs.x4),
                         "--theta", "0.9", "--n", s["sweep_none_n"], "--seed", h_seed],
             s["sweep_none_n"], 0.9),
        ]

    def finish(self, ledger):
        """Without frozen rows for this seed, check the first kernel row and
        the twisted row against routes that share no engine with the sweep."""
        if self.refs is not None or self.first is None:
            return
        c = self.ctx
        kernel_rows, _ = read_sweep(self.last[0])
        twisted_rows, _ = read_sweep(self.last[1])
        cfg = FlowConfig(alpha=c.exp, h=c.series["exp"], v=8)
        if kernel_rows:
            n, m, s = kernel_rows[0]
            got = stepped_correlation(cfg, parse_b(EXP_B), TorusPoint(c.inputs.x8), n, m)
            ledger.check(abs(got - s) <= TOL_S, f"kernel row N={n} vs stepped orbit")
        else:
            ledger.check(False, "kernel rows missing")
        if twisted_rows:
            n, m, s = twisted_rows[0]
            got = twisted_oracle(c.exp, parse_b(SHORT_B), TorusPoint(c.inputs.x4), n, m)
            ledger.check(abs(got - s) <= TOL_S, f"twisted row N={n} vs exact residues")
        else:
            ledger.check(False, "twisted rows missing")

    def commands(self):
        return [(label, argv) for label, argv, _, _ in self.sweeps()]

    def check_pass(self, out, ledger):
        self.last = out
        if self.first is None:
            self.first = {r.label: read_sweep(r)[1] for r in out}
        refs = self.refs or {}
        for (label, _, n_spec, theta), res in zip(self.sweeps(), out):
            rows, digest = read_sweep(res)
            want = _expected_rows(n_spec, theta)
            frozen = refs.get(label, {}).get("rows")
            for i, (n, m) in enumerate(want):
                ok = res.rc == 0 and i < len(rows) and rows[i][:2] == (n, m)
                ok = ok and digest is not None and digest == self.first[label]
                if ok and frozen is not None:
                    ref = complex(frozen[i][2], frozen[i][3])
                    ok = abs(rows[i][2] - ref) <= TOL_S
                ledger.check(ok, f"{label} row N={n} (rc={res.rc})")

    def reference(self, out):
        ref = {}
        for res in out:
            rows, digest = read_sweep(res)
            ref[res.label] = {
                "rows": [[n, m, s.real, s.imag] for n, m, s in rows],
                "rows_digest": digest,  # information only, never a gate
            }
        return ref


def _verdicts(res: CliResult) -> Dict[str, object]:
    """The structured outputs of one certificate command."""
    d = res.out_dir
    try:
        manifest = json.loads((d / "manifest.json").read_text())
    except (OSError, ValueError):
        return {}
    return manifest.get("details", {})


class Certify(CliWorkload):
    name = "certify"

    def commands(self):
        c, s = self.ctx, self.ctx.sizes
        h_seed = str(c.inputs.h_seed)
        cert_path = str(c.exp_path if s["certify_angle"] == "exp" else c.poly_path)
        return [
            ("verify", ["angle", "verify", "--angle", cert_path, "--all"]),
            ("spectrum", ["check", "spectrum", "--angle", cert_path,
                          "--m-limit", str(s["m_limit"])]),
            ("cob-exp", ["check", "coboundary", "--angle", str(c.exp_path),
                         "--h", s["exp_h"], "--seed", h_seed]),
            ("cob-poly", ["check", "coboundary", "--angle", str(c.poly_path),
                          "--h", s["poly_h"], "--seed", h_seed]),
        ]

    @staticmethod
    def summary(out: List[CliResult]) -> dict:
        """Verdicts and counts per certificate, in a comparable shape."""
        by = {r.label: r for r in out}
        verify = _verdicts(by["verify"])
        legendre = [
            line.endswith(": pass")
            for line in by["verify"].stdout.splitlines()
            if line.startswith("legendre round-trip")
        ]
        spec = _verdicts(by["spectrum"])
        checked = None
        for line in by["spectrum"].stdout.splitlines():
            if line.startswith("flat lower bound"):
                checked = int(line.split("(checked ")[1].split(",")[0])
        flat = spec.get("flat", {})
        summary = {
            "rc": {r.label: r.rc for r in out},
            "bounds": [c["pass"] for c in verify.get("certificates", [])],
            "legendre": legendre,
            "flat": [flat.get("pass"), checked, flat.get("worst_m")],
            "scaling": [[s["k"], s["pass"], s["scanned"]] for s in spec.get("scaling", [])],
            "truncation_K": spec.get("truncation", {}).get("K"),
        }
        for label in ("cob-exp", "cob-poly"):
            d = _verdicts(by[label])
            summary[label] = [
                d.get("passed"), d.get("psi_support"),
                d.get("worst_defect"), d.get("budget"),
            ]
        return summary

    def check_pass(self, out, ledger):
        got = self.summary(out)
        want = (self.refs or {}).get("counts")
        rc = got["rc"]
        for k, ok in enumerate(got["bounds"], start=1):
            ledger.check(rc["verify"] == 0 and ok, f"bounds k={k}")
        for k, ok in enumerate(got["legendre"], start=1):
            ledger.check(rc["verify"] == 0 and ok, f"legendre k={k}")
        if want is not None:
            ledger.check(
                got["bounds"] == want["bounds"] and got["legendre"] == want["legendre"],
                "verify certificate list differs from the frozen one",
            )
        ledger.check(
            rc["spectrum"] == 0 and got["flat"][0] is True
            and (want is None or got["flat"] == want["flat"]),
            f"flat bound {got['flat']}",
        )
        for k, ok, scanned in got["scaling"]:
            frozen = want is None or [k, ok, scanned] in want["scaling"]
            ledger.check(rc["spectrum"] == 0 and ok and frozen, f"scaling k={k}")
        ledger.check(
            want is None or got["truncation_K"] == want["truncation_K"], "truncation K"
        )
        for label in ("cob-exp", "cob-poly"):
            passed, support, worst, budget = got[label]
            ok = rc[label] == 0 and passed is True and worst is not None
            ok = ok and worst <= budget
            if want is not None:
                ok = ok and support == want[label]
            ledger.check(ok, f"{label} defect {worst} budget {budget}")

    def reference(self, out):
        got = self.summary(out)
        counts = {k: v for k, v in got.items() if k not in ("rc", "cob-exp", "cob-poly")}
        counts["cob-exp"] = got["cob-exp"][1]
        counts["cob-poly"] = got["cob-poly"][1]
        return {
            "counts": counts,
            "defects": {k: got[k][2:] for k in ("cob-exp", "cob-poly")},
        }


@dataclass
class OrbitOutputs:
    direct: TorusPoint
    fast: TorusPoint
    birkhoff: complex
    distality: object
    chained: TorusPoint
    conjugacy: object


class Orbits(Workload):
    name = "orbits"

    def __init__(self, ctx, refs=None):
        super().__init__(ctx, refs)
        c = ctx
        self.cfg = FlowConfig(alpha=c.exp, h=c.series["exp"], v=8)
        self.x = TorusPoint(c.inputs.x8)
        self.y = TorusPoint(c.inputs.y8)
        self.b = parse_b(EXP_B)
        pcfg = FlowConfig(alpha=c.poly, h=c.series["conj"], v=4)
        self.pair = mobiusflow.build_conjugacy(pcfg, 4)
        self.conj_x = TorusPoint(c.inputs.conj_x)

    def chained_steps(self, p: TorusPoint) -> TorusPoint:
        for _ in range(self.ctx.sizes["steps"]):
            p = flow.step(self.cfg, p)
        return p

    def run_pass(self, clock=None):
        clock = clock or Clock()
        clock.reset()
        s = self.ctx.sizes
        cfg, x, n = self.cfg, self.x, s["orbit_n"]
        direct = clock.run(flow.orbit_direct, cfg, x, n)
        fast = clock.run(flow.orbit_fast, cfg, x, n)
        avg = clock.run(flow.birkhoff_avg, cfg, self.b, x, n)
        probe = clock.run(flow.distality_probe, cfg, x, self.y, s["distality_n"])
        p = clock.run(self.chained_steps, x)
        cert = clock.run(flow.check_conjugacy, self.pair, self.conj_x, s["conj_n"])
        return clock.raw, OrbitOutputs(direct, fast, avg, probe, p, cert)

    def check_pass(self, out: OrbitOutputs, ledger):
        refs = self.refs
        if self.first is None:
            self.first = out
        dev = point_dev(out.direct, out.fast)
        ok = dev <= TOL_ORBIT
        if refs is not None:
            ok = ok and point_dev(out.direct, TorusPoint(tuple(refs["direct"]))) <= TOL_ORBIT
        ledger.check(ok, f"orbit_direct vs orbit_fast dev {dev:.3e}")
        ok = cmath.isfinite(out.birkhoff) and out.birkhoff == self.first.birkhoff
        if refs is not None:
            ok = ok and abs(out.birkhoff - complex(*refs["birkhoff"])) <= TOL_STEP
        ledger.check(ok, f"birkhoff average {out.birkhoff}")
        ledger.check(out.distality.passed, "distality probe")
        want = mobiusflow.orbit_fast(self.cfg, self.x, self.ctx.sizes["steps"])
        ledger.check(point_dev(out.chained, want) <= TOL_STEP, "chained step() vs orbit_fast")
        cert = out.conjugacy
        ok = cert.passed and all(d <= b for d, b in zip(cert.defects, cert.budgets))
        ledger.check(ok, f"conjugacy defects {cert.defects}")

    def reference(self, out: OrbitOutputs):
        return {
            "direct": list(out.direct.coords),
            "fast": list(out.fast.coords),
            "max_dev": point_dev(out.direct, out.fast),
            "birkhoff": [out.birkhoff.real, out.birkhoff.imag],
            "conjugacy_defects": list(out.conjugacy.defects),
            "distality_min": out.distality.min_distance,
        }


WORKLOADS = {w.name: w for w in (SweepExp, Certify, Orbits)}
