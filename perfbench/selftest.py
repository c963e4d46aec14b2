#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy sizes; takes well under a minute.

    python3 perfbench/selftest.py

It runs every workload through run.py with --profile tiny, traced and
untraced, checks the result line against BENCHMARK.json, checks that the
correctness checks reject a wrong output, that span self times add up, that
the frozen reference table is complete and validated, and that run.py
refuses to report from a directory without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
workloads, tracing, layers, calibrate = run.load_modules()


def bench(*args, cwd=run.ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


class ResultLines(unittest.TestCase):
    def check_line(self, name, trace):
        proc = bench("--workload", name, "--seed", "5", "--seconds", "0.2",
                     "--trace", str(trace), "--profile", "tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"], proc.stdout)
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)
        kind = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        self.assertEqual(got, want)
        for key, m in line["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), key)

    def test_every_workload_untraced_and_traced(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    self.check_line(name, trace)

    def test_no_source_tree_means_no_result(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(run.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = bench("--workload", "orbits", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class Checks(unittest.TestCase):
    """A wrong output must count as a failed operation."""

    @classmethod
    def setUpClass(cls):
        cls.work = run.OUT / "work" / "selftest"
        cls.ctx = workloads.setup("tiny", 2, cls.work)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def failures(self, wl, out):
        ledger = workloads.Ledger()
        wl.check_pass(out, ledger)
        return ledger.failed

    def test_sweep_row_off_by_more_than_tolerance(self):
        wl = workloads.SweepExp(self.ctx)
        _, out = wl.run_pass()
        ref = wl.reference(out)
        self.assertEqual(self.failures(workloads.SweepExp(self.ctx, ref), out), 0)
        ref["kernel"]["rows"][1][2] += 10 * workloads.TOL_S
        self.assertEqual(self.failures(workloads.SweepExp(self.ctx, ref), out), 1)

    def test_sweep_digest_change_between_passes(self):
        wl = workloads.SweepExp(self.ctx)
        _, out = wl.run_pass()
        self.assertEqual(self.failures(wl, out), 0)
        wl.first["twisted"] = "0" * 16
        self.assertEqual(self.failures(wl, out), 1)

    def test_failed_command_fails_its_rows(self):
        wl = workloads.SweepExp(self.ctx)
        _, out = wl.run_pass()
        out[1] = replace(out[1], rc=2)
        self.assertEqual(self.failures(wl, out), 1)

    def test_certificate_counts(self):
        wl = workloads.Certify(self.ctx)
        _, out = wl.run_pass()
        ref = wl.reference(out)
        self.assertEqual(self.failures(workloads.Certify(self.ctx, ref), out), 0)
        ref["counts"]["scaling"][0][2] += 1
        self.assertEqual(self.failures(workloads.Certify(self.ctx, ref), out), 1)

    def test_orbit_outputs(self):
        wl = workloads.Orbits(self.ctx)
        _, out = wl.run_pass()
        ref = wl.reference(out)
        self.assertEqual(self.failures(workloads.Orbits(self.ctx, ref), out), 0)
        ref["birkhoff"][0] += 10 * workloads.TOL_STEP
        self.assertEqual(self.failures(workloads.Orbits(self.ctx, ref), out), 1)
        bent = replace(out, fast=workloads.TorusPoint(
            (out.fast.coords[0] + 1e-6,) + out.fast.coords[1:]))
        self.assertEqual(self.failures(wl, bent), 1)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        tr = tracing.Tracer()
        tr.pass_index = 0
        tr.spans = [
            ["cli.main", "cli", 0.0, 10.0, -1, 0],
            ["cli.sweep", "experiments", 1.0, 9.0, 0, 0],
            ["experiments.sieve_segment", "moebius", 2.0, 3.0, 1, 0],
            ["experiments.correlation_sum", "experiments", 4.0, 8.0, 1, 0],
        ]
        got = tr.self_times(0)
        self.assertEqual(got["cli"], 2.0)
        self.assertEqual(got["experiments"], 3.0 + 4.0)
        self.assertEqual(got["moebius"], 1.0)
        self.assertEqual(sum(got.values()), 10.0)

    def test_install_restores_originals(self):
        import mobiusflow.cli as cli

        before = cli.main
        with tracing.Tracer().installed():
            self.assertIsNot(cli.main, before)
        self.assertIs(cli.main, before)


class Calibration(unittest.TestCase):
    def test_scaled_time_uses_the_bracketing_probes(self):
        readings = iter([0.2, 0.4, 0.1])
        original = calibrate.probe
        calibrate.probe = lambda: next(readings)
        try:
            clock = calibrate.Clock(calibrate=True)
            self.assertEqual(clock.run(lambda x: x + 1, 1), 2)
            first = clock.raw
            self.assertAlmostEqual(clock.scaled, first * calibrate.REF_S / 0.3)
            clock.run(lambda: None)
        finally:
            calibrate.probe = original
        self.assertAlmostEqual(
            clock.scaled,
            first * calibrate.REF_S / 0.3 + (clock.raw - first) * calibrate.REF_S / 0.25,
        )
        self.assertEqual(clock.probes, [0.2, 0.4, 0.1])

    def test_uncalibrated_clock_runs_no_probe(self):
        clock = calibrate.Clock()
        clock.run(lambda: None)
        self.assertEqual((clock.scaled, clock.probes), (0.0, []))


class Reference(unittest.TestCase):
    def test_table_is_complete_and_validated(self):
        doc = json.loads((run.HERE / "reference.json").read_text())
        self.assertIn("counts", doc["certify"])
        tol = doc["tolerances"]
        self.assertGreaterEqual(len(doc["seeds"]), 10)
        for seed, entry in doc["seeds"].items():
            self.assertLessEqual({"sweep-exp", "orbits"}, set(entry))
            checks = doc["validation"][seed]
            self.assertLessEqual(checks["kernel_row_vs_orbit_fast"], tol["S"])
            self.assertLessEqual(checks["twisted_row_vs_residues"], tol["S"])
            self.assertLessEqual(checks["orbit_direct_vs_fast"], tol["orbit"])


if __name__ == "__main__":
    unittest.main()
