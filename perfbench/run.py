#!/usr/bin/env python3
"""mobiusflow benchmark: run one workload in this process and report it.

    python3 perfbench/run.py --workload sweep-exp --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it builds nothing and imports the
package straight from src/.  With --trace 0 it measures the end-to-end
metrics (wall_s, setup_s, peak_rss_mb) with no tracing in place.  wall_s and
setup_s are scaled to a reference machine speed: every timed command and
set-up is bracketed by a calibration probe (calibrate.py), and its wall time
is multiplied by REF_S over the probes' mean.  The raw wall times go to the
result file.  With --trace 1 it alternates untraced and traced passes, then
runs the per-layer probe battery, and reports per-layer metrics and the
tracing overhead.

It prints every metric by name and unit, fail_frac, and as its last line one
JSON object {"correct", "attempted", "failed", "metrics"}.  The full result
(quartiles, sample counts, the stamp) goes to .perfbench/results/, the spans
of a traced run next to it.  Exit codes: 0 after a run (check "correct"),
2 when there is no source tree to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5  # fresh processes timed for setup_s
MIN_PASSES = 2  # the rows_digest comparison needs two passes


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", choices=("full", "tiny"), default="full",
                   help="tiny runs every code path at toy sizes (self-test)")
    p.add_argument("--setup-only", action="store_true",
                   help="do the set-up and exit; used to time setup_s")
    return p.parse_args(argv)


def load_modules():
    """Import the package from this checkout's src/ and the benchmark modules."""
    if not (SRC / "mobiusflow" / "__init__.py").is_file():
        print(f"error: no mobiusflow source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import calibrate
    import layers
    import tracing
    import workloads

    return workloads, tracing, layers, calibrate


# ---------------------------------------------------------------------------
# stamp


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = sha256()
    for path in sorted((SRC / "mobiusflow").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def stamp(args, ctx) -> dict:
    import mpmath
    import numpy

    return {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "profile": args.profile,
        "seconds": args.seconds,
        "trace": args.trace,
        "snapshot_bits": {
            "exp": ctx.exp.q_snapshot.bit_length(),
            "poly": ctx.poly.q_snapshot.bit_length(),
        },
    }


# ---------------------------------------------------------------------------
# measuring


def summary(values) -> dict:
    """Median, quartiles and sample count of a list of numbers."""
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def time_setups(args, calibrate) -> tuple:
    """Raw and scaled wall times of fresh processes that start, import and
    set up, then exit; each is bracketed by calibration probes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--profile", args.profile]

    def setup_process():
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")

    clock = calibrate.Clock(calibrate=True)
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        clock.reset()
        clock.run(setup_process)
        raw.append(clock.raw)
        scaled.append(clock.scaled)
    return raw, scaled


def one_pass(workload, ledger, clock, tracer=None, index=-1):
    """Run and check one pass; spans made while checking belong to no pass."""
    if tracer is not None:
        tracer.pass_index = index
    wall, out = workload.run_pass(clock)
    if tracer is not None:
        tracer.pass_index = -1
    try:
        workload.check_pass(out, ledger)
    except Exception as exc:  # a check that cannot read its output fails
        ledger.check(False, f"checking a pass raised {exc!r}")
    return wall, out


def run_passes(workload, seconds, ledger, calibrate):
    """Raw and scaled pass times, passes running until `seconds` have gone by.

    Checking each pass happens between passes, outside the timed command
    intervals.
    """
    clock = calibrate.Clock(calibrate=True)
    raw, scaled = [], []
    start = time.perf_counter()
    while len(raw) < MIN_PASSES or time.perf_counter() - start < seconds:
        raw.append(one_pass(workload, ledger, clock)[0])
        scaled.append(clock.scaled)
    return raw, scaled, clock.probes


def traced_metrics(workload, args, ledger, tracing, layers, calibrate, ctx) -> tuple:
    """Per-layer metrics: untraced and traced passes in turn, then the probes.

    Alternating the two kinds of pass keeps drift in machine speed out of the
    tracing overhead.  Only the untraced passes are calibrated, so the traced
    pass walls hold no probe time.
    """
    plain, traced = [], []
    clock = calibrate.Clock(calibrate=True)
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        plain.append(one_pass(workload, ledger, clock)[0])
        with tracer.installed():
            wall, out = one_pass(workload, ledger, calibrate.Clock(), tracer, len(traced))
        traced.append(wall)
    passes = range(len(traced))
    per_pass = [tracer.self_times(i) for i in passes]
    wall = statistics.median(traced)
    metrics = {}
    for layer in tracing.LAYERS:
        self_s = statistics.median(p[layer] for p in per_pass)
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.share"] = (self_s / wall, "ratio")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["raw.wall_s"] = (statistics.median(plain), "s")
    metrics["calib.probe_s"] = (statistics.median(clock.probes), "s")
    metrics["trace.overhead_s"] = (wall - statistics.median(plain), "s")
    metrics["trace.spans"] = (statistics.median(tracer.span_count(i) for i in passes), "count")
    artifact = getattr(workload, "artifact_bytes", None)
    metrics["cli.artifact_bytes"] = (artifact(out) if artifact else 0, "count")
    metrics.update(layers.battery(ctx))
    samples = {"untraced_walls": plain, "traced_walls": traced}
    return metrics, samples, tracer


def load_refs(workload_name: str, seed: int, profile: str):
    """Frozen outputs for this workload and seed, when the table has them."""
    if profile != "full":
        return None
    doc = json.loads((HERE / "reference.json").read_text())
    if workload_name == "certify":
        return doc["certify"]  # the certificate counts do not depend on the seed
    return doc["seeds"].get(str(seed), {}).get(workload_name)


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads, tracing, layers, calibrate = load_modules()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            cls(workloads.setup(args.profile, args.seed, work))
            return 0
        setups = time_setups(args, calibrate) if args.trace == 0 else ([], [])
        ctx = workloads.setup(args.profile, args.seed, work)
        workload = cls(ctx, load_refs(args.workload, args.seed, args.profile))
        ledger = workloads.Ledger()
        tracer = None
        if args.trace == 0:
            walls, scaled, probes = run_passes(workload, args.seconds, ledger, calibrate)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            detail = {
                "wall_s": dict(summary(scaled), unit="s"),
                "setup_s": dict(summary(setups[1]), unit="s"),
                "peak_rss_mb": dict(summary([rss_mb]), unit="MiB"),
            }
            raw = {"raw_wall_s": summary(walls), "raw_setup_s": summary(setups[0]),
                   "probe_s": summary(probes)}
            samples = {"walls": walls, "scaled_walls": scaled, "setups": setups[0],
                       "scaled_setups": setups[1], "probes": probes}
        else:
            metrics, samples, tracer = traced_metrics(
                workload, args, ledger, tracing, layers, calibrate, ctx
            )
            detail = {k: {"value": v, "unit": u, "n": 1} for k, (v, u) in metrics.items()}
        try:
            workload.finish(ledger)
        except Exception as exc:  # an independent check that crashes fails
            ledger.check(False, f"run checks raised {exc!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fail_frac = ledger.failed / max(1, ledger.attempted)
    metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in detail.items()}
    if args.trace == 1:  # traced runs report it as a per-layer metric
        metrics["fail_frac"] = {"value": fail_frac, "unit": "ratio"}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    base = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {
        "stamp": stamp(args, ctx),
        "metrics": detail,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "fail_frac": fail_frac,
        "failures": ledger.reasons,
        "samples": samples,
    }
    if args.trace == 0:
        doc["raw"] = raw
    (results / f"{base}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(results / f"{base}-spans.json")

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"profile={args.profile}")
    for name, m in detail.items():
        spread = f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}" if "q1" in m else ""
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}{spread}  n={m['n']}")
    if args.trace == 0:
        for name, m in raw.items():
            print(f"  {name:30s} {m['value']:.6g} s  q1 {m['q1']:.6g}  "
                  f"q3 {m['q3']:.6g}  n={m['n']}  (not scaled)")
    print(f"  {'fail_frac':30s} {fail_frac:.6g} ratio  "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for reason in ledger.reasons:
        print(f"  failed: {reason}")
    print(f"result: {results / base}.json")
    line = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
