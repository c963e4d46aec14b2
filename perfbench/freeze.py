#!/usr/bin/env python3
"""Freeze the reference outputs in perfbench/reference.json.

    python3 perfbench/freeze.py --seeds 0-31

For every seed it runs one pass of sweep-exp and orbits, validates the
outputs once against independent routes, and stores them:

- sweep-exp: the first kernel row against sum mu(n) e(<b, T^n x>) with every
  T^n x from orbit_fast, the twisted row against exact snapshot residues;
- orbits: orbit_direct against orbit_fast.

The certify counts (certificate verdicts, checked, scanned, worst_m) do not
depend on the seed and are frozen once.  rows_digest is kept as information
only.  A validation outside the tolerances aborts without writing anything.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = p.parse_args(argv)
    workloads, _, _, _ = run.load_modules()
    from oracles import fast_route_correlation, twisted_oracle
    from mobiusflow.flow import FlowConfig, TorusPoint

    W = workloads
    doc = {
        "about": "outputs of the parent commit, validated once; see freeze.py",
        "tolerances": {"S": W.TOL_S, "orbit": W.TOL_ORBIT, "step": W.TOL_STEP},
        "certify": None,
        "seeds": {},
        "validation": {},
    }
    work = run.OUT / "work" / f"freeze-{os.getpid()}"
    try:
        for seed in seed_list(args.seeds):
            ctx = W.setup("full", seed, work)
            ledger = W.Ledger()
            entry, checks = {}, {}
            for name in ("sweep-exp", "orbits"):
                wl = W.WORKLOADS[name](ctx)
                _, out = wl.run_pass()
                wl.check_pass(out, ledger)
                entry[name] = wl.reference(out)

            x8, x4 = TorusPoint(ctx.inputs.x8), TorusPoint(ctx.inputs.x4)
            b8, b4 = W.parse_b(W.EXP_B), W.parse_b(W.SHORT_B)
            n, m, re, im = entry["sweep-exp"]["kernel"]["rows"][0]
            cfg = FlowConfig(alpha=ctx.exp, h=ctx.series["exp"], v=8)
            checks["kernel_row_vs_orbit_fast"] = abs(
                fast_route_correlation(cfg, b8, x8, n, m) - complex(re, im))
            n, m, re, im = entry["sweep-exp"]["twisted"]["rows"][0]
            checks["twisted_row_vs_residues"] = abs(
                twisted_oracle(ctx.exp, b4, x4, n, m) - complex(re, im))
            checks["orbit_direct_vs_fast"] = entry["orbits"]["max_dev"]

            if doc["certify"] is None or seed < 4:
                wl = W.WORKLOADS["certify"](ctx)
                _, out = wl.run_pass()
                wl.check_pass(out, ledger)
                ref = wl.reference(out)
                if doc["certify"] not in (None, {"counts": ref["counts"]}):
                    raise SystemExit(f"seed {seed}: certificate counts depend on the seed")
                doc["certify"] = {"counts": ref["counts"]}
                entry["certify"] = {"defects": ref["defects"]}  # information only

            limits = {
                "kernel_row_vs_orbit_fast": W.TOL_S,
                "twisted_row_vs_residues": W.TOL_S,
                "orbit_direct_vs_fast": W.TOL_ORBIT,
            }
            bad = [k for k, v in checks.items() if not v <= limits[k]]
            if ledger.failed or bad:
                raise SystemExit(f"seed {seed}: {ledger.reasons} {bad} {checks}")
            doc["seeds"][str(seed)] = entry
            doc["validation"][str(seed)] = checks
            print(f"seed {seed}: " + ", ".join(f"{k} {v:.2e}" for k, v in checks.items()),
                  flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = run.HERE / "reference.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
