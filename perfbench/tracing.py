"""Spans around calls into the library's public functions.

The tracer lives in the benchmark only.  For a traced pass it replaces
public functions in the library's module namespaces with wrappers that
record a span (name, layer, start, end, parent, pass) and puts the
originals back afterwards; the library itself is not changed.  Spans stay in memory until
the run ends.  A layer's self time is its spans' durations minus the part
their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, List

LAYERS = ("contfrac", "spectrum", "harmonic", "flow", "moebius", "experiments", "cli")

# (module whose namespace the caller looks the name up in, name or
# Class.method, layer of the callee).  phases and summation are internal
# helpers: their cost stays in the layer that calls them.
TARGETS = [
    ("cli", "main", "cli"),
    *(("cli", n, "contfrac") for n in (
        "angle_digest", "angle_from_json", "angle_to_json", "build_exp_alpha",
        "build_poly_alpha", "check_convergent_bounds", "legendre_locate",
        "rational_angle",
    )),
    *(("cli", n, "experiments") for n in (
        "correlation_sum", "rational_case", "records_digest", "records_to_csv", "sweep",
    )),
    *(("cli", n, "harmonic") for n in (
        "analytic_h_sample", "smooth_h_sample", "furstenberg_h", "split_resonant",
        "split_tau", "solve_coboundary",
    )),
    *(("cli", n, "spectrum") for n in (
        "check_flat_lower_bound", "check_resonant_scaling", "truncation_indices",
    )),
    ("experiments", "correlation_sum", "experiments"),
    ("experiments", "sieve_segment", "moebius"),
    ("experiments", "twisted_sum", "moebius"),
    *(("flow", n, "flow") for n in (
        "orbit_direct", "orbit_fast", "birkhoff_avg", "distality_probe", "step",
        "check_conjugacy", "psi_map",
    )),
    ("flow", "angle_digest", "contfrac"),
    ("flow", "split_tau", "harmonic"),
    ("flow", "solve_coboundary", "harmonic"),
    ("harmonic", "angle_digest", "contfrac"),
    ("harmonic", "classify", "spectrum"),
    ("harmonic", "classify_tau", "spectrum"),
    ("harmonic", "CoboundaryFunction.defect", "harmonic"),
]


class Tracer:
    """In-memory spans and counts for one run."""

    def __init__(self):
        # each span: [name, layer, start, end, parent index or -1, pass index]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self.pass_index = -1

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, layer, time.perf_counter(), None, parent, self.pass_index]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()
            self.counts[f"{layer}.calls"] += 1

    def wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Swap every target for its traced wrapper; restore on exit."""
        saved = []
        try:
            for mod_name, path, layer in TARGETS:
                owner = importlib.import_module(f"mobiusflow.{mod_name}")
                *outer, attr = path.split(".")
                for name in outer:  # a method: patch it on its class
                    owner = getattr(owner, name)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, f"{mod_name}.{path}", layer))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self, pass_index: int) -> Dict[str, float]:
        """Self time per layer over the spans of one pass."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        out = {layer: 0.0 for layer in LAYERS}
        for i, s in enumerate(self.spans):
            if s[5] == pass_index:
                out[s[1]] += (s[3] - s[2]) - child[i]
        return out

    def span_count(self, pass_index: int) -> int:
        return sum(1 for s in self.spans if s[5] == pass_index)

    def dump(self, path) -> None:
        """Write spans (times relative to the first span) and counts."""
        t0 = self.spans[0][2] if self.spans else 0.0
        doc = {
            "fields": ["name", "layer", "start_s", "end_s", "parent", "pass"],
            "spans": [
                [n, layer, round(a - t0, 9), round(b - t0, 9), p, k]
                for n, layer, a, b, p, k in self.spans
            ],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))
