"""Command line driver: build angles, run certificates, sweep correlations.

Exit codes: 0 pass, 1 usage error, 2 certificate failure, 3 resource limit.
Every command but angle inspect ends in one call of _report, the one
writer: it writes the command's files under --out, then the manifest
(command, config_digest, outputs, started, finished, details) to
manifest.json there, or to stdout without --out, and returns the exit code,
2 when the run's verdict is false and 0 otherwise.  The verdict is passed
for a certificate command and rational_cross_check for a sweep.
Certificate commands put each certificate's own document (claim, pass, then
its fields; see contfrac.Certificate) in the manifest details, and nowhere
else: angle verify a certificates list, check spectrum flat, scaling and
truncation, check coeff-bound one certificate per series, and check
coboundary its one certificate's keys beside passed.  The manifest keeps
every document's declared key order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import lru_cache
from hashlib import sha256
from html import escape
from math import log10
from pathlib import Path
from random import Random
from typing import List, Tuple

from .contfrac import (
    BIT_BUDGET,
    AngleCF,
    AngleDocumentError,
    PrecisionFloorError,
    ResourceBudgetError,
    angle_digest,
    angle_from_json,
    angle_to_json,
    build_exp_alpha,
    build_poly_alpha,
    check_convergent_bounds,
    legendre_locate,
    rational_angle,
)
from .experiments import rational_sweep, records_digest, records_to_csv, sweep
# not called here since rational_sweep reads both routes' plans, but the
# benchmark's tracer (perfbench/tracing.py) wraps them by name on this module
from .experiments import correlation_sum, rational_case  # noqa: F401
from .flow import FlowConfig, FrequencyVector, TorusPoint
from .moebius import MEM_BUDGET_ENV, MemoryBudgetError, memory_budget
from .harmonic import (
    FINITE,
    FourierSeries,
    analytic_h_sample,
    check_coboundary,
    check_coeff_bound,
    furstenberg_h,
    smooth_h_sample,
    solve_coboundary,
    split_resonant,
    split_tau,
)
from .spectrum import (
    check_flat_lower_bound,
    check_resonant_scaling,
    truncation_indices,
)

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A parser whose errors are usage errors (exit 1).  Flags match only
    in full: with argparse's prefix matching, --h on a command without an
    --h flag would read as --help and exit 0 without running anything."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# run report


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _report(args, command: str, payload: dict, details: dict, files=()) -> int:
    """The end of every run that writes a manifest; returns its exit code.

    Each (name, text) of files is written under --out; without --out none
    is written.  The manifest {command, config_digest (of payload), outputs
    (the names written), started (main's stamp), finished, details} goes to
    manifest.json under --out, or to stdout.  The exit code is 2 when the
    run's verdict, details["passed"] of a certificate command or
    details["rational_cross_check"] of a sweep, is false, else 0.
    """
    outputs = []
    if args.out is not None:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        for name, text in files:
            path = Path(args.out) / name
            path.write_text(text)
            print(f"written: {path}")
            outputs.append(name)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    doc = json.dumps({
        "command": command,
        "config_digest": sha256(blob.encode()).hexdigest()[:16],
        "outputs": outputs,
        "started": args.started,
        "finished": _utc_now(),
        "details": details,
    }, indent=2) + "\n"
    if args.out is not None:
        path = Path(args.out) / "manifest.json"
        path.write_text(doc)
        print(f"manifest: {path}")
    else:
        print(f"manifest: {doc}", end="")
    verdict = details.get("passed", details.get("rational_cross_check", True))
    return 0 if verdict else 2


# ---------------------------------------------------------------------------
# shared argument plumbing


def _load_angle(path: str) -> AngleCF:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read angle file: {exc}")
    try:
        return angle_from_json(text)
    except json.JSONDecodeError as exc:
        raise AngleDocumentError(f"angle file is not valid JSON: {exc}")


def _parse_int(tok: str) -> int:
    """An exact integer from '9007199254740993', '1e7' or '2.5e3'.

    The token is read as an exact decimal, so no digit is lost to a float;
    a value with a fractional part, or one past the int64 index range the
    segment arithmetic uses, is refused."""
    try:
        value = Decimal(tok.strip())
    except InvalidOperation:
        raise _UsageError(f"expected an integer, got {tok!r}")
    if not value.is_finite() or value != value.to_integral_value():
        raise _UsageError(f"expected an integer, got {tok!r}")
    if value.adjusted() >= 19 or abs(value) >= 2**63:
        raise _UsageError(f"{tok!r} is past the int64 index range")
    return int(value)


def _parse_num_list(text: str) -> List[int]:
    values = [_parse_int(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise _UsageError("empty number list")
    return values


def _parse_float_list(text: str) -> List[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"expected a comma list of numbers, got {text!r}")
    if not values:
        raise _UsageError("empty number list")
    return values


def _parse_b(text: str) -> FrequencyVector:
    try:
        entries = tuple(int(tok) for tok in text.split(";"))
    except ValueError:
        raise _UsageError(f"expected entries like '0;1', got {text!r}")
    return FrequencyVector(entries)


def _parse_rational(text: str) -> AngleCF:
    parts = text.split("/")
    if len(parts) != 2:
        raise _UsageError(f"expected l/q, got {text!r}")
    try:
        l, q = int(parts[0]), int(parts[1])
    except ValueError:
        raise _UsageError(f"expected integers in l/q, got {text!r}")
    return rational_angle(l, q)


def _parse_tau(text: str) -> str:
    """--tau as given, once it reads as an exact rational such as 4 or 10/3."""
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"expected a rational --tau such as 4 or 10/3, got {text!r}")
    return text


# the most fields after its kind each --h series takes
_H_FIELDS = {"none": 0, "furstenberg": 1, "analytic": 2, "smooth": 2}


def _parse_h(spec: str, angle: AngleCF, seed: int) -> FourierSeries:
    """Driving-series flag: furstenberg[:k_cut] | analytic:eta[:m_cut] |
    smooth:tau[:m_cut] | none.  An empty field, or more fields than the kind
    takes, is a usage error."""
    head, *parts = spec.split(":")
    if head not in _H_FIELDS:
        raise _UsageError(
            f"unknown --h kind {head!r}; use furstenberg, analytic, smooth, or none"
        )
    if "" in parts or len(parts) > _H_FIELDS[head]:
        raise _UsageError(
            f"bad --h value {spec!r}: {head} takes no empty field and at most "
            f"{_H_FIELDS[head]} after its kind"
        )
    try:
        if head == "none":
            return FourierSeries({})
        if head == "furstenberg":
            if angle.k_star <= 1:  # the ladder is q_1 .. q_(k_star - 1)
                raise _UsageError(
                    f"--h {spec!r}: the angle has no ladder term below its snapshot "
                    f"(k_star = {angle.k_star}); use --h none, analytic or smooth"
                )
            if angle.kind == "exp-type":
                k_cut = 2
            elif angle.kind == "poly-type":
                k_cut = 5
            else:
                k_cut = max(1, angle.snap_index - 2)
            if parts:
                k_cut = int(parts[0])
            if k_cut < 1:
                raise ValueError(f"k_cut must be >= 1, got {k_cut}")
            return furstenberg_h(angle, [1.0] * k_cut, k_cut=k_cut)
        if head == "analytic":
            eta = float(parts[0]) if parts else 1.0
            m_cut = int(parts[1]) if len(parts) > 1 else 24
            return analytic_h_sample(eta, m_cut, seed)
        tau = float(parts[0]) if parts else 4.0  # smooth, the kind left
        m_cut = int(parts[1]) if len(parts) > 1 else 120
        return smooth_h_sample(tau, m_cut, seed)
    except (ValueError, IndexError) as exc:
        if isinstance(exc, PrecisionFloorError):
            raise
        raise _UsageError(f"bad --h value {spec!r}: {exc}")


# ---------------------------------------------------------------------------
# angle commands


def _cmd_angle_build(args) -> int:
    kwargs = {"seed_q1": args.seed_q1}
    if os.environ.get(MEM_BUDGET_ENV) is not None:
        kwargs["bit_budget"] = min(BIT_BUDGET, memory_budget() * 8)  # only lowers it
    if args.subcommand == "build-exp":
        angle = build_exp_alpha(args.k_star, **kwargs)
        name = f"angle-exp-k{args.k_star}.json"
    else:
        angle = build_poly_alpha(args.tau, args.k_star, **kwargs)
        name = f"angle-poly-t{args.tau.replace('/', '_')}-k{args.k_star}.json"
    doc = json.dumps(angle_to_json(angle), indent=2, sort_keys=True) + "\n"
    if args.out is None:
        print(doc, end="")
    return _report(
        args,
        f"angle {args.subcommand}",
        {"k_star": args.k_star, "seed_q1": args.seed_q1,
         "tau": getattr(args, "tau", None), "digest": angle_digest(angle)},
        {"angle_digest": angle_digest(angle),
         "snapshot_digits": len(str(angle.q_snapshot))},
        [(name, doc)],
    )


def _cmd_angle_inspect(args) -> int:
    angle = _load_angle(args.angle)
    print(f"kind: {angle.kind}")
    print(f"k_star: {angle.k_star}   snapshot index: {angle.snap_index}")
    print(f"digest: {angle_digest(angle)}")
    print(f"alpha ~ {angle.float_value!r}")
    show = min(angle.snap_index, angle.k_star + 2)
    for k in range(show + 1):
        q = angle.q(k)
        digits = len(str(q))
        head = str(q) if digits <= 24 else f"{str(q)[:12]}...({digits} digits)"
        print(f"  k={k:<3} q_k = {head}")
    return 0


def _cmd_angle_verify(args) -> int:
    angle = _load_angle(args.angle)
    ok = True
    top = angle.snap_index - 2
    certs = []
    for k in range(1, min(angle.k_star, top) + 1):
        cert = check_convergent_bounds(angle, k)
        certs.append(cert.to_json())
        mark = "pass" if cert.passed else "FAIL"
        print(f"bounds k={k}: {mark}")
        ok = ok and cert.passed
    if args.all:
        l_s, q_s = angle.snapshot
        for k in range(1, angle.k_star + 1):
            l_k, q_k = angle.l(k), angle.q(k)
            if q_k >= q_s:
                break
            found = legendre_locate(l_k, q_k, angle)
            if 2 * q_k * abs(l_s * q_k - l_k * q_s) < q_s:
                good = found == k
            else:
                # convergent sits outside the Legendre zone (next quotient 1)
                good = found is None
            print(f"legendre round-trip k={k}: {'pass' if good else 'FAIL'}")
            ok = ok and good
    return _report(
        args, "angle verify", {"angle": angle_digest(angle), "all": args.all},
        {"certificates": certs, "passed": ok},
    )


# ---------------------------------------------------------------------------
# check commands


def _cmd_check_spectrum(args) -> int:
    angle = _load_angle(args.angle)
    tidx = truncation_indices(angle, args.n)  # refuses N < 2 before any scan
    ok = True
    flat = check_flat_lower_bound(angle, args.m_limit)
    print(
        f"flat lower bound up to {flat.m_limit}: "
        f"{'pass' if flat.passed else 'FAIL'} "
        f"(checked {flat.checked}, worst ratio {flat.worst_ratio:.6f} at m={flat.worst_m})"
    )
    ok = ok and flat.passed
    scaling = []
    for k in range(1, angle.k_star):
        cert = check_resonant_scaling(angle, k)
        suffix = " (partial)" if cert.partial else ""
        print(
            f"resonant scaling k={k}: {'pass' if cert.passed else 'FAIL'}"
            f" scanned {cert.scanned}{suffix}"
        )
        scaling.append(cert.to_json())
        ok = ok and cert.passed
    print(f"truncation at n={args.n}: K={tidx.K} K'={tidx.K_prime}")
    ok = ok and tidx.passed
    return _report(
        args, "check spectrum", {"angle": angle_digest(angle), "m_limit": args.m_limit},
        {"flat": flat.to_json(), "scaling": scaling,
         "truncation": tidx.to_json(), "passed": ok},
    )


def _cmd_check_coboundary(args) -> int:
    if args.samples < 1:
        raise _UsageError(f"--samples must be >= 1, got {args.samples}")
    angle = _load_angle(args.angle)
    h = _parse_h(args.h, angle, args.seed)
    use_tau = args.tau if args.tau is not None else angle.tau
    if use_tau is not None:
        _, h2, _ = split_tau(h, angle, use_tau)
        psi = solve_coboundary(h2, angle, tau=use_tau)
    else:
        _, h2, _ = split_resonant(h, angle)
        psi = solve_coboundary(h2, angle)
    cert = check_coboundary(psi, h2, angle, args.samples, args.seed)
    print(
        f"coboundary identity over {cert.samples} samples: "
        f"{'pass' if cert.passed else 'FAIL'} "
        f"(worst {cert.worst_defect:.3e}, budget {cert.budget:.3e})"
    )
    return _report(
        args, "check coboundary",
        {"angle": angle_digest(angle), "h": args.h, "seed": args.seed,
         "tau": args.tau, "samples": args.samples},
        {**cert.to_json(), "passed": cert.passed},
    )


def _random_finite_series(rng: Random) -> FourierSeries:
    m_cut = rng.randint(3, 24)
    coeffs = {0: complex(rng.uniform(-1.0, 1.0), 0.0)}
    for m in range(1, m_cut + 1):
        c = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) / (1 + m * m)
        coeffs[m] = c
        coeffs[-m] = c.conjugate()
    cap = max(abs(c) for c in coeffs.values())
    return FourierSeries(coeffs, FINITE, 0.0, max(1.0, cap))


# check coeff-bound runs one 4096-point certificate per series, about 4 ms
# each on a 2-vCPU host, and keeps every certificate's document (about
# 1 KiB) for the manifest: 10^4 series are about 40 s and 10 MiB
COEFF_COUNT_LIMIT = 10**4


def _cmd_check_coeff_bound(args) -> int:
    if args.count < 1:
        raise _UsageError(f"--count must be >= 1, got {args.count}")
    if args.count > COEFF_COUNT_LIMIT:
        raise ResourceBudgetError(
            f"--count {args.count} exceeds the budget of {COEFF_COUNT_LIMIT} series"
        )
    rng = Random(args.seed)
    ok = True
    rows = []
    for i in range(args.count):
        f = _random_finite_series(rng)
        cert = check_coeff_bound(f, args.m_limit)
        rows.append(cert.to_json())
        print(
            f"series {i}: {'pass' if cert.passed else 'FAIL'} "
            f"(worst m={cert.worst_m}, lhs {cert.worst_lhs:.3e}, rhs {cert.rhs:.3e})"
        )
        ok = ok and cert.passed
    return _report(
        args, "check coeff-bound",
        {"seed": args.seed, "count": args.count, "m_limit": args.m_limit},
        {"certificates": rows, "passed": ok},
    )


# ---------------------------------------------------------------------------
# sweep command


_PALETTE = ("#1f6feb", "#d24e0f", "#1a7f37", "#8250df", "#bf3989")


def _svg_chart(groups: List[Tuple[str, List[Tuple[float, float]]]], title: str) -> str:
    """Static line chart, |S|/M against log10 N, one polyline per group."""
    width, height = 640, 400
    ml, mr, mt, mb = 62, 18, 34, 46
    xs = [p[0] for _, pts in groups for p in pts]
    ys = [p[1] for _, pts in groups for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(max(ys), 1e-12)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    y_hi *= 1.08

    def px(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def py(y: float) -> float:
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="20" font-family="sans-serif" font-size="14">'
        f"{escape(title, quote=False)}</text>",
        f'<line x1="{ml}" y1="{py(0)}" x2="{width - mr}" y2="{py(0)}" '
        f'stroke="#444" stroke-width="1"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{py(0)}" '
        f'stroke="#444" stroke-width="1"/>',
    ]
    for i in range(5):
        x = x_lo + i * (x_hi - x_lo) / 4
        parts.append(
            f'<text x="{px(x):.1f}" y="{height - mb + 18}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{x:.2f}</text>'
        )
        y = y_lo + i * (y_hi - y_lo) / 4
        parts.append(
            f'<text x="{ml - 6}" y="{py(y) + 4:.1f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{y:.4f}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2}" y="{height - 10}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle">log10 N</text>'
    )
    for i, (label, pts) in enumerate(groups):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        for x, y in pts:
            parts.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{width - mr - 8}" y="{mt + 16 * i + 12}" '
            f'font-family="sans-serif" font-size="12" text-anchor="end" '
            f'fill="{color}">{escape(label, quote=False)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_sweep(args) -> int:
    thetas = _parse_float_list(args.theta)
    n_list = _parse_num_list(args.n)
    for theta in thetas:
        if not 0 < theta <= 1:
            raise _UsageError(f"theta must be in (0, 1], got {theta}")
    b = _parse_b(args.b)
    if args.rational is not None and args.angle is not None:
        raise _UsageError("give --angle FILE or --rational l/q, not both")
    if args.rational is not None:
        angle = _parse_rational(args.rational)
    elif args.angle is not None:
        angle = _load_angle(args.angle)
    else:
        raise _UsageError("need --angle FILE or --rational l/q")
    h = _parse_h(args.h, angle, args.seed)
    cfg = FlowConfig(alpha=angle, h=h, v=args.v)
    if args.x is not None:
        coords = tuple(_parse_float_list(args.x))
        if len(coords) != args.v:
            raise _UsageError(f"--x needs {args.v} coordinates, got {len(coords)}")
    else:
        rng = Random(args.seed)
        coords = tuple(rng.random() for _ in range(args.v))
    x = TorusPoint(coords)

    cross_checked = True
    if args.rational is None:
        batches = sweep(cfg, b, x, thetas, n_list)
    else:
        # report the closed form, at each theta; the kernel cross-checks it
        # on the same sieved segment
        pairs = rational_sweep(cfg, b, x, thetas, n_list)
        cross_checked = not any(
            abs(rec.value - generic) > 1e-9 for rows in pairs for rec, generic in rows
        )
        batches = [[rec for rec, _ in rows] for rows in pairs]
    records = [rec for batch in batches for rec in batch]
    for rec in records:  # each row carries the theta it ran at
        print(f"theta={rec.theta} N={rec.n_top} M={rec.length} |S|/M={rec.normalized:.6f}")
    if not cross_checked:
        print("rational cross-check FAILED against the generic path")

    files = ()
    if args.out is not None:
        groups = [
            (f"theta={theta}", [(log10(r.n_top), r.normalized) for r in batch])
            for theta, batch in zip(thetas, batches)
        ]
        files = [("sweep.csv", records_to_csv(records)),
                 ("sweep.svg", _svg_chart(groups, "Moebius correlation decay"))]
    return _report(
        args, "sweep",
        {"angle": angle_digest(angle), "h": args.h, "b": b.label(),
         "v": args.v, "seed": args.seed, "theta": thetas, "n": n_list,
         "x": sha256(x.serialized).hexdigest(), "rational": args.rational},
        {"rows_digest": records_digest(records),
         "observations": [
             {"theta": r.theta, "N": r.n_top, "M": r.length, "norm": r.normalized}
             for r in records
         ],
         "rational_cross_check": cross_checked},
        files,
    )


# ---------------------------------------------------------------------------
# parser wiring


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The one parser of the process.

    Built on the first main() call and reused by every later one: a fresh
    parser per call costs milliseconds, and each discarded one leaves
    reference cycles for a full collection.  Reuse is safe because every
    parse starts from a new namespace and no action keeps state between
    parses: no append actions, and no mutable defaults.
    """
    parser = _Parser(prog="mobiusflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_angle = sub.add_parser("angle", help="build and verify rotation angles")
    angle_sub = p_angle.add_subparsers(dest="subcommand", parser_class=_Parser)

    p_be = angle_sub.add_parser("build-exp", help="denominators tracking e^{q_k}")
    p_be.add_argument("--k-star", dest="k_star", type=int, required=True)
    p_be.add_argument("--seed-q1", dest="seed_q1", type=int, default=2)
    p_be.add_argument("--out", default=None)
    p_be.set_defaults(func=_cmd_angle_build)

    p_bp = angle_sub.add_parser("build-poly", help="denominators growing like q_k^tau")
    p_bp.add_argument("--tau", required=True, type=_parse_tau, help="rational > 3, e.g. 4 or 10/3")
    p_bp.add_argument("--k-star", dest="k_star", type=int, required=True)
    p_bp.add_argument("--seed-q1", dest="seed_q1", type=int, default=2)
    p_bp.add_argument("--out", default=None)
    p_bp.set_defaults(func=_cmd_angle_build)

    p_ai = angle_sub.add_parser(
        "inspect", help="print kind, k_star, digest, alpha and q_0 .. q_(k_star+2)"
    )
    p_ai.add_argument("--angle", required=True)
    p_ai.set_defaults(func=_cmd_angle_inspect)

    p_av = angle_sub.add_parser("verify", help="recheck bounds and round-trips")
    p_av.add_argument("--angle", required=True)
    p_av.add_argument("--all", action="store_true")
    p_av.add_argument("--out", default=None)
    p_av.set_defaults(func=_cmd_angle_verify)

    p_check = sub.add_parser("check", help="run certificates")
    check_sub = p_check.add_subparsers(dest="subcommand", parser_class=_Parser)

    p_cs = check_sub.add_parser("spectrum", help="flat bound, scaling, truncation")
    p_cs.add_argument("--angle", required=True)
    p_cs.add_argument("--m-limit", dest="m_limit", type=int, default=100000)
    p_cs.add_argument("--n", type=int, default=10**6)
    p_cs.add_argument("--out", default=None)
    p_cs.set_defaults(func=_cmd_check_spectrum)

    p_cc = check_sub.add_parser("coboundary", help="transfer-equation defect")
    p_cc.add_argument("--angle", required=True)
    p_cc.add_argument("--h", default="furstenberg")
    p_cc.add_argument("--tau", default=None, type=_parse_tau)
    p_cc.add_argument("--seed", type=int, default=0)
    p_cc.add_argument("--samples", type=int, default=1000)
    p_cc.add_argument("--out", default=None)
    p_cc.set_defaults(func=_cmd_check_coboundary)

    p_cb = check_sub.add_parser("coeff-bound", help="decay certificates for random series")
    p_cb.add_argument("--seed", type=int, default=0)
    p_cb.add_argument("--count", type=int, default=10)
    p_cb.add_argument("--m-limit", dest="m_limit", type=int, default=1000)
    p_cb.add_argument("--out", default=None)
    p_cb.set_defaults(func=_cmd_check_coeff_bound)

    p_sw = sub.add_parser("sweep", help="correlation sums over short segments")
    p_sw.add_argument("--angle", default=None)
    p_sw.add_argument("--rational", default=None, help="exact rational angle l/q")
    p_sw.add_argument("--h", default="furstenberg")
    p_sw.add_argument("--b", default="0;1", help="pairing vector, e.g. '0;1' or --b=-1;2")
    p_sw.add_argument("--x", default=None, help="starting coordinates, comma list")
    p_sw.add_argument("--v", type=int, default=8)
    p_sw.add_argument("--seed", type=int, default=0)
    p_sw.add_argument("--theta", default="0.7")
    p_sw.add_argument("--n", default="1e4,1e5,1e6")
    p_sw.add_argument("--out", default=None)
    p_sw.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        func = getattr(args, "func", None)
        if func is None:
            parser.print_usage()
            return 1
        args.started = _utc_now()
        return func(args)
    except SystemExit as exc:  # --help
        code = exc.code
        return 0 if code in (0, None) else int(code)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AngleDocumentError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 2
    except (
        ResourceBudgetError, MemoryBudgetError, PrecisionFloorError, MemoryError
    ) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
