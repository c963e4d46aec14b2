"""One certificate shape: every certificate class writes the same JSON document.

Each document is {"claim", "pass", then the dataclass fields}, and it must be
strict JSON: json.dumps with allow_nan=False refuses inf and nan, which the
shape writes as null, and integers past 2^53 are decimal strings.
"""

import json
from dataclasses import fields

import pytest

from mobiusflow.contfrac import Certificate, check_convergent_bounds, explicit_angle
from mobiusflow.flow import (
    FlowConfig,
    TorusPoint,
    build_conjugacy,
    check_conjugacy,
    distality_probe,
)
from mobiusflow.harmonic import (
    FourierSeries,
    check_coboundary,
    check_coeff_bound,
    smooth_h_sample,
    solve_coboundary,
    split_tau,
)
from mobiusflow.spectrum import (
    ScalingCertificate,
    check_flat_lower_bound,
    check_resonant_scaling,
    truncation_indices,
)


def _distality(exp_angle):
    cfg = FlowConfig(alpha=exp_angle, h=FourierSeries({1: 0.1, -1: 0.1}), v=3)
    return distality_probe(cfg, TorusPoint((0.1, 0.2, 0.3)), TorusPoint((0.6, 0.2, 0.3)), 50)


def _coboundary(poly_angle):
    _, h2, _ = split_tau(smooth_h_sample(4.0, 20, 9), poly_angle, 4)
    return check_coboundary(solve_coboundary(h2, poly_angle, tau=4), h2, poly_angle, 40, 3)


def _conjugacy(poly_angle):
    cfg = FlowConfig(alpha=poly_angle, h=smooth_h_sample(4.0, 20, 9), v=3)
    return check_conjugacy(build_conjugacy(cfg, 4), TorusPoint((0.3, 0.71, 0.05)), [1, 7])


CASES = {
    "bounds": lambda e, p: check_convergent_bounds(e, 2),
    # nothing is checked below m = 2, so the worst ratio is inf
    "flat-empty": lambda e, p: check_flat_lower_bound(e, 1),
    "flat": lambda e, p: check_flat_lower_bound(e, 200),
    # q_2 = 2^61 + 1 puts a_max = 2^60 past the float-exact range
    "scaling-big-band": lambda e, p: check_resonant_scaling(
        explicit_angle([2, 2**60, 1, 1, 1, 1, 1]), 1
    ),
    # the verdict covers the premise as well as the equality
    "scaling-premise-fails": lambda e, p: ScalingCertificate(
        1, 4, 4, 4, False, True, True, False, 0.5
    ),
    "truncation": lambda e, p: truncation_indices(p, 10**6),
    "coeff-bound": lambda e, p: check_coeff_bound(FourierSeries({1: 0.25, -1: 0.25}), 64),
    "coboundary": lambda e, p: _coboundary(p),
    "distality": lambda e, p: _distality(e),
    "conjugacy": lambda e, p: _conjugacy(p),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_certificate_document_shape(case, exp_angle, poly_angle):
    cert = CASES[case](exp_angle, poly_angle)
    assert isinstance(cert, Certificate)
    assert "to_json" not in type(cert).__dict__
    doc = cert.to_json()
    assert isinstance(doc["claim"], str) and doc["claim"]
    assert doc["pass"] is cert.passed
    names = [f.name for f in fields(cert) if f.name != "passed"]
    assert list(doc) == ["claim", "pass", *names]
    back = json.loads(json.dumps(doc, allow_nan=False))
    assert back == doc


def test_certificate_value_rules(exp_angle):
    empty = check_flat_lower_bound(exp_angle, 1).to_json()
    assert empty["worst_ratio"] is None
    band = check_resonant_scaling(explicit_angle([2, 2**60, 1, 1, 1, 1, 1]), 1)
    assert band.a_max == 2**60 and band.partial
    doc = band.to_json()
    assert doc["a_max"] == str(2**60)
    assert doc["scanned"] == band.scanned  # below 2^53: stays a number
    flat = check_flat_lower_bound(exp_angle, 200)
    assert flat.to_json()["controls"] == [list(c) for c in flat.controls]
    premise = CASES["scaling-premise-fails"](exp_angle, None)
    assert premise.passed is False and premise.to_json()["pass"] is False
