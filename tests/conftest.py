import pytest
from hypothesis import settings

from mobiusflow import build_exp_alpha, build_poly_alpha, contfrac

# Tier-1 CI runs with --hypothesis-profile=ci: every leg draws the same
# examples, so a failure seen on one leg reproduces on all of them, and the
# phase-engine tests, which scale with max_examples, run three times as many.
settings.register_profile(
    "ci", derandomize=True, max_examples=3 * settings.get_profile("default").max_examples
)


@pytest.fixture(scope="session")
def exp_angle():
    return build_exp_alpha(4)


@pytest.fixture(scope="session")
def poly_angle():
    return build_poly_alpha(4, 6)


@pytest.fixture
def python_int_entries(monkeypatch):
    """(count, modulus D) of every call that reduces in Python ints."""
    seen = []
    exact = contfrac._exact_turns

    def spy(ns, u, s, den):
        seen.append((len(ns), den))
        return exact(ns, u, s, den)

    monkeypatch.setattr(contfrac, "_exact_turns", spy)
    return seen
