"""Single-photon subtraction: rational closed forms and Fock-oracle spot checks."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catqkd import SourceParams
from catqkd.oracle import simulate_subtraction
from catqkd.subtraction import (
    SubtractionConfig,
    output_covariance,
    p1_and_covariance,
    success_probability,
)


def test_config_validation():
    SubtractionConfig(0.5)
    for bad in (0.0, 1.0, 1.2, -0.1):
        with pytest.raises(ValueError, match="transmittance"):
            SubtractionConfig(bad)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("t", [0.3, 0.7, 0.95])
def test_success_probability_closed_form(alpha, t):
    # heralding exactly one photon off the idler of a two-mode squeezed
    # source: P = (1 - lam^2)(1 - t) lam^2 / (1 - lam^2 t)^2
    src = SourceParams(alpha)
    lam2 = src.lam**2
    expected = (1.0 - lam2) * (1.0 - t) * lam2 / (1.0 - lam2 * t) ** 2
    assert success_probability(SubtractionConfig(t), src) == pytest.approx(
        expected, rel=1e-13
    )


@pytest.mark.parametrize("variance", [1e15, 1e16, 1e17, 1e20])
def test_success_probability_of_a_strong_source(variance):
    # 1 - lam**2 = 1/(1 + alpha**2) is far below lam's rounding here; the
    # closed form must not take it as a difference of floats
    src, t = SourceParams.from_variance(variance), Fraction(1, 2)
    a = Fraction(src.alpha) ** 2
    a2, b2 = (1 - t) / (t * (1 + a)), a / (1 + a) * t
    expected = a2 * b2 / (1 - b2) ** 2
    got = success_probability(SubtractionConfig(0.5), src)
    assert abs(Fraction(got) - expected) <= Fraction(1, 10**14) * expected


def test_success_probability_peaks_at_one_quarter():
    # for lam^2 >= 1/2 the maximum over t is exactly 1/4 at t = 2 - 1/lam^2
    src = SourceParams.from_variance(20.0)
    t_star = 2.0 - 1.0 / src.lam**2
    assert t_star == pytest.approx(17.0 / 19.0, abs=1e-12)
    p_star = success_probability(SubtractionConfig(t_star), src)
    assert p_star == pytest.approx(0.25, abs=1e-12)
    for t in (t_star - 0.05, t_star + 0.05):
        assert success_probability(SubtractionConfig(t), src) < p_star


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("t", [0.3, 0.7, 0.95])
def test_covariance_closed_form(alpha, t):
    # with b = lam^2 t the heralded state has
    #   x = (3 + b)/(1 - b),  y = (1 + 3b)/(1 - b),  z = 4 sqrt(b)/(1 - b)
    src = SourceParams(alpha)
    b = src.lam**2 * t
    _, cov = p1_and_covariance(SubtractionConfig(t), src)
    assert cov.x == pytest.approx((3.0 + b) / (1.0 - b), rel=1e-13)
    assert cov.y == pytest.approx((1.0 + 3.0 * b) / (1.0 - b), rel=1e-13)
    assert cov.z == pytest.approx(4.0 * math.sqrt(b) / (1.0 - b), rel=1e-13)


@pytest.mark.parametrize("alpha", [1.0, 3.0])
@pytest.mark.parametrize("t", [0.5, 0.85])
def test_matches_fock_oracle(alpha, t):
    src = SourceParams(alpha)
    p1, cov = p1_and_covariance(SubtractionConfig(t), src)
    sim = simulate_subtraction(SubtractionConfig(t), src)
    assert p1 == pytest.approx(sim.p_success, rel=1e-10)
    assert cov.x == pytest.approx(sim.cov.x, rel=1e-9)
    assert cov.y == pytest.approx(sim.cov.y, rel=1e-9)
    assert cov.z == pytest.approx(sim.cov.z, rel=1e-9)


def test_vacuum_source_cannot_herald():
    with pytest.raises(ValueError, match="vacuum"):
        p1_and_covariance(SubtractionConfig(0.5), SourceParams(0.0))
    assert success_probability(SubtractionConfig(0.5), SourceParams(0.0)) == 0.0


@settings(max_examples=80, deadline=None)
@given(alpha=st.floats(0.1, 4.0), t=st.floats(0.05, 0.99))
def test_determinant_excess_is_constant(alpha, t):
    # the heralded state is pure with Schmidt rank offset one, which fixes
    # x*y - z^2 = 3 for every source and transmittance
    src = SourceParams(alpha)
    cov = output_covariance(SubtractionConfig(t), src)
    assert cov.x * cov.y - cov.z**2 == pytest.approx(3.0, rel=1e-10)
    assert cov.x > cov.y >= 1.0
    p1 = success_probability(SubtractionConfig(t), src)
    assert 0.0 < p1 <= 0.25 + 1e-12
