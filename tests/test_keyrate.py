"""Key-rate pipeline: channel model, entropies, Holevo bound, PLOB."""

import dataclasses
import decimal
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catqkd import (
    ChannelParams,
    ProtocolParams,
    SchemeFamily,
    SourceParams,
    SubtractionConfig,
    TwoModeCovariance,
    channel_transmittance,
    mutual_information,
    pd_and_covariance,
    plob_bound,
    propagate_covariance,
    secret_key_rate,
    symplectic_eigenvalues,
    tmsv_covariance,
    von_neumann_g,
)
from catqkd.keyrate import grid_best, source_state
from catqkd.oracle import two_mode_symplectic_numeric
from catqkd.subtraction import p1_and_covariance

V20 = SourceParams.from_variance(20.0)


def test_channel_transmittance():
    assert channel_transmittance(0.0) == 1.0
    assert channel_transmittance(50.0) == pytest.approx(0.1, rel=1e-14)
    assert channel_transmittance(100.0) == pytest.approx(0.01, rel=1e-14)
    assert channel_transmittance(100.0, atten_db_per_km=0.4) == pytest.approx(1e-4, rel=1e-12)
    with pytest.raises(ValueError):
        channel_transmittance(-1.0)
    # what is not a fibre is refused by name, not by the transmittance it would give
    for distance_km, atten, message in [
            (math.nan, 0.2, "distance must be finite, got nan"),
            (math.inf, 0.2, "distance must be finite, got inf"),
            (-math.inf, 0.2, "distance must be non-negative, got -inf"),
            (10.0, -0.2, "attenuation must be finite and non-negative, got -0.2 dB/km"),
            (0.0, math.inf, "attenuation must be finite and non-negative, got inf dB/km"),
            (10.0, math.nan, "attenuation must be finite and non-negative, got nan dB/km")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            channel_transmittance(distance_km, atten)


def test_channel_noise_is_the_formula_and_not_a_field_of_equality():
    for tc, epsilon in [(0.5, 0.02), (1.0, 0.0), (0.95, 0.01), (0.1 + 0.2, 1e-300),
                        (1e-308, 0.0), (channel_transmittance(200.0), 0.01)]:
        ch = ChannelParams(tc=tc, epsilon=epsilon)
        assert ch.xi.hex() == ((1.0 - tc) / tc + epsilon).hex()
        assert repr(ch) == f"ChannelParams(tc={tc!r}, epsilon={epsilon!r})"
        assert hash(ch) == hash((tc, epsilon))
        twin = dataclasses.replace(ch)
        assert twin == ch and twin.xi.hex() == ch.xi.hex()
        assert dataclasses.replace(ch, epsilon=epsilon + 1.0).xi == (1.0 - tc) / tc + epsilon + 1.0
    assert "xi" not in {f.name for f in dataclasses.fields(ChannelParams) if f.init or f.compare}
    with pytest.raises(TypeError):
        ChannelParams(tc=0.5, xi=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ChannelParams(tc=0.5).xi = 1.0


def test_channel_params():
    ch = ChannelParams(tc=0.5, epsilon=0.02)
    assert ch.xi == pytest.approx(1.02, abs=1e-15)
    assert ChannelParams(tc=1.0).xi == 0.0
    assert ChannelParams.from_distance(50.0).tc == pytest.approx(0.1, rel=1e-14)
    with pytest.raises(ValueError):
        ChannelParams(tc=0.0)
    with pytest.raises(ValueError):
        ChannelParams(tc=0.5, epsilon=-0.01)
    # a subnormal transmittance whose noise (1 - tc)/tc overflows to inf
    assert ChannelParams.from_distance(15400.0).xi == 1e308
    with pytest.raises(ValueError, match="overflows at tc=1e-310, epsilon=0.0"):
        ChannelParams.from_distance(15500.0)
    with pytest.raises(ValueError):
        ProtocolParams(V20, beta=0.0)


def test_von_neumann_entropy_function():
    assert von_neumann_g(0.0) == 0.0
    assert von_neumann_g(-1e-12) == 0.0
    assert von_neumann_g(0.5) == pytest.approx(1.3774437510817343, abs=1e-14)
    assert von_neumann_g(1.0) == pytest.approx(2.0, abs=1e-14)
    xs = np.linspace(0.1, 5.0, 20)
    gs = [von_neumann_g(x) for x in xs]
    assert all(a < b for a, b in zip(gs, gs[1:]))
    with pytest.raises(ValueError):
        von_neumann_g(-0.1)
    for x in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^mean photon number must be finite, got {x}$"):
            von_neumann_g(x)
    with pytest.raises(ValueError, match="^mean photon number must be non-negative, got -inf$"):
        von_neumann_g(-math.inf)


def test_propagation():
    cov = propagate_covariance(TwoModeCovariance(3.0, 3.0, 2.0), ChannelParams(0.25, 0.04))
    assert cov.x == 3.0
    assert cov.y == pytest.approx(0.25 * (3.0 + 3.04), abs=1e-15)
    assert cov.z == pytest.approx(0.5 * 2.0, abs=1e-15)


def test_mutual_information_identity_channel():
    # heterodyne/homodyne Gaussian MI over a lossless channel is half the
    # log of the source variance
    assert mutual_information(tmsv_covariance(V20), 0.0) == pytest.approx(
        0.5 * math.log2(20.0), abs=1e-12
    )


@pytest.mark.parametrize("xi", [-0.5, -25.0, math.nan, math.inf])
def test_mutual_information_refuses_an_unphysical_noise(xi):
    # a noise below 0 can give a finite information or a ratio below 0; one in
    # [0, inf) keeps the rounded (x + 1)(y + xi) above the rounded z**2
    with pytest.raises(ValueError, match=f"^total noise xi must be finite and non-negative, "
                                         f"got {xi}$"):
        mutual_information(tmsv_covariance(V20), xi)


@pytest.mark.parametrize("d_km", [10.0, 50.0, 120.0])
@pytest.mark.parametrize("eps", [0.0, 0.01, 0.05])
def test_mutual_information_matches_joint_determinant(d_km, eps):
    # oracle: assemble the post-channel joint covariance of the measured
    # quadratures explicitly and take 0.5*log2(det(diag)/det(joint));
    # Alice's heterodyne adds one vacuum unit to her variance
    cov = tmsv_covariance(V20)
    ch = ChannelParams.from_distance(d_km, eps)
    after = propagate_covariance(cov, ch)
    joint = np.array([[after.x + 1.0, after.z], [after.z, after.y]])
    oracle = 0.5 * math.log2(joint[0, 0] * joint[1, 1] / np.linalg.det(joint))
    assert mutual_information(cov, ch.xi) == pytest.approx(oracle, rel=1e-12)


def test_symplectic_spectrum_of_lossless_channel_is_trivial():
    l1, l2, l3 = symplectic_eigenvalues(tmsv_covariance(V20), ChannelParams(1.0))
    assert (l1, l2) == (1.0, 1.0)
    # conditioning a pure state on a homodyne outcome keeps it pure
    assert l3 == 1.0
    res = secret_key_rate(ProtocolParams(V20), ChannelParams(1.0))
    assert res.holevo == 0.0
    assert res.key_rate == pytest.approx(0.95 * 0.5 * math.log2(20.0), abs=1e-12)


def test_worked_symplectic_example():
    # V = 20 through a 3 dB lossy channel with no excess noise; the shared
    # spectrum follows from big = x^2 + yb^2 - 2 zz and det = x yb - zz
    cov = tmsv_covariance(V20)
    ch = ChannelParams(tc=0.5)
    yb = 0.5 * (20.0 + 1.0)
    zz = 0.5 * (20.0**2 - 1.0)
    assert cov.x * yb - zz == pytest.approx(10.5, abs=1e-12)
    l1, l2, l3 = symplectic_eigenvalues(cov, ch)
    big = 20.0**2 + yb**2 - 2.0 * zz
    root = math.sqrt(big**2 - 4.0 * 10.5**2)
    assert l1 == pytest.approx(math.sqrt(0.5 * (big + root)), rel=1e-12)
    assert l2 == pytest.approx(math.sqrt(0.5 * (big - root)), rel=1e-12)
    assert l1 * l2 == pytest.approx(10.5, rel=1e-12)
    assert l3 == pytest.approx(math.sqrt(20.0 * (20.0 - (20.0**2 - 1.0) / 21.0)), rel=1e-12)


@pytest.mark.parametrize(
    "cov",
    [
        tmsv_covariance(V20),
        pd_and_covariance(SchemeFamily("bsqc", 1).at(0.9), V20)[1],
        p1_and_covariance(SubtractionConfig(0.85), V20)[1],
    ],
)
@pytest.mark.parametrize("d_km,eps", [(20.0, 0.0), (80.0, 0.01), (150.0, 0.03)])
def test_shared_spectrum_matches_numeric_route(cov, d_km, eps):
    ch = ChannelParams.from_distance(d_km, eps)
    l1, l2, _ = symplectic_eigenvalues(cov, ch)
    nu = two_mode_symplectic_numeric(propagate_covariance(cov, ch).as_matrix())
    assert sorted((l1, l2)) == pytest.approx(sorted(nu), rel=1e-10)


def test_conditional_spectrum_matches_schur_complement():
    # oracle: project Bob's mode on a homodyne outcome via the Schur
    # complement Gamma_A - C (Pi B Pi)^+ C^T and take |eig| of i Omega V
    cov = pd_and_covariance(SchemeFamily("bsqc", 1).at(0.9), V20)[1]
    ch = ChannelParams.from_distance(60.0, 0.01)
    after = propagate_covariance(cov, ch).as_matrix()
    a, b, c = after[:2, :2], after[2:, 2:], after[:2, 2:]
    pi = np.diag([1.0, 0.0])
    cond = a - c @ np.linalg.pinv(pi @ b @ pi) @ c.T
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    nu = float(np.abs(np.linalg.eigvals(1j * omega @ cond)).max())
    assert symplectic_eigenvalues(cov, ch)[2] == pytest.approx(nu, rel=1e-10)


def test_result_assembles_its_parts():
    scheme = SchemeFamily("bsqc", 1).at(0.9)
    p = ProtocolParams(V20, scheme, beta=0.9)
    ch = ChannelParams.from_distance(40.0, 0.01)
    res = secret_key_rate(p, ch)
    pd, cov = pd_and_covariance(scheme, V20)
    assert res.p_success == pytest.approx(pd, rel=1e-13)
    assert res.i_ab == pytest.approx(mutual_information(cov, ch.xi), rel=1e-13)
    l1, l2, l3 = res.symplectic
    expected_holevo = (
        von_neumann_g((l1 - 1.0) / 2.0)
        + von_neumann_g((l2 - 1.0) / 2.0)
        - von_neumann_g((l3 - 1.0) / 2.0)
    )
    assert res.holevo == pytest.approx(expected_holevo, rel=1e-13)
    assert res.raw == pytest.approx(pd * (0.9 * res.i_ab - res.holevo), rel=1e-13)
    assert res.key_rate == max(0.0, res.raw)


def test_rate_decreases_with_distance_and_noise():
    p = ProtocolParams(V20)
    rates = [
        secret_key_rate(p, ChannelParams.from_distance(d, 0.01)).key_rate
        for d in (0.0, 20.0, 40.0, 60.0, 80.0)
    ]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    noisy = [
        secret_key_rate(p, ChannelParams.from_distance(40.0, e)).key_rate
        for e in (0.0, 0.01, 0.03, 0.06)
    ]
    assert all(a > b for a, b in zip(noisy, noisy[1:]))


def test_negative_raw_rate_clamps_to_zero():
    res = secret_key_rate(ProtocolParams(V20), ChannelParams.from_distance(200.0, 0.05))
    assert res.raw < 0.0
    assert res.key_rate == 0.0


def test_plob_bound():
    assert plob_bound(0.5) == pytest.approx(1.0, abs=1e-15)
    assert plob_bound(0.1) == pytest.approx(-math.log2(0.9), rel=1e-14)
    with pytest.raises(ValueError, match="infinite"):
        plob_bound(1.0)
    with pytest.raises(ValueError):
        plob_bound(0.0)


@pytest.mark.parametrize("d_km", [0.5, 100.0, 360.0, 600.0, 2000.0])
def test_plob_bound_keeps_the_digits_of_a_small_transmittance(d_km):
    # 1 - tc loses tc: -log2(1 - tc) was off by 3e-5 at 600 km and -0 at 2000 km
    tc = ChannelParams.from_distance(d_km).tc
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        exact = -(1 - decimal.Decimal(tc)).ln() / decimal.Decimal(2).ln()
    assert plob_bound(tc) == pytest.approx(float(exact), rel=4e-16, abs=0.0)


@pytest.mark.xfail(reason="the spectrum cancels near a pure state (ROADMAP item 3)")
def test_a_pure_state_on_a_lossless_channel_leaks_nothing():
    # the state stays pure, so holevo is 0 and nu3 is 1 exactly; the code gives
    # holevo -3.89e-5 and nu3 = 1.0000038, which overstates the key by 4.1e-6 relative
    res = secret_key_rate(ProtocolParams(SourceParams.from_variance(1e6)),
                          ChannelParams.from_distance(0.0))
    assert res.holevo == pytest.approx(0.0, abs=1e-12)
    assert res.symplectic[2] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.xfail(reason="the spectrum cancels near a pure state (ROADMAP item 3)")
def test_a_near_pure_bare_source_has_no_negative_holevo_term():
    # a draw of test_rate_never_exceeds_the_mutual_information that breaks its
    # bound: nu1 = 1 + 8.9e-15 and nu3 = 1 + 5.2e-14 give holevo -1.0018e-12
    p = ProtocolParams(SourceParams(2.965330384847558))
    res = secret_key_rate(p, ChannelParams.from_distance(2.0110561123982162e-14, 0.0))
    assert res.holevo >= -1e-12
    assert res.key_rate <= p.beta * res.i_ab + 1e-12


@pytest.mark.xfail(reason="round-off rates exceed the PLOB bound (ROADMAP item 14)")
def test_round_off_rates_stay_below_the_plob_bound():
    # Far out the rate is the round-off of i_ab, with holevo 0: at the defaults and
    # 770 km it is 5.17e-15 against a bound of 5.74e-16, and at V = 1e6, epsilon = 1
    # and 900 km 6.85e-13 against 1.44e-18.  The rate is not clamped to the bound.
    for variance, distance, epsilon in ((20.0, 770.0, 0.01), (1e6, 900.0, 1.0)):
        ch = ChannelParams.from_distance(distance, epsilon)
        res = secret_key_rate(ProtocolParams(SourceParams.from_variance(variance)), ch)
        assert res.key_rate <= plob_bound(ch.tc)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.3, 3.0),
    d_km=st.floats(0.0, 150.0),
    eps=st.floats(0.0, 0.05),
)
@example(alpha=0.3, d_km=1e-13, eps=1e-13)  # refused as "eigenvalue 0.99999999 < 1" before
@example(alpha=2.928793487789426, d_km=1.5148957419299991e-13, eps=0.0)  # holevo -1.3e-12 before
def test_rate_never_exceeds_the_mutual_information(alpha, d_km, eps):
    p = ProtocolParams(SourceParams(alpha))
    res = secret_key_rate(p, ChannelParams.from_distance(d_km, eps))
    assert res.holevo >= -1e-12
    assert res.key_rate <= p.beta * res.i_ab + 1e-12


@pytest.mark.parametrize("alpha, d_km, eps", [
    (0.3, 1e-13, 1e-13), (0.3125, 1e-9, 0.0), (1.2022874101015064, 0.0, 0.0)])
def test_near_pure_states_take_the_factored_discriminant(alpha, d_km, eps):
    # big**2 - 4*det**2 cancelled here and split the two eigenvalues of a
    # nearly pure state by ~1e-8, which was refused as an eigenvalue below 1
    p = ProtocolParams(SourceParams(alpha))
    ch = ChannelParams.from_distance(d_km, eps)
    res = secret_key_rate(p, ch)
    assert all(1.0 <= nu < 1.0 + 1e-10 for nu in res.symplectic)
    assert 0.0 <= res.holevo < 1e-10
    cov = tmsv_covariance(p.source)
    grid = grid_best(None, np.ones(1), np.array([cov.x]), np.array([cov.y]),
                     np.array([cov.z]), [ch], p.beta)
    assert grid == [(0, res.key_rate)]


def _exact_spectrum(cov, ch):
    """The spectrum of symplectic_eigenvalues from the same floats, in exact arithmetic."""
    x, y, z, tc, xi = map(Fraction, (cov.x, cov.y, cov.z, ch.tc, ch.xi))
    yb, zz = tc * (y + xi), tc * z**2
    big, det = x**2 + yb**2 - 2 * zz, x * yb - zz
    with decimal.localcontext(decimal.Context(prec=60)):
        def dec(q):
            return decimal.Decimal(q.numerator) / q.denominator
        root = dec(big**2 - 4 * det**2).sqrt()
        squares = ((dec(big) + root) / 2, (dec(big) - root) / 2, dec(x * (x - z**2 / (y + xi))))
        return [float(sq.sqrt()) for sq in squares]


def _relative_error(cov, ch):
    return max(abs(got - ref) / ref
               for got, ref in zip(symplectic_eigenvalues(cov, ch), _exact_spectrum(cov, ch)))


@pytest.mark.parametrize("n, t", [(1, 0.9), (0, 0.99)])
def test_near_pure_catalysed_spectrum_is_exact(n, t):
    # big**2 - 4*det**2 cancels just below 0 here, and the factored discriminant
    # gives the spectrum to round-off (a discriminant of 0 is 6e-11 and 4e-10 off)
    cov = pd_and_covariance(SchemeFamily("bsqc", n).at(t), V20)[1]
    assert _relative_error(cov, ChannelParams.from_distance(1e-9, 0.0)) <= 1e-13


@pytest.mark.parametrize("kind, n, variance, t, d_km, eps", [
    (None, 0, 3.0, None, 1e-9, 0.0), (None, 0, 6.0, None, 0.0, 1e-9),
    (None, 0, 9.0, None, 1e-11, 0.0), ("bsqc", 0, 2.0, 0.6, 0.0, 1e-9),
    ("bsqc", 0, 20.0, 0.99, 1e-9, 1e-9), ("bsqc", 0, 1e3, 0.9, 1e-12, 1e-9),
    ("bsqc", 1, 20.0, 0.6, 1e-12, 0.0), ("bsqc", 1, 1e4, 0.9, 0.0, 1e-9),
    ("bsqc", 2, 20.0, 0.6, 1e-12, 0.0), ("bsqc", 3, 2.0, 0.9, 1e-6, 1e-9),
    ("bsqc", 3, 1e3, 0.99, 1e-9, 0.0), ("ssqc", 0, 20.0, 0.6, 1e-9, 0.0),
    ("ssqc", 1, 100.0, 0.99, 1e-9, 0.0), ("ssqc", 2, 100.0, 0.99, 1e-12, 0.0),
    ("ssqc", 3, 100.0, 0.6, 1e-12, 1e-9),
])
def test_negative_discriminants_of_near_pure_states_are_not_refused(kind, n, variance, t,
                                                                    d_km, eps):
    # near-pure states near 0 km, where big**2 - 4*det**2 cancels to a
    # small negative number; the factored discriminant gives their spectra
    scheme = None if kind is None else SchemeFamily(kind, n).at(t)
    cov = source_state(scheme, SourceParams.from_variance(variance))[1]
    ch = ChannelParams.from_distance(d_km, eps)
    yb, zz = ch.tc * (cov.y + ch.xi), ch.tc * cov.z**2
    assert (cov.x**2 + yb**2 - 2.0 * zz)**2 - 4.0 * (cov.x * yb - zz)**2 < 0.0
    assert min(symplectic_eigenvalues(cov, ch)) >= 1.0
    # what is left is the cancellation in big and det themselves (ROADMAP item 2)
    assert _relative_error(cov, ch) <= 1e-12
