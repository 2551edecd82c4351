"""Photon catalysis: closed-form anchors, Fock-oracle agreement, invariants."""

import bisect
import decimal
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catqkd import (
    CatalysisConfig,
    ConsistencyError,
    SchemeFamily,
    SchmidtSpectrum,
    SourceParams,
    TwoModeCovariance,
    log_negativity,
    log_negativity_tmsv,
    log_negativity_tmsv_closed_form,
    pd_and_covariance,
    schmidt_spectrum,
    success_probability,
    tmsv_covariance,
)
from catqkd import catalysis
from catqkd.catalysis import _MAX_TERMS, _TAIL
from catqkd.oracle import simulate_catalysis
from catqkd.series import generating_function_moments

ALPHAS = [1.0, 3.0]
CONFIGS = [
    SchemeFamily("bsqc", 1).at(0.9),
    SchemeFamily("bsqc", 2).at(0.7),
    SchemeFamily("ssqc", 1).at(0.8),
    SchemeFamily("ssqc", 2).at(0.95),
    CatalysisConfig(m=1, n=2, t1=0.85, t2=0.6),
]


GRID_T = [0.01, 0.5, 0.95, 0.999]
GRID_V = [1.5, 20.0, 1e3, 1e6]
# Relative agreement with the jet route.  The closed form is exact up to
# the final rounding; the jets lose digits at strong squeezing and large
# photon numbers (7.6e-9 for bsqc5 at T = 0.95, V = 1e3, and 5.1e-8 for
# bsqc5 at T = 0.999, V = 1e6, against a 60-digit reference).
GRID_REL = {1.5: 1e-10, 20.0: 1e-10, 1e3: 1e-8, 1e6: 1e-6}


def _grid_configs(t):
    configs = [SchemeFamily("bsqc", k).at(t) for k in range(6)]
    configs += [SchemeFamily("ssqc", k).at(t) for k in range(6)]
    configs += [CatalysisConfig(m, n, t, 0.5 + t / 2) for m, n in [(1, 2), (3, 1), (2, 5), (5, 4)]]
    return configs


def test_source_parametrisations_agree():
    src = SourceParams.from_variance(20.0)
    assert src.variance == pytest.approx(20.0, abs=1e-12)
    assert src.lam == pytest.approx(math.sqrt(9.5 / 10.5), abs=1e-12)
    assert SourceParams(0.0).lam == 0.0
    with pytest.raises(ValueError):
        SourceParams(-0.1)
    for variance in (0.5, math.inf, math.nan):  # the message names the variance, not alpha
        with pytest.raises(ValueError, match=r"^quadrature variance must be finite and >= 1"):
            SourceParams.from_variance(variance)


def test_source_overflows_are_refused_with_the_quantity():
    # 2 alpha**2 + 1 passes the largest float between alpha = 9.4e153 and 9.5e153
    assert math.isfinite(SourceParams(9.4e153).variance)
    for alpha in (9.5e153, 1e200):
        with pytest.raises(ValueError) as exc:
            SourceParams(alpha)
        assert str(exc.value) == f"alpha={alpha} overflows the variance 2*alpha**2 + 1"
    # the bare source's covariance squares V, which overflows past about 1.3e154
    with pytest.raises(ConsistencyError) as exc:
        tmsv_covariance(SourceParams.from_variance(1e155))
    assert str(exc.value) == ("the covariance of the two-mode squeezed vacuum overflows a float: "
                              "V**2 is inf at V=9.999999999999999e+154")


def test_overflowing_covariance_is_refused_with_z():
    # at t = 1 the catalyser returns the source, whose z = 2e200 squares past the float range
    with pytest.raises(ConsistencyError) as exc:
        pd_and_covariance(SchemeFamily("bsqc", 1).at(1.0), SourceParams(1e100))
    assert str(exc.value) == ("the covariance overflows a float: z**2 is out of range "
                              "at z=2e+200 (x=2e+200, y=2e+200)")


@pytest.mark.xfail(reason="ROADMAP item 3")
def test_a_large_variance_bare_source_is_physical():
    # V**2 - z**2 rounds to 1 - 3.1e-5 here, and 630 of 3000 log-spaced V in
    # [1e3, 1e6] are refused as "unphysical covariance" the same way
    cov = tmsv_covariance(SourceParams.from_variance(461912.0))
    assert all(map(math.isfinite, (cov.x, cov.y, cov.z)))


@pytest.mark.xfail(reason="ROADMAP item 3")
def test_a_near_transparent_bsqc0_state_is_physical():
    # bsqc0 heralds a rescaled two-mode squeezed vacuum, pure with x*y - z**2 = 1;
    # the closed form's floats give x*y - z**2 = 1 - 3.7e-9
    _, cov = pd_and_covariance(SchemeFamily("bsqc", 0).at(0.99975),
                               SourceParams.from_variance(1e6))
    assert all(map(math.isfinite, (cov.x, cov.y, cov.z)))


def test_config_validation():
    with pytest.raises(ValueError, match="photon number"):
        CatalysisConfig(m=6, n=0, t1=0.9, t2=0.9)
    with pytest.raises(ValueError, match="photon number"):
        CatalysisConfig(m=0, n=-1, t1=0.9, t2=0.9)
    with pytest.raises(ValueError, match="transmittance"):
        CatalysisConfig(m=1, n=1, t1=0.0, t2=0.9)
    with pytest.raises(ValueError, match="transmittance"):
        SchemeFamily("bsqc", 1).at(1.2)
    ssqc = SchemeFamily("ssqc", 2).at(0.8)
    assert (ssqc.m, ssqc.n, ssqc.t1, ssqc.t2) == (0, 2, 1.0, 0.8)


def test_covariance_matrix_layout_and_validation():
    cov = TwoModeCovariance(x=3.0, y=2.0, z=1.5)
    mat = cov.as_matrix()
    assert mat.shape == (4, 4)
    assert np.array_equal(np.diag(mat), [3.0, 3.0, 2.0, 2.0])
    assert mat[0, 2] == 1.5 and mat[1, 3] == -1.5
    assert np.array_equal(mat, mat.T)
    with pytest.raises(ConsistencyError, match="unphysical"):
        TwoModeCovariance(x=0.5, y=2.0, z=0.0)
    with pytest.raises(ConsistencyError, match="unphysical"):
        TwoModeCovariance(x=1.0, y=1.0, z=1.1)
    with pytest.raises(ConsistencyError, match="unphysical"):
        TwoModeCovariance(x=math.nan, y=1.0, z=0.0)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("t1,t2", [(0.9, 0.9), (1.0, 0.7), (0.6, 0.8)])
def test_zero_photon_success_probability_closed_form(alpha, t1, t2):
    # with no catalysis photons the herald is a double vacuum filter, so
    # pd = (1 - lam^2) / (1 - lam^2 t1 t2) by summing the geometric series
    src = SourceParams(alpha)
    pd = success_probability(CatalysisConfig(m=0, n=0, t1=t1, t2=t2), src)
    lam2 = src.lam**2
    assert pd == pytest.approx((1.0 - lam2) / (1.0 - lam2 * t1 * t2), rel=1e-13)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("t", [0.6, 0.9])
def test_zero_photon_state_is_a_rescaled_source(alpha, t):
    # zero-photon catalysis only filters the Schmidt ladder: the output is
    # again a two-mode squeezed state with lam -> lam * sqrt(t1 t2)
    src = SourceParams(alpha)
    for cfg in (SchemeFamily("bsqc", 0).at(t), SchemeFamily("ssqc", 0).at(t)):
        lam_eff = src.lam * math.sqrt(cfg.t1 * cfg.t2)
        ref = tmsv_covariance(SourceParams(lam_eff / math.sqrt(1.0 - lam_eff**2)))
        got = pd_and_covariance(cfg, src)[1]
        assert got.x == pytest.approx(ref.x, abs=1e-11)
        assert got.y == pytest.approx(ref.y, abs=1e-11)
        assert got.z == pytest.approx(ref.z, abs=1e-11)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_transparent_catalysers_are_neutral(n):
    src = SourceParams(1.0)
    pd, cov = pd_and_covariance(SchemeFamily("bsqc", n).at(1.0), src)
    ref = tmsv_covariance(src)
    assert pd == pytest.approx(1.0, abs=1e-12)
    assert cov.x == pytest.approx(ref.x, abs=1e-12)
    assert cov.z == pytest.approx(ref.z, abs=1e-12)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("cfg", CONFIGS, ids=str)
def test_generating_function_route_matches_fock_oracle(cfg, alpha):
    src = SourceParams(alpha)
    pd, cov = pd_and_covariance(cfg, src)
    sim = simulate_catalysis(cfg, src)
    assert pd == pytest.approx(sim.p_success, rel=1e-10)
    assert cov.x == pytest.approx(sim.cov.x, rel=1e-9)
    assert cov.y == pytest.approx(sim.cov.y, rel=1e-9)
    assert cov.z == pytest.approx(sim.cov.z, rel=1e-9)


@pytest.mark.parametrize("variance", GRID_V)
@pytest.mark.parametrize("t", GRID_T)
def test_closed_form_matches_generating_function_route(t, variance):
    src = SourceParams.from_variance(variance)
    rel = GRID_REL[variance]
    for cfg in _grid_configs(t):
        start = time.perf_counter()
        pd, cov = pd_and_covariance(cfg, src)
        elapsed = time.perf_counter() - start
        ref_pd, s_var, s_cor = generating_function_moments(cfg, src)
        assert pd == pytest.approx(ref_pd, rel=rel), cfg
        assert cov.x == pytest.approx(2.0 * s_var / ref_pd - 1.0, rel=rel), cfg
        assert cov.z == pytest.approx(2.0 * s_cor / ref_pd, rel=rel), cfg
        assert elapsed < 0.1, f"{cfg} took {elapsed:.3f}s"


@pytest.mark.parametrize("variance", GRID_V)
def test_transparent_catalysers_return_the_source_exactly(variance):
    # includes ssqc3 and ssqc4 at V = 1e6, where the jet route turns unphysical
    src = SourceParams.from_variance(variance)
    ref = tmsv_covariance(src)
    for cfg in _grid_configs(1.0):
        pd, cov = pd_and_covariance(cfg, src)
        assert pd == 1.0, cfg
        assert cov.x == pytest.approx(ref.x, rel=1e-12), cfg
        assert cov.z == pytest.approx(ref.z, rel=1e-12), cfg


@pytest.mark.parametrize("cfg,variance,ref", [
    (SchemeFamily("bsqc", 5).at(0.95), 1e3,
     (0.0031380191516190354645, 146.1763665996212947, 145.86740690692568428)),
    (SchemeFamily("bsqc", 5).at(0.999), 1e6,
     (0.00018405166006994014462, 10776.560588416882224, 10776.555048992155122)),
], ids=str)
def test_closed_form_matches_high_precision_reference(cfg, variance, ref):
    # references from a 60-digit direct sum over the twin-Fock ladder
    pd, cov = pd_and_covariance(cfg, SourceParams.from_variance(variance))
    assert (pd, cov.x, cov.z) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("cfg", CONFIGS[:4], ids=str)
def test_schmidt_weights_match_fock_oracle(cfg, alpha):
    src = SourceParams(alpha)
    spec = schmidt_spectrum(cfg, src)
    sim = simulate_catalysis(cfg, src)
    keep = min(spec.cutoff, 30)
    assert np.allclose(
        np.abs(spec.weights[: keep + 1]),
        np.abs(sim.weights[: keep + 1]),
        atol=1e-10,
    )
    assert log_negativity(spec) == pytest.approx(sim.log_negativity, abs=1e-8)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("cfg", CONFIGS, ids=str)
def test_schmidt_spectrum_is_normalised(cfg, alpha):
    spec = schmidt_spectrum(cfg, SourceParams(alpha))
    assert spec.squared_sum == pytest.approx(1.0, abs=1e-8)
    assert spec.tail_bound < 1e-12


def test_schmidt_spectrum_refuses_weights_that_do_not_sum_to_one(monkeypatch):
    # a success probability twice too large halves every squared weight; the spectrum
    # refuses at the tolerance of catqkd verify's schmidt-normalisation row, 1e-8
    real = catalysis.success_probability
    monkeypatch.setattr(catalysis, "success_probability", lambda cfg, src: 2.0 * real(cfg, src))
    with pytest.raises(ConsistencyError,
                       match=r"^Schmidt weights sum to 0\.(5|49999999)\d*, expected 1$"):
        schmidt_spectrum(SchemeFamily("bsqc", 1).at(0.9), SourceParams(1.0))


@pytest.mark.parametrize("cfg,variance", [
    (SchemeFamily("bsqc", 1).at(0.95), 1000.0),
    (SchemeFamily("bsqc", 5).at(0.7), 20.0),
    (CatalysisConfig(m=2, n=3, t1=0.9, t2=0.6), 200.0),
], ids=str)
def test_schmidt_spectrum_reproduces_the_moments(cfg, variance):
    # bsqc1 at V = 1000 needs about 750 terms
    src = SourceParams.from_variance(variance)
    spec = schmidt_spectrum(cfg, src)
    _, cov = pd_and_covariance(cfg, src)
    w = spec.weights
    ls = np.arange(spec.cutoff + 1)
    assert spec.squared_sum == pytest.approx(1.0, abs=1e-12)
    assert spec.tail_bound < 1e-12
    assert 2.0 * float(ls @ (w * w)) + 1.0 == pytest.approx(cov.x, rel=1e-10)
    assert 2.0 * float(np.sum((ls[:-1] + 1) * w[:-1] * w[1:])) == pytest.approx(cov.z, rel=1e-10)


def test_schmidt_size_cap_raises_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ConsistencyError, match=r"lam=.*t1=1\.0, t2=1\.0"):
            schmidt_spectrum(SchemeFamily("bsqc", 1).at(1.0), SourceParams.from_variance(1e12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def _bisected_cutoff(tail, x, photons):
    # the reference: the search before the secant one, 20 calls of the bound
    return bisect.bisect_left(range(_MAX_TERMS), True, key=lambda c: tail(c) <= _TAIL)


def _spectrum_or_refusal(cfg, src):
    try:
        spec = schmidt_spectrum(cfg, src)
    except ConsistencyError as exc:
        return str(exc)
    return spec.cutoff, spec.tail_bound, spec.weights.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(0, 5),
    n=st.integers(0, 5),
    t1=st.sampled_from([0.5, 0.7, 0.9, 0.99, 1.0]),
    t2=st.sampled_from([0.5, 0.7, 0.9, 0.99, 1.0]),
    alpha=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
)
@example(m=0, n=0, t1=1.0, t2=1.0, alpha=0.0)  # x = 0: the bound is 0 from the start
@example(m=5, n=5, t1=0.5, t2=1.0, alpha=0.0)
@example(m=5, n=5, t1=1.0, t2=1.0, alpha=1e-300)
# next to the 2^20 cap: the largest cutoff, 1048575, and the smallest refused alpha
@example(m=0, n=0, t1=1.0, t2=1.0, alpha=121.64798125867759)
@example(m=0, n=0, t1=1.0, t2=1.0, alpha=121.6479812586776)
@example(m=5, n=5, t1=1.0, t2=1.0, alpha=121.09625383121325)
@example(m=5, n=5, t1=1.0, t2=1.0, alpha=121.09625383121326)
@example(m=1, n=1, t1=1.0, t2=1.0, alpha=1e9)  # x rounds to 1: the bound is never finite
def test_cutoff_search_equals_the_bisection(m, n, t1, t2, alpha):
    cfg, src = CatalysisConfig(m=m, n=n, t1=t1, t2=t2), SourceParams(alpha)
    spectrum = _spectrum_or_refusal(cfg, src)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(catalysis, "_cutoff", _bisected_cutoff)
        assert spectrum == _spectrum_or_refusal(cfg, src)


@settings(max_examples=150, deadline=None)
@given(
    x=st.floats(1e-6, 0.8),
    photons=st.integers(0, 10),
    first=st.integers(0, 60),
    start=st.floats(-60.0, 60.0),
    ratio=st.floats(1e-3, 0.999),
)
def test_cutoff_search_takes_its_start_from_the_bound(x, photons, first, start, ratio):
    # a bound finite from `first` on, wherever x and photons put the estimate of it
    def tail(c):
        return math.inf if c < first else math.exp(start) * ratio ** (c - first)

    assert catalysis._cutoff(tail, x, photons) == _bisected_cutoff(tail, x, photons)


def test_schmidt_spectrum_of_transparent_catalyser_is_geometric():
    src = SourceParams(1.0)
    spec = schmidt_spectrum(SchemeFamily("bsqc", 1).at(1.0), src)
    ls = np.arange(spec.cutoff + 1)
    ref = math.sqrt(1.0 - src.lam**2) * src.lam**ls
    assert np.allclose(np.abs(spec.weights), ref, atol=1e-12)


def test_frozen_entanglement_values():
    # high-precision references computed with 30-digit arithmetic
    assert log_negativity_tmsv(SourceParams(1.0)) == pytest.approx(
        2.5431066063272239, abs=1e-12
    )
    assert log_negativity_tmsv(SourceParams(3.0)) == pytest.approx(
        5.2469273777123948, abs=1e-12
    )
    assert log_negativity_tmsv_closed_form(SourceParams(1.0)) == pytest.approx(
        1.5431066063272239, abs=1e-12
    )
    assert log_negativity_tmsv_closed_form(SourceParams(3.0)) == pytest.approx(
        1.9249992828250324, abs=1e-12
    )
    # the vacuum's is +0, not -0
    assert math.copysign(1.0, log_negativity_tmsv_closed_form(SourceParams(0.0))) == 1.0
    # lam = 1/2 gives log2(3) exactly
    src = SourceParams.from_variance(5.0 / 3.0)
    assert src.lam == pytest.approx(0.5, abs=1e-15)
    assert log_negativity_tmsv(src) == pytest.approx(1.5849625007211562, abs=1e-12)


@pytest.mark.parametrize("alpha", [1e7, 1e9, 1e150])
def test_bare_source_log_negativity_where_lam_rounds_to_one(alpha):
    # lam rounds to 1 from about alpha = 1e8; references from 60-digit decimal arithmetic
    with decimal.localcontext(decimal.Context(prec=60)):
        a = decimal.Decimal(alpha)
        root = (1 + a * a).sqrt()
        ln2 = decimal.Decimal(2).ln()
        tmsv = 2 * (a + root).ln() / ln2
        closed = 2 * (1 + a / root).ln() / ln2
    src = SourceParams(alpha)
    assert log_negativity_tmsv(src) == pytest.approx(float(tmsv), rel=1e-15)
    assert log_negativity_tmsv_closed_form(src) == pytest.approx(float(closed), rel=1e-15)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_closed_form_variant_gap_is_the_normalisation(alpha):
    # the closed-form variant equals 2*log2(1 + lam); the Schmidt-sum value
    # exceeds it by exactly -log2(1 - lam^2)
    src = SourceParams(alpha)
    lam = src.lam
    assert log_negativity_tmsv_closed_form(src) == pytest.approx(
        2.0 * math.log2(1.0 + lam), abs=1e-12
    )
    gap = log_negativity_tmsv(src) - log_negativity_tmsv_closed_form(src)
    assert gap == pytest.approx(-math.log2(1.0 - lam**2), abs=1e-12)


def test_schmidt_spectrum_accessors():
    spec = SchmidtSpectrum(weights=np.array([0.8, 0.6]), tail_bound=0.0)
    assert spec.cutoff == 1
    assert spec.squared_sum == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        spec.weights[0] = 0.0


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(0, 3),
    n=st.integers(0, 3),
    t1=st.floats(0.5, 1.0),
    t2=st.floats(0.5, 1.0),
    alpha=st.floats(0.2, 3.0),
)
def test_heralded_state_is_physical(m, n, t1, t2, alpha):
    src = SourceParams(alpha)
    pd, cov = pd_and_covariance(CatalysisConfig(m=m, n=n, t1=t1, t2=t2), src)
    assert 0.0 < pd <= 1.0 + 1e-9
    assert cov.x == cov.y
    # purity: the heralded state has both symplectic eigenvalues sqrt(x^2-z^2)
    assert cov.x**2 - cov.z**2 >= 1.0 - 1e-9


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 3), t=st.floats(0.5, 0.99), alpha=st.floats(0.2, 3.0))
def test_single_arm_heralds_at_least_as_often_as_two(n, t, alpha):
    src = SourceParams(alpha)
    two = success_probability(SchemeFamily("bsqc", n).at(t), src)
    one = success_probability(SchemeFamily("ssqc", n).at(t), src)
    assert one >= two - 1e-12


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.2, 3.0), lo=st.floats(0.5, 0.94))
def test_zero_photon_probability_increases_with_transmittance(alpha, lo):
    src = SourceParams(alpha)
    hi = lo + 0.05
    p_lo = success_probability(SchemeFamily("bsqc", 0).at(lo), src)
    p_hi = success_probability(SchemeFamily("bsqc", 0).at(hi), src)
    assert p_hi >= p_lo
