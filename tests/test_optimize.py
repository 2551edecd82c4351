"""Transmittance optimisation and noise/distance limit searches."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catqkd import (
    CatalysisConfig,
    ChannelParams,
    ConsistencyError,
    ProtocolParams,
    SchemeFamily,
    SourceParams,
    SubtractionConfig,
    TransmittanceOptimum,
    TwoModeCovariance,
    best_key_rate,
    catalysis,
    max_distance,
    max_tolerable_excess_noise,
    optimize,
    optimize_transmittance,
    secret_key_rate,
    von_neumann_g,
)
from catqkd.keyrate import grid_key_rates
from catqkd.optimize import _grid_states, _largest_true, golden_section_max

V20 = SourceParams.from_variance(20.0)
BSQC1 = SchemeFamily("bsqc", 1)


def test_golden_section_on_parabola():
    x, fx = golden_section_max(lambda t: -(t - 0.7) ** 2, 0.0, 1.0, 1e-6)
    assert x == pytest.approx(0.7, abs=1e-5)
    assert fx == pytest.approx(0.0, abs=1e-9)


def test_bare_protocol_has_nothing_to_optimise():
    with pytest.raises(ValueError, match="no transmittance"):
        optimize_transmittance(ProtocolParams(V20), ChannelParams(0.5))
    # pass-through still works
    rate = best_key_rate(ProtocolParams(V20), ChannelParams.from_distance(10.0, 0.01))
    assert rate == pytest.approx(
        secret_key_rate(ProtocolParams(V20), ChannelParams.from_distance(10.0, 0.01)).key_rate
    )


def test_transparent_limit_at_zero_distance():
    # on a perfect channel catalysis can only cost heralds, so the optimum
    # sits at the transparent point and recovers the bare-protocol rate
    p = ProtocolParams(V20, BSQC1)
    ch = ChannelParams(tc=1.0)
    opt = optimize_transmittance(p, ch)
    bare = secret_key_rate(ProtocolParams(V20), ch).key_rate
    assert opt.t == pytest.approx(1.0, abs=2e-3)
    assert opt.key_rate == pytest.approx(bare, rel=1e-3)
    assert not opt.all_zero


def test_refinement_never_loses_to_the_grid():
    p = ProtocolParams(V20, BSQC1)
    ch = ChannelParams.from_distance(120.0, 0.01)
    opt = optimize_transmittance(p, ch)
    coarse = max(
        secret_key_rate(
            ProtocolParams(V20, CatalysisConfig.bsqc(1, t)), ch
        ).key_rate
        for t in [0.5 + 0.005 * k for k in range(101)]
    )
    assert opt.key_rate >= coarse - 1e-15
    # refinement adjusts within the best grid cell, never by more than that
    assert opt.key_rate == pytest.approx(coarse, rel=0.05)


def test_single_arm_template_keeps_signal_open():
    p = ProtocolParams(V20, SchemeFamily("ssqc", 1))
    opt = optimize_transmittance(p, ChannelParams.from_distance(100.0, 0.01))
    best = secret_key_rate(
        ProtocolParams(V20, CatalysisConfig.ssqc(1, opt.t)),
        ChannelParams.from_distance(100.0, 0.01),
    )
    assert best.key_rate == pytest.approx(opt.key_rate, rel=1e-12)


def test_symmetric_template_at_unit_transmittance_stays_symmetric():
    # bsqc1 varies both arms; its optimum is not ssqc1's (t = 0.97804)
    ch = ChannelParams.from_distance(100.0, 0.01)
    opt = optimize_transmittance(ProtocolParams(V20, BSQC1), ch)
    assert opt.t == pytest.approx(0.98468, abs=1e-5)
    assert opt.key_rate == pytest.approx(0.0012551, rel=1e-4)


def test_zero_photon_families_stay_apart():
    # bsqc(0, 1.0) == ssqc(0, 1.0), so no concrete config can tell these two apart
    ch = ChannelParams.from_distance(100.0, 0.01)
    bsqc0 = optimize_transmittance(ProtocolParams(V20, SchemeFamily("bsqc", 0)), ch)
    ssqc0 = optimize_transmittance(ProtocolParams(V20, SchemeFamily("ssqc", 0)), ch)
    assert bsqc0.t == pytest.approx(0.94712, abs=1e-5)
    assert ssqc0.t == pytest.approx(0.89707, abs=1e-5)


def test_optimisers_refuse_a_concrete_scheme():
    ch = ChannelParams.from_distance(100.0, 0.01)
    p = ProtocolParams(V20, CatalysisConfig.bsqc(1, 0.9))
    for search in (lambda: optimize_transmittance(p, ch), lambda: best_key_rate(p, ch),
                   lambda: max_tolerable_excess_noise(p, 100.0), lambda: max_distance(p)):
        with pytest.raises(TypeError, match="SchemeFamily"):
            search()


def test_key_rate_refuses_a_family():
    with pytest.raises(TypeError, match="unsupported scheme"):
        secret_key_rate(ProtocolParams(V20, BSQC1), ChannelParams.from_distance(100.0, 0.01))


def test_scheme_family_instantiates_the_presets():
    assert SchemeFamily("bsqc", 2).at(0.9) == CatalysisConfig.bsqc(2, 0.9)
    assert SchemeFamily("ssqc", 2).at(0.9) == CatalysisConfig.ssqc(2, 0.9)
    assert SchemeFamily("subtraction").at(0.9) == SubtractionConfig(0.9)
    assert [SchemeFamily(k, 2).photon_columns for k in ("bsqc", "ssqc")] == [(2, 2), (0, 2)]
    assert SchemeFamily("subtraction").photon_columns == (None, None)
    assert SchemeFamily("ssqc", 1).heralds(1.0) and not SchemeFamily("subtraction").heralds(1.0)
    with pytest.raises(ValueError, match="outside \\(0, 1\\)"):
        SchemeFamily("subtraction").at(1.0)
    with pytest.raises(ValueError, match="unknown scheme family"):
        SchemeFamily("bsqd", 1)
    with pytest.raises(ValueError, match="photon number"):
        SchemeFamily("subtraction", 1)


def test_subtraction_transparent_limit_is_rateless():
    p = ProtocolParams(V20, SchemeFamily("subtraction"))
    ch = ChannelParams.from_distance(150.0, 0.01)
    opt = optimize_transmittance(p, ch)
    assert 0.5 <= opt.t < 1.0
    assert opt.key_rate > 0.0


def test_all_zero_flag_past_the_cutoff():
    p = ProtocolParams(V20, SchemeFamily("bsqc", 2))
    opt = optimize_transmittance(p, ChannelParams.from_distance(400.0, 0.05))
    assert opt.all_zero
    assert opt.key_rate == 0.0


def test_largest_true_finds_the_edge():
    assert _largest_true(lambda x: x <= 7.3, 0.0, 20.0, 1e-6) == pytest.approx(7.3, abs=1e-5)


def test_largest_true_warns_on_revival():
    def pred(x):
        return x <= 5.0 or 14.0 <= x <= 17.0

    with pytest.warns(UserWarning, match="non-monotone"):
        edge = _largest_true(pred, 0.0, 20.0, 1e-3, probes=8)
    assert edge == pytest.approx(17.0, abs=1e-2)


def test_max_noise_matches_direct_bisection():
    # oracle: bisect the fixed-transmittance rate directly at the same tol
    p = ProtocolParams(V20, BSQC1)
    d = 100.0
    got = max_tolerable_excess_noise(p, d, tol=1e-5)

    def rate(eps):
        return best_key_rate(p, ChannelParams.from_distance(d, eps))

    lo, hi = 0.0, 0.2
    assert rate(lo) > 0.0 and rate(hi) == 0.0
    while hi - lo > 1e-5:
        mid = 0.5 * (lo + hi)
        if rate(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    assert got == pytest.approx(lo, abs=3e-5)


def test_max_noise_boundaries():
    # past its zero-noise cutoff the bare protocol tolerates nothing; a
    # perfect channel saturates the search cap
    assert max_tolerable_excess_noise(ProtocolParams(V20), 200.0) == 0.0
    assert max_tolerable_excess_noise(ProtocolParams(V20), 0.0) == 0.2


def test_max_noise_decreases_with_distance():
    p = ProtocolParams(V20)
    eps = [max_tolerable_excess_noise(p, d) for d in (20.0, 50.0, 80.0)]
    assert eps[0] > eps[1] > eps[2] > 0.0


def test_max_distance_matches_grid_scan():
    p = ProtocolParams(V20)
    got = max_distance(p, epsilon=0.01, floor=1e-6)

    def reaches(d):
        return (
            secret_key_rate(p, ChannelParams.from_distance(d, 0.01)).key_rate >= 1e-6
        )

    last = max(d for d in range(0, 120) if reaches(float(d)))
    assert last <= got <= last + 1.0
    assert reaches(got - 0.05)
    assert not reaches(got + 0.2)


def test_max_distance_boundaries():
    # a floor above the zero-distance rate is unreachable anywhere
    assert max_distance(ProtocolParams(V20), epsilon=0.01, floor=10.0) == 0.0
    assert max_distance(ProtocolParams(V20), epsilon=0.0, floor=1e-30, d_max=50.0) == 50.0
    with pytest.raises(ValueError):
        max_distance(ProtocolParams(V20), floor=0.0)


def _scalar_result(p, ch, t):
    """secret_key_rate at one t; None where the family heralds nothing."""
    if not p.scheme.heralds(t):
        return None
    return secret_key_rate(replace(p, scheme=p.scheme.at(t)), ch)


def _scalar_rate(p, ch, t):
    res = _scalar_result(p, ch, t)
    return 0.0 if res is None else res.key_rate


_SCHEMES = st.one_of(
    st.builds(SchemeFamily, st.sampled_from(["bsqc", "ssqc"]), st.integers(0, 5)),
    st.just(SchemeFamily("subtraction")),
)


@settings(max_examples=40, deadline=None)
@given(scheme=_SCHEMES, variance=st.floats(1.0, 1e6),
       d_km=st.one_of(st.floats(0.0, 400.0), st.floats(400.0, 1e4)), eps=st.floats(0.0, 0.1))
# a discriminant rounded below 0 and tolerated; one refused; an eigenvalue refused; a vacuum
@example(scheme=BSQC1, variance=20.0, d_km=1e-9, eps=0.0)
@example(scheme=SchemeFamily("bsqc", 2), variance=1e6, d_km=1e-9, eps=0.0)
@example(scheme=SchemeFamily("bsqc", 0), variance=1e6, d_km=1e-9, eps=0.0)
@example(scheme=SchemeFamily("subtraction"), variance=1.0, d_km=10.0, eps=0.0)
def test_grid_pass_matches_the_scalar_rate(scheme, variance, d_km, eps):
    p = ProtocolParams(SourceParams.from_variance(variance), scheme)
    ch = ChannelParams.from_distance(d_km, eps)
    grid = tuple(0.5 + 0.025 * k for k in range(21))

    def grid_rates():
        t, *state = _grid_states(scheme, p.source, grid)
        rates = grid_key_rates(t, *state, ch, p.beta).tolist()
        return rates + [0.0] * (len(grid) - len(rates))

    results = []
    for t in grid:
        try:
            results.append(_scalar_result(p, ch, t))
        except (ValueError, ConsistencyError) as exc:
            with pytest.raises(type(exc)) as raised:
                grid_rates()
            message = str(raised.value)
            if " at t=" in message:  # from the grid pass, which names the first failing t
                assert message == f"{exc} at t={t}"
            return
    for rate, res in zip(grid_rates(), results):
        if res is None:
            assert rate == 0.0
            continue
        # near-zero rates cancel, so the error is measured against the terms' sizes
        g = sum(von_neumann_g((nu - 1.0) / 2.0) for nu in res.symplectic)
        assert abs(rate - res.key_rate) <= 1e-12 * res.p_success * (p.beta * res.i_ab + g)


def test_grid_pass_names_the_first_unphysical_state():
    t = np.array([0.6, 0.7, 0.8])
    x, y, z = np.array([3.0, 0.5, 0.5]), np.full(3, 3.0), np.array([2.0, 0.0, 0.0])
    with pytest.raises(ConsistencyError) as scalar:
        TwoModeCovariance(x=0.5, y=3.0, z=0.0)
    with pytest.raises(ConsistencyError) as grid:
        grid_key_rates(t, np.ones(3), x, y, z, ChannelParams.from_distance(10.0, 0.01), 0.95)
    assert str(grid.value) == f"{scalar.value} at t=0.7"


@pytest.mark.parametrize("variance,family,d_km,eps,all_zero", [
    (20.0, BSQC1, 100.0, 0.01, False),
    (20.0, SchemeFamily("ssqc", 2), 50.0, 0.01, False),
    (20.0, BSQC1, 0.0, 0.01, False),
    (20.0, SchemeFamily("bsqc", 2), 400.0, 0.05, True),
    (20.0, SchemeFamily("subtraction"), 150.0, 0.01, False),
    (20.0, SchemeFamily("subtraction"), 400.0, 0.05, True),
    (1e3, SchemeFamily("subtraction"), 0.0, 0.01, False),  # refined up to t = 1
])
def test_optimum_equals_the_scalar_grid_and_golden_search(variance, family, d_km, eps, all_zero):
    p = ProtocolParams(SourceParams.from_variance(variance), family)
    ch = ChannelParams.from_distance(d_km, eps)
    grid = [0.5 + k * 0.5 / 100 for k in range(101)]
    rates = [_scalar_rate(p, ch, t) for t in grid]
    best = max(range(len(grid)), key=rates.__getitem__)
    if rates[best] <= 0.0:
        expected = TransmittanceOptimum(t=grid[best], key_rate=0.0, all_zero=True)
    else:
        t, rate = golden_section_max(lambda u: _scalar_rate(p, ch, u),
                                     grid[max(0, best - 1)], grid[min(100, best + 1)], 1e-4)
        if rate < rates[best]:
            t, rate = grid[best], rates[best]
        expected = TransmittanceOptimum(t=t, key_rate=rate, all_zero=False)
    assert expected.all_zero == all_zero
    assert optimize_transmittance(p, ch) == expected


def test_grid_states_are_built_once_per_template_and_source(monkeypatch):
    moments, optima = [], []
    real_moments, real_opt = catalysis.pd_and_covariance, optimize.optimize_transmittance

    def counted_moments(cfg, src):
        moments.append(cfg.t1)
        return real_moments(cfg, src)

    def counted_opt(*args, **kwargs):
        optima.append(real_opt(*args, **kwargs))
        return optima[-1]

    monkeypatch.setattr(catalysis, "pd_and_covariance", counted_moments)
    monkeypatch.setattr(optimize, "optimize_transmittance", counted_opt)
    _grid_states.cache_clear()
    max_distance(ProtocolParams(V20, BSQC1))
    grid = [0.5 + k * 0.5 / 100 for k in range(101)]
    counts = Counter(moments)
    assert all(counts[t] == 1 for t in grid)
    # every other call is a golden-section probe: at most 13 per refined optimisation
    refined = sum(not opt.all_zero for opt in optima)
    assert len(optima) > 10
    assert len(moments) <= len(grid) + 13 * refined

    calls = len(moments)
    states = _grid_states(BSQC1, V20, tuple(grid))
    assert len(moments) == calls  # served from the cache
    with pytest.raises(ValueError):
        states[1, 0] = 0.0
