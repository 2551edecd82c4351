"""Transmittance optimisation and noise/distance limit searches."""

import math

import pytest

from catqkd import (
    CatalysisConfig,
    ChannelParams,
    ProtocolParams,
    SourceParams,
    SubtractionConfig,
    best_key_rate,
    max_distance,
    max_tolerable_excess_noise,
    optimize_transmittance,
    secret_key_rate,
)
from catqkd.optimize import _largest_true, golden_section_max

V20 = SourceParams.from_variance(20.0)


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
    p = ProtocolParams(V20, CatalysisConfig.bsqc(1, 0.9))
    ch = ChannelParams(tc=1.0)
    opt = optimize_transmittance(p, ch)
    bare = secret_key_rate(ProtocolParams(V20), ch).key_rate
    assert opt.t == pytest.approx(1.0, abs=2e-3)
    assert opt.key_rate == pytest.approx(bare, rel=1e-3)
    assert not opt.all_zero


def test_refinement_never_loses_to_the_grid():
    p = ProtocolParams(V20, CatalysisConfig.bsqc(1, 0.9))
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
    p = ProtocolParams(V20, CatalysisConfig.ssqc(1, 0.9))
    opt = optimize_transmittance(p, ChannelParams.from_distance(100.0, 0.01))
    best = secret_key_rate(
        ProtocolParams(V20, CatalysisConfig.ssqc(1, opt.t)),
        ChannelParams.from_distance(100.0, 0.01),
    )
    assert best.key_rate == pytest.approx(opt.key_rate, rel=1e-12)


def test_subtraction_transparent_limit_is_rateless():
    p = ProtocolParams(V20, SubtractionConfig(0.9))
    ch = ChannelParams.from_distance(150.0, 0.01)
    opt = optimize_transmittance(p, ch)
    assert 0.5 <= opt.t < 1.0
    assert opt.key_rate > 0.0


def test_all_zero_flag_past_the_cutoff():
    p = ProtocolParams(V20, CatalysisConfig.bsqc(2, 0.9))
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
    p = ProtocolParams(V20, CatalysisConfig.bsqc(1, 0.9))
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
