"""Transmittance optimisation and noise/distance limit searches."""

import math
import re
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
    catalysis,
    channel_transmittance,
    keyrate,
    max_distance,
    max_tolerable_excess_noise,
    optimize,
    secret_key_rate,
)
from catqkd.keyrate import grid_best, source_state
from catqkd.optimize import (_GRID, _grid_states, _largest_true, golden_section_max,
                             optimal_log_negativity, optimal_transmittances,
                             optimize_transmittance)

V20 = SourceParams.from_variance(20.0)
BSQC1 = SchemeFamily("bsqc", 1)


def _best_rate(p, ch):
    """The key rate with the transmittance optimised; the bare protocol's rate for ``None``."""
    if p.scheme is None:
        return secret_key_rate(p, ch).key_rate
    return optimal_transmittances(p, [ch])[0].key_rate


def test_golden_section_on_parabola():
    x, fx = golden_section_max(lambda t: -(t - 0.7) ** 2, 0.0, 1.0, 1e-6)
    assert x == pytest.approx(0.7, abs=1e-5)
    assert fx == pytest.approx(0.0, abs=1e-9)


def test_bare_protocol_has_nothing_to_optimise():
    with pytest.raises(ValueError, match="no transmittance"):
        optimal_transmittances(ProtocolParams(V20), [ChannelParams(0.5)])[0]


def test_transparent_limit_at_zero_distance():
    # on a perfect channel catalysis can only cost heralds, so the optimum
    # sits at the transparent point and recovers the bare-protocol rate
    p = ProtocolParams(V20, BSQC1)
    ch = ChannelParams(tc=1.0)
    opt = optimal_transmittances(p, [ch])[0]
    bare = secret_key_rate(ProtocolParams(V20), ch).key_rate
    assert opt.t == pytest.approx(1.0, abs=2e-3)
    assert opt.key_rate == pytest.approx(bare, rel=1e-3)
    assert not opt.all_zero


def test_refinement_never_loses_to_the_grid():
    p = ProtocolParams(V20, BSQC1)
    ch = ChannelParams.from_distance(120.0, 0.01)
    opt = optimal_transmittances(p, [ch])[0]
    coarse = max(
        secret_key_rate(
            ProtocolParams(V20, SchemeFamily("bsqc", 1).at(t)), ch
        ).key_rate
        for t in [0.5 + 0.005 * k for k in range(101)]
    )
    assert opt.key_rate >= coarse - 1e-15
    # refinement adjusts within the best grid cell, never by more than that
    assert opt.key_rate == pytest.approx(coarse, rel=0.05)


def test_single_arm_template_keeps_signal_open():
    p = ProtocolParams(V20, SchemeFamily("ssqc", 1))
    opt = optimal_transmittances(p, [ChannelParams.from_distance(100.0, 0.01)])[0]
    best = secret_key_rate(
        ProtocolParams(V20, SchemeFamily("ssqc", 1).at(opt.t)),
        ChannelParams.from_distance(100.0, 0.01),
    )
    assert best.key_rate == pytest.approx(opt.key_rate, rel=1e-12)


def test_symmetric_template_at_unit_transmittance_stays_symmetric():
    # bsqc1 varies both arms; its optimum is not ssqc1's (t = 0.97804)
    ch = ChannelParams.from_distance(100.0, 0.01)
    opt = optimal_transmittances(ProtocolParams(V20, BSQC1), [ch])[0]
    assert opt.t == pytest.approx(0.98468, abs=1e-5)
    assert opt.key_rate == pytest.approx(0.0012551, rel=1e-4)


def test_zero_photon_families_stay_apart():
    # both zero-photon families give one config at t = 1, so no concrete config tells them apart
    ch = ChannelParams.from_distance(100.0, 0.01)
    bsqc0 = optimal_transmittances(ProtocolParams(V20, SchemeFamily("bsqc", 0)), [ch])[0]
    ssqc0 = optimal_transmittances(ProtocolParams(V20, SchemeFamily("ssqc", 0)), [ch])[0]
    assert bsqc0.t == pytest.approx(0.94712, abs=1e-5)
    assert ssqc0.t == pytest.approx(0.89707, abs=1e-5)


def test_optimisers_refuse_a_concrete_scheme():
    ch = ChannelParams.from_distance(100.0, 0.01)
    p = ProtocolParams(V20, SchemeFamily("bsqc", 1).at(0.9))
    for search in (lambda: optimal_transmittances(p, [ch])[0],
                   lambda: max_tolerable_excess_noise(p, 100.0), lambda: max_distance(p)):
        with pytest.raises(TypeError, match="SchemeFamily"):
            search()


def test_key_rate_refuses_a_family():
    with pytest.raises(TypeError, match="unsupported scheme"):
        secret_key_rate(ProtocolParams(V20, BSQC1), ChannelParams.from_distance(100.0, 0.01))


@pytest.mark.parametrize("t", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("n", range(6))
def test_scheme_family_puts_the_transmittance_on_its_arms(n, t):
    # bsqc catalyses both arms at t; ssqc the idler only, leaving the signal arm at 1
    assert SchemeFamily("bsqc", n).at(t) == CatalysisConfig(m=n, n=n, t1=t, t2=t)
    assert SchemeFamily("ssqc", n).at(t) == CatalysisConfig(m=0, n=n, t1=1.0, t2=t)
    assert SchemeFamily("subtraction").at(t) == SubtractionConfig(t)


def test_scheme_family_instantiates_the_presets():
    assert [SchemeFamily(k, 2).photon_columns for k in ("bsqc", "ssqc")] == [(2, 2), (0, 2)]
    assert SchemeFamily("subtraction").photon_columns == (None, None)
    assert SchemeFamily("ssqc", 1).heralds(1.0) and not SchemeFamily("subtraction").heralds(1.0)
    with pytest.raises(ValueError, match="outside \\(0, 1\\)"):
        SchemeFamily("subtraction").at(1.0)
    with pytest.raises(ValueError, match="unknown scheme family"):
        SchemeFamily("bsqd", 1)
    with pytest.raises(ValueError, match="photon number"):
        SchemeFamily("subtraction", 1)


@pytest.mark.parametrize("photons", [-1, 6, 9, 1.0])
@pytest.mark.parametrize("kind", ["bsqc", "ssqc"])
def test_scheme_family_refuses_a_photon_number_outside_the_range(kind, photons):
    # refused when the family is named, not when it is first instantiated at a t
    message = f"photon number {photons!r} outside 0..5"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SchemeFamily(kind, photons)


def test_subtraction_transparent_limit_is_rateless():
    p = ProtocolParams(V20, SchemeFamily("subtraction"))
    ch = ChannelParams.from_distance(150.0, 0.01)
    opt = optimal_transmittances(p, [ch])[0]
    assert 0.5 <= opt.t < 1.0
    assert opt.key_rate > 0.0


def test_all_zero_flag_past_the_cutoff():
    p = ProtocolParams(V20, SchemeFamily("bsqc", 2))
    opt = optimal_transmittances(p, [ChannelParams.from_distance(400.0, 0.05)])[0]
    assert opt.all_zero
    assert opt.key_rate == 0.0


def test_largest_true_finds_the_edge():
    edge, = _largest_true(lambda lanes, xs: [x <= 7.3 for x in xs], 1, 20.0, 1e-6)
    assert edge == pytest.approx(7.3, abs=1e-5)


def test_largest_true_bisects_in_lockstep():
    # lanes 0 and 3 fail at 0, lane 2 holds at 20; lanes 1, 4 and 5 bisect [0, 20]
    # in ceil(log2(20 / 1e-3)) = 15 steps each
    edges, hi, resolution = [-1.0, 7.3, 25.0, -0.5, 2.2, 0.0], 20.0, 1e-3
    asked = []

    def pred(lanes, xs):
        asked.append(lanes)
        return [x <= edges[i] for i, x in zip(lanes, xs)]

    got = _largest_true(pred, len(edges), hi, resolution)
    assert got[0] == got[3] == 0.0 and got[2] == hi
    assert [got[i] for i in (1, 4, 5)] == [pytest.approx(edges[i], abs=resolution)
                                           for i in (1, 4, 5)]
    # every lane at 0, the lanes that hold there at hi, then one call per step
    # over the lanes still bisecting
    assert asked == [[0, 1, 2, 3, 4, 5], [1, 2, 4, 5], *[[1, 4, 5]] * 15]
    # with no lanes pred is never called
    assert _largest_true(pred, 0, hi, resolution) == [] and len(asked) == 17


def test_max_noise_matches_direct_bisection():
    # oracle: bisect the fixed-transmittance rate directly at the same tol
    p = ProtocolParams(V20, BSQC1)
    d = 100.0
    got = max_tolerable_excess_noise(p, d)

    def rate(eps):
        return _best_rate(p, ChannelParams.from_distance(d, eps))

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


def test_max_noise_reads_the_attenuation():
    # 0.4 dB/km x 50 km and the default 0.2 dB/km x 100 km both round to 20.0 dB
    p = ProtocolParams(V20, BSQC1)
    assert (max_tolerable_excess_noise(p, [50.0], atten_db_per_km=0.4)
            == max_tolerable_excess_noise(p, [100.0]))

def test_max_noise_decreases_with_distance():
    p = ProtocolParams(V20)
    eps = [max_tolerable_excess_noise(p, d) for d in (20.0, 50.0, 80.0)]
    assert eps[0] > eps[1] > eps[2] > 0.0


def _scalar_noise_limit(p, d_km, eps_max=0.2, tol=1e-5):
    """The search one distance at a time: bisect _best_rate(...) > 0."""
    tc = channel_transmittance(d_km)

    def positive(eps):
        return _best_rate(p, ChannelParams(tc=tc, epsilon=eps)) > 0.0

    if not positive(0.0):
        return 0.0
    if positive(eps_max):
        return eps_max
    a, b = 0.0, eps_max
    while b - a > tol:
        mid = 0.5 * (a + b)
        if positive(mid):
            a = mid
        else:
            b = mid
    return a


NOISE_DISTANCES = [0.0, 50.0, 150.0, 300.0, 450.0]


@pytest.mark.parametrize("variance", [20.0, 1e3])
@pytest.mark.parametrize("family", [
    SchemeFamily("subtraction"), None, SchemeFamily("bsqc", 0), BSQC1, SchemeFamily("bsqc", 2),
    SchemeFamily("ssqc", 1),
])
def test_noise_limit_equals_the_optimised_rate_bisection(family, variance):
    # positivity of the grid pass alone decides each probe, with the same result
    p = ProtocolParams(SourceParams.from_variance(variance), family)
    expected = [_scalar_noise_limit(p, d) for d in NOISE_DISTANCES]
    assert max_tolerable_excess_noise(p, NOISE_DISTANCES) == expected


@pytest.mark.parametrize("family", [None, BSQC1, SchemeFamily("subtraction")])
def test_noise_limits_over_distances_match_single_calls(monkeypatch, family):
    # 70 distances, so the sweep crosses two block boundaries
    p = ProtocolParams(V20, family)
    distances = [300.0, 0.0, 120.0, 120.0, 35.5, 1000.0] + [5.0 * k for k in range(64)]
    passes, real_best = [], optimize.grid_best

    def counted_best(t, p_success, x, y, z, chs, beta):
        passes.append(len(chs))
        return real_best(t, p_success, x, y, z, chs, beta)

    monkeypatch.setattr(optimize, "grid_best", counted_best)
    limits = max_tolerable_excess_noise(p, distances)
    assert isinstance(limits, list)
    assert limits == [max_tolerable_excess_noise(p, d) for d in distances]
    assert max_tolerable_excess_noise(p, []) == []
    # no grid pass holds more than one block of channels
    assert 0 < max(passes) <= optimize._BLOCK


def test_noise_limit_needs_no_golden_section_probes(monkeypatch):
    rates, moments = [], []
    real_moments, real_probe = catalysis.pd_and_covariance, optimize._probe_rate

    def counted_moments(cfg, src):
        moments.append(cfg.t1)
        return real_moments(cfg, src)

    def counted_probe(*args):
        rates.append(args)
        return real_probe(*args)

    monkeypatch.setattr(catalysis, "pd_and_covariance", counted_moments)
    # every golden-section probe takes its rate from _probe_rate; the bare
    # source's rate would come from secret_key_rate
    monkeypatch.setattr(optimize, "_probe_rate", counted_probe)
    monkeypatch.setattr(optimize, "secret_key_rate", lambda *args: rates.append(args))
    _grid_states.cache_clear()
    for family in (BSQC1, None, SchemeFamily("subtraction")):
        max_tolerable_excess_noise(ProtocolParams(V20, family), [50.0, 150.0, 300.0])
    assert rates == []
    assert sorted(moments) == sorted(_GRID)
    # the patch sees the probes of an optimisation: at most 13, as _REFINE_TOL allows
    optimal_transmittances(ProtocolParams(V20, BSQC1), [ChannelParams.from_distance(150.0, 0.01)])
    assert 0 < len(rates) <= 13


def test_noise_limit_refusals():
    p = ProtocolParams(SourceParams.from_variance(1e6), SchemeFamily("bsqc", 0))
    with pytest.raises(ConsistencyError) as one:
        max_tolerable_excess_noise(p, 1e-9)
    # t = 0.58 (x = 2.01) was refused too until a refused spectrum retried the
    # factored discriminant; at t = 1, x = 1e6 leaves no digits for an eigenvalue near 1
    assert str(one.value) == ("unphysical state: symplectic eigenvalue 0.9999769738901874 < 1"
                              f" at t=1.0 on {ChannelParams.from_distance(1e-9)}")
    # a sequence names the same channel, however many of its lanes are still searching
    for distances in ([300.0, 1e-9], [1e-9], [1e-9, 0.0]):
        with pytest.raises(ConsistencyError) as lanes:
            max_tolerable_excess_noise(p, distances)
        assert str(lanes.value) == str(one.value)
    # a golden-section probe at t = 0.99975 used to refuse this; the grid point t = 1 has a key
    assert max_tolerable_excess_noise(p, 0.0) == 0.2
    assert secret_key_rate(replace(p, scheme=p.scheme.at(1.0)),
                           ChannelParams(1.0, 0.2)).key_rate > 0.09
    with pytest.raises(ValueError, match="distance must be non-negative"):
        max_tolerable_excess_noise(ProtocolParams(V20, BSQC1), [10.0, -1.0])
    # every distance is refused before the first grid pass, which would refuse 1e-9 km
    with pytest.raises(ValueError, match=re.escape("channel transmittance 0.0 outside (0, 1]")):
        max_tolerable_excess_noise(p, [1e-9, 20000.0])


def test_noise_limit_refusal_is_raised_for_the_first_refused_block():
    # 1e-10 and 1e-9 km are each refused, naming their own channel; a sweep
    # blocks its distances in sweep order, so the earlier block's refusal is raised
    p = ProtocolParams(SourceParams.from_variance(1e6), SchemeFamily("bsqc", 0))
    messages = {}
    for d in (1e-10, 1e-9):
        with pytest.raises(ConsistencyError) as one:
            max_tolerable_excess_noise(p, d)
        messages[d] = str(one.value)
    assert messages[1e-10] != messages[1e-9]
    block = optimize._BLOCK
    for first, second in ((1e-10, 1e-9), (1e-9, 1e-10)):
        # the first block has a key everywhere; the refusals sit in the second and third
        distances = [300.0] * (block + 8) + [first] + [300.0] * (block - 2) + [second]
        assert distances.index(first) // block == 1
        assert distances.index(second) // block == 2
        with pytest.raises(ConsistencyError) as sweep:
            max_tolerable_excess_noise(p, distances)
        assert str(sweep.value) == messages[first]


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


@pytest.mark.parametrize("family", [None, SchemeFamily("subtraction"), BSQC1,
                                    SchemeFamily("ssqc", 1)])
def test_max_distance_equals_the_optimised_rate_bisection(family):
    # a probe that a grid rate decides skips the refinement, with the same result
    p = ProtocolParams(V20, family)

    def reaches(lanes, distances):
        return [_best_rate(p, ChannelParams.from_distance(distances[0], 0.01)) >= 1e-6]

    assert max_distance(p) == _largest_true(reaches, 1, 1500.0, 0.1)[0]


def test_max_distance_boundaries():
    # a floor above the zero-distance rate is unreachable anywhere
    assert max_distance(ProtocolParams(V20), epsilon=0.01, floor=10.0) == 0.0
    # a lane that holds at the upper end returns it; one that fails at 0 returns 0
    assert _largest_true(lambda lanes, xs: [i == 0 for i in lanes], 2, 50.0, 0.1) == [50.0, 0.0]
    for floor in (0.0, -1e-6, math.nan, math.inf):
        with pytest.raises(ValueError, match="floor"):
            max_distance(ProtocolParams(V20), floor=floor)


_SEARCH_FAMILIES = [None, SchemeFamily("subtraction"),
                    *(SchemeFamily(kind, m) for kind in ("bsqc", "ssqc") for m in range(3))]


def _noise_profiles(p, d_km, eps):
    """The noise predicate: per distance, whether the best grid rate is positive at each eps."""
    t, state = _grid_states(p.scheme, p.source)
    tcs = [channel_transmittance(d) for d in d_km]
    channels = [ChannelParams(tc=tc, epsilon=e) for tc in tcs for e in eps]
    best = grid_best(t, *state, channels, p.beta)
    return [[rate > 0.0 for _, rate in best[k:k + len(eps)]] for k in range(0, len(best), len(eps))]


def _falls_once(profile):
    return profile == sorted(profile, reverse=True)


@pytest.mark.parametrize("variance", [1.5, 20.0, 1e3])
@pytest.mark.parametrize("family", _SEARCH_FAMILIES)
def test_search_predicates_are_monotone(family, variance):
    # the limit searches bisect without probing past the edge, so each
    # predicate must turn false once along its axis and stay false
    p = ProtocolParams(SourceParams.from_variance(variance), family)
    eps = np.linspace(0.0, 0.2, 81).tolist()
    for d, profile in zip(range(0, 700, 100), _noise_profiles(p, range(0, 700, 100), eps)):
        assert _falls_once(profile), d
    channels = [ChannelParams.from_distance(d, 0.01) for d in range(0, 605, 5)]
    if family is None:
        rates = [secret_key_rate(p, ch).key_rate for ch in channels]
    else:
        rates = [opt.key_rate for opt in optimize.optimal_transmittances(p, channels)]
    assert _falls_once([rate >= 1e-6 for rate in rates])


@pytest.mark.xfail(reason="round-off rates revive past the noise edge (ROADMAP items 3 and 14)")
def test_noise_predicate_at_round_off_rates_is_monotone():
    # bsqc1 at V = 1.5 and 700 km: rates of about 1e-15 are zero at eps = 0.0395
    # and positive again from 0.055; a spectrum without cancellation must mend it
    p = ProtocolParams(SourceParams.from_variance(1.5), BSQC1)
    profile, = _noise_profiles(p, [700.0], np.linspace(0.0, 0.2, 401).tolist())
    assert _falls_once(profile)


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

    def grid_pass():
        t = [u for u in grid if scheme.heralds(u)]
        states = [source_state(scheme.at(u), p.source) for u in t]
        columns = [[pd, cov.x, cov.y, cov.z] for pd, cov in states]
        best, = grid_best(np.array(t), *np.array(columns).T, [ch], p.beta)
        return best

    results = []
    for t in grid:
        try:
            results.append(_scalar_result(p, ch, t))
        except (ValueError, ConsistencyError) as exc:
            with pytest.raises(type(exc)) as raised:
                grid_pass()
            message = str(raised.value)
            if " at t=" in message:  # from the grid pass, which names the first failing t
                assert message == f"{exc} at t={t} on {ch}"
            return
    rates = [0.0 if res is None else res.key_rate for res in results]
    best = max(range(len(grid)), key=rates.__getitem__)
    # the grid pass promises the first best cell, with the bits of secret_key_rate
    k, rate = grid_pass()
    assert type(k) is int and (k, rate.hex()) == (best, rates[best].hex())


def test_grid_pass_names_the_first_unphysical_state():
    t = np.array([0.6, 0.7, 0.8])
    x, y, z = np.array([3.0, 0.5, 0.5]), np.full(3, 3.0), np.array([2.0, 0.0, 0.0])
    with pytest.raises(ConsistencyError) as scalar:
        TwoModeCovariance(x=0.5, y=3.0, z=0.0)
    ch = ChannelParams.from_distance(10.0, 0.01)
    with pytest.raises(ConsistencyError) as grid:
        grid_best(t, np.ones(3), x, y, z, [ch], 0.95)
    assert str(grid.value) == f"{scalar.value} at t=0.7 on {ch}"


def test_grid_pass_takes_the_scalar_rate_of_a_cell_it_defers(monkeypatch):
    # near a pure state the vector spectrum falls below 1: the scalar formula
    # decides those cells, and the rate it gives is taken as exact
    deferred = []

    def sentinel(p_success, cov, ch, beta):
        deferred.append((cov.x, cov.y, cov.z))
        return 0.0, 0.0, (1.0, 1.0, 1.0), 1e3

    monkeypatch.setattr(keyrate, "_rate_terms", sentinel)
    t, state = _grid_states(SchemeFamily("bsqc", 0), SourceParams.from_variance(1e6))
    ch = ChannelParams.from_distance(1e-9)
    (k, rate), = grid_best(t, *state, [ch], 0.95)
    assert deferred and rate == 1e3
    assert tuple(column[k] for column in state[1:]) == deferred[0]


def test_grid_pass_over_channels_is_one_pass_per_channel():
    t, state = _grid_states(BSQC1, V20)
    channels = [ChannelParams.from_distance(d, eps) for d in (0.0, 100.0, 300.0)
                for eps in (0.0, 0.02, 0.05)]  # no key at 300 km with noise 0.05
    best = grid_best(t, *state, channels, 0.95)
    assert len(best) == len(channels) and {rate > 0.0 for _, rate in best} == {False, True}
    for cell, ch in zip(best, channels):
        assert cell == grid_best(t, *state, [ch], 0.95)[0]


def test_grid_pass_keeps_the_first_of_equal_rates():
    # a cell without key, then one state twice: every channel gets its first copy
    t, state = _grid_states(BSQC1, V20)
    channels = [ChannelParams.from_distance(d, 0.01) for d in (0.0, 100.0, 200.0)]
    cells = [0, 90, 90]
    worse, best = (grid_best(None, *state[:, [k]], channels, 0.95) for k in cells[:2])
    assert all(w == 0.0 < b for (_, w), (_, b) in zip(worse, best))
    assert (grid_best([t[k] for k in cells], *state[:, cells], channels, 0.95)
            == [(1, rate) for _, rate in best])


_GRID_FAMILIES = [*(SchemeFamily(kind, n) for kind in ("bsqc", "ssqc") for n in range(6)),
                  SchemeFamily("subtraction")]


@pytest.mark.parametrize("case", range(len(_GRID_FAMILIES) + 1))
def test_grid_pass_matches_the_scalar_rate_cell_by_cell(case):
    # 215 random cells per scheme, 3,010 over the bare source (case 0) and the 13 families,
    # with the excess noise geometric in [1e-4, 0.1], so that about a quarter have key;
    # every tenth cell is near pure, 1e-9 km without excess noise.  A one-cell grid gives
    # the rate of secret_key_rate in every bit, or its refusal followed by the channel
    family = None if case == 0 else _GRID_FAMILIES[case - 1]
    rng = np.random.default_rng(case)
    for k in range(215):
        variance, t = 10.0 ** rng.uniform(0.0, 4.0), rng.uniform(0.5, 1.0)
        d_km, eps = (1e-9, 0.0) if k % 10 == 0 else (rng.uniform(0.0, 400.0),
                                                     10.0 ** rng.uniform(-4.0, -1.0))
        p = ProtocolParams(SourceParams.from_variance(variance),
                           None if family is None else family.at(t))
        try:
            p_success, cov = source_state(p.scheme, p.source)
        except (ValueError, ConsistencyError):  # no state to compare
            continue
        ch = ChannelParams.from_distance(d_km, eps)
        state = [np.array([value]) for value in (p_success, cov.x, cov.y, cov.z)]
        try:
            rate = secret_key_rate(p, ch).key_rate
        except ConsistencyError as exc:
            with pytest.raises(ConsistencyError) as raised:
                grid_best(None, *state, [ch], p.beta)
            assert str(raised.value) == f"{exc} on {ch}"
            continue
        (best, grid_rate), = grid_best(None, *state, [ch], p.beta)
        assert (best, grid_rate.hex()) == (0, rate.hex())


@pytest.mark.parametrize("variance", [1.5, 20.0, 1e3, 1e6])
@pytest.mark.parametrize("family", _GRID_FAMILIES)
def test_grid_states_are_the_source_states(family, variance):
    # the grid takes each state from source_state: the same Python floats, field by field
    source = SourceParams.from_variance(variance)
    t, columns = _grid_states(family, source)
    assert t == tuple(u for u in _GRID if family.heralds(u))
    for k, u in enumerate(t):
        pd, cov = source_state(family.at(u), source)
        assert {type(v) for v in (pd, cov.x, cov.y, cov.z)} == {float}
        assert [column[k] for column in columns] == [pd, cov.x, cov.y, cov.z]


@pytest.mark.parametrize("variance", [1.5, 20.0, 1e6])
def test_bare_source_is_a_one_point_grid(variance):
    source = SourceParams.from_variance(variance)
    t, states = _grid_states(None, source)
    pd, cov = source_state(None, source)
    assert t is None
    assert states.tolist() == [[pd], [cov.x], [cov.y], [cov.z]]
    assert _grid_states(None, source)[1] is states  # served from the cache
    with pytest.raises(ValueError):
        states[0, 0] = 0.0


def test_grid_and_source_state_refuse_a_vacuum_alike():
    vacuum, family = SourceParams.from_variance(1.0), SchemeFamily("subtraction")
    with pytest.raises(ValueError, match="vacuum") as grid:
        _grid_states(family, vacuum)
    with pytest.raises(ValueError, match="vacuum") as scalar:
        source_state(family.at(0.5), vacuum)
    assert str(grid.value) == str(scalar.value)


def test_empty_sweeps_refuse_a_source_the_family_cannot_herald_from():
    p = ProtocolParams(SourceParams.from_variance(1.0), SchemeFamily("subtraction"))
    with pytest.raises(ValueError, match="vacuum") as optima:
        optimize.optimal_transmittances(p, [])
    with pytest.raises(ValueError, match="vacuum") as limits:
        max_tolerable_excess_noise(p, [])
    assert str(optima.value) == str(limits.value)


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
    expected = _scalar_optimum(p, ch)
    assert expected.all_zero == all_zero
    assert optimal_transmittances(p, [ch])[0] == expected


def test_the_one_channel_search_is_the_sweep_on_one_channel():
    # nothing in src/ calls optimize_transmittance; it stays while bench/tracing.py spans it
    for family in (BSQC1, SchemeFamily("ssqc", 2), SchemeFamily("subtraction")):
        p = ProtocolParams(V20, family)
        for d_km in (0.0, 150.0, 400.0):
            ch = ChannelParams.from_distance(d_km, 0.01)
            assert optimize_transmittance(p, ch) == optimal_transmittances(p, [ch])[0]


def _scalar_optimum(p, ch):
    """The optimiser's recipe one scalar rate at a time: a 101-point grid, then golden section."""
    grid = [0.5 + k * 0.5 / 100 for k in range(101)]
    rates = [_scalar_rate(p, ch, t) for t in grid]
    best = max(range(len(grid)), key=rates.__getitem__)
    if rates[best] <= 0.0:
        return TransmittanceOptimum(t=grid[best], key_rate=0.0, all_zero=True)
    t, rate = golden_section_max(lambda u: _scalar_rate(p, ch, u),
                                 grid[max(0, best - 1)], grid[min(100, best + 1)], 1e-4)
    if rate < rates[best]:
        t, rate = grid[best], rates[best]
    return TransmittanceOptimum(t=t, key_rate=rate, all_zero=False)


@pytest.mark.parametrize("variance,family,count", [
    (1e3, SchemeFamily("subtraction"), 1),  # 0 km: refined up to t = 1
    (20.0, SchemeFamily("subtraction"), 32),
    (20.0, BSQC1, 33),
    (20.0, SchemeFamily("ssqc", 2), 33),
    (1e3, SchemeFamily("subtraction"), 151),
])
def test_optimal_transmittances_equal_the_scalar_search_per_channel(monkeypatch, variance,
                                                                     family, count):
    # 0 to 600 km, every other channel noisy: the far noisy ones give no key at any t
    p = ProtocolParams(SourceParams.from_variance(variance), family)
    channels = [ChannelParams.from_distance(600.0 * k / count, 0.05 * (k % 2))
                for k in range(count)]
    passes, real_best = [], optimize.grid_best

    def counted_best(t, p_success, x, y, z, chs, beta):
        passes.append(len(chs))
        return real_best(t, p_success, x, y, z, chs, beta)

    monkeypatch.setattr(optimize, "grid_best", counted_best)
    optima = optimize.optimal_transmittances(p, channels)
    assert optima == [_scalar_optimum(p, ch) for ch in channels]
    # one grid pass per block of channels, and never more than one block of cells at once
    assert passes == [min(optimize._BLOCK, count - k) for k in range(0, count, optimize._BLOCK)]
    flags = {opt.all_zero for opt in optima}
    assert flags == ({False} if count == 1 else {False, True})
    if variance == 1e3:
        assert optima[0].t > _GRID[-2]  # the bracket's top is the unit transmittance


def test_optimal_transmittances_refuse_alike():
    assert optimize.optimal_transmittances(ProtocolParams(V20, BSQC1), []) == []
    with pytest.raises(ValueError, match="no transmittance"):
        optimize.optimal_transmittances(ProtocolParams(V20), [])
    with pytest.raises(TypeError, match="SchemeFamily"):
        optimize.optimal_transmittances(ProtocolParams(V20, SchemeFamily("bsqc", 1).at(0.9)), [])
    # a refused channel is named, as in the grid pass over a sequence of channels
    p = ProtocolParams(SourceParams.from_variance(1e6), SchemeFamily("bsqc", 0))
    channels = [ChannelParams.from_distance(d) for d in (300.0, 1e-9)]
    t, state = _grid_states(p.scheme, p.source)
    with pytest.raises(ConsistencyError) as grid:
        grid_best(t, *state, channels, p.beta)
    with pytest.raises(ConsistencyError) as sweep:
        optimize.optimal_transmittances(p, channels)
    assert str(sweep.value) == str(grid.value)
    assert str(sweep.value).endswith(f" on {channels[1]}")


# the golden-section probes lie in [0.5, 1) for subtraction, where it heralds
_PROBES = _SCHEMES.flatmap(lambda scheme: st.tuples(
    st.just(scheme), st.floats(0.5, 1.0, exclude_max=scheme.kind == "subtraction")))


@settings(max_examples=60, deadline=None)
@given(probe=_PROBES, variance=st.floats(1.0, 1e6), d_km=st.floats(0.0, 1e3),
       eps=st.floats(0.0, 0.1))
@example(probe=(SchemeFamily("subtraction"), 0.99995), variance=1e3, d_km=0.0, eps=0.01)
@example(probe=(SchemeFamily("bsqc", 0), 1.0), variance=1e6, d_km=1e-9, eps=0.0)  # refused
def test_probe_rate_is_the_key_rate(probe, variance, d_km, eps):
    scheme, t = probe
    p = ProtocolParams(SourceParams.from_variance(variance), scheme)
    ch = ChannelParams.from_distance(d_km, eps)
    try:
        expected = _scalar_rate(p, ch, t)
    except (ValueError, ConsistencyError) as exc:
        with pytest.raises(type(exc)) as raised:
            optimize._probe_rate(scheme, p.source, ch, p.beta, t)
        assert str(raised.value) == str(exc)
        return
    rate = optimize._probe_rate(scheme, p.source, ch, p.beta, t)
    assert type(rate) is float and rate.hex() == expected.hex()


@pytest.mark.parametrize("variance", [20.0, 1e3])
def test_subtraction_probes_stay_where_it_heralds(monkeypatch, variance):
    # the refinement brackets a grid cell of [0.5, 0.995] with its neighbours,
    # so its probes lie strictly inside [0.5, 1] and never at t = 1
    probes, real_probe = [], optimize._probe_rate

    def spy(family, source, ch, beta, t):
        probes.append(t)
        return real_probe(family, source, ch, beta, t)

    monkeypatch.setattr(optimize, "_probe_rate", spy)
    p = ProtocolParams(SourceParams.from_variance(variance), SchemeFamily("subtraction"))
    optimal_transmittances(p, [ChannelParams.from_distance(d, 0.01) for d in range(0, 300, 5)])
    max_distance(p)
    assert probes and all(0.5 <= t < 1.0 for t in probes)
    if variance == 1e3:  # the best cell at short distances is the last heralding point
        assert max(probes) > _GRID[-2]


def test_grid_states_are_built_once_per_template_and_source(monkeypatch):
    moments, passes, refined = [], [], []
    real_moments = catalysis.pd_and_covariance
    real_best, real_refine = optimize.grid_best, optimize.refine_grid_max

    def counted_moments(cfg, src):
        moments.append(cfg.t1)
        return real_moments(cfg, src)

    def counted_best(*args):
        passes.append(args)
        return real_best(*args)

    def counted_refine(*args):
        refined.append(args)
        return real_refine(*args)

    monkeypatch.setattr(catalysis, "pd_and_covariance", counted_moments)
    monkeypatch.setattr(optimize, "grid_best", counted_best)
    monkeypatch.setattr(optimize, "refine_grid_max", counted_refine)
    _grid_states.cache_clear()
    max_distance(ProtocolParams(V20, BSQC1))
    grid = [0.5 + k * 0.5 / 100 for k in range(101)]
    counts = Counter(moments)
    assert all(counts[t] == 1 for t in grid)
    # a probe with a grid rate at the floor is decided without refinement
    assert len(passes) > 10
    assert 0 < len(refined) < len(passes)
    # every other call is a golden-section probe: at most 13 per refinement
    assert len(moments) <= len(grid) + 13 * len(refined)

    calls = len(moments)
    _, states = _grid_states(BSQC1, V20)
    assert len(moments) == calls  # served from the cache
    with pytest.raises(ValueError):
        states[0, 0] = 0.0


_LANES = st.lists(st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 0.2)), min_size=1, max_size=5)


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from([None, *_GRID_FAMILIES]), variance=st.floats(1.0, 1e6),
       lanes=_LANES)
# rates of round-off size, which the bound leaves to the exact logarithms
@example(family=None, variance=1.5, lanes=[(657.5, 0.01)])
@example(family=None, variance=1.5, lanes=[(750.0, 0.2)])
@example(family=None, variance=1.5, lanes=[(655.0, 0.01), (657.5, 0.01), (750.0, 0.2)])
# refused by the grid pass, alone and in a sequence
@example(family=SchemeFamily("bsqc", 0), variance=1e6, lanes=[(1e-9, 0.0)])
@example(family=SchemeFamily("bsqc", 0), variance=1e6, lanes=[(300.0, 0.0), (1e-9, 0.0)])
# the symplectic invariant overflows
@example(family=BSQC1, variance=20.0, lanes=[(100.0, 1e150)])
def test_sign_test_equals_the_exact_grid_rates(family, variance, lanes):
    try:
        t, state = _grid_states(family, SourceParams.from_variance(variance))
    except (ValueError, ConsistencyError):  # no state: a vacuum, or a refused source
        return
    channels = [ChannelParams.from_distance(d, eps) for d, eps in lanes]
    has_key = []
    for ch in channels:  # the scalar formula, channel by channel and cell by cell
        rates = []
        for j, (pd, x, y, z) in enumerate(zip(*(row.tolist() for row in state))):
            try:
                rates.append(keyrate._rate_terms(pd, TwoModeCovariance(x, y, z), ch, 0.95)[-1])
            except ConsistencyError as exc:  # refused alike, naming the first refused cell
                with pytest.raises(ConsistencyError) as raised:
                    grid_best(t, *state, channels, 0.95)
                where = "" if t is None else f" at t={t[j]}"
                assert str(raised.value) == f"{exc}{where} on {ch}"
                return
        has_key.append(any(rate > 0.0 for rate in rates))
    assert [rate > 0.0 for _, rate in grid_best(t, *state, channels, 0.95)] == has_key


def _count_exact_logarithms(monkeypatch):
    """A list that gets the number of arguments of each call of ``keyrate._log2``."""
    logs, real_log2 = [], keyrate._log2

    def counted_log2(values):
        logs.append(values.size)
        return real_log2(values)

    monkeypatch.setattr(keyrate, "_log2", counted_log2)
    return logs


@pytest.mark.parametrize("family", [None, SchemeFamily("subtraction"), BSQC1,
                                    SchemeFamily("ssqc", 2)])
def test_sign_test_without_its_bound_is_the_exact_path(monkeypatch, family):
    # an infinite bound rules out no cell, so every rate takes the exact logarithms
    p = ProtocolParams(V20, family)
    expected = max_tolerable_excess_noise(p, NOISE_DISTANCES)
    cells, real_products = [], keyrate._mutual_products

    def counted_products(*args):
        products = real_products(*args)
        cells.append(products[0].size)  # an array: no cell takes the float form here
        return products

    monkeypatch.setattr(keyrate, "_SIGN_BOUND", math.inf)
    monkeypatch.setattr(keyrate, "_mutual_products", counted_products)
    logs = _count_exact_logarithms(monkeypatch)
    assert max_tolerable_excess_noise(p, NOISE_DISTANCES) == expected
    assert sum(logs) == 7 * sum(cells) > 0


def test_numpy_and_math_log2_agree_far_inside_the_bound():
    # the bound is 2**16 ulp; the two logarithms must stay within 16 ulp (1 is seen)
    tolerance = keyrate._SIGN_BOUND / 2**12
    rng = np.random.default_rng(0)
    near_one = 1.0 + 10.0 ** rng.uniform(-16.0, 0.0, 100_000)
    wide = 10.0 ** rng.uniform(-12.0, 12.0, 100_000)
    for values in (near_one, wide, wide + 1.0):
        exact = np.array([math.log2(v) for v in values.tolist()])
        assert (np.abs(np.log2(values) - exact) <= tolerance * np.abs(exact)).all()


def test_noise_sweep_takes_few_exact_logarithms(monkeypatch):
    # the subtraction sweep of the closed-form workload: 749,700 exact logarithms
    # when every grid rate had the bits of secret_key_rate
    logs = _count_exact_logarithms(monkeypatch)
    p = ProtocolParams(V20, SchemeFamily("subtraction"))
    max_tolerable_excess_noise(p, [50.0 + 5.0 * k for k in range(51)])
    assert sum(logs) <= 0.05 * 749_700


def test_optimal_transmittance_sweep_takes_few_exact_logarithms(monkeypatch):
    # the subtraction sweep of the closed-form workload, 151 distances: 105,700
    # exact logarithms when every grid rate had the bits of secret_key_rate
    logs = _count_exact_logarithms(monkeypatch)
    p = ProtocolParams(V20, SchemeFamily("subtraction"))
    channels = [ChannelParams.from_distance(2.0 * k, 0.01) for k in range(151)]
    assert not optimize.optimal_transmittances(p, channels)[0].all_zero
    assert sum(logs) <= 7 * 3 * len(channels)  # seven logarithms a cell, three cells a channel


# (t, E_N) of the `catqkd entanglement --t optimal` rows, as float.hex.  Those at alpha 1.5
# and 3 peak at t = 1, the grid's top; those at alpha 0.5 peak inside (0, 1), where the
# fine scan below finds the same peak.  At alpha 0, the vacuum, every t gives E_N 0 or
# round-off, and the search keeps t = 1, where the catalyser does nothing
_LOG_NEGATIVITY_OPTIMA = [
    *((family.kind, family.photons, 0.0, "0x1.0000000000000p+0", "0x0.0p+0")
      for family in keyrate.CATALYSIS_FAMILIES),
    ("bsqc", 1, 0.5, "0x1.8f0f74b8da314p-3", "0x1.8caadcc551ac3p+0"),
    ("bsqc", 1, 1.5, "0x1.0000000000000p+0", "0x1.b943065f02e9fp+1"),
    ("bsqc", 1, 3.0, "0x1.0000000000000p+0", "0x1.4fcda87cf0bdbp+2"),
    ("ssqc", 1, 0.5, "0x1.35f17c3503dc2p-3", "0x1.7f15b1fa48026p+0"),
    ("ssqc", 1, 1.5, "0x1.0000000000000p+0", "0x1.b943065f02e9fp+1"),
    ("ssqc", 1, 3.0, "0x1.0000000000000p+0", "0x1.4fcda87cf0bdbp+2"),
    ("bsqc", 2, 0.5, "0x1.181a4f2cfb233p-4", "0x1.7a86cba2c975ep+0"),
    ("bsqc", 2, 1.5, "0x1.0000000000000p+0", "0x1.b943065f02e9fp+1"),
    ("bsqc", 2, 3.0, "0x1.0000000000000p+0", "0x1.4fcda87cf0be0p+2"),
]


@pytest.mark.parametrize("kind,photons,alpha,t_hex,e_n_hex", _LOG_NEGATIVITY_OPTIMA)
def test_log_negativity_search_keeps_the_entanglement_rows(kind, photons, alpha, t_hex, e_n_hex):
    t, e_n = optimal_log_negativity(SchemeFamily(kind, photons), SourceParams(alpha=alpha))
    assert (t.hex(), e_n.hex()) == (t_hex, e_n_hex)


@pytest.mark.parametrize("kind,photons", [("bsqc", 1), ("ssqc", 1), ("bsqc", 2)])
def test_log_negativity_optima_at_alpha_half_match_a_fine_scan(kind, photons):
    family, source = SchemeFamily(kind, photons), SourceParams(alpha=0.5)
    scan = 10.0 ** np.linspace(-3.0, 0.0, 3001)  # 1000 points a decade
    values = [catalysis.log_negativity(catalysis.schmidt_spectrum(family.at(float(t)), source))
              for t in scan]
    best = int(np.argmax(values))
    t, e_n = optimal_log_negativity(family, source)
    assert 0 < best < len(scan) - 1  # an interior peak
    assert scan[best - 1] <= t <= scan[best + 1]
    assert e_n >= values[best] - 1e-9


def test_log_negativity_search_refuses_subtraction():
    with pytest.raises(ValueError, match="catalysis family"):
        optimal_log_negativity(SchemeFamily("subtraction"), V20)


@pytest.mark.parametrize("alpha", [0.02, 0.03])
@pytest.mark.parametrize("photons", [1, 2])
def test_low_squeezing_ssqc_peaks_under_the_grid_are_found(photons, alpha):
    # the ssqc peaks lie near t = alpha^2, under the grid's 1e-3 here
    family, source = SchemeFamily("ssqc", photons), SourceParams(alpha=alpha)

    def value(t):
        return catalysis.log_negativity(catalysis.schmidt_spectrum(family.at(float(t)), source))

    t, e_n = optimal_log_negativity(family, source)
    step = 10.0 ** (1 / 20)  # one cell of the grid
    assert value(t / step) < e_n and value(t * step) < e_n  # an interior peak, not an edge
    scan = 10.0 ** np.linspace(-6.0, 0.0, 1201)  # 200 points a decade
    assert e_n == pytest.approx(max(map(value, scan)), abs=1e-4)
