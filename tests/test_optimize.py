"""Transmittance optimisation and noise/distance limit searches."""

import math
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
                             optimize_transmittance)

V20 = SourceParams.from_variance(20.0)
BSQC1 = SchemeFamily("bsqc", 1)


def _best_rate(p, ch):
    """The key rate with the transmittance optimised; the bare protocol's rate for ``None``."""
    if p.scheme is None:
        return secret_key_rate(p, ch).key_rate
    return optimize_transmittance(p, ch).key_rate


def test_golden_section_on_parabola():
    x, fx = golden_section_max(lambda t: -(t - 0.7) ** 2, 0.0, 1.0, 1e-6)
    assert x == pytest.approx(0.7, abs=1e-5)
    assert fx == pytest.approx(0.0, abs=1e-9)


def test_bare_protocol_has_nothing_to_optimise():
    with pytest.raises(ValueError, match="no transmittance"):
        optimize_transmittance(ProtocolParams(V20), ChannelParams(0.5))


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
    for search in (lambda: optimize_transmittance(p, ch),
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
    edge, = _largest_true(lambda lanes, xs: [x <= 7.3 for x in xs], [0.0], [20.0], 1e-6)
    assert edge == pytest.approx(7.3, abs=1e-5)


def test_largest_true_bisects_in_lockstep():
    # lane 0 needs ceil(log2(20 / 1e-3)) = 15 steps, lane 1 ceil(log2(5 / 1e-3)) = 13
    edges, lo, hi, resolution = [7.3, 2.2], [0.0, 0.0], [20.0, 5.0], 1e-3
    steps = [math.ceil(math.log2((b - a) / resolution)) for a, b in zip(lo, hi)]
    asked = []

    def pred(lanes, xs):
        asked.append(lanes)
        return [x <= edges[i] for i, x in zip(lanes, xs)]

    got = _largest_true(pred, lo, hi, resolution)
    assert got == [pytest.approx(e, abs=resolution) for e in edges]
    # both ends, then one call per step over every lane whose interval is still open
    open_lanes = [[i for i in (0, 1) if steps[i] >= k] for k in range(1, max(steps) + 1)]
    assert asked == [[0, 1], [0, 1], *open_lanes]
    for i in (0, 1):
        assert sum(i in lanes for lanes in asked) <= 2 + steps[i]


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
    optimize_transmittance(ProtocolParams(V20, BSQC1), ChannelParams.from_distance(150.0, 0.01))
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

    assert max_distance(p) == _largest_true(reaches, [0.0], [1500.0], 0.1)[0]


def test_max_distance_boundaries():
    # a floor above the zero-distance rate is unreachable anywhere
    assert max_distance(ProtocolParams(V20), epsilon=0.01, floor=10.0) == 0.0
    # a lane that holds at its upper end returns it; one that fails at its lower end returns that
    assert _largest_true(lambda lanes, xs: [i == 0 for i in lanes], [0.0, 3.0], [50.0, 60.0],
                         0.1) == [50.0, 3.0]
    for floor in (0.0, -1e-6, math.nan, math.inf):
        with pytest.raises(ValueError, match="floor"):
            max_distance(ProtocolParams(V20), floor=floor)


_FAMILIES = [None, SchemeFamily("subtraction"),
             *(SchemeFamily(kind, m) for kind in ("bsqc", "ssqc") for m in range(3))]


def _noise_profiles(p, d_km, eps):
    """The noise predicate: per distance, whether the best grid rate is positive at each eps."""
    if p.scheme is None:
        pd, cov = source_state(None, p.source)
        t, state = None, [np.array([v]) for v in (pd, cov.x, cov.y, cov.z)]
    else:
        t, *state = _grid_states(p.scheme, p.source)
    tcs = [channel_transmittance(d) for d in d_km]
    channels = [ChannelParams(tc=tc, epsilon=e) for tc in tcs for e in eps]
    best = grid_best(t, *state, channels, p.beta)
    return [[rate > 0.0 for _, rate in best[k:k + len(eps)]] for k in range(0, len(best), len(eps))]


def _falls_once(profile):
    return profile == sorted(profile, reverse=True)


@pytest.mark.parametrize("variance", [1.5, 20.0, 1e3])
@pytest.mark.parametrize("family", _FAMILIES)
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


@pytest.mark.xfail(strict=True,
                   reason="round-off rates revive past the noise edge (ROADMAP item 2)")
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
    t, *state = _grid_states(SchemeFamily("bsqc", 0), SourceParams.from_variance(1e6))
    ch = ChannelParams.from_distance(1e-9)
    (k, rate), = grid_best(t, *state, [ch], 0.95)
    assert deferred and rate == 1e3
    assert tuple(column[k] for column in state[1:]) == deferred[0]


def test_grid_pass_over_channels_is_one_pass_per_channel():
    t, *state = _grid_states(BSQC1, V20)
    channels = [ChannelParams.from_distance(d, eps) for d in (0.0, 100.0, 300.0)
                for eps in (0.0, 0.02, 0.05)]  # no key at 300 km with noise 0.05
    best = grid_best(t, *state, channels, 0.95)
    assert len(best) == len(channels) and {rate > 0.0 for _, rate in best} == {False, True}
    for cell, ch in zip(best, channels):
        assert cell == grid_best(t, *state, [ch], 0.95)[0]


_FAMILIES = [*(SchemeFamily(kind, n) for kind in ("bsqc", "ssqc") for n in range(6)),
             SchemeFamily("subtraction")]


@pytest.mark.parametrize("variance", [1.5, 20.0, 1e3, 1e6])
@pytest.mark.parametrize("family", _FAMILIES)
def test_grid_states_are_the_source_states(family, variance):
    # the grid takes each state from source_state: the same Python floats, field by field
    source = SourceParams.from_variance(variance)
    t, *columns = _grid_states(family, source)
    assert t.tolist() == [u for u in _GRID if family.heralds(u)]
    for k, u in enumerate(t.tolist()):
        pd, cov = source_state(family.at(u), source)
        assert {type(v) for v in (pd, cov.x, cov.y, cov.z)} == {float}
        assert [column[k] for column in columns] == [pd, cov.x, cov.y, cov.z]


def test_grid_and_source_state_refuse_a_vacuum_alike():
    vacuum, family = SourceParams.from_variance(1.0), SchemeFamily("subtraction")
    with pytest.raises(ValueError, match="vacuum") as grid:
        _grid_states(family, vacuum)
    with pytest.raises(ValueError, match="vacuum") as scalar:
        source_state(family.at(0.5), vacuum)
    assert str(grid.value) == str(scalar.value)


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
    assert optimize_transmittance(p, ch) == expected


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
        optimize.optimal_transmittances(ProtocolParams(V20, CatalysisConfig.bsqc(1, 0.9)), [])
    # a refused channel is named, as in the grid pass over a sequence of channels
    p = ProtocolParams(SourceParams.from_variance(1e6), SchemeFamily("bsqc", 0))
    channels = [ChannelParams.from_distance(d) for d in (300.0, 1e-9)]
    t, *state = _grid_states(p.scheme, p.source)
    with pytest.raises(ConsistencyError) as grid:
        grid_best(t, *state, channels, p.beta)
    with pytest.raises(ConsistencyError) as sweep:
        optimize.optimal_transmittances(p, channels)
    assert str(sweep.value) == str(grid.value)
    assert str(sweep.value).endswith(f" on {channels[1]}")


@settings(max_examples=60, deadline=None)
@given(scheme=_SCHEMES, variance=st.floats(1.0, 1e6), t=st.floats(0.5, 1.0),
       d_km=st.floats(0.0, 1e3), eps=st.floats(0.0, 0.1))
@example(scheme=SchemeFamily("subtraction"), variance=20.0, t=1.0, d_km=100.0, eps=0.01)
@example(scheme=SchemeFamily("subtraction"), variance=1e3, t=0.99995, d_km=0.0, eps=0.01)
@example(scheme=SchemeFamily("bsqc", 0), variance=1e6, t=1.0, d_km=1e-9, eps=0.0)  # refused
def test_probe_rate_is_the_key_rate(scheme, variance, t, d_km, eps):
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
    if not scheme.heralds(t):
        assert rate == 0.0


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
    states = _grid_states(BSQC1, V20)
    assert len(moments) == calls  # served from the cache
    with pytest.raises(ValueError):
        states[1, 0] = 0.0


def _states(family, source):
    """The grid ``t, p, x, y, z`` of the noise search; the bare source as one point."""
    if family is None:
        pd, cov = source_state(None, source)
        return None, *np.array([[pd], [cov.x], [cov.y], [cov.z]])
    return _grid_states(family, source)


_LANES = st.lists(st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 0.2)), min_size=1, max_size=5)


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from([None, *_FAMILIES]), variance=st.floats(1.0, 1e6), lanes=_LANES)
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
        t, *state = _states(family, SourceParams.from_variance(variance))
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
    cells, real_spectra = [], keyrate._spectra

    def counted_spectra(*args):
        ratio, nu = real_spectra(*args)
        cells.append(ratio.size)
        return ratio, nu

    monkeypatch.setattr(keyrate, "_SIGN_BOUND", math.inf)
    monkeypatch.setattr(keyrate, "_spectra", counted_spectra)
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
