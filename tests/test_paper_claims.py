"""The abstract's three comparisons, each pinned where it holds and where it fails.

The grid: source variance V in {5, 20, 40} and excess noise epsilon in
{0, 0.01, 0.02}, with beta = 0.95 and 0.2 dB/km; V = 20, epsilon = 0.01 is
the paper's working point.  Key rates are optimised over the transmittance
at 0-300 km in 5 km steps, reaches are the largest distances above
1e-6 bits/pulse, and tolerable excess noise is searched at 50-300 km in
50 km steps.  The entanglement claim is read at alpha = 0.1 to 1.0 in steps
of 0.1.  Every failure found on this grid is asserted as a failure, so a
change that moves a crossing fails here; README's "The abstract's claims"
gives the same numbers.
"""

import functools

import pytest

from catqkd import (ChannelParams, ProtocolParams, SchemeFamily, SourceParams, catalysis,
                    max_distance, max_tolerable_excess_noise, optimal_transmittances)
from catqkd.optimize import optimal_log_negativity

VARIANCES = (5.0, 20.0, 40.0)
EPSILONS = (0.0, 0.01, 0.02)
POINTS = [(v, e) for v in VARIANCES for e in EPSILONS]
DISTANCES = [5.0 * k for k in range(61)]
NOISE_DISTANCES = [50.0 * k for k in range(1, 7)]
FAMILIES = {"bsqc0": SchemeFamily("bsqc", 0), "ssqc0": SchemeFamily("ssqc", 0),
            "bsqc1": SchemeFamily("bsqc", 1), "ssqc1": SchemeFamily("ssqc", 1),
            "subtraction": SchemeFamily("subtraction")}
CATALYSED = ("bsqc0", "ssqc0", "bsqc1", "ssqc1")


def _protocol(variance: float, name: str) -> ProtocolParams:
    return ProtocolParams(SourceParams.from_variance(variance), FAMILIES[name])


@functools.cache
def rates(variance: float, epsilon: float, name: str) -> tuple[float, ...]:
    channels = [ChannelParams.from_distance(d, epsilon) for d in DISTANCES]
    return tuple(o.key_rate for o in optimal_transmittances(_protocol(variance, name), channels))


@functools.cache
def reach(variance: float, epsilon: float, name: str) -> float:
    return max_distance(_protocol(variance, name), epsilon=epsilon)


@functools.cache
def noise(variance: float, name: str) -> tuple[float, ...]:
    return tuple(max_tolerable_excess_noise(_protocol(variance, name), NOISE_DISTANCES))


def _km(lo: float, hi: float, step: float = 5.0) -> list[float]:
    return [lo + step * k for k in range(round((hi - lo) / step) + 1)]


def _not_ahead(first, second, points) -> list[float]:
    """The points where ``first`` does not beat ``second``; a tie at zero is left out."""
    return [x for x, a, b in zip(points, first, second) if not a > b and (a > 0.0 or b > 0.0)]


# --- "for the single-photon QC-CVQKD, BSQC performs better than SSQC" ---------------------

# distances where ssqc1's optimal key rate beats bsqc1's.  Nearer than that window both
# optima are t = 1, the bare source, and the rates tie; beyond it bsqc1 leads until both
# rates are 0.  At V = 5 they tie everywhere.
SSQC1_AHEAD_IN_RATE = {
    (5.0, 0.0): [], (5.0, 0.01): [], (5.0, 0.02): [],
    (20.0, 0.0): _km(60, 85), (20.0, 0.01): _km(55, 75), (20.0, 0.02): _km(55, 65),
    (40.0, 0.0): _km(50, 55), (40.0, 0.01): _km(45, 50), (40.0, 0.02): [45.0],
}


@pytest.mark.parametrize("variance,epsilon", POINTS)
def test_bsqc_beats_ssqc_in_key_rate_beyond_a_window_near_60_km(variance, epsilon):
    pairs = list(zip(DISTANCES, rates(variance, epsilon, "bsqc1"), rates(variance, epsilon,
                                                                          "ssqc1")))
    ahead = SSQC1_AHEAD_IN_RATE[variance, epsilon]
    assert [d for d, b, s in pairs if s > b] == ahead
    tied = [d for d, b, s in pairs if b == s > 0.0]
    if not ahead:
        assert tied == DISTANCES
    else:
        assert tied == _km(0, ahead[0] - 5)
        assert [d for d, b, s in pairs if b > s] == [d for d, b, s in pairs
                                                    if d > ahead[-1] and b > 0.0]


def test_ssqc_beats_bsqc_at_65_km_at_the_working_point():
    k = DISTANCES.index(65.0)
    assert rates(20.0, 0.01, "ssqc1")[k] == pytest.approx(0.0086384, rel=1e-4)
    assert rates(20.0, 0.01, "bsqc1")[k] == pytest.approx(0.0085607, rel=1e-4)


@pytest.mark.parametrize("variance,epsilon", POINTS)
def test_bsqc_beats_ssqc_in_reach(variance, epsilon):
    bsqc1, ssqc1 = reach(variance, epsilon, "bsqc1"), reach(variance, epsilon, "ssqc1")
    if variance == 5.0:
        assert bsqc1 == ssqc1
    else:
        assert bsqc1 > ssqc1
    if (variance, epsilon) == (20.0, 0.01):
        assert (bsqc1, ssqc1) == (pytest.approx(248.7, abs=0.1), pytest.approx(244.4, abs=0.1))


@pytest.mark.parametrize("variance", VARIANCES)
def test_bsqc_beats_ssqc_in_tolerable_noise_above_weak_squeezing(variance):
    bsqc1, ssqc1 = noise(variance, "bsqc1"), noise(variance, "ssqc1")
    if variance == 5.0:  # within 5e-5 of each other; ssqc1 is ahead at 100 km
        assert bsqc1 == pytest.approx(ssqc1, abs=5e-5)
        assert [d for d, b, s in zip(NOISE_DISTANCES, bsqc1, ssqc1) if s > b] == [100.0]
    else:
        assert all(b > s for b, s in zip(bsqc1, ssqc1))
    if variance == 20.0:
        assert (bsqc1[0], ssqc1[0]) == (pytest.approx(0.0913, abs=1e-4),
                                        pytest.approx(0.0836, abs=1e-4))
        assert (bsqc1[-1], ssqc1[-1]) == (pytest.approx(0.02607, abs=1e-5),
                                          pytest.approx(0.01866, abs=1e-5))


# --- "zero- and single-photon QC outperform photon subtraction in key rate, maximal ---------
# --- transmission distance and tolerable excess noise" -------------------------------------

# distances where a catalysed scheme's optimal key rate does not beat subtraction's
BEHIND_SUBTRACTION_IN_RATE = {
    (40.0, 0.0, "ssqc1"): _km(110, 300),
    (40.0, 0.01, "ssqc1"): _km(90, 300),
    (40.0, 0.02, "ssqc1"): _km(75, 260),  # both rates are 0 from 265 km on
    (40.0, 0.02, "bsqc1"): _km(250, 260),
}


@pytest.mark.parametrize("name", CATALYSED)
@pytest.mark.parametrize("variance,epsilon", POINTS)
def test_catalysis_beats_subtraction_in_key_rate_below_strong_squeezing(variance, epsilon, name):
    behind = _not_ahead(rates(variance, epsilon, name), rates(variance, epsilon, "subtraction"),
                        DISTANCES)
    assert behind == BEHIND_SUBTRACTION_IN_RATE.get((variance, epsilon, name), [])


@pytest.mark.parametrize("name", CATALYSED)
@pytest.mark.parametrize("variance,epsilon", POINTS)
def test_catalysis_beats_subtraction_in_reach_but_ssqc1_at_v40(variance, epsilon, name):
    catalysed, subtracted = reach(variance, epsilon, name), reach(variance, epsilon, "subtraction")
    assert (catalysed > subtracted) is not (variance == 40.0 and name == "ssqc1")
    if (variance, epsilon, name) == (40.0, 0.01, "ssqc1"):
        assert (catalysed, subtracted) == (pytest.approx(100.5, abs=0.1),
                                           pytest.approx(207.9, abs=0.1))


# distances where a catalysed scheme tolerates no more excess noise than subtraction
BEHIND_SUBTRACTION_IN_NOISE = {
    (40.0, "ssqc1"): _km(100, 300, 50),
    (40.0, "bsqc1"): [250.0, 300.0],
}


@pytest.mark.parametrize("name", CATALYSED)
@pytest.mark.parametrize("variance", VARIANCES)
def test_catalysis_beats_subtraction_in_tolerable_noise_below_strong_squeezing(variance, name):
    behind = _not_ahead(noise(variance, name), noise(variance, "subtraction"), NOISE_DISTANCES)
    assert behind == BEHIND_SUBTRACTION_IN_NOISE.get((variance, name), [])
    if (variance, name) == (40.0, "ssqc1"):
        assert noise(40.0, "ssqc1")[1] == pytest.approx(0.01019, abs=1e-5)
        assert noise(40.0, "subtraction")[1] == pytest.approx(0.03738, abs=1e-5)


# --- "quantum catalysis can improve the entanglement property of Gaussian entangled ---------
# --- states" --------------------------------------------------------------------------------

ALPHAS = [round(0.1 * k, 1) for k in range(1, 11)]
# the alphas where the optimal heralded log negativity beats the bare source's
IMPROVED = {("bsqc", 0): [], ("ssqc", 0): [],
            ("bsqc", 1): ALPHAS[:6], ("ssqc", 1): ALPHAS[:5],
            ("bsqc", 2): ALPHAS[:5], ("ssqc", 2): ALPHAS[:7]}


@pytest.mark.parametrize("kind,photons", list(IMPROVED))
def test_catalysis_improves_entanglement_at_weak_squeezing_only(kind, photons):
    improved = []
    for alpha in ALPHAS:
        source = SourceParams(alpha)
        t, e_n = optimal_log_negativity(SchemeFamily(kind, photons), source)
        bare = catalysis.log_negativity_tmsv(source)
        if e_n > bare + 1e-9:
            improved.append(alpha)
        else:  # the peak is the identity catalyser
            assert t == 1.0 and e_n == pytest.approx(bare, rel=1e-12)
    assert improved == IMPROVED[kind, photons]
