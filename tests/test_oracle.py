"""Fock-basis oracle: beam-splitter amplitudes and exact heralding sims."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from catqkd import oracle

from catqkd import (
    CatalysisConfig,
    CutoffError,
    SourceParams,
    SubtractionConfig,
    log_negativity_tmsv,
    pd_and_covariance,
    tmsv_covariance,
)
from catqkd.oracle import (
    adaptive_cutoff,
    bs_fock_amplitude,
    simulate_catalysis,
    simulate_subtraction,
    two_mode_symplectic_numeric,
)


@pytest.mark.parametrize("t", [0.3, 0.5, 0.9])
def test_single_photon_amplitudes(t):
    rt, rr = math.sqrt(t), math.sqrt(1.0 - t)
    assert bs_fock_amplitude(t, 1, 0, 1, 0) == pytest.approx(rt, abs=1e-15)
    assert bs_fock_amplitude(t, 0, 1, 0, 1) == pytest.approx(rt, abs=1e-15)
    assert bs_fock_amplitude(t, 1, 0, 0, 1) == pytest.approx(-rr, abs=1e-15)
    assert bs_fock_amplitude(t, 0, 1, 1, 0) == pytest.approx(rr, abs=1e-15)


def test_hong_ou_mandel_dip():
    # coincidence amplitude is 2t-1: zero at the balanced splitter
    assert bs_fock_amplitude(0.5, 1, 1, 1, 1) == 0.0
    assert bs_fock_amplitude(0.7, 1, 1, 1, 1) == pytest.approx(0.4, abs=1e-15)
    bunch = bs_fock_amplitude(0.5, 1, 1, 2, 0)
    assert abs(bunch) == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_photon_number_mismatch_is_zero():
    assert bs_fock_amplitude(0.7, 2, 1, 1, 1) == 0.0
    assert bs_fock_amplitude(0.7, 0, 0, 1, 0) == 0.0


def test_identity_at_unit_transmittance():
    for in_b, in_c in [(0, 0), (1, 0), (2, 3), (4, 1)]:
        for out_b in range(in_b + in_c + 1):
            out_c = in_b + in_c - out_b
            expected = 1.0 if (out_b, out_c) == (in_b, in_c) else 0.0
            assert bs_fock_amplitude(1.0, in_b, in_c, out_b, out_c) == pytest.approx(
                expected, abs=1e-15
            )


@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("t", [0.3, 0.7, 0.95])
@pytest.mark.parametrize("total", [1, 2, 3, 4, 5, 6])
def test_fixed_photon_sector_is_unitary(t, total, sign):
    dim = total + 1
    u = np.empty((dim, dim))
    for col in range(dim):
        for row in range(dim):
            u[row, col] = bs_fock_amplitude(t, col, total - col, row, total - row, sign)
    assert np.allclose(u.T @ u, np.eye(dim), atol=1e-10)


def test_conventions_differ_by_local_phase_only():
    # flipping the reflection sign multiplies each amplitude by (-1)^(out_c - in_c)
    t = 0.6
    for in_b, in_c, out_b in [(2, 1, 1), (3, 0, 2), (1, 1, 0), (2, 2, 3)]:
        out_c = in_b + in_c - out_b
        a = bs_fock_amplitude(t, in_b, in_c, out_b, out_c, sign=-1.0)
        b = bs_fock_amplitude(t, in_b, in_c, out_b, out_c, sign=1.0)
        assert b == pytest.approx((-1.0) ** (out_c - in_c) * a, abs=1e-14)


def test_adaptive_cutoff_controls_tail():
    for alpha in [0.5, 1.0, 3.0]:
        lam = SourceParams(alpha).lam
        c = adaptive_cutoff(lam)
        assert c >= 60
        tail = math.sqrt(1.0 - lam**2) * lam ** (c + 1) / (1.0 - lam)
        assert tail < 1e-12
    assert adaptive_cutoff(SourceParams(3.0).lam) > adaptive_cutoff(SourceParams(1.0).lam)


def test_cutoff_too_small_raises():
    with pytest.raises(CutoffError, match="cutoff too small"):
        simulate_catalysis(CatalysisConfig.bsqc(1, 0.9), SourceParams(3.0), cutoff=20)


def test_results_stable_under_cutoff_doubling():
    cfg, src = CatalysisConfig.bsqc(1, 0.9), SourceParams(1.0)
    base = adaptive_cutoff(src.lam)
    lo = simulate_catalysis(cfg, src, cutoff=base)
    hi = simulate_catalysis(cfg, src, cutoff=2 * base)
    assert lo.p_success == pytest.approx(hi.p_success, abs=1e-9)
    assert lo.log_negativity == pytest.approx(hi.log_negativity, abs=1e-9)
    assert lo.cov.z == pytest.approx(hi.cov.z, abs=1e-9)


@pytest.mark.parametrize(
    "make",
    [
        lambda: (simulate_catalysis, CatalysisConfig.bsqc(1, 0.9)),
        lambda: (simulate_catalysis, CatalysisConfig.ssqc(2, 0.8)),
        lambda: (simulate_subtraction, SubtractionConfig(0.85)),
    ],
)
def test_observables_invariant_under_sign_convention(make):
    sim, cfg = make()
    src = SourceParams(1.0)
    a = sim(cfg, src, sign=-1.0)
    b = sim(cfg, src, sign=1.0)
    assert a.p_success == pytest.approx(b.p_success, abs=1e-12)
    assert a.log_negativity == pytest.approx(b.log_negativity, abs=1e-12)
    assert a.cov.x == pytest.approx(b.cov.x, abs=1e-12)
    assert a.cov.z == pytest.approx(b.cov.z, abs=1e-12)


def test_transparent_catalysis_returns_the_source():
    src = SourceParams(1.0)
    sim = simulate_catalysis(CatalysisConfig(m=1, n=1, t1=1.0, t2=1.0), src)
    ref = tmsv_covariance(src)
    assert sim.p_success == pytest.approx(1.0, abs=1e-14)
    assert sim.cov.x == pytest.approx(ref.x, abs=1e-12)
    assert sim.cov.z == pytest.approx(ref.z, abs=1e-12)
    assert sim.log_negativity == pytest.approx(log_negativity_tmsv(src), abs=1e-12)


def test_numeric_symplectic_route_on_known_state():
    # a pure TMSV has both symplectic eigenvalues equal to one
    src = SourceParams(1.0)
    nu = two_mode_symplectic_numeric(tmsv_covariance(src).as_matrix())
    assert nu == pytest.approx((1.0, 1.0), abs=1e-12)
    # a product of thermal states has eigenvalues equal to the variances
    nu = two_mode_symplectic_numeric(np.diag([3.0, 3.0, 1.5, 1.5]))
    assert nu == pytest.approx((3.0, 1.5), abs=1e-12)


LADDER = np.arange(601)
LADDER_T = [0.0, 0.3, 0.5, 0.95, 1.0]


@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("t", LADDER_T)
def test_ladder_call_equals_scalar_calls(t, sign):
    # The forms the simulations use: catalysis keeps k ancilla photons,
    # subtraction moves one photon from the l arm to the tap.  A scalar
    # call costs about as much as a whole ladder, so every sixth l of the
    # ladder is checked.
    sample = LADDER[::6]
    for k in range(6):
        got = bs_fock_amplitude(t, LADDER, k, LADDER, k, sign)[sample]
        ref = [bs_fock_amplitude(t, int(l), k, int(l), k, sign) for l in sample]
        assert np.array_equal(got, ref)
    got = bs_fock_amplitude(t, LADDER[1:], 0, LADDER[1:] - 1, 1, sign)[sample[1:] - 1]
    ref = [bs_fock_amplitude(t, int(l), 0, int(l) - 1, 1, sign) for l in sample[1:]]
    assert np.array_equal(got, ref)


def _exact_amplitude(t, j, k, p, q, sign):
    # The binomial sum with even powers of t and 1 - t in rationals; the
    # common odd powers and the factorial prefactor are one float each.
    # Also returns the sum of the terms' magnitudes, the scale of the
    # rounding error of any floating-point evaluation of the sum, and
    # whether all the terms share a sign, so that nothing cancels.
    if j + k != p + q:
        return 0.0, 0.0, True
    tf = Fraction(t)
    total = magnitude = Fraction(0)
    for a in range(max(0, p - k), min(j, p) + 1):
        e_t, e_r = 2 * a + k - p, j + p - 2 * a
        term = math.comb(j, a) * math.comb(k, p - a) * tf ** (e_t // 2) * (1 - tf) ** (e_r // 2)
        parity = (j - a) if sign < 0 else (p - a)
        total += -term if parity % 2 else term
        magnitude += term
    scale = math.sqrt(math.factorial(p) * math.factorial(q)
                      / (math.factorial(j) * math.factorial(k)))
    scale *= math.sqrt(t) ** ((k - p) % 2) * math.sqrt(1.0 - t) ** ((j + p) % 2)
    return scale * float(total), scale * float(magnitude), abs(total) == magnitude


@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("t", LADDER_T)
def test_amplitudes_match_an_exact_binomial_sum(t, sign):
    # matched photon numbers up to 30, sampled, plus mismatched neighbours
    rng = np.random.default_rng(30)
    j, k, p = rng.integers(0, 31, size=(3, 400))
    q = j + k - p
    keep = (q >= 0) & (q <= 30)
    j, k, p, q = j[keep], k[keep], p[keep], q[keep]
    # the single-term ladder forms of the simulations: catalysis with no
    # ancilla photon, and subtraction
    ls = np.arange(1, 31)
    zero, one = 0 * ls, 0 * ls + 1
    ladders = [(ls, zero, ls, zero), (ls, zero, ls - 1, one)]
    j, k, p, q = (np.concatenate([n, *extra]) for n, *extra in zip((j, k, p, q), *ladders))
    ladder = np.zeros(2 * q.size, bool)
    ladder[q.size - 2 * ls.size:q.size] = True
    j, k, p = (np.concatenate([n, n]) for n in (j, k, p))
    q = np.concatenate([q, (q + rng.integers(1, 4, size=q.size)) % 31])
    got = bs_fock_amplitude(t, j, k, p, q, sign)
    exact = [_exact_amplitude(t, *map(int, n), sign) for n in zip(j, k, p, q)]
    ref, magnitude, same_sign = np.array(exact).T
    # relative to the terms' magnitudes, which is the amplitude itself
    # unless the alternating sum cancels
    assert np.all(np.abs(got - ref) <= 1e-12 * magnitude)
    # where nothing cancels (one term, or t = 0 or 1), relative to the
    # amplitude itself
    same_sign = same_sign.astype(bool)
    assert np.all(np.abs(got - ref)[same_sign] <= 1e-12 * np.abs(ref)[same_sign])
    assert same_sign[ladder].all()
    if t in (0.0, 1.0):
        assert same_sign.all()
    assert np.all(got[j + k != p + q] == 0.0)


def test_amplitude_broadcasting():
    assert isinstance(bs_fock_amplitude(0.3, 1, 0, 1, 0), float)
    assert isinstance(bs_fock_amplitude(0.3, np.int64(1), 0, 1, 0), float)
    j = np.arange(4)[:, None]
    p = np.arange(4)
    block = bs_fock_amplitude(0.3, j, 3 - j, p, 3 - p)
    assert block.shape == (4, 4)
    assert block[2, 1] == bs_fock_amplitude(0.3, 2, 1, 1, 2)
    cube = bs_fock_amplitude(0.3, np.arange(5), 2, 1, np.arange(3)[:, None, None])
    assert cube.shape == (3, 1, 5)
    assert bs_fock_amplitude(0.3, np.arange(0), 1, np.arange(0), 1).shape == (0,)


def test_amplitude_refuses_bad_inputs():
    with pytest.raises(ValueError, match="non-negative"):
        bs_fock_amplitude(0.3, np.array([1, 2, -1]), 0, np.array([1, 2, -1]), 0)
    with pytest.raises(ValueError, match="non-negative"):
        bs_fock_amplitude(0.3, np.arange(3), 0, np.arange(3) - 1, 1)
    with pytest.raises(ValueError, match="transmittance"):
        bs_fock_amplitude(1.5, np.arange(3), 0, np.arange(3), 0)
    with pytest.raises(ValueError, match="sign"):
        bs_fock_amplitude(0.3, np.arange(3), 0, np.arange(3), 0, sign=0.5)
    with pytest.raises(TypeError, match="integers"):
        bs_fock_amplitude(0.3, np.arange(3.0), 0, np.arange(3.0), 0)


@pytest.mark.parametrize("cutoff", [None, 80, 300])
def test_one_amplitude_call_per_arm(cutoff, monkeypatch):
    calls = []
    inner = oracle.bs_fock_amplitude

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(oracle, "bs_fock_amplitude", counted)
    simulate_catalysis(CatalysisConfig.bsqc(2, 0.9), SourceParams(1.0), cutoff=cutoff)
    assert len(calls) == 2
    simulate_subtraction(SubtractionConfig(0.9), SourceParams(1.0), cutoff=cutoff)
    assert len(calls) == 3


@pytest.mark.parametrize("simulate, cfg", [
    (simulate_catalysis, CatalysisConfig.bsqc(1, 0.9)),
    (simulate_subtraction, SubtractionConfig(1.0 - 1e-6)),
])
def test_cutoff_cap_raises_before_allocating(simulate, cfg):
    src = SourceParams.from_variance(1e6)
    tracemalloc.start()
    try:
        with pytest.raises(CutoffError, match=r"lam=.* at cutoff \d+ needs"):
            simulate(cfg, src)
        with pytest.raises(CutoffError, match=r"lam=.* at cutoff 1048576 needs"):
            simulate(cfg, SourceParams(1.0), cutoff=1 << 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_cutoff_below_the_cap_is_simulated():
    assert adaptive_cutoff(SourceParams.from_variance(1e6).lam) == 34_885_350
    cfg, src = CatalysisConfig.bsqc(1, 0.9), SourceParams.from_variance(1e4)
    assert adaptive_cutoff(src.lam) == 325_828
    sim = simulate_catalysis(cfg, src)
    pd, cov = pd_and_covariance(cfg, src)
    assert sim.p_success == pytest.approx(pd, rel=1e-9)
    assert sim.cov.z == pytest.approx(cov.z, rel=1e-9)


@pytest.mark.parametrize("simulate, cfg", [
    (simulate_catalysis, CatalysisConfig.bsqc(1, 0.9)),
    (simulate_subtraction, SubtractionConfig(0.9)),
])
def test_negative_cutoff_is_refused(simulate, cfg):
    with pytest.raises(ValueError, match="cutoff must be non-negative"):
        simulate(cfg, SourceParams(1.0), cutoff=-1)
