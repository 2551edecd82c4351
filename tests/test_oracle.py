"""Fock-basis oracle: beam-splitter amplitudes and exact heralding sims."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from catqkd import catalysis, oracle, subtraction

from catqkd import (
    CatalysisConfig,
    ChannelParams,
    ConsistencyError,
    SchemeFamily,
    SourceParams,
    SubtractionConfig,
    log_negativity_tmsv,
    pd_and_covariance,
    propagate_covariance,
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


def _modes(swap, j, k, p, q):
    # the photon numbers of <p,q|B|j,k>, or of <q,p|B|k,j>: the beam splitter with
    # its two modes swapped, which is the mirrored reflection-phase convention
    return (k, j, q, p) if swap else (j, k, p, q)


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("t", [0.3, 0.7, 0.95])
@pytest.mark.parametrize("total", [1, 2, 3, 4, 5, 6])
def test_fixed_photon_sector_is_unitary(t, total, swap):
    dim = total + 1
    u = np.empty((dim, dim))
    for col in range(dim):
        for row in range(dim):
            u[row, col] = bs_fock_amplitude(t, *_modes(swap, col, total - col, row, total - row))
    assert np.allclose(u.T @ u, np.eye(dim), atol=1e-10)


def test_conventions_differ_by_local_phase_only():
    # swapping the modes multiplies each amplitude by (-1)^(out_c - in_c)
    t = 0.6
    for in_b, in_c, out_b in [(2, 1, 1), (3, 0, 2), (1, 1, 0), (2, 2, 3)]:
        out_c = in_b + in_c - out_b
        a = bs_fock_amplitude(t, in_b, in_c, out_b, out_c)
        b = bs_fock_amplitude(t, in_c, in_b, out_c, out_b)
        assert b == pytest.approx((-1.0) ** (out_c - in_c) * a, abs=1e-14)


def test_adaptive_cutoff_controls_tail():
    # the sources of the tests and a grid up to the 2^20-term cap and past it
    lams = [SourceParams(alpha).lam for alpha in (0.5, 1.0, 3.0)]
    lams += [SourceParams.from_variance(v).lam for v in (1e2, 1e4, 3e4, 1e6)]
    lams += [*np.linspace(0.0, 0.99, 100)[1:], *(1.0 - 10.0 ** -np.arange(3.0, 6.5, 0.5))]
    for lam in lams:
        c = adaptive_cutoff(lam)
        assert c >= 60
        tail = math.sqrt(1.0 - lam**2) * lam ** (c + 1) / (1.0 - lam)
        assert tail < 1e-12
        # the probability mass left out, which no simulation checks
        assert lam ** (2 * (c + 1)) <= 1e-24
    assert adaptive_cutoff(SourceParams(3.0).lam) > adaptive_cutoff(SourceParams(1.0).lam)
    assert adaptive_cutoff(1.0 - 1e-6) >= 1 << 20


def test_results_stable_under_a_tighter_cutoff_tail(monkeypatch):
    cases = [(simulate_catalysis, SchemeFamily("bsqc", 1).at(0.9)),
             (simulate_subtraction, SubtractionConfig(0.9))]
    src = SourceParams(1.0)
    base = adaptive_cutoff(src.lam)
    lo = [simulate(cfg, src) for simulate, cfg in cases]
    # a tail of 1e-24 instead of 1e-12 about doubles every cutoff
    monkeypatch.setattr(oracle, "_CUTOFF_TAIL", 1e-24)
    assert 1.9 * base < adaptive_cutoff(src.lam) < 2.1 * base
    hi = [simulate(cfg, src) for simulate, cfg in cases]
    for a, b in zip(lo, hi):
        assert len(b.weights) > 1.9 * len(a.weights)
        assert (b.p_success, b.log_negativity, b.cov.x, b.cov.y, b.cov.z) == pytest.approx(
            (a.p_success, a.log_negativity, a.cov.x, a.cov.y, a.cov.z), abs=1e-9)


@pytest.mark.parametrize("t", [0.3, 0.8, 0.85, 0.9])
def test_mirrored_convention_keeps_the_ladders_and_flips_the_tap(t):
    # The simulations take B.  With its modes swapped a catalyser's ladder <l,k|B|l,k>
    # keeps its value and subtraction's tap <l-1,1|B|l,0> changes sign as a whole,
    # so every heralded observable is the same under either convention.  The swapped
    # call rounds its terms differently, so from k = 2 on a ladder keeps its value
    # to 1e-12, the tolerance of catqkd verify's row, and not to the bit.
    ls = np.arange(adaptive_cutoff(SourceParams(1.0).lam) + 1)
    for k in range(6):
        direct = bs_fock_amplitude(t, ls, k, ls, k)
        swapped = bs_fock_amplitude(t, *_modes(True, ls, k, ls, k))
        assert np.allclose(swapped, direct, rtol=0.0, atol=1e-12)
        if k < 2:
            assert np.array_equal(swapped, direct)
    direct = bs_fock_amplitude(t, ls[1:], 0, ls[1:] - 1, 1)
    assert np.array_equal(bs_fock_amplitude(t, *_modes(True, ls[1:], 0, ls[1:] - 1, 1)), -direct)


def test_transparent_catalysis_returns_the_source():
    src = SourceParams(1.0)
    sim = simulate_catalysis(CatalysisConfig(m=1, n=1, t1=1.0, t2=1.0), src)
    ref = tmsv_covariance(src)
    assert sim.p_success == pytest.approx(1.0, abs=1e-14)
    assert sim.cov.x == pytest.approx(ref.x, abs=1e-12)
    assert sim.cov.z == pytest.approx(ref.z, abs=1e-12)
    assert sim.log_negativity == pytest.approx(log_negativity_tmsv(src), abs=1e-12)



@pytest.mark.parametrize("family, p", [(SchemeFamily("bsqc", 2), 0.2401),  # 0.7**4
                                       (SchemeFamily("ssqc", 3), 0.343)])  # 0.7**3
def test_catalysis_of_a_vacuum_passes_it_through(family, p):
    # a vacuum meets each catalyser's photons alone: the herald returns them with
    # probability t1**m * t2**n and leaves the vacuum, e_0 in the Schmidt basis
    assert adaptive_cutoff(0.0) == 60
    cfg, src = family.at(0.7), SourceParams(0.0)
    sim = simulate_catalysis(cfg, src)
    assert sim.p_success == pytest.approx(p, abs=1e-15)
    assert sim.p_success == pytest.approx(catalysis.success_probability(cfg, src), abs=1e-15)
    assert np.array_equal(sim.weights, np.eye(61)[0])
    assert (sim.cov.x, sim.cov.y, sim.cov.z) == (1.0, 1.0, 0.0)
    assert sim.log_negativity == 0.0


def test_subtraction_of_a_vacuum_is_refused_as_the_closed_forms_refuse_it():
    cfg, src = SubtractionConfig(0.9), SourceParams(0.0)
    with pytest.raises(ValueError) as closed:
        subtraction.closed_forms(cfg.t, src)
    with pytest.raises(ValueError) as simulated:
        simulate_subtraction(cfg, src)
    assert (simulated.type, str(simulated.value)) == (closed.type, str(closed.value))

def test_numeric_symplectic_route_on_known_state():
    # a pure TMSV has both symplectic eigenvalues equal to one
    src = SourceParams(1.0)
    nu = two_mode_symplectic_numeric(tmsv_covariance(src).as_matrix())
    assert nu == pytest.approx((1.0, 1.0), abs=1e-12)
    # a product of thermal states has eigenvalues equal to the variances
    nu = two_mode_symplectic_numeric(np.diag([3.0, 3.0, 1.5, 1.5]))
    assert nu == pytest.approx((3.0, 1.5), abs=1e-12)


def test_numeric_symplectic_route_on_a_stack_equals_single_calls():
    matrices = [propagate_covariance(tmsv_covariance(SourceParams(alpha)),
                                     ChannelParams(tc=tc, epsilon=eps)).as_matrix()
                for alpha in (0.3, 1.0, 2.5) for tc in (1e-3, 0.4, 1.0) for eps in (0.0, 0.05)]
    stack = np.stack(matrices).reshape(3, 6, 4, 4)
    big, small = two_mode_symplectic_numeric(stack)
    assert big.shape == small.shape == (3, 6)
    singles = [two_mode_symplectic_numeric(m) for m in matrices]
    assert all(v.shape == () for pair in singles for v in pair)
    assert (list(zip(big.ravel().tolist(), small.ravel().tolist()))
            == [(float(b), float(s)) for b, s in singles])


LADDER = np.arange(601)
LADDER_T = [0.0, 0.3, 0.5, 0.95, 1.0]


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("t", LADDER_T)
def test_ladder_call_equals_scalar_calls(t, swap):
    # The forms the simulations use: catalysis keeps k ancilla photons,
    # subtraction moves one photon from the l arm to the tap.  A scalar
    # call costs about as much as a whole ladder, so every sixth l of the
    # ladder is checked.
    sample = LADDER[::6]
    for k in range(6):
        got = bs_fock_amplitude(t, *_modes(swap, LADDER, k, LADDER, k))[sample]
        ref = [bs_fock_amplitude(t, *_modes(swap, int(l), k, int(l), k)) for l in sample]
        assert np.array_equal(got, ref)
    got = bs_fock_amplitude(t, *_modes(swap, LADDER[1:], 0, LADDER[1:] - 1, 1))[sample[1:] - 1]
    ref = [bs_fock_amplitude(t, *_modes(swap, int(l), 0, int(l) - 1, 1)) for l in sample[1:]]
    assert np.array_equal(got, ref)


def _exact_amplitude(t, j, k, p, q):
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
        total += -term if (j - a) % 2 else term
        magnitude += term
    scale = math.sqrt(math.factorial(p) * math.factorial(q)
                      / (math.factorial(j) * math.factorial(k)))
    scale *= math.sqrt(t) ** ((k - p) % 2) * math.sqrt(1.0 - t) ** ((j + p) % 2)
    return scale * float(total), scale * float(magnitude), abs(total) == magnitude


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("t", LADDER_T)
def test_amplitudes_match_an_exact_binomial_sum(t, swap):
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
    got = bs_fock_amplitude(t, *_modes(swap, j, k, p, q))
    exact = [_exact_amplitude(t, *map(int, n)) for n in zip(j, k, p, q)]
    ref, magnitude, same_sign = np.array(exact).T
    if swap:
        # <q,p|B|k,j> = (-1)^(q-k) <p,q|B|j,k>, term by term
        ref = np.where((q - k) % 2, -ref, ref)
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
    for one in (bs_fock_amplitude(0.3, 1, 0, 1, 0), bs_fock_amplitude(0.3, np.int64(1), 0, 1, 0)):
        assert isinstance(one, np.ndarray) and one.shape == ()
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
    with pytest.raises(TypeError, match="integers"):
        bs_fock_amplitude(0.3, np.arange(3.0), 0, np.arange(3.0), 0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_one_amplitude_call_per_arm(alpha, monkeypatch):
    calls = []
    inner = oracle.bs_fock_amplitude

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(oracle, "bs_fock_amplitude", counted)
    oracle._ladder.cache_clear()
    # bsqc's two arms are one ladder, computed once and then served by the memo
    simulate_catalysis(SchemeFamily("bsqc", 2).at(0.9), SourceParams(alpha))
    assert len(calls) == 1
    simulate_catalysis(SchemeFamily("bsqc", 2).at(0.9), SourceParams(alpha))
    assert len(calls) == 1
    simulate_subtraction(SubtractionConfig(0.9), SourceParams(alpha))
    assert len(calls) == 2


def test_memoised_ladders_are_read_only_and_keyed_on_t_photons_and_cutoff():
    oracle._ladder.cache_clear()
    ladder = oracle._ladder(0.9, 1, 40)
    assert oracle._ladder(0.9, 1, 40) is ladder
    for key in ((0.8, 1, 40), (0.9, 2, 40), (0.9, 1, 41)):
        oracle._ladder(*key)
    assert oracle._ladder.cache_info().currsize == 4
    ls = np.arange(41)
    assert np.array_equal(ladder, bs_fock_amplitude(0.9, ls, 1, ls, 1))
    with pytest.raises(ValueError, match="read-only"):
        ladder[0] = 0.0


@pytest.mark.parametrize("simulate, cfg", [
    (simulate_catalysis, SchemeFamily("bsqc", 1).at(0.9)),
    (simulate_subtraction, SubtractionConfig(1.0 - 1e-6)),
])
def test_cutoff_cap_raises_before_allocating(simulate, cfg):
    src = SourceParams.from_variance(1e6)
    tracemalloc.start()
    try:
        with pytest.raises(ConsistencyError, match=r"lam=.* at cutoff \d+ needs"):
            simulate(cfg, src)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_cutoff_below_the_cap_is_simulated():
    assert adaptive_cutoff(SourceParams.from_variance(1e6).lam) == 34_885_350
    cfg, src = SchemeFamily("bsqc", 1).at(0.9), SourceParams.from_variance(1e4)
    assert adaptive_cutoff(src.lam) == 325_828
    sim = simulate_catalysis(cfg, src)
    pd, cov = pd_and_covariance(cfg, src)
    assert sim.p_success == pytest.approx(pd, rel=1e-9)
    assert sim.cov.z == pytest.approx(cov.z, rel=1e-9)


@pytest.mark.parametrize("alpha", [1e8, 1e9])
@pytest.mark.parametrize("simulate, cfg", [
    (simulate_catalysis, SchemeFamily("bsqc", 1).at(0.9)),
    (simulate_subtraction, SubtractionConfig(0.9)),
])
def test_a_source_whose_lam_rounds_to_one_is_refused(simulate, cfg, alpha):
    src = SourceParams(alpha)
    assert src.lam == 1.0
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConsistencyError, match=r"lam=1\.0: lam rounds to 1"):
                simulate(cfg, src)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_subtraction_heralds_a_faint_source():
    # at alpha = 1e-5 the heralded state is almost all |1, 0>
    cfg, src = SubtractionConfig(0.5), SourceParams(1e-5)
    sim = simulate_subtraction(cfg, src)
    assert np.all(np.isfinite(sim.weights))
    assert sim.p_success == pytest.approx(subtraction.success_probability(cfg, src), rel=1e-6)
