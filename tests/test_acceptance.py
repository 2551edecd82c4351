"""End-to-end acceptance gate: eight criteria, one report line each.

Every criterion binds published anchor values or cross-route agreement
to pinned tolerances and a wall-clock budget.  Failures list each broken
sub-check; the terminal summary prints one PASS/FAIL line per criterion.
"""

import math
import time

import numpy as np

from catqkd import (
    ChannelParams,
    ProtocolParams,
    SchemeFamily,
    SourceParams,
    SubtractionConfig,
    log_negativity,
    max_distance,
    max_tolerable_excess_noise,
    pd_and_covariance,
    plob_bound,
    schmidt_spectrum,
    secret_key_rate,
    success_probability,
    tmsv_covariance,
)
from catqkd import subtraction as sub
from catqkd.keyrate import symplectic_eigenvalues
from catqkd.optimize import golden_section_max
from catqkd.oracle import bs_fock_amplitude, simulate_catalysis, two_mode_symplectic_numeric
from catqkd.series import jet_add, jet_const, jet_div, jet_exp, jet_mul, jet_var, Jet, mixed_partial_at_zero

V20 = SourceParams.from_variance(20.0)


def check(failures: list[str], ok: bool, label: str) -> None:
    if not ok:
        failures.append(label)


def test_criterion_1_success_probability_closed_forms(criterion):
    start = time.perf_counter()
    failures: list[str] = []
    src = SourceParams(3.0)
    t = 0.95

    closed_two_arm = 1.0 / (1.0 - (t**2 - 1.0) * src.alpha**2)
    closed_one_arm = 1.0 / (1.0 - (t - 1.0) * src.alpha**2)
    pd_two = success_probability(SchemeFamily("bsqc", 0).at(t), src)
    pd_one = success_probability(SchemeFamily("ssqc", 0).at(t), src)

    check(failures, abs(closed_two_arm - 0.532623) < 5e-7, f"two-arm anchor {closed_two_arm}")
    check(failures, abs(closed_one_arm - 0.689655) < 5e-7, f"one-arm anchor {closed_one_arm}")
    check(failures, abs(pd_two - closed_two_arm) < 1e-9, f"two-arm off closed form by {abs(pd_two - closed_two_arm)}")
    check(failures, abs(pd_one - closed_one_arm) < 1e-9, f"one-arm off closed form by {abs(pd_one - closed_one_arm)}")
    # the series pipeline should agree with the rational forms essentially exactly
    check(failures, abs(pd_two - closed_two_arm) < 1e-12, "two-arm pipeline drift above 1e-12")
    check(failures, abs(pd_one - closed_one_arm) < 1e-12, "one-arm pipeline drift above 1e-12")

    elapsed = time.perf_counter() - start
    check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s over 1s budget")
    criterion(1, "zero-photon success probabilities", failures, f"{elapsed:.2f}s")


def test_criterion_2_subtraction_probability_ceiling(criterion):
    start = time.perf_counter()
    failures: list[str] = []

    t_star, p_star = golden_section_max(
        lambda t: sub.success_probability(SubtractionConfig(t), V20), 0.01, 0.999, 1e-7
    )
    check(failures, abs(p_star - 0.25) < 1e-6, f"peak probability {p_star}")
    check(failures, abs(t_star - 17.0 / 19.0) < 1e-4, f"peak transmittance {t_star}")

    elapsed = time.perf_counter() - start
    check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s over 1s budget")
    criterion(2, "subtraction probability ceiling 1/4", failures, f"{elapsed:.2f}s")


def test_criterion_3_generating_function_matches_fock_oracle(criterion):
    start = time.perf_counter()
    failures: list[str] = []
    worst = 0.0
    for photons in (0, 1, 2):
        for template in ("bsqc", "ssqc"):
            for t in (0.7, 0.9, 0.95):
                cfg = SchemeFamily(template, photons).at(t)
                for alpha in (0.5, 1.0, 3.0):
                    src = SourceParams(alpha)
                    pd, cov = pd_and_covariance(cfg, src)
                    e_n = log_negativity(schmidt_spectrum(cfg, src))
                    sim = simulate_catalysis(cfg, src)
                    diffs = {
                        "pd": abs(pd - sim.p_success),
                        "x": abs(cov.x - sim.cov.x),
                        "z": abs(cov.z - sim.cov.z),
                        "e_n": abs(e_n - sim.log_negativity),
                    }
                    worst = max(worst, max(diffs.values()))
                    for what, diff in diffs.items():
                        check(
                            failures,
                            diff < 1e-6,
                            f"{template}{photons} t={t} alpha={alpha}: {what} off by {diff:.2e}",
                        )

    elapsed = time.perf_counter() - start
    check(failures, elapsed < 120.0, f"runtime {elapsed:.1f}s over 2min budget")
    criterion(3, "analytic route equals Fock oracle", failures,
              f"worst {worst:.1e}, {elapsed:.1f}s")


def test_criterion_4_zero_photon_reduction_identity(criterion):
    start = time.perf_counter()
    failures: list[str] = []
    worst = 0.0
    for lam in np.linspace(0.05, 0.95, 10):
        src = SourceParams(lam / math.sqrt(1.0 - lam**2))
        for t in np.linspace(0.5, 1.0, 10):
            _, cov = pd_and_covariance(SchemeFamily("bsqc", 0).at(float(t)), src)
            lam_eff = lam * t
            ref = tmsv_covariance(SourceParams(lam_eff / math.sqrt(1.0 - lam_eff**2)))
            diff = max(abs(cov.x - ref.x), abs(cov.y - ref.y), abs(cov.z - ref.z))
            worst = max(worst, diff)
            check(failures, diff < 1e-12, f"lam={lam:.2f} t={t:.2f}: diff {diff:.2e}")

    elapsed = time.perf_counter() - start
    check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s over 1s budget")
    criterion(4, "zero-photon catalysis is a rescaled source", failures,
              f"worst {worst:.1e}, {elapsed:.2f}s")


def test_criterion_5_tolerable_noise_at_300km(criterion):
    start = time.perf_counter()
    failures: list[str] = []
    anchors = [
        (SchemeFamily("bsqc", 0), 0.0292, "two-arm zero-photon"),
        (SchemeFamily("bsqc", 1), 0.0261, "two-arm one-photon"),
        (SchemeFamily("ssqc", 1), 0.0185, "one-arm one-photon"),
    ]
    got = []
    for scheme, anchor, label in anchors:
        eps = max_tolerable_excess_noise(ProtocolParams(V20, scheme), [300.0])[0]
        got.append(eps)
        check(
            failures,
            abs(eps - anchor) <= 0.1 * anchor,
            f"{label}: eps_max {eps:.5f} vs anchor {anchor} (>10% off)",
        )

    elapsed = time.perf_counter() - start
    check(failures, elapsed < 600.0, f"runtime {elapsed:.1f}s over 10min budget")
    criterion(5, "tolerable excess noise at 300 km", failures,
              f"{', '.join(f'{e:.5f}' for e in got)}, {elapsed:.1f}s")


def test_criterion_6_maximal_distances(criterion):
    start = time.perf_counter()
    failures: list[str] = []

    d_bsqc = max_distance(ProtocolParams(V20, SchemeFamily("bsqc", 1)))
    d_ssqc = max_distance(ProtocolParams(V20, SchemeFamily("ssqc", 1)))
    d_sub = max_distance(ProtocolParams(V20, SchemeFamily("subtraction")))
    check(failures, d_bsqc > 240.0, f"two-arm one-photon reaches only {d_bsqc:.1f} km")
    check(failures, d_ssqc > 240.0, f"one-arm one-photon reaches only {d_ssqc:.1f} km")
    check(failures, abs(d_sub - 218.0) <= 10.0, f"subtraction reach {d_sub:.1f} km vs 218 +- 10")

    elapsed = time.perf_counter() - start
    check(failures, elapsed < 600.0, f"runtime {elapsed:.1f}s over 10min budget")
    criterion(6, "maximal distances above 1e-6 floor", failures,
              f"{d_bsqc:.1f}/{d_ssqc:.1f}/{d_sub:.1f} km, {elapsed:.1f}s")


def test_criterion_7_curve_ordering_and_plob(criterion):
    start = time.perf_counter()
    failures: list[str] = []
    t = 0.95

    def rate(scheme, d):
        return secret_key_rate(
            ProtocolParams(V20, scheme), ChannelParams.from_distance(d, 0.01)
        ).key_rate

    schemes = {
        "original": None,
        "bsqc0": SchemeFamily("bsqc", 0).at(t),
        "ssqc0": SchemeFamily("ssqc", 0).at(t),
        "bsqc1": SchemeFamily("bsqc", 1).at(t),
        "ssqc1": SchemeFamily("ssqc", 1).at(t),
        "bsqc2": SchemeFamily("bsqc", 2).at(t),
        "ssqc2": SchemeFamily("ssqc", 2).at(t),
        "subtraction": SubtractionConfig(t),
    }

    def cutoff(name):
        lo, hi = 0.0, 500.0
        if rate(schemes[name], lo) <= 0.0:
            return 0.0
        while hi - lo > 0.05:
            mid = 0.5 * (lo + hi)
            if rate(schemes[name], mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return lo

    d_orig = cutoff("original")
    check(failures, 80.0 < d_orig < 100.0, f"original cutoff {d_orig:.1f} km out of range")

    # close to the original protocol's cutoff the zero-photon hierarchy holds
    for d in (d_orig - 5.0, d_orig - 1.0):
        r0, rb, rs = rate(schemes["original"], d), rate(schemes["bsqc0"], d), rate(schemes["ssqc0"], d)
        check(failures, rb > rs > r0 > 0.0, f"hierarchy broken at {d:.1f} km: {rb:.2e}, {rs:.2e}, {r0:.2e}")

    # two-photon catalysis at fixed transmittance dies before the original
    for name in ("bsqc2", "ssqc2"):
        d_two = cutoff(name)
        check(failures, d_two < d_orig, f"{name} cutoff {d_two:.1f} km not before original {d_orig:.1f}")

    # nothing beats the repeaterless bound anywhere
    worst_margin = math.inf
    for d in np.arange(2.0, 340.0, 2.0):
        bound = plob_bound(ChannelParams.from_distance(float(d)).tc)
        for name, scheme in schemes.items():
            margin = bound - rate(scheme, float(d))
            worst_margin = min(worst_margin, margin)
            check(failures, margin >= 0.0, f"{name} beats PLOB at {d:.0f} km")

    # the zero-photon curve overtakes the original within 5 km of 57.6851
    lo, hi = 10.0, d_orig
    if not rate(schemes["bsqc0"], lo) < rate(schemes["original"], lo):
        failures.append("two-arm zero-photon already ahead at 10 km")
    else:
        while hi - lo > 0.01:
            mid = 0.5 * (lo + hi)
            if rate(schemes["bsqc0"], mid) < rate(schemes["original"], mid):
                lo = mid
            else:
                hi = mid
        check(failures, abs(hi - 57.6851) <= 5.0, f"overtake at {hi:.2f} km vs 57.6851 +- 5")

    elapsed = time.perf_counter() - start
    check(failures, elapsed < 120.0, f"runtime {elapsed:.1f}s over 2min budget")
    criterion(7, "rate-curve ordering and PLOB ceiling", failures, f"{elapsed:.1f}s")


def test_criterion_8_numerical_kernel_properties(criterion):
    start = time.perf_counter()
    failures: list[str] = []
    rng = np.random.default_rng(7)

    # jet ring laws on seeded random coefficients
    orders = (2, 2, 1)
    shape = tuple(o + 1 for o in orders)
    for trial in range(20):
        a = Jet(orders, rng.uniform(-0.5, 0.5, shape))
        b = Jet(orders, rng.uniform(-0.5, 0.5, shape))
        c = Jet(orders, rng.uniform(-0.5, 0.5, shape))
        dist = jet_mul(a, jet_add(b, c)).coeffs - (
            jet_mul(a, b).coeffs + jet_mul(a, c).coeffs
        )
        check(failures, np.max(np.abs(dist)) < 1e-12, f"distributivity trial {trial}")
        denom_coeffs = rng.uniform(-0.05, 0.05, shape)
        denom_coeffs.flat[0] = 1.2
        denom = Jet(orders, denom_coeffs)
        back = jet_div(jet_mul(a, denom), denom).coeffs - a.coeffs
        check(failures, np.max(np.abs(back)) < 1e-12, f"division trial {trial}")
        small_a = Jet(orders, rng.uniform(-0.1, 0.1, shape))
        small_b = Jet(orders, rng.uniform(-0.1, 0.1, shape))
        hom = jet_exp(jet_add(small_a, small_b)).coeffs - jet_mul(
            jet_exp(small_a), jet_exp(small_b)
        ).coeffs
        check(failures, np.max(np.abs(hom)) < 1e-12, f"exponential trial {trial}")

    # Laguerre generating function
    for n in range(5):
        for x in (0.0, 0.5, 2.0):
            g = jet_var(0, (n,)) if n else jet_const(0.0, (n,))
            inv = jet_div(jet_const(1.0, (n,)), 1.0 - g)
            f = jet_mul(jet_exp(jet_mul(-x * g, inv)), inv)
            got = mixed_partial_at_zero(f, (n,)) / math.factorial(n)
            ref = sum(math.comb(n, k) * (-x) ** k / math.factorial(k) for k in range(n + 1))
            check(failures, abs(got - ref) < 1e-10, f"Laguerre n={n} x={x}")

    # beam-splitter photon-number blocks are orthogonal
    for total in range(1, 7):
        for t in (0.3, 0.7, 0.95):
            dim = total + 1
            u = np.array(
                [
                    [bs_fock_amplitude(t, col, total - col, row, total - row) for col in range(dim)]
                    for row in range(dim)
                ]
            )
            dev = np.max(np.abs(u.T @ u - np.eye(dim)))
            check(failures, dev < 1e-10, f"block N={total} t={t}: {dev:.1e}")

    # closed-form symplectic spectrum equals the 4x4 eigen-decomposition;
    # states come from the physics pipeline so the uncertainty relation holds
    from catqkd import propagate_covariance

    for trial in range(20):
        src = SourceParams(rng.uniform(0.2, 3.0))
        pick = trial % 3
        if pick == 0:
            cov = tmsv_covariance(src)
        elif pick == 1:
            cfg = SchemeFamily("bsqc", int(rng.integers(0, 3))).at(rng.uniform(0.6, 0.99))
            cov = pd_and_covariance(cfg, src)[1]
        else:
            cov = sub.output_covariance(SubtractionConfig(rng.uniform(0.5, 0.99)), src)
        ch = ChannelParams(tc=rng.uniform(0.05, 1.0), epsilon=rng.uniform(0.0, 0.05))
        l1, l2, _ = symplectic_eigenvalues(cov, ch)
        nu = two_mode_symplectic_numeric(propagate_covariance(cov, ch).as_matrix())
        dev = max(abs(a - b) / b for a, b in zip(sorted((l1, l2)), sorted(nu)))
        check(failures, dev < 1e-9, f"symplectic trial {trial}: {dev:.1e}")

    # Schmidt spectra stay normalised
    for cfg in (SchemeFamily("bsqc", 1).at(0.9), SchemeFamily("ssqc", 2).at(0.7)):
        for alpha in (0.5, 1.0, 3.0):
            spec = schmidt_spectrum(cfg, SourceParams(alpha))
            check(
                failures,
                abs(spec.squared_sum - 1.0) < 1e-8,
                f"norm {cfg} alpha={alpha}: {spec.squared_sum}",
            )

    elapsed = time.perf_counter() - start
    check(failures, elapsed < 60.0, f"runtime {elapsed:.1f}s over 1min budget")
    criterion(8, "numerical kernel properties", failures, f"{elapsed:.1f}s")
