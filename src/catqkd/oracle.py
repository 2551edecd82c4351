"""Independent references for the heralded sources, never used in sweeps.

Fock-space simulations expand states in the photon-number basis up to a
cutoff, with exact beam-splitter matrix elements.  ``bs_fock_amplitude``
evaluates them for a whole photon-number ladder in one numpy pass, so a
simulation makes one call per arm.  A cutoff above 2^20 terms, the cap
of the Schmidt spectra in :mod:`catqkd.catalysis`, raises
:class:`CutoffError` before any array is allocated.  The paper's
generating-function route for catalysis takes mixed partial derivatives
with truncated Taylor jets (:mod:`catqkd.series`).  Tests and ``catqkd
verify`` check the production closed forms against both.

Beam-splitter convention: ``sign=-1`` (default) maps ``b -> sqrt(t) b -
sqrt(1-t) c`` and ``c -> sqrt(1-t) b + sqrt(t) c``, so ``<0,1|B|1,0> =
-sqrt(1-t)``; ``sign=+1`` selects the mirrored convention with the minus
on the other reflected component.  Both are unitary and all heralded
observables must agree between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalysis import (_MAX_TERMS, CatalysisConfig, SchmidtSpectrum, SourceParams,
                        TwoModeCovariance)
from .errors import ConsistencyError, CutoffError
from .series import Jet, jet_const, jet_div, jet_mul, mixed_partial_at_zero
from .subtraction import SubtractionConfig

_TAIL_MASS_LIMIT = 1e-8

# Bookkeeping variable layout for the four-variable generating function:
# (tau, gamma) differentiate the signal-arm kernel, (tau1, gamma1) the
# idler-arm kernel.
_TAU, _GAMMA, _TAU1, _GAMMA1 = range(4)


def bs_fock_amplitude(t: float, in_b, in_c, out_b, out_c, sign: float = -1.0):
    """Matrix element <out_b, out_c|B(t)|in_b, in_c> of a beam splitter.

    The photon numbers are integers or integer arrays that broadcast
    together; scalar inputs give a ``float``, array inputs an array of the
    broadcast shape, so a whole photon-number ladder costs one call.
    Photon number is conserved, so an element vanishes unless
    ``in_b + in_c == out_b + out_c``.  The binomial sum runs in log space
    to stay finite for photon numbers far past the range of factorials in
    double precision; each summation offset is one masked array step.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmittance {t} outside [0, 1]")
    if sign not in (-1.0, 1.0):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    numbers = [np.asarray(n) for n in (in_b, in_c, out_b, out_c)]
    if any(n.dtype.kind not in "iu" for n in numbers):
        raise TypeError("photon numbers must be integers")
    j, k, p, q = np.broadcast_arrays(*(n.astype(np.int64) for n in numbers))
    if min(n.min(initial=0) for n in (j, k, p, q)) < 0:
        raise ValueError("photon numbers must be non-negative")
    # Mismatched elements are evaluated as the vacuum and zeroed at the end.
    matched = j + k == p + q
    j, k, p, q = (np.where(matched, n, 0) for n in (j, k, p, q))
    # lg[n] = log(n!), the math.lgamma values of the scalar formula
    top = int(max(n.max(initial=0) for n in (j, k, p, q)))
    lg = np.fromiter(map(math.lgamma, range(1, top + 2)), float, top + 1)
    head = 0.5 * (lg[p] + lg[q] - lg[j] - lg[k]) + lg[j]
    lg_k = lg[k]
    parity = j if sign < 0 else p
    a_lo = np.maximum(0, p - k)
    span = np.minimum(j, p) - a_lo
    terms = []
    for offset in range(int(span.max(initial=-1)) + 1):
        # a = a_lo + offset, clamped so every index stays in range; the
        # clamped terms are masked out.
        live = offset <= span
        a = a_lo + np.minimum(offset, span)
        log_term = head - lg[a] - lg[j - a] + lg_k - lg[p - a] - lg[k - p + a]
        e_t = 2 * a + k - p       # power of sqrt(t)
        e_r = j + p - 2 * a       # power of sqrt(1-t)
        # At t = 0 (t = 1) the terms with a positive power of sqrt(t)
        # (sqrt(1-t)) vanish, and the others have that power 0.
        if t == 0.0:
            live &= e_t == 0
        else:
            log_term = log_term + 0.5 * e_t * math.log(t)
        if t == 1.0:
            live &= e_r == 0
        else:
            log_term = log_term + 0.5 * e_r * math.log(1.0 - t)
        terms.append((np.where(live, log_term, -np.inf), (parity - a) % 2 == 1))
    peak = np.full(j.shape, -np.inf)
    for log_term, _ in terms:
        peak = np.maximum(peak, log_term)
    # An element without a live term sums to 0; peak 0 keeps it finite.
    peak = np.where(peak > -np.inf, peak, 0.0)
    acc = np.zeros(j.shape)
    for log_term, odd in terms:
        mag = np.exp(log_term - peak)
        acc = acc + np.where(odd, -mag, mag)
    amp = np.where(matched, acc * np.exp(peak), 0.0)
    return float(amp) if amp.ndim == 0 else amp


def _affine(orders: tuple[int, ...], c0: float, var: int, c1: float) -> Jet:
    # c0 + c1 * x_var; the linear term drops when that variable is
    # truncated at order 0 (no derivative taken in it).
    coeffs = np.zeros(tuple(o + 1 for o in orders))
    coeffs.flat[0] = c0
    if orders[var] >= 1:
        pos = [0] * len(orders)
        pos[var] = 1
        coeffs[tuple(pos)] = c1
    return Jet(orders, coeffs)


def _kernel(cfg: CatalysisConfig, lam: float, orders: tuple[int, ...],
            tau: int, gamma: int) -> Jet:
    # One arm's generating kernel
    #   lam (t2 - gamma)(t1 - tau) / (sqrt(t1 t2) (1 - gamma)(1 - tau)).
    num = jet_mul(_affine(orders, cfg.t2, gamma, -1.0), _affine(orders, cfg.t1, tau, -1.0))
    den = jet_mul(_affine(orders, 1.0, gamma, -1.0), _affine(orders, 1.0, tau, -1.0))
    return jet_div(num * lam, den * math.sqrt(cfg.t1 * cfg.t2))


def _herald_scale(cfg: CatalysisConfig, lam: float) -> float:
    # Squared prefactor of the heralded (unnormalised) amplitude series.
    fact = math.factorial(cfg.m) * math.factorial(cfg.n)
    return cfg.t1**cfg.m * cfg.t2**cfg.n * (1.0 - lam**2) / fact**2


def generating_function_moments(cfg: CatalysisConfig,
                                src: SourceParams) -> tuple[float, float, float]:
    """Success probability and unnormalised second moments, from jets.

    Returns ``(pd, s_var, s_cor)`` where ``2*s_var/pd - 1`` is the
    quadrature variance of either mode and ``2*s_cor/pd`` the cross
    correlation.
    """
    orders = (cfg.m, cfg.n, cfg.m, cfg.n)
    derivs = orders
    lam = src.lam
    w = _kernel(cfg, lam, orders, _TAU, _GAMMA)
    w1 = _kernel(cfg, lam, orders, _TAU1, _GAMMA1)
    pi = jet_const(1.0, orders)
    for var in range(4):
        pi = jet_mul(pi, _affine(orders, 1.0, var, -1.0))
    pi = jet_div(jet_const(1.0, orders), pi)
    resolvent = jet_div(jet_const(1.0, orders), 1.0 - jet_mul(w1, w))

    first = jet_mul(pi, resolvent)
    second = jet_mul(first, resolvent)
    scale = _herald_scale(cfg, lam)
    pd = scale * mixed_partial_at_zero(first, derivs)
    s_var = scale * mixed_partial_at_zero(second, derivs)
    s_cor = scale * mixed_partial_at_zero(jet_mul(second, w), derivs)
    if not 0.0 < pd <= 1.0 + 1e-9:
        raise ConsistencyError(f"success probability {pd} outside (0, 1]")
    return pd, s_var, s_cor


def adaptive_cutoff(lam: float, tail: float = 1e-12) -> int:
    """Fock cutoff keeping the source's weight-sum tail below ``tail``.

    Chosen so that ``sqrt(1-lam**2) * lam**(c+1) / (1-lam) < tail``, which
    bounds the truncation error of every reported quantity including the
    absolute Schmidt sum, not just the probability mass.
    """
    if lam <= 0.0:
        return 60
    bound = math.log(tail * (1.0 - lam) / math.sqrt(1.0 - lam**2))
    return max(60, math.ceil(bound / math.log(lam)))


def _check_cutoff(lam: float, cutoff: int, what: str) -> None:
    # Runs before any array of length cutoff + 1 is allocated.
    if cutoff < 0:
        raise ValueError(f"cutoff must be non-negative, got {cutoff}")
    if cutoff >= _MAX_TERMS:
        raise CutoffError(f"cutoff too large: {what} at cutoff {cutoff} needs "
                          f"{cutoff + 1} terms, more than {_MAX_TERMS}")
    # Discarded probability mass of the geometric photon distribution.
    tail_mass = lam ** (2 * (cutoff + 1))
    if tail_mass > _TAIL_MASS_LIMIT:
        raise CutoffError(
            f"cutoff too small: {what} at cutoff {cutoff} leaves tail mass {tail_mass:.3g}"
        )


@dataclass(frozen=True)
class HeraldedSimulation:
    """Output of a Fock-space heralding simulation."""

    p_success: float
    spectrum: SchmidtSpectrum
    cov: TwoModeCovariance
    log_negativity: float


def simulate_catalysis(cfg: CatalysisConfig, src: SourceParams,
                       cutoff: int | None = None, sign: float = -1.0) -> HeraldedSimulation:
    """Exact Fock-basis simulation of two-arm photon catalysis.

    Catalysis is diagonal in the twin-Fock basis: the |l, l> component is
    multiplied by the amplitude of each arm's catalyser returning its
    ancilla photons, so the heralded state stays in Schmidt form.
    """
    lam = src.lam
    if cutoff is None:
        cutoff = adaptive_cutoff(lam)
    _check_cutoff(lam, cutoff, f"catalysis with lam={lam:.4f}")
    ls = np.arange(cutoff + 1)
    g1 = bs_fock_amplitude(cfg.t1, ls, cfg.m, ls, cfg.m, sign)
    g2 = bs_fock_amplitude(cfg.t2, ls, cfg.n, ls, cfg.n, sign)
    amps = math.sqrt(1.0 - lam**2) * lam**ls * g1 * g2
    pd = float(amps @ amps)
    weights = amps / math.sqrt(pd)
    nbar = float(ls @ (weights * weights))
    corr = float(np.sum(weights[:-1] * weights[1:] * (ls[:-1] + 1)))
    cov = TwoModeCovariance(x=2.0 * nbar + 1.0, y=2.0 * nbar + 1.0, z=2.0 * corr)
    return HeraldedSimulation(
        p_success=pd,
        spectrum=SchmidtSpectrum(weights=weights, tail_bound=float(lam ** (2 * (cutoff + 1)))),
        cov=cov,
        log_negativity=2.0 * math.log2(float(np.abs(weights).sum())),
    )


def simulate_subtraction(cfg: SubtractionConfig, src: SourceParams,
                         cutoff: int | None = None, sign: float = -1.0) -> HeraldedSimulation:
    """Exact Fock-basis simulation of single-photon subtraction.

    The heralded state is ``sum_l u_l |l, l-1>`` with Alice holding the
    larger photon number; ``spectrum`` stores u_l indexed by Alice's l
    (u_0 = 0).
    """
    lam = src.lam
    if lam == 0.0:
        raise ValueError("photon subtraction cannot herald on a vacuum source")
    if cutoff is None:
        cutoff = adaptive_cutoff(lam * math.sqrt(cfg.t))
    _check_cutoff(lam * math.sqrt(cfg.t), cutoff, f"subtraction with lam={lam:.4f}")
    ls = np.arange(cutoff + 1)
    taps = np.concatenate(([0.0], bs_fock_amplitude(cfg.t, ls[1:], 0, ls[1:] - 1, 1, sign)))
    amps = math.sqrt(1.0 - lam**2) * lam**ls * taps
    p1 = float(amps @ amps)
    u = amps / math.sqrt(p1)
    a_mean = float(ls @ (u * u))
    b_mean = float(np.maximum(ls - 1, 0) @ (u * u))
    corr = float(np.sum(u[1:-1] * u[2:] * np.sqrt((ls[1:-1] + 1) * ls[1:-1])))
    cov = TwoModeCovariance(x=2.0 * a_mean + 1.0, y=2.0 * b_mean + 1.0, z=2.0 * corr)
    return HeraldedSimulation(
        p_success=p1,
        spectrum=SchmidtSpectrum(weights=u, tail_bound=float((lam**2 * cfg.t) ** (cutoff + 1))),
        cov=cov,
        log_negativity=2.0 * math.log2(float(np.abs(u).sum())),
    )


def two_mode_symplectic_numeric(matrix: np.ndarray) -> tuple[float, float]:
    """Symplectic eigenvalues of a 4x4 covariance matrix via |eig(i Omega V)|.

    Independent of the closed-form route used by the key-rate module.
    """
    omega = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ])
    nus = np.sort(np.abs(np.linalg.eigvals(1j * omega @ matrix)))[::-1]
    return float(0.5 * (nus[0] + nus[1])), float(0.5 * (nus[2] + nus[3]))
