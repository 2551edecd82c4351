"""Fock-space reference for the heralded sources, never used in sweeps.

Fock-space simulations expand states in the photon-number basis up to a
cutoff, with exact beam-splitter matrix elements.  ``bs_fock_amplitude``
evaluates them for a whole photon-number ladder in one numpy pass.  A
catalysis simulation takes each arm's ladder from a memo of the last 32
keys ``(t, photons, cutoff)``, so equal arms (BSQC) and repeated inputs
cost one call each (``catqkd verify`` meets 30 distinct ladders in its
108 catalysis arms); subtraction makes one call per simulation.  Every
simulation takes :func:`adaptive_cutoff`; one past 2^20 terms, the cap
of the Schmidt spectra in :mod:`catqkd.catalysis`, or a source whose lam
rounds to 1 raises :class:`CutoffError` before any array is allocated.
Tests and ``catqkd verify`` check the production closed
forms against these simulations; ``verify`` uses nothing else of the
references.  The paper's generating-function route for catalysis, the
tests' second reference, lives with the Taylor jets it is written in,
in :mod:`catqkd.series`, so this module does not load them.

Beam-splitter convention: ``sign=-1`` (default) maps ``b -> sqrt(t) b -
sqrt(1-t) c`` and ``c -> sqrt(1-t) b + sqrt(t) c``, so ``<0,1|B|1,0> =
-sqrt(1-t)``, and the simulations take it.  ``sign=+1``, the mirrored
convention, multiplies each element by ``(-1)**(out_c - in_c)``, which no
heralded observable sees (``catqkd verify``'s reflection-phase row).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .catalysis import _MAX_TERMS, CatalysisConfig, SourceParams, TwoModeCovariance
from .errors import CutoffError
from .subtraction import SubtractionConfig

_CUTOFF_TAIL = 1e-12  # weight-sum tail that adaptive_cutoff leaves out


def bs_fock_amplitude(t: float, in_b, in_c, out_b, out_c, sign: float = -1.0):
    """Matrix element <out_b, out_c|B(t)|in_b, in_c> of a beam splitter.

    The photon numbers are integers or integer arrays that broadcast
    together, and the result is an array of the broadcast shape (0-d for
    scalar inputs), so a whole photon-number ladder costs one call.
    Photon number is conserved, so an element vanishes unless
    ``in_b + in_c == out_b + out_c``.  The binomial sum runs in log space
    to stay finite for photon numbers far past the range of factorials in
    double precision; each summation offset is one masked array step.

    Where the alternating sum cancels, the error is bounded by the sum of
    the terms' magnitudes (below 4e-14 of it for photon numbers up to 30),
    not by the result: at (28, 30) -> (30, 28) and t = 0.5 it is 1e-4
    relative, and elements that are exactly 0 come out as large as 1.3e-7.
    So this is no reference for large, balanced photon numbers.
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
    return np.where(matched, acc * np.exp(peak), 0.0)


def adaptive_cutoff(lam: float) -> int:
    """Fock cutoff keeping the source's weight-sum tail below ``_CUTOFF_TAIL``.

    Chosen so that ``sqrt(1-lam**2) * lam**(c+1) / (1-lam) < _CUTOFF_TAIL``, which
    bounds the truncation error of every reported quantity including the
    absolute Schmidt sum, not just the probability mass.
    """
    if lam <= 0.0:
        return 60
    bound = math.log(_CUTOFF_TAIL * (1.0 - lam) / math.sqrt(1.0 - lam**2))
    return max(60, math.ceil(bound / math.log(lam)))


def _cutoff(lam: float, x: float, what: str) -> int:
    # adaptive_cutoff(x) for a source of parameter lam, refused before any
    # array of length cutoff + 1 is allocated
    if lam >= 1.0:
        raise CutoffError(f"{what} with lam={lam!r}: lam rounds to 1, "
                          "so no cutoff holds the source")
    cutoff = adaptive_cutoff(x)
    if cutoff >= _MAX_TERMS:
        raise CutoffError(f"cutoff too large: {what} with lam={lam:.4f} at cutoff {cutoff} "
                          f"needs {cutoff + 1} terms, more than {_MAX_TERMS}")
    return cutoff


@dataclass(frozen=True)
class HeraldedSimulation:
    """Output of a Fock-space heralding simulation.

    ``weights`` are the normalised amplitudes of the heralded state's
    Schmidt pairs, indexed by the photon number of Alice's mode.
    """

    p_success: float
    weights: np.ndarray
    cov: TwoModeCovariance

    @property
    def log_negativity(self) -> float:
        return 2.0 * math.log2(float(np.abs(self.weights).sum()))


@functools.lru_cache(maxsize=32)
def _ladder(t: float, photons: int, cutoff: int) -> np.ndarray:
    # <l, photons|B(t)|l, photons> for l = 0..cutoff, read-only as every caller shares it;
    # 32 keys hold the 30 ladders of verify's catalysis checks
    ls = np.arange(cutoff + 1)
    amps = bs_fock_amplitude(t, ls, photons, ls, photons)
    amps.setflags(write=False)
    return amps


def simulate_catalysis(cfg: CatalysisConfig, src: SourceParams) -> HeraldedSimulation:
    """Exact Fock-basis simulation of two-arm photon catalysis.

    Catalysis is diagonal in the twin-Fock basis: the |l, l> component is
    multiplied by the amplitude of each arm's catalyser returning its
    ancilla photons, so the heralded state stays in Schmidt form.
    """
    lam = src.lam
    cutoff = _cutoff(lam, lam, "catalysis")
    ls = np.arange(cutoff + 1)
    g1 = _ladder(cfg.t1, cfg.m, cutoff)
    g2 = _ladder(cfg.t2, cfg.n, cutoff)
    amps = math.sqrt(1.0 - lam**2) * lam**ls * g1 * g2
    pd = float(amps @ amps)
    weights = amps / math.sqrt(pd)
    nbar = float(ls @ (weights * weights))
    corr = float(np.sum(weights[:-1] * weights[1:] * (ls[:-1] + 1)))
    cov = TwoModeCovariance(x=2.0 * nbar + 1.0, y=2.0 * nbar + 1.0, z=2.0 * corr)
    return HeraldedSimulation(p_success=pd, weights=weights, cov=cov)


def simulate_subtraction(cfg: SubtractionConfig, src: SourceParams) -> HeraldedSimulation:
    """Exact Fock-basis simulation of single-photon subtraction.

    The heralded state is ``sum_l u_l |l, l-1>`` with Alice holding the
    larger photon number; ``weights`` stores u_l indexed by Alice's l
    (u_0 = 0).
    """
    lam = src.lam
    if lam == 0.0:
        raise ValueError("photon subtraction cannot herald on a vacuum source")
    cutoff = _cutoff(lam, lam * math.sqrt(cfg.t), "subtraction")
    ls = np.arange(cutoff + 1)
    taps = np.concatenate(([0.0], bs_fock_amplitude(cfg.t, ls[1:], 0, ls[1:] - 1, 1)))
    amps = math.sqrt(1.0 - lam**2) * lam**ls * taps
    p1 = float(amps @ amps)
    u = amps / math.sqrt(p1)
    a_mean = float(ls @ (u * u))
    b_mean = float(np.maximum(ls - 1, 0) @ (u * u))
    corr = float(np.sum(u[1:-1] * u[2:] * np.sqrt((ls[1:-1] + 1) * ls[1:-1])))
    cov = TwoModeCovariance(x=2.0 * a_mean + 1.0, y=2.0 * b_mean + 1.0, z=2.0 * corr)
    return HeraldedSimulation(p_success=p1, weights=u, cov=cov)


def two_mode_symplectic_numeric(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic eigenvalues of 4x4 covariance matrices via |eig(i Omega V)|.

    ``matrix`` is a stack of shape ``(..., 4, 4)``, whose spectra come from
    one ``np.linalg.eigvals`` call; each matrix gets the bits it gets alone.
    Returns the larger and the smaller eigenvalues as two arrays of shape
    ``(...)``.  Independent of the closed-form route used by the key-rate module.
    """
    omega = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ])
    nus = np.sort(np.abs(np.linalg.eigvals(1j * omega @ matrix)), axis=-1)[..., ::-1]
    return 0.5 * (nus[..., 0] + nus[..., 1]), 0.5 * (nus[..., 2] + nus[..., 3])
