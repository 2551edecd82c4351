"""Multiphoton catalysis on the arms of a two-mode squeezed vacuum.

An EPR source with squeezing parameter ``lam`` feeds one or both arms
into a beam splitter whose ancillary port carries a Fock state; the
event is kept only when the same photon number leaves that port.  The
heralded state is ``sum_l K x**l q(l) |l, l>`` with ``K**2 = (1-lam**2)
t1**m t2**n``, ``x = lam sqrt(t1 t2)`` and ``q`` the product of the two
arms' polynomials in ``l``, kept in the binomial basis ``C(l, j)``.  Its
moments are then exact finite sums, taken together in one integer Horner
pass, and its Schmidt coefficients need only a cutoff set by an analytic
tail bound; products in that basis use tables built once per pair of
lengths, and a bounded memo serves repeated moment inputs.  BSQC is
symmetric catalysis on both arms; SSQC catalyses the idler arm only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError

MAX_PHOTONS = 5
_TAIL = 1e-13           # bound on the sum of |w_l| a Schmidt spectrum leaves out
_MAX_TERMS = 1 << 20    # longest Schmidt spectrum computed


@dataclass(frozen=True)
class SourceParams:
    """Two-mode squeezed vacuum source.

    ``alpha`` is the squeezing amplitude; the Schmidt parameter is
    ``lam = alpha / sqrt(1 + alpha**2)`` and the quadrature variance in
    shot-noise units is ``V = 2*alpha**2 + 1``.
    """

    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha < math.inf):
            raise ValueError(f"alpha must be a finite non-negative real, got {self.alpha}")
        if 2.0 * self.alpha * self.alpha + 1.0 == math.inf:
            raise ValueError(f"alpha={self.alpha} overflows the variance 2*alpha**2 + 1")

    @property
    def lam(self) -> float:
        return self.alpha / math.sqrt(1.0 + self.alpha**2)

    @property
    def variance(self) -> float:
        return 2.0 * self.alpha**2 + 1.0

    @classmethod
    def from_variance(cls, variance: float) -> "SourceParams":
        if not 1.0 <= variance < math.inf:
            raise ValueError(f"quadrature variance must be finite and >= 1, got {variance}")
        return cls(alpha=math.sqrt((variance - 1.0) / 2.0))


@dataclass(frozen=True)
class CatalysisConfig:
    """Photon numbers and beam-splitter transmittances of the catalysers.

    ``m``/``t1`` act on the signal arm kept by Alice, ``n``/``t2`` on the
    idler arm sent to Bob.  ``t = 1`` makes an arm's catalyser a no-op.
    """

    m: int
    n: int
    t1: float
    t2: float

    def __post_init__(self) -> None:
        for label, value in (("m", self.m), ("n", self.n)):
            if not isinstance(value, int) or not 0 <= value <= MAX_PHOTONS:
                raise ValueError(f"photon number {label}={value!r} outside 0..{MAX_PHOTONS}")
        for label, value in (("t1", self.t1), ("t2", self.t2)):
            if not 0.0 < value <= 1.0:
                raise ValueError(f"transmittance {label}={value} outside (0, 1]")


@dataclass(frozen=True)
class TwoModeCovariance:
    """Standard-form two-mode covariance matrix diag blocks (x, y, z).

    The full matrix is ``[[x I, z sigma_z], [z sigma_z, y I]]`` in
    shot-noise units.  Physicality (x, y >= 1 and x*y - z**2 >= 1) is
    enforced at construction.
    """

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        tol = 1e-9
        try:
            ok = (
                math.isfinite(self.x)
                and math.isfinite(self.y)
                and math.isfinite(self.z)
                and self.x >= 1.0 - tol
                and self.y >= 1.0 - tol
                and self.x * self.y - self.z**2 >= 1.0 - tol
            )
        except OverflowError:
            raise ConsistencyError(f"the covariance overflows a float: z**2 is out of range "
                                   f"at z={self.z} (x={self.x}, y={self.y})") from None
        if not ok:
            raise ConsistencyError(
                f"unphysical covariance: x={self.x}, y={self.y}, z={self.z}"
            )

    def as_matrix(self) -> np.ndarray:
        """4x4 matrix in (xA, pA, xB, pB) quadrature ordering."""
        return np.array(
            [
                [self.x, 0.0, self.z, 0.0],
                [0.0, self.x, 0.0, -self.z],
                [self.z, 0.0, self.y, 0.0],
                [0.0, -self.z, 0.0, self.y],
            ]
        )


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Signed Schmidt coefficients w_l of a heralded twin-Fock state.

    ``weights[l]`` multiplies the ``|l, l>`` pair; ``tail_bound`` bounds
    what lies past the stored cutoff, as documented by the function that
    built the spectrum.
    """

    weights: np.ndarray
    tail_bound: float

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float)
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @property
    def cutoff(self) -> int:
        return len(self.weights) - 1

    @property
    def squared_sum(self) -> float:
        return float(self.weights @ self.weights)


def _arm(photons: int, t: float) -> tuple[list[int], int]:
    # <l,k|B(t)|l,k> = t**((l+k)/2) sum_s C(k,s) r**s C(l,s), r = -(1-t)/t.  With
    # t = a/b exactly, returns the integer coefficients of a**k times the sum.
    a, b = t.as_integer_ratio()
    return [math.comb(photons, s) * (a - b)**s * a**(photons - s)
            for s in range(photons + 1)], a**photons


@functools.lru_cache(maxsize=None)
def _products(len_p: int, len_q: int) -> tuple:
    # C(l,i) C(l,j) = sum_k C(k,i) C(i,k-j) C(l,k): the (k, coefficient) terms of each
    # (i, j), with i <= j only when the lengths match, as the left side is symmetric
    return tuple((i, j, tuple((k, math.comb(k, i) * math.comb(i, k - j))
                              for k in range(max(i, j), i + j + 1)))
                 for i in range(len_p) for j in range(len_q) if i <= j or len_p != len_q)


def _mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, j, terms in _products(len(p), len(q)):
        w = p[i] * q[j]
        if i < j and len(p) == len(q):
            w = 2 * w if p is q else w + p[j] * q[i]
        for k, c in terms:
            out[k] += w * c
    return out


@functools.lru_cache(maxsize=1024)
def _exact_moments(m: int, n: int, t1: float, t2: float,
                   alpha: float) -> tuple[float, float, float]:
    # p_d, x and the correlation sum that z scales, for _moments
    arm1, s1 = _arm(m, t1)
    arm2, s2 = (arm1, s1) if (m, t1) == (n, t2) else _arm(n, t2)  # same list: symmetric _mul
    (a1, b1), (a2, b2) = t1.as_integer_ratio(), t2.as_integer_ratio()
    c, d = (f * f for f in alpha.as_integer_ratio())  # alpha**2 = c/d
    num, den = c * a1 * a2, d * b1 * b2 + c * (b1 * b2 - a1 * a2)  # u = num/den

    q = _mul(arm1, arm2)
    q_next = [qj + qk for qj, qk in zip(q, q[1:] + [0])]  # C(l+1,j) = C(l,j) + C(l,j-1)
    q2, r = _mul(q, q), _mul(q, q_next)  # a_l**2 and a_l a_l+1, of equal length
    # One Horner pass in u gives den**deg times g = sum_j q2_j u**j, gj = sum_j j q2_j u**j
    # and h = sum_j (j+1) r_j u**j.  As l C(l,j) = (j+1) C(l,j+1) + j C(l,j), the sum of
    # l a_l**2 is u g + (1+u) gj; as (l+1) C(l,j) = (j+1) (C(l,j+1) + C(l,j)), the sum of
    # (l+1) a_l a_l+1 is (1+u) h.
    g = gj = h = 0
    scale = 1
    for j in reversed(range(len(q2))):
        w = q2[j] * scale
        g, gj, h = g * num + w, gj * num + j * w, h * num + (j + 1) * r[j] * scale
        scale *= den
    try:
        # K**2 / (1 - y) = t1**m t2**n d b1 b2 / den
        pd = g * d * b1 * b2 / (b1**m * b2**n * s1 * s2 * scale)
        if not 0.0 < pd <= 1.0 + 1e-9:
            raise ConsistencyError(f"success probability {pd} outside (0, 1]")
        nbar = (num * g + (num + den) * gj) / (den * g)  # sum_l l a_l**2
        corr = (num + den) * h / (den * g)                # sum_l (l+1) a_l a_l+1
    except OverflowError:  # a ratio of the exact sums is too large for a float
        raise ConsistencyError(f"moments overflow a float at (m, n, t1, t2, alpha) = "
                               f"{(m, n, t1, t2, alpha)}") from None
    return pd, 2.0 * nbar + 1.0, corr


def _moments(cfg: CatalysisConfig, src: SourceParams) -> tuple[float, float, float]:
    """Success probability and covariance entries ``x``, ``z``, exact up to rounding.

    Each is ``sum_l y**l p(l) = sum_j p_j u**j / (1-y)``, ``y = lam**2 t1 t2``,
    ``u = y/(1-y)``; the sums cancel heavily, so they run in integers, with
    product coefficients from a table per pair of lengths and one Horner
    pass for all three sums.  The last 1024 inputs ``(m, n, t1, t2,
    alpha)`` are memoised; ``z``'s factor ``lam sqrt(t1 t2)`` is applied
    outside, so ``alpha = -0.0`` keeps its sign.
    """
    pd, x, corr = _exact_moments(cfg.m, cfg.n, cfg.t1, cfg.t2, src.alpha)
    return pd, x, 2.0 * src.lam * math.sqrt(cfg.t1 * cfg.t2) * corr


def success_probability(cfg: CatalysisConfig, src: SourceParams) -> float:
    """Probability that both catalysers herald the target photon number."""
    return _moments(cfg, src)[0]


def pd_and_covariance(cfg: CatalysisConfig, src: SourceParams) -> tuple[float, TwoModeCovariance]:
    """Success probability and covariance of the heralded state."""
    pd, x, z = _moments(cfg, src)
    return pd, TwoModeCovariance(x=x, y=x, z=z)


_SECANT_STEPS = 8  # calls of the tail bound after which _cutoff only halves its bracket


def _cutoff(tail, x: float, photons: int) -> int:
    """Smallest ``c < _MAX_TERMS`` with ``tail(c) <= _TAIL``, else ``_MAX_TERMS``.

    ``tail`` is infinite below ``c0``, the first ``c`` with ``(c + 2)(1 - x) >
    photons``, and strictly decreasing from there on, so the crossing is
    unique.  The search starts at an estimate of ``c0``, moved down while
    ``tail`` is finite below it, and keeps a bracket: ``tail(lo) > _TAIL`` (or
    ``lo`` lies below ``c0``) and ``hi`` is the answer so far.  Below ``c0``
    it steps up; from there each guess is a secant step on ``log tail``, the
    first one with the slope ``log x`` of the geometric factor, rounded up
    and clamped into the bracket, so an exact guess is confirmed by one
    more call just below it.  After ``_SECANT_STEPS`` calls it only halves
    the bracket, so it makes at most about 30 calls; most spectra take 4 to 6.
    """
    if not x < 1.0:
        return _MAX_TERMS
    c = min(max(photons - 1, math.ceil(photons / (1.0 - x)) - 2, 0), _MAX_TERMS)
    while c > 0 and tail(c - 1) < math.inf:
        c -= 1
    lo, hi = c - 1, _MAX_TERMS
    points: list[tuple[int, float]] = []  # (c, log tail(c)) where tail(c) is finite and positive
    calls = 0
    while hi - lo > 1:
        value = tail(c)
        calls += 1
        if value <= _TAIL:
            hi = c
        else:
            lo = c
        if 0.0 < value < math.inf:
            points.append((c, math.log(value)))
        guess = math.nan  # halve the bracket
        if value == math.inf:  # below c0
            guess = c + 1
        elif calls <= _SECANT_STEPS and len(points) == 1:
            guess = points[0][0] + (math.log(_TAIL) - points[0][1]) / math.log(x)
        elif calls <= _SECANT_STEPS and len(points) >= 2 and points[-1][1] != points[-2][1]:
            (c1, f1), (c2, f2) = points[-2:]
            guess = c2 + (math.log(_TAIL) - f2) * (c2 - c1) / (f2 - f1)
        c = (min(max(math.ceil(guess), lo + 1), hi - 1) if math.isfinite(guess)
             else (lo + hi) // 2)
    return hi


def schmidt_spectrum(cfg: CatalysisConfig, src: SourceParams) -> SchmidtSpectrum:
    """Signed Schmidt coefficients ``w_l = K x**l q(l) / sqrt(pd)``, ``l = 0..L``.

    ``|q|`` is majorised by ``Q``, the product of the arms' polynomials
    with absolute coefficients, and ``Q(l+1)/Q(l) <= (l+1)/(l+1-m-n)``, so
    ``sum_{l>L} |w_l|`` has a geometric upper bound, kept as ``tail_bound``.
    ``L`` is the smallest cutoff with a bound of at most ``_TAIL``, found by
    :func:`_cutoff` in a few evaluations of the bound.  The search is exact:
    the bound is infinite up to a first index and strictly decreasing after
    it, as the ratio of consecutive bounds is at most ``x (L+2)/(L+2-m-n) <
    1``, so the crossing of ``_TAIL`` is unique and the search returns it
    only after checking the bound on both sides of it.  ``x = 0`` (a vacuum
    source) gives a bound of 0 from the first finite index on.  Past
    ``_MAX_TERMS`` this raises :class:`ConsistencyError` before allocating.
    """
    x = src.lam * math.sqrt(cfg.t1 * cfg.t2)
    k2 = cfg.t1**cfg.m * cfg.t2**cfg.n / (1.0 + src.alpha**2)  # K**2
    scale = math.sqrt(k2 / success_probability(cfg, src))
    try:  # c / a is ((t - 1)/t)**s, which a tiny t with s >= 2 takes past a float
        arms = [[c / a for c in arm] for arm, a in (_arm(cfg.m, cfg.t1), _arm(cfg.n, cfg.t2))]
    except OverflowError:
        raise ConsistencyError(f"Schmidt spectrum arm coefficients overflow a float at "
                               f"t1={cfg.t1}, t2={cfg.t2}") from None

    def tail(cutoff: int) -> float:  # first left-out term / (1 - ratio bound)
        gap = cutoff + 2 - cfg.m - cfg.n
        if gap <= 0 or x * (cutoff + 2) >= gap:
            return math.inf
        first = scale * x ** (cutoff + 1) * math.prod(
            sum(abs(c) * math.comb(cutoff + 1, s) for s, c in enumerate(arm)) for arm in arms)
        return first / (1.0 - x * (cutoff + 2) / gap)

    cutoff = _cutoff(tail, x, cfg.m + cfg.n)
    if cutoff == _MAX_TERMS:
        raise ConsistencyError(f"Schmidt spectrum at lam={src.lam:.12g}, t1={cfg.t1}, "
                               f"t2={cfg.t2} needs more than {_MAX_TERMS} terms")
    ls = np.arange(cutoff + 1)
    weights = scale * x**ls
    for arm in arms:
        binom, poly = np.ones(len(ls)), np.zeros(len(ls))
        for j, c in enumerate(arm):  # C(l, j+1) = C(l, j) (l - j) / (j + 1)
            poly, binom = poly + c * binom, binom * (ls - j) / (j + 1)
        weights *= poly
    spectrum = SchmidtSpectrum(weights=weights, tail_bound=tail(cutoff))
    if abs(spectrum.squared_sum - 1.0) > 1e-8:
        raise ConsistencyError(f"Schmidt weights sum to {spectrum.squared_sum}, expected 1")
    return spectrum


def log_negativity(spectrum: SchmidtSpectrum) -> float:
    """Logarithmic negativity 2 log2 sum_l |w_l| of a Schmidt-form state."""
    return 2.0 * math.log2(float(np.abs(spectrum.weights).sum()))


def log_negativity_tmsv(src: SourceParams) -> float:
    """Log negativity of the bare source, log2((1+lam)/(1-lam)).

    Taken as ``2 asinh(alpha) / ln 2``, the same value, since
    ``(1+lam)/(1-lam) = (alpha + sqrt(1+alpha**2))**2``: it stays finite
    where lam rounds to 1.
    """
    return 2.0 * math.asinh(src.alpha) / math.log(2.0)


def log_negativity_tmsv_closed_form(src: SourceParams) -> float:
    """Alternative closed form -log2(1+alpha**2) - 2 log2(sqrt(1+alpha**2) - alpha).

    Algebraically this equals ``2 log2(1 + lam)`` and so undercounts
    :func:`log_negativity_tmsv` by ``-log2(1 - lam**2)``; both are kept so the
    discrepancy stays visible in sweeps.  ``sqrt(1+alpha**2) - alpha`` is
    taken as ``1/(sqrt(1+alpha**2) + alpha)``, which does not cancel to 0
    where alpha is large.  Starting from ``0.0`` gives +0, not -0, at alpha 0.
    """
    a2 = src.alpha**2
    return 0.0 - math.log2(1.0 + a2) - 2.0 * math.log2(1.0 / (math.sqrt(1.0 + a2) + src.alpha))


def tmsv_covariance(src: SourceParams) -> TwoModeCovariance:
    """Covariance of the bare two-mode squeezed vacuum."""
    v = src.variance
    if v * v == math.inf:
        raise ConsistencyError(f"the covariance of the two-mode squeezed vacuum overflows a float: "
                               f"V**2 is inf at V={v}")
    return TwoModeCovariance(x=v, y=v, z=math.sqrt(v**2 - 1.0))
