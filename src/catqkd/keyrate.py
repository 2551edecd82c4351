"""Asymptotic secret key rates over a thermal-loss fibre channel.

Protocol: Gaussian-modulated entanglement-based CV-QKD with heterodyne
detection at Alice, homodyne at Bob, reverse reconciliation, collective
attacks.  The channel applies transmittance ``tc`` and excess noise
``epsilon`` (referred to the channel input), so the effective input
noise is ``xi = (1 - tc)/tc + epsilon``.

The channel transmittance cancels in the mutual information, which is
therefore computed from the source covariance plus ``xi`` alone; the
Holevo bound needs the post-channel symplectic spectrum and keeps ``tc``
explicit.  Heralded sources multiply the rate by their success
probability, because only heralded pulses contribute key.

The rate's formula is written once: :func:`_mutual_products`,
:func:`_spectrum_products`, :func:`_information`, :func:`_entropy_terms`
and :func:`_rate` check nothing and run on Python floats for one cell and
on numpy arrays for a grid, with the squares and logarithms passed in:
``pow`` and ``math.log2`` on floats, ``np.float_power`` and ``np.log2`` or
the exact ``_log2`` on arrays (numpy's ``x ** 2`` is ``x * x``, which may
differ from the C library's ``pow`` in the last bit).  The float path,
:func:`_rate_terms`, checks the products in order and raises the first refusal.

:func:`grid_best` serves every search over a transmittance grid: per
channel, the first index of the largest grid rate and that rate, with the
bits of :func:`secret_key_rate`.  It rules out most cells with numpy's
``log2`` and an error bound, takes exact logarithms for the few left, and
hands each cell whose array rate is not finite, or whose spectrum falls
below 1, to the float path, so every refusal and edge rate is the float path's.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import catalysis, subtraction
from .catalysis import MAX_PHOTONS, CatalysisConfig, SourceParams, TwoModeCovariance
from .errors import ConsistencyError
from .subtraction import SubtractionConfig

Scheme = CatalysisConfig | SubtractionConfig | None

DEFAULT_ATTENUATION_DB_PER_KM = 0.2
_NU_MIN = 1.0 - 1e-9  # the smallest symplectic eigenvalue taken as 1, not refused


@dataclass(frozen=True)
class SchemeFamily:
    """A heralding scheme with its transmittance left open.

    ``kind`` is ``"bsqc"`` (``photons`` catalysed on both arms), ``"ssqc"``
    (on the idler arm only) or ``"subtraction"`` (one photon tapped off the
    idler; ``photons`` stays 0).  The optimisers take a family and vary the
    transmittance; :meth:`at` gives the concrete scheme at one.
    """

    kind: str
    photons: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("bsqc", "ssqc", "subtraction"):
            raise ValueError(f"unknown scheme family {self.kind!r}")
        if self.kind == "subtraction" and self.photons != 0:
            raise ValueError("photon subtraction has no catalysed photon number")
        if not isinstance(self.photons, int) or not 0 <= self.photons <= MAX_PHOTONS:
            raise ValueError(f"photon number {self.photons!r} outside 0..{MAX_PHOTONS}")

    def at(self, t: float) -> CatalysisConfig | SubtractionConfig:
        """The scheme of this family at transmittance ``t``; an untouched arm has t = 1."""
        if self.kind == "subtraction":
            return SubtractionConfig(t=t)
        m, n = self.photon_columns
        return CatalysisConfig(m, n, t if self.kind == "bsqc" else 1.0, t)

    def heralds(self, t: float) -> bool:
        """False where the family heralds nothing (subtraction at t >= 1): its rate there is 0."""
        return not (self.kind == "subtraction" and t >= 1.0)

    @property
    def photon_columns(self) -> tuple[int | None, int | None]:
        """Photons catalysed on the signal and idler arms, ``(m, n)``; ``None`` for subtraction."""
        if self.kind == "subtraction":
            return None, None
        return (self.photons if self.kind == "bsqc" else 0), self.photons


# the catalysis families that the CLI sweeps by default and `catqkd verify` checks
CATALYSIS_FAMILIES = tuple(SchemeFamily(kind, k) for kind in ("bsqc", "ssqc") for k in (0, 1, 2))


def channel_transmittance(distance_km: float, atten_db_per_km: float = DEFAULT_ATTENUATION_DB_PER_KM) -> float:
    """Fibre transmittance 10**(-atten*d/10)."""
    if distance_km < 0.0:
        raise ValueError(f"distance must be non-negative, got {distance_km}")
    if not distance_km < math.inf:
        raise ValueError(f"distance must be finite, got {distance_km}")
    if not 0.0 <= atten_db_per_km < math.inf:
        raise ValueError(f"attenuation must be finite and non-negative, "
                         f"got {atten_db_per_km} dB/km")
    return 10.0 ** (-atten_db_per_km * distance_km / 10.0)


@dataclass(frozen=True)
class ChannelParams:
    """Transmittance and excess noise of the quantum channel."""

    tc: float
    epsilon: float = 0.0
    xi: float = field(init=False, repr=False, compare=False)  # input noise (1 - tc)/tc + epsilon

    def __post_init__(self) -> None:
        if not 0.0 < self.tc <= 1.0:
            raise ValueError(f"channel transmittance {self.tc} outside (0, 1]")
        if not (0.0 <= self.epsilon < math.inf):
            raise ValueError(f"excess noise must be finite and non-negative, got {self.epsilon}")
        xi = (1.0 - self.tc) / self.tc + self.epsilon
        if not math.isfinite(xi):
            raise ValueError(f"channel noise (1 - tc)/tc + epsilon overflows at tc={self.tc}, "
                             f"epsilon={self.epsilon}")
        object.__setattr__(self, "xi", xi)

    @classmethod
    def from_distance(cls, distance_km: float, epsilon: float = 0.0,
                      atten_db_per_km: float = DEFAULT_ATTENUATION_DB_PER_KM) -> "ChannelParams":
        return cls(tc=channel_transmittance(distance_km, atten_db_per_km), epsilon=epsilon)


@dataclass(frozen=True)
class ProtocolParams:
    """Source, optional heralding scheme and reconciliation efficiency.

    :func:`secret_key_rate` takes a concrete scheme, whose state
    :func:`source_state` builds; the optimisers take a :class:`SchemeFamily`.
    ``None`` is the bare protocol for both.
    """

    source: SourceParams
    scheme: Scheme | SchemeFamily = None
    beta: float = 0.95

    def __post_init__(self) -> None:
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"reconciliation efficiency {self.beta} outside (0, 1]")


@dataclass(frozen=True)
class KeyRateResult:
    """Per-pulse key rate and its ingredients (rates in bits per pulse)."""

    p_success: float
    i_ab: float
    holevo: float
    raw: float
    key_rate: float
    symplectic: tuple[float, float, float]


def source_state(scheme: Scheme, source: SourceParams) -> tuple[float, TwoModeCovariance]:
    """Heralding probability and covariance of the state ``scheme`` prepares from ``source``.

    ``None`` is the bare source.  The key rate, the optimiser's grid and its
    golden-section probes all take their states from here.
    """
    if scheme is None:
        return 1.0, catalysis.tmsv_covariance(source)
    if isinstance(scheme, CatalysisConfig):
        return catalysis.pd_and_covariance(scheme, source)
    if isinstance(scheme, SubtractionConfig):
        return subtraction.p1_and_covariance(scheme, source)
    raise TypeError(f"unsupported scheme {scheme!r}")


def propagate_covariance(cov: TwoModeCovariance, ch: ChannelParams) -> TwoModeCovariance:
    """Covariance after Bob's mode passes the channel."""
    return TwoModeCovariance(
        x=cov.x,
        y=ch.tc * (cov.y + ch.xi),
        z=math.sqrt(ch.tc) * cov.z,
    )


def _mutual_products(x, y, z, xi, pw):
    """``joint = (x + 1)(y + xi)`` and ``joint - z**2``: the mutual information's ratio."""
    joint = (x + 1.0) * (y + xi)
    return joint, joint - pw(z, 2)


def _spectrum_products(x, y, z, tc, xi, pw):
    """Bob's variance ``yb``, ``tc z**2``, the invariant ``big``, its discriminant, ``nu3**2``."""
    z2 = pw(z, 2)
    yb, zz = tc * (y + xi), tc * z2
    big = pw(x, 2) + pw(yb, 2) - 2.0 * zz
    return yb, zz, big, pw(big, 2) - 4.0 * pw(x * yb - zz, 2), x * (x - z2 / (y + xi))


def _information(joint, conditional, log2):
    """The mutual information in bits, from :func:`_mutual_products`."""
    return 0.5 * log2(joint / conditional)


def _entropy_terms(v, log2):
    """``(v + 1) log2(v + 1)`` and ``v log2(v)``, whose difference is g(v); both 0 at v = 0."""
    return (v + 1.0) * log2(v + 1.0), v * log2(v + (v == 0.0))


def _rate(p_success, beta, i_ab, g1, g2, g3):
    """The Holevo term from the three entropies, and the raw rate."""
    holevo = g1 + g2 - g3
    return holevo, p_success * (beta * i_ab - holevo)


def mutual_information(cov: TwoModeCovariance, xi: float) -> float:
    """Alice-Bob mutual information in bits per pulse.

    Takes the pre-channel covariance plus the total noise ``xi``; the
    channel transmittance cancels between signal and conditional
    variances, so it never appears.
    """
    if not 0.0 <= xi < math.inf:
        raise ValueError(f"total noise xi must be finite and non-negative, got {xi}")
    joint, conditional = _mutual_products(cov.x, cov.y, cov.z, xi, pow)
    if not math.isfinite(joint):
        raise ConsistencyError(f"mutual information overflows a float: (x + 1)(y + xi) is inf "
                               f"at x={cov.x}, y={cov.y}, xi={xi}")
    return _information(joint, conditional, math.log2)


def von_neumann_g(x: float) -> float:
    """Entropy of a thermal state with mean photon number x.

    g(x) = (x+1) log2(x+1) - x log2(x), continuously extended by g(0)=0.
    """
    if 0.0 < x < math.inf:
        up, down = _entropy_terms(x, math.log2)
        return up - down
    if x < -1e-9:
        raise ValueError(f"mean photon number must be non-negative, got {x}")
    if x <= 0.0:
        return 0.0
    raise ValueError(f"mean photon number must be finite, got {x}")


def symplectic_eigenvalues(cov: TwoModeCovariance, ch: ChannelParams) -> tuple[float, float, float]:
    """Symplectic spectra entering the Holevo bound.

    Returns ``(l1, l2, l3)``: the two eigenvalues of the shared state
    after the channel and the single eigenvalue of Alice's state
    conditioned on Bob's homodyne outcome.
    """
    try:
        yb, zz, big, disc, l3sq = _spectrum_products(cov.x, cov.y, cov.z, ch.tc, ch.xi, pow)
    except OverflowError:  # a square past the largest float
        raise ConsistencyError(f"symplectic invariant overflows a float at Bob's variance "
                               f"{ch.tc * (cov.y + ch.xi)} after the channel") from None
    try:
        return _checked_eigenvalues(big, disc, l3sq)
    except ConsistencyError:
        # near a pure state big**2 - 4*det**2 cancels to ~1e-16*big**2, or below 0, and its
        # root splits the two eigenvalues by ~1e-8; the factored discriminant does not cancel.
        # Only a refused state takes it, so every accepted spectrum keeps its bits.
        return _checked_eigenvalues(big, (cov.x - yb)**2 * ((cov.x + yb)**2 - 4.0 * zz), l3sq)


def _checked_eigenvalues(big: float, disc: float, l3sq: float) -> tuple[float, float, float]:
    if disc < 0.0:
        raise ConsistencyError(f"unphysical state: discriminant {disc}")
    root = math.sqrt(disc)
    out = []
    for sq in (0.5 * (big + root), 0.5 * (big - root), l3sq):
        val = math.sqrt(0.0 if sq < 0.0 else sq)  # max(sq, 0.0) and max(val, 1.0), without a call
        if val < _NU_MIN:
            raise ConsistencyError(f"unphysical state: symplectic eigenvalue {val} < 1")
        out.append(1.0 if val < 1.0 else val)
    return out[0], out[1], out[2]


def _rate_terms(p_success: float, cov: TwoModeCovariance, ch: ChannelParams, beta: float
                ) -> tuple[float, float, tuple[float, float, float], float]:
    """The float path: ``i_ab``, ``holevo``, the symplectic spectrum and the raw rate."""
    i_ab = mutual_information(cov, ch.xi)
    l1, l2, l3 = symplectic_eigenvalues(cov, ch)
    holevo, raw = _rate(p_success, beta, i_ab, von_neumann_g((l1 - 1.0) / 2.0),
                        von_neumann_g((l2 - 1.0) / 2.0), von_neumann_g((l3 - 1.0) / 2.0))
    return i_ab, holevo, (l1, l2, l3), raw


def secret_key_rate(p: ProtocolParams, ch: ChannelParams) -> KeyRateResult:
    """Asymptotic reverse-reconciliation key rate against collective attacks."""
    p_success, cov = source_state(p.scheme, p.source)
    i_ab, holevo, symplectic, raw = _rate_terms(p_success, cov, ch, p.beta)
    return KeyRateResult(
        p_success=p_success,
        i_ab=i_ab,
        holevo=holevo,
        raw=raw,
        key_rate=max(0.0, raw),
        symplectic=symplectic,
    )


def _log2(values: np.ndarray) -> np.ndarray:
    # math.log2 value by value: numpy's log2 may differ from it in the last bit
    return np.fromiter(map(math.log2, memoryview(values.ravel())), float,
                       values.size).reshape(values.shape)


def _vector_rates(p_success, beta, joint, conditional, v, log2):
    """Raw rates, ``i_ab`` and the entropy terms of ``v``, the stacked ``(nu - 1)/2``."""
    i_ab = _information(joint, conditional, log2)
    up, down = _entropy_terms(v, log2)
    return _rate(p_success, beta, i_ab, *(up - down))[1], i_ab, up, down


# Where np.log2 and math.log2 differ (by 1 ulp, 2**-52 of their value, at
# most), the two raw rates differ by that share of each term's size plus the
# roundings of the seven operations after the logarithms in both: less than
# 2**-49 of the terms' summed size.  The bound is 2**-36 of it, 2**16 ulp, so
# the exact rate lies strictly within the bound of the vector one.
_SIGN_BOUND = 2.0**-36


def grid_best(t: Sequence[float] | None, p_success: np.ndarray, x: np.ndarray, y: np.ndarray,
              z: np.ndarray, channels: Sequence[ChannelParams], beta: float
              ) -> list[tuple[int, float]]:
    """Per channel, the best key rate of the states ``(p_success, x, y, z)`` prepared at ``t``.

    One pair ``(k, rate)`` per channel: the first index of the largest rate
    and that rate, with the bits of :func:`secret_key_rate`; ``(0, 0.0)``
    when no rate is positive.  Numpy's ``log2`` may differ from ``math.log2``
    in the last bit, so its rates are taken within a bound, ``2**-36`` times
    ``p_success`` times the summed sizes of the logarithmic terms.  Only the
    cells that may be a row's maximum or tie it are recomputed with ``math.log2``.

    It checks nothing itself: a cell whose array rate is not finite, or with an
    eigenvalue below ``_NU_MIN``, goes to :func:`_rate_terms` in row order, and its
    first refusal is raised with ``t`` (``None`` leaves it out) and the channel.
    """
    tc = np.array([c.tc for c in channels])[:, None]
    xi = np.array([c.xi for c in channels])[:, None]
    with np.errstate(all="ignore"):
        joint, conditional = _mutual_products(x, y, z, xi, np.float_power)
        _, _, big, disc, l3sq = _spectrum_products(x, y, z, tc, xi, np.float_power)
        root = np.sqrt(disc)
        nu = np.sqrt([0.5 * (big + root), 0.5 * (big - root), l3sq])
        v = (np.maximum(nu, 1.0) - 1.0) / 2.0
        raw, i_ab, up, down = _vector_rates(p_success, beta, joint, conditional, v, np.log2)
        size = beta * i_ab + (up + np.abs(down)).sum(axis=0)  # i_ab and up are >= 0
        # at least the smallest normal number: a rate that rounds to a subnormal is not decided
        bound = np.maximum(_SIGN_BOUND * p_success * size, np.finfo(float).tiny)
        deferred = ~np.isfinite(raw) | (nu < _NU_MIN).any(axis=0)
    for i, k in zip(*(a.tolist() for a in np.nonzero(deferred))):  # in row order
        try:
            raw[i, k] = _rate_terms(float(p_success[k]), TwoModeCovariance(
                float(x[k]), float(y[k]), float(z[k])), channels[i], beta)[-1]
        except ConsistencyError as exc:
            where = "" if t is None else f" at t={t[k]}"
            raise ConsistencyError(f"{exc}{where} on {channels[i]}") from None
        bound[i, k] = 0.0  # the float path's rate is exact
    upper = raw + bound
    lower = np.fmax.reduce(raw - bound, axis=1)[:, None]  # of the row's best cell
    kept = ~((upper <= 0.0) | (upper < lower))
    rows, cols = np.nonzero(kept & (bound > 0.0))
    raw[rows, cols] = _vector_rates(p_success[cols], beta, joint[rows, cols],
                                    conditional[rows, cols], v[:, rows, cols], _log2)[0]
    # argmax takes a row's first maximum; a row without a positive kept rate is all 0.0: (0, 0.0)
    rates = np.where(kept & (raw > 0.0), raw, 0.0)
    return list(zip(rates.argmax(axis=1).tolist(), rates.max(axis=1).tolist()))


def plob_bound(tc: float) -> float:
    """Repeaterless capacity -log2(1 - tc) of the pure-loss channel.

    Taken as ``-log1p(-tc)/ln 2``: ``1 - tc`` would lose the digits of a small ``tc``.
    """
    if not 0.0 < tc <= 1.0:
        raise ValueError(f"channel transmittance {tc} outside (0, 1]")
    if tc == 1.0:
        raise ValueError("infinite capacity at unit transmittance")
    return -math.log1p(-tc) / math.log(2.0)
