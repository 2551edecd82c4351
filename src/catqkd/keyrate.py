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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import catalysis, subtraction
from .catalysis import CatalysisConfig, SourceParams, TwoModeCovariance
from .errors import ConsistencyError
from .subtraction import SubtractionConfig

Scheme = CatalysisConfig | SubtractionConfig | None

DEFAULT_ATTENUATION_DB_PER_KM = 0.2


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

    def at(self, t: float) -> CatalysisConfig | SubtractionConfig:
        """The scheme of this family at transmittance ``t``."""
        if self.kind == "bsqc":
            return CatalysisConfig.bsqc(self.photons, t)
        if self.kind == "ssqc":
            return CatalysisConfig.ssqc(self.photons, t)
        return SubtractionConfig(t=t)

    def heralds(self, t: float) -> bool:
        """False where the family heralds nothing (subtraction at t >= 1): its rate there is 0."""
        return not (self.kind == "subtraction" and t >= 1.0)

    @property
    def photon_columns(self) -> tuple[int | None, int | None]:
        """Photons catalysed on the signal and idler arms, ``(m, n)``; ``None`` for subtraction."""
        if self.kind == "subtraction":
            return None, None
        return (self.photons if self.kind == "bsqc" else 0), self.photons


def channel_transmittance(distance_km: float, atten_db_per_km: float = DEFAULT_ATTENUATION_DB_PER_KM) -> float:
    """Fibre transmittance 10**(-atten*d/10)."""
    if distance_km < 0.0:
        raise ValueError(f"distance must be non-negative, got {distance_km}")
    return 10.0 ** (-atten_db_per_km * distance_km / 10.0)


@dataclass(frozen=True)
class ChannelParams:
    """Transmittance and excess noise of the quantum channel."""

    tc: float
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.tc <= 1.0:
            raise ValueError(f"channel transmittance {self.tc} outside (0, 1]")
        if not (0.0 <= self.epsilon < math.inf):
            raise ValueError(f"excess noise must be finite and non-negative, got {self.epsilon}")

    @property
    def xi(self) -> float:
        """Total input-referred noise (1 - tc)/tc + epsilon."""
        return (1.0 - self.tc) / self.tc + self.epsilon

    @classmethod
    def from_distance(cls, distance_km: float, epsilon: float = 0.0,
                      atten_db_per_km: float = DEFAULT_ATTENUATION_DB_PER_KM) -> "ChannelParams":
        return cls(tc=channel_transmittance(distance_km, atten_db_per_km), epsilon=epsilon)


@dataclass(frozen=True)
class ProtocolParams:
    """Source, optional heralding scheme and reconciliation efficiency.

    :func:`secret_key_rate` takes a concrete scheme; the optimisers take a
    :class:`SchemeFamily`.  ``None`` is the bare protocol for both.
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


def source_state(p: ProtocolParams) -> tuple[float, TwoModeCovariance]:
    """Heralding probability and covariance of the prepared state."""
    if p.scheme is None:
        return 1.0, catalysis.tmsv_covariance(p.source)
    if isinstance(p.scheme, CatalysisConfig):
        return catalysis.pd_and_covariance(p.scheme, p.source)
    if isinstance(p.scheme, SubtractionConfig):
        return subtraction.p1_and_covariance(p.scheme, p.source)
    raise TypeError(f"unsupported scheme {p.scheme!r}")


def propagate_covariance(cov: TwoModeCovariance, ch: ChannelParams) -> TwoModeCovariance:
    """Covariance after Bob's mode passes the channel."""
    return TwoModeCovariance(
        x=cov.x,
        y=ch.tc * (cov.y + ch.xi),
        z=math.sqrt(ch.tc) * cov.z,
    )


def mutual_information(cov: TwoModeCovariance, xi: float) -> float:
    """Alice-Bob mutual information in bits per pulse.

    Takes the pre-channel covariance plus the total noise ``xi``; the
    channel transmittance cancels between signal and conditional
    variances, so it never appears.
    """
    joint = (cov.x + 1.0) * (cov.y + xi)
    conditional = joint - cov.z**2
    if conditional <= 0.0:
        raise ConsistencyError("conditional variance non-positive")
    return 0.5 * math.log2(joint / conditional)


def von_neumann_g(x: float) -> float:
    """Entropy of a thermal state with mean photon number x.

    g(x) = (x+1) log2(x+1) - x log2(x), continuously extended by g(0)=0.
    """
    if x < -1e-9:
        raise ValueError(f"mean photon number must be non-negative, got {x}")
    if x <= 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def symplectic_eigenvalues(cov: TwoModeCovariance, ch: ChannelParams) -> tuple[float, float, float]:
    """Symplectic spectra entering the Holevo bound.

    Returns ``(l1, l2, l3)``: the two eigenvalues of the shared state
    after the channel and the single eigenvalue of Alice's state
    conditioned on Bob's homodyne outcome.
    """
    yb = ch.tc * (cov.y + ch.xi)          # Bob's variance after the channel
    zz = ch.tc * cov.z**2                 # squared correlation after the channel
    big = cov.x**2 + yb**2 - 2.0 * zz
    det = cov.x * yb - zz
    disc = big**2 - 4.0 * det**2
    if disc < 0.0:
        if disc >= -1e-12 * max(1.0, big**2):
            disc = 0.0
        else:
            raise ConsistencyError(f"unphysical state: discriminant {disc}")
    root = math.sqrt(disc)
    l3sq = cov.x * (cov.x - cov.z**2 / (cov.y + ch.xi))
    out = []
    for sq in (0.5 * (big + root), 0.5 * (big - root), l3sq):
        val = math.sqrt(max(sq, 0.0))
        if val < 1.0 - 1e-9:
            raise ConsistencyError(f"unphysical state: symplectic eigenvalue {val} < 1")
        out.append(max(val, 1.0))
    return out[0], out[1], out[2]


def secret_key_rate(p: ProtocolParams, ch: ChannelParams) -> KeyRateResult:
    """Asymptotic reverse-reconciliation key rate against collective attacks."""
    p_success, cov = source_state(p)
    i_ab = mutual_information(cov, ch.xi)
    l1, l2, l3 = symplectic_eigenvalues(cov, ch)
    holevo = (
        von_neumann_g((l1 - 1.0) / 2.0)
        + von_neumann_g((l2 - 1.0) / 2.0)
        - von_neumann_g((l3 - 1.0) / 2.0)
    )
    raw = p_success * (p.beta * i_ab - holevo)
    return KeyRateResult(
        p_success=p_success,
        i_ab=i_ab,
        holevo=holevo,
        raw=raw,
        key_rate=max(0.0, raw),
        symplectic=(l1, l2, l3),
    )


def _sq(values: np.ndarray) -> np.ndarray:
    # the C library's pow, as Python's ** 2 on floats: numpy's x ** 2 is x * x
    return np.float_power(values, 2)


def _log2(values: np.ndarray) -> np.ndarray:
    # math.log2 value by value: numpy's log2 may differ from it in the last bit
    return np.fromiter(map(math.log2, values.ravel().tolist()), float,
                       values.size).reshape(values.shape)


def grid_key_rates(t: np.ndarray, p_success: np.ndarray, x: np.ndarray, y: np.ndarray,
                   z: np.ndarray, ch: ChannelParams, beta: float) -> np.ndarray:
    """Key rates of the states ``(p_success, x, y, z)`` prepared at transmittances ``t``.

    The array form of :func:`secret_key_rate`: the same formulas in the same
    floating-point operations, so every rate has the same bits.  It checks
    what :class:`TwoModeCovariance`, :func:`mutual_information` and
    :func:`symplectic_eigenvalues` check and raises :class:`ConsistencyError`
    naming the first failing ``t``, which is read for that message only.
    ``p_success`` is taken as given: it is checked where it is computed.
    """
    tol = 1e-9
    joint = (x + 1.0) * (y + ch.xi)
    conditional = joint - _sq(z)
    yb = ch.tc * (y + ch.xi)
    zz = ch.tc * _sq(z)
    big = _sq(x) + _sq(yb) - 2.0 * zz
    det = x * yb - zz
    disc = _sq(big) - 4.0 * _sq(det)
    root = np.sqrt(np.maximum(disc, 0.0))
    l3sq = x * (x - _sq(z) / (y + ch.xi))
    nu = np.sqrt(np.maximum([0.5 * (big + root), 0.5 * (big - root), l3sq], 0.0))
    physical = (np.isfinite(x) & np.isfinite(y) & np.isfinite(z) & (x >= 1.0 - tol)
                & (y >= 1.0 - tol) & (x * y - _sq(z) >= 1.0 - tol))
    checks = [  # in the order secret_key_rate meets them
        (~physical, lambda i: f"unphysical covariance: x={x[i]}, y={y[i]}, z={z[i]}"),
        (conditional <= 0.0, lambda i: "conditional variance non-positive"),
        (disc < -1e-12 * np.maximum(1.0, _sq(big)),
         lambda i: f"unphysical state: discriminant {disc[i]}"),
        *((nu[k] < 1.0 - tol, lambda i, k=k: f"unphysical state: symplectic eigenvalue {nu[k, i]} < 1")
          for k in range(3)),
    ]
    failed = np.any([bad for bad, _ in checks], axis=0)
    if failed.any():
        i = int(failed.argmax())
        message = next(text for bad, text in checks if bad[i])
        raise ConsistencyError(f"{message(i)} at t={t[i]}")
    v = (np.maximum(nu, 1.0) - 1.0) / 2.0
    w = np.where(v <= 0.0, 1.0, v)  # von_neumann_g, which is 0 at v = 0 and NaN at NaN
    g = np.where(v <= 0.0, 0.0, (w + 1.0) * _log2(w + 1.0) - w * _log2(w))
    raw = p_success * (beta * (0.5 * _log2(joint / conditional)) - (g[0] + g[1] - g[2]))
    return np.where(raw > 0.0, raw, 0.0)


def plob_bound(tc: float) -> float:
    """Repeaterless capacity -log2(1 - tc) of the pure-loss channel."""
    if not 0.0 < tc <= 1.0:
        raise ValueError(f"channel transmittance {tc} outside (0, 1]")
    if tc == 1.0:
        raise ValueError("infinite capacity at unit transmittance")
    return -math.log2(1.0 - tc)
