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

:func:`grid_best` serves every search over a transmittance grid: per
channel of a sequence, the first index of the largest grid rate and that
rate, with the bits of :func:`secret_key_rate`.  It takes numpy's vector
``log2`` with an error bound to rule out the cells that can be neither the
maximum nor tie it, and exact ``math.log2`` logarithms for the few left.
It checks nothing itself and takes the states as :func:`source_state`
gives them: the scalar formula decides each cell whose vector rate is not
finite or whose spectrum falls below 1, so every refusal and every edge
rate is the one :func:`secret_key_rate` gives.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

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
        if not math.isfinite(self.xi):
            raise ValueError(f"channel noise (1 - tc)/tc + epsilon overflows at tc={self.tc}, "
                             f"epsilon={self.epsilon}")

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


def mutual_information(cov: TwoModeCovariance, xi: float) -> float:
    """Alice-Bob mutual information in bits per pulse.

    Takes the pre-channel covariance plus the total noise ``xi``; the
    channel transmittance cancels between signal and conditional
    variances, so it never appears.
    """
    joint = (cov.x + 1.0) * (cov.y + xi)
    if not math.isfinite(joint):
        raise ConsistencyError(f"mutual information overflows a float: (x + 1)(y + xi) is inf "
                               f"at x={cov.x}, y={cov.y}, xi={xi}")
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
    det = cov.x * yb - zz
    l3sq = cov.x * (cov.x - cov.z**2 / (cov.y + ch.xi))
    try:
        big = cov.x**2 + yb**2 - 2.0 * zz
        disc = big**2 - 4.0 * det**2
    except OverflowError:  # a float power, past about 1e77 for yb
        raise ConsistencyError(f"symplectic invariant overflows a float at Bob's variance "
                               f"{yb} after the channel") from None
    try:
        return _checked_eigenvalues(big, disc, l3sq)
    except ConsistencyError:
        # near a pure state big**2 - 4*det**2 cancels to ~1e-16*big**2, or below 0,
        # and its root splits the two eigenvalues by ~1e-8; the factored discriminant
        # does not cancel.  Only a refused state takes it, so every accepted
        # spectrum keeps its bits.  grid_best hands such cells here; it keeps no copy.
        return _checked_eigenvalues(big, (cov.x - yb)**2 * ((cov.x + yb)**2 - 4.0 * zz), l3sq)


def _checked_eigenvalues(big: float, disc: float, l3sq: float) -> tuple[float, float, float]:
    if disc < 0.0:
        raise ConsistencyError(f"unphysical state: discriminant {disc}")
    root = math.sqrt(disc)
    out = []
    for sq in (0.5 * (big + root), 0.5 * (big - root), l3sq):
        val = math.sqrt(max(sq, 0.0))
        if val < _NU_MIN:
            raise ConsistencyError(f"unphysical state: symplectic eigenvalue {val} < 1")
        out.append(max(val, 1.0))
    return out[0], out[1], out[2]


def _rate_terms(p_success: float, cov: TwoModeCovariance, ch: ChannelParams, beta: float
                ) -> tuple[float, float, tuple[float, float, float], float]:
    """``i_ab``, ``holevo``, the symplectic spectrum and the raw rate of a heralded state.

    The one scalar formula of the rate: :func:`secret_key_rate` and the
    optimiser's golden-section probes both take their rates from here.
    """
    i_ab = mutual_information(cov, ch.xi)
    l1, l2, l3 = symplectic_eigenvalues(cov, ch)
    holevo = (
        von_neumann_g((l1 - 1.0) / 2.0)
        + von_neumann_g((l2 - 1.0) / 2.0)
        - von_neumann_g((l3 - 1.0) / 2.0)
    )
    return i_ab, holevo, (l1, l2, l3), p_success * (beta * i_ab - holevo)


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


def _sq(values: np.ndarray) -> np.ndarray:
    # the C library's pow, as Python's ** 2 on floats: numpy's x ** 2 is x * x
    return np.float_power(values, 2)


def _log2(values: np.ndarray) -> np.ndarray:
    # math.log2 value by value: numpy's log2 may differ from it in the last bit
    return np.fromiter(map(math.log2, memoryview(values.ravel())), float,
                       values.size).reshape(values.shape)


def _spectra(x: np.ndarray, y: np.ndarray, z: np.ndarray, channels: Sequence[ChannelParams]
             ) -> tuple[np.ndarray, np.ndarray]:
    """The ratio ``joint/conditional`` and the eigenvalues, shapes (channels, len(t)) and (3, ...).

    The operations of :func:`mutual_information` and :func:`symplectic_eigenvalues`
    without their checks: where those refuse a physical state, its rate here is NaN or
    infinite, or an eigenvalue is below ``_NU_MIN``.
    """
    tc = np.array([c.tc for c in channels])[:, None]
    xi = np.array([c.xi for c in channels])[:, None]
    z2 = _sq(z)
    joint = (x + 1.0) * (y + xi)
    yb = tc * (y + xi)
    zz = tc * z2
    big = _sq(x) + _sq(yb) - 2.0 * zz
    root = np.sqrt(_sq(big) - 4.0 * _sq(x * yb - zz))
    l3sq = x * (x - z2 / (y + xi))
    return joint / (joint - z2), np.sqrt([0.5 * (big + root), 0.5 * (big - root), l3sq])


def _raw_rates(p_success: np.ndarray, beta: float, ratio: np.ndarray, v: np.ndarray, log2
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Raw rates of the cells ``(ratio, v)`` in the operations of :func:`_rate_terms`.

    ``log2`` takes the logarithms.  Also returns the logarithmic terms
    ``0.5*log2(ratio)`` and, per eigenvalue, ``(w+1)*log2(w+1)`` and
    ``w*log2(w)``, where ``w = v``, or 1 where ``v <= 0``.
    """
    vacuum = v <= 0.0
    w = np.where(vacuum, 1.0, v)  # von_neumann_g, which is 0 at v = 0 and NaN at NaN
    half_log, up, down = 0.5 * log2(ratio), (w + 1.0) * log2(w + 1.0), w * log2(w)
    g = np.where(vacuum, 0.0, up - down)
    return p_success * (beta * half_log - (g[0] + g[1] - g[2])), half_log, up, down


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
    when no rate is positive.  The rates are first computed with numpy's
    ``log2``, which may differ from ``math.log2`` in the last bit, within a
    bound: ``2**-36`` times ``p_success`` times the summed sizes of the
    logarithmic terms.  A cell whose upper bound is at most 0, or below the
    largest lower bound of its row, can neither be the maximum nor tie it;
    every other cell is recomputed with ``math.log2``.

    It checks nothing itself and takes the states as :func:`source_state`
    gives them.  A cell whose vector rate is not finite, or with an
    eigenvalue below ``_NU_MIN``, goes to :func:`_rate_terms` in row order:
    the rate it gives is exact, and its first refusal is raised with ``t``
    and the channel appended (``t`` is read for that message only; ``None``
    leaves it out).
    """
    with np.errstate(all="ignore"):
        ratio, nu = _spectra(x, y, z, channels)
        v = (np.maximum(nu, 1.0) - 1.0) / 2.0
        raw, half_log, up, down = _raw_rates(p_success, beta, ratio, v, np.log2)
        # half_log and up are >= 0; a vacuum eigenvalue's terms, 2 and 0, only widen the bound
        size = beta * half_log + (up + np.abs(down)).sum(axis=0)
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
        bound[i, k] = 0.0  # the scalar formula's rate is exact
    upper = raw + bound
    lower = np.fmax.reduce(raw - bound, axis=1)[:, None]  # of the row's best cell
    kept = ~((upper <= 0.0) | (upper < lower))
    rows, cols = np.nonzero(kept & (bound > 0.0))
    raw[rows, cols] = _raw_rates(p_success[cols], beta, ratio[rows, cols], v[:, rows, cols],
                                 _log2)[0]
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
