"""Single-photon subtraction on the idler arm of a two-mode squeezed vacuum.

The idler passes a beam splitter of transmittance ``t`` and the event is
kept when exactly one photon appears in the reflected port.  Everything
is closed form: with ``a2 = (1-lam**2)(1-t)/t`` and ``b2 = lam**2 t`` the
heralded state is ``sqrt(a2/b2) * sum_l b**l sqrt(l) |l, l-1>``, giving

    P1 = a2 b2 / (1 - b2)**2
    x  = (3 + b2) / (1 - b2)        (Alice keeps the extra photon)
    y  = (1 + 3 b2) / (1 - b2)
    z  = 4 sqrt(b2) / (1 - b2)

and x*y - z**2 = 3 identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalysis import SourceParams, TwoModeCovariance
from .errors import ConsistencyError


@dataclass(frozen=True)
class SubtractionConfig:
    """Transmittance of the tap beam splitter, strictly inside (0, 1)."""

    t: float

    def __post_init__(self) -> None:
        if not 0.0 < self.t < 1.0:
            raise ValueError(f"transmittance t={self.t} outside (0, 1)")


def closed_forms(t: float, src: SourceParams) -> tuple[float, float, float, float]:
    """``(P1, x, y, z)`` at tap transmittance ``t``, for one ``t`` at a time.

    A ``t`` so small that P1 is not finite raises :class:`ConsistencyError`.
    """
    if src.lam == 0.0:
        raise ValueError("photon subtraction cannot herald on a vacuum source")
    # 1 - lam**2 is 1/(1 + alpha**2) exactly, which the difference loses as lam -> 1
    a2, b2 = (1.0 - t) / (t * (1.0 + src.alpha**2)), src.lam**2 * t
    one = 1.0 - b2
    p1 = a2 * b2 / one**2
    if not math.isfinite(p1):
        raise ConsistencyError(f"success probability {p1} is not finite at t={t}, "
                               f"alpha={src.alpha}: (1 - t)/(t (1 + alpha**2)) overflows a float")
    return p1, (3.0 + b2) / one, (1.0 + 3.0 * b2) / one, 4.0 * math.sqrt(b2) / one


def success_probability(cfg: SubtractionConfig, src: SourceParams) -> float:
    """Probability of tapping off exactly one photon (0 from a vacuum source)."""
    return closed_forms(cfg.t, src)[0] if src.lam > 0.0 else 0.0


def p1_and_covariance(cfg: SubtractionConfig, src: SourceParams) -> tuple[float, TwoModeCovariance]:
    """Success probability and covariance of the subtracted state."""
    p1, x, y, z = closed_forms(cfg.t, src)
    return p1, TwoModeCovariance(x=x, y=y, z=z)


def output_covariance(cfg: SubtractionConfig, src: SourceParams) -> TwoModeCovariance:
    """Covariance of the photon-subtracted state (x > y: Alice's side is hotter)."""
    return p1_and_covariance(cfg, src)[1]
