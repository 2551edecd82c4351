"""Searches over transmittance, excess noise and distance.

The key rate is cheap but not concave in the catalyser transmittance, so
the optimiser walks a coarse grid first and then refines the best cell
with a scalar golden-section search.  The grid is evaluated in one array
pass: the source states on it depend on the scheme and the source only,
so they are built once and reused for every channel.  Noise and distance
limits bisect on top of that, re-optimising the transmittance at every
probe; a few probe points past the found edge guard against non-monotone
profiles.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import catalysis, subtraction
from .catalysis import CatalysisConfig, SourceParams
from .keyrate import (ChannelParams, ProtocolParams, channel_transmittance, grid_key_rates,
                      secret_key_rate)
from .subtraction import SubtractionConfig

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TransmittanceOptimum:
    """Best transmittance found, its key rate, and an all-zero flag."""

    t: float
    key_rate: float
    all_zero: bool


def golden_section_max(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Maximise a unimodal function on [a, b] to bracket width tol."""
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_PHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_PHI
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def refine_grid_max(f, grid: Sequence[float], values: Sequence[float],
                    tol: float) -> tuple[float, float]:
    """Refine the best of ``values = [f(t) for t in grid]`` by golden section.

    The search runs over the grid cells on either side of the best point
    and keeps that point if the refinement does no better.
    """
    best = max(range(len(grid)), key=values.__getitem__)
    lo, hi = grid[max(0, best - 1)], grid[min(len(grid) - 1, best + 1)]
    t_ref, v_ref = golden_section_max(f, lo, hi, tol)
    if v_ref < values[best]:
        return grid[best], values[best]
    return t_ref, v_ref


def _with_transmittance(scheme, t: float):
    if isinstance(scheme, SubtractionConfig):
        return SubtractionConfig(t=t)
    if isinstance(scheme, CatalysisConfig):
        if scheme.m == 0 and scheme.t1 == 1.0:
            # single-arm template (the ssqc preset): only the idler varies
            return CatalysisConfig(m=0, n=scheme.n, t1=1.0, t2=t)
        return CatalysisConfig(m=scheme.m, n=scheme.n, t1=t, t2=t)
    raise TypeError(f"scheme {scheme!r} has no transmittance")


def _heralds(scheme, t: float) -> bool:
    # photon subtraction heralds nothing in the t -> 1 limit: its rate there is 0
    return not (isinstance(scheme, SubtractionConfig) and t >= 1.0)


@functools.lru_cache(maxsize=16)
def _grid_states(scheme, source: SourceParams, grid: tuple[float, ...]) -> np.ndarray:
    """Read-only rows ``t, p, x, y, z`` of the states the template prepares on the grid.

    Grid points where the scheme heralds nothing are left out.
    """
    t = [u for u in grid if _heralds(scheme, u)]
    if isinstance(scheme, SubtractionConfig):
        states = np.array([t, *subtraction.closed_forms(np.array(t), source)])
    else:
        rows = []
        for u in t:
            pd, cov = catalysis.pd_and_covariance(_with_transmittance(scheme, u), source)
            rows.append((pd, cov.x, cov.y, cov.z))
        states = np.array([t, *zip(*rows)])
    states.setflags(write=False)
    return states


def _rate_at(p: ProtocolParams, ch: ChannelParams, t: float) -> float:
    if not _heralds(p.scheme, t):
        return 0.0
    return secret_key_rate(replace(p, scheme=_with_transmittance(p.scheme, t)), ch).key_rate


def optimize_transmittance(p: ProtocolParams, ch: ChannelParams,
                           t_min: float = 0.5, t_max: float = 1.0,
                           step: float = 0.005, refine_tol: float = 1e-4) -> TransmittanceOptimum:
    """Best catalyser or tap transmittance for the key rate.

    Templates built by :meth:`CatalysisConfig.ssqc` (m = 0, t1 = 1) keep
    the signal arm open and only the idler transmittance varies; any other
    catalysis template is treated as symmetric with t1 = t2 = t.
    """
    if p.scheme is None:
        raise ValueError("the bare protocol has no transmittance to optimise")
    if not 0.0 < t_min < t_max <= 1.0:
        raise ValueError(f"bad search range [{t_min}, {t_max}]")
    cells = max(1, int(round((t_max - t_min) / step)))
    grid = tuple(t_min + k * (t_max - t_min) / cells for k in range(cells + 1))
    t, *state = _grid_states(p.scheme, p.source, grid)
    rates = grid_key_rates(t, *state, ch, p.beta).tolist()
    rates += [0.0] * (len(grid) - len(rates))  # left out: the points at t >= 1, the last
    if max(rates) <= 0.0:
        return TransmittanceOptimum(t=grid[0], key_rate=0.0, all_zero=True)
    t_ref, r_ref = refine_grid_max(lambda u: _rate_at(p, ch, u), grid, rates, refine_tol)
    return TransmittanceOptimum(t=t_ref, key_rate=r_ref, all_zero=False)


def best_key_rate(p: ProtocolParams, ch: ChannelParams, **opt_kwargs) -> float:
    """Key rate with the transmittance optimised (pass-through for the bare protocol)."""
    if p.scheme is None:
        return secret_key_rate(p, ch).key_rate
    return optimize_transmittance(p, ch, **opt_kwargs).key_rate


def _largest_true(pred, lo: float, hi: float, resolution: float, probes: int = 4) -> float:
    """Largest x in [lo, hi] with pred(x) true, for a single true->false crossing.

    pred(lo) must hold and pred(hi) must fail.  After the bisection a few
    probe points past the edge check for revivals; one revival restarts
    the search with a warning.
    """
    a, b = lo, hi
    while True:
        while b - a > resolution:
            mid = 0.5 * (a + b)
            if pred(mid):
                a = mid
            else:
                b = mid
        if probes <= 0 or hi - b <= resolution:
            return a
        revived = [x for k in range(1, probes + 1)
                   if pred(x := b + (hi - b) * k / probes)]
        if not revived:
            return a
        warnings.warn(
            f"non-monotone profile: condition holds again at {max(revived):.6g}; extending search",
            stacklevel=2,
        )
        a, b = max(revived), hi
        probes = 0


def max_tolerable_excess_noise(p: ProtocolParams, distance_km: float,
                               atten_db_per_km: float = 0.2,
                               eps_max: float = 0.2, tol: float = 1e-5,
                               **opt_kwargs) -> float:
    """Largest excess noise with a positive key rate at the given distance.

    The transmittance is re-optimised at every probed noise value.
    Returns 0 when even a noiseless channel yields no key, and ``eps_max``
    when the whole search interval stays positive.
    """
    tc = channel_transmittance(distance_km, atten_db_per_km)

    def positive(eps: float) -> bool:
        return best_key_rate(p, ChannelParams(tc=tc, epsilon=eps), **opt_kwargs) > 0.0

    if not positive(0.0):
        return 0.0
    if positive(eps_max):
        return eps_max
    return _largest_true(positive, 0.0, eps_max, tol)


def max_distance(p: ProtocolParams, epsilon: float = 0.01, floor: float = 1e-6,
                 atten_db_per_km: float = 0.2, d_max: float = 1500.0,
                 resolution_km: float = 0.1, **opt_kwargs) -> float:
    """Largest distance in km where the optimised key rate stays above floor."""
    if floor <= 0.0:
        raise ValueError(f"key-rate floor must be positive, got {floor}")

    def reaches(d: float) -> bool:
        ch = ChannelParams.from_distance(d, epsilon=epsilon, atten_db_per_km=atten_db_per_km)
        return best_key_rate(p, ch, **opt_kwargs) >= floor

    if not reaches(0.0):
        return 0.0
    if reaches(d_max):
        return d_max
    return _largest_true(reaches, 0.0, d_max, resolution_km)
