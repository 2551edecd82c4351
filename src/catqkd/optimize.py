"""Searches over transmittance, excess noise and distance.

Every search takes the scheme as a :class:`~catqkd.keyrate.SchemeFamily`,
which says what the transmittance t sets: both catalysers (bsqc), the
idler's only (ssqc) or the tap (subtraction, rate 0 at t = 1).  The key
rate is cheap but not concave in t, so the optimiser walks a coarse grid
first and then refines the best cell with a scalar golden-section search.
The grid is evaluated in one array pass: its source states come from
:func:`~catqkd.keyrate.source_state`, one heralded point at a time, and
depend on the family and the source only, so they are built once and
reused for every channel.  A sweep over many channels,
:func:`optimal_transmittances`, evaluates the grid for a block of
channels per pass.  Each golden-section probe builds one state with
:func:`~catqkd.keyrate.source_state` and takes its rate from the scalar
formula of :func:`~catqkd.keyrate.secret_key_rate`.  Noise and distance
limits bisect on top of
that, with a few probe points past the found edge against non-monotone
profiles.  A distance probe whose best grid rate reaches the floor is
decided by the grid pass alone; only the other probes refine the best cell.
The noise limit needs only the sign of the best rate, which the grid pass
alone decides, so it bisects every distance of a sweep in lockstep, one
grid pass over all of them per step; that pass,
:func:`~catqkd.keyrate.grid_has_key`, certifies each rate's sign from
numpy's ``log2`` with an error bound and takes exact logarithms only
where the bound cannot decide.  Every search follows one recipe,
the module constants below.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .catalysis import SourceParams
from .keyrate import (DEFAULT_ATTENUATION_DB_PER_KM, ChannelParams, ProtocolParams, SchemeFamily,
                      _rate_terms, grid_has_key, grid_key_rates, secret_key_rate, source_state)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID = tuple(0.5 + k * (1.0 - 0.5) / 100 for k in range(101))  # the transmittance grid
_REFINE_TOL = 1e-4  # golden-section bracket width
_EPS_MAX, _EPS_TOL = 0.2, 1e-5  # noise search interval [0, _EPS_MAX] and resolution
_D_MAX, _D_RES = 1500.0, 0.1  # distance search interval [0, _D_MAX] km and resolution
_PROBES = 4  # revival probes past a found edge
_BLOCK = 32  # channels per grid pass of optimal_transmittances


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


@functools.lru_cache(maxsize=16)
def _grid_states(family: SchemeFamily, source: SourceParams) -> np.ndarray:
    """Read-only rows ``t, p, x, y, z`` of the states the family prepares on the grid.

    Each is :func:`~catqkd.keyrate.source_state` of the family's scheme at one
    grid point; points where the family heralds nothing are left out.
    """
    t = [u for u in _GRID if family.heralds(u)]
    rows = [(pd, cov.x, cov.y, cov.z)
            for pd, cov in (source_state(family.at(u), source) for u in t)]
    states = np.array([t, *zip(*rows)])
    states.setflags(write=False)
    return states


def _probe_rate(family: SchemeFamily, source: SourceParams, ch: ChannelParams, beta: float,
                t: float) -> float:
    """The key rate of ``family`` at ``t``, with the bits of :func:`secret_key_rate`."""
    if not family.heralds(t):
        return 0.0
    return max(0.0, _rate_terms(*source_state(family.at(t), source), ch, beta)[-1])


def _family(p: ProtocolParams) -> SchemeFamily:
    if p.scheme is None:
        raise ValueError("the bare protocol has no transmittance to optimise")
    if not isinstance(p.scheme, SchemeFamily):
        raise TypeError(f"the optimisers take a SchemeFamily, not {p.scheme!r}")
    return p.scheme


def _grid_rows(p: ProtocolParams, channels: Sequence[ChannelParams]) -> list[list[float]]:
    """Per channel, the rates on the whole grid, from one pass over the cached grid states."""
    t, *state = _grid_states(_family(p), p.source)
    left_out = [0.0] * (len(_GRID) - len(t))  # the points at t >= 1
    return [rates + left_out for rates in grid_key_rates(t, *state, channels, p.beta).tolist()]


def _refine(p: ProtocolParams, ch: ChannelParams, rates: list[float]) -> TransmittanceOptimum:
    if max(rates) <= 0.0:
        return TransmittanceOptimum(t=_GRID[0], key_rate=0.0, all_zero=True)
    probe = functools.partial(_probe_rate, p.scheme, p.source, ch, p.beta)
    t_ref, r_ref = refine_grid_max(probe, _GRID, rates, _REFINE_TOL)
    return TransmittanceOptimum(t=t_ref, key_rate=r_ref, all_zero=False)


def optimal_transmittances(p: ProtocolParams, channels: Sequence[ChannelParams]
                           ) -> list[TransmittanceOptimum]:
    """Best catalyser or tap transmittance of the family ``p.scheme`` on each channel.

    Each channel gets the optimum it would get alone.  One grid pass covers
    a block of up to 32 channels (``_BLOCK``), so only one block of rates is
    held at a time, and each channel's best grid cell is then refined on its
    own.  A state that the grid pass refuses raises
    :class:`~catqkd.errors.ConsistencyError` naming ``t`` and the channel.
    """
    channels = list(channels)
    _family(p)  # refused with no channel too
    optima = []
    for k in range(0, len(channels), _BLOCK):
        block = channels[k:k + _BLOCK]
        optima += [_refine(p, ch, rates) for ch, rates in zip(block, _grid_rows(p, block))]
    return optima


def optimize_transmittance(p: ProtocolParams, ch: ChannelParams) -> TransmittanceOptimum:
    """Best catalyser or tap transmittance for the key rate of the family ``p.scheme``.

    :func:`optimal_transmittances` on the one channel ``ch``.
    """
    return optimal_transmittances(p, [ch])[0]


def _largest_true(pred, lo: Sequence[float], hi: Sequence[float], resolution: float) -> list[float]:
    """Per lane i, the largest x in [lo[i], hi[i]] with the condition true.

    ``pred(lanes, xs)`` says for each lane index in ``lanes`` whether the
    condition holds at the matching x; every step is one call over the
    lanes still searching, so the lanes run in lockstep.  A lane gives
    lo[i] where the condition fails there and hi[i] where it holds there;
    otherwise it bisects, for a single true->false crossing.  After the
    bisection a few probe points past the edge check for revivals; a lane
    that revives restarts its search once, with a warning.
    """
    def ask(lanes: list[int], xs: list[float]):
        return pred(lanes, xs) if lanes else []

    a, b = list(lo), list(hi)
    lanes = [i for i, holds in enumerate(ask(list(range(len(a))), a)) if holds]
    searching = []
    for i, holds in zip(lanes, ask(lanes, [hi[i] for i in lanes])):
        if holds:
            a[i] = hi[i]
        else:
            searching.append(i)
    restarted = set()
    while searching:
        while active := [i for i in searching if b[i] - a[i] > resolution]:
            mids = [0.5 * (a[i] + b[i]) for i in active]
            for i, mid, holds in zip(active, mids, ask(active, mids)):
                if holds:
                    a[i] = mid
                else:
                    b[i] = mid
        probing = [i for i in searching if i not in restarted and hi[i] - b[i] > resolution]
        revived = {i: [] for i in probing}
        for k in range(1, _PROBES + 1):
            xs = [b[i] + (hi[i] - b[i]) * k / _PROBES for i in probing]
            for i, x, holds in zip(probing, xs, ask(probing, xs)):
                if holds:
                    revived[i].append(x)
        searching = [i for i in probing if revived[i]]
        for i in searching:
            warnings.warn(
                f"non-monotone profile: condition holds again at {max(revived[i]):.6g}; "
                "extending search",
                stacklevel=2,
            )
            a[i], b[i] = max(revived[i]), hi[i]
            restarted.add(i)
    return a


def max_tolerable_excess_noise(p: ProtocolParams, distance_km: float | Sequence[float],
                               atten_db_per_km: float = DEFAULT_ATTENUATION_DB_PER_KM
                               ) -> float | list[float]:
    """Largest excess noise with a positive key rate at the given distance, or at each of several.

    A rate is positive at some transmittance exactly when it is positive at
    a point of the optimiser's grid, as the golden-section refinement keeps
    a point only if it beats the best grid rate.  So every probed noise
    value is one grid pass over the cached grid states, for all distances
    at once, and that pass asks :func:`~catqkd.keyrate.grid_has_key` only
    for the signs.  Returns 0 when even a noiseless channel yields no key, and
    0.2, the top of the search interval, when the whole interval stays
    positive; a list for a sequence of distances.
    """
    scalar = np.ndim(distance_km) == 0
    distances = [distance_km] if scalar else list(distance_km)
    tcs = [ChannelParams.from_distance(d, atten_db_per_km=atten_db_per_km).tc for d in distances]
    if p.scheme is None:  # the bare source, as a one-point grid
        pd, cov = source_state(None, p.source)
        t, state = None, np.array([[pd], [cov.x], [cov.y], [cov.z]])
    else:
        t, *state = _grid_states(_family(p), p.source)

    def positive(lanes: list[int], eps: list[float]) -> list[bool]:
        channels = [ChannelParams(tc=tcs[i], epsilon=e) for i, e in zip(lanes, eps)]
        return np.atleast_1d(grid_has_key(t, *state, channels[0] if scalar else channels,
                                          p.beta)).tolist()

    limits = _largest_true(positive, [0.0] * len(tcs), [_EPS_MAX] * len(tcs), _EPS_TOL)
    return limits[0] if scalar else limits


def max_distance(p: ProtocolParams, epsilon: float = 0.01, floor: float = 1e-6,
                 atten_db_per_km: float = DEFAULT_ATTENUATION_DB_PER_KM) -> float:
    """Largest distance in km, up to 1500, where the optimised key rate stays above floor.

    A grid rate at the floor decides a probe: the refinement never does worse.
    """
    if not 0.0 < floor < math.inf:
        raise ValueError(f"key-rate floor must be positive and finite, got {floor}")

    def reaches(lanes: list[int], distances: list[float]) -> list[bool]:
        ch = ChannelParams.from_distance(distances[0], epsilon=epsilon,
                                         atten_db_per_km=atten_db_per_km)
        if p.scheme is None:
            return [secret_key_rate(p, ch).key_rate >= floor]
        rates, = _grid_rows(p, [ch])
        return [max(rates) >= floor or _refine(p, ch, rates).key_rate >= floor]

    return _largest_true(reaches, [0.0], [_D_MAX], _D_RES)[0]
