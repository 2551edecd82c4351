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
:func:`~catqkd.keyrate.source_state` and takes its rate from the float
path of :func:`~catqkd.keyrate.secret_key_rate`.  Noise and distance
limits bisect on top of that: wherever the rate is more than round-off it
crosses zero, or the floor, once, so a plain bisection finds the edge.
Every search reads one thing per channel from the grid pass,
:func:`~catqkd.keyrate.grid_best`: the best grid cell and its rate.  The
optimiser refines that cell; a distance probe whose best grid rate
reaches the floor is decided without refinement; the noise limit needs
only whether that rate is positive, so it bisects the distances of a
sweep in lockstep, a block of them at a time, one grid pass over the block
per step.  :func:`optimal_log_negativity` walks its own grid, ``_EN_GRID``
(61 geometric points from t = 1e-3 to 1, 20 a decade, as the peaks of weakly
squeezed sources lie near t = 0.01), with the heralded log negativity of a
catalysis family instead of a key rate, extends it down a decade at a time
while the log negativity falls from its lowest point (the ssqc peaks lie
near t = alpha^2), and refines its best cell to ``_EN_TOL``.  Every search
follows one recipe, the module constants below.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import catalysis
from .catalysis import SourceParams
from .keyrate import (DEFAULT_ATTENUATION_DB_PER_KM, ChannelParams, ProtocolParams, SchemeFamily,
                      _rate_terms, grid_best, secret_key_rate, source_state)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID = tuple(0.5 + k * (1.0 - 0.5) / 100 for k in range(101))  # the transmittance grid
_REFINE_TOL = 1e-4  # golden-section bracket width
_EN_GRID = tuple(10.0 ** (-3 + 3 * k / 60) for k in range(61))  # the log-negativity grid
_EN_DECADES_BELOW = 5  # decades it may grow under 1e-3, so its floor is t = 1e-8
_EN_TOL = 1e-4  # its golden-section bracket width
_EPS_MAX, _EPS_TOL = 0.2, 1e-5  # noise search interval [0, _EPS_MAX] and resolution
_D_MAX, _D_RES = 1500.0, 0.1  # distance search interval [0, _D_MAX] km and resolution
_BLOCK = 32  # channels per grid pass of every sweep: it bounds the working set of each pass


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


def refine_grid_max(f, grid: Sequence[float], best: int, value: float,
                    tol: float) -> tuple[float, float]:
    """Refine the best grid point ``grid[best]``, where ``f`` is ``value``, by golden section.

    The search runs over the grid cells on either side of the best point
    and keeps that point if the refinement does no better.
    """
    lo, hi = grid[max(0, best - 1)], grid[min(len(grid) - 1, best + 1)]
    t_ref, v_ref = golden_section_max(f, lo, hi, tol)
    if v_ref < value:
        return grid[best], value
    return t_ref, v_ref


@functools.lru_cache(maxsize=16)
def _grid_states(family: SchemeFamily | None, source: SourceParams
                 ) -> tuple[tuple[float, ...] | None, np.ndarray]:
    """The grid points ``t`` and read-only rows ``p, x, y, z`` of the states prepared there.

    Each state is :func:`~catqkd.keyrate.source_state` of the family's scheme
    at one grid point; points where the family heralds nothing are left out.
    ``None`` is the bare source: ``t`` is ``None`` and the rows hold its one state.
    """
    t = None if family is None else tuple(u for u in _GRID if family.heralds(u))
    schemes = [None] if t is None else [family.at(u) for u in t]
    rows = [(pd, cov.x, cov.y, cov.z) for pd, cov in (source_state(s, source) for s in schemes)]
    states = np.array(list(zip(*rows)))
    states.setflags(write=False)
    return t, states


def _probe_rate(family: SchemeFamily, source: SourceParams, ch: ChannelParams, beta: float,
                t: float) -> float:
    """``family``'s key rate at ``t`` in (0.5, 1), with the bits of :func:`secret_key_rate`."""
    return max(0.0, _rate_terms(*source_state(family.at(t), source), ch, beta)[-1])


def _grid(p: ProtocolParams) -> tuple[tuple[float, ...] | None, np.ndarray]:
    """The cached grid of ``p``'s family and source; ``p.scheme`` must be a family or ``None``."""
    if p.scheme is not None and not isinstance(p.scheme, SchemeFamily):
        raise TypeError(f"the optimisers take a SchemeFamily, not {p.scheme!r}")
    return _grid_states(p.scheme, p.source)


def _blocks(items: list) -> list[list]:
    """``items`` in sweep order, in blocks of up to ``_BLOCK``."""
    return [items[k:k + _BLOCK] for k in range(0, len(items), _BLOCK)]


def _refine(p: ProtocolParams, ch: ChannelParams, best: int, rate: float) -> TransmittanceOptimum:
    if rate <= 0.0:
        return TransmittanceOptimum(t=_GRID[0], key_rate=0.0, all_zero=True)
    probe = functools.partial(_probe_rate, p.scheme, p.source, ch, p.beta)
    t_ref, r_ref = refine_grid_max(probe, _GRID, best, rate, _REFINE_TOL)
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
    if p.scheme is None:
        raise ValueError("the bare protocol has no transmittance to optimise")
    t, states = _grid(p)  # refused with no channel too
    return [_refine(p, ch, *best) for block in _blocks(list(channels))
            for ch, best in zip(block, grid_best(t, *states, block, p.beta))]


def optimal_log_negativity(family: SchemeFamily, source: SourceParams) -> tuple[float, float]:
    """The t in [1e-8, 1] where ``family``'s heralded log negativity peaks, and that peak."""
    if family.kind == "subtraction":
        raise ValueError("the log-negativity search takes a catalysis family")

    def value(t: float) -> float:
        return catalysis.log_negativity(catalysis.schmidt_spectrum(family.at(t), source))

    if source.alpha == 0.0:  # a vacuum: every t gives 0 or round-off; t = 1 catalyses nothing
        return 1.0, value(1.0)
    grid, values = list(_EN_GRID), [value(t) for t in _EN_GRID]
    for decade in range(1, _EN_DECADES_BELOW + 1):
        if not values[0] == max(values) > values[1]:
            break
        lower = [10.0 ** (-3 - decade + k / 20) for k in range(20)]
        grid[:0], values[:0] = lower, [value(t) for t in lower]
    best = max(range(len(grid)), key=values.__getitem__)
    return refine_grid_max(value, grid, best, values[best], _EN_TOL)


def optimize_transmittance(p: ProtocolParams, ch: ChannelParams) -> TransmittanceOptimum:
    """Best catalyser or tap transmittance for the key rate of the family ``p.scheme``.

    :func:`optimal_transmittances` on the one channel ``ch``.
    """
    return optimal_transmittances(p, [ch])[0]


def _largest_true(pred, lanes: int, hi: float, resolution: float) -> list[float]:
    """Per lane i < ``lanes``, the largest x in [0, hi] with the condition true.

    ``pred(indices, xs)`` says for each lane index in ``indices`` whether
    the condition holds at the matching x; every step is one call over the
    lanes still searching, so the lanes run in lockstep.  A lane gives 0
    where the condition fails there and ``hi`` where it holds there;
    otherwise it bisects to within ``resolution`` of its single
    true->false crossing, as the condition is taken to be monotone.
    """
    def ask(indices: list[int], xs: list[float]):
        return pred(indices, xs) if indices else []

    a, b = [0.0] * lanes, [hi] * lanes
    held = [i for i, holds in enumerate(ask(list(range(lanes)), a)) if holds]
    for i, holds in zip(held, ask(held, [hi] * len(held))):
        if holds:
            a[i] = hi
    while active := [i for i in held if b[i] - a[i] > resolution]:
        mids = [0.5 * (a[i] + b[i]) for i in active]
        for i, mid, holds in zip(active, mids, ask(active, mids)):
            if holds:
                a[i] = mid
            else:
                b[i] = mid
    return a


def max_tolerable_excess_noise(p: ProtocolParams, distance_km: float | Sequence[float],
                               atten_db_per_km: float = DEFAULT_ATTENUATION_DB_PER_KM
                               ) -> float | list[float]:
    """Largest excess noise with a positive key rate at the given distance, or at each of several.

    A rate is positive at some transmittance exactly when it is positive at
    a point of the optimiser's grid, as the golden-section refinement keeps
    a point only if it beats the best grid rate.  So every probed noise
    value is one grid pass over the cached grid states that asks whether
    the best rate of :func:`~catqkd.keyrate.grid_best` is positive.  A
    refused distance raises its ``ValueError`` before the first pass.  The
    distances are bisected in lockstep, in blocks of up to 32 (``_BLOCK``)
    in sweep order, so a pass holds at most one block of rates however
    long the sweep; a refused probe raises the grid pass's
    :class:`~catqkd.errors.ConsistencyError` for the first block that
    meets one.  Returns 0 when even a noiseless channel yields no key, and
    0.2, the top of the search interval, when the whole interval stays
    positive; a list for a sequence of distances.
    """
    scalar = np.ndim(distance_km) == 0
    distances = [distance_km] if scalar else list(distance_km)
    tcs = [ChannelParams.from_distance(d, atten_db_per_km=atten_db_per_km).tc for d in distances]
    t, states = _grid(p)

    def positive(block: list[float], lanes: list[int], eps: list[float]) -> list[bool]:
        channels = [ChannelParams(tc=block[i], epsilon=e) for i, e in zip(lanes, eps)]
        return [rate > 0.0 for _, rate in grid_best(t, *states, channels, p.beta)]

    limits = []
    for block in _blocks(tcs):
        limits += _largest_true(functools.partial(positive, block), len(block), _EPS_MAX, _EPS_TOL)
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
        t, states = _grid(p)
        (best, rate), = grid_best(t, *states, [ch], p.beta)
        return [rate >= floor or _refine(p, ch, best, rate).key_rate >= floor]

    return _largest_true(reaches, 1, _D_MAX, _D_RES)[0]
