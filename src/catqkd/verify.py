"""The checks of ``catqkd verify``: closed forms against the Fock-space oracle.

Each check group appends ``(name, max_abs_deviation, tolerance)`` rows;
:func:`checks` runs them in a fixed order, so equal arguments give equal
rows.  Only ``catqkd verify`` imports this module, which keeps the oracle
off the import path of the sweep commands.
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import catalysis, oracle
from .catalysis import SourceParams
from .keyrate import (CATALYSIS_FAMILIES, ChannelParams, SchemeFamily, propagate_covariance,
                      source_state, symplectic_eigenvalues)


def _catalysis(rows):
    devs = {"p_success": 0.0, "cov_x": 0.0, "cov_z": 0.0, "log_negativity": 0.0,
            "schmidt_norm": 0.0}
    for family in CATALYSIS_FAMILIES:
        for t in (0.7, 0.9, 0.95):
            for alpha in (0.5, 1.0, 3.0):
                cfg = family.at(t)
                src = SourceParams(alpha=alpha)
                sim = oracle.simulate_catalysis(cfg, src)
                pd, cov = source_state(cfg, src)
                spec = catalysis.schmidt_spectrum(cfg, src)
                devs["p_success"] = max(devs["p_success"], abs(pd - sim.p_success))
                devs["cov_x"] = max(devs["cov_x"], abs(cov.x - sim.cov.x))
                devs["cov_z"] = max(devs["cov_z"], abs(cov.z - sim.cov.z))
                devs["log_negativity"] = max(
                    devs["log_negativity"],
                    abs(catalysis.log_negativity(spec) - sim.log_negativity))
                devs["schmidt_norm"] = max(devs["schmidt_norm"], abs(spec.squared_sum - 1.0))
    for key in ("p_success", "cov_x", "cov_z", "log_negativity"):
        rows.append(("catalysis-" + key, devs[key], 1e-6))
    rows.append(("schmidt-normalisation", devs["schmidt_norm"], 1e-8))


def _subtraction(rows):
    dev = 0.0
    for alpha in (0.5, 1.0, 3.0):
        for t in (0.5, 0.8, 0.95):
            cfg = SchemeFamily("subtraction").at(t)
            src = SourceParams(alpha=alpha)
            sim = oracle.simulate_subtraction(cfg, src)
            p1, cov = source_state(cfg, src)
            dev = max(dev, abs(p1 - sim.p_success), abs(cov.x - sim.cov.x),
                      abs(cov.y - sim.cov.y), abs(cov.z - sim.cov.z))
    rows.append(("subtraction-closed-forms", dev, 1e-6))


def _orthogonality(rows):
    # One amplitude call per transmittance covers the blocks of 0 to 6
    # photons: block n sits in amps[n, :n + 1, :n + 1], and the photon
    # numbers past n are clamped to n, so every padding element is an
    # amplitude of the block too.
    total = np.arange(7)[:, None, None]
    j = np.minimum(np.arange(7)[:, None], total)
    p = np.minimum(np.arange(7), total)
    dev = 0.0
    for t in (0.3, 0.7, 0.95):
        amps = oracle.bs_fock_amplitude(t, j, total - j, p, total - p)
        for n in range(7):
            block = amps[n, :n + 1, :n + 1]
            dev = max(dev, float(np.abs(block.T @ block - np.eye(n + 1)).max()))
    rows.append(("beamsplitter-orthogonality", dev, 1e-10))


def _symplectic(rows, rng: random.Random):
    closed, matrices = [], []
    for _ in range(20):
        src = SourceParams(alpha=rng.uniform(0.2, 3.0))
        kind = rng.randrange(3)
        if kind == 0:
            scheme = None
        elif kind == 1:
            scheme = SchemeFamily("bsqc", rng.randrange(3)).at(rng.uniform(0.6, 0.99))
        else:
            scheme = SchemeFamily("subtraction").at(rng.uniform(0.5, 0.99))
        cov = source_state(scheme, src)[1]
        ch = ChannelParams(tc=rng.uniform(1e-3, 1.0), epsilon=rng.uniform(0.0, 0.1))
        closed.append(symplectic_eigenvalues(cov, ch))
        matrices.append(propagate_covariance(cov, ch).as_matrix())
    matrix = np.stack(matrices)
    n1, n2 = oracle.two_mode_symplectic_numeric(matrix)
    # Conditional state after a homodyne of Bob's x quadrature: the
    # pseudo-inverse of Bob's x-projected block is diag(1 / b_xx, 0).
    a = matrix[:, :2, :2]
    c_x = matrix[:, :2, 2]
    u = c_x * (1.0 / matrix[:, 2, 2])[:, None]
    dets = np.linalg.det(a - u[:, :, None] * c_x[:, None, :])
    dev = 0.0
    for (l1, l2, l3), v1, v2, det in zip(closed, n1.tolist(), n2.tolist(), dets.tolist()):
        dev = max(dev, abs(l1 - v1), abs(l2 - v2), abs(l3 - math.sqrt(max(det, 0.0))))
    rows.append(("symplectic-eigenvalues", dev, 1e-9))


def _flip(rows):
    # The mirrored reflection phase multiplies each amplitude by (-1)**(out_c - in_c):
    # the ladders <l,k|B|l,k> of bsqc1 and ssqc2 keep their bits and subtraction's tap
    # <l-1,1|B|l,0> flips as a whole, so no heralded observable sees the phase.
    ls = np.arange(oracle.adaptive_cutoff(SourceParams(alpha=1.0).lam) + 1)
    dev = 0.0
    for j, k, p, q in ((ls, 1, ls, 1), (ls, 2, ls, 2), (ls[1:], 0, ls[1:] - 1, 1)):
        plus, minus = (oracle.bs_fock_amplitude(0.9, j, k, p, q, sign) for sign in (1.0, -1.0))
        dev = max(dev, float(np.abs(plus - (-1.0) ** (q - k) * minus).max()))
    rows.append(("reflection-phase-invariance", dev, 1e-12))


def checks(seed: int) -> list[tuple[str, float, float]]:
    """Every check as ``(name, max_abs_deviation, tolerance)``, in report order.

    ``seed`` seeds the randomised symplectic spot checks.  Every oracle
    simulation runs at its adaptive Fock cutoff
    (:func:`oracle.adaptive_cutoff`).  Only ``reflection-phase-invariance``
    runs the mirrored reflected-beam phase.
    """
    rows: list[tuple[str, float, float]] = []
    _orthogonality(rows)
    _catalysis(rows)
    _subtraction(rows)
    _symplectic(rows, random.Random(seed))
    _flip(rows)
    return rows
