"""The checks of ``catqkd verify``: stacked oracle calls, the adaptive Fock cutoff."""

import math
import random

import numpy as np
import pytest

from catqkd import catalysis, oracle, subtraction, verify
from catqkd.catalysis import SourceParams
from catqkd.keyrate import ChannelParams, SchemeFamily, propagate_covariance, symplectic_eigenvalues
from catqkd.subtraction import SubtractionConfig


def _orthogonality_per_block(rows):
    # one amplitude call per photon-number block, as the checks once ran
    dev = 0.0
    for t in (0.3, 0.7, 0.95):
        for total in range(0, 7):
            j = np.arange(total + 1)[:, None]
            p = np.arange(total + 1)
            block = oracle.bs_fock_amplitude(t, j, total - j, p, total - p)
            dev = max(dev, float(np.abs(block.T @ block - np.eye(total + 1)).max()))
    rows.append(("beamsplitter-orthogonality", dev, 1e-10))


def _symplectic_per_case(rows, rng):
    # one eigensolve per case and the homodyne conditioning through np.linalg.pinv
    dev = 0.0
    for _ in range(20):
        src = SourceParams(alpha=rng.uniform(0.2, 3.0))
        kind = rng.randrange(3)
        if kind == 0:
            cov = catalysis.tmsv_covariance(src)
        elif kind == 1:
            cfg = SchemeFamily("bsqc", rng.randrange(3)).at(rng.uniform(0.6, 0.99))
            cov = catalysis.pd_and_covariance(cfg, src)[1]
        else:
            cov = subtraction.output_covariance(SubtractionConfig(t=rng.uniform(0.5, 0.99)), src)
        ch = ChannelParams(tc=rng.uniform(1e-3, 1.0), epsilon=rng.uniform(0.0, 0.1))
        l1, l2, l3 = symplectic_eigenvalues(cov, ch)
        matrix = propagate_covariance(cov, ch).as_matrix()
        n1, n2 = oracle.two_mode_symplectic_numeric(matrix)
        a = matrix[:2, :2]
        b = matrix[2:, 2:]
        c = matrix[:2, 2:]
        proj = np.diag([1.0, 0.0])
        cond = a - c @ np.linalg.pinv(proj @ b @ proj) @ c.T
        n3 = math.sqrt(max(np.linalg.det(cond), 0.0))
        dev = max(dev, abs(l1 - n1), abs(l2 - n2), abs(l3 - n3))
    rows.append(("symplectic-eigenvalues", dev, 1e-9))


def _bits(rows):
    return [(name, dev.hex(), tol) for name, dev, tol in rows]


@pytest.mark.parametrize("seed", [0, 7, 4242])
def test_stacked_checks_equal_the_per_case_checks_bit_for_bit(seed):
    rows = []
    _orthogonality_per_block(rows)
    verify._catalysis(rows)
    verify._subtraction(rows)
    _symplectic_per_case(rows, random.Random(seed))
    verify._flip(rows)
    assert _bits(verify.checks(seed)) == _bits(rows)


def test_verify_runs_no_svd_and_one_eigensolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify must not run an SVD")

    monkeypatch.setattr(np.linalg, "pinv", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    eigvals = np.linalg.eigvals
    solves = []

    def counted(a):
        solves.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    rows = verify.checks(0)
    assert all(dev <= tol for _, dev, tol in rows)
    assert solves == [(20, 4, 4)]


def test_orthogonality_makes_one_amplitude_call_per_transmittance(monkeypatch):
    amplitude = oracle.bs_fock_amplitude
    calls = []

    def counted(t, *numbers):
        calls.append(t)
        return amplitude(t, *numbers)

    monkeypatch.setattr(oracle, "bs_fock_amplitude", counted)
    rows = []
    verify._orthogonality(rows)
    assert calls == [0.3, 0.7, 0.95]
    assert rows[0][1] <= rows[0][2]


def test_every_oracle_simulation_takes_the_adaptive_cutoff(monkeypatch):
    seen = set()
    for name in ("simulate_catalysis", "simulate_subtraction"):
        real = getattr(oracle, name)

        # the simulations take no cutoff, so a spy of (cfg, src) sees every call
        def spy(cfg, src, name=name, real=real):
            seen.add(name)
            return real(cfg, src)

        monkeypatch.setattr(oracle, name, spy)
    rows = verify.checks(0)
    assert all(dev <= tol for _, dev, tol in rows)
    assert seen == {"simulate_catalysis", "simulate_subtraction"}


def test_reflection_row_compares_amplitudes_under_both_signs_and_simulates_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the reflection-phase row must not run a simulation")

    for name in ("simulate_catalysis", "simulate_subtraction"):
        monkeypatch.setattr(oracle, name, refuse)
    amplitude = oracle.bs_fock_amplitude
    signs = []

    def counted(t, *numbers):
        signs.append(numbers[-1])
        return amplitude(t, *numbers)

    monkeypatch.setattr(oracle, "bs_fock_amplitude", counted)
    rows = []
    verify._flip(rows)
    # bsqc1's and ssqc2's ladders and subtraction's tap, each under both signs
    assert signs == [1.0, -1.0] * 3
    assert rows == [("reflection-phase-invariance", 0.0, 1e-12)]
