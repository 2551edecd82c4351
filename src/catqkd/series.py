"""Truncated multivariate Taylor arithmetic.

A jet stores the Taylor coefficients of a smooth function around the
origin, truncated independently in each variable: a jet with orders
``(o1, ..., ok)`` keeps every monomial ``x1**e1 * ... * xk**ek`` with
``e_i <= o_i``.  Sums, products, reciprocals and exponentials computed on
jets are exact in that truncated ring up to floating-point rounding, so
mixed partial derivatives at the origin can be read off the coefficients
without any symbolic algebra or finite differencing.

Division uses Newton iteration for the reciprocal, which terminates
exactly because the non-constant part of a jet is nilpotent: any product
of more than ``sum(orders)`` variables falls outside the truncation.
The exponential runs the scalar Taylor series of exp around the constant
term for the same number of terms.

:func:`generating_function_moments` is the paper's generating-function
route for catalysis, written in these jets: the tests check the closed
forms of :mod:`catqkd.catalysis` against it.  No sweep and not ``catqkd
verify`` use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalysis import CatalysisConfig, SourceParams
from .errors import ConsistencyError

Orders = tuple[int, ...]


@dataclass(frozen=True)
class Jet:
    """Taylor coefficients of a function, truncated per variable.

    ``coeffs[e1, ..., ek]`` is the coefficient of ``x1**e1 ... xk**ek``,
    i.e. the mixed partial at the origin divided by ``e1! ... ek!``.
    """

    orders: Orders
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        orders = tuple(int(o) for o in self.orders)
        if not orders:
            raise ValueError("a jet needs at least one variable")
        if any(o < 0 for o in orders):
            raise ValueError("truncation orders must be non-negative")
        coeffs = np.array(self.coeffs, dtype=float)
        shape = tuple(o + 1 for o in orders)
        if coeffs.shape != shape:
            raise ValueError(
                f"coefficient shape {coeffs.shape} does not match orders {orders}"
            )
        coeffs.setflags(write=False)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def num_vars(self) -> int:
        return len(self.orders)

    @property
    def constant_term(self) -> float:
        return float(self.coeffs.flat[0])

    def __add__(self, other: Jet | float) -> Jet:
        return jet_add(self, _lift(other, self.orders))

    __radd__ = __add__

    def __sub__(self, other: Jet | float) -> Jet:
        return jet_sub(self, _lift(other, self.orders))

    def __rsub__(self, other: Jet | float) -> Jet:
        return jet_sub(_lift(other, self.orders), self)

    def __mul__(self, other: Jet | float) -> Jet:
        if isinstance(other, Jet):
            return jet_mul(self, other)
        return Jet(self.orders, self.coeffs * float(other))

    __rmul__ = __mul__


def _lift(value: Jet | float, orders: Orders) -> Jet:
    if isinstance(value, Jet):
        return value
    return jet_const(float(value), orders)


def _check_compatible(a: Jet, b: Jet) -> None:
    if a.orders != b.orders:
        raise ValueError(f"jet truncation orders differ: {a.orders} vs {b.orders}")


def jet_const(c: float, orders: Orders) -> Jet:
    """Jet of the constant function c."""
    coeffs = np.zeros(tuple(o + 1 for o in orders))
    coeffs.flat[0] = c
    return Jet(tuple(orders), coeffs)


def jet_var(index: int, orders: Orders) -> Jet:
    """Jet of the coordinate function x_index."""
    orders = tuple(orders)
    if not 0 <= index < len(orders):
        raise ValueError(f"variable index {index} out of range for {len(orders)} variables")
    if orders[index] < 1:
        raise ValueError(f"variable {index} is truncated out (order 0)")
    coeffs = np.zeros(tuple(o + 1 for o in orders))
    pos = [0] * len(orders)
    pos[index] = 1
    coeffs[tuple(pos)] = 1.0
    return Jet(orders, coeffs)


def jet_add(a: Jet, b: Jet) -> Jet:
    _check_compatible(a, b)
    return Jet(a.orders, a.coeffs + b.coeffs)


def jet_sub(a: Jet, b: Jet) -> Jet:
    _check_compatible(a, b)
    return Jet(a.orders, a.coeffs - b.coeffs)


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Product, truncated back to the shared orders.

    Accumulates shifted copies of the denser operand, iterating only over
    the sparser operand's non-zero coefficients.  This is an exact
    truncated convolution; no FFT rounding is involved.
    """
    _check_compatible(a, b)
    if np.count_nonzero(a.coeffs) > np.count_nonzero(b.coeffs):
        a, b = b, a
    out = np.zeros_like(b.coeffs)
    shape = b.coeffs.shape
    for idx in zip(*np.nonzero(a.coeffs)):
        dst = tuple(slice(int(e), None) for e in idx)
        src = tuple(slice(0, s - int(e)) for e, s in zip(idx, shape))
        out[dst] += a.coeffs[idx] * b.coeffs[src]
    return Jet(a.orders, out)


def jet_div(a: Jet, b: Jet) -> Jet:
    """Quotient a/b; b must have a non-zero constant term."""
    _check_compatible(a, b)
    b0 = b.constant_term
    if b0 == 0.0:
        raise ZeroDivisionError("non-invertible jet: zero constant term")
    inv = jet_const(1.0 / b0, b.orders)
    total = sum(b.orders)
    if total:
        # Newton for the reciprocal: the residual 1 - b*inv starts in the
        # maximal ideal and squares each step, so ceil(log2(total+1))
        # iterations reach the nilpotency degree and the result is exact.
        for _ in range(math.ceil(math.log2(total + 1))):
            inv = jet_mul(inv, 2.0 - jet_mul(b, inv))
    return jet_mul(a, inv)


def jet_exp(a: Jet) -> Jet:
    """Exponential exp(a), expanded around the constant term."""
    a0 = a.constant_term
    tail = a - a0
    acc = jet_const(1.0, a.orders)
    term = jet_const(1.0, a.orders)
    for k in range(1, sum(a.orders) + 1):
        term = jet_mul(term, tail) * (1.0 / k)
        acc = jet_add(acc, term)
    return acc * math.exp(a0)


def mixed_partial_at_zero(f: Jet, orders: Orders) -> float:
    """Raw mixed partial d^orders f / dx^orders at the origin.

    Returns the derivative itself (coefficient times the factorials), not
    the Taylor coefficient.
    """
    orders = tuple(int(d) for d in orders)
    if len(orders) != f.num_vars:
        raise ValueError(f"expected {f.num_vars} derivative orders, got {len(orders)}")
    scale = 1.0
    for d, o in zip(orders, f.orders):
        if d < 0:
            raise ValueError("derivative orders must be non-negative")
        if d > o:
            raise ValueError(f"derivative order {d} exceeds truncation order {o}")
        scale *= math.factorial(d)
    return float(f.coeffs[orders]) * scale


# Bookkeeping variable layout for the four-variable generating function:
# (tau, gamma) differentiate the signal-arm kernel, (tau1, gamma1) the
# idler-arm kernel.
_TAU, _GAMMA, _TAU1, _GAMMA1 = range(4)


def _affine(orders: tuple[int, ...], c0: float, var: int, c1: float) -> Jet:
    # c0 + c1 * x_var; the linear term drops when that variable is
    # truncated at order 0 (no derivative taken in it).
    coeffs = np.zeros(tuple(o + 1 for o in orders))
    coeffs.flat[0] = c0
    if orders[var] >= 1:
        pos = [0] * len(orders)
        pos[var] = 1
        coeffs[tuple(pos)] = c1
    return Jet(orders, coeffs)


def _kernel(cfg: CatalysisConfig, lam: float, orders: tuple[int, ...],
            tau: int, gamma: int) -> Jet:
    # One arm's generating kernel
    #   lam (t2 - gamma)(t1 - tau) / (sqrt(t1 t2) (1 - gamma)(1 - tau)).
    num = jet_mul(_affine(orders, cfg.t2, gamma, -1.0), _affine(orders, cfg.t1, tau, -1.0))
    den = jet_mul(_affine(orders, 1.0, gamma, -1.0), _affine(orders, 1.0, tau, -1.0))
    return jet_div(num * lam, den * math.sqrt(cfg.t1 * cfg.t2))


def _herald_scale(cfg: CatalysisConfig, lam: float) -> float:
    # Squared prefactor of the heralded (unnormalised) amplitude series.
    fact = math.factorial(cfg.m) * math.factorial(cfg.n)
    return cfg.t1**cfg.m * cfg.t2**cfg.n * (1.0 - lam**2) / fact**2


def generating_function_moments(cfg: CatalysisConfig,
                                src: SourceParams) -> tuple[float, float, float]:
    """Success probability and unnormalised second moments, from jets.

    Returns ``(pd, s_var, s_cor)`` where ``2*s_var/pd - 1`` is the
    quadrature variance of either mode and ``2*s_cor/pd`` the cross
    correlation.
    """
    orders = (cfg.m, cfg.n, cfg.m, cfg.n)
    derivs = orders
    lam = src.lam
    w = _kernel(cfg, lam, orders, _TAU, _GAMMA)
    w1 = _kernel(cfg, lam, orders, _TAU1, _GAMMA1)
    pi = jet_const(1.0, orders)
    for var in range(4):
        pi = jet_mul(pi, _affine(orders, 1.0, var, -1.0))
    pi = jet_div(jet_const(1.0, orders), pi)
    resolvent = jet_div(jet_const(1.0, orders), 1.0 - jet_mul(w1, w))

    first = jet_mul(pi, resolvent)
    second = jet_mul(first, resolvent)
    scale = _herald_scale(cfg, lam)
    pd = scale * mixed_partial_at_zero(first, derivs)
    s_var = scale * mixed_partial_at_zero(second, derivs)
    s_cor = scale * mixed_partial_at_zero(jet_mul(second, w), derivs)
    if not 0.0 < pd <= 1.0 + 1e-9:
        raise ConsistencyError(f"success probability {pd} outside (0, 1]")
    return pd, s_var, s_cor
