"""Normalized Hermite polynomials and Gaussian quadrature.

Conventions
-----------
All Hermite polynomials here are probabilists' polynomials normalized to
unit norm under the standard Gaussian measure:

    E[H_k(Z)^2] = 1,   E[H_j(Z) H_k(Z)] = 0  (j != k),   Z ~ N(0, 1),

so H_0 = 1, H_1(z) = z, H_2(z) = (z^2 - 1)/sqrt(2).  The classical
(monic) probabilists' polynomials He_k relate to these by
He_k = sqrt(k!) * H_k; that conversion is the only place factorials enter.

Two quadratures live here:

* ``gauss_hermite_rule(n)`` - Gauss nodes/weights for E[f(Z)], exact for
  polynomials of degree <= 2n - 1.  Ideal for polynomial and mildly
  nonlinear integrands.
* ``gaussian_expectation(f, sigma)`` - a dense trapezoid rule on a wide
  interval.  For bounded analytic integrands (tanh-type nonlinearities at
  large input scale) this reaches machine precision where a Gauss rule of
  any permitted order cannot, because such integrands are analytic only in
  a narrow strip.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DegreeOverflowError, NumericError

# Highest Hermite degree served by hermite_sequence.  The unit-norm recurrence
# is stable far beyond this; the cap exists to catch runaway callers.
MAX_DEGREE = 64

MAX_QUAD_ORDER = 256


def hermite_sequence(max_degree: int, x):
    """Yield H_0(x), H_1(x), ..., H_max_degree(x) in one recurrence pass.

    Uses the normalized three-term recurrence
    H_{k+1} = (x H_k - sqrt(k) H_{k-1}) / sqrt(k+1), which keeps every
    intermediate at unit Gaussian norm.  The generator reuses three buffers:
    a yielded H_k stays valid only until H_{k+2} is computed.
    """
    if max_degree < 0:
        raise ValueError(f"degree must be nonnegative, got {max_degree}")
    if max_degree > MAX_DEGREE:
        raise DegreeOverflowError(f"degree {max_degree} exceeds cap {MAX_DEGREE}")
    x = np.asarray(x, dtype=np.float64)
    h_prev = np.ones_like(x)
    yield h_prev
    if max_degree == 0:
        return
    h = x.copy()
    yield h
    spare = np.empty_like(x)
    for j in range(1, max_degree):
        np.multiply(x, h, out=spare)
        h_prev *= np.sqrt(j)
        spare -= h_prev
        spare /= np.sqrt(j + 1)
        h_prev, h, spare = h, spare, h_prev
        yield h


def hermite_eval(k: int, x):
    """Evaluate the degree-``k`` unit-norm Hermite polynomial.

    Accepts scalars or arrays; an array result is a new array.
    """
    for h in hermite_sequence(k, np.array(x, dtype=np.float64)):
        pass
    return h if h.ndim else float(h)


def hermite_all(max_degree: int, x: np.ndarray) -> np.ndarray:
    """Stack H_0..H_max_degree evaluated at ``x`` (shape (deg+1, len(x)))."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((max_degree + 1,) + x.shape)
    for k, h in enumerate(hermite_sequence(max_degree, x)):
        out[k] = h
    return out


@lru_cache(maxsize=None)
def _gauss_hermite_cached(n: int):
    from scipy.linalg import eigh_tridiagonal  # `amplab se` never needs it
    if n == 1:
        return np.zeros(1), np.ones(1)
    # Golub-Welsch: Jacobi matrix of the unit-norm recurrence is symmetric
    # tridiagonal with zero diagonal and off-diagonal sqrt(1..n-1).
    off = np.sqrt(np.arange(1, n, dtype=np.float64))
    nodes, vecs = eigh_tridiagonal(np.zeros(n), off)
    weights = vecs[0, :] ** 2
    weights /= weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_hermite_rule(n: int):
    """Nodes and weights integrating exactly against N(0, 1) up to degree 2n-1.

    Weights sum to one.  Results are cached per order.
    """
    if n < 1:
        raise ValueError(f"quadrature order must be >= 1, got {n}")
    if n > MAX_QUAD_ORDER:
        raise ValueError(f"quadrature order {n} exceeds cap {MAX_QUAD_ORDER}")
    return _gauss_hermite_cached(int(n))


def default_quad_order(max_degree: int) -> int:
    """Default Gauss order for coefficient extraction: overkill is cheap."""
    return min(MAX_QUAD_ORDER, max(64, 2 * max_degree + 8))


@lru_cache(maxsize=None)
def _trapezoid_grid():
    x = np.linspace(-16.0, 16.0, 4097)
    step = x[1] - x[0]
    mass = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi) * step
    x.setflags(write=False)
    mass.setflags(write=False)
    return x, mass


def gaussian_expectation(f: Callable, sigma: float = 1.0) -> float:
    """E[f(sigma * Z)], Z ~ N(0,1), by the trapezoid rule on [-16, 16].

    The grid has 4097 nodes.  The trapezoid rule on a Gaussian-weighted
    analytic integrand converges faster than exponentially in the node
    count, so this grid is at machine precision for every nonlinearity used
    in this package (verified against adaptive quadrature in the test suite).
    """
    x, mass = _trapezoid_grid()
    vals = np.asarray(f(sigma * x), dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        bad = x[np.flatnonzero(~np.isfinite(vals))[0]]
        raise NumericError(f"integrand not finite at node {bad!r}")
    return float(np.sum(vals * mass))


@dataclass(frozen=True)
class HermiteSeries:
    """Coefficients of a function in the unit-norm Hermite basis.

    ``coefficients[k]`` is E[H_k(Z) f(sigma Z)] for whatever f and sigma the
    series was extracted from.  By Parseval, sum(coefficients**2) equals
    E[f(sigma Z)^2] whenever the expansion is exact (polynomial f).
    """

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=np.float64))
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    @property
    def max_degree(self) -> int:
        return len(self.coefficients) - 1

    def second_moment(self) -> float:
        """Parseval sum: E[f^2] up to truncation."""
        return float(np.dot(self.coefficients, self.coefficients))


def hermite_coefficients(f: Callable, max_degree: int, sigma: float = 1.0,
                         *, order: int | None = None,
                         method: str = "gauss") -> HermiteSeries:
    """Expand f against the standard Gaussian: c_k = E[H_k(Z) f(sigma Z)].

    ``method="gauss"`` uses a Gauss rule of the given ``order`` (default
    ``default_quad_order``); ``method="trapezoid"`` uses the dense grid,
    which stays accurate for saturating f at large sigma.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if method == "gauss":
        if order is None:
            order = default_quad_order(max_degree)
        if order < max_degree + 4:
            raise ValueError(
                f"quadrature order {order} too low for degree {max_degree}")
        x, w = gauss_hermite_rule(order)
    elif method == "trapezoid":
        x, w = _trapezoid_grid()
    else:
        raise ValueError(f"unknown method {method!r}")
    vals = np.asarray(f(sigma * x), dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        bad = x[np.flatnonzero(~np.isfinite(vals))[0]]
        raise NumericError(f"nonlinearity not finite at quadrature node {bad!r}")
    table = hermite_all(max_degree, x)
    return HermiteSeries(table @ (w * vals))


def bivariate_gaussian_moment(a: HermiteSeries, b: HermiteSeries,
                              rho: float) -> float:
    """E[f(Z1) g(Z2)] for standardized jointly Gaussian (Z1, Z2).

    Uses E[H_j(Z1) H_k(Z2)] = delta_jk rho^k, valid when both series were
    expanded against the correct standardized marginals:

        E[f(Z1) g(Z2)] = sum_k a_k b_k rho^k.
    """
    if abs(rho) > 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    k = min(a.max_degree, b.max_degree) + 1
    powers = rho ** np.arange(k)
    return float(np.sum(a.coefficients[:k] * b.coefficients[:k] * powers))
