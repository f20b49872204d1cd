"""Normalized Hermite polynomials and Gaussian quadrature.

Conventions
-----------
All Hermite polynomials here are probabilists' polynomials normalized to
unit norm under the standard Gaussian measure:

    E[H_k(Z)^2] = 1,   E[H_j(Z) H_k(Z)] = 0  (j != k),   Z ~ N(0, 1),

so H_0 = 1, H_1(z) = z, H_2(z) = (z^2 - 1)/sqrt(2).  The classical
(monic) probabilists' polynomials He_k relate to these by
He_k = sqrt(k!) * H_k; that conversion is the only place factorials enter.

Both quadratures here are trapezoid rules on a fixed grid.  On a
Gaussian-weighted integrand that is analytic near the real axis the rule
converges faster than exponentially in the inverse step, so it reaches
machine precision for bounded analytic integrands (tanh-type
nonlinearities at large input scale) where a Gauss-Hermite rule of
practical order cannot, because such integrands are analytic only in a
narrow strip.

* ``gaussian_expectation(f, sigma)`` - E[f(sigma Z)] on 4097 nodes of
  [-16, 16].
* ``gaussian_cross_moment(f, sigma_f, g, sigma_g, r)`` -
  E[f(sigma_f X) g(sigma_g Y)] for standard normals X, Y of correlation
  r in [-1, 1], on one tensor grid in sum and difference coordinates.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NumericError


def hermite_sequence(max_degree: int, x):
    """Yield H_0(x), H_1(x), ..., H_max_degree(x) in one recurrence pass.

    Uses the normalized three-term recurrence
    H_{k+1} = (x H_k - sqrt(k) H_{k-1}) / sqrt(k+1), which keeps every
    intermediate at unit Gaussian norm.  The generator reuses three buffers:
    a yielded H_k stays valid only until H_{k+2} is computed.
    """
    if max_degree < 0:
        raise ValueError(f"degree must be nonnegative, got {max_degree}")
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
        raise NumericError(f"integrand not finite at node {float(bad)}")
    return float(np.sum(vals * mass))


# The pair rule: the tensor trapezoid rule of step 0.2 on the plane, without
# the nodes outside radius 9, whose Gaussian mass together is e^{-40.5}.
PAIR_STEP = 0.2
PAIR_RADIUS = 9.0


@lru_cache(maxsize=None)
def _pair_grid(step: float):
    half = round(PAIR_RADIUS / step)
    axis = step * np.arange(-half, half + 1)
    u, v = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
    keep = u * u + v * v <= PAIR_RADIUS ** 2
    u, v = u[keep], v[keep]
    mass = np.exp(-0.5 * (u * u + v * v)) * (step * step / (2.0 * np.pi))
    for a in (u, v, mass):
        a.setflags(write=False)
    return u, v, mass


def gaussian_cross_moment(f: Callable, sigma_f: float, g: Callable,
                          sigma_g: float, r: float) -> float:
    """E[f(sigma_f X) g(sigma_g Y)] for standard normals X, Y of correlation r.

    The pair is written in sum and difference coordinates, X = aU + bV and
    Y = aU - bV with a = sqrt((1 + r)/2), b = sqrt((1 - r)/2) and U, V
    independent N(0, 1), so one grid in (U, V) serves every r in [-1, 1],
    the endpoints included.
    """
    if abs(r) > 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {r}")
    u, v, mass = _pair_grid(PAIR_STEP)
    x = np.sqrt(0.5 * (1.0 + r)) * u
    bv = np.sqrt(0.5 * (1.0 - r)) * v
    y = x - bv
    y *= sigma_g
    x += bv
    x *= sigma_f
    moment = float((f(x) * g(y)) @ mass)
    if not np.isfinite(moment):
        raise NumericError(f"cross moment not finite at correlation {r!r}")
    return moment
