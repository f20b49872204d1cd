"""Unit-norm Hermite polynomials and the package's Gaussian quadratures.

Walks through what the rest of the package relies on: orthonormality of
``hermite_eval`` under N(0, 1), the dense trapezoid expectation against a
Gauss rule, and the two-dimensional moment of a correlated pair that state
evolution uses, checked against E[H_k(Z1) H_k(Z2)] = rho^k.

Run:  python3 demos/01_hermite_and_quadrature.py
"""

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from amplab import gaussian_cross_moment, gaussian_expectation, hermite_eval


def gauss_rule(order):
    """numpy's Gauss rule for the weight exp(-x^2/2), scaled to N(0, 1)."""
    x, w = hermegauss(order)
    return x, w / np.sqrt(2.0 * np.pi)


# --- orthonormality -------------------------------------------------------
# E[H_j(Z) H_k(Z)] = delta_jk for the unit-norm convention.
x, w = gauss_rule(64)
print("Gram matrix of H_0..H_4 under N(0,1):")
gram = np.array([[np.sum(w * hermite_eval(j, x) * hermite_eval(k, x))
                  for k in range(5)] for j in range(5)])
print(np.array_str(gram, precision=3, suppress_small=True))

# --- where the dense grid wins --------------------------------------------
# tanh saturates: it is analytic only in a narrow strip once the input
# scale is large, and a Gauss rule converges slowly there.  The dense
# trapezoid expectation stays at machine precision.
sigma = 6.0
dense = gaussian_expectation(lambda y: np.tanh(2 + y) ** 2, sigma)
print(f"\nE tanh^2(2 + {sigma:.0f} Z):  dense trapezoid = {dense:.12f}")
for order in (64, 128, 256):
    xg, wg = gauss_rule(order)
    gauss = float(np.sum(wg * np.tanh(2 + sigma * xg) ** 2))
    print(f"                    {order:3d}-node Gauss = {gauss:.12f} "
          f"(off by {abs(gauss - dense):.1e})")

# --- correlated pairs -------------------------------------------------------
# For standard normals (Z1, Z2) with correlation rho, E[H_j(Z1) H_k(Z2)] =
# delta_jk rho^k.  The pair rule writes Z1 = aU + bV, Z2 = aU - bV, so one
# grid serves every rho in [-1, 1], the endpoints too; the scales 1.7 and
# 0.4 are undone inside the functions.
print("\nE[H_k(Z1) H_k(Z2)] - rho^k on the pair rule:")
for rho in (-1.0, -0.5, 0.0, 0.9, 1.0):
    errs = [gaussian_cross_moment(lambda y: hermite_eval(k, y / 1.7), 1.7,
                                  lambda y: hermite_eval(k, y / 0.4), 0.4,
                                  rho) - rho ** k for k in range(5)]
    print(f"  rho = {rho:+.1f}:  " + "  ".join(f"{e:+.1e}" for e in errs))
