"""Cauchy and R transforms of the spectral laws.

Shows the closed forms, including the Marchenko-Pastur law of
sample-covariance couplings, and the inverse transform round trip.

Run:  python3 demos/02_spectral_transforms.py
"""

from amplab import (SpectralLaw, cauchy_derivative, cauchy_transform,
                    inverse_cauchy, r_transform, resolvent_variance)

rad = SpectralLaw.rademacher()
sc = SpectralLaw.semicircle()

print("two-atom law (spectrum of every involution coupling):")
for z in (1.5, 2.0, 3.0):
    print(f"  G({z}) = {cauchy_transform(rad, z):.10f}   "
          f"G'({z}) = {cauchy_derivative(rad, z):.10f}")

print("\ninverse round trip, G^{-1}(G(z)) = z:")
for z in (1.5, 2.5, 6.0):
    y = cauchy_transform(rad, z)
    print(f"  z = {z}:  G = {y:.8f},  G^-1(G) = {inverse_cauchy(rad, y):.12f}")

print("\nsemicircle R-transform is the identity (free convolution):")
for y in (0.05, 0.2, 0.5):
    r, rp = r_transform(sc, y)
    print(f"  R({y}) = {r:.10f}   R'({y}) = {rp:.10f}")

# The sample-covariance coupling X^T X / sqrt(MN) is sqrt(phi) times a
# Marchenko-Pastur matrix of ratio 1/phi; G solves a quadratic.
mp = SpectralLaw.marchenko_pastur(1.0)
print(f"\nsample-covariance law at phi = 1: edge = {mp.lambda_plus:.4f} "
      f"(theory: 4)")
print(f"  G(4.5) = {cauchy_transform(mp, 4.5):.6f}")
print(f"  trace-centered resolvent variance at 4.5: "
      f"{resolvent_variance(mp, 4.5):.6f}")

# The resolvent variance is what the iteration sees as sigma_psi^2.
print("\nresolvent variance -G'(lam) - G(lam)^2 above the semicircle edge:")
for lam in (2.1, 2.5, 3.0, 4.0):
    print(f"  lam = {lam}:  {resolvent_variance(sc, lam):.8f}")
