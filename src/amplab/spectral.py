"""Cauchy and R transforms of the spectral laws used by the TAP solver.

For a compactly supported probability measure xi with right edge
lambda_plus, the Cauchy transform

    G(z) = integral xi(d lambda) / (z - lambda),   z > lambda_plus,

is strictly decreasing on (lambda_plus, inf), so it has an inverse on
(0, G(lambda_plus+)) and the R-transform R(y) = G^{-1}(y) - 1/y is well
defined there.  Everything is real-axis only.

Closed forms are provided for the two-atom uniform +/-1 law ("rademacher"),
the semicircle, and the Marchenko-Pastur law of the sample-covariance
coupling J = X^T X / sqrt(M N), for G and for R, R' and G^{-1} alike, so
that they stay exact as y -> 0.  Empirical laws average 1/(z - lambda_i)
over their atoms and invert G by Newton's method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

_KINDS = ("rademacher", "semicircle", "marchenko_pastur", "empirical")


@dataclass(frozen=True)
class SpectralLaw:
    kind: str
    lambda_plus: float
    eigenvalues: np.ndarray | None = None
    phi: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown law kind {self.kind!r}")
        if self.eigenvalues is not None:
            ev = np.asarray(self.eigenvalues, dtype=np.float64)
            if ev.ndim != 1 or ev.size == 0:
                raise ValueError("eigenvalues must be a nonempty 1-D sequence")
            if not np.all(np.isfinite(ev)):
                raise ValueError("eigenvalues must all be finite")
            ev = np.sort(ev)
            ev.setflags(write=False)
            object.__setattr__(self, "eigenvalues", ev)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rademacher() -> "SpectralLaw":
        """Uniform law on {-1, +1}: the spectrum of every involution coupling."""
        return SpectralLaw("rademacher", 1.0)

    @staticmethod
    def semicircle() -> "SpectralLaw":
        """Semicircle on [-2, 2] (Wigner couplings)."""
        return SpectralLaw("semicircle", 2.0)

    @staticmethod
    def marchenko_pastur(phi: float) -> "SpectralLaw":
        """Limiting law of J = X^T X / sqrt(M N), M = round(phi N).

        J = sqrt(phi) W with W Marchenko-Pastur of ratio c = 1/phi, so the
        right edge is sqrt(phi) + 1/sqrt(phi) + 2; for phi < 1 the law has
        an atom of mass 1 - phi at 0.
        """
        if not 0 < phi < np.inf:
            raise ValueError(f"phi must be positive and finite, got {phi}")
        edge = np.sqrt(phi) + 1.0 / np.sqrt(phi) + 2.0
        return SpectralLaw("marchenko_pastur", float(edge), phi=float(phi))

    @staticmethod
    def empirical(eigenvalues) -> "SpectralLaw":
        ev = np.asarray(eigenvalues, dtype=np.float64)
        return SpectralLaw("empirical", float(np.max(ev)), eigenvalues=ev)

    @staticmethod
    def from_file(path) -> "SpectralLaw":
        """Empirical law from a plain-text file, one eigenvalue per line."""
        values = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                try:
                    values.append(float(text))
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno} is not a decimal real: {text!r}")
        if not values:
            raise ValueError(f"{path}: no eigenvalues found")
        return SpectralLaw.empirical(values)


def _mp_cauchy(phi: float, z: float):
    """(G, G', -G' - G^2) of the Marchenko-Pastur law of J = sqrt(phi) W
    at z.

    G_W(w) is the root of c w G^2 - (w - 1 + c) G + 1 = 0 that behaves as
    1/w at infinity (atom included), written without cancellation, and
    G_W' = -G (1 - c G) / r with r = sqrt((w - 1 - c)^2 - 4 c).  Since
    (w - 1 - c - r)(w - 1 - c + r) = 4 c, -G_W' - G_W^2 is
    2 c G_W^2 / (r (w - 1 - c + r)), which subtracts nothing.
    """
    c, s = 1.0 / phi, np.sqrt(phi)
    w = z / s
    root = np.sqrt((w - (1.0 + 1.0 / s) ** 2) * (w - (1.0 - 1.0 / s) ** 2))
    g = 2.0 / (w - 1.0 + c + root)
    return (g / s, -g * (1.0 - c * g) / root / phi,
            2.0 * c * g * g / (root * (w - 1.0 - c + root)) / phi)


def _check_above_edge(law: SpectralLaw, z: float):
    if not z > law.lambda_plus:
        raise ValueError(
            f"z = {z} must exceed the right edge lambda_plus = {law.lambda_plus}")


def cauchy_transform(law: SpectralLaw, z: float) -> float:
    """G(z) for z strictly above the right edge of the support."""
    _check_above_edge(law, z)
    if law.kind == "rademacher":
        return z / (z * z - 1.0)
    if law.kind == "semicircle":  # (z - sqrt(z^2 - 4)) / 2, without cancelling
        return 2.0 / (z + np.sqrt(z * z - 4.0))
    if law.kind == "marchenko_pastur":
        return float(_mp_cauchy(law.phi, z)[0])
    return float(np.mean(1.0 / (z - law.eigenvalues)))


def cauchy_derivative(law: SpectralLaw, z: float) -> float:
    """G'(z) = -integral xi(d lambda)/(z - lambda)^2; always negative."""
    _check_above_edge(law, z)
    if law.kind == "rademacher":
        return -(z * z + 1.0) / (z * z - 1.0) ** 2
    if law.kind == "semicircle":
        return (1.0 - z / np.sqrt(z * z - 4.0)) / 2.0
    if law.kind == "marchenko_pastur":
        return float(_mp_cauchy(law.phi, z)[1])
    return float(-np.mean(1.0 / (z - law.eigenvalues) ** 2))


def sup_cauchy(law: SpectralLaw) -> float:
    """Supremum of G on (lambda_plus, inf), i.e. the limit at the edge."""
    if law.kind == "semicircle":
        return 1.0
    if law.kind == "marchenko_pastur":
        return float(np.sqrt(law.phi) / (1.0 + np.sqrt(law.phi)))
    return np.inf  # the two-point and empirical laws have an atom at the edge


def inverse_cauchy(law: SpectralLaw, y: float) -> float:
    """z = G^{-1}(y): 1/y + R(y) for a closed-form law, else by
    safeguarded Newton on (lambda_plus, inf).

    Newton stops at |G(z) - y| <= 1e-14, well inside the contracted
    1e-12.  The initial bracket upper end lambda_plus + 1/y + 1 works
    because G(z) < 1/(z - lambda_plus).
    """
    sup = sup_cauchy(law)
    if not 0.0 < y < sup:
        raise ValueError(
            f"y = {y} outside the attainable range (0, {sup}) of G")
    if law.kind != "empirical":
        return float(1.0 / y + r_transform(law, y)[0])
    lo = law.lambda_plus
    hi = law.lambda_plus + 1.0 / y + 1.0
    while cauchy_transform(law, hi) > y:  # paranoia; cannot trigger for atoms
        hi = law.lambda_plus + 2.0 * (hi - law.lambda_plus)
    z = hi
    for _ in range(200):
        g = cauchy_transform(law, z) - y
        if abs(g) <= 1e-14:
            return float(z)
        if g > 0:
            lo = z
        else:
            hi = z
        step = g / cauchy_derivative(law, z)
        z_new = z - step
        if not lo < z_new < hi:
            z_new = 0.5 * (lo + hi)  # bisect when Newton leaves the bracket
        z = z_new
    if abs(cauchy_transform(law, z) - y) > 1e-12:
        raise NumericError(
            f"inverse Cauchy transform did not reach |G(z) - y| <= 1e-12 "
            f"at y = {y}")
    return float(z)


def r_transform(law: SpectralLaw, y: float):
    """(R(y), R'(y)) with R(y) = G^{-1}(y) - 1/y, for 0 < y < sup G.

    Closed forms, exact as y -> 0: the semicircle's R = y; Rademacher's
    R = 2y / (1 + s) and R' = 2 / (s (1 + s)), s = sqrt(1 + 4 y^2), which
    subtract nothing at any y; Marchenko-Pastur's
    R = sqrt(phi) / (1 - y / sqrt(phi)).  An empirical law takes the
    inverse-function rule d G^{-1}/dy = 1/G'(G^{-1}(y)), so
    R'(y) = 1/G'(G^{-1}(y)) + 1/y^2; as y -> 0 its two terms cancel, and
    where more than 6 of the 16 digits cancel it raises NumericError.
    """
    if law.kind == "semicircle":
        return float(y), 1.0
    if law.kind == "rademacher":
        s = np.sqrt(1.0 + 4.0 * y * y)
        return float(2.0 * y / (1.0 + s)), float(2.0 / (s * (1.0 + s)))
    if law.kind == "marchenko_pastur":
        a = 1.0 - y / np.sqrt(law.phi)
        return float(np.sqrt(law.phi) / a), float(1.0 / (a * a))
    z = inverse_cauchy(law, y)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_sq = 1.0 / np.square(np.float64(y))  # inf once y^2 underflows
        r_prime = 1.0 / np.float64(cauchy_derivative(law, z)) + inv_sq
    if not abs(r_prime) * 1e6 > inv_sq:
        raise NumericError(f"R'(y) at y = {y:.6g} cancels in the empirical "
                           f"law's inverse-function rule (pick a larger y)")
    return float(z - 1.0 / y), float(r_prime)


def resolvent_variance(law: SpectralLaw, lam: float) -> float:
    """sigma_psi^2 of the trace-centered resolvent at shift lam.

    This is -G'(lam) - G(lam)^2 = lim (1/N) Tr M(lam)^2 for the centered
    resolvent M(lam) of a coupling with spectral law ``law``: the variance
    of 1/(lam - lambda) under the law, about Var(lambda) / lam^4 at large
    lam.  The two terms of -G' - G^2 are about 1/lam^2 each, so each law
    takes a form that subtracts nothing: 1/(lam^2 - 1)^2 for Rademacher,
    G^3 / sqrt(lam^2 - 4) for the semicircle, ``_mp_cauchy``'s for
    Marchenko-Pastur, and the mean squared deviation of 1/(lam - lambda_i)
    over an empirical law's atoms.
    """
    _check_above_edge(law, lam)
    if law.kind == "rademacher":
        return float(1.0 / ((lam - 1.0) * (lam + 1.0)) ** 2)
    if law.kind == "semicircle":
        return float(cauchy_transform(law, lam) ** 3
                     / np.sqrt((lam - 2.0) * (lam + 2.0)))
    if law.kind == "marchenko_pastur":
        return float(_mp_cauchy(law.phi, lam)[2])
    u = 1.0 / (lam - law.eigenvalues)
    return float(np.mean((u - np.mean(u)) ** 2))
