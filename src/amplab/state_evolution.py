"""Deterministic state evolution for the memory-free iteration.

The recursion fills the covariance (cov[t, t] = sigma_t^2, cov[s, t] =
rho_{s,t}) of the limiting Gaussian process (Z_0, ..., Z_T) of the iterates
z^t = M f_t(z^{t-1}):

    sigma_{t+1}^2 = sigma_psi^2 * E[fbar_{t+1}(Z_t)^2]
    rho_{s,t+1}   = sigma_psi^2 * E[fbar_s(Z_{s-1}) fbar_{t+1}(Z_t)],  s <= t,

with rho_{0,i} = 0, where fbar_t is f_t with its linear (first Hermite)
component at the current input scale removed:

    fbar_t(x) = f_t(x) - (E[Z f_t(sigma_{t-1} Z)] / sigma_{t-1}) x.

Cross moments are two-dimensional Gaussian expectations on one fixed
rule (``hermite.gaussian_cross_moment``): a tensor trapezoid grid in the
sum and difference coordinates of each standardized pair, which serves
every correlation in [-1, 1] with no truncation degree.  The rule's step
is checked for convergence in the test suite: halving it moves the
predicted successive difference by less than 1e-7 relative.

Variances use the dense one-dimensional grid (``gaussian_expectation``),
which is exact to machine precision for every nonlinearity used here and
meets the 1e-6 constant-variance contract of the TAP nonlinearity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError
from .hermite import gaussian_cross_moment, gaussian_expectation
from .rng import CHUNK

# A variance at or below this is treated as a degenerate (effectively
# linear) nonlinearity; the recursion cannot be standardized past it.
_DEGENERATE_VAR = 1e-14


@dataclass(frozen=True)
class Nonlinearity:
    """Scalar function applied entrywise by the iteration.

    ``eval(x, out=None)`` writes f(x) into ``out``, an array of x's shape
    other than x, and returns it; with out None it returns f(x) in a new
    array, or a scalar for a scalar x.
    """

    eval: Callable
    label: str = "f"


def linear_coefficient(f: Nonlinearity, sigma: float) -> float:
    """E[Z f(sigma Z)] / sigma: the coefficient of the H_1 component."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    moment = gaussian_expectation(lambda y: (y / sigma) * f.eval(y), sigma)
    return moment / sigma


def center_divergence_free(f: Nonlinearity, sigma: float) -> Nonlinearity:
    """Remove the linear component of f at input scale sigma.

    The returned fbar satisfies E[Z fbar(sigma Z)] = 0 (checked by
    quadrature to 1e-10 in the test suite).  For even f the coefficient is
    zero and fbar == f up to roundoff.
    """
    coeff = linear_coefficient(f, sigma)

    def centered(x, out=None):
        if np.ndim(x) == 0:
            return f.eval(x) - coeff * x
        out = f.eval(x, out)
        for i in range(0, len(out), CHUNK):  # no N-sized coeff * x
            out[i:i + CHUNK] -= coeff * x[i:i + CHUNK]
        return out

    return Nonlinearity(centered, f"{f.label}-centered")


@dataclass(frozen=True)
class SECovariance:
    """Covariance of the limiting Gaussian process (Z_0, ..., Z_T).

    ``cov`` is the read-only (T+1) x (T+1) matrix with cov[t, t] =
    sigma_t^2 and cov[s, t] = cov[t, s] = rho_{s,t}.  After a degenerate
    step (``degenerate``) every later entry is zero.  ``centered[t]`` is
    fbar_{t+1}, the step-(t+1) nonlinearity centered at sigma_t, for each
    step the recursion reached.
    """

    cov: np.ndarray
    sigma_psi_sq: float
    degenerate: bool = False
    centered: tuple = field(default=(), repr=False)

    @property
    def T(self) -> int:
        return self.cov.shape[0] - 1

    @property
    def sigma_sq(self) -> np.ndarray:
        """sigma_0^2, ..., sigma_T^2: a read-only view of the diagonal."""
        return np.diag(self.cov)

    def succ_diff_prediction(self) -> np.ndarray:
        """d_t = sigma_t^2 + sigma_{t-1}^2 - 2 rho_{t-1,t} for t = 1..T.

        This is E[(Z_t - Z_{t-1})^2] under the limiting Gaussian: the
        prediction for the successive-difference observable.
        """
        diag = self.sigma_sq
        return diag[1:] + diag[:-1] - 2.0 * np.diag(self.cov, 1)


def run_state_evolution(nonlins: Sequence[Nonlinearity], sigma0_sq: float,
                        sigma_psi_sq: float, T: int) -> SECovariance:
    """Run T steps of the recursion for the given per-step nonlinearities.

    ``nonlins[t]`` is the function applied at step t+1.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    if len(nonlins) < T:
        raise ValueError(f"need {T} nonlinearities, got {len(nonlins)}")
    for key, value in dict(sigma0_sq=sigma0_sq,
                           sigma_psi_sq=sigma_psi_sq).items():
        if not 0 < value < np.inf:
            raise ValueError(f"{key} must be positive and finite, got {value}")

    cov = np.zeros((T + 1, T + 1))
    cov[0, 0] = sigma0_sq
    centered: list[Nonlinearity] = []
    degenerate = False

    for t in range(T):
        sig_t = float(np.sqrt(cov[t, t]))
        fbar = center_divergence_free(nonlins[t], sig_t)
        centered.append(fbar)
        var = sigma_psi_sq * gaussian_expectation(
            lambda y: fbar.eval(y) ** 2, sig_t)
        if var <= _DEGENERATE_VAR:
            warnings.warn(
                f"nonlinearity {nonlins[t].label!r} is degenerate at step "
                f"{t + 1}: downstream variances are zero", stacklevel=2)
            degenerate = True
            break
        cov[t + 1, t + 1] = var
        for s in range(1, t + 1):
            sig_s = float(np.sqrt(cov[s - 1, s - 1]))
            r = cov[s - 1, t] / (sig_s * sig_t)
            if abs(r) > 1.0 + 1e-8:
                raise NumericError(
                    f"normalized correlation rho_({s - 1},{t}) = {r} exceeds "
                    "1; state evolution is inconsistent")
            moment = gaussian_cross_moment(centered[s - 1].eval, sig_s,
                                           fbar.eval, sig_t,
                                           float(np.clip(r, -1.0, 1.0)))
            cov[s, t + 1] = cov[t + 1, s] = sigma_psi_sq * moment

    lo = float(np.linalg.eigvalsh(cov)[0])
    if lo < -1e-10:
        raise NumericError(
            f"state-evolution covariance is not PSD (min eigenvalue {lo:.3e})")
    cov.setflags(write=False)
    return SECovariance(cov, sigma_psi_sq, degenerate, tuple(centered))


# ---------------------------------------------------------------------------
# named nonlinearity presets (CLI and experiments)
# ---------------------------------------------------------------------------

# Each writes into ``out`` when it is given (a ufunc takes it as its second
# argument): x * x / sqrt(3) and x ** 3 / sqrt(15) in the same operations,
# so with the same bits
def _square(x, out=None):
    return np.divide(np.multiply(x, x, out=out), np.sqrt(3.0), out=out)


def _cubic(x, out=None):
    return np.divide(np.power(x, 3, out=out), np.sqrt(15.0), out=out)


PRESETS = {
    # Even, hence divergence-free as-is; E[f^2] = 1 at unit input scale.
    "square": Nonlinearity(_square, "square"),
    # Centered per-step by the engine (the run pipeline removes the linear
    # component at the running scale before iterating).
    "tanh-centered": Nonlinearity(np.tanh, "tanh-centered"),
    "cubic-centered": Nonlinearity(_cubic, "cubic-centered"),
}


def preset_nonlinearity(name: str) -> Nonlinearity:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown nonlinearity preset {name!r}; "
            f"choose from {sorted(PRESETS)}") from None
