"""Mean-field Ising magnetization via the memory-free iteration.

For the Gibbs measure with coupling J, inverse temperature beta and field
strength theta, the high-temperature magnetization approximately solves

    m = tanh(theta 1 + beta J m - beta R(beta - beta q*) m)

where R is the R-transform of the limiting spectral law of J.  The solver
here follows the classical two-stage route:

1. ``solve_q_star`` finds the scalar fixed point
       q = E[tanh^2(theta + sigma*(q) G)],  sigma*^2(q) = beta^2 q R'(beta - beta q),
   by damped iteration over the overlaps where beta (1 - q) lies in the
   range of the Cauchy transform G, then derives
   lambda* = G^{-1}(beta - beta q*) and the variance constant sigma_psi^2
   of the trace-centered resolvent M(lambda*).
2. ``run_tap_amp`` iterates z^{t+1} = M(lambda*) g(z^t) from
   z^0 ~ N(0, sigma*^2 I) with
       g(z) = [tanh(theta + z)/(1 - q*) - z] / (beta - beta q*),
   which is divergence-free at scale sigma*, so the simple memory-free
   iteration applies and the state-evolution variance stays constant at
   sigma*^2 for every step.  ``tap_residual`` measures how far the
   magnetization m^t = tanh(theta 1 + z^t) is from the fixed point.

Ensembles are looked up by name in ``ensembles.ENSEMBLES``, which gives
each coupling's builder and limiting spectral law.  Couplings built with
``involution=True`` (signed sine, signed Hadamard, random orthogonal, and
their gauge conjugates) use the linear-polynomial resolvent shortcut;
dense SK and Hopfield couplings use the dense Cholesky-inverse resolvent
of ``ensembles.centered_resolvent``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .amp import AmpTrace, gaussian_init, keep_iterates, run_amp
from .ensembles import (ENSEMBLES, Ensemble, MatrixOperator,
                        centered_resolvent, involution_resolvent, scale_rows)
from .errors import ConvergenceError
from .hermite import gaussian_expectation
from .spectral import (SpectralLaw, inverse_cauchy, r_transform,
                       resolvent_variance, sup_cauchy)
from .state_evolution import Nonlinearity

# Relative distance from the edge sup G that the q* iteration keeps: G^{-1}
# loses accuracy next to a square-root edge such as the semicircle's.
EDGE_MARGIN = 1e-3

Q_STAR_TOL = 1e-12
Q_STAR_MAX_ITER = 10_000


@dataclass(frozen=True)
class TapParameters:
    beta: float
    theta: float
    q_star: float
    sigma_star_sq: float
    lambda_star: float
    sigma_psi_sq: float
    law: SpectralLaw
    iterations: int = 0
    residual: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.q_star < 1.0:
            raise ValueError(f"q_star = {self.q_star} outside [0, 1)")
        if self.lambda_star <= self.law.lambda_plus:
            raise ValueError("lambda_star must exceed the spectral edge")
        if self.sigma_psi_sq <= 0:
            raise ValueError("sigma_psi_sq must be positive")

    @property
    def r_shift(self) -> float:
        """beta * R(beta - beta q*): the Onsager-like shift in the fixed point."""
        y = self.beta * (1.0 - self.q_star)
        return self.beta * (self.lambda_star - 1.0 / y)


def _entry(ensemble: str) -> Ensemble:
    if ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}; "
                         f"choose from {tuple(ENSEMBLES)}")
    return ENSEMBLES[ensemble]


def ensemble_law(ensemble: str, phi: float = 1.0) -> SpectralLaw:
    """Limiting spectral law of a coupling named in ``ENSEMBLES``."""
    return _entry(ensemble).law(phi)


def build_coupling(ensemble: str, n: int, seed: int, phi: float = 1.0, *,
                   max_directions: int | None = None) -> MatrixOperator:
    """Build the coupling named in ``ENSEMBLES`` at size n for one seed.

    ``max_directions`` is the Haar budget that random-orthogonal requires
    (see ``ensembles.build_random_orthogonal``); the others ignore it.
    """
    return _entry(ensemble).build(n, seed, phi, max_directions)


def solve_q_star(beta: float, theta: float, law: SpectralLaw) -> TapParameters:
    """Damped fixed-point solve of the overlap equation.

    Iterates q <- (1 - eta) q + eta E[tanh^2(theta + sigma*(q) G)] with
    eta = 0.5 (halved automatically when the residual oscillates without
    shrinking) until the fixed-point residual is <= ``Q_STAR_TOL``, for at
    most ``Q_STAR_MAX_ITER`` steps.  Uniqueness is only guaranteed at high
    temperature; the returned parameters describe the fixed point actually
    reached from the standard start.

    beta must be positive, and the equation needs y = beta (1 - q) < sup G.
    The standard start (q = 0.5, or 0.01 without a field) is kept where it
    meets that, else the iteration starts halfway into the set; iterates
    are clamped to it (within ``EDGE_MARGIN``), and one pinned at its lower
    end raises ConvergenceError.

    The expectation uses the dense grid of ``gaussian_expectation``, which
    reaches 1e-12 for tanh^2 at the large input scales of low temperature,
    where no Gauss rule of admissible order can.
    """
    if not beta > 0:
        raise ValueError(f"beta = {beta}: the inverse temperature must be "
                         f"positive")
    if theta < 0:
        raise ValueError(f"theta = {theta} must be nonnegative")

    def sigma_sq_of(q):
        if q == 0.0:
            return 0.0
        y = beta * (1.0 - q)
        _, r_prime = r_transform(law, y)
        return beta * beta * q * r_prime

    def phi_of(q):
        s2 = sigma_sq_of(q)
        if s2 < 0:
            raise ValueError(f"sigma*^2(q) = {s2} negative at q = {q}")
        return gaussian_expectation(
            lambda yv: np.tanh(theta + yv) ** 2, np.sqrt(s2))

    sup = sup_cauchy(law)
    q_lo = max(0.0, 1.0 - (1.0 - EDGE_MARGIN) * sup / beta)
    q = 0.5 if theta > 0 else 0.01
    if q <= q_lo:
        q = 0.5 * (q_lo + 1.0)
    eta = 0.5
    prev_resid = None
    iterations = 0
    for iterations in range(1, Q_STAR_MAX_ITER + 1):
        resid = phi_of(q) - q
        if abs(resid) <= Q_STAR_TOL:
            break
        if prev_resid is not None and resid * prev_resid < 0 \
                and abs(resid) >= abs(prev_resid):
            eta *= 0.5  # oscillating without progress: damp harder
        prev_resid = resid
        if q == q_lo and resid < 0:
            raise ConvergenceError(
                f"no fixed point of the overlap equation in "
                f"{{q : beta (1 - q) < sup G = {sup:.6g}}}: the iteration is "
                f"pinned at its lower end q = {q_lo:.6g}", residual=resid)
        q = q + eta * resid
        q = float(np.clip(q, q_lo, 1.0 - 1e-12))
    else:
        raise ConvergenceError(
            f"q* iteration did not converge in {Q_STAR_MAX_ITER} steps "
            f"(last residual {resid:.3e})", residual=resid)

    sigma_star_sq = sigma_sq_of(q)
    y = beta * (1.0 - q)
    lambda_star = inverse_cauchy(law, y)
    denom = q - (1.0 - q) ** 2 * sigma_star_sq
    if q > 1e-10 and abs(denom) > 1e-14:
        sigma_psi_sq = beta ** 2 * (1.0 - q) ** 4 * sigma_star_sq / denom
    else:
        # q* = 0 (no external field): the closed-form ratio is 0/0, but the
        # constant is still the resolvent variance at lambda*.
        sigma_psi_sq = resolvent_variance(law, lambda_star)
    return TapParameters(beta, theta, q, sigma_star_sq, lambda_star,
                         sigma_psi_sq, law, iterations, abs(resid))


def g_nonlinearity(params: TapParameters, h=1.0) -> Nonlinearity:
    """g(z) = [tanh(theta h + z)/(1 - q*) - z] / (beta - beta q*).

    ``h`` is the external field: 1 for the uniform field, or a +/-1
    vector for a random one.  Divergence-free at input scale sigma*:
    E[Z g(sigma* Z)] = 0, which is what lets the simple memory-free
    iteration drive the TAP fixed point.
    """
    beta, q = params.beta, params.q_star
    shift = params.theta * h
    scale = beta * (1.0 - q)
    if scale == 0.0:
        raise ValueError("beta (1 - q*) vanishes; g is undefined")
    one_minus_q = 1.0 - q

    def g(z):
        # in one new array; [()] makes the 0-d result of a scalar z a scalar
        out = np.add(shift, z, out=np.empty(np.broadcast(shift, z).shape))
        np.tanh(out, out=out)
        out /= one_minus_q
        out -= z
        out /= scale
        return out[()]

    return Nonlinearity(g, "tap-g")


def resolvent_operator(coupling: MatrixOperator,
                       params: TapParameters) -> MatrixOperator:
    """Centered resolvent M(lambda*) for a built coupling.

    Couplings built with ``involution=True`` (spectrum {-1, +1}) take the
    linear-polynomial shortcut; anything else gets the dense inverse of
    ``centered_resolvent``.
    """
    if coupling.involution:
        return involution_resolvent(coupling, params.lambda_star,
                                    params.sigma_psi_sq)
    return centered_resolvent(coupling, params.lambda_star,
                              params.sigma_psi_sq)


@dataclass
class TapRunResult:
    trace: AmpTrace              # labelled with the ensemble name
    params: TapParameters
    coupling: MatrixOperator = field(repr=False)


def tap_residual(m: np.ndarray, coupling: MatrixOperator,
                 params: TapParameters) -> float:
    """(1/N) || m - tanh(theta 1 + beta J m - beta R(beta - beta q*) m) ||^2.

    On a random-orthogonal coupling the value depends on the vectors the
    coupling was applied to before m: its lazy store reveals M in query
    order (see ``ensembles.build_random_orthogonal``).  Its one matvec
    reveals up to two new directions; ``run_tap_amp`` reserves room for
    one such call.
    """
    rhs = np.tanh(params.theta + params.beta * coupling.matvec(m)
                  - params.r_shift * m)
    return float(np.mean((m - rhs) ** 2))


def run_tap_amp(ensemble: str, beta: float, theta: float, n: int, T: int,
                seed: int, *, phi: float = 1.0,
                params: TapParameters | None = None,
                observe=None) -> TapRunResult:
    """Full TAP pipeline: solve parameters, build J and M(lambda*), iterate.

    The iteration is the simple memory-free run with f_t = g for all t and
    z^0 ~ N(0, sigma*^2 I); the trace is labelled with ``ensemble``.
    ``observe`` goes to ``run_amp``, whose trace keeps z^T and what it
    returns at each step.  A random-orthogonal coupling gets the Haar
    budget of its T matvecs and of one residual, min(2T + 2, n), so after
    ``tap_residual(np.tanh(theta + z), result.coupling, result.params)``
    for any z a further matvec that reveals a new direction raises
    ResourceError.  No TAP residual is computed here.
    """
    if params is None:
        params = solve_q_star(beta, theta, ensemble_law(ensemble, phi))
    coupling = build_coupling(ensemble, n, seed, phi,
                              max_directions=min(2 * T + 2, n))
    operator = resolvent_operator(coupling, params)
    g = g_nonlinearity(params)
    trace = run_amp(operator, [g] * T,
                    gaussian_init(n, np.sqrt(params.sigma_star_sq), seed), T,
                    "simple", seed=seed, observe=observe)
    return TapRunResult(replace(trace, ensemble_label=ensemble), params,
                        coupling)


# ---------------------------------------------------------------------------
# random external fields and the gauge transform
# ---------------------------------------------------------------------------

def gauge_conjugate(j_op: MatrixOperator, h: np.ndarray) -> MatrixOperator:
    """Jbar = diag(h) J diag(h) for a +/-1 field vector h.

    Conjugation by a sign diagonal is exact in floating point, so the
    iterate identity z^t(J, h) = diag(h) z^t(Jbar, 1) holds entrywise.
    Jbar keeps the spectrum, the trace and the ``involution`` flag of J.
    For J = S K S (J has ``signs``) it is (h S) K (h S), at J's cost.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (j_op.dim,):
        raise ValueError(f"field has shape {h.shape}, expected ({j_op.dim},)")
    if not np.all(np.abs(h) == 1.0):
        raise ValueError("field entries must be +1 or -1")
    h = h.astype(np.int8)
    signs = None if j_op.signs is None else h * j_op.signs

    def apply(v):
        return scale_rows(h, j_op.matvec(scale_rows(h, v)))

    trace = j_op.trace  # diag(h) J diag(h) has the same diagonal
    return MatrixOperator(j_op.dim, apply if signs is None else j_op._apply,
                          j_op.sigma_psi_sq, f"{j_op.label}-gauged",
                          seed=j_op.seed, trace=trace, coupling=j_op,
                          involution=j_op.involution, signs=signs)


def run_field_iteration(coupling: MatrixOperator, h: np.ndarray,
                        params: TapParameters, T: int, z0: np.ndarray) -> list:
    """Memory-free TAP iteration with a +/-1 external field vector h.

    ``run_amp`` with the TAP g shifted by the field:
    z^{t+1} = M(lambda*) [tanh(theta h + z^t)/(1-q*) - z^t] / (beta - beta q*).
    Returns the list of iterates z^0..z^T (T >= 1).
    """
    g = g_nonlinearity(params, np.asarray(h, dtype=np.float64))
    operator = resolvent_operator(coupling, params)
    trace = run_amp(operator, [g] * T, z0, T, observe=keep_iterates)
    return trace.steps + trace.iterates
