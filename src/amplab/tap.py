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
2. ``tap_plan``, an ``amp.Plan``, iterates z^{t+1} = M(lambda*) g(z^t)
   from z^0 ~ N(0, sigma*^2 I) with
       g(z) = [tanh(theta + z)/(1 - q*) - z] / (beta - beta q*),
   which is divergence-free at scale sigma*, so the simple memory-free
   iteration applies and the state-evolution variance stays constant at
   sigma*^2 for every step.  A random field h enters as
   ``g_nonlinearity(params, h)``.  ``tap_residual`` measures how far the
   magnetization m^t = tanh(theta 1 + z^t) is from the fixed point.

Ensembles are the rows of ``ensembles.ENSEMBLES`` that have a limiting
spectral law (``ensembles.TAP_ENSEMBLES``); ``ensemble_law`` and
``build_coupling`` read a row's law and builder.  The resolvent follows
the law that q* was solved for: the Rademacher law (signed sine, signed
Hadamard, random orthogonal, a sign-perm coupling with a +/-1 spectrum,
and their gauge conjugates) takes the linear-polynomial shortcut of
``ensembles.involution_resolvent``; any other law, as for the dense SK
and Hopfield couplings, the dense Cholesky inverse of
``ensembles.centered_resolvent``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import state_evolution
# run_amp is not called here, but the benchmark's tracer wraps tap.run_amp
from .amp import Plan, run_amp, run_plan
from .ensembles import (MatrixOperator, centered_resolvent,
                        involution_resolvent, scale_rows, tap_ensemble)
from .errors import ConvergenceError, NumericError
from .hermite import gaussian_expectation
from .rng import substream
from .spectral import (SpectralLaw, inverse_cauchy, r_transform,
                       resolvent_variance, sup_cauchy)
from .state_evolution import Nonlinearity, SECovariance

# Relative distance from the edge sup G that the q* iteration keeps: G^{-1}
# loses accuracy next to a square-root edge such as the semicircle's.
EDGE_MARGIN = 1e-3

Q_STAR_TOL = 1e-12
Q_STAR_MAX_ITER = 10_000
Q_CLIP = 1.0 - 1e-12  # the largest overlap the q* iteration takes


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
        return self.beta * r_transform(self.law,
                                       self.beta * (1.0 - self.q_star))[0]


def ensemble_law(ensemble: str, phi: float = 1.0) -> SpectralLaw:
    """Limiting spectral law of a coupling that ``tap`` takes."""
    return tap_ensemble(ensemble).law({"phi": phi})


def build_coupling(ensemble: str, n: int, seed: int, phi: float = 1.0, *,
                   max_directions: int | None = None) -> MatrixOperator:
    """Build a coupling that ``tap`` takes, with the Haar budget that
    random-orthogonal requires (see ``ensembles.build_random_orthogonal``)."""
    return tap_ensemble(ensemble).build(n, seed, {"phi": phi}, max_directions)


def solve_q_star(beta: float, theta: float, law: SpectralLaw) -> TapParameters:
    """Damped fixed-point solve of the overlap equation.

    Iterates q <- (1 - eta) q + eta E[tanh^2(theta + sigma*(q) G)] with
    eta = 0.5 (halved automatically when the residual oscillates without
    shrinking) until the fixed-point residual is <= ``Q_STAR_TOL``, for at
    most ``Q_STAR_MAX_ITER`` steps.  Uniqueness is only guaranteed at high
    temperature; the returned parameters describe the fixed point actually
    reached from the standard start.

    beta must be positive and finite, theta nonnegative and finite, and
    the equation needs y = beta (1 - q) < sup G.  A beta too large for
    float64, where beta^2 overflows, where that set lies above the
    iteration's largest overlap ``Q_CLIP`` or where lambda* rounds to the
    edge of the spectrum, is refused with ValueError naming it.
    The standard start (q = 0.5, or 0.01 without a field) is kept where it
    meets that, else the iteration starts halfway into the set; iterates
    are clamped to it (within ``EDGE_MARGIN``), and one pinned at its lower
    end raises ConvergenceError.

    The expectation uses the dense grid of ``gaussian_expectation``, which
    reaches 1e-12 for tanh^2 at the large input scales of low temperature,
    where no Gauss rule of admissible order can.
    """
    if not 0 < beta < np.inf:
        raise ValueError(f"beta = {beta}: the inverse temperature must be "
                         f"positive and finite")
    if not 0 <= theta < np.inf:
        raise ValueError(f"theta = {theta} must be nonnegative and finite")
    if beta * beta == np.inf:  # sigma*^2(q) = beta^2 q R'(y) is not finite
        raise ValueError(f"beta = {beta} is too large: beta^2 overflows "
                         f"(pick a smaller beta)")

    def sigma_sq_of(q):
        if q == 0.0:
            return 0.0
        try:
            _, r_prime = r_transform(law, beta * (1.0 - q))
        except NumericError as exc:
            raise NumericError(f"at beta = {beta}: {exc}") from None
        return beta * beta * q * r_prime

    def phi_of(q):
        s2 = sigma_sq_of(q)
        if s2 < 0:
            raise ValueError(f"sigma*^2(q) = {s2} negative at q = {q}")
        return gaussian_expectation(
            lambda yv: np.tanh(theta + yv) ** 2, np.sqrt(s2))

    sup = sup_cauchy(law)
    q_lo = max(0.0, 1.0 - (1.0 - EDGE_MARGIN) * sup / beta)
    if q_lo >= Q_CLIP:  # the clip below would hold q under q_lo for good
        raise ValueError(f"beta = {beta} is too large: beta (1 - q) < "
                         f"sup G = {sup:.6g} needs 1 - q below "
                         f"{1.0 - Q_CLIP:.0e}, the closest to 1 that the q* "
                         f"iteration goes (pick a smaller beta)")
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
        q = float(np.clip(q, q_lo, Q_CLIP))
    else:
        raise ConvergenceError(
            f"q* iteration did not converge in {Q_STAR_MAX_ITER} steps "
            f"(last residual {resid:.3e})", residual=resid)

    sigma_star_sq = sigma_sq_of(q)
    y = beta * (1.0 - q)
    lambda_star = inverse_cauchy(law, y)
    if not lambda_star > law.lambda_plus:  # G^{-1}(y) = edge + O(1/y)
        raise ValueError(f"beta = {beta} is too large: lambda* rounds to the "
                         f"spectral edge {law.lambda_plus:g} (pick a smaller "
                         f"beta)")
    denom = q - (1.0 - q) ** 2 * sigma_star_sq
    if q > 1e-10 and abs(denom) > 1e-14:
        sigma_psi_sq = beta ** 2 * (1.0 - q) ** 4 * sigma_star_sq / denom
    else:
        # q* = 0 (no external field): the closed-form ratio is 0/0, but the
        # constant is still the resolvent variance at lambda*.
        sigma_psi_sq = resolvent_variance(law, lambda_star)
    if sigma_psi_sq == 0.0:  # about beta^4, below the smallest float
        raise ValueError(f"beta = {beta} is too small: sigma_psi^2 of the "
                         f"resolvent underflows to 0 (pick a larger beta)")
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

    def g(z, out=None):
        # in ``out`` or one new array; [()] makes a 0-d result a scalar
        if out is None:
            out = np.empty(np.broadcast(shift, z).shape)
        np.add(shift, z, out=out)
        np.tanh(out, out=out)
        out /= one_minus_q
        out -= z
        out /= scale
        return out if out.ndim else out[()]

    return Nonlinearity(g, "tap-g", writes_out=True)


def resolvent_operator(coupling: MatrixOperator,
                       params: TapParameters) -> MatrixOperator:
    """Centered resolvent M(lambda*) for a built coupling.

    The choice follows ``params.law``, the law q* was solved for: under the
    Rademacher law (spectrum {-1, +1}, J^2 = I) the coupling takes the
    linear-polynomial shortcut of ``involution_resolvent``; under any other
    it gets the dense inverse of ``centered_resolvent``.  Under the
    Rademacher law a coupling with a ``dense`` form or ``blocks`` is
    probed first, at the cost of two matvecs: J (J v) must give back one
    seeded Gaussian v, else ValueError.  A matvec-only coupling is trusted
    to be the involution the law describes.
    """
    lam, sig2 = params.lambda_star, params.sigma_psi_sq
    if params.law.kind != "rademacher":
        return centered_resolvent(coupling, lam, sig2)
    if coupling.dense is not None or coupling.blocks is not None:
        v = substream(0, "involution-probe").standard_normal(coupling.dim)
        miss = np.linalg.norm(coupling.matvec(coupling.matvec(v)) - v)
        if not miss <= 1e-8 * np.linalg.norm(v):
            raise ValueError(
                f"{coupling.label} is not an involution (J^2 v != v), so the "
                f"{params.law.kind} law's closed-form resolvent does not "
                f"apply to it")
    return involution_resolvent(coupling, lam, sig2)


def tap_residual(m: np.ndarray, coupling: MatrixOperator,
                 params: TapParameters) -> float:
    """(1/N) || m - tanh(theta 1 + beta J m - beta R(beta - beta q*) m) ||^2.

    On a random-orthogonal coupling the value depends on the vectors the
    coupling was applied to before m: its lazy store reveals M in query
    order (see ``ensembles.build_random_orthogonal``).  Its one matvec
    reveals up to two new directions; ``tap_plan`` reserves room for one
    such call.
    """
    rhs = np.tanh(params.theta + params.beta * coupling.matvec(m)
                  - params.r_shift * m)
    return float(np.mean((m - rhs) ** 2))


def tap_state_evolution(params: TapParameters, T: int) -> SECovariance:
    """f_t = g at every step from sigma*^2: ``tap_plan``'s prediction."""
    return state_evolution.run_state_evolution(
        [g_nonlinearity(params)] * T, params.sigma_star_sq,
        params.sigma_psi_sq, T)


def tap_plan(ensemble: str, params: TapParameters, n: int, T: int,
             phi: float = 1.0) -> Plan:
    """The simple run of g for T steps on each seed's M(lambda*), whose
    ``coupling`` is the seed's J, traced as ``ensemble``.  A random-orthogonal
    J gets the Haar budget of T matvecs and one ``tap_residual``,
    min(2T + 2, n); a further matvec that reveals a direction raises
    ResourceError."""
    def operator(seed):
        return resolvent_operator(
            build_coupling(ensemble, n, seed, phi,
                           max_directions=min(2 * T + 2, n)), params)

    return Plan(tap_state_evolution(params, T), operator,
                [g_nonlinearity(params)] * T, "simple", ensemble)


def run_tap_amp(ensemble: str, params: TapParameters, n: int, T: int,
                seed: int, *, phi: float = 1.0, observe=None):
    """One seed of ``tap_plan``: (trace, M(lambda*))."""
    return run_plan(tap_plan(ensemble, params, n, T, phi), seed, observe)


# ---------------------------------------------------------------------------
# random external fields and the gauge transform
# ---------------------------------------------------------------------------

def gauge_conjugate(j_op: MatrixOperator, h: np.ndarray) -> MatrixOperator:
    """Jbar = diag(h) J diag(h) for a +/-1 field vector h.

    Conjugation by a sign diagonal is exact in floating point, so the
    iterate identity z^t(J, h) = diag(h) z^t(Jbar, 1) holds entrywise.
    Jbar keeps the spectrum and the trace of J, so under the same law it
    takes the same resolvent.  For J = S K S (J has ``signs``) it is
    (h S) K (h S), at J's cost, and a sign-perm J keeps its ``spectrum``,
    so its closed-form resolvent stays a sign-perm operator; a J with
    ``blocks`` gives Jbar's blocks, so its resolvent is written from J's
    draw too.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (j_op.dim,):
        raise ValueError(f"field has shape {h.shape}, expected ({j_op.dim},)")
    if not np.all(np.abs(h) == 1.0):
        raise ValueError("field entries must be +1 or -1")
    h = h.astype(np.int8)
    signs = None if j_op.signs is None else h * j_op.signs

    def apply(v, out):
        return scale_rows(h, j_op.matvec(scale_rows(h, v), out=out), out=out)

    def blocks(out, row, col):
        j_op.blocks(out, row, col)
        out *= h[row:row + len(out), None]
        out *= h[col:col + out.shape[1]]
        return out

    trace = j_op.trace  # diag(h) J diag(h) has the same diagonal
    return MatrixOperator(j_op.dim, apply if signs is None else j_op._apply,
                          j_op.sigma_psi_sq, f"{j_op.label}-gauged",
                          trace=trace, coupling=j_op, signs=signs,
                          spectrum=j_op.spectrum,
                          writes_out=signs is None or j_op.writes_out,
                          blocks=None if j_op.blocks is None else blocks)
