"""The memory-free iteration itself, and the plan that runs it per seed.

Two modes:

* ``simple``    z^{t+1} = M f_{t+1}(z^t)
                (valid when the nonlinearities are divergence-free),
* ``projected`` z^{t+1} = M (f_{t+1}(z^t) - alpha_t z^t) with the empirical
                projection alpha_t = <f_{t+1}(z^t), z^t> / ||z^t||^2,
                which removes the linear component in-sample and needs no
                divergence-free assumption.

A run holds two N-vectors, z^{t-1} and z^t, and no step allocates
another: f(z^t) is written over z^{t-1} and M is applied in place.  After
each matvec it keeps what ``observe(t, z^{t-1}, z^t)`` returns: the CLI's
observer gives the step's ``metrics.observable_row``, ``keep_iterates``
copies of the iterates for tests, demos and trace dumps.  Standardization
constants always come from state evolution, never from in-loop
estimates.

A ``Plan`` is one experiment, and ``run_plan`` runs one seed of it: every
seed of ``run`` and ``tap`` (``tap.tap_plan``) goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .ensembles import MatrixOperator
from .errors import NumericError
from .metrics import _chunked_sum
from .rng import CHUNK, substream
from .state_evolution import Nonlinearity, SECovariance

MODES = ("simple", "projected")


@dataclass
class AmpTrace:
    """One run: ``iterates`` is [z^T] and ``steps`` holds what the run's
    ``observe`` returned at t = 1..T, in step order."""

    N: int
    T: int
    iterates: list
    mode: str
    seed: int
    ensemble_label: str
    alphas: list = field(default_factory=list)  # projected mode only
    steps: list = field(default_factory=list)


def gaussian_init(n: int, sigma0: float, seed: int) -> np.ndarray:
    """N i.i.d. N(0, sigma0^2) entries from the seed's "init" substream."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if sigma0 <= 0:
        raise ValueError(f"sigma0 must be positive, got {sigma0}")
    z = substream(seed, "init").standard_normal(n)
    z *= sigma0
    return z


def _check_finite(z: np.ndarray, t: int):
    for i in range(0, z.size, CHUNK):
        bad = ~np.isfinite(z[i:i + CHUNK])
        if bad.any():
            idx = i + int(np.flatnonzero(bad)[0])
            raise NumericError(f"non-finite value at iteration {t}, index {idx}")


def _projection_sums(fz: np.ndarray, z: np.ndarray) -> np.ndarray:
    # (<f(z), z>, <z, z>) as numpy's pairwise sums, a chunk at a time: no
    # N-sized temporary, and unlike a BLAS dot, whose threads split the
    # sum, the bits do not move with the BLAS thread count
    def leaf(lo, hi):
        zc = z[lo:hi]
        return np.array([np.add.reduce(fz[lo:hi] * zc),
                         np.add.reduce(zc * zc)])

    return _chunked_sum(z.size, leaf)


def keep_iterates(t: int, z_prev: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``observe`` keeping a copy of each step's input: steps + iterates is
    z^0..z^T."""
    return z_prev.copy()


def run_amp(op: MatrixOperator, nonlins: Sequence[Nonlinearity],
            z0: np.ndarray, T: int, mode: str = "simple",
            *, seed: int = -1, observe=None) -> AmpTrace:
    """Run T steps from z0.

    ``nonlins[t]`` is applied at step t+1 and must be present for all
    t < T.  In projected mode the per-step coefficient alpha_t is recorded;
    a zero-norm iterate there is an error (the projection is undefined).

    z0 is copied into the first of two buffers and never written.  Step
    t + 1 writes f(z^t) into the other, which holds z^{t-1}, and the matvec
    turns it into z^{t+1} in place.  After the matvec of step t = 1..T,
    ``observe(t, z^{t-1}, z^t)`` runs and its value is appended to the
    trace's ``steps``.  The observer may overwrite z^{t-1}, whose buffer
    the next step writes anyway, but must not write z^t; both buffers are
    reused, so it keeps only copies.  The trace's ``iterates`` holds the
    buffer with z^T.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if len(nonlins) < T:
        raise ValueError(f"need {T} nonlinearities, got {len(nonlins)}")
    observe = observe or (lambda t, z_prev, z: None)
    z = np.array(z0, dtype=np.float64)
    del z0  # a z^0 passed, not held, is freed before the second buffer
    if z.shape != (op.dim,):
        raise ValueError(f"z0 has shape {z.shape}, operator dim is {op.dim}")
    _check_finite(z, 0)

    alphas, steps = [], []
    nxt = np.empty_like(z)
    for t in range(T):
        nonlins[t].eval(z, nxt)
        if mode == "projected":
            fz_z, norm_sq = _projection_sums(nxt, z)
            if norm_sq == 0.0:
                raise NumericError(f"zero-norm iterate at step {t}; "
                                   "projection coefficient undefined")
            alpha = float(fz_z / norm_sq)
            alphas.append(alpha)
            for i in range(0, z.size, CHUNK):  # no N-sized alpha * z
                nxt[i:i + CHUNK] -= alpha * z[i:i + CHUNK]
        op.matvec(nxt, out=nxt)
        _check_finite(nxt, t + 1)
        steps.append(observe(t + 1, z, nxt))
        z, nxt = nxt, z
    return AmpTrace(op.dim, T, [z], mode, seed, op.label, alphas, steps)


@dataclass(frozen=True)
class Plan:
    """One experiment: ``se`` predicts it (``se.cov[0, 0]`` is Var z^0 and
    ``se.T`` the run length), ``operator(seed)`` builds the seed's M, and
    ``label`` names the trace (None: M's own label)."""

    se: SECovariance
    operator: Callable[[int], MatrixOperator]
    nonlins: Sequence[Nonlinearity]
    mode: str
    label: str | None = None


def run_plan(plan: Plan, seed: int, observe=None):
    """Run one seed of ``plan`` from z^0 ~ N(0, se.cov[0, 0] I) drawn by
    ``gaussian_init``.  Returns (trace, M); the caller drops M to free it."""
    op = plan.operator(seed)
    # z^0 is passed, not held, so run_amp can free it once it is copied
    trace = run_amp(op, plan.nonlins,
                    gaussian_init(op.dim, np.sqrt(plan.se.cov[0, 0]), seed),
                    plan.se.T, plan.mode, seed=seed, observe=observe)
    return replace(trace, ensemble_label=plan.label or op.label), op
