"""The memory-free iteration itself.

Two modes:

* ``simple``    z^{t+1} = M f_{t+1}(z^t)
                (valid when the nonlinearities are divergence-free),
* ``projected`` z^{t+1} = M (f_{t+1}(z^t) - alpha_t z^t) with the empirical
                projection alpha_t = <f_{t+1}(z^t), z^t> / ||z^t||^2,
                which removes the linear component in-sample and needs no
                divergence-free assumption.

Given the state-evolution scales sigma_0..sigma_T, a run fills each
step's observable row (``metrics.observable_row``) as soon as z^t exists
and keeps only z^{t-1} and z^t alive; its trace carries the (T, 6) table
and z^T.  Without them it keeps all T+1 iterates (88 MB at N = 2^20,
T = 10) for the callers that read them: tests, demos, the field iteration
and trace dumps.  Standardization constants always come from state
evolution, never from in-loop estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ensembles import MatrixOperator
from .errors import NumericError
from .metrics import _chunked_sum, observable_row
from .rng import substream
from .state_evolution import Nonlinearity

MODES = ("simple", "projected")


@dataclass
class AmpTrace:
    """One run: ``iterates`` is z^0..z^T and ``table`` None, or, for a run
    given sigma, ``iterates`` is [z^T] and ``table`` its (T, 6) rows
    ``metrics.observable_row(z^{t-1}, z^t, sigma[t])``."""

    N: int
    T: int
    iterates: list
    mode: str
    seed: int
    ensemble_label: str
    alphas: list = field(default_factory=list)  # projected mode only
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


def gaussian_init(n: int, sigma0: float, seed: int) -> np.ndarray:
    """N i.i.d. N(0, sigma0^2) entries from the seed's "init" substream."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if sigma0 <= 0:
        raise ValueError(f"sigma0 must be positive, got {sigma0}")
    return sigma0 * substream(seed, "init").standard_normal(n)


def _check_finite(z: np.ndarray, t: int):
    if not np.all(np.isfinite(z)):
        idx = int(np.flatnonzero(~np.isfinite(z))[0])
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


def run_amp(op: MatrixOperator, nonlins: Sequence[Nonlinearity],
            z0: np.ndarray, T: int, mode: str = "simple",
            *, seed: int = -1, sigma=None) -> AmpTrace:
    """Run T steps from z0.

    ``nonlins[t]`` is applied at step t+1 and must be present for all
    t < T.  In projected mode the per-step coefficient alpha_t is recorded;
    a zero-norm iterate there is an error (the projection is undefined).

    Without ``sigma`` the trace keeps every iterate.  With ``sigma`` (the
    scales sigma_0..sigma_T) it keeps z^T and the observable table, filled
    step by step; both forms make the same operator queries in the same
    order and give the same z^T bit for bit.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if len(nonlins) < T:
        raise ValueError(f"need {T} nonlinearities, got {len(nonlins)}")
    if sigma is not None and len(sigma) < T + 1:
        raise ValueError(f"need sigma_0..sigma_T ({T + 1} values), "
                         f"got {len(sigma)}")
    z = np.asarray(z0, dtype=np.float64)
    del z0  # with sigma, z^0 is freed after step 1 unless the caller holds it
    if z.shape != (op.dim,):
        raise ValueError(f"z0 has shape {z.shape}, operator dim is {op.dim}")
    _check_finite(z, 0)

    iterates = [z.copy()] if sigma is None else None
    alphas, rows = [], []
    for t in range(T):
        prev = z
        fz = np.asarray(nonlins[t].eval(z), dtype=np.float64)
        if mode == "projected":
            fz_z, norm_sq = _projection_sums(fz, z)
            if norm_sq == 0.0:
                raise NumericError(f"zero-norm iterate at step {t}; "
                                   "projection coefficient undefined")
            alpha = float(fz_z / norm_sq)
            alphas.append(alpha)
            fz = fz - alpha * z
        z = op.matvec(fz)
        del fz  # not needed while the row is computed
        _check_finite(z, t + 1)
        if sigma is None:
            iterates.append(z.copy())
        else:
            rows.append(observable_row(prev, z, sigma[t + 1]))
    if sigma is None:
        return AmpTrace(op.dim, T, iterates, mode, seed, op.label, alphas)
    return AmpTrace(op.dim, T, [z], mode, seed, op.label, alphas,
                    np.array(rows))
