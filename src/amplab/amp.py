"""The memory-free iteration itself, with full trace recording.

Two modes:

* ``simple``    z^{t+1} = M f_{t+1}(z^t)
                (valid when the nonlinearities are divergence-free),
* ``projected`` z^{t+1} = M (f_{t+1}(z^t) - alpha_t z^t) with the empirical
                projection alpha_t = <f_{t+1}(z^t), z^t> / ||z^t||^2,
                which removes the linear component in-sample and needs no
                divergence-free assumption.

Traces keep every iterate (T <= 32 and N <= 65536 stay under ~16 MB), and
all standardization constants for downstream metrics come from state
evolution, never from in-loop estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ensembles import MatrixOperator
from .errors import NumericError
from .rng import substream
from .state_evolution import Nonlinearity

MODES = ("simple", "projected")


@dataclass
class AmpTrace:
    N: int
    T: int
    iterates: list            # z^0 .. z^T
    mode: str
    seed: int
    ensemble_label: str
    alphas: list = field(default_factory=list)  # projected mode only

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


def run_amp(op: MatrixOperator, nonlins: Sequence[Nonlinearity],
            z0: np.ndarray, T: int, mode: str = "simple",
            *, seed: int = -1) -> AmpTrace:
    """Run T steps from z0 and record every iterate.

    ``nonlins[t]`` is applied at step t+1 and must be present for all
    t < T.  In projected mode the per-step coefficient alpha_t is recorded;
    a zero-norm iterate there is an error (the projection is undefined).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if len(nonlins) < T:
        raise ValueError(f"need {T} nonlinearities, got {len(nonlins)}")
    z = np.asarray(z0, dtype=np.float64)
    if z.shape != (op.dim,):
        raise ValueError(f"z0 has shape {z.shape}, operator dim is {op.dim}")
    _check_finite(z, 0)

    iterates = [z.copy()]
    alphas = []
    for t in range(T):
        fz = np.asarray(nonlins[t].eval(z), dtype=np.float64)
        if mode == "projected":
            norm_sq = float(z @ z)
            if norm_sq == 0.0:
                raise NumericError(f"zero-norm iterate at step {t}; "
                                   "projection coefficient undefined")
            alpha = float(fz @ z) / norm_sq
            alphas.append(alpha)
            fz = fz - alpha * z
        z = op.matvec(fz)
        _check_finite(z, t + 1)
        iterates.append(z.copy())
    return AmpTrace(op.dim, T, iterates, mode, seed, op.label, alphas)
