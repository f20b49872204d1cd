"""Empirical observables for comparing runs against the Gaussian limit.

Everything here is a function of the empirical distribution of iterate
entries (permutation invariant): successive squared differences, Hermite
moments of standardized entries, and the Kolmogorov-Smirnov distance to
the predicted Gaussian.  The standardizing sigma_t always comes from state
evolution.

``observable_row`` is the one per-step computation: ``amp.run_amp`` calls
it inside the loop when given sigma, and ``observable_table`` calls it on
a trace that kept every iterate, so both give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from .hermite import hermite_eval, hermite_sequence

if TYPE_CHECKING:  # amp imports this module for its in-loop rows
    from .amp import AmpTrace


def _stored_iterates(trace: AmpTrace) -> list:
    if len(trace.iterates) != trace.T + 1:
        raise ValueError("the trace kept only z^T (run_amp was given sigma); "
                         "its observables are in trace.table")
    return trace.iterates


def _mean_sq_diff(prev: np.ndarray, z: np.ndarray) -> float:
    d = np.subtract(z, prev)
    return float(np.mean(np.square(d, out=d)))


def successive_diff(trace: AmpTrace) -> np.ndarray:
    """||z^t - z^{t-1}||^2 / N for t = 1..T of a trace with every iterate."""
    its = _stored_iterates(trace)
    return np.array([_mean_sq_diff(its[t - 1], its[t])
                     for t in range(1, trace.T + 1)])


def hermite_moment(v: np.ndarray, k: int, sigma: float) -> float:
    """(1/N) sum_i H_k(v_i / sigma) for the unit-norm Hermite polynomial."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return float(np.mean(hermite_eval(k, np.asarray(v) / sigma)))


def ks_statistic(v: np.ndarray, sigma: float) -> float:
    """Exact sup distance between the empirical CDF of v and N(0, sigma^2)."""
    from scipy.special import ndtr  # here: `amplab se` never loads scipy.special
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    cdf = np.sort(np.asarray(v, dtype=np.float64))
    cdf /= sigma
    ndtr(cdf, out=cdf)
    # one grid i/n for i = 1..n; the lower gaps use i/n for i = 0..n-1,
    # which is the same grid shifted by one with 0 in front
    grid = np.arange(1, cdf.size + 1) / cdf.size
    lower = np.max(cdf[1:] - grid[:-1], initial=cdf[0])
    grid -= cdf
    return float(max(np.max(grid), lower))


def observable_row(prev: np.ndarray, z: np.ndarray, sigma_t: float) -> list:
    """One step's observables: succ_diff, Hermite moments 1..4, KS.

    ``prev`` and ``z`` are z^{t-1} and z^t; the four moments of
    z^t / sigma_t come from one pass of the Hermite recurrence and each
    equals ``hermite_moment(z, k, sigma_t)`` bit for bit.
    """
    if sigma_t <= 0:
        raise ValueError(f"sigma must be positive, got {sigma_t}")
    hs = islice(hermite_sequence(4, np.asarray(z) / sigma_t), 1, None)
    return ([_mean_sq_diff(prev, z)] + [float(np.mean(h)) for h in hs]
            + [ks_statistic(z, sigma_t)])


def observable_table(trace: AmpTrace, sigma) -> np.ndarray:
    """Per-step observables of a trace with every iterate, as a (T, 6) array.

    Row t-1 is ``observable_row(z^{t-1}, z^t, sigma[t])``: succ_diff, the
    Hermite moments k = 1..4 of z^t / sigma[t] and the KS distance of z^t
    to N(0, sigma[t]^2).
    """
    its = _stored_iterates(trace)
    return np.array([observable_row(its[t - 1], its[t], sigma[t])
                     for t in range(1, trace.T + 1)])


@dataclass
class ObservableReport:
    """Seed-averaged per-step observables of one experiment configuration.

    Arrays are indexed by t = 1..T (entry 0 is t = 1).  ``hermite`` has
    shape (T, 4) holding moments k = 1..4 of z^t standardized by sigma_t.
    ``seed_tables`` holds each averaged trace's (T, 6) observable table.
    """

    ensemble: str
    beta: float
    theta: float
    N: int
    T: int
    seed_count: int
    succ_diff: np.ndarray
    d_pred: np.ndarray
    hermite: np.ndarray
    ks: np.ndarray
    params: dict = field(default_factory=dict)
    seed_tables: list = field(default_factory=list)

    def __post_init__(self):
        expected = (self.T,)
        for name in ("succ_diff", "d_pred", "ks"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != expected:
                raise ValueError(f"{name} must have shape {expected}")
            setattr(self, name, arr)
        self.hermite = np.asarray(self.hermite, dtype=np.float64)
        if self.hermite.shape != (self.T, 4):
            raise ValueError("hermite must have shape (T, 4)")
        if np.any(self.succ_diff < 0):
            raise ValueError("succ_diff entries must be nonnegative")
        if np.any((self.ks < 0) | (self.ks > 1)):
            raise ValueError("ks entries must lie in [0, 1]")


def report_from_traces(traces, sigma, d_pred, *, beta=0.0, theta=0.0,
                       params=None) -> ObservableReport:
    """Average the standard observable set over a list of traces.

    ``sigma`` gives the standardizing scale per step (length T+1, from
    state evolution); ``d_pred`` the predicted successive differences.
    The averages are the trace-order means of the per-trace tables: the
    ``table`` a trace carries when ``run_amp`` filled it with this sigma,
    else its ``observable_table``.
    """
    first = traces[0]
    for trace in traces:
        if trace.T != first.T or trace.N != first.N:
            raise ValueError("traces have mismatched shapes")
    tables = [trace.table if trace.table is not None
              else observable_table(trace, sigma) for trace in traces]
    mean = sum(tables) / len(tables)
    return ObservableReport(first.ensemble_label, beta, theta, first.N,
                            first.T, len(tables), mean[:, 0],
                            np.asarray(d_pred, float), mean[:, 1:5],
                            mean[:, 5], params or {}, tables)

