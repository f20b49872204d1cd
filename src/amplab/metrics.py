"""Empirical observables for comparing runs against the Gaussian limit.

Everything here is a function of the empirical distribution of iterate
entries (permutation invariant): successive squared differences, Hermite
moments of standardized entries, and the Kolmogorov-Smirnov distance to
the predicted Gaussian.  The standardizing sigma_t always comes from state
evolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .amp import AmpTrace
from .hermite import hermite_eval, hermite_sequence


def successive_diff(trace: AmpTrace) -> np.ndarray:
    """||z^t - z^{t-1}||^2 / N for t = 1..T."""
    its = trace.iterates
    return np.array([float(np.mean((its[t] - its[t - 1]) ** 2))
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
    x = np.sort(np.asarray(v, dtype=np.float64))
    n = x.size
    cdf = ndtr(x / sigma)
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))


def observable_table(trace: AmpTrace, sigma) -> np.ndarray:
    """Per-step observables of one trace as a (T, 6) array.

    Row t-1 holds succ_diff, the Hermite moments k = 1..4 of z^t / sigma[t]
    and the KS distance of z^t to N(0, sigma[t]^2).  The four moments come
    from one pass of the Hermite recurrence per step; each equals
    ``hermite_moment(z, k, sigma[t])`` bit for bit.
    """
    rows = []
    for t, z in enumerate(trace.iterates[1:], start=1):
        if sigma[t] <= 0:
            raise ValueError(f"sigma must be positive, got {sigma[t]}")
        hs = islice(hermite_sequence(4, np.asarray(z) / sigma[t]), 1, None)
        rows.append([float(np.mean(h)) for h in hs] + [ks_statistic(z, sigma[t])])
    return np.column_stack([successive_diff(trace), rows])


@dataclass
class ObservableReport:
    """Seed-averaged per-step observables of one experiment configuration.

    Arrays are indexed by t = 1..T (entry 0 is t = 1).  ``hermite`` has
    shape (T, 4) holding moments k = 1..4 of z^t standardized by sigma_t.
    ``seed_tables`` holds each averaged trace's ``observable_table``.
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

    def config_key(self):
        return (self.beta, self.theta, self.N, self.T)


def report_from_traces(traces, sigma, d_pred, *, beta=0.0, theta=0.0,
                       params=None) -> ObservableReport:
    """Average the standard observable set over a list of traces.

    ``sigma`` gives the standardizing scale per step (length T+1, from
    state evolution); ``d_pred`` the predicted successive differences.
    The averages are the trace-order means of the ``observable_table``s.
    """
    first = traces[0]
    for trace in traces:
        if trace.T != first.T or trace.N != first.N:
            raise ValueError("traces have mismatched shapes")
    tables = [observable_table(trace, sigma) for trace in traces]
    mean = sum(tables) / len(tables)
    return ObservableReport(first.ensemble_label, beta, theta, first.N,
                            first.T, len(tables), mean[:, 0],
                            np.asarray(d_pred, float), mean[:, 1:5],
                            mean[:, 5], params or {}, tables)


def universality_compare(reports) -> float:
    """Largest pairwise discrepancy of seed-averaged observables.

    All reports must share (beta, theta, N, T).  Returns the maximum over
    steps and observables (succ_diff, hermite moments, ks) of the absolute
    difference between any two reports.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("need at least one report")
    key = reports[0].config_key()
    for rep in reports[1:]:
        if rep.config_key() != key:
            raise ValueError(
                f"mismatched configurations: {rep.config_key()} vs {key}")
    worst = 0.0
    for i in range(len(reports)):
        for j in range(i + 1, len(reports)):
            a, b = reports[i], reports[j]
            worst = max(worst,
                        float(np.max(np.abs(a.succ_diff - b.succ_diff))),
                        float(np.max(np.abs(a.hermite - b.hermite))),
                        float(np.max(np.abs(a.ks - b.ks))))
    return worst
