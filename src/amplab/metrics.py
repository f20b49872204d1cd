"""Empirical observables for comparing runs against the Gaussian limit.

Everything here is a function of the empirical distribution of iterate
entries (permutation invariant): successive squared differences, Hermite
moments of standardized entries, and the Kolmogorov-Smirnov distance to
the predicted Gaussian.  The standardizing sigma_t always comes from state
evolution.

``observable_row`` is the one per-step computation: the CLI's observer
calls it inside ``amp.run_amp``'s loop, and ``report_from_traces``
averages the rows the runs kept.  Its sums run over chunks of at most
``LEAF`` entries and rebuild numpy's pairwise summation tree from them,
so each equals np.mean of the whole N-vector bit for bit; only the KS
distance's sorted copy is a full N-vector.  The KS
distance evaluates the Gaussian CDF with an in-package port of the Cephes
``ndtr`` that ``scipy.special.ndtr`` runs, bit for bit, so this module
loads no scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .hermite import hermite_eval


LEAF = 1 << 15  # entries per chunk of a chunked sum (256 KB of float64)


def _chunked_sum(n: int, leaf, lo: int = 0):
    """np.add.reduce of entries lo..lo+n-1, bit for bit, from ``leaf(a, b)``,
    the np.add.reduce of entries a..b-1 (of one array or several at once).

    numpy sums a contiguous array pairwise, splitting n > 128 at n/2 rounded
    down to a multiple of 8; this splits the same way down to pieces of at
    most ``LEAF`` entries and adds their sums back up the same tree.
    """
    if n <= LEAF:
        return leaf(lo, lo + n)
    h = n // 2 - n // 2 % 8
    return _chunked_sum(h, leaf, lo) + _chunked_sum(n - h, leaf, lo + h)


def _mean_sq_diff(prev: np.ndarray, z: np.ndarray) -> float:
    def leaf(lo, hi):  # the difference, squared where it lies
        d = np.subtract(z[lo:hi], prev[lo:hi])
        return np.add.reduce(np.square(d, out=d))

    return float(_chunked_sum(z.size, leaf) / z.size)


def successive_diff(iterates) -> np.ndarray:
    """||z^t - z^{t-1}||^2 / N for t = 1..T of the iterates z^0..z^T."""
    return np.array([_mean_sq_diff(prev, z)
                     for prev, z in zip(iterates, iterates[1:])])


def hermite_moment(v: np.ndarray, k: int, sigma: float) -> float:
    """(1/N) sum_i H_k(v_i / sigma) for the unit-norm Hermite polynomial."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return float(np.mean(hermite_eval(k, np.asarray(v) / sigma)))


# Cephes ndtr, the code scipy.special.ndtr runs.  With x = u / sqrt(2),
# Phi(u) = (1 + erf(x)) / 2 for |x| < sqrt(1/2) and comes from erfc(|x|)
# beyond.  erf(x) = x T(x^2) / U(x^2) for |x| < 1; erfc is 1 - erf below 1
# and exp(-x^2) P(x) / Q(x) up to 8, R(x) / S(x) above.  Coefficients run
# from the top degree down; a leading 1.0 is Cephes' p1evl form.
_T = (9.604973739870516, 90.02601972038427, 2232.005345946843,
      7003.325141128051, 55592.30130103949)
_U = (1.0, 33.56171416475031, 521.3579497801527, 4594.323829709801,
      22629.000061389095, 49267.39426086359)
_P = (2.461969814735305e-10, 0.5641895648310689, 7.463210564422699,
      48.63719709856814, 196.5208329560771, 526.4451949954773,
      934.5285271719576, 1027.5518868951572, 557.5353353693994)
_Q = (1.0, 13.228195115474499, 86.70721408859897, 354.9377788878199,
      975.7085017432055, 1823.9091668790973, 2246.3376081871097,
      1656.6630919416134, 557.5353408177277)
_R = (0.5641895835477551, 1.275366707599781, 5.019050422511805,
      6.160210979930536, 7.4097426995044895, 2.9788666537210022)
_S = (1.0, 2.2605286322011726, 9.396035249380015, 12.048953980809666,
      17.08144507475659, 9.608968090632859, 3.369076451000815)
_MAXLOG = 709.782712893384  # erfc(x) underflows to 0 where x^2 exceeds it


def _horner(x, coef):  # Cephes polevl
    return functools.reduce(lambda acc, c: acc * x + c, coef[1:], coef[0])


def _erf(x):  # |x| < 1
    return x * _horner(x * x, _T) / _horner(x * x, _U)


def _ndtr(u, exp):
    """Phi(u) by the Cephes formulas with ``exp`` as the exponential: with
    libm's (``math.exp``, which scipy's C++ calls) it is scipy.special.ndtr
    bit for bit; ``np.exp`` is within an ulp of it."""
    x = u * math.sqrt(0.5)
    z = np.abs(x)
    y = np.zeros_like(z)  # erfc(z)
    mid = z < 1.0
    y[mid] = 1.0 - _erf(z[mid])
    tail = ~mid & (np.square(np.minimum(z, 27.0)) <= _MAXLOG)  # 27^2 > _MAXLOG
    t = z[tail]
    near = t < 8.0
    y[tail] = (exp(-t * t) * np.where(near, _horner(t, _P), _horner(t, _R))
               / np.where(near, _horner(t, _Q), _horner(t, _S)))
    y *= 0.5
    y = np.where(x > 0, 1.0 - y, y)
    small = z < math.sqrt(0.5)
    y[small] = 0.5 + 0.5 * _erf(x[small])
    return y


_libm_exp = np.vectorize(math.exp, otypes=[np.float64])


def _ks_gaps(k, phi, n):  # the KS objective at sorted indices k
    return np.maximum(phi - k / n, (k + 1) / n - phi)


def ks_statistic(v: np.ndarray, sigma: float) -> float:
    """Exact sup distance between the empirical CDF of v and N(0, sigma^2).

    The value is max_k max(Phi_k - k/n, (k+1)/n - Phi_k) over the sorted
    v / sigma, with Phi = scipy.special.ndtr bit for bit.  Phi is first
    evaluated with ``np.exp`` at every s-th sorted point, s ~ sqrt(n)/16.
    As Phi is monotone, these values bound the objective on each block
    between two such points.  Only blocks whose bound comes within 1e-12
    of the best sampled value are evaluated in full, and the indices within
    1e-12 of the maximum are recomputed with libm's exp; the margin dwarfs
    np.exp's one-ulp error.  NaN entries raise ValueError; -inf and +inf
    count as Phi = 0 and 1.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    u = np.sort(np.asarray(v, dtype=np.float64))
    if np.isnan(u[-1]):  # sort puts NaN last
        raise ValueError("ks_statistic got NaN entries")
    u /= sigma
    n = u.size
    ends = np.r_[0:n - 1:max(1, math.isqrt(n) // 16), n - 1]
    phi = _ndtr(u[ends], np.exp)
    floor = _ks_gaps(ends, phi, n).max() - 1e-12
    lo, hi = ends[:-1], ends[1:]
    keep = np.maximum(phi[1:] - (lo + 1) / n, hi / n - phi[:-1]) >= floor
    k = np.concatenate([ends] + [np.arange(a + 1, b)
                                 for a, b in zip(lo[keep], hi[keep])])
    phi = np.concatenate([phi, _ndtr(u[k[ends.size:]], np.exp)])
    gaps = _ks_gaps(k, phi, n)
    k = k[gaps >= gaps.max() - 1e-12]
    return float(_ks_gaps(k, _ndtr(u[k], _libm_exp), n).max())


def _hermite_sums(z, sigma, lo, hi) -> np.ndarray:
    # sums of H_1..H_4(z[lo:hi] / sigma): hermite_sequence's recurrence in
    # three buffers, x, H2 and H3, with its exact operations: H2 is formed
    # twice and x H3 in place, as products commute exactly
    x = np.divide(z[lo:hi], sigma)
    h2 = np.multiply(x, x)
    h2 -= 1.0
    h2 /= np.sqrt(2)
    sums = [np.add.reduce(x), np.add.reduce(h2)]
    h3 = np.multiply(x, h2)
    h3 -= np.multiply(x, np.sqrt(2), out=h2)
    h3 /= np.sqrt(3)
    sums.append(np.add.reduce(h3))
    h3 *= x
    np.multiply(x, x, out=h2)
    h2 -= 1.0
    h2 /= np.sqrt(2)
    h2 *= np.sqrt(3)
    h3 -= h2
    h3 /= np.sqrt(4)
    sums.append(np.add.reduce(h3))
    return np.array(sums)


def observable_row(prev: np.ndarray, z: np.ndarray, sigma_t: float) -> list:
    """One step's observables: succ_diff, Hermite moments 1..4, KS.

    ``prev`` and ``z`` are z^{t-1} and z^t; the four moments of
    z^t / sigma_t each equal ``hermite_moment(z, k, sigma_t)`` bit for bit.
    """
    if sigma_t <= 0:
        raise ValueError(f"sigma must be positive, got {sigma_t}")
    sums = _chunked_sum(z.size, functools.partial(_hermite_sums, z, sigma_t))
    return ([_mean_sq_diff(prev, z)] + [float(m) for m in sums / z.size]
            + [ks_statistic(z, sigma_t)])


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


def report_from_traces(traces, d_pred, *, beta=0.0, theta=0.0,
                       params=None) -> ObservableReport:
    """Trace-order means of the traces' (T, 6) tables, each trace's
    ``steps`` being ``observable_row(z^{t-1}, z^t, sigma_t)`` for t = 1..T
    with state evolution's sigma_t; ``d_pred`` is its predicted d_t."""
    first = traces[0]
    for trace in traces:
        if trace.T != first.T or trace.N != first.N:
            raise ValueError("traces have mismatched shapes")
    tables = [np.array(trace.steps) for trace in traces]
    mean = sum(tables) / len(tables)
    return ObservableReport(first.ensemble_label, beta, theta, first.N,
                            first.T, len(tables), mean[:, 0],
                            np.asarray(d_pred, float), mean[:, 1:5],
                            mean[:, 5], params or {}, tables)
