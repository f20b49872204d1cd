"""Matvec-only constructions of semi-random matrix operators.

Every operator here is an N x N symmetric matrix exposed exclusively
through matrix-vector products, together with the variance constant
sigma_psi^2 of its conjugated core.  The builders cover:

* signed sine      - S C S with C the odd discrete sine kernel
                     C_ij = 2 sin(2 pi i j / (2N+1)) / sqrt(2N+1),
* signed Hadamard  - S H diag(lam) H S with H the orthonormal
                     Hadamard-Walsh matrix and lam i.i.d. +/-1,
* random orthogonal- U diag(lam) U^T with U Haar, applied lazily so the
                     full matrix is never sampled,
* sign-permutation - D H P diag(lam) P^T H^T D for a supplied spectrum,
* Wigner / Wishart couplings (dense), and their trace-centered resolvents
  (a dense inverse from one Cholesky factorization, applied as one gemv).

The first three have spectrum {-1, +1} (they square to the identity), so
they are built with ``involution=True`` and the TAP driver uses their
centered resolvent in closed form, (J - (Tr J / N) I) / (lam^2 - 1).
``ENSEMBLES`` maps each named coupling family to its builder and law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, lapack

from .errors import NumericError, ResourceError
from .rng import rademacher, substream
from .spectral import SpectralLaw, resolvent_variance

# Dense reconstruction / factorization cap (see dense_form and the coupling
# builders).  All shipped experiments fit under it.
MATERIALIZATION_CAP = 8192


class MatrixOperator:
    """Symmetric operator known only through products w = M v.

    ``apply`` must take a vector (N,) and a column block (N, K) alike.

    Attributes
    ----------
    dim : int
    sigma_psi_sq : float
        The limiting value of the conjugated core's squared row norms
        ((Psi Psi^T)_ii); for raw couplings this is the limiting spectral
        second moment.
    label : str
    seed : int or None
        Seed the randomness was keyed on; runs are bit-reproducible given
        (seed, dim, label).
    trace : float or None
        Exact trace when it is cheap to know (diagonal-sum formulas).
    coupling : MatrixOperator or None
        For resolvent and gauged operators, the underlying coupling J.
    involution : bool
        True when M^2 = I; the TAP driver then uses the closed-form resolvent.
    haar_basis : _LazyHaar or None
        The lazily revealed Haar factor of a random-orthogonal operator.
    """

    def __init__(self, dim, apply, sigma_psi_sq, label, *, seed=None,
                 trace=None, dense=None, coupling=None, involution=False,
                 haar_basis=None):
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        if sigma_psi_sq <= 0:
            raise ValueError(f"sigma_psi_sq must be positive, got {sigma_psi_sq}")
        self.dim = int(dim)
        self.sigma_psi_sq = float(sigma_psi_sq)
        self.label = str(label)
        self.seed = seed
        self.trace = trace
        self.dense = dense
        self.coupling = coupling
        self.involution = bool(involution)
        self.haar_basis = haar_basis
        self._apply = apply

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape[0] != self.dim:
            raise ValueError(f"vector length {v.shape[0]} != dim {self.dim}")
        return self._apply(v)

    def __repr__(self):
        return f"MatrixOperator({self.label!r}, dim={self.dim}, seed={self.seed})"


# ---------------------------------------------------------------------------
# fast orthogonal kernels
# ---------------------------------------------------------------------------

def fwht(v: np.ndarray) -> np.ndarray:
    """Orthonormal Hadamard-Walsh transform, O(N log N), H^2 = I.

    Length must be a power of two.  Operates along axis 0, so (N,) vectors
    and (N, K) column blocks both work.
    """
    a = np.asarray(v, dtype=np.float64)
    n = a.shape[0]
    if n == 0 or n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    shape = a.shape
    a = a.reshape(n, -1).copy()
    h = 1
    while h < n:
        a = a.reshape(n // (2 * h), 2, h, -1)
        top = a[:, 0] + a[:, 1]
        bot = a[:, 0] - a[:, 1]
        a = np.stack((top, bot), axis=1).reshape(n, -1)
        h *= 2
    return (a / np.sqrt(n)).reshape(shape)


def dst_matvec(v: np.ndarray, method: str = "direct") -> np.ndarray:
    """Apply the symmetric orthogonal sine kernel C, C_ij = 2 sin(2 pi i j / L) / sqrt(L)
    with L = 2N + 1 and i, j = 1..N.  C is an involution: C(Cv) = v.

    ``method="direct"`` evaluates rows in blocks (O(N^2), reference path);
    ``method="fft"`` uses the odd extension of length L and a real FFT
    (O(N log N)).  The two paths agree to machine precision and the test
    suite compares them.
    """
    a = np.asarray(v, dtype=np.float64)
    n = a.shape[0]
    length = 2 * n + 1
    if method == "fft":
        w = np.zeros((length,) + a.shape[1:], dtype=np.float64)
        w[1:n + 1] = a
        w[n + 1:] = -a[::-1]
        # odd extension: hat(w)_k = -2i sum_j sin(2 pi k j / L) v_j
        spec = np.fft.rfft(w, axis=0)
        return -spec.imag[1:] / np.sqrt(length)
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    out = np.empty_like(a)
    cols = np.arange(1, n + 1)
    block = max(1, 2 ** 22 // max(n, 1))
    for start in range(0, n, block):
        stop = min(start + block, n)
        rows = np.arange(start + 1, stop + 1)
        kernel = np.sin((2.0 * np.pi / length) * np.outer(rows, cols))
        out[start:stop] = kernel @ a
    return out * (2.0 / np.sqrt(length))


def _dst_diagonal_sum(n: int) -> float:
    # quadratic Gauss sum: exactly 0 when (2n+1) % 4 == 1, exactly 1 otherwise
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(np.sum(2.0 * np.sin(2.0 * np.pi * i * i / (2 * n + 1))
                        / np.sqrt(2 * n + 1)))


def scale_rows(d: np.ndarray, v: np.ndarray) -> np.ndarray:
    """diag(d) v for a vector (N,) or a column block (N, K)."""
    return (d[:, None] if v.ndim == 2 else d) * v


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_signed_sine(n: int, seed: int) -> MatrixOperator:
    """M = S C S with i.i.d. +/-1 diagonal S; sigma_psi^2 = 1, M^2 = I."""
    signs = rademacher(substream(seed, "signs"), n)

    def apply(v):
        return scale_rows(signs, dst_matvec(scale_rows(signs, v), method="fft"))

    return MatrixOperator(n, apply, 1.0, "signed-sine", seed=seed,
                          trace=_dst_diagonal_sum(n), involution=True)


def build_signed_hadamard(n: int, seed: int) -> MatrixOperator:
    """M = S H diag(lam) H S, H the Hadamard-Walsh matrix, lam, s i.i.d. +/-1.

    Matvec is two fast transforms and three diagonal scalings; M^2 = I.
    """
    if n & (n - 1):
        raise ValueError(f"signed Hadamard needs a power-of-two size, got {n}")
    signs = rademacher(substream(seed, "signs"), n)
    lam = rademacher(substream(seed, "spectrum"), n)

    def apply(v):
        return scale_rows(signs, fwht(scale_rows(lam, fwht(scale_rows(signs, v)))))

    return MatrixOperator(n, apply, 1.0, "signed-hadamard", seed=seed,
                          trace=float(lam.sum()), involution=True)


class _LazyHaar:
    """Haar orthogonal matrix revealed one direction at a time.

    Stores orthonormal pairs (q_i, p_i) with U q_i = p_i.  Applying U to a
    vector outside span(q_1..q_k) assigns its image to a fresh uniformly
    random direction orthogonal to span(p_1..p_k), which is exactly the
    conditional law of a Haar matrix given its action so far.  U^T swaps
    the roles of the two bases.  The store mutates on first touch of each
    new direction, so a given instance must not be used from two threads
    at once.
    """

    _DROP = 1e-13  # relative residual below which a direction is not spawned

    def __init__(self, dim, rng, max_directions):
        self.dim = dim
        self.rng = rng
        self.cap = max_directions
        self.q = np.zeros((0, dim))
        self.p = np.zeros((0, dim))

    def _fresh(self, basis):
        # Gaussian direction orthogonalized against `basis` rows (twice).
        for _ in range(8):
            g = self.rng.standard_normal(self.dim)
            g -= basis.T @ (basis @ g)
            g -= basis.T @ (basis @ g)
            norm = np.linalg.norm(g)
            if norm > 1e-8 * np.sqrt(self.dim):
                return g / norm
        raise NumericError("could not draw a fresh orthogonal direction")

    def _apply(self, v, src, dst, grow):
        a1 = src @ v
        resid = v - src.T @ a1
        a2 = src @ resid
        resid -= src.T @ a2
        out = dst.T @ (a1 + a2)
        rnorm = np.linalg.norm(resid)
        if rnorm > self._DROP * np.linalg.norm(v):
            if self.q.shape[0] >= self.cap:
                raise ResourceError(
                    f"lazy Haar store exceeded {self.cap} directions")
            new_src = resid / rnorm
            new_dst = self._fresh(dst)
            grow(new_src, new_dst)
            out += rnorm * new_dst
        return out

    def forward(self, v):  # U v
        return self._apply(v, self.q, self.p, self._grow_qp)

    def backward(self, w):  # U^T w
        return self._apply(w, self.p, self.q, self._grow_pq)

    def _grow_qp(self, qn, pn):
        self.q = np.vstack([self.q, qn])
        self.p = np.vstack([self.p, pn])

    def _grow_pq(self, pn, qn):
        self.q = np.vstack([self.q, qn])
        self.p = np.vstack([self.p, pn])


def build_random_orthogonal(n: int, seed: int, *,
                            max_directions: int = 512) -> MatrixOperator:
    """M = U diag(lam) U^T with U Haar and lam i.i.d. +/-1.

    U is applied through a lazily grown orthonormal-pair store keyed to the
    seed, so memory scales with the number of distinct directions touched
    (two per AMP step), not with N.  Exceeding ``max_directions`` raises a
    ResourceError.  The store mutates on first touch of a new direction:
    this is the single operator that is not re-entrant during a matvec.
    A column block is applied one column at a time, in order, so it
    reveals the same directions in the same order as separate matvecs.
    """
    basis = _LazyHaar(n, substream(seed, "haar"), max_directions)
    lam = rademacher(substream(seed, "spectrum"), n)

    def apply(v):
        if v.ndim == 2:
            return np.stack([apply(v[:, k]) for k in range(v.shape[1])], axis=1)
        return basis.forward(lam * basis.backward(v))

    return MatrixOperator(n, apply, 1.0, "random-orthogonal", seed=seed,
                          trace=float(lam.sum()), involution=True,
                          haar_basis=basis)


def build_sign_perm(n: int, seed: int, eigenvalues) -> MatrixOperator:
    """Sign-and-permutation invariant operator D H P diag(lam) P^T H^T D.

    H is the Hadamard-Walsh matrix, P a seeded uniform permutation, D a
    seeded sign diagonal; the spectrum is supplied by the caller (one
    eigenvalue per matrix row).  sigma_psi^2 = mean(lam^2).
    """
    if n & (n - 1):
        raise ValueError(f"sign-perm with Hadamard base needs power-of-two size, got {n}")
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.shape != (n,):
        raise ValueError(f"spectrum has {lam.size} entries, expected {n}")
    if not np.all(np.isfinite(lam)):
        raise ValueError("spectrum entries must be finite")
    sig2 = float(np.mean(lam * lam))
    if sig2 <= 0:
        raise ValueError("spectrum must not be identically zero")
    signs = rademacher(substream(seed, "signs"), n)
    perm = substream(seed, "perm").permutation(n)
    inv = np.argsort(perm)

    def apply(v):
        w = fwht(scale_rows(signs, v))
        w = scale_rows(lam, w[perm])           # P^T then diag(lam)
        return scale_rows(signs, fwht(w[inv]))  # P then H then D

    return MatrixOperator(n, apply, sig2, "sign-perm", seed=seed,
                          trace=float(lam.sum()))


def _check_cap(n):
    if n > MATERIALIZATION_CAP:
        raise ValueError(
            f"dense coupling of size {n} exceeds cap {MATERIALIZATION_CAP}")


def build_wigner_coupling(n: int, seed: int,
                          entry_kind: str = "rademacher") -> MatrixOperator:
    """Dense symmetric J = W / sqrt(N), E W_ij^2 = 1 + delta_ij.

    Entries are symmetric random variables: "rademacher" gives +/-1 off the
    diagonal and +/-sqrt(2) on it; "gaussian_symmetric" gives N(0,1) and
    N(0,2).  The limiting spectrum is the semicircle on [-2, 2] and the
    stored sigma_psi_sq is its second moment, 1.
    """
    _check_cap(n)
    rng = substream(seed, "wigner", entry_kind)
    if entry_kind == "rademacher":
        w = rademacher(rng, n * n).reshape(n, n)
        diag = np.sqrt(2.0) * rademacher(rng, n)
    elif entry_kind == "gaussian_symmetric":
        w = rng.standard_normal((n, n))
        diag = np.sqrt(2.0) * rng.standard_normal(n)
    else:
        raise ValueError(f"unknown entry kind {entry_kind!r}")
    j = np.triu(w, 1)
    j = j + j.T
    np.fill_diagonal(j, diag)
    j /= np.sqrt(n)
    return MatrixOperator(n, lambda v: j @ v, 1.0, "wigner", seed=seed,
                          trace=float(np.trace(j)), dense=j)


def build_wishart_coupling(n: int, phi: float, seed: int,
                           entry_kind: str = "rademacher") -> MatrixOperator:
    """PSD coupling J = X^T X / sqrt(M N), M = round(phi N).

    The matvec uses the Gram form X^T(X v), which keeps every quadratic
    form nonnegative exactly; ``dense`` holds J for its resolvents.
    sigma_psi_sq stores the limiting spectral second moment 1 + phi.
    """
    _check_cap(n)
    if phi <= 0:
        raise ValueError(f"phi must be positive, got {phi}")
    m = int(round(phi * n))
    rng = substream(seed, "wishart", entry_kind)
    if entry_kind == "rademacher":
        x = rademacher(rng, m * n).reshape(m, n)
    elif entry_kind == "gaussian_symmetric":
        x = rng.standard_normal((m, n))
    else:
        raise ValueError(f"unknown entry kind {entry_kind!r}")
    scale = np.sqrt(m * n)

    def apply(v):
        return x.T @ (x @ v) / scale

    return MatrixOperator(n, apply, 1.0 + phi, "wishart", seed=seed,
                          trace=float(np.sum(x * x)) / scale,
                          dense=(x.T @ x) / scale)


# ---------------------------------------------------------------------------
# iterative linear algebra helpers
# ---------------------------------------------------------------------------

def power_iteration_norm(op: MatrixOperator, *, iters: int = 200,
                         tol: float = 1e-8, seed: int = 7) -> float:
    """Operator (spectral) norm of a symmetric operator by power iteration."""
    rng = substream(seed, "power", op.label)
    v = rng.standard_normal(op.dim)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = op.matvec(v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        if abs(norm - est) <= tol * max(norm, 1.0):
            return float(norm)
        est = norm
        v = w / norm
    return float(est)


def conjugate_gradient(apply, b: np.ndarray, *, rtol: float = 1e-10,
                       max_iter: int | None = None) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A given ``apply``.

    ``b`` may be a vector or an (N, K) block; columns are solved jointly
    with per-column step sizes.  Raises NumericError if the relative
    residual has not reached ``rtol`` within ``max_iter`` iterations
    (default 10 N).  No amplab code path calls it; benchmark/tracer.py
    still wraps it by name.
    """
    b = np.asarray(b, dtype=np.float64)
    single = b.ndim == 1
    bb = b[:, None] if single else b
    n = bb.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    x = np.zeros_like(bb)
    r = bb.copy()
    p = bb.copy()
    rs = np.sum(r * r, axis=0)
    bnorm = np.sqrt(np.sum(bb * bb, axis=0))
    bnorm[bnorm == 0.0] = 1.0
    target = (rtol * bnorm) ** 2
    for _ in range(max_iter):
        if np.all(rs <= target):
            return x[:, 0] if single else x
        ap = apply(p)
        denom = np.sum(p * ap, axis=0)
        denom[denom == 0.0] = np.finfo(float).tiny
        alpha = rs / denom
        x += alpha * p
        r -= alpha * ap
        rs_new = np.sum(r * r, axis=0)
        p = r + (rs_new / np.where(rs == 0.0, 1.0, rs)) * p
        rs = rs_new
    if np.all(rs <= target):
        return x[:, 0] if single else x
    worst = float(np.max(np.sqrt(rs) / bnorm))
    raise NumericError(
        f"conjugate gradient stalled at relative residual {worst:.3e}")


def hutchinson_trace_square(op: MatrixOperator, *, probes: int = 64,
                            seed: int = 29, block: int = 16) -> float:
    """Estimate Tr(M^2) = E ||M v||^2 over +/-1 probes (M symmetric).

    Probes are drawn one at a time (fixed stream) but applied in blocks of
    ``block`` columns, so expensive solves batch.
    """
    rng = substream(seed, "hutchinson-sq", op.label)
    draws = [2.0 * rng.integers(0, 2, size=op.dim).astype(np.float64) - 1.0
             for _ in range(probes)]
    total = 0.0
    for start in range(0, probes, block):
        w = op.matvec(np.stack(draws[start:start + block], axis=1))
        total += float(np.sum(w * w))
    return total / probes


# ---------------------------------------------------------------------------
# centered resolvent and diagnostics
# ---------------------------------------------------------------------------

def dense_form(op: MatrixOperator) -> np.ndarray:
    """The N x N matrix of ``op``: its ``dense`` field, else ``matvec(I)``.

    Materializing is refused before any matvec above MATERIALIZATION_CAP.
    """
    if op.dense is not None:
        return op.dense
    _check_cap(op.dim)
    return op.matvec(np.eye(op.dim))


def centered_resolvent(j_op: MatrixOperator, lam: float,
                       sigma_psi_sq: float) -> MatrixOperator:
    """M(lam) = (lam I - J)^{-1} - (Tr (lam I - J)^{-1} / N) I as an operator.

    One Cholesky factorization of lam I - J proves lam is above the
    spectrum of J (a failed one raises ValueError); the inverse is formed
    from the factor, its diagonal gives the centering constant, and each
    matvec is one dense product.  A coupling without a ``dense`` form is
    materialized from matvecs (see ``dense_form``).  ``sigma_psi_sq`` is
    supplied by the caller (closed form or algebraic identity for the law
    at hand).
    """
    n = j_op.dim
    shifted = -dense_form(j_op)
    shifted[np.diag_indices(n)] += lam
    try:
        factor, _ = cho_factor(shifted, lower=True, overwrite_a=True)
    except LinAlgError:
        raise ValueError(f"lambda = {lam} is not above the spectrum of "
                         f"{j_op.label}: lam I - J is not positive definite")
    inverse, info = lapack.dpotri(factor, lower=True, overwrite_c=True)
    if info:
        raise NumericError(f"inverting the Cholesky factor failed (info {info})")
    # dpotri writes the lower triangle only: mirror it above the diagonal
    np.copyto(inverse, inverse.T, where=~np.tri(n, dtype=bool))
    inverse[np.diag_indices(n)] -= np.trace(inverse) / n

    return MatrixOperator(n, lambda v: inverse @ v, sigma_psi_sq,
                          f"{j_op.label}-resolvent", seed=j_op.seed,
                          trace=0.0, dense=inverse, coupling=j_op)


def involution_resolvent(j_op: MatrixOperator, lam: float,
                         sigma_psi_sq: float | None = None) -> MatrixOperator:
    """Centered resolvent of a coupling with J^2 = I, without any solve.

    For a two-point spectrum the resolvent is a linear polynomial in J:
    M(lam) = (J - (Tr J / N) I) / (lam^2 - 1).  Requires lam > 1 and the
    exact trace to be known on the coupling.
    """
    if lam <= 1.0:
        raise ValueError(f"lambda = {lam} must exceed the spectral edge 1")
    if j_op.trace is None:
        raise ValueError(f"{j_op.label}: exact trace unknown")
    center = j_op.trace / j_op.dim
    denom = lam * lam - 1.0
    if sigma_psi_sq is None:
        sigma_psi_sq = resolvent_variance(SpectralLaw.rademacher(), lam)

    def apply(v):
        return (j_op.matvec(v) - center * v) / denom

    return MatrixOperator(j_op.dim, apply, sigma_psi_sq,
                          f"{j_op.label}-resolvent", seed=j_op.seed,
                          trace=0.0, coupling=j_op)


@dataclass(frozen=True)
class EnsembleDiagnostics:
    """Finite-N magnitudes of the semi-random defining conditions.

    The defining conditions are asymptotic, so no pass/fail verdict is
    attached; ``inf_ratio`` and ``offdiag_ratio`` rescale by sqrt(N) to
    make the expected O(N^{-1/2}) decay visible across sizes.
    """

    psi_inf_norm: float
    psi_op_norm: float
    max_offdiag_gram: float
    max_diag_gram_dev: float
    dim: int
    mode: str
    sampled_columns: int

    def __post_init__(self):
        for name in ("psi_inf_norm", "psi_op_norm", "max_offdiag_gram",
                     "max_diag_gram_dev"):
            val = getattr(self, name)
            if not (np.isfinite(val) and val >= 0):
                raise ValueError(f"{name} must be finite and nonnegative")

    @property
    def inf_ratio(self) -> float:
        return self.psi_inf_norm * np.sqrt(self.dim)

    @property
    def offdiag_ratio(self) -> float:
        return self.max_offdiag_gram * np.sqrt(self.dim)


def check_semi_random(op: MatrixOperator, mode: str = "dense", *,
                      pairs: int = 256, seed: int = 101) -> EnsembleDiagnostics:
    """Measure the delocalization / near-orthogonality diagnostics of M.

    Since M = S Psi S with S a sign diagonal, |Psi_ij| = |M_ij| and
    Psi Psi^T = S M M^T S entrywise up to signs, so every reported quantity
    is computable from M alone.  Dense mode reconstructs all N columns
    (requires dim <= cap, and for a lazy Haar operator dim <= the store's
    direction cap); probe mode samples ``pairs`` random Gram entries from
    a pool of sampled columns.
    """
    n = op.dim
    if mode == "dense":
        if op.haar_basis is not None and n > op.haar_basis.cap:
            raise ResourceError(
                f"dense diagnostics of {op.label} reveal all {n} Haar "
                f"directions, above the lazy store's cap of "
                f"{op.haar_basis.cap}; use probe mode (--mode probe)")
        m = dense_form(op)
        gram = m @ m.T
        diag = np.diag(gram)
        off = gram - np.diag(diag)
        inf_norm = float(np.max(np.abs(m)))
        max_off = float(np.max(np.abs(off)))
        max_diag = float(np.max(np.abs(diag - op.sigma_psi_sq)))
        cols = n
    elif mode == "probe":
        rng = substream(seed, "diagnostics", op.label)
        ncols = max(8, int(np.ceil((1 + np.sqrt(1 + 8 * pairs)) / 2)))
        ncols = min(ncols, n)
        idx = rng.choice(n, size=ncols, replace=False)
        cols_mat = np.zeros((n, ncols))
        for k, i in enumerate(idx):
            e = np.zeros(n)
            e[i] = 1.0
            cols_mat[:, k] = op.matvec(e)
        gram = cols_mat.T @ cols_mat
        all_pairs = [(a, b) for a in range(ncols) for b in range(a + 1, ncols)]
        take = min(pairs, len(all_pairs))
        chosen = rng.choice(len(all_pairs), size=take, replace=False)
        max_off = float(max(abs(gram[all_pairs[c][0], all_pairs[c][1]])
                            for c in chosen))
        inf_norm = float(np.max(np.abs(cols_mat)))
        max_diag = float(np.max(np.abs(np.diag(gram) - op.sigma_psi_sq)))
        cols = ncols
    else:
        raise ValueError(f"unknown mode {mode!r}")
    op_norm = power_iteration_norm(op, tol=1e-8)
    return EnsembleDiagnostics(inf_norm, op_norm, max_off, max_diag, n,
                               mode, cols)


# ---------------------------------------------------------------------------
# the ensemble table and CLI operator spec strings
# ---------------------------------------------------------------------------

class Ensemble(NamedTuple):
    """A named coupling family: its builder and its limiting spectral law."""

    build: Callable[[int, int, float], MatrixOperator]   # (n, seed, phi)
    law: Callable[[float], SpectralLaw]                  # (phi)


ENSEMBLES = {
    "signed-sine": Ensemble(
        lambda n, seed, phi: build_signed_sine(n, seed),
        lambda phi: SpectralLaw.rademacher()),
    "signed-hadamard": Ensemble(
        lambda n, seed, phi: build_signed_hadamard(n, seed),
        lambda phi: SpectralLaw.rademacher()),
    "random-orthogonal": Ensemble(
        lambda n, seed, phi: build_random_orthogonal(n, seed),
        lambda phi: SpectralLaw.rademacher()),
    "sk": Ensemble(
        lambda n, seed, phi: build_wigner_coupling(n, seed),
        lambda phi: SpectralLaw.semicircle()),
    "hopfield": Ensemble(
        lambda n, seed, phi: build_wishart_coupling(n, phi, seed),
        SpectralLaw.marchenko_pastur),
}


def operator_from_spec(spec: str, n: int, seed: int) -> MatrixOperator:
    """Build an operator from its command line spec string.

    Recognized forms: ``signed-sine``, ``signed-hadamard``,
    ``random-orthogonal``, ``wigner-resolvent:lambda=<x>`` (the ``sk``
    entry of ``ENSEMBLES``), ``wishart-resolvent:phi=<x>,lambda=<y>`` (the
    ``hopfield`` entry, law included), and
    ``sign-perm:base=hadamard,spectrum=<file>``.
    """
    name, _, argstr = spec.partition(":")
    args = {}
    if argstr:
        for item in argstr.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ValueError(f"malformed operator argument {item!r} in {spec!r}")
            args[key.strip()] = value.strip()
    required = {"wigner-resolvent": ("lambda",), "sign-perm": ("spectrum",),
                "wishart-resolvent": ("phi", "lambda")}.get(name, ())
    for key in required:
        if key not in args:
            form = ",".join(f"{k}=<{k}>" for k in required)
            raise ValueError(f"{spec!r} lacks {key}=; expected {name}:{form}")
    if name in ("signed-sine", "signed-hadamard", "random-orthogonal"):
        return ENSEMBLES[name].build(n, seed, 1.0)
    if name in ("wigner-resolvent", "wishart-resolvent"):
        entry, phi = ((ENSEMBLES["sk"], 1.0) if name == "wigner-resolvent"
                      else (ENSEMBLES["hopfield"], float(args["phi"])))
        lam = float(args["lambda"])
        return centered_resolvent(entry.build(n, seed, phi), lam,
                                  resolvent_variance(entry.law(phi), lam))
    if name == "sign-perm":
        base = args.get("base", "hadamard")
        if base != "hadamard":
            raise ValueError(f"unsupported sign-perm base {base!r}")
        law = SpectralLaw.from_file(args["spectrum"])
        return build_sign_perm(n, seed, law.eigenvalues)
    raise ValueError(f"unknown operator spec {spec!r}")
