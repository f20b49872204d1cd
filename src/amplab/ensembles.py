"""Matvec-only constructions of semi-random matrix operators.

Every operator here is an N x N symmetric matrix exposed exclusively
through matrix-vector products, together with the variance constant
sigma_psi^2 of its conjugated core.  The builders cover:

* signed sine      - S C S with C the odd discrete sine kernel
                     C_ij = 2 sin(2 pi i j / (2N+1)) / sqrt(2N+1),
* signed Hadamard  - S H diag(lam) H S with H the orthonormal
                     Hadamard-Walsh matrix and lam i.i.d. +/-1,
* random orthogonal- U diag(lam) U^T with U Haar, a uniform reflection
                     revealed lazily, so the full matrix is never sampled,
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
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericError, ResourceError
from .rng import rademacher, substream
from .spectral import SpectralLaw, resolvent_variance

# Dense reconstruction / factorization cap (see dense_form and the coupling
# builders).  All shipped experiments fit under it.
MATERIALIZATION_CAP = 8192

HAAR_CAP = 512  # Haar directions a dense check may reveal (dim <= HAAR_CAP)

# entries per chunked pass: 512 KB beat 256 KB and 1 MB in fwht at N >= 2^18
CHUNK = 1 << 16

# Columns of I per matvec in dense_form.  A signed-sine block's complex
# work array and result come to 5 blocks: 0.16 N x N at N = 1024.
DENSE_BLOCK = 32


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
    dense : ndarray or None
        The full matrix of the dense SK and Hopfield couplings and of every
        ``centered_resolvent``; ``dense_form`` and ``check_semi_random`` read it.
    coupling : MatrixOperator or None
        For resolvent and gauged operators, the underlying coupling J.
    involution : bool
        True when M^2 = I; the TAP driver then uses the closed-form resolvent.
    haar_basis : _LazyHaar or None
        A random-orthogonal operator's lazy store: its revealed orthonormal
        rows ``q`` and their ``cap``.
    signs : int8 ndarray or None
        S of an operator S K S, passed to ``apply`` as its second argument
        so that a gauge field can be folded into it.
    """

    def __init__(self, dim, apply, sigma_psi_sq, label, *, seed=None,
                 trace=None, dense=None, coupling=None, involution=False,
                 haar_basis=None, signs=None):
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
        self.signs = signs
        self._apply = apply

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape[0] != self.dim:
            raise ValueError(f"vector length {v.shape[0]} != dim {self.dim}")
        if self.signs is None:
            return self._apply(v)
        return self._apply(v, self.signs)

    def __repr__(self):
        return f"MatrixOperator({self.label!r}, dim={self.dim}, seed={self.seed})"


# ---------------------------------------------------------------------------
# fast orthogonal kernels
# ---------------------------------------------------------------------------

def fwht(v: np.ndarray) -> np.ndarray:
    """Orthonormal Hadamard-Walsh transform, O(N log N), H^2 = I.

    Length must be a power of two.  Operates along axis 0, so (N,) vectors
    and (N, K) column blocks both work; v is left unchanged.

    The radix-2 butterflies keep their level order, h = 1, 2, 4, ..., so the
    bits are those of the plain per-level transform, and run in place in
    the result a chunk at a time: with i = r b + s and b = 2^floor(log2 N / 2),
    the levels h < b take groups of rows of the (N/b, b) layout, the rest
    groups of its columns, each copied into one of two per-call scratch
    buffers of ``CHUNK`` entries so that every butterfly adds contiguous
    rows.  Seeds run on threads share no scratch.
    """
    a = np.asarray(v, dtype=np.float64)
    return _fwht(a, np.empty(a.shape))


def _fwht(a, out, d_in=None, d_out=None, scratch=None):
    # out = diag(d_out) H diag(d_in) a, d_in applied at the first copy-in
    # and d_out at the last write-out; C-ordered ``out`` may be ``a``
    n = a.shape[0]
    if n == 0 or n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    b = 1 << ((n.bit_length() - 1) // 2)
    r, k = n // b, a.size // n
    src, dst = a.reshape(r, b, k), out.reshape(r, b, k)
    rows = max(1, min(r, CHUNK // (b * k)))
    cols = max(1, min(b, CHUNK // (r * k)))
    need = max(rows * b, cols * r) * k  # min(N, CHUNK) for a vector
    if scratch is None or scratch.shape[1] < need:
        scratch = np.empty((2, need))
    s1, s2 = scratch
    for i in range(0, r, rows):
        m = min(rows, r - i)
        x = s1[:b * m * k].reshape(b, m, k)
        part = src[i:i + m].transpose(1, 0, 2)
        if d_in is None:
            np.copyto(x, part)
        else:
            np.multiply(part, d_in.reshape(r, b)[i:i + m].T[:, :, None], out=x)
        y, _ = _butterflies(x.reshape(b, -1), s2[:x.size].reshape(b, -1))
        dst[i:i + m] = y.reshape(b, m, k).transpose(1, 0, 2)
    for j in range(0, b, cols):
        m = min(cols, b - j)
        x = s1[:r * m * k].reshape(r, m, k)
        np.copyto(x, dst[:, j:j + m])
        y, _ = _butterflies(x.reshape(r, -1), s2[:x.size].reshape(r, -1))
        y = y.reshape(x.shape)
        y /= np.sqrt(n)
        if d_out is not None:
            y *= d_out.reshape(r, b)[:, j:j + m, None]
        dst[:, j:j + m] = y
    return out


def _butterflies(src, dst):
    # Radix-2 levels h = 1, 2, 4, ... pairing rows of src, alternating
    # between the two buffers; returns (result, spare buffer).
    h = 1
    while h < src.shape[0]:
        x = src.reshape(-1, 2, h, src.shape[1])
        y = dst.reshape(x.shape)
        np.add(x[:, 0], x[:, 1], out=y[:, 0])
        np.subtract(x[:, 0], x[:, 1], out=y[:, 1])
        src, dst = dst, src
        h *= 2
    return src, dst


def dst_matvec(v: np.ndarray, d: np.ndarray | None = None) -> np.ndarray:
    """Apply the symmetric orthogonal sine kernel C, C_ij = 2 sin(2 pi i j / L) / sqrt(L)
    with L = 2N + 1 and i, j = 1..N.  C is an involution: C(Cv) = v.

    O(N log N) as a chirp-z convolution: 2 i j = i^2 + j^2 - (j - i)^2 gives
    (C v)_i = Im[c_i sum_j c_j v_j conj(c_{j-i})] 2 / sqrt(L), c_m =
    exp(i pi m^2 / L), which one power-of-two FFT pair of length
    M >= 2N - 1 makes in one complex work array along axis 0, for (N,)
    vectors and (N, K) blocks alike.  Given a diagonal d, it returns
    C diag(d) v, writing d v straight into the work array.
    """
    a = np.asarray(v, dtype=np.float64)
    n = a.shape[0]
    c, kernel = (_along_rows(x, a) for x in _chirp(n))
    # the result first: made after the FFTs, it could split the hole their
    # buffers left, and the next call would grow the heap for them
    out = np.empty(a.shape)
    work = np.zeros(kernel.shape[:1] + a.shape[1:], dtype=np.complex128)
    head = work[:n]
    np.multiply(a, 1 if d is None else _along_rows(d, a), out=head.real)
    head *= c
    np.fft.fft(work, axis=0, out=work)
    work *= kernel
    np.fft.ifft(work, axis=0, out=work)
    head *= c
    np.copyto(out, head.imag)
    return out


@lru_cache(maxsize=1)
def _chirp(n: int):
    # c_1..c_N and the FFT of the kernel conj(c_|m|), |m| < N, laid out
    # cyclically in M entries and scaled by 2 / sqrt(L).  The phase m^2 mod
    # 2L is exact in integers, reduced in place in one array that is gone
    # before the FFT.  Read-only: seeds on threads share them.
    length = 2 * n + 1
    phase = np.arange(n + 1)
    phase *= phase
    phase %= 2 * length
    chirp = np.multiply(1j * np.pi / length, phase, dtype=np.complex128)
    del phase
    np.exp(chirp, out=chirp)
    kernel = np.zeros(1 << (2 * n - 2).bit_length(), dtype=np.complex128)
    np.conjugate(chirp[:n], out=kernel[:n])
    kernel[len(kernel) - n + 1:] = kernel[n - 1:0:-1]
    np.fft.fft(kernel, out=kernel)
    kernel *= 2.0 / np.sqrt(length)
    chirp.flags.writeable = kernel.flags.writeable = False
    return chirp[1:], kernel


def _along_rows(d, v):  # d shaped to scale the rows of v, (N,) or (N, K)
    return d[:, None] if v.ndim == 2 else d


def scale_rows(d: np.ndarray, v: np.ndarray) -> np.ndarray:
    """diag(d) v for v (N,) or (N, K); an int8 +/-1 d keeps float64 bits."""
    return _along_rows(d, v) * v


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_signed_sine(n: int, seed: int) -> MatrixOperator:
    """M = S C S with i.i.d. +/-1 diagonal S; sigma_psi^2 = 1, M^2 = I."""
    signs = rademacher(substream(seed, "signs"), n).astype(np.int8)

    def apply(v, s):
        out = dst_matvec(v, s)
        out *= _along_rows(s, out)
        return out

    # Tr C, a quadratic Gauss sum, is 0 for L = 1 mod 4 (n even), else 1
    return MatrixOperator(n, apply, 1.0, "signed-sine", seed=seed,
                          trace=float(n % 2), involution=True, signs=signs)


def build_signed_hadamard(n: int, seed: int) -> MatrixOperator:
    """M = S H diag(lam) H S, H the Hadamard-Walsh matrix, lam, s i.i.d. +/-1.

    Matvec is two fast transforms and three diagonal scalings, made as the
    transforms copy their chunks in and out, in one new array; M^2 = I.
    """
    if n & (n - 1):
        raise ValueError(f"signed Hadamard needs a power-of-two size, got {n}")
    signs = rademacher(substream(seed, "signs"), n).astype(np.int8)
    lam = rademacher(substream(seed, "spectrum"), n).astype(np.int8)

    def apply(v, s):  # one scratch pair for both transforms
        # the result before the pair: a pair carved from the hole a freed
        # N-vector left would make malloc grow the heap for this one
        out = np.empty(v.shape)
        scratch = np.empty((2, min(v.size, CHUNK)))
        _fwht(v, out, s, scratch=scratch)
        return _fwht(out, out, lam, s, scratch)

    return MatrixOperator(n, apply, 1.0, "signed-hadamard", seed=seed,
                          trace=float(lam.sum()), involution=True,
                          signs=signs)


class _LazyHaar:
    """The reflection M = U diag(lam) U^T, U Haar, revealed as it is queried.

    It holds an orthonormal basis B of an M-invariant subspace, the rows of
    one (max_directions, dim) buffer, and R = B M B^T.  On the complement
    M is again a uniform reflection, with p' eigenvalues +1 and n' -1 left
    (as in VAMP's state evolution: Rangan, Schniter & Fletcher 2019).  So a
    query's unit residual u has <u, M u> = a = 2 beta - 1, beta ~
    Beta(p'/2, n'/2), and M u = a u + s w with w fresh and uniform: R gains
    the block [[a, s], [s, -a]] on (u, w).  With p' or n' at 0, M u = -/+u.
    The store mutates: not for use from two threads at once.
    """

    _DROP = 1e-13  # relative residual below which a direction is not spawned

    def __init__(self, dim, rng, max_directions, positives):
        self.rng = rng
        self.cap = max_directions
        self._count = 0
        self._left = [positives, dim - positives]  # p', n'
        self._q = np.empty((max_directions, dim))
        self._r = np.zeros((max_directions, max_directions))  # B M B^T

    @property
    def q(self):  # (k, dim): the revealed basis B as rows
        return self._q[:self._count]

    def _fresh(self, basis, out):
        # Gaussian direction orthogonalized against `basis` rows (twice).
        for _ in range(8):
            g = self.rng.standard_normal(out.size)
            g -= basis.T @ (basis @ g)
            g -= basis.T @ (basis @ g)
            norm = np.linalg.norm(g)
            if norm > 1e-8 * np.sqrt(out.size):
                return np.divide(g, norm, out=out)
        raise NumericError("could not draw a fresh orthogonal direction")

    def apply(self, v):  # M v for one vector
        basis, k = self.q, self._count
        coef = basis @ v
        resid = basis.T @ coef
        np.subtract(v, resid, out=resid)
        again = basis @ resid
        resid -= basis.T @ again
        coef += again
        out = basis.T @ (self._r[:k, :k] @ coef)
        rnorm = np.linalg.norm(resid)
        if rnorm <= self._DROP * np.linalg.norm(v):
            return out
        pos, neg = self._left
        rows = 2 if pos and neg else 1
        if k + rows > self.cap:
            raise ResourceError(f"lazy Haar store exceeded {self.cap} directions")
        np.divide(resid, rnorm, out=self._q[k])
        if rows == 1:  # M is I (n' = 0) or -I (p' = 0) on the complement
            self._r[k, k] = a = 1.0 if pos else -1.0
            out += np.multiply(resid, a, out=resid)
        else:
            beta = self.rng.beta(pos / 2, neg / 2)
            a, s = 2 * beta - 1, 2 * np.sqrt(beta * (1 - beta))
            w = self._fresh(self._q[:k + 1], self._q[k + 1])
            self._r[k:k + 2, k:k + 2] = [[a, s], [s, -a]]
            out += np.multiply(resid, a, out=resid)
            out += np.multiply(w, rnorm * s, out=resid)
        self._left = [pos - bool(pos), neg - bool(neg)]
        self._count = k + rows
        return out


def build_random_orthogonal(n: int, seed: int, *,
                            max_directions: int) -> MatrixOperator:
    """M = U diag(lam) U^T with U Haar and lam i.i.d. +/-1: a reflection,
    uniform given p = (N + Tr M) / 2, revealed lazily (see ``_LazyHaar``).

    The store reserves ``max_directions`` N-vectors up front.  A matvec
    reveals at most two, so T matvecs need the budget min(2T, N); more
    raises a ResourceError, and a budget of None a ValueError before
    anything is allocated.  The store mutates on first touch of a new
    direction: this is the one operator not re-entrant during a matvec.  A
    column block is applied a column at a time, in order; the image of a
    vector outside the revealed span depends on the queries made before it
    (each history gives an equally distributed M).
    """
    if max_directions is None:
        raise ValueError("random-orthogonal needs max_directions, its Haar "
                         "budget: T matvecs reveal up to min(2T, N) directions")
    trace = float(rademacher(substream(seed, "spectrum"), n).sum())
    basis = _LazyHaar(n, substream(seed, "haar"), max_directions,
                      int(n + trace) // 2)

    # not recursive: a self-referencing closure lives until the cycle collector
    def apply(v):
        if v.ndim == 1:
            return basis.apply(v)
        return np.stack([basis.apply(col) for col in v.T], axis=1)

    return MatrixOperator(n, apply, 1.0, "random-orthogonal", seed=seed,
                          trace=trace, involution=True, haar_basis=basis)


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
    signs = rademacher(substream(seed, "signs"), n).astype(np.int8)
    # P diag(lam) P^T is the diagonal of lam permuted: entry i is lam[inv[i]]
    inv = np.argsort(substream(seed, "perm").permutation(n))
    lam_p = lam[inv]

    def apply(v, s):  # H, diag(lam_p) at the write-out; then H, D
        w = _fwht(v, np.empty(v.shape), s, lam_p)
        return _fwht(w, w, d_out=s)

    return MatrixOperator(n, apply, sig2, "sign-perm", seed=seed,
                          trace=float(lam.sum()), signs=signs)


def _mirror_upper(a: np.ndarray) -> None:
    """Copy a's strict upper triangle below its diagonal, 64 rows a step."""
    for i in range(0, len(a), 64):
        rows, tile = slice(i, i + 64), a[i:i + 64, i:i + 64]
        a[rows, :i] = a[:i, rows].T
        np.copyto(tile, tile.T, where=np.tri(len(tile), k=-1, dtype=bool))


def _check_cap(n):
    if n > MATERIALIZATION_CAP:
        raise ValueError(
            f"dense coupling of size {n} exceeds cap {MATERIALIZATION_CAP}")


def build_wigner_coupling(n: int, seed: int) -> MatrixOperator:
    """Dense symmetric J = W / sqrt(N), E W_ij^2 = 1 + delta_ij.

    Entries are +/-1 off the diagonal and +/-sqrt(2) on it.  The limiting
    spectrum is the semicircle on [-2, 2] and the stored sigma_psi_sq is
    its second moment, 1.  J is the draw's own N x N buffer, its upper
    triangle mirrored below the diagonal; the draw briefly holds its
    N x N integers as well.
    """
    _check_cap(n)
    rng = substream(seed, "wigner", "rademacher")  # the label keys every SK draw
    j = rademacher(rng, n * n).reshape(n, n)
    diag = np.sqrt(2.0) * rademacher(rng, n)
    _mirror_upper(j)
    np.fill_diagonal(j, diag)
    j /= np.sqrt(n)
    return MatrixOperator(n, lambda v: j @ v, 1.0, "wigner", seed=seed,
                          trace=float(np.trace(j)), dense=j)


def build_wishart_coupling(n: int, phi: float, seed: int) -> MatrixOperator:
    """PSD coupling J = X^T X / sqrt(M N), M = round(phi N), X of +/-1 entries.

    J, scaled in place, is its ``dense`` form and the one N x N array it
    keeps (X is dropped once J and the trace are formed); the matvec is
    J v.  sigma_psi_sq stores the limiting spectral second moment 1 + phi.
    """
    _check_cap(n)
    if phi <= 0:
        raise ValueError(f"phi must be positive, got {phi}")
    m = int(round(phi * n))
    # the "rademacher" label keys every Hopfield draw
    x = rademacher(substream(seed, "wishart", "rademacher"), m * n).reshape(m, n)
    scale = np.sqrt(m * n)
    trace = float(np.sum(x * x)) / scale
    j = x.T @ x
    j /= scale
    return MatrixOperator(n, lambda v: j @ v, 1.0 + phi, "wishart", seed=seed,
                          trace=trace, dense=j)


# ---------------------------------------------------------------------------
# iterative linear algebra helpers
# ---------------------------------------------------------------------------

def power_iteration_norm(op: MatrixOperator) -> float:
    """Operator (spectral) norm of a symmetric operator by power iteration."""
    rng = substream(7, "power", op.label)
    v = rng.standard_normal(op.dim)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(200):
        w = op.matvec(v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        if abs(norm - est) <= 1e-8 * max(norm, 1.0):
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


# ---------------------------------------------------------------------------
# centered resolvent and diagnostics
# ---------------------------------------------------------------------------

def dense_form(op: MatrixOperator) -> np.ndarray:
    """The N x N matrix of ``op``: its ``dense`` field, else ``matvec(I)``
    taken DENSE_BLOCK columns at a time.  Materializing is refused before
    any matvec above MATERIALIZATION_CAP.
    """
    if op.dense is not None:
        return op.dense
    n = op.dim
    _check_cap(n)
    out = np.empty((n, n))
    for start in range(0, n, DENSE_BLOCK):
        eye = np.eye(n, min(DENSE_BLOCK, n - start), -start)
        out[:, start:start + eye.shape[1]] = op.matvec(eye)
    return out


def centered_resolvent(j_op: MatrixOperator, lam: float,
                       sigma_psi_sq: float) -> MatrixOperator:
    """M(lam) = (lam I - J)^{-1} - (Tr (lam I - J)^{-1} / N) I as an operator.

    The one N x N buffer held beyond J is Fortran-ordered: it takes
    lam I - J, whose Cholesky factorization, made in place, proves lam is
    above the spectrum of J (a failed one raises ValueError); LAPACK then
    inverts it in place too, and it becomes the operator's ``dense``.  Its
    diagonal gives the centering constant, and each matvec is one dense
    product.  A coupling without a ``dense`` form is materialized from
    matvecs (see ``dense_form``).  ``sigma_psi_sq`` is supplied by the
    caller (closed form or algebraic identity for the law at hand).
    """
    # here, not at module level: `amplab se` never loads scipy.linalg
    from scipy.linalg import LinAlgError, cho_factor, lapack
    n = j_op.dim
    shifted = np.negative(dense_form(j_op), out=np.empty((n, n), order="F"))
    shifted[np.diag_indices(n)] += lam
    try:
        factor, _ = cho_factor(shifted, lower=True, overwrite_a=True)
    except LinAlgError:
        raise ValueError(f"lambda = {lam} is not above the spectrum of "
                         f"{j_op.label}: lam I - J is not positive definite")
    inverse, info = lapack.dpotri(factor, lower=True, overwrite_c=True)
    if info:
        raise NumericError(f"inverting the Cholesky factor failed (info {info})")
    # dpotri fills the lower triangle, the upper one of inverse.T: mirror it
    _mirror_upper(inverse.T)
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
        out = j_op.matvec(v)  # a new array: (J v - center v) / denom in place
        for i in range(0, len(v), CHUNK):
            out[i:i + CHUNK] -= center * v[i:i + CHUNK]
        out /= denom
        return out

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
                      pairs: int = 256) -> EnsembleDiagnostics:
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
        inf_norm = float(np.max(np.abs(m)))
        gram = m @ m.T
        diag = np.diag(gram).copy()
        np.fill_diagonal(gram, 0.0)
        max_off = float(np.max(np.abs(gram, out=gram)))
        max_diag = float(np.max(np.abs(diag - op.sigma_psi_sq)))
    elif mode == "probe":
        rng = substream(101, "diagnostics", op.label)
        ncols = _probe_columns(n, pairs)
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
    else:
        raise ValueError(f"unknown mode {mode!r}")
    op_norm = power_iteration_norm(op)
    return EnsembleDiagnostics(inf_norm, op_norm, max_off, max_diag, n, mode)


def _probe_columns(n, pairs):  # sampled columns enough for `pairs` pairs
    return min(n, max(8, int(np.ceil((1 + np.sqrt(1 + 8 * pairs)) / 2))))


def check_haar_budget(n: int, mode: str, pairs: int = 256) -> int:
    """Haar directions ``check_semi_random`` reveals: all N in dense mode
    (refused above HAAR_CAP), else two per sampled column and two per power
    step; the power iteration on an orthogonal M stops at its second step."""
    if mode == "dense":
        return min(n, HAAR_CAP)
    return min(n, 2 * _probe_columns(n, pairs) + 4)


# ---------------------------------------------------------------------------
# the ensemble table and CLI operator spec strings
# ---------------------------------------------------------------------------

class Ensemble(NamedTuple):
    """A named coupling family: its builder and its limiting spectral law."""

    build: Callable[[int, int, float, int], MatrixOperator]  # (n, seed, phi, dirs)
    law: Callable[[float], SpectralLaw]                      # (phi)


ENSEMBLES = {
    "signed-sine": Ensemble(
        lambda n, seed, phi, dirs: build_signed_sine(n, seed),
        lambda phi: SpectralLaw.rademacher()),
    "signed-hadamard": Ensemble(
        lambda n, seed, phi, dirs: build_signed_hadamard(n, seed),
        lambda phi: SpectralLaw.rademacher()),
    "random-orthogonal": Ensemble(
        lambda n, seed, phi, dirs: build_random_orthogonal(
            n, seed, max_directions=dirs),
        lambda phi: SpectralLaw.rademacher()),
    "sk": Ensemble(
        lambda n, seed, phi, dirs: build_wigner_coupling(n, seed),
        lambda phi: SpectralLaw.semicircle()),
    "hopfield": Ensemble(
        lambda n, seed, phi, dirs: build_wishart_coupling(n, phi, seed),
        SpectralLaw.marchenko_pastur),
}


def operator_from_spec(spec: str, n: int, seed: int, *,
                       max_directions: int | None = None) -> MatrixOperator:
    """Build an operator from its command line spec string.

    Recognized forms: ``signed-sine``, ``signed-hadamard``,
    ``random-orthogonal`` (the only one that reads ``max_directions``, its
    Haar budget, which it requires),
    ``wigner-resolvent:lambda=<x>`` (the ``sk`` entry of ``ENSEMBLES``),
    ``wishart-resolvent:phi=<x>,lambda=<y>`` (the ``hopfield`` entry, law
    included), and ``sign-perm:base=hadamard,spectrum=<file>``.
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
    form = f"{name}:" + ",".join(f"{k}=<{k}>" for k in required)
    for key in required:
        if key not in args:
            raise ValueError(f"{spec!r} lacks {key}=; expected {form}")

    def number(key):
        try:
            value = float(args[key])
        except ValueError:
            value = np.nan
        if not np.isfinite(value):
            raise ValueError(f"{spec!r}: {key}={args[key]!r} is not a finite "
                             f"number; expected {form}")
        return value

    if name in ("signed-sine", "signed-hadamard", "random-orthogonal"):
        return ENSEMBLES[name].build(n, seed, 1.0, max_directions)
    if name in ("wigner-resolvent", "wishart-resolvent"):
        entry, phi = ((ENSEMBLES["sk"], 1.0) if name == "wigner-resolvent"
                      else (ENSEMBLES["hopfield"], number("phi")))
        lam = number("lambda")
        return centered_resolvent(entry.build(n, seed, phi, max_directions), lam,
                                  resolvent_variance(entry.law(phi), lam))
    if name == "sign-perm":
        base = args.get("base", "hadamard")
        if base != "hadamard":
            raise ValueError(f"unsupported sign-perm base {base!r}")
        law = SpectralLaw.from_file(args["spectrum"])
        return build_sign_perm(n, seed, law.eigenvalues)
    raise ValueError(f"unknown operator spec {spec!r}")
