"""Matvec-only constructions of semi-random matrix operators.

Every operator here is an N x N symmetric matrix exposed exclusively
through matrix-vector products, together with the variance constant
sigma_psi^2 of its conjugated core.  The builders cover:

* signed sine      - S C S with C the odd discrete sine kernel
                     C_ij = 2 sin(2 pi i j / (2N+1)) / sqrt(2N+1),
* sign-permutation - S H P diag(lam) P^T H S with H the orthonormal
                     Hadamard-Walsh matrix, P a uniform permutation and
                     lam a supplied spectrum,
* signed Hadamard  - its case with P = I and lam i.i.d. +/-1; both come
                     from one builder, with one matvec,
* random orthogonal- U diag(lam) U^T with U Haar, a uniform reflection
                     revealed lazily, so the full matrix is never sampled,
* Wigner / Wishart couplings, kept as their int8 +/-1 draws and written a
  block of J at a time, and their trace-centered resolvents (a dense
  inverse from one Cholesky factorization, applied as one gemv).

Signed sine, signed Hadamard and random orthogonal have spectrum {-1, +1}
(they square to the identity): their law is the Rademacher one, and for
that law the TAP driver uses the centered resolvent in closed form,
(J - (Tr J / N) I) / (lam^2 - 1), of ``involution_resolvent``: for a
sign-perm coupling, signed Hadamard among them, a sign-perm operator
again.  Every matvec can write its product over its input.
``ENSEMBLES`` declares every name that ``run``, ``tap`` or
``check-ensemble`` takes once: its spec keys, its builder and, for a
coupling that ``tap`` takes, its law.  The resolvent rows wrap the ``sk``
and ``hopfield`` rows' builder and law.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)
from importlib.util import find_spec, module_from_spec
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericError, ResourceError
from .rng import CHUNK, rademacher, substream
from .spectral import SpectralLaw, resolvent_variance

# Dense reconstruction / factorization cap (see dense_form and the coupling
# builders).  All shipped experiments fit under it.
MATERIALIZATION_CAP = 8192

HAAR_CAP = 512  # Haar directions a dense check may reveal (dim <= HAAR_CAP)

# H_16 = ((-1)^popcount(i & j)), read-only; built in Python, as numpy's
# popcount loop would add 0.3 MB of resident code to every process
_H16 = np.array([[(-1.0) ** (i & j).bit_count() for j in range(16)]
                 for i in range(16)])
_H16.flags.writeable = False

# Columns of I per matvec in dense_form.  A signed-sine block's complex
# work array and result come to 5 blocks: 0.16 N x N at N = 1024.
DENSE_BLOCK = 32


def _width(n):
    # Rows per block of J written from a dense coupling's draw, and columns
    # per stripe of lam I - J: two float32 panels of X take phi / 8 N x N
    # float64, the int8 draw's size; at N = 2048 the Gram costs one syrk
    return min(256, max(64, n // 8))


class MatrixOperator:
    """Symmetric operator known only through products w = M v.

    ``apply`` must take a vector (N,) and a column block (N, K) alike.
    With ``writes_out`` it is ``apply(v, out)`` (``apply(v, signs, out)``
    with ``signs``), which writes M v into ``out``, an array of v's shape
    that may be v itself, and returns it; else ``apply(v)`` returns M v.

    Attributes
    ----------
    dim : int
    sigma_psi_sq : float
        The limiting value of the conjugated core's squared row norms
        ((Psi Psi^T)_ii); for raw couplings this is the limiting spectral
        second moment.
    label : str
    trace : float or None
        Exact trace when it is cheap to know (diagonal-sum formulas).
    dense : ndarray or None
        The full matrix of every ``centered_resolvent`` and of an operator
        built around one; ``dense_form`` and ``check_semi_random`` read it.
    blocks : callable or None
        For the SK and Hopfield couplings, which keep only their exact +/-1
        draws: ``blocks(out, row, col)`` writes the block of J at (row, col)
        with the shape of ``out``, a float64 array of a few rows, into it
        and returns it.
    coupling : MatrixOperator or None
        For resolvent and gauged operators, the underlying coupling J.
    haar_basis : _LazyHaar or None
        A random-orthogonal operator's lazy store: its revealed orthonormal
        rows ``q`` and their ``cap``.
    signs : int8 ndarray or None
        S of an operator S K S, passed to ``apply`` as its second argument
        so that a gauge field can be folded into it.
    spectrum : ndarray or None
        lam of a sign-perm operator S H P diag(lam) P^T H S, in P's order.
        Its ``apply`` also takes ``shift`` and ``scale`` and then applies
        S H P diag((lam - shift) / scale) P^T H S, the operator
        (M - shift I) / scale.
    writes_out : bool
        Whether ``apply`` writes into an ``out`` argument (see above).
    """

    def __init__(self, dim, apply, sigma_psi_sq, label, *, trace=None,
                 dense=None, blocks=None, coupling=None, haar_basis=None,
                 signs=None, spectrum=None, writes_out=False):
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        if sigma_psi_sq <= 0:
            raise ValueError(f"sigma_psi_sq must be positive, got {sigma_psi_sq}")
        self.dim = int(dim)
        self.sigma_psi_sq = float(sigma_psi_sq)
        self.label = str(label)
        self.trace = trace
        self.dense = dense
        self.blocks = blocks
        self.coupling = coupling
        self.haar_basis = haar_basis
        self.signs = signs
        self.spectrum = spectrum
        self.writes_out = writes_out
        self._apply = apply

    def matvec(self, v: np.ndarray, out=None) -> np.ndarray:
        """M v, written into ``out`` when it is given; ``out`` may be v."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape[0] != self.dim:
            raise ValueError(f"vector length {v.shape[0]} != dim {self.dim}")
        args = (v,) if self.signs is None else (v, self.signs)
        if self.writes_out:
            return self._apply(*args, np.empty(v.shape) if out is None else out)
        if out is None:
            return self._apply(*args)
        np.copyto(out, self._apply(*args))
        return out

    def __repr__(self):
        return f"MatrixOperator({self.label!r}, dim={self.dim})"


# ---------------------------------------------------------------------------
# fast orthogonal kernels
# ---------------------------------------------------------------------------

def fwht(v: np.ndarray) -> np.ndarray:
    """Orthonormal Hadamard-Walsh transform, O(N log N), H^2 = I.

    Length must be a power of two.  Operates along axis 0, so (N,) vectors
    and (N, K) column blocks both work; v is left unchanged.

    H_N is a Kronecker product of Sylvester blocks (Fino & Algazi 1976):
    stages of at most 4 levels, each one batched BLAS product with a +/-1
    block, run in place a chunk at a time.  With i = r b + s and
    b = 2^floor(log2 N / 2), levels below b take row groups of the (N/b, b)
    layout, the rest column groups, copied into a per-call scratch pair of
    ``CHUNK`` entries.  The bits depend on the BLAS kernel, not its thread
    count; an (N, K) block's columns match vector calls to rounding.
    """
    a = np.asarray(v, dtype=np.float64)
    return _fwht(a, np.empty(a.shape))


def _fwht(a, out, d_in=None, d_out=None, scratch=None, shift=0.0, scale=1.0):
    # out = diag(d_out) H diag(d_in) a, d_in applied at the first copy-in
    # and d_out at the last write-out; C-ordered ``out`` may be ``a``.  A
    # shift or scale gives diag((d_out - shift) / scale) in its place, made
    # a chunk at a time in the scratch buffer that the chunk's result is not in
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
        d = 1 if d_in is None else d_in.reshape(r, b)[i:i + m].T[:, :, None]
        np.multiply(src[i:i + m].transpose(1, 0, 2), d, out=x)
        y = _butterflies(x.reshape(b, -1), s2[:x.size].reshape(b, -1))
        dst[i:i + m] = y.reshape(b, m, k).transpose(1, 0, 2)
    for j in range(0, b, cols):
        m = min(cols, b - j)
        x = s1[:r * m * k].reshape(r, m, k)
        np.copyto(x, dst[:, j:j + m])
        y = _butterflies(x.reshape(r, -1),
                         s2[:x.size].reshape(r, -1)).reshape(x.shape)
        y /= np.sqrt(n)
        d = 1 if d_out is None else d_out.reshape(r, b)[:, j:j + m, None]
        if shift or scale != 1.0:
            free = s2 if np.may_share_memory(y, s1) else s1
            d = np.subtract(d, shift, out=free[:r * m].reshape(r, m, 1))
            d /= scale
        np.multiply(y, d, out=dst[:, j:j + m])
    return out


def _butterflies(src, dst):
    # H along axis 0, near-equal stages of <= 4 bits; returns the result
    bits = src.shape[0].bit_length() - 1
    count, width = -(-bits // 4), src.shape[1]
    for stage in range(count):
        f = 1 << (bits + stage) // count  # H_F on each (F, width) slice
        np.matmul(_H16[:f, :f], src.reshape(-1, f, width),
                  out=dst.reshape(-1, f, width))
        src, dst, width = dst, src, width * f
    return src


def dst_matvec(v: np.ndarray, d: np.ndarray | None = None, *,
               out=None) -> np.ndarray:
    """Apply the symmetric orthogonal sine kernel C, C_ij = 2 sin(2 pi i j / L) / sqrt(L)
    with L = 2N + 1 and i, j = 1..N.  C is an involution: C(Cv) = v.

    O(N log N) as a chirp-z convolution: 2 i j = i^2 + j^2 - (j - i)^2 gives
    (C v)_i = Im[c_i sum_j c_j v_j conj(c_{j-i})] 2 / sqrt(L), c_m =
    exp(i pi m^2 / L), which one power-of-two FFT pair of length
    M >= 2N - 1 makes in one complex work array along axis 0, for (N,)
    vectors and (N, K) blocks alike.  Given a diagonal d, it returns
    C diag(d) v, writing d v straight into the work array.  The result
    goes into ``out`` if given, which may be v: v is read into the work
    array first, and the result written from it last.
    """
    a = np.asarray(v, dtype=np.float64)
    n = a.shape[0]
    c, kernel = (_along_rows(x, a) for x in _chirp(n))
    # the result first: made after the FFTs, it could split the hole their
    # buffers left, and the next call would grow the heap for them
    if out is None:
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


def scale_rows(d: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    """diag(d) v for v (N,) or (N, K), into ``out`` if given (which may be
    v); an int8 +/-1 d keeps float64 bits."""
    return np.multiply(_along_rows(d, v), v, out=out)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _check_size(n):
    # before any draw: numpy's own refusal would not name N
    if n < 2:
        raise ValueError(f"N must be >= 2, got {n}")


def build_signed_sine(n: int, seed: int) -> MatrixOperator:
    """M = S C S with i.i.d. +/-1 diagonal S; sigma_psi^2 = 1, M^2 = I."""
    _check_size(n)
    signs = rademacher(substream(seed, "signs"), n, np.int8)

    def apply(v, s, out):
        dst_matvec(v, s, out=out)
        out *= _along_rows(s, out)
        return out

    # Tr C, a quadratic Gauss sum, is 0 for L = 1 mod 4 (n even), else 1
    return MatrixOperator(n, apply, 1.0, "signed-sine", trace=float(n % 2),
                          signs=signs, writes_out=True)


def build_signed_hadamard(n: int, seed: int) -> MatrixOperator:
    """M = S H diag(lam) H S, H the Hadamard-Walsh matrix, lam, s i.i.d. +/-1:
    ``build_sign_perm``'s operator with a Rademacher spectrum from
    ``"spectrum"`` and P = I; sigma_psi^2 = 1, M^2 = I."""
    _check_size(n)
    lam = rademacher(substream(seed, "spectrum"), n, np.int8)
    return _signed_hadamard(n, seed, "signed-hadamard", lam, permute=False)


def _signed_hadamard(n, seed, label, lam, *, permute):
    # S H P diag(lam) P^T H S, S from "signs" and, with ``permute``, P from
    # "perm"; trace and sigma_psi^2 = mean(lam^2) summed in lam's order
    if n & (n - 1):
        raise ValueError(f"{label} needs a power-of-two size, got {n}")
    signs = rademacher(substream(seed, "signs"), n, np.int8)
    trace, sig2 = float(lam.sum()), float(np.mean(lam * lam))
    if permute:  # P diag(lam) P^T is lam permuted: entry i is lam[inv[i]]
        lam = lam[np.argsort(substream(seed, "perm").permutation(n))]

    def apply(v, s, out, shift=0.0, scale=1.0):
        # S in, lam at the first write-out, S at the last; one scratch pair
        # serves both.  lam at the second copy-in gives the same bits, but a
        # float64 lam read there made the matvec 4-8% slower at N = 2^16 on
        # a 2-CPU Xeon
        scratch = np.empty((2, min(v.size, CHUNK)))
        _fwht(v, out, s, lam, scratch, shift, scale)
        return _fwht(out, out, d_out=s, scratch=scratch)

    return MatrixOperator(n, apply, sig2, label, trace=trace, signs=signs,
                          spectrum=lam, writes_out=True)


class _LazyHaar:
    """The reflection M = U diag(lam) U^T, U Haar, revealed as it is queried.

    It holds an orthonormal basis B of an M-invariant subspace, the rows of
    one (max_directions, dim) buffer, and R = B M B^T.  On the complement
    M is again a uniform reflection, with p' eigenvalues +1 and n' -1 left
    (as in VAMP's state evolution: Rangan, Schniter & Fletcher 2019).  So a
    query's unit residual u has <u, M u> = a = 2 beta - 1, beta ~
    Beta(p'/2, n'/2), and M u = a u + s w with w fresh and uniform: R gains
    the block [[a, s], [s, -a]] on (u, w).  With p' or n' at 0, M u = -/+u.

    A query is copied into the free store row after B and, when it may
    reveal a pair, the Gaussian draw g for w into the row after that;
    ``_project`` takes both off B at once, in three passes over B, and g
    then loses its u part.  Only a full store, which can answer queries
    inside its span alone, projects a query in a temporary row.  The store
    mutates: not for use from two threads at once.
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

    def _project(self, x, k, out=None):
        """Take the rows of ``x`` off B = q[:k] in place: classical
        Gram-Schmidt run twice (Giraud, Langou & Rozloznik 2005).

        Three passes over B: c1 = x B^T; x -= c1 B, then c2 = x B^T; x -=
        c2 B, and with ``out`` given, out = B^T R (c1 + c2)[0] from the
        same product.  Each pass runs over chunks of columns, sized so that
        a chunk of B, of x and of the product fill CHUNK entries together;
        the second use of a chunk of B then finds it in cache.  Returns
        ||x[0]||^2 before the passes and the Gram matrix x x^T after them.
        """
        rows, n = x.shape
        basis = self._q[:k]
        width = CHUNK // (k + 2 * rows + 1)
        spans = [slice(i, i + width) for i in range(0, n, width)]
        c1, c2 = np.zeros((rows, k)), np.zeros((rows, k))
        before, gram = 0.0, np.zeros((rows, rows))
        scratch = np.empty((rows + 1) * min(width, n))

        def times_basis(c, j):  # c @ basis[:, j], written into scratch
            b = basis[:, j]
            return np.matmul(c, b, out=scratch[:len(c) * b.shape[1]]
                             .reshape(len(c), -1))

        for j in spans:  # ||x[0]||^2 as pairwise sums, as in _finish_pair
            c1 += x[:, j] @ basis[:, j].T
            x0 = x[0, j]
            before += np.add.reduce(np.square(x0, out=scratch[:x0.size]))
        for j in spans:
            x[:, j] -= times_basis(c1, j)
            c2 += x[:, j] @ basis[:, j].T
        if out is not None:  # v's image comes out of the last product
            c2 = np.vstack([c2, self._r[:k, :k] @ (c1[0] + c2[0])])
        for j in spans:
            p = times_basis(c2, j)
            x[:, j] -= p[:rows]
            if out is not None:
                out[j] = p[rows]
            gram += x[:, j] @ x[:, j].T
        return before, gram

    def _finish_pair(self, k, out, rnorm, ug, a, s):
        # Rows k and k + 1 hold the residual r and g, projected off B, with
        # u.g = ug.  In place, chunk by chunk: out += a r; u = r / rnorm;
        # g off u twice; w = g / ||g||; out += rnorm s w.
        u, w = self._q[k], self._q[k + 1]
        n = u.size
        tmp = np.empty(min(n, CHUNK))
        spans = [(slice(i, i + CHUNK), tmp[:min(CHUNK, n - i)])
                 for i in range(0, n, CHUNK)]
        again = 0.0
        # the dots as pairwise sums of each chunk's products: a BLAS dot's
        # threads split the sum, and its bits moved with their count
        for j, t in spans:
            out[j] += np.multiply(u[j], a, out=t)
            u[j] /= rnorm
            w[j] -= np.multiply(u[j], ug, out=t)
            again += np.add.reduce(np.multiply(u[j], w[j], out=t))
        sq = 0.0
        for j, t in spans:
            w[j] -= np.multiply(u[j], again, out=t)
            sq += np.add.reduce(np.multiply(w[j], w[j], out=t))
        draws = 1
        while sq <= 1e-16 * n:  # degenerate: draw again, off B and u at once
            if draws == 8:
                raise NumericError("could not draw a fresh orthogonal direction")
            self.rng.standard_normal(n, out=w)
            sq = self._project(self._q[k + 1:k + 2], k + 1)[1][0, 0]
            draws += 1
        norm = np.sqrt(sq)
        for j, t in spans:
            w[j] /= norm
            out[j] += np.multiply(w[j], rnorm * s, out=t)

    def apply(self, v, out=None):  # M v for one vector, into out (may be v)
        k, n = self._count, v.shape[0]
        pos, neg = self._left
        rows = 2 if pos and neg else 1
        full = k + rows > self.cap
        if full:
            x = np.empty((1, n))
        else:  # beta, then g: the order fixes every revealed direction
            x = self._q[k:k + rows]
            if rows == 2:
                beta = self.rng.beta(pos / 2, neg / 2)
                self.rng.standard_normal(n, out=x[1])
        x[0] = v  # read before out is written
        if out is None:
            out = np.empty(n)
        before, gram = self._project(x, k, out)
        if gram[0, 0] <= self._DROP ** 2 * before:  # v is inside the span
            return out
        if full:
            raise ResourceError(f"lazy Haar store exceeded {self.cap} directions")
        rnorm = np.sqrt(gram[0, 0])
        if rows == 1:  # M is I (n' = 0) or -I (p' = 0) on the complement
            self._r[k, k] = 1.0 if pos else -1.0
            (np.add if pos else np.subtract)(out, x[0], out=out)
            x[0] /= rnorm
        else:
            a, s = 2 * beta - 1, 2 * np.sqrt(beta * (1 - beta))
            self._r[k:k + 2, k:k + 2] = [[a, s], [s, -a]]
            self._finish_pair(k, out, rnorm, gram[0, 1] / rnorm, a, s)
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
    (each history gives an equally distributed M).  A query draws its beta
    and then its Gaussian direction before it is projected, an order that
    fixes the bits of every revealed direction; a query then found inside
    the span discards its draws, which leaves the law of M unchanged.  The
    query and its Gaussian draw are projected together, in the free store
    rows after the basis, in three cache-blocked passes over it.
    """
    _check_size(n)
    if max_directions is None:
        raise ValueError("random-orthogonal needs max_directions, its Haar "
                         "budget: T matvecs reveal up to min(2T, N) directions")
    # only the sum is kept; an int8 draw here left a 2^18 process's peak
    # RSS 0.2 MB higher than this float64 one (glibc's heap layout)
    trace = float(rademacher(substream(seed, "spectrum"), n).sum())
    basis = _LazyHaar(n, substream(seed, "haar"), max_directions,
                      int(n + trace) // 2)

    # not recursive: a self-referencing closure lives until the cycle collector
    def apply(v, out):
        if v.ndim == 1:
            return basis.apply(v, out)
        for col, res in zip(v.T, out.T):
            basis.apply(col, res)
        return out

    return MatrixOperator(n, apply, 1.0, "random-orthogonal", trace=trace,
                          haar_basis=basis, writes_out=True)


def build_sign_perm(n: int, seed: int, eigenvalues) -> MatrixOperator:
    """Sign-and-permutation invariant operator S H P diag(lam) P^T H S.

    H is the Hadamard-Walsh matrix, P a seeded uniform permutation, S a
    seeded sign diagonal; the spectrum is supplied by the caller (one
    eigenvalue per matrix row).  sigma_psi^2 = mean(lam^2) and the trace
    are summed in the order given, not the permuted one.
    """
    _check_size(n)
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.shape != (n,):
        raise ValueError(f"spectrum has {lam.size} entries, expected {n}")
    if not np.all(np.isfinite(lam)):
        raise ValueError("spectrum entries must be finite")
    if not lam.any():
        raise ValueError("spectrum must not be identically zero")
    return _signed_hadamard(n, seed, "sign-perm", lam, permute=True)


def _mirror_upper(a: np.ndarray) -> None:
    """Copy a's strict upper triangle below its diagonal, 64 rows a step."""
    for i in range(0, len(a), 64):
        rows, tile = slice(i, i + 64), a[i:i + 64, i:i + 64]
        a[rows, :i] = a[:i, rows].T
        np.copyto(tile, tile.T, where=np.tri(len(tile), k=-1, dtype=bool))


def _check_cap(n):
    _check_size(n)
    if n > MATERIALIZATION_CAP:
        raise ValueError(
            f"dense coupling of size {n} exceeds cap {MATERIALIZATION_CAP}")


def build_wigner_coupling(n: int, seed: int) -> MatrixOperator:
    """Dense symmetric J = W / sqrt(N), E W_ij^2 = 1 + delta_ij.

    Entries are +/-1 off the diagonal and +/-sqrt(2) on it.  The limiting
    spectrum is the semicircle on [-2, 2] and the stored sigma_psi_sq is
    its second moment, 1.  The operator keeps the exact draw, W in int8
    with its upper triangle mirrored below the diagonal, and J's diagonal
    apart.  ``blocks`` writes W / sqrt(N) in float64, the bits of a float64
    draw; the matvec applies J a block of rows at a time.
    """
    _check_cap(n)
    rng = substream(seed, "wigner", "rademacher")  # the label keys every SK draw
    w = rademacher(rng, n * n, np.int8).reshape(n, n)
    root = np.sqrt(n)
    diag = np.sqrt(2.0) * rademacher(rng, n) / root
    _mirror_upper(w)

    def blocks(out, row, col):
        rows, cols = out.shape
        np.divide(w[row:row + rows, col:col + cols], root, out=out)
        k = np.arange(max(row, col), min(row + rows, col + cols))
        out[k - row, k - col] = diag[k]
        return out

    def apply(v, out):  # J v a block of rows of J at a time
        if np.may_share_memory(v, out):  # every block reads all of v
            v = v.copy()
        for i in range(0, n, _width(n)):
            rows = blocks(np.empty((min(_width(n), n - i), n)), i, 0)
            np.matmul(rows, v, out=out[i:i + len(rows)])
        return out

    return MatrixOperator(n, apply, 1.0, "wigner", trace=float(diag.sum()),
                          blocks=blocks, writes_out=True)


def build_wishart_coupling(n: int, phi: float, seed: int) -> MatrixOperator:
    """PSD coupling J = X^T X / sqrt(M N), M = round(phi N), X of +/-1 entries.

    The operator keeps X, drawn in int8.  ``blocks`` forms G = X^T X in
    float32 from float32 panels of X: every entry and partial sum is an
    integer of size at most M, exact up to 2^24, so M > 2^24 is refused,
    as is M = 0; J = G / sqrt(M N) is written in float64, the bits of the
    float64 recipe.  The matvec is X^T (X v) / sqrt(M N), O(M N).  The
    trace, sum(X_ij^2) / sqrt(M N), is M N / sqrt(M N).  sigma_psi_sq
    stores the limiting spectral second moment 1 + phi.
    """
    _check_cap(n)
    if not 0 < phi < np.inf:
        raise ValueError(f"phi must be positive and finite, got {phi}")
    m = int(round(phi * n))
    if not 1 <= m <= 1 << 24:
        raise ValueError(f"phi = {phi} gives M = {m} rows of X at N = {n}; "
                         f"it needs 1 to 2^24, where X^T X is exact in "
                         f"float32")
    # the "rademacher" label keys every Hopfield draw
    x = rademacher(substream(seed, "wishart", "rademacher"), m * n,
                   np.int8).reshape(m, n)
    scale = np.sqrt(m * n)

    def blocks(out, row, col):  # in square blocks of out's height
        rows, cols = out.shape
        left = x[:, row:row + rows].astype(np.float32)
        for j in range(0, cols, rows):
            right = x[:, col + j:col + min(cols, j + rows)].astype(np.float32)
            np.divide(left.T @ right, scale, out=out[:, j:j + rows],
                      dtype=np.float64)
        return out

    def apply(v, out):  # X^T (X v) / sqrt(M N), a float64 panel of X at a time
        panels = [slice(i, i + _width(n)) for i in range(0, n, _width(n))]
        xv = sum(x[:, c].astype(np.float64) @ v[c] for c in panels)
        for c in panels:  # v is read whole before out is written
            np.divide(x[:, c].astype(np.float64).T @ xv, scale, out=out[c])
        return out

    return MatrixOperator(n, apply, 1.0 + phi, "wishart",
                          trace=float(m * n) / scale, blocks=blocks,
                          writes_out=True)


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
    """The N x N matrix of ``op``: its ``dense`` field, else one written
    from its ``blocks``, a block of rows at a time, or from ``matvec(I)``,
    DENSE_BLOCK columns at a time.  Materializing is refused before any
    matvec above MATERIALIZATION_CAP.
    """
    if op.dense is not None:
        return op.dense
    n = op.dim
    _check_cap(n)
    out = np.empty((n, n))
    if op.blocks is not None:
        for start in range(0, n, _width(n)):
            op.blocks(out[start:start + _width(n)], start, 0)
        return out
    for start in range(0, n, DENSE_BLOCK):
        eye = np.eye(n, min(DENSE_BLOCK, n - start), -start)
        out[:, start:start + eye.shape[1]] = op.matvec(eye)
    return out


@lru_cache(maxsize=None)
def _flapack():
    # scipy's LAPACK extension from its file, outside sys.modules: no scipy
    # package __init__ runs, and a later `import scipy.linalg` takes the
    # same wrappers from the interpreter's cache of loaded extensions
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    linalg = os.path.join(find_spec("scipy").submodule_search_locations[0],
                          "linalg")
    spec = FileFinder(linalg, (ExtensionFileLoader, EXTENSION_SUFFIXES)
                      ).find_spec(name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


def centered_resolvent(j_op: MatrixOperator, lam: float,
                       sigma_psi_sq: float) -> MatrixOperator:
    """M(lam) = (lam I - J)^{-1} - (Tr (lam I - J)^{-1} / N) I as an operator.

    The one N x N buffer is Fortran-ordered: it takes lam I - J in column
    stripes of ``_width(N)``, each checked for entries that are not finite
    (refused with ValueError) before the next is written.  A coupling's
    ``blocks`` write the lower triangle from its draw; any other J is
    copied whole from ``dense_form``.  Its Cholesky factorization, made in
    place, reads the lower triangle and proves lam is above the spectrum
    of J (a failed one raises ValueError); LAPACK then inverts it in place
    too, and it becomes the operator's ``dense``.  Its diagonal gives the
    centering constant, and each matvec is one dense product (into v
    itself, numpy first copies v, N entries).
    ``sigma_psi_sq`` is supplied by the caller (closed form or algebraic
    identity for the law at hand).

    dpotrf and dpotri are the wrappers of scipy's f2py extension
    ``scipy.linalg._flapack``, which ``scipy.linalg.lapack`` exports;
    dpotrf is called as ``cho_factor`` calls it.  The extension is loaded
    from its file on first use, as ``import scipy.linalg`` would cost a
    cold process about 0.25 s and 27 MB of resident memory, mostly for
    scipy's array-API layer; the file alone takes about 5 ms and 3 MB.
    """
    n, width = j_op.dim, _width(j_op.dim)
    coupling = dense_form(j_op) if j_op.blocks is None else None
    shifted = np.empty((n, n), order="F")
    for i in range(0, n, width):
        if coupling is None:  # rows of the symmetric J, in stripe.T's order
            top, stripe = i, j_op.blocks(shifted[i:, i:i + width].T, i, i).T
        else:  # both triangles: a non-finite entry in either is refused
            top, stripe = 0, shifted[:, i:i + width]
            np.copyto(stripe, coupling[:, i:i + width])
        np.negative(stripe, out=stripe)
        k = np.arange(stripe.shape[1])
        stripe[i - top + k, k] += lam
        if not np.isfinite(stripe).all():
            raise ValueError(f"lam I - J has entries that are not finite "
                             f"(lambda = {lam}, {j_op.label})")
    lapack = _flapack()
    factor, info = lapack.dpotrf(shifted, lower=True, overwrite_a=True,
                                  clean=False)
    if info > 0:
        raise ValueError(f"lambda = {lam} is not above the spectrum of "
                         f"{j_op.label}: lam I - J is not positive definite")
    inverse, info = lapack.dpotri(factor, lower=True, overwrite_c=True)
    if info:
        raise NumericError(f"inverting the Cholesky factor failed (info {info})")
    # dpotri fills the lower triangle, the upper one of inverse.T: mirror it
    _mirror_upper(inverse.T)
    inverse[np.diag_indices(n)] -= np.trace(inverse) / n

    return MatrixOperator(n, lambda v, out: np.matmul(inverse, v, out=out),
                          sigma_psi_sq, f"{j_op.label}-resolvent", trace=0.0,
                          dense=inverse, coupling=j_op, writes_out=True)


def involution_resolvent(j_op: MatrixOperator, lam: float,
                         sigma_psi_sq: float) -> MatrixOperator:
    """Centered resolvent of a coupling with J^2 = I, without any solve.

    For a two-point spectrum the resolvent is a linear polynomial in J:
    M(lam) = (J - c I) / (lam^2 - 1), c = Tr J / N.  Requires lam > 1 and
    the exact trace to be known on the coupling.  ``sigma_psi_sq`` is
    supplied by the caller, as for ``centered_resolvent``.

    Every matvec may write into v.  A sign-perm coupling (one with a
    ``spectrum``, signed Hadamard among them) gives a sign-perm operator,
    S H P diag((lam_i - c) / (lam^2 - 1)) P^T H S, with no call to J's
    matvec.  Any other coupling applies J and then, when c is not 0,
    subtracts c v from a copy of v that it keeps while J is applied.
    """
    if lam <= 1.0:
        raise ValueError(f"lambda = {lam} must exceed the spectral edge 1")
    if j_op.trace is None:
        raise ValueError(f"{j_op.label}: exact trace unknown")
    center = j_op.trace / j_op.dim
    denom = lam * lam - 1.0
    label = f"{j_op.label}-resolvent"
    if j_op.spectrum is not None:
        return MatrixOperator(j_op.dim, partial(j_op._apply, shift=center,
                                                scale=denom),
                              sigma_psi_sq, label, trace=0.0, coupling=j_op,
                              signs=j_op.signs, writes_out=True)

    def apply(v, out):  # (J v - c v) / denom
        kept = v.copy() if center and np.may_share_memory(v, out) else v
        j_op.matvec(v, out=out)
        if center:
            for i in range(0, len(v), CHUNK):
                out[i:i + CHUNK] -= center * kept[i:i + CHUNK]
        out /= denom
        return out

    return MatrixOperator(j_op.dim, apply, sigma_psi_sq, label, trace=0.0,
                          coupling=j_op, writes_out=True)


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
        if op.dense is None and n > MATERIALIZATION_CAP:
            raise ResourceError(
                f"dense diagnostics of {op.label} materialize all {n} "
                f"columns, above the cap of {MATERIALIZATION_CAP}; use probe "
                f"mode (--mode probe)")
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
    """A named form: ``keys`` of its spec string (None: it has none; a
    required key maps to float or str, an optional one to its default),
    ``build(n, seed, args, max_directions)`` and, for a coupling that
    ``tap`` takes, ``law(args)``.  args: the parsed keys, or {"phi": phi}."""

    keys: dict | None
    build: Callable[[int, int, dict, int | None], MatrixOperator]
    law: Callable[[dict], SpectralLaw] | None = None


class _KeyRefused(ValueError):
    """A spec key's value that its row refuses: args (key, reason)."""


def _involution(build):  # a +/-1 spectrum: the Rademacher law, no spec keys
    return Ensemble({}, build, lambda args: SpectralLaw.rademacher())


def _resolvent(coupling: Ensemble):
    # M(lambda) of the coupling row's J; lambda at or below the right edge
    # of the row's law is refused before J is built
    def build(n, seed, args, max_directions):
        law, lam = coupling.law(args), args["lambda"]
        if not lam > law.lambda_plus:
            raise _KeyRefused("lambda", f"is not above the right edge "
                              f"{law.lambda_plus:g} of the {law.kind} law")
        return centered_resolvent(coupling.build(n, seed, args, max_directions),
                                  lam, resolvent_variance(law, lam))
    return build


def _sign_perm(n, seed, args, max_directions):
    if args["base"] != "hadamard":
        raise ValueError(f"unsupported sign-perm base {args['base']!r}")
    return build_sign_perm(n, seed,
                           SpectralLaw.from_file(args["spectrum"]).eigenvalues)


_SK = Ensemble(None, lambda n, seed, *_: build_wigner_coupling(n, seed),
               lambda args: SpectralLaw.semicircle())
_HOPFIELD = Ensemble(
    None, lambda n, seed, args, _: build_wishart_coupling(n, args["phi"], seed),
    lambda args: SpectralLaw.marchenko_pastur(args["phi"]))

ENSEMBLES = {
    "signed-sine": _involution(lambda n, seed, *_: build_signed_sine(n, seed)),
    "signed-hadamard": _involution(
        lambda n, seed, *_: build_signed_hadamard(n, seed)),
    "random-orthogonal": _involution(lambda n, seed, _, dirs: (
        build_random_orthogonal(n, seed, max_directions=dirs))),
    "sk": _SK,
    "hopfield": _HOPFIELD,
    "sign-perm": Ensemble({"spectrum": str, "base": "hadamard"}, _sign_perm),
    "wigner-resolvent": Ensemble({"lambda": float}, _resolvent(_SK)),
    "wishart-resolvent": Ensemble({"phi": float, "lambda": float},
                                  _resolvent(_HOPFIELD)),
}

TAP_ENSEMBLES = tuple(name for name, row in ENSEMBLES.items() if row.law)


def tap_ensemble(name: str) -> Ensemble:
    """The row of a coupling that ``tap`` takes; else ValueError naming them."""
    if name in TAP_ENSEMBLES:
        return ENSEMBLES[name]
    raise ValueError(f"unknown ensemble {name!r}; choose from {TAP_ENSEMBLES}")


def _finite(key, text):
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise _KeyRefused(key, "is not a finite number")
    return value


def operator_from_spec(spec: str, n: int, seed: int, *,
                       max_directions: int | None = None) -> MatrixOperator:
    """Build the operator of a spec string ``name[:key=value,...]`` through
    its row of ``ENSEMBLES``.  A missing or undeclared key is refused with
    the form, and so is a value that the row refuses: a number that is not
    finite, or a resolvent's lambda at or below its law's right edge, which
    is refused before the coupling is built (``centered_resolvent`` still
    refuses a lambda below a finite-N spectrum).  random-orthogonal
    requires ``max_directions``, its Haar budget."""
    name, _, argstr = spec.partition(":")
    items = [item.partition("=") for item in argstr.split(",")] if argstr else []
    if bad := [key + eq + value for key, eq, value in items if not value]:
        raise ValueError(f"malformed operator argument {bad[0]!r} in {spec!r}")
    raw = {key.strip(): value.strip() for key, _, value in items}
    if (row := ENSEMBLES.get(name)) is None or row.keys is None:
        raise ValueError(f"unknown operator spec {spec!r}")
    required = [key for key, kind in row.keys.items() if isinstance(kind, type)]
    form = (f"{name}:" + ",".join(f"{k}=<{k}>" for k in required)
            if required else name)
    if missing := [key for key in required if key not in raw]:
        raise ValueError(f"{spec!r} lacks {missing[0]}=; expected {form}")
    if extra := [key for key in raw if key not in row.keys]:
        raise ValueError(f"{spec!r} takes no {extra[0]}=; expected {form}")
    try:
        args = {key: _finite(key, raw[key]) if kind is float
                else raw.get(key, kind) for key, kind in row.keys.items()}
        return row.build(n, seed, args, max_directions)
    except _KeyRefused as exc:
        key, why = exc.args
        raise ValueError(f"{spec!r}: {key}={raw[key]!r} {why}; "
                         f"expected {form}") from None
