import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, lapack

from amplab import ensembles
from amplab.ensembles import (ENSEMBLES, MATERIALIZATION_CAP, TAP_ENSEMBLES,
                              MatrixOperator,
                              build_random_orthogonal, build_sign_perm,
                              build_signed_hadamard, build_signed_sine,
                              build_wigner_coupling, build_wishart_coupling,
                              centered_resolvent, check_semi_random,
                              conjugate_gradient, dense_form, dst_matvec, fwht,
                              involution_resolvent,
                              operator_from_spec, power_iteration_norm,
                              scale_rows)
from amplab.errors import NumericError, ResourceError
from amplab.rng import rademacher, substream
from amplab.spectral import SpectralLaw, resolvent_variance
from amplab.tap import (build_coupling, gauge_conjugate, resolvent_operator,
                        solve_q_star)


def random_vectors(n, count, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n) for _ in range(count)]


def assert_linear_symmetric(op, seed=0, pairs=16):
    rng = np.random.default_rng(seed)
    for _ in range(pairs):
        u = rng.standard_normal(op.dim)
        v = rng.standard_normal(op.dim)
        a, b = rng.standard_normal(2)
        lhs = op.matvec(a * u + b * v)
        rhs = a * op.matvec(u) + b * op.matvec(v)
        scale = max(np.linalg.norm(lhs), 1.0)
        assert np.linalg.norm(lhs - rhs) / scale < 1e-10
        sym = abs(u @ op.matvec(v) - op.matvec(u) @ v)
        assert sym / max(abs(u @ op.matvec(v)), 1.0) < 1e-10


def radix2_fwht(v):
    # the per-level reference: stack the butterfly halves at every level
    a = np.asarray(v, dtype=np.float64)
    n, shape = a.shape[0], a.shape
    a = a.reshape(n, -1).copy()
    h = 1
    while h < n:
        a = a.reshape(n // (2 * h), 2, h, -1)
        a = np.stack((a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]),
                     axis=1).reshape(n, -1)
        h *= 2
    return (a / np.sqrt(n)).reshape(shape)


def sylvester(n):
    # the unnormalized Sylvester-Hadamard matrix, H_ij = (-1)^popcount(i & j)
    i = np.arange(n)
    return 1.0 - 2.0 * (np.bitwise_count(i[:, None] & i) & 1)


class TestFwht:
    # from 2^17 on (2^15 for three columns) the transform runs in more than
    # one chunk per phase
    @pytest.mark.parametrize("log2n", range(1, 21))
    def test_bit_identical_to_radix2_reference(self, log2n):
        # the stages sum in another order than the per-level butterflies:
        # bit for bit where every partial sum is exact (integer entries),
        # to rounding on Gaussian entries
        rng = np.random.default_rng(log2n)
        n = 2 ** log2n
        for v in (rng.standard_normal(n), rng.standard_normal((n, 3)),
                  rng.standard_normal((n, 3))[:, 1]):
            before = v.copy()
            err = np.max(np.abs(fwht(v) - radix2_fwht(v)))
            assert err <= 1e-14 * np.max(np.abs(v))
            assert np.array_equal(v, before)
        exact = rng.integers(-2 ** 20, 2 ** 20, (n, 3)).astype(float)
        assert np.array_equal(fwht(exact), radix2_fwht(exact))

    @pytest.mark.parametrize("log2n", range(1, 11))
    def test_equals_the_dense_sylvester_matrix(self, log2n):
        # H v / sqrt(N) with H written out: exact for integer entries
        n = 2 ** log2n
        rng = np.random.default_rng(100 + log2n)
        h = sylvester(n)
        v = rng.integers(-2 ** 20, 2 ** 20, (n, 3)).astype(float)
        assert np.array_equal(fwht(v), h @ v / np.sqrt(n))
        v = rng.standard_normal((n, 3))
        assert np.max(np.abs(fwht(v) - h @ v / np.sqrt(n))) <= 1e-14

    @pytest.mark.parametrize("log2n", [12, 16, 18])
    def test_block_columns_match_vector_calls_to_rounding(self, log2n):
        # a block's stages are products of other shapes than a vector's,
        # which BLAS may sum in another order: its columns match the vector
        # calls to rounding, not bit for bit (8.9e-16 apart at 2^16)
        n = 2 ** log2n
        block = np.random.default_rng(log2n).standard_normal((n, 3))
        got = fwht(block)
        for j in range(3):
            err = np.max(np.abs(got[:, j] - fwht(block[:, j])))
            assert err <= 1e-15 * np.max(np.abs(block))

    def test_first_basis_vector(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        np.testing.assert_allclose(fwht(e1), [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_involution(self):
        v = np.random.default_rng(1).standard_normal(1024)
        np.testing.assert_allclose(fwht(fwht(v)), v, atol=1e-12)

    def test_norm_preserved(self):
        v = np.random.default_rng(2).standard_normal(1024)
        assert np.linalg.norm(fwht(v)) == pytest.approx(np.linalg.norm(v),
                                                        abs=1e-12)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            fwht(np.ones(12))

    def test_matrix_input_matches_columns(self):
        rng = np.random.default_rng(3)
        block = rng.standard_normal((64, 5))
        cols = np.stack([fwht(block[:, k]) for k in range(5)], axis=1)
        np.testing.assert_allclose(fwht(block), cols, atol=1e-13)


class TestDst:
    def test_small_matrix_entries(self):
        # direct evaluation of the defining formula at N = 2
        n = 2
        length = 2 * n + 1
        c = np.array([[2 * np.sin(2 * np.pi * i * j / length) / np.sqrt(length)
                       for j in (1, 2)] for i in (1, 2)])
        got = dst_matvec(np.array([1.0, 0.0]))
        np.testing.assert_allclose(got, c[:, 0], atol=1e-12)

    def test_involution_at_512(self):
        v = np.random.default_rng(4).standard_normal(512)
        np.testing.assert_allclose(dst_matvec(dst_matvec(v)), v, atol=1e-10)

    @pytest.mark.parametrize("n", [511, 512, 1001])
    def test_fft_block_equals_its_columns(self, n):
        block = np.random.default_rng(n).standard_normal((n, 3))
        cols = np.stack([dst_matvec(block[:, k]) for k in range(3)], axis=1)
        assert np.array_equal(dst_matvec(block), cols)

    def test_norm_preserved(self):
        v = np.random.default_rng(5).standard_normal(512)
        assert np.linalg.norm(dst_matvec(v)) == pytest.approx(
            np.linalg.norm(v), abs=1e-10)

    def test_fft_path_matches_direct(self):
        # against the sine matrix written out from its defining formula
        for n in (3, 64, 513, 1024):
            length = 2 * n + 1
            i = np.arange(1, n + 1)
            c = 2 * np.sin(2 * np.pi * np.outer(i, i) / length) / np.sqrt(length)
            v = np.random.default_rng(n).standard_normal(n)
            np.testing.assert_allclose(dst_matvec(v), c @ v, atol=1e-11)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        u, v = rng.standard_normal((2, 257))
        assert u @ dst_matvec(v) == pytest.approx(dst_matvec(u) @ v,
                                                  abs=1e-10)

    def test_one_call_peaks_at_five_vectors(self):
        # the complex work array (M = 2N entries at N = 2^16) and the result;
        # the chirp and kernel spectrum are cached by the first call
        n = 2 ** 16
        v = np.random.default_rng(7).standard_normal(n)
        dst_matvec(v)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            dst_matvec(v)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 5 * n * 8 + 8192

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 512, 513, 4096])
    def test_matches_exact_angle_reference(self, n):
        # angles reduced in integers, so the reference carries no
        # large-argument sine error; n = 2^k and 2^k + 1 bracket the jumps
        # of the power-of-two convolution length
        length = 2 * n + 1
        i = np.arange(1, n + 1)
        c = 2 * np.sin(2 * np.pi * (np.outer(i, i) % length) / length) \
            / np.sqrt(length)
        v = np.random.default_rng(n).standard_normal(n)
        np.testing.assert_allclose(dst_matvec(v), c @ v, rtol=0, atol=1e-13)

    def test_involution_at_2_16(self):
        v = np.random.default_rng(9).standard_normal(2 ** 16)
        np.testing.assert_allclose(dst_matvec(dst_matvec(v)), v, rtol=0,
                                   atol=1e-13)

    def test_cold_cache_threads_agree(self):
        # two threads racing to fill the per-size cache get the same bits
        n = 3001
        v = np.random.default_rng(10).standard_normal(n)
        dst_matvec(v[:5])  # the cache now holds another size
        barrier = threading.Barrier(2)
        results = [None, None]

        def work(k):
            barrier.wait(timeout=10)
            results[k] = dst_matvec(v)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], dst_matvec(v))

    @pytest.mark.parametrize("n", [1, 2, 3, 1001, 2 ** 16])
    def test_cold_chirp_equals_the_complex_phase_construction(self, n):
        # the chirp and kernel as built from the complex phase array, with
        # the integer phases kept alive through the kernel's FFT
        length = 2 * n + 1
        m = np.arange(n + 1)
        chirp = np.exp(1j * np.pi / length * (m * m % (2 * length)))
        kernel = np.zeros(1 << (2 * n - 2).bit_length(), dtype=np.complex128)
        kernel[:n] = chirp[:n].conj()
        kernel[len(kernel) - n + 1:] = kernel[n - 1:0:-1]
        np.fft.fft(kernel, out=kernel)
        kernel *= 2.0 / np.sqrt(length)
        ensembles._chirp.cache_clear()
        got_chirp, got_kernel = ensembles._chirp(n)
        assert np.array_equal(got_chirp, chirp[1:])
        assert np.array_equal(got_kernel, kernel)

    def test_cold_chirp_build_peaks_at_what_it_keeps(self):
        # the chirp (2 N-vectors) and the kernel spectrum (4 at N = 2^16)
        # are the build's whole traced peak: the phases are gone before
        # the FFT; building them beside the complex phases peaked at 9
        n = 2 ** 16
        ensembles._chirp.cache_clear()
        (chirp, kernel), peak = traced_peak(lambda: ensembles._chirp(n))
        assert peak <= chirp.nbytes + kernel.nbytes + 8192

    def test_diagonal_matches_scaling_first(self):
        rng = np.random.default_rng(8)
        d = rademacher(rng, 1001).astype(np.int8)
        for v in (rng.standard_normal(1001), rng.standard_normal((1001, 3))):
            assert np.array_equal(dst_matvec(v, d),
                                  dst_matvec(scale_rows(d, v)))


class TestSignedSine:
    def test_trace_is_the_exact_gauss_sum(self):
        # against Tr C summed with its angles reduced in integers
        for n in [*range(2, 4097), 2 ** 20]:
            length = 2 * n + 1
            i = np.arange(1, n + 1)
            direct = np.sum(np.sin(2 * np.pi * (i * i % length) / length))
            trace = build_signed_sine(n, seed=1).trace
            assert trace in (0.0, 1.0)
            assert abs(trace - 2 * direct / np.sqrt(length)) < 1e-12, n

    def test_involution(self):
        op = build_signed_sine(512, seed=1)
        v = np.random.default_rng(7).standard_normal(512)
        np.testing.assert_allclose(op.matvec(op.matvec(v)), v, atol=1e-10)

    def test_seeds_differ(self):
        v = np.random.default_rng(8).standard_normal(256)
        a = build_signed_sine(256, seed=1).matvec(v)
        b = build_signed_sine(256, seed=2).matvec(v)
        assert not np.allclose(a, b)

    def test_reproducible(self):
        v = np.random.default_rng(9).standard_normal(256)
        a = build_signed_sine(256, seed=3).matvec(v)
        b = build_signed_sine(256, seed=3).matvec(v)
        np.testing.assert_array_equal(a, b)

    def test_type_invariants(self):
        assert_linear_symmetric(build_signed_sine(128, seed=4))


class TestRademacher:
    @pytest.mark.parametrize("dtype", [np.int8, np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, ensembles.CHUNK - 1, ensembles.CHUNK,
                                   ensembles.CHUNK + 1,
                                   3 * ensembles.CHUNK + 5])
    def test_equals_the_float64_recipe_and_keeps_the_stream(self, n, dtype):
        got_rng, want_rng = substream(3, "r"), substream(3, "r")
        got = rademacher(got_rng, n, dtype)
        want = 2.0 * want_rng.integers(0, 2, size=n).astype(np.float64) - 1.0
        assert got.dtype == dtype
        assert np.array_equal(got, want)
        # the next draws, one of them from Philox's half-used 64-bit word
        assert np.array_equal(got_rng.integers(0, 2, size=7),
                              want_rng.integers(0, 2, size=7))
        assert got_rng.standard_normal() == want_rng.standard_normal()


class TestSignedHadamard:
    def test_involution(self):
        op = build_signed_hadamard(1024, seed=1)
        v = np.random.default_rng(10).standard_normal(1024)
        np.testing.assert_allclose(op.matvec(op.matvec(v)), v, atol=1e-10)

    def test_build_peaks_at_its_int8_spectrum_and_signs(self):
        # the two int8 vectors and one chunk of drawn integers; 2.13
        # N-vectors when each draw made int64 and float64 N-vectors
        n = 2 ** 16
        build_signed_hadamard(n, seed=3)
        _, peak = traced_peak(lambda: build_signed_hadamard(n, seed=3))
        assert peak <= 1.3 * n * 8

    def test_symmetry(self):
        op = build_signed_hadamard(256, seed=2)
        rng = np.random.default_rng(11)
        u, v = rng.standard_normal((2, 256))
        assert u @ op.matvec(v) == pytest.approx(op.matvec(u) @ v, abs=1e-10)

    def test_second_moment_via_hutchinson(self):
        # exact Tr M^2 / N of the materialized operator
        op = build_signed_hadamard(4096, seed=3)
        m = dense_form(op)
        assert np.vdot(m, m) / op.dim == pytest.approx(1.0, abs=0.02)

    def test_non_power_of_two(self):
        with pytest.raises(ValueError):
            build_signed_hadamard(48, seed=1)

    def test_fused_matvec_bit_identical_to_reference(self):
        # S H diag(lam) H S v, each step a separate array, against the
        # matvec that scales inside the chunked transforms' copies: the
        # +/-1 scalings are exact, so fusing them keeps every bit
        n, seed = 2 ** 18, 6
        signs = rademacher(substream(seed, "signs"), n)
        lam = rademacher(substream(seed, "spectrum"), n)
        op = build_signed_hadamard(n, seed)
        rng = np.random.default_rng(12)
        for v in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            want = scale_rows(signs, fwht(scale_rows(
                lam, fwht(scale_rows(signs, v)))))
            assert np.array_equal(op.matvec(v), want)

    def test_wide_block_outgrowing_the_shared_scratch(self):
        # a (16, 16385) block: one row group of b K entries exceeds CHUNK,
        # so each transform allocates its own pair; columns keep their bits
        op = build_signed_hadamard(16, seed=3)
        block = np.random.default_rng(4).standard_normal((16, 16385))
        got = op.matvec(block)
        for j in (0, 1, 16384):
            assert np.array_equal(got[:, j], op.matvec(block[:, j]))

    def test_type_invariants(self):
        assert_linear_symmetric(build_signed_hadamard(128, seed=5))


class TestRandomOrthogonal:
    # seeds of the law tests, fixed before they were first run
    LAW_BASE, LAW_SEEDS = 20261019, 2000

    def test_norm_preserved(self):
        op = build_random_orthogonal(512, seed=1, max_directions=512)
        for v in random_vectors(512, 4, seed=12):
            assert np.linalg.norm(op.matvec(v)) == pytest.approx(
                np.linalg.norm(v), abs=1e-10)

    def test_inverse_pair(self):
        # M is its own inverse, query after query on one store
        op = build_random_orthogonal(512, seed=2, max_directions=512)
        for v in random_vectors(512, 4, seed=13):
            np.testing.assert_allclose(op.matvec(op.matvec(v)), v,
                                       atol=1e-10)

    def test_involution(self):
        op = build_random_orthogonal(512, seed=3, max_directions=512)
        v = np.random.default_rng(14).standard_normal(512)
        np.testing.assert_allclose(op.matvec(op.matvec(v)), v, atol=1e-10)

    def test_symmetry_and_linearity(self):
        assert_linear_symmetric(
            build_random_orthogonal(128, seed=6, max_directions=128), pairs=8)

    def test_direction_cap(self):
        op = build_random_orthogonal(64, seed=4, max_directions=3)
        rng = np.random.default_rng(15)
        with pytest.raises(ResourceError):
            for _ in range(8):
                op.matvec(rng.standard_normal(64))

    def test_exactly_cap_directions_accepted(self):
        # a matvec reveals the query's residual and its image's fresh part:
        # 3 matvecs fill 6 rows, and a fourth finds no room for its pair
        op = build_random_orthogonal(64, seed=4, max_directions=6)
        basis = op.haar_basis
        rng = np.random.default_rng(17)
        for k in range(1, 4):
            op.matvec(rng.standard_normal(64))
            assert basis.q.shape[0] == 2 * k
        with pytest.raises(ResourceError):
            op.matvec(rng.standard_normal(64))
        assert basis.q.shape[0] == basis.cap == 6
        # an odd cap leaves one row free that no pair fits in
        op = build_random_orthogonal(64, seed=4, max_directions=5)
        for _ in range(2):
            op.matvec(rng.standard_normal(64))
        with pytest.raises(ResourceError):
            op.matvec(rng.standard_normal(64))
        assert op.haar_basis.q.shape[0] == 4

    def test_one_more_row_than_the_cap_refused(self):
        # with no +1 left, each new query reveals one row: exactly cap rows
        # are accepted, and the row after them raises
        store = ensembles._LazyHaar(16, substream(1, "haar"), 3, 0)
        rng = np.random.default_rng(21)
        for k in range(1, 4):
            store.apply(rng.standard_normal(16))
            assert store.q.shape[0] == k
        with pytest.raises(ResourceError):
            store.apply(rng.standard_normal(16))
        assert store.q.shape[0] == store.cap == 3

    @pytest.mark.parametrize("positives, sign", [(0, -1.0), (16, 1.0)])
    def test_exhausted_sign_reveals_one_row(self, positives, sign):
        # p' = 0 makes M = -I on the complement, n' = 0 makes it I: a query
        # appends its own direction only, and comes back as -v or v exactly
        store = ensembles._LazyHaar(16, substream(1, "haar"), 2, positives)
        v = np.random.default_rng(22).standard_normal(16)
        assert np.array_equal(store.apply(v), sign * v)
        assert store.q.shape[0] == 1
        np.testing.assert_allclose(store.q[0], v / np.linalg.norm(v),
                                   rtol=1e-15)

    def test_sign_runs_out_mid_run(self):
        # p = 1 of 5: the first query takes the one +1 and one -1, so later
        # queries reveal one row each, on which M is -I
        store = ensembles._LazyHaar(5, substream(2, "haar"), 5, 1)
        rng = np.random.default_rng(23)
        vs = [rng.standard_normal(5) for _ in range(4)]
        images = [store.apply(v) for v in vs]
        assert store.q.shape[0] == 5
        m = store.q.T @ store._r @ store.q
        np.testing.assert_allclose(m @ m, np.eye(5), atol=1e-12)
        assert np.sum(np.linalg.eigvalsh(m) > 0) == 1
        for v, w in zip(vs, images):
            np.testing.assert_allclose(m @ v, w, atol=1e-12)

    def test_revealed_vectors_reflect_and_commute(self):
        n, T = 256, 8
        op = build_random_orthogonal(n, seed=8, max_directions=2 * T)
        rng = np.random.default_rng(24)
        for _ in range(T):
            op.matvec(rng.standard_normal(n))
        q = op.haar_basis.q
        assert q.shape[0] == 2 * T
        np.testing.assert_allclose(q @ q.T, np.eye(2 * T), atol=1e-12)
        for _ in range(4):
            x, y = rng.standard_normal((2, 2 * T)) @ q  # in the revealed span
            mx, my = op.matvec(x), op.matvec(y)
            np.testing.assert_allclose(op.matvec(mx), x, atol=1e-12)
            assert abs(x @ my - mx @ y) <= 1e-12
        assert q.shape[0] == 2 * T  # nothing new was revealed

    def test_dense_form_has_p_eigenvalues_at_plus_one(self):
        n = 64
        for seed in range(1, 5):
            op = build_random_orthogonal(n, seed, max_directions=n)
            m = dense_form(op)
            np.testing.assert_allclose(m, m.T, atol=1e-14)
            np.testing.assert_allclose(m @ m, np.eye(n), atol=1e-12)
            p = (n + round(op.trace)) // 2
            eig = np.linalg.eigvalsh(m)
            assert np.sum(eig > 0) == p
            np.testing.assert_allclose(np.abs(eig), 1.0, atol=1e-12)

    def test_store_grows_past_first_buffer(self):
        op = build_random_orthogonal(512, seed=7, max_directions=40)
        basis = op.haar_basis
        rng = np.random.default_rng(18)
        for k in range(1, 21):
            op.matvec(rng.standard_normal(512))
            assert basis.q.shape == (2 * k, 512)
        np.testing.assert_allclose(basis.q @ basis.q.T, np.eye(40),
                                   atol=1e-12)
        np.testing.assert_allclose(op.matvec(op.matvec(basis.q[25])),
                                   basis.q[25], atol=1e-12)
        assert basis.q.shape[0] == 40  # a stored direction reveals nothing

    def test_first_entries_follow_the_haar_law(self):
        # <e1, M e1> = 2 beta - 1, beta ~ Beta(p/2, (N - p)/2), for the
        # lazy store and for a dense oracle U diag(lam) U^T, U Haar from a
        # sign-fixed QR; M_11, M_12 and M_22 agree across the two samples
        from scipy.stats import beta, kstest, ks_2samp
        n = 32
        lazy, dense = [], []
        for seed in range(self.LAW_BASE, self.LAW_BASE + self.LAW_SEEDS):
            op = build_random_orthogonal(n, seed, max_directions=4)
            m = op.matvec(np.eye(n, 2))
            lazy.append((m[0, 0], m[0, 1], m[1, 1], (n + op.trace) / 2))
        rng = np.random.default_rng(self.LAW_BASE)
        for _ in range(self.LAW_SEEDS):
            u, r = np.linalg.qr(rng.standard_normal((n, n)))
            u *= np.sign(np.diag(r))
            lam = rng.choice((-1.0, 1.0), n)
            m = (u * lam) @ u.T
            dense.append((m[0, 0], m[0, 1], m[1, 1], np.sum(lam > 0)))
        for sample in (lazy, dense):
            m11, _, _, p = np.transpose(sample)
            pit = beta.cdf((m11 + 1) / 2, p / 2, (n - p) / 2)
            assert kstest(pit, "uniform").pvalue > 0.01
        for a, b in zip(np.transpose(lazy)[:3], np.transpose(dense)[:3]):
            assert ks_2samp(a, b).pvalue > 0.01

    def test_no_budget_refused_before_allocating(self):
        n = 1 << 16
        for build in (operator_from_spec, build_coupling):
            raised, peak = traced_peak(lambda: pytest.raises(
                ValueError, build, "random-orthogonal", n, 1))
            raised.match(r"max_directions.*min\(2T, N\)")
            assert peak < n * 8  # not one N-vector allocated

    def test_reproducible(self):
        v = np.random.default_rng(16).standard_normal(128)
        a = build_random_orthogonal(128, seed=5, max_directions=2).matvec(v)
        b = build_random_orthogonal(128, seed=5, max_directions=2).matvec(v)
        np.testing.assert_array_equal(a, b)

    @staticmethod
    def store_state(basis):
        return (basis.q.copy(), basis._r.copy(), list(basis._left),
                basis._count)

    @staticmethod
    def assert_same_state(basis, state):
        q, r, left, count = state
        assert np.array_equal(basis.q, q) and np.array_equal(basis._r, r)
        assert basis._left == left and basis._count == count

    @pytest.mark.parametrize("cap", [12, 4])
    def test_query_in_the_span_reveals_nothing(self, cap):
        # with room for a pair (cap 12) or at a full store (cap 4), a query
        # inside the revealed span comes back as B^T R B v and leaves the
        # store as it was; its draws land in free rows or are never made
        n = 256
        op = build_random_orthogonal(n, seed=9, max_directions=cap)
        basis = op.haar_basis
        rng = np.random.default_rng(25)
        for _ in range(2):
            op.matvec(rng.standard_normal(n))
        state = self.store_state(basis)
        q, r = state[0], state[1][:4, :4]
        v = rng.standard_normal(4) @ q
        np.testing.assert_allclose(op.matvec(v), q.T @ (r @ (q @ v)),
                                   atol=1e-12)
        self.assert_same_state(basis, state)
        if cap == 4:  # a query outside the span still finds no room
            with pytest.raises(ResourceError):
                op.matvec(rng.standard_normal(n))
            self.assert_same_state(basis, state)

    def test_ten_queries_keep_the_basis_orthonormal(self):
        n, T = 4096, 10
        op = build_random_orthogonal(n, seed=10, max_directions=2 * T)
        basis = op.haar_basis
        rng = np.random.default_rng(26)
        for _ in range(T):
            op.matvec(rng.standard_normal(n))
        q, r = basis.q, basis._r
        assert q.shape == (2 * T, n)
        assert np.max(np.abs(q @ q.T - np.eye(2 * T))) <= 1e-12
        for v in (q[7], q[2 * T - 1], rng.standard_normal(2 * T) @ q):
            np.testing.assert_allclose(op.matvec(v), q.T @ (r @ (q @ v)),
                                       rtol=0, atol=1e-12)
        assert basis.q.shape[0] == 2 * T

    def test_draws_keep_the_order_beta_then_normal(self):
        # every beta and every Gaussian direction, as drawn before its
        # projection, follows the store's draw order, written out here: per
        # query, one beta(p'/2, n'/2) and then standard_normal(N) from the
        # "haar" substream, with p' and n' each one fewer after a pair
        n, seed, T = 512, 12, 6
        op = build_random_orthogonal(n, seed, max_directions=2 * T)
        basis = op.haar_basis
        drawn = []

        class Recording:
            def beta(self, a, b):
                drawn.append(("beta", a, b, rng.beta(a, b)))
                return drawn[-1][-1]

            def standard_normal(self, size, out=None):
                g = rng.standard_normal(size, out=out)
                drawn.append(("normal", g.copy()))
                return g

        rng, basis.rng = basis.rng, Recording()
        queries = np.random.default_rng(27).standard_normal((T, n))
        for v in queries:
            op.matvec(v)
        order = substream(seed, "haar")
        pos = (n + round(op.trace)) // 2
        neg = n - pos
        assert len(drawn) == 2 * T
        for i in range(T):
            kind, a, b, beta = drawn[2 * i]
            assert (kind, a, b) == ("beta", pos / 2, neg / 2)
            assert beta == order.beta(pos / 2, neg / 2)
            assert drawn[2 * i + 1][0] == "normal"
            assert np.array_equal(drawn[2 * i + 1][1],
                                  order.standard_normal(n))
            pos, neg = pos - 1, neg - 1

    def test_degenerate_draw_drawn_again_through_the_projection(self):
        # a Gaussian draw that is the query itself has nothing left off u:
        # it is drawn again, off B and u at once; eight such draws raise
        n = 64
        v = np.random.default_rng(28).standard_normal(n)

        class Echo:  # the first `echoes` normal draws return the query
            def __init__(self, echoes):
                self.echoes, self.rng = echoes, substream(3, "haar")

            def beta(self, a, b):
                return self.rng.beta(a, b)

            def standard_normal(self, size, out):
                if self.echoes:
                    self.echoes -= 1
                    out[:] = v
                    return out
                return self.rng.standard_normal(size, out=out)

        store = ensembles._LazyHaar(n, Echo(0), 4, n // 2)
        store.apply(np.random.default_rng(29).standard_normal(n))
        store.rng.echoes = 2  # the draw, and the first draw again
        w = store.apply(v)
        assert store.rng.echoes == 0 and store.q.shape[0] == 4
        q = store.q
        np.testing.assert_allclose(q @ q.T, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(w, q.T @ (store._r[:4, :4] @ (q @ v)),
                                   atol=1e-12)
        store = ensembles._LazyHaar(n, Echo(8), 2, n // 2)
        with pytest.raises(NumericError, match="fresh orthogonal direction"):
            store.apply(v)


class TestSignPerm:
    def test_spectrum_preserved_and_symmetric(self):
        n = 256
        lam = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        op = build_sign_perm(n, seed=1, eigenvalues=lam)
        assert op.sigma_psi_sq == pytest.approx(1.0)
        assert_linear_symmetric(op, pairs=8)
        v = np.random.default_rng(17).standard_normal(n)
        np.testing.assert_allclose(op.matvec(op.matvec(v)), v, atol=1e-10)

    def test_trace_matches_spectrum_sum(self):
        # both sums run in the order given: in the permuted order they
        # differ in the last bits here
        lam = np.linspace(-1, 1, 128)
        op = build_sign_perm(128, seed=2, eigenvalues=lam)
        assert op.trace == float(lam.sum())
        assert op.sigma_psi_sq == float(np.mean(lam * lam))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="spectrum"):
            build_sign_perm(64, seed=1, eigenvalues=np.ones(50))

    def test_matvec_equals_the_permutation_by_hand(self):
        # D H P diag(lam) P^T H D with P^T as a gather and P as its inverse
        n, seed = 4096, 3
        lam = np.linspace(-1.0, 2.0, n)
        signs = rademacher(substream(seed, "signs"), n).astype(np.int8)
        perm = substream(seed, "perm").permutation(n)
        op = build_sign_perm(n, seed, lam)
        rng = np.random.default_rng(12)
        for v in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            w = fwht(scale_rows(signs, v))
            w = scale_rows(lam, w[perm])[np.argsort(perm)]
            assert np.array_equal(op.matvec(v), scale_rows(signs, fwht(w)))

    @pytest.mark.parametrize("n", [2 ** 16, 2 ** 18])
    def test_one_matvec_peaks_at_the_result_and_fwht_scratch(self, n):
        # the result plus one fwht call's two CHUNK scratch buffers, and
        # about 0.2 MB of ufunc buffers casting the int8 signs: 3.4
        # N-vectors at 2^16 and 1.6 at 2^18, where gathering the
        # permutation into new arrays held 3
        op = build_sign_perm(n, 5, np.linspace(-1.0, 2.0, n))
        v = np.random.default_rng(13).standard_normal(n)
        op.matvec(v)
        _, peak = traced_peak(lambda: op.matvec(v))
        assert peak <= 8 * (n + 2 * min(n, ensembles.CHUNK)) + 2 ** 18


class TestWignerCoupling:
    def test_exact_symmetry(self):
        j = dense_form(build_wigner_coupling(256, seed=1))
        np.testing.assert_array_equal(j, j.T)

    def test_largest_eigenvalue_near_two(self):
        op = build_wigner_coupling(2048, seed=2)
        top = np.linalg.eigvalsh(dense_form(op))[-1]
        assert 1.9 <= top <= 2.2

    def test_second_moment_matches_frobenius_oracle(self):
        # (1/N) Tr J^2 = ||J||_F^2 / N; for this normalization the limit is
        # the semicircle second moment 1 (plus a 2/N diagonal correction).
        op = build_wigner_coupling(2048, seed=3)
        j = dense_form(op)
        frob = float(np.sum(j * j)) / op.dim
        assert frob == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("kind", ["rademacher"])
    def test_bit_identical_to_the_copying_recipe(self, kind):
        # the earlier recipe: triu(W, 1) plus its transpose, two full copies
        n = 200
        rng = substream(12, "wigner", kind)
        w = rademacher(rng, n * n).reshape(n, n)
        diag = np.sqrt(2.0) * rademacher(rng, n)
        want = np.triu(w, 1)
        want = want + want.T
        np.fill_diagonal(want, diag)
        want /= np.sqrt(n)
        got = dense_form(build_wigner_coupling(n, seed=12))
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous

    def test_cap(self):
        with pytest.raises(ValueError):
            build_wigner_coupling(MATERIALIZATION_CAP + 1, seed=1)


class TestWishartCoupling:
    def test_psd_quadratic_forms(self):
        op = build_wishart_coupling(256, 1.0, seed=1)
        for v in random_vectors(256, 8, seed=18):
            assert v @ op.matvec(v) >= -1e-12

    def test_largest_eigenvalue_phi_one(self):
        op = build_wishart_coupling(2048, 1.0, seed=2)
        top = np.linalg.eigvalsh(dense_form(op))[-1]
        assert 3.8 <= top <= 4.3

    def test_symmetry(self):
        op = build_wishart_coupling(256, 0.5, seed=3)
        rng = np.random.default_rng(19)
        u, v = rng.standard_normal((2, 256))
        assert u @ op.matvec(v) == pytest.approx(op.matvec(u) @ v, rel=1e-12)

    def test_realized_rows(self):
        # Tr J = ||X||_F^2 / sqrt(M N) = sqrt(M N) exactly for +/-1 entries
        op = build_wishart_coupling(200, 1.5, seed=4)
        assert op.trace == pytest.approx(np.sqrt(300 * 200), abs=1e-12)

    @pytest.mark.parametrize("n,phi", [(256, 1.0), (300, 2.0), (512, 0.5),
                                       (777, 1.37)])
    def test_bit_identical_to_the_float64_recipe(self, n, phi):
        m = int(round(phi * n))
        rng = substream(9, "wishart", "rademacher")
        x = (2.0 * rng.integers(0, 2, size=m * n).astype(np.float64)
             - 1.0).reshape(m, n)
        scale = np.sqrt(m * n)
        want_trace = float(np.sum(x * x)) / scale
        want = x.T @ x
        want /= scale
        op = build_wishart_coupling(n, phi, seed=9)
        j = dense_form(op)
        assert np.array_equal(j, want)
        assert op.trace == want_trace
        assert np.array_equal(j, j.T)

    @pytest.mark.parametrize("n,phi", [(2, 2.0 ** 23 + 1), (256, 0.001)])
    def test_row_count_out_of_range_refused(self, n, phi):
        # M = 2^24 + 2 rows, beyond float32's exact integers, refused before
        # X is drawn; M = 0 rows made J and its trace NaN
        with pytest.raises(ValueError, match="phi"):
            build_wishart_coupling(n, phi, seed=1)


class TestConjugateGradient:
    def test_solves_dense_spd(self):
        rng = np.random.default_rng(20)
        a = rng.standard_normal((64, 64))
        spd = a @ a.T + 64 * np.eye(64)
        b = rng.standard_normal(64)
        x = conjugate_gradient(lambda v: spd @ v, b)
        assert np.linalg.norm(spd @ x - b) <= 1e-9 * np.linalg.norm(b)

    def test_block_solve(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((64, 64))
        spd = a @ a.T + 64 * np.eye(64)
        b = rng.standard_normal((64, 5))
        x = conjugate_gradient(lambda v: spd @ v, b)
        assert np.linalg.norm(spd @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_non_convergence_raises(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((32, 32))
        indefinite = a + a.T  # not PD: CG has no convergence guarantee
        b = rng.standard_normal(32)
        with pytest.raises(NumericError):
            conjugate_gradient(lambda v: indefinite @ v, b, max_iter=5)


def copied_resolvent(j_op, lam):
    # the earlier recipe, kept as an oracle: a C-ordered -J, which f2py
    # copies to Fortran order for the factorization, and a mirror through
    # a full transposed temporary
    n = j_op.dim
    shifted = -dense_form(j_op)
    shifted[np.diag_indices(n)] += lam
    factor, _ = cho_factor(shifted, lower=True, overwrite_a=True)
    inverse, info = lapack.dpotri(factor, lower=True, overwrite_c=True)
    assert info == 0
    np.copyto(inverse, inverse.T, where=~np.tri(n, dtype=bool))
    inverse[np.diag_indices(n)] -= np.trace(inverse) / n
    return inverse


def traced_peak(fn):
    """Run fn(); return its result and its traced allocation peak in bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


DENSE_COUPLINGS = {
    "sk": (lambda: build_wigner_coupling(256, seed=11), 2.5),
    "hopfield": (lambda: build_wishart_coupling(256, 1.0, seed=11), 4.5),
    # materialized from matvecs: M_ij and M_ji differ in the last bits, so
    # reading the upper triangle instead of the lower one changes the result
    "signed-sine": (lambda: build_signed_sine(256, seed=11), 2.0),
}


def zero_operator(n):
    return MatrixOperator(n, lambda v, out: np.multiply(v, 0.0, out=out), 1.0,
                          "zero", trace=0.0)


def dense_operator(op):
    """``op`` as an operator built around its dense array."""
    m = dense_form(op)
    return MatrixOperator(op.dim, lambda v, out: np.matmul(m, v, out=out),
                          op.sigma_psi_sq, op.label, trace=op.trace, dense=m)


class TestCenteredResolvent:
    def test_zero_coupling_gives_zero_operator(self):
        op = centered_resolvent(zero_operator(64), 2.0, 1.0)
        v = np.random.default_rng(23).standard_normal(64)
        np.testing.assert_allclose(op.matvec(v), 0.0, atol=1e-12)

    def test_trace_removed_exactly_dense(self):
        j = build_wigner_coupling(256, seed=5)
        lam = 2.5
        eigs = np.linalg.eigvalsh(dense_form(j))
        resolvent_trace = float(np.sum(1.0 / (lam - eigs)))
        m = centered_resolvent(j, lam, resolvent_variance(
            SpectralLaw.semicircle(), lam))
        # dense route: the centering constant reproduces the exact trace
        dense = np.linalg.inv(lam * np.eye(256) - dense_form(j))
        centered = dense - resolvent_trace / 256 * np.eye(256)
        assert abs(np.trace(centered)) <= 1e-8
        v = np.random.default_rng(24).standard_normal(256)
        np.testing.assert_allclose(m.matvec(v), centered @ v, atol=1e-8)

    @pytest.mark.parametrize("name", sorted(DENSE_COUPLINGS))
    def test_bit_identical_to_the_copying_recipe(self, name):
        build, lam = DENSE_COUPLINGS[name]
        j = build()
        if name == "signed-sine":
            sampled = dense_form(j)
            assert not np.array_equal(sampled, sampled.T)
        m = centered_resolvent(j, lam, 1.0)
        assert np.array_equal(m.dense, copied_resolvent(j, lam))
        assert m.dense.flags.f_contiguous

    def test_scipy_linalg_imported_after_the_resolvent(self):
        # pytest has imported scipy.linalg before any resolvent; a CLI run
        # loads the LAPACK extension first, and scipy.linalg may follow
        script = f"""
import sys
sys.path.insert(0, {os.path.dirname(__file__)!r})
import numpy as np
from amplab.ensembles import build_wishart_coupling, centered_resolvent
j = build_wishart_coupling(128, 1.5, seed=3)
first = centered_resolvent(j, 6.0, 1.0).dense
assert not any(m.split(".")[0] == "scipy" for m in sys.modules)
import scipy.linalg
from test_ensembles import copied_resolvent
want = copied_resolvent(j, 6.0)
again = centered_resolvent(j, 6.0, 1.0).dense
print(np.array_equal(first, want), np.array_equal(again, want))
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "True"]

    @pytest.mark.parametrize("name", ["sk", "hopfield"])
    def test_coupling_dense_left_unchanged(self, name):
        build, lam = DENSE_COUPLINGS[name]
        j = build()
        before = dense_form(j).copy()
        centered_resolvent(j, lam, 1.0)
        assert np.array_equal(dense_form(j), before)
        with pytest.raises(ValueError, match="spectrum"):
            centered_resolvent(j, 1.0, 1.0)
        assert np.array_equal(dense_form(j), before)

    @pytest.mark.parametrize("name", ["sk", "hopfield"])
    def test_gauged_coupling_is_written_from_the_draw(self, name):
        # diag(h) J diag(h) signs the rows and columns of J's blocks, so
        # its resolvent is not materialized from matvecs, and keeps the
        # bits of the materialized Jbar's
        build, lam = DENSE_COUPLINGS[name]
        j = build()
        h = np.where(np.arange(j.dim) % 3 == 0, -1.0, 1.0)
        jbar = gauge_conjugate(j, h)
        assert jbar.blocks is not None
        assert np.array_equal(dense_form(jbar), dense_form(j) * np.outer(h, h))
        assert np.array_equal(
            centered_resolvent(jbar, lam, 1.0).dense,
            centered_resolvent(dense_operator(jbar), lam, 1.0).dense)

    @pytest.mark.parametrize("row,col", [(40, 3), (3, 40), (0, 0)])
    def test_nan_in_the_coupling_refused(self, row, col):
        # in either triangle of J: the factorization reads only the lower
        j = dense_operator(build_wigner_coupling(64, seed=6))
        j.dense[row, col] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            centered_resolvent(j, 2.5, 1.0)

    def test_infinite_lambda_refused(self):
        with pytest.raises(ValueError, match="not finite"):
            centered_resolvent(build_wigner_coupling(64, seed=6), np.inf, 1.0)

    def test_lambda_inside_spectrum_rejected(self):
        j = build_wigner_coupling(256, seed=6)
        with pytest.raises(ValueError, match="spectrum"):
            centered_resolvent(j, 1.0, 1.0)

    def test_matvec_only_coupling_above_cap_refused_before_any_matvec(self):
        inner = build_signed_sine(MATERIALIZATION_CAP + 8, seed=1)
        calls = []

        def apply(v, out):
            calls.append(v.shape)
            return inner.matvec(v, out=out)

        counted = MatrixOperator(inner.dim, apply, 1.0, "counted")
        with pytest.raises(ValueError, match="exceeds cap"):
            centered_resolvent(counted, 2.0, 1.0)
        assert calls == []

    def test_wigner_second_moment_matches_semicircle_law(self):
        lam = 2.5
        law = SpectralLaw.semicircle()
        want = resolvent_variance(law, lam)
        j = build_wigner_coupling(1024, seed=7)
        m = centered_resolvent(j, lam, want)
        dense = dense_form(m)
        assert np.vdot(dense, dense) / j.dim == pytest.approx(want, rel=0.07)

    def test_matvec_only_coupling_materializes_below_cap(self):
        # below the cap the coupling is materialized and factored, so the
        # dense inverse agrees with the shortcut to rounding
        j = build_signed_sine(256, seed=8)
        lam = 2.0
        sig = resolvent_variance(SpectralLaw.rademacher(), lam)
        m = centered_resolvent(j, lam, sig)
        shortcut = involution_resolvent(j, lam, sig)
        for v in random_vectors(256, 3, seed=25):
            diff = np.linalg.norm(m.matvec(v) - shortcut.matvec(v))
            assert diff <= 1e-8 * np.linalg.norm(v)


class TestInvolutionResolvent:
    def test_matches_cg_resolvent_at_1024(self):
        # two-code-path equivalence oracle: linear-polynomial shortcut vs
        # the Cholesky inverse of the materialized coupling
        j = build_signed_sine(1024, seed=9)
        lam = 2.5684900248  # a solved lambda* for the rademacher law
        sig = resolvent_variance(SpectralLaw.rademacher(), lam)
        fast = involution_resolvent(j, lam, sig)
        slow = centered_resolvent(j, lam, sig)
        rng = np.random.default_rng(26)
        for _ in range(3):
            v = rng.standard_normal(1024)
            diff = np.linalg.norm(fast.matvec(v) - slow.matvec(v))
            assert diff <= 1e-8 * np.linalg.norm(v)

    def test_requires_known_trace(self):
        op = MatrixOperator(64, np.positive, 1.0, "anon")
        with pytest.raises(ValueError, match="trace"):
            involution_resolvent(op, 2.0, 1.0)


class TestCheckSemiRandom:
    def test_signed_sine_512(self):
        op = build_signed_sine(512, seed=1)
        diag = check_semi_random(op, "dense")
        # oracle: direct evaluation of the entry formula
        n, length = 512, 1025
        grid = np.outer(np.arange(1, n + 1), np.arange(1, n + 1))
        direct = float(np.max(np.abs(2 * np.sin(2 * np.pi * grid / length)
                                     / np.sqrt(length))))
        assert diag.psi_inf_norm == pytest.approx(direct, abs=1e-12)
        # the sine factor keeps it just below the envelope 2/sqrt(2N+1)
        assert diag.psi_inf_norm == pytest.approx(2 / np.sqrt(1025), abs=1e-6)
        assert diag.max_diag_gram_dev <= 1e-10
        assert diag.psi_op_norm == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("spec", ["wigner-resolvent:lambda=2.5",
                                      "wishart-resolvent:phi=1,lambda=4.5",
                                      "signed-sine"])
    def test_dense_mode_equals_the_copying_recipe(self, spec):
        op = operator_from_spec(spec, 256, 3)
        m = dense_form(op)
        gram = m @ m.T
        diag = np.diag(gram)
        off = gram - np.diag(diag)
        got = check_semi_random(op, "dense")
        assert got.psi_inf_norm == float(np.max(np.abs(m)))
        assert got.max_offdiag_gram == float(np.max(np.abs(off)))
        assert got.max_diag_gram_dev == float(
            np.max(np.abs(diag - op.sigma_psi_sq)))

    def test_identity_operator_fails_delocalization(self):
        op = MatrixOperator(128, np.positive, 1.0, "identity")
        diag = check_semi_random(op, "dense")
        assert diag.psi_inf_norm == 1.0
        assert diag.max_offdiag_gram == 0.0
        assert diag.inf_ratio > 2.0  # diagnostic only: no error raised

    def test_signed_hadamard_operator_norm(self):
        op = build_signed_hadamard(1024, seed=2)
        diag = check_semi_random(op, "dense")
        assert diag.psi_op_norm == pytest.approx(1.0, abs=1e-6)
        assert diag.max_diag_gram_dev <= 1e-10

    def test_probe_mode_close_to_dense(self):
        op = build_signed_sine(256, seed=3)
        dense = check_semi_random(op, "dense")
        probe = check_semi_random(op, "probe", pairs=256)
        assert probe.max_diag_gram_dev <= 1e-10
        assert probe.psi_inf_norm <= dense.psi_inf_norm + 1e-12
        assert probe.max_offdiag_gram <= dense.max_offdiag_gram + 1e-12

    def test_delocalization_scaling(self):
        # psi_inf_norm * sqrt(N) stays below the DST envelope constant 2
        for n in (256, 512, 1024, 2048):
            op = build_signed_sine(n, seed=4)
            probe = check_semi_random(op, "probe", pairs=64)
            assert probe.psi_inf_norm * np.sqrt(n) <= 2.0 + 1e-9


class TestDenseWorkingMemory:
    """Traced allocation peaks at N = 512, in units of one N x N float64."""

    N = 512
    SQUARE = N * N * 8

    def test_resolvent_holds_one_buffer_beyond_the_coupling(self):
        j = build_wigner_coupling(self.N, seed=13)
        _, peak = traced_peak(lambda: centered_resolvent(j, 2.5, 1.0))
        assert peak <= 1.2 * self.SQUARE

    def test_wigner_build_holds_the_draw_only(self):
        # the int8 W, written from the draw's int32 integers a chunk at a
        # time, peaks at 0.27; a float64 J drawn so took 1.14, and drawing
        # all N^2 integers at once 2.0
        build_wigner_coupling(self.N, seed=13)
        _, peak = traced_peak(lambda: build_wigner_coupling(self.N, seed=13))
        assert peak <= 1.3 * self.SQUARE

    def test_dense_check_holds_one_gram(self):
        j = dense_operator(build_wigner_coupling(self.N, seed=13))
        _, peak = traced_peak(lambda: check_semi_random(j, "dense"))
        assert peak <= 1.2 * self.SQUARE

    DRAWS = {  # builder and the bytes of its int8 draw
        "sk": (lambda n: build_coupling("sk", n, 13), 1),
        "hopfield-1": (lambda n: build_coupling("hopfield", n, 13, 1.0), 1),
        "hopfield-2": (lambda n: build_coupling("hopfield", n, 13, 2.0), 2),
    }

    def test_coupling_keeps_its_draw_only(self):
        # the int8 draw and, for sk, J's diagonal: 0.125 N x N at phi = 1,
        # where a float64 J took 1.0; the slack is the Python objects.  The
        # build adds one chunk of int32 integers: 0.14 at N = 512, where
        # the float32 recipe peaked at 1.53
        for name, (build, rows) in self.DRAWS.items():
            build(self.N)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                op = build(self.N)
                held, peak = np.subtract(tracemalloc.get_traced_memory(),
                                         start)
            finally:
                tracemalloc.stop()
            draw = rows * self.N * self.N
            assert held <= draw + 8 * self.N + 4096, name
            assert peak - draw <= 0.2 * self.SQUARE, name
            assert op.dense is None

    @pytest.mark.parametrize("name", sorted(DRAWS))
    def test_build_and_resolvent_hold_one_buffer_beyond_the_draw(self, name):
        # beyond the draw, the inverse and, for hopfield, two float32
        # panels of X: 1.07 for sk, 1.19 at phi = 1 and 1.38 at phi = 2,
        # where a float64 J beside the inverse took 1.94, 1.94 and 1.81
        build, rows = self.DRAWS[name]
        law = SpectralLaw.semicircle() if name == "sk" else (
            SpectralLaw.marchenko_pastur(float(rows)))
        params = solve_q_star(1.0, 1.0, law)
        resolvent_operator(build(64), params)
        _, peak = traced_peak(
            lambda: resolvent_operator(build(self.N), params))
        assert peak - rows * self.N * self.N <= 1.5 * self.SQUARE

    def test_dense_form_works_in_column_blocks(self):
        # one N x N result plus one block's FFT work arrays, not the
        # whole identity's
        n = 1024
        op = build_signed_sine(n, seed=13)
        op.matvec(np.ones(n))  # scipy.fft loaded and its plan cached
        m, peak = traced_peak(lambda: dense_form(op))
        assert peak <= 1.3 * n * n * 8
        assert np.array_equal(m, op.matvec(np.eye(n)))

    @pytest.mark.parametrize("name", ["signed-sine", "signed-hadamard",
                                      "random-orthogonal"])
    def test_dense_form_equals_the_single_block_at_any_width(self, name,
                                                              monkeypatch):
        # 48 does not divide 256: the last block is narrower
        single = operator_from_spec(name, 256, 3,
                                    max_directions=256).matvec(np.eye(256))
        for block in (1, 48, 256):
            monkeypatch.setattr(ensembles, "DENSE_BLOCK", block)
            m = dense_form(operator_from_spec(name, 256, 3, max_directions=256))
            assert m.flags.c_contiguous
            assert np.array_equal(m, single), block


class TestOperatorSpecs:
    def test_plain_names(self):
        for name in ("signed-sine", "signed-hadamard", "random-orthogonal"):
            op = operator_from_spec(name, 64, 1, max_directions=2)
            assert op.dim == 64

    def test_wigner_resolvent_spec(self):
        op = operator_from_spec("wigner-resolvent:lambda=2.5", 256, 1)
        assert op.label == "wigner-resolvent"
        assert op.sigma_psi_sq == pytest.approx(
            resolvent_variance(SpectralLaw.semicircle(), 2.5))

    def test_sign_perm_spec(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("\n".join(["1.0", "-1.0"] * 32) + "\n")
        op = operator_from_spec(f"sign-perm:base=hadamard,spectrum={path}", 64, 1)
        assert op.sigma_psi_sq == pytest.approx(1.0)

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="spec"):
            operator_from_spec("mystery", 64, 1)

    def test_malformed_args(self):
        with pytest.raises(ValueError):
            operator_from_spec("wigner-resolvent:lambda", 64, 1)

    @pytest.mark.parametrize("spec, key, form", [
        ("signed-sine:lambda=3", "lambda", "signed-sine"),
        ("signed-hadamard:spectrum=x,foo=1", "spectrum", "signed-hadamard"),
        ("wigner-resolvent:lambda=2.5,phi=1", "phi",
         "wigner-resolvent:lambda=<lambda>"),
        ("sign-perm:base=hadamard,spectrum=x,seed=2", "seed",
         "sign-perm:spectrum=<spectrum>"),
    ], ids=["sine", "hadamard", "wigner", "sign-perm"])
    def test_key_its_form_does_not_take_refused(self, spec, key, form):
        with pytest.raises(ValueError) as info:
            operator_from_spec(spec, 64, 1, max_directions=2)
        assert str(info.value) == f"{spec!r} takes no {key}=; expected {form}"


    @pytest.mark.parametrize("spec, builder, edge", [
        ("wigner-resolvent:lambda=1.5", "build_wigner_coupling",
         "2 of the semicircle law"),
        ("wigner-resolvent:lambda=2", "build_wigner_coupling",
         "2 of the semicircle law"),
        ("wishart-resolvent:phi=0.5,lambda=1", "build_wishart_coupling",
         "4.12132 of the marchenko_pastur law"),
    ], ids=["wigner-below", "wigner-at", "wishart-below"])
    def test_lambda_not_above_the_edge_refused_before_the_build(
            self, monkeypatch, spec, builder, edge):
        def no_build(*args):
            raise AssertionError("coupling built before lambda was checked")

        monkeypatch.setattr(ensembles, builder, no_build)
        with pytest.raises(ValueError) as info:
            operator_from_spec(spec, 64, 1)
        lam = spec.rpartition("=")[2]
        form = spec.split(":")[0] + ":" + ",".join(
            f"{key}=<{key}>" for key in ENSEMBLES[spec.split(":")[0]].keys)
        assert str(info.value) == (f"{spec!r}: lambda={lam!r} is not above "
                                   f"the right edge {edge}; expected {form}")


# The operator that each row's builder gives, called directly: sign-perm
# reads its spectrum file through SpectralLaw, which sorts it
ROW_BUILDS = {
    "signed-sine": ("signed-sine", lambda: build_signed_sine(64, 5)),
    "signed-hadamard": ("signed-hadamard",
                        lambda: build_signed_hadamard(64, 5)),
    "random-orthogonal": ("random-orthogonal", lambda: build_random_orthogonal(
        64, 5, max_directions=64)),
    "sk": (None, lambda: build_wigner_coupling(64, 5)),
    "hopfield": (None, lambda: build_wishart_coupling(64, 1.5, 5)),
    "sign-perm": ("sign-perm:spectrum={path}", lambda: build_sign_perm(
        64, 5, np.sort(np.linspace(2, -1, 64)))),
    "wigner-resolvent": ("wigner-resolvent:lambda=2.5", lambda: (
        centered_resolvent(build_wigner_coupling(64, 5), 2.5,
                           resolvent_variance(SpectralLaw.semicircle(), 2.5)))),
    "wishart-resolvent": ("wishart-resolvent:phi=1.5,lambda=6", lambda: (
        centered_resolvent(build_wishart_coupling(64, 1.5, 5), 6.0,
                           resolvent_variance(
                               SpectralLaw.marchenko_pastur(1.5), 6.0)))),
}


class TestEnsembleRows:
    @pytest.mark.parametrize("name", list(ENSEMBLES))
    def test_spec_and_tap_paths_give_the_builders_bits(self, name, tmp_path):
        # a row with spec keys is reached by operator_from_spec, a row with
        # a law by tap.build_coupling; each refuses the other rows' names.
        # Fresh operators each time: the lazy Haar store grows on first touch
        path = tmp_path / "spectrum.txt"
        path.write_text("\n".join(map(str, np.linspace(2, -1, 64))) + "\n")
        spec, direct = ROW_BUILDS[name]
        row, paths = ENSEMBLES[name], []
        if row.keys is None:
            with pytest.raises(ValueError, match="unknown operator spec"):
                operator_from_spec(name, 64, 5)
        else:
            paths.append(lambda: operator_from_spec(
                spec.format(path=path), 64, 5, max_directions=64))
        if row.law is None:
            with pytest.raises(ValueError, match="unknown ensemble"):
                build_coupling(name, 64, 5)
        else:
            paths.append(lambda: build_coupling(name, 64, 5, 1.5,
                                                max_directions=64))
        assert paths
        rng = substream(41, "rows")
        for v in (rng.standard_normal(64), rng.standard_normal((64, 3))):
            want = direct().matvec(v)
            for build in paths:
                assert np.array_equal(build().matvec(v), want)

    def test_readme_lists_are_the_table(self):
        with open(os.path.join(os.path.dirname(__file__), "..",
                               "README.md")) as fh:
            text = " ".join(fh.read().split())
        specs = re.search(r"Operator spec strings, for [^:]*: (.*?)\. ",
                          text).group(1)
        forms = re.findall(r"`([a-z-]+):?([^`]*)`", specs)
        assert [name for name, _ in forms] == [
            name for name, row in ENSEMBLES.items() if row.keys is not None]
        for name, keys in forms:
            assert set(re.findall(r"(\w+)=", keys)) == set(ENSEMBLES[name].keys)
        taps = re.search(r"`tap --ensemble` takes (.*?)\. ", text).group(1)
        assert tuple(re.findall(r"`([a-z-]+)`", taps)) == TAP_ENSEMBLES
        assert {name for name, _ in forms} | set(TAP_ENSEMBLES) == set(
            ENSEMBLES)


class TestBuilderInvariants:
    @pytest.mark.parametrize("build", [
        lambda n: operator_from_spec("signed-sine", n, 1, max_directions=4),
        lambda n: operator_from_spec("signed-hadamard", n, 1,
                                     max_directions=4),
        lambda n: operator_from_spec("random-orthogonal", n, 1,
                                     max_directions=4),
        lambda n: build_sign_perm(n, 1, np.ones(max(n, 0))),
        lambda n: build_wigner_coupling(n, 1),
        lambda n: build_wishart_coupling(n, 1.0, 1),
    ], ids=["signed-sine", "signed-hadamard", "random-orthogonal",
            "sign-perm", "wigner", "wishart"])
    @pytest.mark.parametrize("n", [-4, 1])
    def test_size_below_two_named_before_any_draw(self, build, n,
                                                  monkeypatch):
        def draw(*args):
            raise AssertionError("drew before N was checked")

        monkeypatch.setattr(ensembles, "rademacher", draw)
        with pytest.raises(ValueError, match=f"N must be >= 2, got {n}"):
            build(n)

    @pytest.mark.parametrize("name,build", [
        ("signed-sine", lambda: build_signed_sine(128, seed=31)),
        ("signed-hadamard", lambda: build_signed_hadamard(128, seed=31)),
        ("random-orthogonal", lambda: build_random_orthogonal(
            128, seed=31, max_directions=128)),
        ("sign-perm", lambda: build_sign_perm(
            128, seed=31, eigenvalues=np.where(np.arange(128) % 2 == 0,
                                               1.0, -1.0))),
        ("wigner", lambda: build_wigner_coupling(128, seed=31)),
        ("wishart", lambda: build_wishart_coupling(128, 1.0, seed=31)),
    ])
    def test_linearity_and_symmetry_on_16_pairs(self, name, build):
        assert_linear_symmetric(build(), pairs=16)

    @pytest.mark.parametrize("build", [
        lambda: build_signed_sine(256, seed=32),
        lambda: build_signed_hadamard(256, seed=32),
        lambda: build_random_orthogonal(256, seed=32, max_directions=4),
    ])
    def test_involution_relative(self, build):
        op = build()
        v = np.random.default_rng(33).standard_normal(256)
        err = np.linalg.norm(op.matvec(op.matvec(v)) - v) / np.linalg.norm(v)
        assert err <= 1e-9


class TestMatrixInput:
    @pytest.mark.parametrize("build,rtol", [
        *[pytest.param(lambda name=name: ENSEMBLES[name].build(
            64, 34, {"phi": 1.0}, 64), 1e-12, id=name)
          for name in TAP_ENSEMBLES],
        pytest.param(lambda: build_sign_perm(64, 34, np.linspace(-1, 2, 64)),
                     1e-12, id="sign-perm"),
        pytest.param(lambda: involution_resolvent(
            build_signed_sine(64, 34), 2.0, 1.0), 1e-12,
            id="involution-resolvent"),
        pytest.param(lambda: operator_from_spec(
            "wigner-resolvent:lambda=2.5", 64, 35), 1e-8, id="wigner-resolvent"),
        pytest.param(lambda: centered_resolvent(
            build_wishart_coupling(64, 0.5, 35), 5.0, 1.0), 1e-8,
            id="wishart-resolvent"),
        pytest.param(lambda: gauge_conjugate(
            build_signed_hadamard(64, 34),
            np.where(np.arange(64) % 3 == 0, -1.0, 1.0)), 1e-12, id="gauged"),
    ])
    def test_block_equals_columns(self, build, rtol):
        block = np.random.default_rng(36).standard_normal((64, 5))
        got = build().matvec(block)
        op = build()  # a fresh copy: the lazy Haar store grows on first touch
        want = np.stack([op.matvec(block[:, k]) for k in range(5)], axis=1)
        assert got.shape == (64, 5)
        assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


def row_operator(name, n, seed, spectrum_path):
    """The operator of an ``ENSEMBLES`` row, built through its builder."""
    args = {"sign-perm": {"spectrum": spectrum_path, "base": "hadamard"},
            "wigner-resolvent": {"lambda": 2.5},
            "wishart-resolvent": {"phi": 1.5, "lambda": 6.0}}
    return ENSEMBLES[name].build(n, seed, args.get(name, {"phi": 1.0}), 16)


def rademacher_resolvents(n, seed):
    """``involution_resolvent`` on each +/-1 coupling: signed sine at even
    and odd N (Tr J / N = 0 and not), random orthogonal, signed Hadamard
    (folded into a sign-perm operator) and a gauged signed Hadamard."""
    lam = 2.5684900248
    sig = resolvent_variance(SpectralLaw.rademacher(), lam)
    field = np.where(np.arange(n) % 3 == 0, -1.0, 1.0)
    couplings = {
        "signed-sine": lambda: build_signed_sine(n, seed),
        "signed-sine-odd": lambda: build_signed_sine(n - 1, seed),
        "random-orthogonal": lambda: build_random_orthogonal(
            n, seed, max_directions=16),
        "signed-hadamard": lambda: build_signed_hadamard(n, seed),
        "gauged-hadamard": lambda: gauge_conjugate(
            build_signed_hadamard(n, seed), field),
    }
    return {name: (lambda build=build: involution_resolvent(build(), lam, sig))
            for name, build in couplings.items()}


class TestMatvecIntoItsInput:
    """``matvec(v, out=v)``, the AMP loop's call, gives ``matvec(v)``."""

    N = 256

    @pytest.mark.parametrize("name", sorted(ENSEMBLES))
    def test_every_row(self, name, tmp_path):
        path = tmp_path / "spectrum.txt"
        np.savetxt(path, np.linspace(-1.0, 2.0, self.N))
        rng = np.random.default_rng(37)
        for v in (rng.standard_normal(self.N),
                  rng.standard_normal((self.N, 3))):
            # two copies: the lazy Haar store grows on first touch
            want = row_operator(name, self.N, 38, path).matvec(v)
            x = v.copy()
            assert row_operator(name, self.N, 38, path).matvec(x, out=x) is x
            assert np.array_equal(x, want)

    @pytest.mark.parametrize("name", sorted(rademacher_resolvents(8, 1)))
    def test_closed_form_resolvents(self, name):
        build = rademacher_resolvents(self.N, 39)[name]
        rng = np.random.default_rng(40)
        for v in (rng.standard_normal(build().dim),
                  rng.standard_normal((build().dim, 3))):
            want = build().matvec(v)
            x = v.copy()
            assert build().matvec(x, out=x) is x
            assert np.array_equal(x, want)

    def test_dense_resolvent(self):
        op = centered_resolvent(build_wishart_coupling(self.N, 0.5, 41),
                                5.0, 1.0)
        v = np.random.default_rng(42).standard_normal(self.N)
        want = op.matvec(v)
        assert np.array_equal(op.matvec(v, out=v), want)

    @pytest.mark.parametrize("name", ["signed-hadamard", "signed-sine",
                                      "random-orthogonal", "wishart-resolvent"])
    def test_bad_out_refused_before_apply(self, name):
        # a float32 out would round M v; a wrong-shaped one would fail only
        # after the Haar store drew beta and g for the query
        op = row_operator(name, self.N, 1, None)
        v = np.random.default_rng(45).standard_normal(self.N)
        for out in (np.empty(self.N, dtype=np.float32), np.empty(self.N + 1)):
            with pytest.raises(ValueError, match=r"shape .* and dtype .*; "
                               r"expected \(256,\) and float64"):
                op.matvec(v, out=out)
        if op.haar_basis is not None:
            assert op.haar_basis.q.shape[0] == 0
        assert np.array_equal(op.matvec(v),
                              row_operator(name, self.N, 1, None).matvec(v))

    @pytest.mark.parametrize("gauged", [False, True])
    def test_folded_hadamard_resolvent_is_the_polynomial(self, gauged):
        # (J - c I) / (lam^2 - 1) with c = Tr J / N folded into the
        # spectrum's write-out: a sign-perm operator that never applies J
        n, lam = 2 ** 16, 2.5684900248
        j = build_signed_hadamard(n, 43)
        if gauged:
            j = gauge_conjugate(j, rademacher(substream(1, "field"), n))
        calls = []
        plain = j.matvec
        j.matvec = lambda *args, **kwargs: calls.append(1) or plain(
            *args, **kwargs)
        op = involution_resolvent(j, lam, 1.0)
        center = j.trace / n
        assert center != 0.0 and op.spectrum is None
        for v in random_vectors(n, 3, seed=44):
            got = op.matvec(v)
            assert calls == []
            want = (plain(v) - center * v) / (lam * lam - 1.0)
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


class TestPowerIteration:
    def test_norm_of_orthogonal_conjugation(self):
        op = build_signed_hadamard(256, seed=1)
        assert power_iteration_norm(op) == pytest.approx(1.0, abs=1e-8)
