import threading
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, lapack

from amplab import ensembles
from amplab.ensembles import (ENSEMBLES, MATERIALIZATION_CAP,
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
from amplab.tap import build_coupling, gauge_conjugate


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


class TestFwht:
    # from 2^17 on (2^15 for three columns) the transform runs in more than
    # one chunk per phase
    @pytest.mark.parametrize("log2n", range(1, 21))
    def test_bit_identical_to_radix2_reference(self, log2n):
        rng = np.random.default_rng(log2n)
        n = 2 ** log2n
        for v in (rng.standard_normal(n), rng.standard_normal((n, 3)),
                  rng.standard_normal((n, 3))[:, 1]):
            before = v.copy()
            assert np.array_equal(fwht(v), radix2_fwht(v))
            assert np.array_equal(v, before)

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


class TestSignedHadamard:
    def test_involution(self):
        op = build_signed_hadamard(1024, seed=1)
        v = np.random.default_rng(10).standard_normal(1024)
        np.testing.assert_allclose(op.matvec(op.matvec(v)), v, atol=1e-10)

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
        # matvec that scales inside the chunked transforms' copies
        n, seed = 2 ** 18, 6
        signs = rademacher(substream(seed, "signs"), n)
        lam = rademacher(substream(seed, "spectrum"), n)
        op = build_signed_hadamard(n, seed)
        rng = np.random.default_rng(12)
        for v in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            want = scale_rows(signs, radix2_fwht(scale_rows(
                lam, radix2_fwht(scale_rows(signs, v)))))
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
        lam = np.linspace(-1, 1, 128)
        op = build_sign_perm(128, seed=2, eigenvalues=lam)
        assert op.trace == pytest.approx(lam.sum(), abs=1e-12)

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
        op = build_wigner_coupling(256, seed=1)
        np.testing.assert_array_equal(op.dense, op.dense.T)

    def test_largest_eigenvalue_near_two(self):
        op = build_wigner_coupling(2048, seed=2)
        top = np.linalg.eigvalsh(op.dense)[-1]
        assert 1.9 <= top <= 2.2

    def test_second_moment_matches_frobenius_oracle(self):
        # (1/N) Tr J^2 = ||J||_F^2 / N; for this normalization the limit is
        # the semicircle second moment 1 (plus a 2/N diagonal correction).
        op = build_wigner_coupling(2048, seed=3)
        frob = float(np.sum(op.dense * op.dense)) / op.dim
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
        got = build_wigner_coupling(n, seed=12)
        assert np.array_equal(got.dense, want)
        assert got.dense.flags.c_contiguous

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
        top = np.linalg.eigvalsh(op.dense)[-1]
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
    return MatrixOperator(n, lambda v: np.zeros_like(v), 1.0, "zero",
                          trace=0.0)


class TestCenteredResolvent:
    def test_zero_coupling_gives_zero_operator(self):
        op = centered_resolvent(zero_operator(64), 2.0, 1.0)
        v = np.random.default_rng(23).standard_normal(64)
        np.testing.assert_allclose(op.matvec(v), 0.0, atol=1e-12)

    def test_trace_removed_exactly_dense(self):
        j = build_wigner_coupling(256, seed=5)
        lam = 2.5
        eigs = np.linalg.eigvalsh(j.dense)
        resolvent_trace = float(np.sum(1.0 / (lam - eigs)))
        m = centered_resolvent(j, lam, resolvent_variance(
            SpectralLaw.semicircle(), lam))
        # dense route: the centering constant reproduces the exact trace
        dense = np.linalg.inv(lam * np.eye(256) - j.dense)
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

    @pytest.mark.parametrize("name", ["sk", "hopfield"])
    def test_coupling_dense_left_unchanged(self, name):
        build, lam = DENSE_COUPLINGS[name]
        j = build()
        before = j.dense.copy()
        centered_resolvent(j, lam, 1.0)
        assert np.array_equal(j.dense, before)
        with pytest.raises(ValueError, match="spectrum"):
            centered_resolvent(j, 1.0, 1.0)
        assert np.array_equal(j.dense, before)

    def test_lambda_inside_spectrum_rejected(self):
        j = build_wigner_coupling(256, seed=6)
        with pytest.raises(ValueError, match="spectrum"):
            centered_resolvent(j, 1.0, 1.0)

    def test_matvec_only_coupling_above_cap_refused_before_any_matvec(self):
        inner = build_signed_sine(MATERIALIZATION_CAP + 8, seed=1)
        calls = []

        def apply(v):
            calls.append(v.shape)
            return inner.matvec(v)

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
        m = centered_resolvent(j, lam, resolvent_variance(
            SpectralLaw.rademacher(), lam))
        shortcut = involution_resolvent(j, lam)
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
        op = MatrixOperator(64, lambda v: v, 1.0, "anon")
        with pytest.raises(ValueError, match="trace"):
            involution_resolvent(op, 2.0)


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
        op = MatrixOperator(128, lambda v: v.copy(), 1.0, "identity")
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
        # the +/-1 draw's integers and floats; J is built in the floats
        _, peak = traced_peak(lambda: build_wigner_coupling(self.N, seed=13))
        assert peak <= 2.05 * self.SQUARE

    def test_dense_check_holds_one_gram(self):
        j = build_wigner_coupling(self.N, seed=13)
        _, peak = traced_peak(lambda: check_semi_random(j, "dense"))
        assert peak <= 1.2 * self.SQUARE

    def test_wishart_coupling_keeps_j_only(self):
        # X is dropped once J = X^T X / sqrt(M N) and its trace are formed;
        # J is scaled in place, so the build holds two N x N arrays at most
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            op = build_wishart_coupling(self.N, 1.0, seed=13)
            held, peak = np.subtract(tracemalloc.get_traced_memory(), start)
        finally:
            tracemalloc.stop()
        assert held <= 1.05 * self.SQUARE
        assert peak <= 2.05 * self.SQUARE
        assert op.dense.flags.owndata

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


class TestBuilderInvariants:
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
        *[pytest.param(lambda name=name: ENSEMBLES[name].build(64, 34, 1.0, 64),
                       1e-12, id=name) for name in ENSEMBLES],
        pytest.param(lambda: build_sign_perm(64, 34, np.linspace(-1, 2, 64)),
                     1e-12, id="sign-perm"),
        pytest.param(lambda: involution_resolvent(
            build_signed_sine(64, 34), 2.0), 1e-12, id="involution-resolvent"),
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


class TestPowerIteration:
    def test_norm_of_orthogonal_conjugation(self):
        op = build_signed_hadamard(256, seed=1)
        assert power_iteration_norm(op) == pytest.approx(1.0, abs=1e-8)
