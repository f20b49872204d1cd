import numpy as np
import pytest

from amplab.ensembles import (ENSEMBLES, MATERIALIZATION_CAP, MatrixOperator,
                              build_random_orthogonal, build_sign_perm,
                              build_signed_hadamard, build_signed_sine,
                              build_wigner_coupling, build_wishart_coupling,
                              centered_resolvent, check_semi_random,
                              conjugate_gradient, dst_matvec, fwht,
                              hutchinson_trace_square,
                              involution_resolvent,
                              operator_from_spec, power_iteration_norm)
from amplab.errors import NumericError, ResourceError
from amplab.spectral import SpectralLaw, resolvent_variance
from amplab.tap import gauge_conjugate


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


class TestFwht:
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

    def test_norm_preserved(self):
        v = np.random.default_rng(5).standard_normal(512)
        assert np.linalg.norm(dst_matvec(v)) == pytest.approx(
            np.linalg.norm(v), abs=1e-10)

    def test_fft_path_matches_direct(self):
        for n in (3, 64, 513, 1024):
            v = np.random.default_rng(n).standard_normal(n)
            np.testing.assert_allclose(dst_matvec(v, "fft"),
                                       dst_matvec(v, "direct"), atol=1e-11)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        u, v = rng.standard_normal((2, 257))
        assert u @ dst_matvec(v) == pytest.approx(dst_matvec(u) @ v,
                                                  abs=1e-10)


class TestSignedSine:
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
        op = build_signed_hadamard(4096, seed=3)
        est = hutchinson_trace_square(op, probes=64) / op.dim
        assert est == pytest.approx(1.0, abs=0.02)

    def test_non_power_of_two(self):
        with pytest.raises(ValueError):
            build_signed_hadamard(48, seed=1)

    def test_type_invariants(self):
        assert_linear_symmetric(build_signed_hadamard(128, seed=5))


class TestRandomOrthogonal:
    def test_norm_preserved(self):
        op = build_random_orthogonal(512, seed=1)
        for v in random_vectors(512, 4, seed=12):
            assert np.linalg.norm(op.haar_basis.forward(v)) == pytest.approx(
                np.linalg.norm(v), abs=1e-10)

    def test_inverse_pair(self):
        op = build_random_orthogonal(512, seed=2)
        basis = op.haar_basis
        for v in random_vectors(512, 4, seed=13):
            w = basis.forward(v)
            np.testing.assert_allclose(basis.backward(w), v, atol=1e-10)

    def test_involution(self):
        op = build_random_orthogonal(512, seed=3)
        v = np.random.default_rng(14).standard_normal(512)
        np.testing.assert_allclose(op.matvec(op.matvec(v)), v, atol=1e-10)

    def test_symmetry_and_linearity(self):
        assert_linear_symmetric(build_random_orthogonal(128, seed=6), pairs=8)

    def test_direction_cap(self):
        op = build_random_orthogonal(64, seed=4, max_directions=3)
        rng = np.random.default_rng(15)
        with pytest.raises(ResourceError):
            for _ in range(8):
                op.matvec(rng.standard_normal(64))

    def test_reproducible(self):
        v = np.random.default_rng(16).standard_normal(128)
        a = build_random_orthogonal(128, seed=5).matvec(v)
        b = build_random_orthogonal(128, seed=5).matvec(v)
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


class TestWignerCoupling:
    def test_exact_symmetry(self):
        op = build_wigner_coupling(256, seed=1)
        np.testing.assert_array_equal(op.dense, op.dense.T)

    def test_largest_eigenvalue_near_two(self):
        op = build_wigner_coupling(2048, seed=2)
        top = np.linalg.eigvalsh(op.dense)[-1]
        assert 1.9 <= top <= 2.2

    def test_second_moment_matches_frobenius_oracle(self):
        # Oracle first: (1/N) Tr J^2 = ||J||_F^2 / N; for this normalization
        # the limit is the semicircle second moment 1 (plus a 2/N diagonal
        # correction), which the Hutchinson estimate must reproduce.
        op = build_wigner_coupling(2048, seed=3)
        frob = float(np.sum(op.dense * op.dense)) / op.dim
        assert frob == pytest.approx(1.0, abs=0.01)
        est = hutchinson_trace_square(op, probes=64) / op.dim
        assert est == pytest.approx(frob, abs=0.1)

    def test_gaussian_entries(self):
        op = build_wigner_coupling(512, seed=4, entry_kind="gaussian_symmetric")
        offdiag = op.dense[np.triu_indices(512, 1)] * np.sqrt(512)
        assert np.var(offdiag) == pytest.approx(1.0, abs=0.02)

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
        est = hutchinson_trace_square(m, probes=48) / j.dim
        assert est == pytest.approx(want, rel=0.07)

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


class TestOperatorSpecs:
    def test_plain_names(self):
        for name in ("signed-sine", "signed-hadamard", "random-orthogonal"):
            op = operator_from_spec(name, 64, 1)
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
        ("random-orthogonal", lambda: build_random_orthogonal(128, seed=31)),
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
        lambda: build_random_orthogonal(256, seed=32),
    ])
    def test_involution_relative(self, build):
        op = build()
        v = np.random.default_rng(33).standard_normal(256)
        err = np.linalg.norm(op.matvec(op.matvec(v)) - v) / np.linalg.norm(v)
        assert err <= 1e-9


class TestMatrixInput:
    @pytest.mark.parametrize("build,rtol", [
        *[pytest.param(lambda name=name: ENSEMBLES[name].build(64, 34, 1.0),
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
