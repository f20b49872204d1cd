import numpy as np
import pytest
from scipy.integrate import quad

from amplab.ensembles import build_wishart_coupling, dense_form
from amplab.spectral import (SpectralLaw, cauchy_derivative, cauchy_transform,
                             inverse_cauchy, r_transform, resolvent_variance,
                             sup_cauchy)

RADEMACHER = SpectralLaw.rademacher()
SEMICIRCLE = SpectralLaw.semicircle()


def semicircle_quad(f):
    """Oracle: quadrature against the semicircle density on [-2, 2]."""
    val, _ = quad(lambda lam: f(lam) * np.sqrt(4 - lam * lam) / (2 * np.pi),
                  -2, 2, epsabs=1e-12, limit=200)
    return val


class TestCauchyTransform:
    def test_rademacher_closed_form(self):
        # two-atom average: (1/2)(1/(z-1) + 1/(z+1)) at z = 2 is 2/3
        assert cauchy_transform(RADEMACHER, 2.0) == pytest.approx(2 / 3,
                                                                  abs=1e-15)

    def test_semicircle_against_density_quadrature(self):
        oracle = semicircle_quad(lambda lam: 1.0 / (3.0 - lam))
        assert oracle == pytest.approx((3 - np.sqrt(5)) / 2, abs=1e-10)
        assert cauchy_transform(SEMICIRCLE, 3.0) == pytest.approx(oracle,
                                                                  abs=1e-10)

    def test_empirical_point_mass(self):
        law = SpectralLaw.empirical([0.0])
        assert cauchy_transform(law, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_domain_error_at_or_below_edge(self):
        for law in (RADEMACHER, SEMICIRCLE):
            with pytest.raises(ValueError):
                cauchy_transform(law, law.lambda_plus)

    def test_monotone_decreasing_on_grid(self):
        laws = [RADEMACHER, SEMICIRCLE,
                SpectralLaw.marchenko_pastur(1.0),
                SpectralLaw.empirical([-1.0, 0.3, 0.9])]
        for law in laws:
            grid = law.lambda_plus + np.linspace(1e-3, 10.0, 50)
            values = [cauchy_transform(law, z) for z in grid]
            assert np.all(np.diff(values) < 0), law.kind


class TestCauchyDerivative:
    def test_rademacher_closed_form_and_finite_difference(self):
        want = -5.0 / 9.0  # -(z^2+1)/(z^2-1)^2 at z = 2
        assert cauchy_derivative(RADEMACHER, 2.0) == pytest.approx(want,
                                                                   abs=1e-14)
        h = 1e-6
        fd = (cauchy_transform(RADEMACHER, 2 + h)
              - cauchy_transform(RADEMACHER, 2 - h)) / (2 * h)
        assert cauchy_derivative(RADEMACHER, 2.0) == pytest.approx(fd,
                                                                   abs=1e-9)

    def test_single_atom(self):
        law = SpectralLaw.empirical([0.0])
        assert cauchy_derivative(law, 2.0) == pytest.approx(-0.25, abs=1e-15)

    def test_semicircle_finite_difference(self):
        h = 1e-6
        fd = (cauchy_transform(SEMICIRCLE, 3 + h)
              - cauchy_transform(SEMICIRCLE, 3 - h)) / (2 * h)
        assert cauchy_derivative(SEMICIRCLE, 3.0) == pytest.approx(fd,
                                                                   abs=1e-7)

    def test_always_negative(self):
        for law in (RADEMACHER, SEMICIRCLE, SpectralLaw.empirical([0.0, 1.0])):
            for z in law.lambda_plus + np.array([0.1, 1.0, 7.0]):
                assert cauchy_derivative(law, z) < 0


class TestInverseCauchy:
    def test_rademacher_round_trip_example(self):
        assert inverse_cauchy(RADEMACHER, 2 / 3) == pytest.approx(2.0,
                                                                  abs=1e-10)

    def test_round_trip_identity(self):
        for law in (RADEMACHER, SEMICIRCLE,
                    SpectralLaw.empirical([-0.5, 0.2, 1.1])):
            for dz in (0.5, 1.0, 5.0):
                z = law.lambda_plus + dz
                y = cauchy_transform(law, z)
                assert inverse_cauchy(law, y) == pytest.approx(z, abs=1e-10)

    def test_semicircle_round_trip(self):
        y = cauchy_transform(SEMICIRCLE, 2.5)
        assert inverse_cauchy(SEMICIRCLE, y) == pytest.approx(2.5, abs=1e-10)

    def test_residual_tolerance(self):
        for y in (0.01, 0.2, 0.6):
            z = inverse_cauchy(RADEMACHER, y)
            assert abs(cauchy_transform(RADEMACHER, z) - y) <= 1e-12

    def test_out_of_range_named(self):
        # semicircle: G(2+) = 1, so y >= 1 is unattainable
        with pytest.raises(ValueError, match="range"):
            inverse_cauchy(SEMICIRCLE, 1.5)
        with pytest.raises(ValueError, match="range"):
            inverse_cauchy(RADEMACHER, 0.0)


class TestRTransform:
    def test_rademacher_example(self):
        r, _ = r_transform(RADEMACHER, 2 / 3)
        assert r == pytest.approx(0.5, abs=1e-10)

    def test_derivative_against_finite_difference(self):
        h = 1e-6
        for law in (RADEMACHER, SEMICIRCLE):
            for y in (0.1, 0.3):
                _, rp = r_transform(law, y)
                fd = (r_transform(law, y + h)[0]
                      - r_transform(law, y - h)[0]) / (2 * h)
                assert rp == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("law", [
        RADEMACHER, SEMICIRCLE, SpectralLaw.marchenko_pastur(0.5),
        SpectralLaw.marchenko_pastur(2.0)], ids=["rademacher", "semicircle",
                                                 "mp-0.5", "mp-2"])
    def test_closed_forms_are_the_inverse_function_rule(self, law):
        # away from y -> 0, where 1/G'(z) + 1/y^2 keeps its digits
        for dz in (0.2, 1.0, 4.0):
            z = law.lambda_plus + dz
            y = cauchy_transform(law, z)
            r, rp = r_transform(law, y)
            assert r == pytest.approx(z - 1 / y, rel=1e-12, abs=1e-13)
            assert rp == pytest.approx(
                1 / cauchy_derivative(law, z) + 1 / y ** 2, rel=1e-11)
            assert inverse_cauchy(law, y) == pytest.approx(z, rel=1e-13)

    def test_semicircle_r_is_identity(self):
        # free additive convolution: R_sc(y) = y, via the round-trip
        # construction itself (inverse_cauchy + algebra)
        for y in (0.05, 0.2, 0.5):
            r, rp = r_transform(SEMICIRCLE, y)
            assert r == pytest.approx(y, abs=1e-8)
            assert rp == pytest.approx(1.0, abs=1e-6)


class TestEmpiricalConsistency:
    def test_sampled_spectrum_matches_direct_solve(self):
        # same data, two code paths: atom average vs (1/N) Tr (lam I - J)^{-1}
        rng = np.random.default_rng(3)
        n = 512
        a = rng.standard_normal((n, n))
        j = (a + a.T) / np.sqrt(2 * n)
        eigs = np.linalg.eigvalsh(j)
        law = SpectralLaw.empirical(eigs)
        lam = law.lambda_plus + 0.8
        direct = np.trace(np.linalg.inv(lam * np.eye(n) - j)) / n
        assert cauchy_transform(law, lam) == pytest.approx(direct, abs=1e-10)

    def test_lambda_plus_is_max_eigenvalue(self):
        law = SpectralLaw.empirical([0.3, -2.0, 1.7])
        assert law.lambda_plus == 1.7

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            SpectralLaw.empirical([1.0, np.inf])

    def test_from_file(self, tmp_path):
        path = tmp_path / "spectrum.txt"
        path.write_text("# comment\n1.5\n-0.5\n\n0.25\n")
        law = SpectralLaw.from_file(path)
        assert law.eigenvalues.tolist() == [-0.5, 0.25, 1.5]
        assert law.lambda_plus == 1.5

    def test_from_file_bad_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\nnot-a-number\n")
        with pytest.raises(ValueError, match="line 2"):
            SpectralLaw.from_file(path)


def mp_quad(phi, f):
    """Oracle: quadrature of f against the MP law of X^T X / sqrt(M N).

    Density sqrt(phi) sqrt((b - x)(x - a)) / (2 pi x) on [a, b], with
    a, b = sqrt(phi) + 1/sqrt(phi) -/+ 2, plus an atom of mass 1 - phi at
    0 when phi < 1.  x = a + (b - a) sin^2(t/2) removes the square-root
    endpoints.
    """
    a = np.sqrt(phi) + 1 / np.sqrt(phi) - 2
    b = a + 4

    def integrand(t):
        s, c = np.sin(t / 2), np.cos(t / 2)
        x = a + (b - a) * s * s
        return np.sqrt(phi) * ((b - a) * s * c) ** 2 / (2 * np.pi * x) * f(x)

    val, _ = quad(integrand, 0, np.pi, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val + max(0.0, 1 - phi) * f(0.0)


class TestMarchenkoPastur:
    @pytest.mark.parametrize("phi", [0.5, 1.0, 2.0])
    def test_closed_form_against_density_quadrature(self, phi):
        law = SpectralLaw.marchenko_pastur(phi)
        assert mp_quad(phi, lambda x: 1.0) == pytest.approx(1.0, abs=1e-12)
        for dz in (0.1, 0.5, 3.0):
            z = law.lambda_plus + dz
            g = mp_quad(phi, lambda x: 1 / (z - x))
            dg = -mp_quad(phi, lambda x: 1 / (z - x) ** 2)
            assert cauchy_transform(law, z) == pytest.approx(g, abs=1e-10)
            assert cauchy_derivative(law, z) == pytest.approx(dg, abs=1e-12)

    def test_exact_values_at_phi_one(self):
        # w = 4.5: G = 1/3, G' = -4/27, so -G' - G^2 = 1/27
        law = SpectralLaw.marchenko_pastur(1.0)
        assert resolvent_variance(law, 4.5) == pytest.approx(1 / 27, abs=1e-15)
        assert sup_cauchy(law) == 0.5

    @pytest.mark.parametrize("phi", [0.5, 1.0, 2.0])
    def test_matches_sampled_wishart_spectrum(self, phi):
        eigs = np.linalg.eigvalsh(
            dense_form(build_wishart_coupling(2048, phi, seed=3)))
        law = SpectralLaw.marchenko_pastur(phi)
        z = law.lambda_plus + 0.5
        sampled = cauchy_transform(SpectralLaw.empirical(eigs), z)
        assert cauchy_transform(law, z) == pytest.approx(sampled, abs=2e-3)


class TestResolventVarianceBridge:
    def test_semicircle_positive_above_edge(self):
        for lam in 2.0 + np.linspace(0.01, 8.0, 40):
            assert resolvent_variance(SEMICIRCLE, lam) > 0

    def test_marchenko_pastur_edge(self):
        law = SpectralLaw.marchenko_pastur(1.0)
        # right edge of the X^T X / sqrt(MN) normalization at phi = 1 is 4
        assert law.lambda_plus == pytest.approx(4.0, abs=0.15)
        assert cauchy_transform(law, 5.0) > 0
