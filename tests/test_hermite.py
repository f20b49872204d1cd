import math

import numpy as np
import pytest
from scipy.integrate import quad

from amplab.errors import DegreeOverflowError, NumericError
from amplab.hermite import (HermiteSeries, bivariate_gaussian_moment,
                            gauss_hermite_rule, gaussian_expectation,
                            hermite_all, hermite_coefficients, hermite_eval,
                            hermite_sequence)


def gaussian_quad(f, lo=-12.0, hi=12.0):
    """Independent oracle: adaptive quadrature against the N(0,1) density."""
    val, _ = quad(lambda x: f(x) * math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
                  lo, hi, epsabs=1e-13, epsrel=1e-13, limit=300)
    return val


class TestHermiteEval:
    def test_degree_zero_is_one(self):
        assert hermite_eval(0, 7.3) == 1.0

    def test_degree_two_at_one(self):
        # H_2(z) = (z^2 - 1)/sqrt(2) vanishes at z = 1
        assert hermite_eval(2, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_odd_degree_at_origin(self):
        assert hermite_eval(3, 0.0) == 0.0

    def test_low_degrees_match_closed_forms(self):
        z = np.linspace(-3, 3, 41)
        np.testing.assert_allclose(hermite_eval(1, z), z, atol=1e-14)
        np.testing.assert_allclose(hermite_eval(2, z), (z**2 - 1) / np.sqrt(2),
                                   atol=1e-13)
        np.testing.assert_allclose(hermite_eval(3, z), (z**3 - 3*z) / np.sqrt(6),
                                   atol=1e-13)

    def test_one_recurrence_serves_eval_and_all(self):
        x = np.random.default_rng(0).standard_normal(257)
        table = hermite_all(10, x)
        # a yielded value lives in a reused buffer: keep copies
        seq = [h.copy() for h in hermite_sequence(10, x)]
        assert len(seq) == 11
        for k in range(11):
            assert np.array_equal(hermite_eval(k, x), table[k])
            assert np.array_equal(seq[k], table[k])

    def test_a_yielded_value_holds_until_two_more_are_computed(self):
        x = np.random.default_rng(1).standard_normal(257)
        table = hermite_all(12, x)
        window = []
        for k, h in enumerate(hermite_sequence(12, x)):
            window = [*window[-1:], (k, h)]
            for j, kept in window:  # H_{k-1} and H_k
                assert np.array_equal(kept, table[j])

    def test_eval_returns_a_new_array(self):
        x = np.linspace(-1.0, 1.0, 5)
        hermite_eval(1, x)[:] = 0.0
        assert x[0] == -1.0

    def test_degree_cap(self):
        with pytest.raises(DegreeOverflowError):
            hermite_eval(65, 0.3)

    def test_orthonormality_by_quadrature(self):
        x, w = gauss_hermite_rule(64)
        table = hermite_all(8, x)
        gram = (table * w) @ table.T
        np.testing.assert_allclose(gram, np.eye(9), atol=1e-10)


class TestGaussHermiteRule:
    def test_order_one(self):
        nodes, weights = gauss_hermite_rule(1)
        assert nodes.tolist() == [0.0]
        assert weights.tolist() == [1.0]

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            gauss_hermite_rule(0)

    def test_weights_sum_to_one(self):
        for n in (2, 8, 64, 256):
            _, w = gauss_hermite_rule(n)
            assert np.sum(w) == pytest.approx(1.0, abs=1e-13)

    def test_second_moment(self):
        for n in (2, 8, 32):
            x, w = gauss_hermite_rule(n)
            assert np.sum(w * x * x) == pytest.approx(1.0, abs=1e-12)

    def test_fourth_moment_order_eight(self):
        # Oracle: E Z^4 for the Gaussian by high-resolution trapezoid.
        grid = np.linspace(-12, 12, 200001)
        dens = np.exp(-grid**2 / 2) / np.sqrt(2 * np.pi)
        oracle = np.trapezoid(grid**4 * dens, grid)
        assert oracle == pytest.approx(3.0, abs=1e-10)
        x, w = gauss_hermite_rule(8)
        assert np.sum(w * x**4) == pytest.approx(3.0, abs=1e-12)

    def test_exactness_up_to_degree_2n_minus_1(self):
        # E Z^6 = 15, E Z^8 = 105 need orders >= 4 and >= 5
        x, w = gauss_hermite_rule(5)
        assert np.sum(w * x**8) == pytest.approx(105.0, rel=1e-12)


class TestGaussianExpectation:
    def test_matches_adaptive_quadrature_for_tanh(self):
        for sigma in (0.7, 1.64, 3.4, 9.5):
            got = gaussian_expectation(lambda y: np.tanh(2.0 + y) ** 2, sigma)
            want = gaussian_quad(lambda x: math.tanh(2.0 + sigma * x) ** 2,
                                 -14, 14)
            assert got == pytest.approx(want, abs=1e-12)

    def test_polynomial_moments(self):
        assert gaussian_expectation(lambda y: y**4, 2.0) == pytest.approx(
            3.0 * 16.0, rel=1e-12)

    def test_non_finite_integrand_reported(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(NumericError, match="not finite"):
                gaussian_expectation(lambda y: 1.0 / y, 1.0)


class TestHermiteCoefficients:
    def test_identity_function(self):
        series = hermite_coefficients(lambda x: x, 3, 1.0)
        np.testing.assert_allclose(series.coefficients, [0, 1, 0, 0],
                                   atol=1e-13)

    def test_scaled_square(self):
        # x^2 = H_0 + sqrt(2) H_2, so x^2/sqrt(3) has c_0 = 1/sqrt(3),
        # c_2 = sqrt(2/3); verified against adaptive quadrature.
        series = hermite_coefficients(lambda x: x * x / np.sqrt(3), 4, 1.0)
        want = np.array([1 / np.sqrt(3), 0, np.sqrt(2 / 3), 0, 0])
        np.testing.assert_allclose(series.coefficients, want, atol=1e-12)
        oracle = gaussian_quad(lambda x: (x * x / math.sqrt(3))
                               * (x * x - 1) / math.sqrt(2))
        assert series.coefficients[2] == pytest.approx(oracle, abs=1e-11)

    def test_tanh_constant_term_against_monte_carlo(self):
        # Monte-Carlo oracle at 1e7 samples: its own fluctuation is O(1e-4),
        # so the comparison is at five standard errors, not at the
        # quadrature's accuracy (the two paths must agree statistically).
        theta, sigma = 2.0, 1.0
        series = hermite_coefficients(lambda x: np.tanh(theta + x), 8, sigma)
        z = np.random.default_rng(20240817).standard_normal(10_000_000)
        samples = np.tanh(theta + sigma * z)
        mc = float(np.mean(samples))
        stderr = float(np.std(samples)) / np.sqrt(z.size)
        assert series.coefficients[0] == pytest.approx(mc, abs=5 * stderr)
        # and the quadrature value itself is stable in the order
        hi = hermite_coefficients(lambda x: np.tanh(theta + x), 8, sigma,
                                  order=160)
        again = hermite_coefficients(lambda x: np.tanh(theta + x), 8, sigma,
                                     order=200)
        assert hi.coefficients[0] == pytest.approx(again.coefficients[0],
                                                   abs=1e-12)
        assert series.coefficients[0] == pytest.approx(
            again.coefficients[0], abs=1e-9)

    def test_parseval_for_polynomial(self):
        series = hermite_coefficients(lambda x: x**3 - x, 6, 1.0)
        direct = gaussian_quad(lambda x: (x**3 - x) ** 2)
        assert series.second_moment() == pytest.approx(direct, rel=1e-10)

    def test_non_finite_value_carries_node(self):
        with pytest.raises(NumericError, match="node"):
            hermite_coefficients(lambda x: np.where(x > 2, np.inf, x), 4, 1.0)

    def test_series_shape_invariant(self):
        series = hermite_coefficients(np.tanh, 11, 0.8)
        assert series.max_degree == 11
        assert len(series.coefficients) == 12


class TestBivariateMoment:
    def test_rho_zero_is_product_of_means(self):
        a = hermite_coefficients(lambda x: x * x, 4, 1.0)
        b = hermite_coefficients(lambda x: x + 1, 4, 1.0)
        got = bivariate_gaussian_moment(a, b, 0.0)
        assert got == pytest.approx(a.coefficients[0] * b.coefficients[0],
                                    abs=1e-13)

    def test_rho_one_is_parseval(self):
        a = hermite_coefficients(lambda x: x**2 - x, 6, 1.0)
        assert bivariate_gaussian_moment(a, a, 1.0) == pytest.approx(
            a.second_moment(), rel=1e-12)

    def test_pure_h2_pair(self):
        a = HermiteSeries([0.0, 0.0, 1.0])
        assert bivariate_gaussian_moment(a, a, 0.5) == pytest.approx(0.25,
                                                                     abs=1e-14)
        # 2-D Gauss-Hermite oracle over the correlated pair
        from amplab.state_evolution import cross_moment_quadrature
        h2 = lambda x: (x * x - 1) / np.sqrt(2)
        oracle = cross_moment_quadrature(h2, 1.0, h2, 1.0, 0.5, order=64)
        assert oracle == pytest.approx(0.25, abs=1e-12)

    def test_invalid_correlation(self):
        a = HermiteSeries([1.0])
        with pytest.raises(ValueError):
            bivariate_gaussian_moment(a, a, 1.5)

    def test_matches_two_dimensional_quadrature(self):
        # The identity sum a_k b_k rho^k against direct 2-D quadrature for
        # polynomial pairs of degree <= 6.
        from amplab.state_evolution import cross_moment_quadrature
        f = lambda x: x**3 - 2 * x
        g = lambda x: x**2 + x
        a = hermite_coefficients(f, 6, 1.0)
        b = hermite_coefficients(g, 6, 1.0)
        for rho in (-0.8, -0.3, 0.2, 0.9):
            want = cross_moment_quadrature(f, 1.0, g, 1.0, rho, order=96)
            assert bivariate_gaussian_moment(a, b, rho) == pytest.approx(
                want, abs=1e-9)


class TestGeneratingIdentity:
    def test_two_dimensional_expansion(self):
        # H_q(<u, x>) = sum_{|a|_1 = q} sqrt(q!/(a1! a2!)) u^a H_a1(x1) H_a2(x2)
        # for unit u, checked at 100 random points for q <= 3.
        rng = np.random.default_rng(7)
        for q in (1, 2, 3):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            x = rng.standard_normal((100, 2))
            direct = hermite_eval(q, x @ u)
            expanded = np.zeros(100)
            for a1 in range(q + 1):
                a2 = q - a1
                coeff = math.sqrt(math.factorial(q)
                                  / (math.factorial(a1) * math.factorial(a2)))
                expanded += (coeff * u[0]**a1 * u[1]**a2
                             * hermite_eval(a1, x[:, 0])
                             * hermite_eval(a2, x[:, 1]))
            np.testing.assert_allclose(direct, expanded, atol=1e-9)
