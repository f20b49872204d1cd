import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.integrate import quad

from amplab.errors import NumericError
from amplab.hermite import (gaussian_cross_moment, gaussian_expectation,
                            hermite_eval, hermite_sequence)


def gaussian_quad(f, lo=-12.0, hi=12.0):
    """Independent oracle: adaptive quadrature against the N(0,1) density."""
    val, _ = quad(lambda x: f(x) * math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
                  lo, hi, epsabs=1e-13, epsrel=1e-13, limit=300)
    return val


def gauss_rule(order):
    """Gauss nodes and weights for E[f(Z)], Z ~ N(0, 1): numpy's He rule."""
    x, w = hermegauss(order)
    return x, w / math.sqrt(2 * math.pi)


def product_rule_moment(f, sigma_f, g, sigma_g, r, order=96):
    """E[f(sigma_f X) g(sigma_g Y)] by a product Gauss rule, Y = rX + sW."""
    x, w = gauss_rule(order)
    y = r * x[:, None] + math.sqrt(max(0.0, 1.0 - r * r)) * x[None, :]
    return float(w @ (f(sigma_f * x)[:, None] * g(sigma_g * y)) @ w)


def coefficients(f, degree, sigma):
    """c_k = E[H_k(Z) f(sigma Z)], k <= degree, on the dense grid."""
    return np.array([gaussian_expectation(
        lambda y: hermite_eval(k, y / sigma) * f(y), sigma)
        for k in range(degree + 1)])


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
        # a yielded value lives in a reused buffer: keep copies
        seq = [h.copy() for h in hermite_sequence(10, x)]
        assert len(seq) == 11
        for k in range(11):
            assert np.array_equal(hermite_eval(k, x), seq[k])

    def test_a_yielded_value_holds_until_two_more_are_computed(self):
        x = np.random.default_rng(1).standard_normal(257)
        table = [hermite_eval(k, x) for k in range(13)]
        window = []
        for k, h in enumerate(hermite_sequence(12, x)):
            window = [*window[-1:], (k, h)]
            for j, kept in window:  # H_{k-1} and H_k
                assert np.array_equal(kept, table[j])

    def test_eval_returns_a_new_array(self):
        x = np.linspace(-1.0, 1.0, 5)
        hermite_eval(1, x)[:] = 0.0
        assert x[0] == -1.0

    def test_orthonormality_by_quadrature(self):
        x, w = gauss_rule(64)
        table = np.array([hermite_eval(k, x) for k in range(9)])
        gram = (table * w) @ table.T
        np.testing.assert_allclose(gram, np.eye(9), atol=1e-10)


class TestGaussHermiteRule:
    # the Gauss oracle of the test suite: numpy's He rule scaled to N(0, 1)

    def test_order_one(self):
        nodes, weights = gauss_rule(1)
        assert nodes.tolist() == [0.0]
        assert weights.tolist() == [1.0]

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            gauss_rule(0)

    def test_weights_sum_to_one(self):
        for n in (2, 8, 64, 256):
            _, w = gauss_rule(n)
            assert np.sum(w) == pytest.approx(1.0, abs=1e-13)

    def test_second_moment(self):
        for n in (2, 8, 32):
            x, w = gauss_rule(n)
            assert np.sum(w * x * x) == pytest.approx(1.0, abs=1e-12)

    def test_fourth_moment_order_eight(self):
        # Oracle: E Z^4 for the Gaussian by high-resolution trapezoid.
        grid = np.linspace(-12, 12, 200001)
        dens = np.exp(-grid**2 / 2) / np.sqrt(2 * np.pi)
        oracle = np.trapezoid(grid**4 * dens, grid)
        assert oracle == pytest.approx(3.0, abs=1e-10)
        x, w = gauss_rule(8)
        assert np.sum(w * x**4) == pytest.approx(3.0, abs=1e-12)

    def test_exactness_up_to_degree_2n_minus_1(self):
        # E Z^6 = 15, E Z^8 = 105 need orders >= 4 and >= 5
        x, w = gauss_rule(5)
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

    def test_non_finite_node_named_as_a_plain_float(self):
        with pytest.raises(NumericError) as info:
            gaussian_expectation(lambda y: np.where(y < 0, np.nan, y), 1.0)
        assert str(info.value) == "integrand not finite at node -16.0"


class TestHermiteCoefficients:
    # c_k = E[H_k(Z) f(sigma Z)] from hermite_eval on the dense grid: the
    # coefficients the empirical Hermite moments of the report estimate

    def test_identity_function(self):
        np.testing.assert_allclose(coefficients(lambda x: x, 3, 1.0),
                                   [0, 1, 0, 0], atol=1e-13)

    def test_scaled_square(self):
        # x^2 = H_0 + sqrt(2) H_2, so x^2/sqrt(3) has c_0 = 1/sqrt(3),
        # c_2 = sqrt(2/3); verified against adaptive quadrature.
        got = coefficients(lambda x: x * x / np.sqrt(3), 4, 1.0)
        want = np.array([1 / np.sqrt(3), 0, np.sqrt(2 / 3), 0, 0])
        np.testing.assert_allclose(got, want, atol=1e-12)
        oracle = gaussian_quad(lambda x: (x * x / math.sqrt(3))
                               * (x * x - 1) / math.sqrt(2))
        assert got[2] == pytest.approx(oracle, abs=1e-11)

    def test_tanh_constant_term_against_monte_carlo(self):
        # Monte-Carlo oracle at 1e7 samples: its own fluctuation is O(1e-4),
        # so the comparison is at five standard errors, not at the
        # quadrature's accuracy (the two paths must agree statistically).
        theta, sigma = 2.0, 1.0
        c0 = coefficients(lambda x: np.tanh(theta + x), 0, sigma)[0]
        z = np.random.default_rng(20240817).standard_normal(10_000_000)
        samples = np.tanh(theta + sigma * z)
        mc = float(np.mean(samples))
        stderr = float(np.std(samples)) / np.sqrt(z.size)
        assert c0 == pytest.approx(mc, abs=5 * stderr)
        # and a Gauss rule of high order agrees with the grid
        x, w = gauss_rule(200)
        assert c0 == pytest.approx(float(w @ np.tanh(theta + sigma * x)),
                                   abs=1e-9)

    def test_parseval_for_polynomial(self):
        c = coefficients(lambda x: x**3 - x, 6, 1.0)
        direct = gaussian_quad(lambda x: (x**3 - x) ** 2)
        assert float(c @ c) == pytest.approx(direct, rel=1e-10)

    def test_non_finite_value_carries_node(self):
        with pytest.raises(NumericError, match="node"):
            coefficients(lambda x: np.where(x > 2, np.inf, x), 4, 1.0)


class TestBivariateMoment:
    # gaussian_cross_moment: one fixed pair grid for every correlation

    def test_rho_zero_is_product_of_means(self):
        f, g = (lambda x: x * x), (lambda x: x + 1)
        got = gaussian_cross_moment(f, 1.3, g, 0.7, 0.0)
        want = gaussian_expectation(f, 1.3) * gaussian_expectation(g, 0.7)
        assert got == pytest.approx(want, abs=1e-13)

    def test_rho_one_is_parseval(self):
        f = lambda x: np.tanh(2.0 + x)
        got = gaussian_cross_moment(f, 1.4, f, 1.4, 1.0)
        want = gaussian_expectation(lambda y: f(y) ** 2, 1.4)
        assert got == pytest.approx(want, rel=1e-13)

    def test_pure_h2_pair(self):
        h2 = lambda x: (x * x - 1) / np.sqrt(2)
        assert gaussian_cross_moment(h2, 1.0, h2, 1.0, 0.5) == pytest.approx(
            0.25, abs=1e-13)
        assert product_rule_moment(h2, 1.0, h2, 1.0, 0.5) == pytest.approx(
            0.25, abs=1e-12)

    def test_invalid_correlation(self):
        with pytest.raises(ValueError, match="correlation"):
            gaussian_cross_moment(np.tanh, 1.0, np.tanh, 1.0, 1.5)

    def test_matches_two_dimensional_quadrature(self):
        # against a product Gauss rule over the correlated pair, for
        # polynomial pairs of degree <= 6 and for tanh at unequal scales
        pairs = [(lambda x: x**3 - 2 * x, lambda x: x**2 + x, 1e-10),
                 (lambda x: np.tanh(2.0 + x), lambda x: np.tanh(1.0 - x),
                  1e-10)]
        for f, g, tol in pairs:
            for rho in (-0.8, -0.3, 0.2, 0.9):
                want = product_rule_moment(f, 1.2, g, 0.8, rho, order=160)
                assert gaussian_cross_moment(f, 1.2, g, 0.8, rho) \
                    == pytest.approx(want, abs=tol)

    @pytest.mark.parametrize("r", [-1.0, -0.5, 0.0, 0.9, 1.0 - 1e-6, 1.0])
    def test_hermite_pairs_give_powers_of_r(self, r):
        # E[H_j(X) H_k(Y)] = delta_jk r^k, with the scales undone inside f, g
        s1, s2 = 1.7, 0.4
        for j in range(5):
            for k in range(5):
                got = gaussian_cross_moment(
                    lambda x: hermite_eval(j, x / s1), s1,
                    lambda y: hermite_eval(k, y / s2), s2, r)
                assert got == pytest.approx(r ** k if j == k else 0.0,
                                            abs=1e-11), (j, k)

    def test_non_finite_moment_reported(self):
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="not finite"):
                gaussian_cross_moment(lambda x: np.where(x > 2, np.inf, x),
                                      1.0, np.tanh, 1.0, 0.3)


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
