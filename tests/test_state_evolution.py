import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from amplab import hermite
from amplab.hermite import gaussian_expectation
from amplab.spectral import SpectralLaw
from amplab.state_evolution import (Nonlinearity, center_divergence_free,
                                    linear_coefficient, preset_nonlinearity,
                                    run_state_evolution)
from amplab.tap import g_nonlinearity, solve_q_star

SQUARE = preset_nonlinearity("square")


def gauss_rule(order):
    """Gauss nodes and weights for E[f(Z)], Z ~ N(0, 1): numpy's He rule."""
    x, w = hermegauss(order)
    return x, w / math.sqrt(2 * math.pi)


def product_rule_moment(f, sigma_f, g, sigma_g, r, order=128):
    """E[f(sigma_f X) g(sigma_g Y)] by a product Gauss rule, Y = rX + sW."""
    x, w = gauss_rule(order)
    y = r * x[:, None] + math.sqrt(max(0.0, 1.0 - r * r)) * x[None, :]
    return float(w @ (f(sigma_f * x)[:, None] * g(sigma_g * y)) @ w)


def product_rule_prediction(nonlins, sigma0_sq, sigma_psi_sq, T, order):
    """The recursion again, every expectation on Gauss rules of ``order``."""
    x, w = gauss_rule(order)
    cov = np.zeros((T + 1, T + 1))
    cov[0, 0] = sigma0_sq
    fbars = []
    for t in range(T):
        sig_t = math.sqrt(cov[t, t])
        fbars.append(center_divergence_free(nonlins[t], sig_t))
        cov[t + 1, t + 1] = sigma_psi_sq * float(
            w @ fbars[t].eval(sig_t * x) ** 2)
        for s in range(1, t + 1):
            sig_s = math.sqrt(cov[s - 1, s - 1])
            cov[s, t + 1] = cov[t + 1, s] = sigma_psi_sq * product_rule_moment(
                fbars[s - 1].eval, sig_s, fbars[t].eval, sig_t,
                cov[s - 1, t] / (sig_s * sig_t), order)
    diag = np.diag(cov)
    return diag[1:] + diag[:-1] - 2.0 * np.diag(cov, 1)


def stationary_case(name):
    """A preset with sigma_psi^2 = 1 / E[fbar^2]: unit variance is stationary."""
    nonlin = preset_nonlinearity(name)
    fbar = center_divergence_free(nonlin, 1.0)
    spsi = 1.0 / gaussian_expectation(lambda y: fbar.eval(y) ** 2, 1.0)
    return [nonlin] * 10, 1.0, spsi


def tap_case(beta):
    params = solve_q_star(beta, 2.0, SpectralLaw.rademacher())
    return ([g_nonlinearity(params)] * 10, params.sigma_star_sq,
            params.sigma_psi_sq)


class TestCentering:
    def test_identity_projects_to_zero(self):
        f = Nonlinearity(lambda x: x, "id")
        for sigma in (0.5, 1.0, 3.0):
            fbar = center_divergence_free(f, sigma)
            x = np.linspace(-4, 4, 9)
            np.testing.assert_allclose(fbar.eval(x), 0.0, atol=1e-12)

    def test_even_function_unchanged(self):
        fbar = center_divergence_free(SQUARE, 1.0)
        x = np.linspace(-4, 4, 9)
        np.testing.assert_allclose(fbar.eval(x), SQUARE.eval(x), atol=1e-13)

    def test_centered_tanh_is_divergence_free(self):
        f = Nonlinearity(np.tanh, "tanh")
        for sigma in (0.6, 1.3, 2.8):
            fbar = center_divergence_free(f, sigma)
            resid = gaussian_expectation(lambda y: (y / sigma) * fbar.eval(y),
                                         sigma)
            assert abs(resid) <= 1e-10

    def test_tap_g_already_divergence_free(self):
        params = solve_q_star(2.0, 2.0, SpectralLaw.rademacher())
        g = g_nonlinearity(params)
        sigma = np.sqrt(params.sigma_star_sq)
        assert abs(linear_coefficient(g, sigma) * sigma) <= 1e-8


class TestRecursion:
    def test_normalized_fixed_point(self):
        # divergence-free with E f^2(Z) = 1 at unit scale keeps sigma = 1
        se = run_state_evolution([SQUARE] * 8, 1.0, 1.0, 8)
        np.testing.assert_allclose(se.sigma_sq, 1.0, atol=1e-12)

    def test_rho_zero_row(self):
        se = run_state_evolution([SQUARE] * 5, 1.0, 1.0, 5)
        for t in range(1, 6):
            assert se.cov[0, t] == 0.0

    def test_tap_constant_variance(self):
        # deep pipeline identity: sigma_psi^2 E[g^2(sigma* Z)] = sigma*^2
        for beta in (2.0, 4.0, 10.0):
            params = solve_q_star(beta, 2.0, SpectralLaw.rademacher())
            g = g_nonlinearity(params)
            se = run_state_evolution([g] * 10, params.sigma_star_sq,
                                     params.sigma_psi_sq, 10)
            np.testing.assert_allclose(se.sigma_sq, params.sigma_star_sq,
                                       atol=1e-6)

    def test_single_step_matches_direct_quadrature(self):
        # T = 1 with an even polynomial; oracle is a one-dimensional Gauss
        # rule, bypassing both the trapezoid grid and the Hermite series
        h2 = Nonlinearity(lambda x: (x * x - 1.0) / np.sqrt(2.0), "h2")
        sigma0_sq, spsi = 1.7, 0.9
        se = run_state_evolution([h2], sigma0_sq, spsi, 1)
        x, w = gauss_rule(80)
        scaled = h2.eval(np.sqrt(sigma0_sq) * x)
        oracle = spsi * float(np.sum(w * scaled * scaled))
        assert se.sigma_sq[1] == pytest.approx(oracle, abs=1e-9)

    def test_cross_moments_match_two_dimensional_quadrature(self):
        # recompute each rho_{s,t} by quadrature over the correlated pair;
        # sigma_psi^2 is chosen to make unit variance stationary, otherwise
        # centered tanh contracts toward the degenerate linear regime
        f = preset_nonlinearity("tanh-centered")
        fbar0 = center_divergence_free(f, 1.0)
        spsi = 1.0 / gaussian_expectation(lambda y: fbar0.eval(y) ** 2, 1.0)
        se = run_state_evolution([f] * 5, 1.0, spsi, 5)
        sig = np.sqrt(se.sigma_sq)
        for s, t in zip(*np.triu_indices(se.T + 1, 1)):
            if s == 0:
                continue
            value = se.cov[s, t]
            r = se.cov[s - 1, t - 1] / (sig[s - 1] * sig[t - 1])
            fbar_s = center_divergence_free(f, sig[s - 1])
            fbar_t = center_divergence_free(f, sig[t - 1])
            oracle = se.sigma_psi_sq * product_rule_moment(
                fbar_s.eval, sig[s - 1], fbar_t.eval, sig[t - 1], r)
            assert value == pytest.approx(oracle, abs=1e-8), (s, t)

    def test_covariance_psd(self):
        # each sigma_psi^2 makes unit variance stationary for its
        # nonlinearity (1/E[fbar^2] at unit scale); smaller values collapse
        # the recursion to the trivial fixed point
        for name in ("square", "tanh-centered", "cubic-centered"):
            nonlins, sigma0_sq, spsi = stationary_case(name)
            se = run_state_evolution(nonlins, sigma0_sq, spsi, 8)
            assert not se.degenerate
            eig = np.linalg.eigvalsh(se.cov)
            assert eig[0] >= -1e-10

    def test_succ_diff_prediction_shape(self):
        se = run_state_evolution([SQUARE] * 6, 1.0, 1.0, 6)
        d = se.succ_diff_prediction()
        assert d.shape == (6,)
        # with sigma_t = 1 and rho_{0,1} = 0, d_1 = 2
        assert d[0] == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_linear_nonlinearity_flagged(self):
        linear = Nonlinearity(lambda x: 2.0 * x, "linear")
        with pytest.warns(UserWarning, match="degenerate"):
            se = run_state_evolution([linear, SQUARE, SQUARE], 1.0, 1.0, 3)
        assert se.degenerate
        assert se.sigma_sq[1] == 0.0
        assert se.sigma_sq[3] == 0.0

    def test_covariance_is_one_read_only_matrix(self):
        # a degenerate third step leaves every later row and column zero
        linear = Nonlinearity(lambda x: 2.0 * x, "linear")
        with pytest.warns(UserWarning, match="degenerate at step 3"):
            se = run_state_evolution([SQUARE, SQUARE, linear, SQUARE],
                                     1.0, 1.0, 4)
        assert se.T == 4 and se.cov.shape == (5, 5)
        np.testing.assert_array_equal(se.cov, se.cov.T)
        np.testing.assert_array_equal(se.sigma_sq, np.diag(se.cov))
        assert np.all(se.cov[3:] == 0.0) and se.cov[2, 2] > 0.0
        assert len(se.centered) == 3
        with pytest.raises(ValueError):
            se.cov[0, 0] = 2.0
        with pytest.raises(ValueError):
            se.sigma_sq[0] = 2.0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_state_evolution([SQUARE], 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            run_state_evolution([SQUARE], 1.0, 1.0, 2)

    def test_tap_prediction_against_an_order_200_gauss_oracle(self):
        # beta = theta = 2 on the Rademacher law: d_10 = 8.6577e-6, which a
        # Hermite series cut at degree 64 put 0.8% high
        case = tap_case(2.0)
        d = run_state_evolution(*case, 10).succ_diff_prediction()
        oracle = product_rule_prediction(*case, 10, order=200)
        assert d[-1] == pytest.approx(8.6577e-6, rel=1e-4)
        np.testing.assert_allclose(d, oracle, rtol=1e-6)

    @pytest.mark.parametrize("case", [
        *(pytest.param(lambda b=b: tap_case(b), id=f"tap-beta{b:g}")
          for b in (2.0, 4.0, 10.0)),
        *(pytest.param(lambda n=n: stationary_case(n), id=n)
          for n in ("square", "tanh-centered", "cubic-centered"))])
    def test_pair_rule_converged_in_its_step(self, case, monkeypatch):
        nonlins, sigma0_sq, spsi = case()
        d = run_state_evolution(nonlins, sigma0_sq, spsi, 10)
        monkeypatch.setattr(hermite, "PAIR_STEP", hermite.PAIR_STEP / 2)
        finer = run_state_evolution(nonlins, sigma0_sq, spsi, 10)
        np.testing.assert_allclose(d.succ_diff_prediction(),
                                   finer.succ_diff_prediction(), rtol=1e-7)
        assert np.array_equal(d.sigma_sq, finer.sigma_sq)


class TestPresets:
    def test_square_normalization(self):
        # E f^2(Z) = 1 for the square preset at unit scale
        val = gaussian_expectation(lambda x: SQUARE.eval(x) ** 2, 1.0)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_cubic_normalization(self):
        cubic = preset_nonlinearity("cubic-centered")
        val = gaussian_expectation(lambda x: cubic.eval(x) ** 2, 1.0)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            preset_nonlinearity("mystery")
