import numpy as np
import pytest
from scipy.integrate import quad

from amplab.cli import _build_parser
from amplab.ensembles import ENSEMBLES, hutchinson_trace_square
from amplab.errors import ConvergenceError
from amplab.hermite import gaussian_expectation
from amplab.rng import rademacher, substream
from amplab.spectral import SpectralLaw, resolvent_variance
from amplab.tap import (build_coupling, ensemble_law, g_nonlinearity,
                        gauge_conjugate, resolvent_operator,
                        run_field_iteration, run_tap_amp, solve_q_star)

RADEMACHER = SpectralLaw.rademacher()


def tanh_sq_expectation_quad(theta, sigma):
    """Independent oracle: adaptive quadrature for E tanh^2(theta + sigma G)."""
    if sigma == 0.0:
        return np.tanh(theta) ** 2
    val, _ = quad(lambda x: np.tanh(theta + sigma * x) ** 2
                  * np.exp(-x * x / 2) / np.sqrt(2 * np.pi),
                  -14, 14, epsabs=1e-13, epsrel=1e-13, limit=400)
    return val


class TestSolveQStar:
    def test_zero_field_fixed_point(self):
        params = solve_q_star(1.5, 0.0, RADEMACHER)
        assert params.q_star == pytest.approx(0.0, abs=1e-10)
        assert params.sigma_star_sq == pytest.approx(0.0, abs=1e-10)
        assert params.sigma_psi_sq > 0  # resolvent-variance fallback
        assert params.lambda_star > 1.0

    @pytest.mark.parametrize("beta", [2.0, 4.0, 10.0])
    def test_self_consistency_against_adaptive_quadrature(self, beta):
        params = solve_q_star(beta, 2.0, RADEMACHER)
        oracle = tanh_sq_expectation_quad(2.0, np.sqrt(params.sigma_star_sq))
        assert abs(params.q_star - oracle) <= 1e-10

    def test_self_consistency_gauss_rule_256(self):
        from amplab.hermite import gauss_hermite_rule
        params = solve_q_star(2.0, 2.0, RADEMACHER)
        x, w = gauss_hermite_rule(256)
        est = float(np.sum(w * np.tanh(2.0 + np.sqrt(params.sigma_star_sq)
                                       * x) ** 2))
        assert abs(params.q_star - est) <= 1e-10

    def test_lambda_star_above_edge(self):
        for beta, theta in ((0.5, 0.5), (2.0, 2.0), (10.0, 2.0)):
            params = solve_q_star(beta, theta, RADEMACHER)
            assert params.lambda_star > 1.0

    def test_sigma_psi_matches_resolvent_form(self):
        # the closed-form algebra from (beta, q*, sigma*^2) agrees with
        # -G'(lambda*) - G(lambda*)^2: two independent derivations
        for beta in (2.0, 4.0, 10.0):
            params = solve_q_star(beta, 2.0, RADEMACHER)
            other = resolvent_variance(RADEMACHER, params.lambda_star)
            assert params.sigma_psi_sq == pytest.approx(other, rel=1e-9)

    def test_semicircle_high_temperature(self):
        params = solve_q_star(0.5, 1.0, SpectralLaw.semicircle())
        assert 0.0 < params.q_star < 1.0
        assert params.lambda_star > 2.0

    @pytest.mark.parametrize("law", [
        pytest.param(RADEMACHER, id="rademacher"),
        pytest.param(SpectralLaw.semicircle(), id="semicircle"),
        pytest.param(SpectralLaw.marchenko_pastur(1.0), id="mp"),
    ])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 2.5, 4.0])
    def test_converges_above_the_edge(self, law, beta):
        # the start q = 0.5 leaves the domain beta (1 - q) < sup G of the
        # semicircle at beta >= 2 and of the MP law at beta >= 1
        params = solve_q_star(beta, 2.0, law)
        assert params.lambda_star > law.lambda_plus

    def test_no_admissible_fixed_point_raises(self):
        # without a field the overlap map of the MP law points below the
        # domain's lower end 1 - sup G / beta everywhere inside it
        with pytest.raises(ConvergenceError, match="sup G"):
            solve_q_star(0.5, 0.0, SpectralLaw.marchenko_pastur(1.0))

    def test_zero_field_fixed_point_inside_the_domain(self):
        # at beta = 1 the MP overlap equation has a root with
        # beta (1 - q*) < sup G = 1/2, so lambda* lies above the edge 4
        params = solve_q_star(1.0, 0.0, SpectralLaw.marchenko_pastur(1.0))
        assert params.lambda_star > 4.0
        oracle = tanh_sq_expectation_quad(0.0, np.sqrt(params.sigma_star_sq))
        assert abs(params.q_star - oracle) <= 1e-10


class TestGNonlinearity:
    @pytest.mark.parametrize("beta", [2.0, 4.0, 10.0])
    def test_divergence_free(self, beta):
        params = solve_q_star(beta, 2.0, RADEMACHER)
        g = g_nonlinearity(params)
        sigma = np.sqrt(params.sigma_star_sq)
        resid = gaussian_expectation(lambda z: (z / sigma) * g.eval(z), sigma)
        assert abs(resid) <= 1e-8

    @pytest.mark.parametrize("beta", [2.0, 4.0, 10.0])
    def test_constant_variance_identity(self, beta):
        params = solve_q_star(beta, 2.0, RADEMACHER)
        g = g_nonlinearity(params)
        sigma = np.sqrt(params.sigma_star_sq)
        val = params.sigma_psi_sq * gaussian_expectation(
            lambda z: g.eval(z) ** 2, sigma)
        assert val == pytest.approx(params.sigma_star_sq, abs=1e-6)

    def test_value_at_origin(self):
        params = solve_q_star(2.0, 2.0, RADEMACHER)
        g = g_nonlinearity(params)
        q, beta, theta = params.q_star, params.beta, params.theta
        want = np.tanh(theta) / ((1 - q) * (beta - beta * q))
        assert g.eval(0.0) == pytest.approx(want, rel=1e-12)


class TestRunTapAmp:
    def test_magnetization_strictly_inside_cube(self):
        result = run_tap_amp("signed-sine", 2.0, 2.0, 512, 5, seed=1)
        for m in result.magnetization:
            assert np.all(np.abs(m) < 1.0)

    def test_residual_decreases_from_first_step(self):
        # seed-averaged trend: the iteration approaches a TAP solution
        first, last = 0.0, 0.0
        for seed in range(1, 9):
            result = run_tap_amp("signed-sine", 2.0, 2.0, 1024, 10, seed=seed)
            first += result.tap_residual[1]
            last += result.tap_residual[10]
        assert last <= first

    def test_involution_and_cg_paths_agree(self):
        params = solve_q_star(2.0, 2.0, RADEMACHER)
        coupling = build_coupling("signed-hadamard", 1024, seed=2)
        fast = resolvent_operator(coupling, params)
        from amplab.ensembles import centered_resolvent
        slow = centered_resolvent(coupling, params.lambda_star,
                                  params.sigma_psi_sq)
        v = substream(3, "test").standard_normal(1024)
        np.testing.assert_allclose(fast.matvec(v), slow.matvec(v), atol=1e-8)

    def test_sigma_psi_consistency_hutchinson(self):
        # (1/N) Tr M(lambda*)^2 within 5% of the solved constant
        params = solve_q_star(2.0, 2.0, RADEMACHER)
        coupling = build_coupling("signed-sine", 2048, seed=4)
        m_op = resolvent_operator(coupling, params)
        est = hutchinson_trace_square(m_op, probes=64) / coupling.dim
        assert est == pytest.approx(params.sigma_psi_sq, rel=0.05)

    def test_sk_small_run(self):
        params = solve_q_star(0.8, 1.0, SpectralLaw.semicircle())
        result = run_tap_amp("sk", 0.8, 1.0, 256, 3, seed=5, params=params)
        assert result.trace.T == 3
        assert np.all(np.abs(result.magnetization[-1]) < 1.0)

    def test_hopfield_small_run(self):
        law = SpectralLaw.marchenko_pastur(1.0)
        params = solve_q_star(0.6, 1.0, law)
        result = run_tap_amp("hopfield", 0.6, 1.0, 256, 3, seed=6,
                             params=params)
        assert result.trace.T == 3
        assert np.all(np.abs(result.magnetization[-1]) < 1.0)

    def test_unknown_ensemble(self):
        with pytest.raises(ValueError, match="ensemble"):
            ensemble_law("mystery")


class TestEnsembleTable:
    @pytest.mark.parametrize("name", list(ENSEMBLES))
    def test_entry_builds_and_has_a_law(self, name):
        op = build_coupling(name, 64, seed=1)
        law = ensemble_law(name)
        assert op.dim == 64
        assert isinstance(law, SpectralLaw)

    def test_keys_are_the_tap_choices(self):
        sub = _build_parser()._subparsers._group_actions[0].choices["tap"]
        action = next(a for a in sub._actions if a.dest == "ensemble")
        assert tuple(action.choices) == tuple(ENSEMBLES)


class TestGaugeTransform:
    def test_all_ones_field_is_identity(self):
        j = build_coupling("signed-sine", 256, seed=1)
        gauged = gauge_conjugate(j, np.ones(256))
        v = substream(7, "test").standard_normal(256)
        np.testing.assert_array_equal(gauged.matvec(v), j.matvec(v))

    def test_gauged_involution_keeps_closed_form_resolvent(self):
        params = solve_q_star(2.0, 2.0, RADEMACHER)
        j = build_coupling("signed-sine", 512, seed=3)
        h = rademacher(substream(11, "field"), 512)
        v = substream(13, "v").standard_normal(512)
        gauged = resolvent_operator(gauge_conjugate(j, h), params)
        plain = resolvent_operator(j, params)
        np.testing.assert_array_equal(gauged.matvec(v),
                                      h * plain.matvec(h * v))

    def test_non_sign_entries_rejected(self):
        j = build_coupling("signed-sine", 64, seed=2)
        with pytest.raises(ValueError, match="entries"):
            gauge_conjugate(j, np.full(64, 0.5))

    def test_full_pipeline_identity(self):
        # diag(h) z^t(Jbar, 1) = z^t(J, h) entrywise at N = 512, T = 5
        n, t_max = 512, 5
        params = solve_q_star(2.0, 2.0, RADEMACHER)
        j = build_coupling("signed-sine", n, seed=3)
        h = rademacher(substream(11, "field"), n)
        jbar = gauge_conjugate(j, h)
        zbar0 = substream(12, "z0").normal(
            0.0, np.sqrt(params.sigma_star_sq), n)
        z0 = h * zbar0
        zs = run_field_iteration(j, h, params, t_max, z0)
        zbars = run_field_iteration(jbar, np.ones(n), params, t_max, zbar0)
        for t in range(t_max + 1):
            np.testing.assert_allclose(zs[t], h * zbars[t], atol=1e-12)

    def test_overlap_observable_identity_and_scale(self):
        # phi(z; h) = h z: the gauged average equals the plain average
        # exactly, and its magnitude is CLT-small across seeds
        n, t_max = 512, 4
        params = solve_q_star(2.0, 2.0, RADEMACHER)
        overlaps = []
        for seed in range(1, 9):
            j = build_coupling("signed-sine", n, seed=seed)
            h = rademacher(substream(100 + seed, "field"), n)
            jbar = gauge_conjugate(j, h)
            zbar0 = substream(200 + seed, "z0").normal(
                0.0, np.sqrt(params.sigma_star_sq), n)
            zs = run_field_iteration(j, h, params, t_max, h * zbar0)
            zbars = run_field_iteration(jbar, np.ones(n), params, t_max,
                                        zbar0)
            lhs = float(np.mean(h * zs[t_max]))
            rhs = float(np.mean(zbars[t_max]))
            assert lhs == pytest.approx(rhs, abs=1e-14)
            overlaps.append(lhs)
        bound = 5.0 * np.sqrt(params.sigma_star_sq) / np.sqrt(n)
        assert np.mean(np.abs(overlaps)) <= bound
