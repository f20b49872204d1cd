import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from amplab.amp import keep_iterates, run_amp
from amplab.cli import _build_parser
from amplab import tap
from amplab.ensembles import (ENSEMBLES, TAP_ENSEMBLES, MatrixOperator,
                              build_sign_perm, dense_form, fwht,
                              involution_resolvent)
from amplab.errors import ConvergenceError, NumericError
from amplab.hermite import gaussian_expectation
from amplab.metrics import observable_row
from amplab.rng import rademacher, substream
from amplab.spectral import SpectralLaw, r_transform, resolvent_variance
from amplab.tap import (build_coupling, ensemble_law, g_nonlinearity,
                        gauge_conjugate, resolvent_operator, run_tap_amp,
                        solve_q_star, tap_residual)

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
        from numpy.polynomial.hermite_e import hermegauss
        params = solve_q_star(2.0, 2.0, RADEMACHER)
        x, w = hermegauss(256)
        est = float(np.sum(w * np.tanh(2.0 + np.sqrt(params.sigma_star_sq)
                                       * x) ** 2)) / np.sqrt(2 * np.pi)
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

    @pytest.mark.parametrize("law", [
        pytest.param(RADEMACHER, id="rademacher"),
        pytest.param(SpectralLaw.semicircle(), id="semicircle"),
        pytest.param(SpectralLaw.marchenko_pastur(2.0), id="mp"),
    ])
    @pytest.mark.parametrize("beta", [1e-3, 5e-4, 1e-4, 1e-8])
    def test_small_beta_keeps_the_closed_form(self, law, beta):
        # R'(y) = 1 + O(y) for these laws, and exactly 1 for the
        # semicircle: 1/G'(z) + 1/y^2 cancelled to 1.0012 at beta = 1e-3,
        # and failed outright below
        params = solve_q_star(beta, 1.0, law)
        y = beta * (1.0 - params.q_star)
        assert params.sigma_star_sq == pytest.approx(
            beta * beta * params.q_star, rel=1e-12 if law.kind ==
            "semicircle" else 4 * y)
        assert params.lambda_star == 1.0 / y + r_transform(law, y)[0]
        oracle = tanh_sq_expectation_quad(1.0, np.sqrt(params.sigma_star_sq))
        assert abs(params.q_star - oracle) <= 1e-10

    @pytest.mark.parametrize("beta", [1e6, 1e7, 3e7, 1e8, 1e12])
    def test_large_beta_rademacher_converges(self, beta):
        # R'(y) = 2/(s(1+s)) keeps its digits as y = beta (1 - q) grows; the
        # cancelling form missed Q_STAR_TOL at 1e6 and stalled from 1e7
        params = solve_q_star(beta, 1.0, RADEMACHER)
        assert params.iterations < 100
        assert params.residual <= 1e-12
        oracle = tanh_sq_expectation_quad(1.0, np.sqrt(params.sigma_star_sq))
        assert abs(params.q_star - oracle) <= 1e-10

    def test_empirical_rule_cancelling_names_beta(self):
        law = SpectralLaw.empirical([-1.0, 0.5, 1.0])
        assert solve_q_star(0.5, 1.0, law).sigma_star_sq > 0
        with pytest.raises(NumericError, match=r"at beta = 1e-06: .* cancels"):
            solve_q_star(1e-6, 1.0, law)

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


def test_g_fwht_and_resolvent_leave_their_inputs_unchanged():
    # each writes its result over a new array of its own; 2^17 entries
    # take fwht through more than one chunk per phase
    n = 2 ** 17
    params = solve_q_star(2.0, 2.0, RADEMACHER)
    h = rademacher(substream(1, "field"), n)
    resolvent = resolvent_operator(build_coupling("signed-hadamard", n, 1),
                                   params)
    rng = np.random.default_rng(13)
    v, block = rng.standard_normal(n), rng.standard_normal((n, 2))
    for apply, x in ((g_nonlinearity(params).eval, v),
                     (g_nonlinearity(params, h).eval, v),
                     (fwht, v), (fwht, block),
                     (resolvent.matvec, v), (resolvent.matvec, block)):
        before = x.copy()
        out = apply(x)
        assert not np.shares_memory(out, x)
        assert np.array_equal(x, before)


def magnetization(trace, params, t):
    """m^t of a run that kept its iterates (``observe=keep_iterates``)."""
    return np.tanh(params.theta + (trace.steps + trace.iterates)[t])


def field_iterates(coupling, h, params, T, z0):
    """z^0..z^T of the TAP iteration on J with a +/-1 field vector h."""
    trace = run_amp(resolvent_operator(coupling, params),
                    [g_nonlinearity(params, h)] * T, z0, T,
                    observe=keep_iterates)
    return trace.steps + trace.iterates


class TestRunTapAmp:
    def test_magnetization_strictly_inside_cube(self):
        params = solve_q_star(2.0, 2.0, RADEMACHER)
        trace, _ = run_tap_amp("signed-sine", params, 512, 5, seed=1,
                               observe=keep_iterates)
        for t in range(trace.T + 1):
            assert np.all(np.abs(magnetization(trace, params, t)) < 1.0)

    def test_residual_decreases_from_first_step(self):
        # seed-averaged trend: the iteration approaches a TAP solution
        params = solve_q_star(2.0, 2.0, RADEMACHER)
        first, last = 0.0, 0.0
        for seed in range(1, 9):
            trace, resolvent = run_tap_amp("signed-sine", params, 1024, 10,
                                           seed=seed, observe=keep_iterates)
            first += tap_residual(magnetization(trace, params, 1),
                                  resolvent.coupling, params)
            last += tap_residual(magnetization(trace, params, 10),
                                 resolvent.coupling, params)
        assert last <= first

    def test_one_coupling_matvec_per_step(self, monkeypatch):
        calls = []

        def counting_build(ensemble, n, seed, phi=1.0, **budget):
            j = build_coupling(ensemble, n, seed, phi, **budget)

            def apply(v):
                calls.append(v.shape)
                return j.matvec(v)

            return MatrixOperator(j.dim, apply, j.sigma_psi_sq, j.label,
                                  trace=j.trace)

        monkeypatch.setattr(tap, "build_coupling", counting_build)
        params = solve_q_star(2.0, 2.0, RADEMACHER)
        trace, _ = run_tap_amp("signed-sine", params, 256, 6, seed=1)
        assert trace.T == 6
        assert len(calls) == 6

    @pytest.mark.parametrize("n, cap", [(256, 14), (8, 8)])
    def test_haar_budget_is_min_of_2T_plus_2_and_n(self, n, cap):
        # T = 6 matvecs and one residual reveal at most min(2T + 2, N)
        # directions
        params = solve_q_star(1.0, 1.0, RADEMACHER)
        trace, resolvent = run_tap_amp("random-orthogonal", params, n, 6,
                                       seed=2)
        assert resolvent.coupling.haar_basis.cap == cap
        assert trace.T == 6

    def test_coupling_has_room_for_the_final_residual(self):
        params = solve_q_star(2.0, 2.0, RADEMACHER)
        trace, resolvent = run_tap_amp("random-orthogonal", params, 256, 3,
                                       seed=1)
        z = trace.iterates[-1]
        resid = tap_residual(np.tanh(2.0 + z), resolvent.coupling, params)
        assert np.isfinite(resid)
        basis = resolvent.coupling.haar_basis
        assert basis.q.shape[0] == basis.cap == 8

    @staticmethod
    def traced_seed_peak(ensemble, n, T=3):
        params = solve_q_star(2.0, 2.0, RADEMACHER)
        sigma = np.sqrt(params.sigma_star_sq)

        def rows(t, z_prev, z):
            return observable_row(z_prev, z, sigma)

        run_tap_amp(ensemble, params, n, T, seed=1,
                    observe=rows)  # fills the sine kernel's per-size cache
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_tap_amp(ensemble, params, n, T, seed=1, observe=rows)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def test_hadamard_seed_peaks_below_four_vectors(self):
        # 3.85 N-vectors: z^t, g(z^t) and the matvec's one new array beside
        # fwht's two 512 KB scratch buffers and int8 diagonals; separate
        # arrays per scaling and transform, and Hermite moments over whole
        # N-vectors, came to 5.35
        n = 2 ** 18
        assert self.traced_seed_peak("signed-hadamard", n) <= 4 * n * 8 + 8192

    def test_sine_seed_peaks_below_seven_and_a_half_vectors(self):
        # 7.13 N-vectors: z^t and g(z^t) beside the sine kernel's complex
        # work array (2N entries) and its result.  The odd-length FFT this
        # replaced peaked at 6.13 here, but kept ~20 MB of work arrays
        # outside tracemalloc's view; test_cli bounds the resident peak.
        n = 2 ** 16
        assert self.traced_seed_peak("signed-sine", n) <= 7.5 * n * 8

    def test_trace_carries_the_ensemble_name(self):
        params = solve_q_star(0.8, 1.0, SpectralLaw.semicircle())
        trace, _ = run_tap_amp("sk", params, 64, 2, seed=5)
        assert trace.ensemble_label == "sk"

    def test_involution_and_cg_paths_agree(self):
        params = solve_q_star(2.0, 2.0, RADEMACHER)
        coupling = build_coupling("signed-hadamard", 1024, seed=2)
        fast = resolvent_operator(coupling, params)
        from amplab.ensembles import centered_resolvent
        slow = centered_resolvent(coupling, params.lambda_star,
                                  params.sigma_psi_sq)
        v = substream(3, "test").standard_normal(1024)
        np.testing.assert_allclose(fast.matvec(v), slow.matvec(v), atol=1e-8)

    def test_resolvent_follows_the_law_not_the_builder(self):
        # a sign-perm coupling with a +/-1 spectrum under the Rademacher
        # law takes the closed form, as the named involutions do
        params = solve_q_star(2.0, 2.0, RADEMACHER)
        lam = np.where(substream(5, "spectrum").random(256) < 0.4, 1.0, -1.0)
        coupling = build_sign_perm(256, 6, lam)
        fast = resolvent_operator(coupling, params)
        want = involution_resolvent(coupling, params.lambda_star,
                                    params.sigma_psi_sq)
        assert fast.dense is None
        v = substream(7, "v").standard_normal(256)
        assert np.array_equal(fast.matvec(v), want.matvec(v))

    def test_rademacher_law_probes_a_dense_coupling(self):
        params = solve_q_star(2.0, 2.0, RADEMACHER)
        with pytest.raises(ValueError, match="rademacher law"):
            resolvent_operator(build_coupling("sk", 256, 1), params)
        # a dense involution passes the probe and takes the closed form
        hadamard = build_coupling("signed-hadamard", 256, 1)
        m = dense_form(hadamard)
        coupling = MatrixOperator(256, lambda v: m @ v, 1.0, "dense-hadamard",
                                  trace=hadamard.trace, dense=m)
        assert resolvent_operator(coupling, params).dense is None

    def test_sigma_psi_consistency_hutchinson(self):
        # (1/N) Tr M(lambda*)^2 within 5% of the solved constant
        params = solve_q_star(2.0, 2.0, RADEMACHER)
        coupling = build_coupling("signed-sine", 2048, seed=4)
        m = dense_form(resolvent_operator(coupling, params))
        assert np.vdot(m, m) / coupling.dim == pytest.approx(
            params.sigma_psi_sq, rel=0.05)

    def test_sk_small_run(self):
        params = solve_q_star(0.8, 1.0, SpectralLaw.semicircle())
        trace, _ = run_tap_amp("sk", params, 256, 3, seed=5,
                               observe=keep_iterates)
        assert trace.T == 3
        assert np.all(np.abs(magnetization(trace, params, 3)) < 1.0)

    def test_hopfield_small_run(self):
        law = SpectralLaw.marchenko_pastur(1.0)
        params = solve_q_star(0.6, 1.0, law)
        trace, _ = run_tap_amp("hopfield", params, 256, 3, seed=6,
                               observe=keep_iterates)
        assert trace.T == 3
        assert np.all(np.abs(magnetization(trace, params, 3)) < 1.0)

    def test_unknown_ensemble(self):
        with pytest.raises(ValueError, match="ensemble"):
            ensemble_law("mystery")


class TestEnsembleTable:
    @pytest.mark.parametrize("name", TAP_ENSEMBLES)
    def test_entry_builds_and_has_a_law(self, name):
        op = build_coupling(name, 64, seed=1, max_directions=2)
        law = ensemble_law(name)
        assert op.dim == 64
        assert isinstance(law, SpectralLaw)

    def test_keys_are_the_tap_choices(self):
        sub = _build_parser()._subparsers._group_actions[0].choices["tap"]
        action = next(a for a in sub._actions if a.dest == "ensemble")
        assert tuple(action.choices) == tuple(
            name for name, row in ENSEMBLES.items() if row.law is not None)


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

    @pytest.mark.parametrize("build", [
        *[pytest.param(lambda name=name: build_coupling(
            name, 256, seed=4, max_directions=256), id=name)
          for name in ("signed-sine", "signed-hadamard", "random-orthogonal")],
        pytest.param(lambda: build_sign_perm(256, 4, np.linspace(-1, 2, 256)),
                     id="sign-perm")])
    def test_equals_conjugating_by_hand_bit_for_bit(self, build):
        # the field folded into S (sine, Hadamard, sign-perm) or applied
        # around the matvec (random orthogonal) gives the bits of
        # diag(h) J diag(h) v; fresh copies, as the Haar store grows
        h = rademacher(substream(11, "field"), 256)
        rng = substream(12, "v")
        for v in (rng.standard_normal(256), rng.standard_normal((256, 3))):
            hv = h[:, None] if v.ndim == 2 else h
            assert np.array_equal(gauge_conjugate(build(), h).matvec(v),
                                  hv * build().matvec(hv * v))

    def test_gauged_hadamard_matvec_peaks_below_three_and_a_half_vectors(self):
        # 3.38 N-vectors, those of the plain matvec: its one new array and
        # fwht's two 512 KB scratch buffers; a separate h v came to 4.38
        n = 2 ** 16
        j = build_coupling("signed-hadamard", n, seed=1)
        gauged = gauge_conjugate(j, rademacher(substream(11, "field"), n))
        v = substream(13, "v").standard_normal(n)
        gauged.matvec(v)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            gauged.matvec(v)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * n * 8 + 8192

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
        zs = field_iterates(j, h, params, t_max, z0)
        zbars = field_iterates(jbar, np.ones(n), params, t_max, zbar0)
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
            zs = field_iterates(j, h, params, t_max, h * zbar0)
            zbars = field_iterates(jbar, np.ones(n), params, t_max, zbar0)
            lhs = float(np.mean(h * zs[t_max]))
            rhs = float(np.mean(zbars[t_max]))
            assert lhs == pytest.approx(rhs, abs=1e-14)
            overlaps.append(lhs)
        bound = 5.0 * np.sqrt(params.sigma_star_sq) / np.sqrt(n)
        assert np.mean(np.abs(overlaps)) <= bound
