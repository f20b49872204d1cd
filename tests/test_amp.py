import numpy as np
import pytest

from amplab.amp import gaussian_init, run_amp
from amplab.ensembles import (build_random_orthogonal, build_signed_hadamard,
                              build_signed_sine, power_iteration_norm)
from amplab.errors import NumericError
from amplab.metrics import hermite_moment, observable_table
from amplab.state_evolution import Nonlinearity, preset_nonlinearity

SQUARE = preset_nonlinearity("square")


class TestGaussianInit:
    def test_deterministic(self):
        a = gaussian_init(4096, 1.0, seed=42)
        b = gaussian_init(4096, 1.0, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_mean_within_clt_bound(self):
        z = gaussian_init(65536, 1.0, seed=1)
        assert abs(np.mean(z)) <= 4.0 / np.sqrt(65536)

    def test_variance_within_clt_bound(self):
        z = gaussian_init(65536, 1.0, seed=2)
        assert 0.97 <= np.var(z) <= 1.03

    def test_scale(self):
        z = gaussian_init(65536, 3.0, seed=3)
        assert np.std(z) == pytest.approx(3.0, rel=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_init(0, 1.0, seed=1)
        with pytest.raises(ValueError):
            gaussian_init(8, 0.0, seed=1)


class TestRunAmp:
    def test_zero_nonlinearity_gives_zero_iterates(self):
        op = build_signed_sine(128, seed=1)
        zero = Nonlinearity(lambda x: np.zeros_like(x), "zero")
        trace = run_amp(op, [zero] * 3, gaussian_init(128, 1.0, 5), 3)
        for t in range(1, 4):
            np.testing.assert_array_equal(trace.iterates[t], 0.0)

    def test_norm_sanity(self):
        op = build_signed_hadamard(512, seed=2)
        norm = power_iteration_norm(op)
        nonlins = [SQUARE] * 5
        trace = run_amp(op, nonlins, gaussian_init(512, 1.0, 6), 5)
        for t in range(5):
            fz = SQUARE.eval(trace.iterates[t])
            bound = norm * np.linalg.norm(fz)
            assert np.linalg.norm(trace.iterates[t + 1]) <= bound * (1 + 1e-8)

    def test_projected_alpha_small_for_divergence_free(self):
        # empirical projection coefficient of a divergence-free step decays
        # like N^{-1/2}; the constant 10 was set by a 32-seed calibration
        n, t_max = 4096, 5
        worst = 0.0
        for seed in range(1, 33):
            op = build_signed_sine(n, seed=seed)
            trace = run_amp(op, [SQUARE] * t_max,
                            gaussian_init(n, 1.0, seed), t_max, "projected")
            worst = max(worst, max(abs(a) for a in trace.alphas))
        assert worst <= 10.0 / np.sqrt(n)

    def test_projected_zero_norm_error_names_step(self):
        op = build_signed_sine(64, seed=3)
        zero = Nonlinearity(lambda x: np.zeros_like(x), "zero")
        with pytest.raises(NumericError, match="step 1"):
            run_amp(op, [zero] * 2, gaussian_init(64, 1.0, 7), 2, "projected")

    def test_non_finite_named(self):
        op = build_signed_sine(64, seed=4)
        bad = Nonlinearity(lambda x: x / 0.0, "bad")
        with pytest.raises(NumericError, match="index"):
            with np.errstate(divide="ignore", invalid="ignore"):
                run_amp(op, [bad], gaussian_init(64, 1.0, 8), 1)

    def test_deterministic_initialization_bridge(self):
        # z0 = c 1 with f1 replaced by the constant f1(c) matches any
        # Gaussian start entrywise, because step one only sees f1(c) M 1
        op = build_signed_sine(256, seed=5)
        c = 0.7
        f1, f2, f3 = SQUARE, preset_nonlinearity("cubic-centered"), SQUARE
        det = run_amp(op, [f1, f2, f3], c * np.ones(256), 3)
        const = Nonlinearity(lambda x, v=float(f1.eval(c)): np.full_like(x, v),
                             "const")
        rand = run_amp(op, [const, f2, f3], gaussian_init(256, 1.0, 9), 3)
        for t in range(1, 4):
            np.testing.assert_allclose(det.iterates[t], rand.iterates[t],
                                       atol=1e-12)

    def test_trace_records_mode_and_seed(self):
        op = build_signed_sine(64, seed=6)
        trace = run_amp(op, [SQUARE] * 2, gaussian_init(64, 1.0, 10), 2,
                        seed=10)
        assert trace.mode == "simple"
        assert trace.seed == 10
        assert trace.ensemble_label == "signed-sine"
        assert len(trace.iterates) == 3
        # the recorded seed replays the initial iterate exactly
        np.testing.assert_array_equal(trace.iterates[0],
                                      gaussian_init(64, 1.0, trace.seed))

    def test_validation(self):
        op = build_signed_sine(64, seed=7)
        z0 = gaussian_init(64, 1.0, 11)
        with pytest.raises(ValueError):
            run_amp(op, [SQUARE], z0, 2)  # too few nonlinearities
        with pytest.raises(ValueError):
            run_amp(op, [SQUARE], z0[:32], 1)  # wrong length
        with pytest.raises(ValueError):
            run_amp(op, [SQUARE], z0, 1, "mystery")


class TestStreamedRun:
    """``run_amp(..., sigma=...)`` keeps z^T and fills the table in the loop."""

    BUILDERS = {"signed-sine": build_signed_sine,
                "random-orthogonal": lambda n, seed: build_random_orthogonal(
                    n, seed, max_directions=n)}

    @pytest.mark.parametrize("mode", ["simple", "projected"])
    @pytest.mark.parametrize("ensemble", sorted(BUILDERS))
    def test_equals_the_stored_trace_bit_for_bit(self, ensemble, mode):
        n, T = 512, 5
        sigma = np.array([1.0, 1.1, 0.9, 1.3, 0.8, 1.2])
        nonlins = [Nonlinearity(np.tanh, "tanh")] * T
        runs, ops = [], []
        for keep in (None, sigma):
            # a fresh operator per run: the lazy Haar store must see the
            # same queries in the same order in both forms
            op = self.BUILDERS[ensemble](n, seed=3)
            runs.append(run_amp(op, nonlins, gaussian_init(n, 1.0, 3), T,
                                mode, seed=3, sigma=keep))
            ops.append(op)
        stored, streamed = runs
        assert stored.table is None and len(stored.iterates) == T + 1
        assert len(streamed.iterates) == 1
        assert np.array_equal(streamed.iterates[0], stored.iterates[T])
        assert np.array_equal(streamed.table, observable_table(stored, sigma))
        assert streamed.alphas == stored.alphas
        if ensemble == "random-orthogonal":
            assert np.array_equal(ops[0].haar_basis.q, ops[1].haar_basis.q)
            assert np.array_equal(ops[0].haar_basis.p, ops[1].haar_basis.p)

    def test_needs_sigma_0_to_T(self):
        op = build_signed_sine(64, seed=7)
        with pytest.raises(ValueError, match="sigma_0..sigma_T"):
            run_amp(op, [SQUARE] * 3, gaussian_init(64, 1.0, 1), 3,
                    sigma=np.ones(3))

    def test_nonpositive_sigma_rejected(self):
        op = build_signed_sine(64, seed=7)
        with pytest.raises(ValueError, match="sigma must be positive"):
            run_amp(op, [SQUARE] * 2, gaussian_init(64, 1.0, 1), 2,
                    sigma=np.array([1.0, 0.0, 1.0]))


class TestHaarBudget:
    """A random-orthogonal operator built with the budget 2T that ``run``
    and ``tap`` pass for a T-step run (see also test_tap and test_cli)."""

    N, T = 512, 6
    SIGMA = np.array([1.0, 1.1, 0.9, 1.3, 0.8, 1.2, 1.0])

    @pytest.mark.parametrize("mode", ["simple", "projected"])
    def test_store_is_allocated_once_at_2T_rows(self, mode):
        op = build_random_orthogonal(self.N, seed=5,
                                     max_directions=2 * self.T)
        basis = op.haar_basis
        buffers = (basis.q.base, basis.p.base)
        assert [b.shape for b in buffers] == [(2 * self.T, self.N)] * 2
        run_amp(op, [SQUARE] * self.T, gaussian_init(self.N, 1.0, 5), self.T,
                mode, seed=5, sigma=self.SIGMA)
        assert basis.q.shape[0] == 2 * self.T  # the budget is used up
        assert basis.q.base is buffers[0] and basis.p.base is buffers[1]


class TestGaussianity:
    def test_standardized_hermite_moments_decay(self):
        # iterates stay empirically Gaussian: standardized Hermite moments
        # of order 1..4 stay CLT-small (seed-averaged).  The variance map of
        # the TAP nonlinearity is contractive at its fixed point, so the
        # bound holds uniformly in t (the square map is expanding: its
        # finite-size variance drift doubles per step, see the warm-up).
        from amplab.spectral import SpectralLaw
        from amplab.tap import g_nonlinearity, solve_q_star

        n, t_max, seeds = 16384, 6, 8
        params = solve_q_star(2.0, 2.0, SpectralLaw.rademacher())
        g = g_nonlinearity(params)
        sigma = np.sqrt(params.sigma_star_sq)
        sums = np.zeros((t_max, 4))
        for seed in range(1, seeds + 1):
            op = build_signed_hadamard(n, seed=seed)
            from amplab.tap import resolvent_operator
            m_op = resolvent_operator(op, params)
            trace = run_amp(m_op, [g] * t_max,
                            gaussian_init(n, sigma, seed), t_max)
            for t in range(1, t_max + 1):
                for k in range(1, 5):
                    sums[t - 1, k - 1] += hermite_moment(
                        trace.iterates[t], k, sigma)
        averaged = np.abs(sums / seeds)
        assert np.max(averaged) <= 5.0 / np.sqrt(n)

    def test_square_warmup_moments_first_two_steps(self):
        # at small t the expanding square map has not yet amplified the
        # finite-size drift; the first two iterates are CLT-Gaussian
        n, seeds = 16384, 8
        sums = np.zeros((2, 4))
        for seed in range(1, seeds + 1):
            op = build_signed_hadamard(n, seed=seed)
            trace = run_amp(op, [SQUARE] * 2, gaussian_init(n, 1.0, seed), 2)
            for t in (1, 2):
                for k in range(1, 5):
                    sums[t - 1, k - 1] += hermite_moment(
                        trace.iterates[t], k, 1.0)
        averaged = np.abs(sums / seeds)
        assert np.max(averaged) <= 5.0 / np.sqrt(n)
