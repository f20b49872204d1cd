import numpy as np
import pytest

from amplab.amp import gaussian_init, keep_iterates, run_amp
from amplab.ensembles import (build_random_orthogonal, build_signed_hadamard,
                              build_signed_sine, power_iteration_norm)
from amplab.errors import NumericError
from amplab.metrics import hermite_moment, observable_row
from amplab.state_evolution import Nonlinearity, preset_nonlinearity
from amplab.tap import ensemble_law, run_tap_amp, solve_q_star

SQUARE = preset_nonlinearity("square")


def iterates(*args, **kwargs):
    """z^0..z^T of ``run_amp(*args, **kwargs)`` kept by ``keep_iterates``."""
    trace = run_amp(*args, observe=keep_iterates, **kwargs)
    return trace.steps + trace.iterates


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
        its = iterates(op, [zero] * 3, gaussian_init(128, 1.0, 5), 3)
        for t in range(1, 4):
            np.testing.assert_array_equal(its[t], 0.0)

    def test_norm_sanity(self):
        op = build_signed_hadamard(512, seed=2)
        norm = power_iteration_norm(op)
        nonlins = [SQUARE] * 5
        its = iterates(op, nonlins, gaussian_init(512, 1.0, 6), 5)
        for t in range(5):
            fz = SQUARE.eval(its[t])
            bound = norm * np.linalg.norm(fz)
            assert np.linalg.norm(its[t + 1]) <= bound * (1 + 1e-8)

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
        det = iterates(op, [f1, f2, f3], c * np.ones(256), 3)
        const = Nonlinearity(lambda x, v=float(f1.eval(c)): np.full_like(x, v),
                             "const")
        rand = iterates(op, [const, f2, f3], gaussian_init(256, 1.0, 9), 3)
        for t in range(1, 4):
            np.testing.assert_allclose(det[t], rand[t], atol=1e-12)

    def test_trace_records_mode_and_seed(self):
        op = build_signed_sine(64, seed=6)
        trace = run_amp(op, [SQUARE] * 2, gaussian_init(64, 1.0, 10), 2,
                        seed=10, observe=keep_iterates)
        assert trace.mode == "simple"
        assert trace.seed == 10
        assert trace.ensemble_label == "signed-sine"
        assert len(trace.steps) == 2 and len(trace.iterates) == 1
        # the recorded seed replays the initial iterate exactly
        np.testing.assert_array_equal(trace.steps[0],
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


def plain_run(ensemble, mode):
    """A 5-step tanh run on a fresh operator: (run(observe), sigma_0..5)."""
    n, T = 512, 5
    builders = {"signed-sine": build_signed_sine,
                "random-orthogonal": lambda n, seed: build_random_orthogonal(
                    n, seed, max_directions=n)}

    def run(observe):
        op = builders[ensemble](n, seed=3)
        trace = run_amp(op, [Nonlinearity(np.tanh, "tanh")] * T,
                        gaussian_init(n, 1.0, 3), T, mode, seed=3,
                        observe=observe)
        return trace, op

    return run, np.array([1.0, 1.1, 0.9, 1.3, 0.8, 1.2])


def tap_run(ensemble):
    """A 4-step TAP run at beta = theta = 1: (run(observe), sigma_0..4)."""
    params = solve_q_star(1.0, 1.0, ensemble_law(ensemble))

    def run(observe):
        trace, resolvent = run_tap_amp(ensemble, params, 256, 4, seed=2,
                                       observe=observe)
        return trace, resolvent.coupling

    return run, np.full(5, np.sqrt(params.sigma_star_sq))


class TestStreamedRun:
    """One loop, whatever its ``observe`` keeps."""

    @pytest.mark.parametrize("ensemble, mode", [
        ("random-orthogonal", "projected"), ("random-orthogonal", "simple"),
        ("signed-sine", "projected"), ("signed-sine", "simple"),
        ("random-orthogonal", "tap"), ("signed-hadamard", "tap"),
        ("sk", "tap")])
    def test_equals_the_stored_trace_bit_for_bit(self, ensemble, mode):
        # runs that keep nothing, the iterates, or the observable rows make
        # the same operator queries in the same order (one lazy Haar store
        # per run) and give the same z^T and alphas bit for bit
        run, sigma = (tap_run(ensemble) if mode == "tap"
                      else plain_run(ensemble, mode))
        observers = (None, keep_iterates,
                     lambda t, z_prev, z: observable_row(z_prev, z, sigma[t]))
        (bare, bare_op), (kept, kept_op), (rows, rows_op) = map(run, observers)
        its = kept.steps + kept.iterates
        assert bare.steps == [None] * bare.T
        assert len(its) == kept.T + 1 and len(rows.iterates) == 1
        for trace in (bare, rows):
            assert np.array_equal(trace.iterates[0], kept.iterates[0])
            assert trace.alphas == kept.alphas
            assert trace.ensemble_label == kept.ensemble_label
        assert rows.steps == [observable_row(its[t - 1], its[t], sigma[t])
                              for t in range(1, kept.T + 1)]
        if ensemble == "random-orthogonal":
            for op in (bare_op, rows_op):
                assert np.array_equal(op.haar_basis.q, kept_op.haar_basis.q)

    def test_nonpositive_sigma_rejected(self):
        op = build_signed_sine(64, seed=7)
        sigma = np.array([1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="sigma must be positive"):
            run_amp(op, [SQUARE] * 2, gaussian_init(64, 1.0, 1), 2,
                    observe=lambda t, z_prev, z: observable_row(z_prev, z,
                                                                sigma[t]))


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
        buffer = basis.q.base
        assert buffer.shape == (basis.cap, self.N) == (2 * self.T, self.N)
        run_amp(op, [SQUARE] * self.T, gaussian_init(self.N, 1.0, 5), self.T,
                mode, seed=5, observe=lambda t, z_prev, z: observable_row(
                    z_prev, z, self.SIGMA[t]))
        assert basis.q.shape[0] == 2 * self.T  # the budget is used up
        assert basis.q.base is buffer


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
            its = iterates(m_op, [g] * t_max, gaussian_init(n, sigma, seed),
                           t_max)
            for t in range(1, t_max + 1):
                for k in range(1, 5):
                    sums[t - 1, k - 1] += hermite_moment(its[t], k, sigma)
        averaged = np.abs(sums / seeds)
        assert np.max(averaged) <= 5.0 / np.sqrt(n)

    def test_square_warmup_moments_first_two_steps(self):
        # at small t the expanding square map has not yet amplified the
        # finite-size drift; the first two iterates are CLT-Gaussian
        n, seeds = 16384, 8
        sums = np.zeros((2, 4))
        for seed in range(1, seeds + 1):
            op = build_signed_hadamard(n, seed=seed)
            its = iterates(op, [SQUARE] * 2, gaussian_init(n, 1.0, seed), 2)
            for t in (1, 2):
                for k in range(1, 5):
                    sums[t - 1, k - 1] += hermite_moment(its[t], k, 1.0)
        averaged = np.abs(sums / seeds)
        assert np.max(averaged) <= 5.0 / np.sqrt(n)
