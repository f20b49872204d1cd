import tracemalloc

import numpy as np
import pytest

from amplab.amp import AmpTrace
from amplab.metrics import (LEAF, ObservableReport, _chunked_sum,
                            hermite_moment, ks_statistic, observable_row,
                            report_from_traces, successive_diff)


def observed_rows(iterates, sigma):
    """``observable_row(z^{t-1}, z^t, sigma[t])`` for t = 1..T."""
    return [observable_row(iterates[t - 1], iterates[t], sigma[t])
            for t in range(1, len(iterates))]


def make_trace(iterates, sigma, seed=0, label="test"):
    """The trace of a run that observed these iterates' rows."""
    return AmpTrace(len(iterates[0]), len(iterates) - 1, [iterates[-1]],
                    "simple", seed, label,
                    steps=observed_rows(iterates, sigma))


class TestSuccessiveDiff:
    def test_identical_iterates_give_zero(self):
        z = np.random.default_rng(0).standard_normal(64)
        np.testing.assert_array_equal(successive_diff([z, z, z]), [0.0, 0.0])

    def test_independent_gaussians(self):
        # Monte-Carlo oracle: for independent N(0, s^2) pairs the mean
        # squared difference concentrates at 2 s^2
        rng = np.random.default_rng(1)
        n, s = 65536, 1.3
        a, b = s * rng.standard_normal((2, n))
        got = successive_diff([a, b])[0]
        assert got == pytest.approx(2 * s * s, abs=5 * s * s / np.sqrt(n))

    def test_two_computation_paths_agree(self):
        # direct loop vs the norm identity |a|^2 + |b|^2 - 2<a, b>
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((2, 4096))
        direct = successive_diff([a, b])[0]
        identity = (a @ a + b @ b - 2 * (a @ b)) / a.size
        assert direct == pytest.approx(identity, rel=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, 512))
        perm = rng.permutation(512)
        plain = successive_diff([a, b])[0]
        shuffled = successive_diff([a[perm], b[perm]])[0]
        assert plain == pytest.approx(shuffled, rel=1e-12)

    def test_squares_the_difference_in_place(self):
        # one N-vector, the difference, squared where it lies; its value is
        # that of np.mean((b - a) ** 2) bit for bit
        n = 2 ** 14
        a, b = np.random.default_rng(4).standard_normal((2, n))
        successive_diff([a, b])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            got = successive_diff([a, b])[0]
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= n * 8 + 4096
        assert got == float(np.mean((b - a) ** 2))


class TestChunkedSum:
    # the chunked sums of observable_row rebuild numpy's pairwise tree; a
    # numpy release that blocks its sums differently fails here first
    @staticmethod
    def check(n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
        total = _chunked_sum(n, lambda lo, hi: np.add.reduce(x[lo:hi]))
        assert total == np.add.reduce(x), n
        assert total / n == np.mean(x), n

    def test_small_sizes_equal_add_reduce_and_mean_bit_for_bit(self):
        for n in range(1, 3000, 7):
            self.check(n)

    @pytest.mark.parametrize("n", [LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 8,
                                   2 ** 20, 2 ** 20 + 5, 3 * 10 ** 6])
    def test_equals_add_reduce_and_mean_bit_for_bit(self, n):
        self.check(n)


class TestHermiteMoment:
    def test_degree_zero_is_exactly_one(self):
        v = np.random.default_rng(4).standard_normal(128)
        assert hermite_moment(v, 0, 2.0) == 1.0

    def test_gaussian_sample_moments_small(self):
        rng = np.random.default_rng(5)
        n, sigma = 65536, 1.7
        v = sigma * rng.standard_normal(n)
        for k in range(1, 5):
            assert abs(hermite_moment(v, k, sigma)) <= 5.0 / np.sqrt(n)

    def test_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            hermite_moment(np.ones(4), 1, 0.0)


class TestKsStatistic:
    def test_exact_gaussian_sample(self):
        rng = np.random.default_rng(6)
        v = 0.8 * rng.standard_normal(8192)
        assert ks_statistic(v, 0.8) <= 0.03

    def test_all_zeros(self):
        assert ks_statistic(np.zeros(100), 1.0) == pytest.approx(0.5,
                                                                 abs=1e-12)

    def test_wrong_scale_detected(self):
        rng = np.random.default_rng(7)
        # sup_x |Phi(x/2) - Phi(x)| is ~0.165 for a doubled scale
        v = 2.0 * rng.standard_normal(8192)
        assert ks_statistic(v, 1.0) > 0.15

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal(512)
        assert ks_statistic(v, 1.0) == ks_statistic(v[::-1], 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 65536, 2 ** 20])
    def test_equals_the_two_grid_formula_bit_for_bit(self, n):
        # reference: scipy's ndtr on fresh grids i/n for i = 1..n and for
        # i = 0..n-1
        from scipy.special import ndtr

        def two_grid(v, sigma):
            x = np.sort(v)
            cdf = ndtr(x / sigma)
            upper = np.max(np.arange(1, n + 1) / n - cdf)
            lower = np.max(cdf - np.arange(0, n) / n)
            return float(max(upper, lower))

        rng = np.random.default_rng(n)
        for sigma in (0.7, 1.0, 2.3):
            v = 1.1 * rng.standard_normal(n)
            assert ks_statistic(v, sigma) == two_grid(v, sigma)
        base = rng.standard_normal(n)
        tails = base.copy()  # erfc's far branch past 8, underflow past 38
        tails[::3] = rng.choice([-1.0, 1.0], tails[::3].size) * rng.uniform(
            8.0, 12.0, tails[::3].size)
        tails[1::3] = rng.choice([-1.0, 1.0], tails[1::3].size) * rng.uniform(
            38.0, 45.0, tails[1::3].size)
        infinite = base.copy()
        infinite[::4], infinite[1::4] = np.inf, -np.inf
        for v in (np.zeros(n), np.full(n, 0.3), np.round(base, 1), tails,
                  infinite, 1.05 * base, base + 0.05):
            assert ks_statistic(v, 1.0) == two_grid(v, 1.0)

    def test_smallest_point_alone_sets_the_supremum(self):
        # nine points at the quantiles (k + 0.5)/10 keep every other gap at
        # 0.05, so the supremum is Phi(u0) - 0 itself, taken where ndtr
        # uses exp; np.exp is an ulp off libm's exp at some of these u0,
        # where only the exact tier gives scipy's bits
        from scipy.special import ndtr, ndtri

        rest = ndtri((np.arange(1, 10) + 0.5) / 10)
        for u0 in np.linspace(-1.6, -1.42, 1000):
            v = np.concatenate([[u0], rest])
            assert ks_statistic(v, 1.0) == float(ndtr(u0))

    def test_refuses_nan(self):
        v = np.random.default_rng(10).standard_normal(64)
        v[5] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            ks_statistic(v, 1.0)

    def test_leaves_its_input_unchanged(self):
        v = np.random.default_rng(9).standard_normal(256)
        before = v.copy()
        ks_statistic(v, 1.3)
        assert np.array_equal(v, before)


def small_report(n=256, t_max=3):
    rng = np.random.default_rng(0)
    sigma = np.ones(t_max + 1)
    traces = [make_trace([rng.standard_normal(n) for _ in range(t_max + 1)],
                         sigma, seed=k, label="a") for k in range(2)]
    d = 2.0 * np.ones(t_max)
    return report_from_traces(traces, d, beta=2.0, theta=2.0)


class TestObservableTable:
    def test_equals_the_per_observable_functions_bit_for_bit(self):
        rng = np.random.default_rng(6)
        its = list(rng.standard_normal((5, 4096))
                   * np.array([[1.0], [1.3], [0.7], [2.1], [1.1]]))
        sigma = np.array([1.0, 1.2, 0.8, 2.0, 1.05])
        expected = np.column_stack(
            [successive_diff(its),
             [[hermite_moment(z, k, sigma[t]) for k in range(1, 5)]
              + [ks_statistic(z, sigma[t])]
              for t, z in enumerate(its[1:], start=1)]])
        assert np.array_equal(np.array(observed_rows(its, sigma)), expected)

    def test_row_holds_at_most_three_vectors_above_its_inputs(self):
        # z / sigma, H2 and H3 while the moments run, then the sorted copy
        # of the KS statistic; a few KB of Python objects ride along
        n = 2 ** 14
        prev, z = np.random.default_rng(8).standard_normal((2, n))
        observable_row(prev, z, 1.1)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            observable_row(prev, z, 1.1)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * 8 + 8192

    def test_requires_positive_sigma(self):
        its = list(np.random.default_rng(7).standard_normal((3, 64)))
        with pytest.raises(ValueError, match="sigma must be positive"):
            observed_rows(its, np.array([1.0, 1.0, 0.0]))


class TestStreamedTrace:
    def test_report_averages_the_carried_tables(self):
        rng = np.random.default_rng(10)
        sigma = np.array([1.0, 1.2, 0.9, 1.1])
        runs = [list(rng.standard_normal((4, 128))) for _ in range(3)]
        report = report_from_traces([make_trace(r, sigma) for r in runs],
                                    np.ones(3))
        tables = [np.array(observed_rows(r, sigma)) for r in runs]
        mean = (tables[0] + tables[1] + tables[2]) / 3
        assert all(np.array_equal(a, b)
                   for a, b in zip(report.seed_tables, tables))
        assert np.array_equal(report.succ_diff, mean[:, 0])
        assert np.array_equal(report.hermite, mean[:, 1:5])
        assert np.array_equal(report.ks, mean[:, 5])


class TestReports:
    def test_report_shapes_validated(self):
        rep = small_report()
        assert rep.succ_diff.shape == (3,)
        assert rep.hermite.shape == (3, 4)
        with pytest.raises(ValueError):
            ObservableReport("x", 2.0, 2.0, 256, 3, 2,
                             np.zeros(2), np.zeros(3), np.zeros((3, 4)),
                             np.zeros(3))

