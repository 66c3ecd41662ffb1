"""The literal per-path reference (``literal.py``) and the compound-Poisson
increments the simulator draws (``oracle.compound_increments``)."""

from types import SimpleNamespace

import numpy as np
import pytest

from literal import exit_indices, sample_path
from strategyshift import (
    IntervalDistribution,
    MarkDistribution,
    ModelParams,
    Thresholds,
)
from strategyshift.errors import ParameterError
from strategyshift.oracle import compound_increments


class TestSamplePath:
    def test_zero_intensity_gives_all_zero_levels(self):
        exp1 = IntervalDistribution.exponential(1.0)
        path = sample_path(ModelParams(0.0, 0.0, exp1, exp1), seed=3, max_observations=50)
        assert np.all(path.increments_a == 0)
        assert np.all(path.cumulative_b == 0)

    def test_same_seed_same_path(self, reference_params):
        p1 = sample_path(reference_params, seed=42, max_observations=100)
        p2 = sample_path(reference_params, seed=42, max_observations=100)
        assert np.array_equal(p1.epochs, p2.epochs)
        assert np.array_equal(p1.increments_a, p2.increments_a)
        assert np.array_equal(p1.increments_b, p2.increments_b)

    def test_epoch_count(self, reference_params):
        path = sample_path(reference_params, seed=0, max_observations=7)
        assert len(path.epochs) == 8

    def test_epochs_strictly_increasing_positive(self, reference_params):
        for seed in range(20):
            path = sample_path(reference_params, seed=seed, max_observations=200)
            assert path.epochs[0] > 0
            assert np.all(np.diff(path.epochs) > 0)

    def test_cumulative_sums_consistent(self, reference_params):
        for seed in range(20):
            path = sample_path(reference_params, seed=seed, max_observations=200)
            assert np.array_equal(path.cumulative_a, np.cumsum(path.increments_a))
            assert np.array_equal(path.cumulative_b, np.cumsum(path.increments_b))
            assert np.all(np.diff(path.cumulative_a) >= 0)

    def test_rejects_zero_observations(self, reference_params):
        with pytest.raises(ParameterError):
            sample_path(reference_params, seed=1, max_observations=0)

    def test_mean_increment_matches_compound_poisson(self):
        # lambda = 2, exponential interval mean 0.5: per-interval mean 1.0
        rng = np.random.default_rng(5)
        lengths = rng.exponential(0.5, 100_000)
        inc = compound_increments(rng, 2.0, MarkDistribution.unit(), lengths).astype(float)
        se = inc.std(ddof=1) / np.sqrt(inc.size)
        assert abs(inc.mean() - 1.0) <= 3 * se

    def test_geometric_marks_mean(self):
        rng = np.random.default_rng(9)
        lengths = rng.exponential(1.0, 100_000)
        mark = MarkDistribution.geometric(0.4)
        inc = compound_increments(rng, 1.0, mark, lengths).astype(float)
        se = inc.std(ddof=1) / np.sqrt(inc.size)
        assert abs(inc.mean() - 1.0 / 0.4) <= 3 * se


class TestExitIndices:
    def _path(self, cumulative):
        cum = np.asarray(cumulative, dtype=float)
        inc = np.diff(cum, prepend=0.0)
        epochs = np.arange(1.0, len(cum) + 1.0)
        return SimpleNamespace(epochs=epochs, increments_a=inc, increments_b=inc,
                               cumulative_a=cum, cumulative_b=cum)

    def test_direct_exceedance(self):
        rec = exit_indices(self._path([0, 1, 3, 5]), Thresholds(m=4, n=4))
        assert rec.mu == 3
        assert rec.level_at_mu == 5
        assert not rec.censored_a

    def test_initial_observation_exceedance(self):
        rec = exit_indices(self._path([7, 8, 9]), Thresholds(m=5, n=5))
        assert rec.mu == 0
        assert rec.level_at_mu == 7
        assert rec.tau_mu_prev == 0.0

    def test_censoring(self):
        rec = exit_indices(self._path([0, 0, 0]), Thresholds(m=1, n=1))
        assert rec.censored_a
        assert rec.mu == -1

    def test_exit_minimality_on_random_paths(self, reference_params):
        thresholds = Thresholds(m=3, n=2)
        for seed in range(50):
            path = sample_path(reference_params, seed=seed, max_observations=500)
            rec = exit_indices(path, thresholds)
            if rec.censored_a:
                continue
            assert path.cumulative_a[rec.mu] >= thresholds.m
            if rec.mu >= 1:
                assert path.cumulative_a[rec.mu - 1] < thresholds.m
                assert rec.tau_mu_prev < rec.tau_mu


class TestIncrementMoments:
    def test_covariance_matches_simulation(self, reference_params):
        # Both axes' increments are drawn over one shared interval.
        path = sample_path(reference_params, seed=17, max_observations=100_000)
        a = path.increments_a[1:].astype(float)
        b = path.increments_b[1:].astype(float)
        sample_cov = np.cov(a, b)[0, 1]
        # SE of the sample covariance, via the delta-method moment estimate
        prods = (a - a.mean()) * (b - b.mean())
        se = prods.std(ddof=1) / np.sqrt(a.size)
        # cov(a, b) = lambda_a E[mark_a] lambda_b E[mark_b] Var(Delta), and an
        # exponential interval has Var(Delta) = mean^2.
        p = reference_params
        cov = (p.lambda_a * p.mark_a.mean() * p.lambda_b * p.mark_b.mean()
               * p.delta_mean**2)
        assert abs(sample_cov - cov) <= 3 * se
