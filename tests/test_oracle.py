import numpy as np
import pytest

from literal import exit_indices, sample_path
from strategyshift import (
    IntervalDistribution,
    ModelParams,
    Thresholds,
    TransformContext,
    conformance_rows,
    empirical_functional,
    empirical_pgf,
    estimate_exits,
)
from strategyshift.errors import (
    HorizonError,
    NoDataError,
    NoExitError,
    ParameterError,
)
from strategyshift.params import MarkDistribution
from strategyshift.report import STUDY_LEVELS, judge


def scan_exit_index(levels, threshold) -> int:
    """Plain linear scan for the first reach-or-exceed index (cross-check
    implementation, intentionally independent of the path machinery).
    """
    for i, value in enumerate(levels):
        if value >= threshold:
            return i
    return -1


class TestEstimateExits:
    def test_zero_paths_rejected(self, reference_params, unit_thresholds):
        with pytest.raises(ParameterError):
            estimate_exits(reference_params, unit_thresholds, 0, 1)

    def test_determinism(self, reference_params, unit_thresholds):
        s1 = estimate_exits(reference_params, unit_thresholds, 5000, 99)
        s2 = estimate_exits(reference_params, unit_thresholds, 5000, 99)
        assert np.array_equal(s1.mu, s2.mu)
        assert np.array_equal(s1.tau_mu, s2.tau_mu, equal_nan=True)
        assert np.array_equal(s1.tau_nu_prev, s2.tau_nu_prev, equal_nan=True)

    def test_geometric_exit_distribution(self, reference_params, unit_thresholds):
        n = 100_000
        s = estimate_exits(reference_params, unit_thresholds, n, 7)
        _, probs = s.histogram("a")
        for j in range(7):
            expect = 0.5 ** (j + 1)
            se = np.sqrt(expect * (1 - expect) / n)
            assert abs(probs[j] - expect) <= 3 * se
        mean, se = s.mean_se("mu")
        assert abs(mean - 1.0) <= 3 * se

    def test_zero_intensity_censors_out(self, unit_thresholds):
        params = ModelParams(
            0.0, 1.0,
            IntervalDistribution.exponential(1.0),
            IntervalDistribution.exponential(1.0),
        )
        with pytest.raises(NoExitError):
            estimate_exits(params, unit_thresholds, 100, 3, horizon=50)

    @pytest.mark.parametrize("lambda_a, mark_a, m, levels", [
        (0.0, MarkDistribution.unit(), 1, ()),
        (1.0, MarkDistribution.fixed(0), 1, ()),
        (0.0, MarkDistribution.unit(), 0, (2,)),
    ])
    def test_zero_drift_fails_before_drawing(self, monkeypatch, lambda_a, mark_a,
                                             m, levels):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"a zero-drift run used the generator: {name}")

        monkeypatch.setattr(np.random, "default_rng", lambda *args, **kwargs: NoDraws())
        exp1 = IntervalDistribution.exponential(1.0)
        static_a = ModelParams(lambda_a, 1.0, exp1, exp1, mark_a=mark_a)
        with pytest.raises(NoExitError):
            estimate_exits(static_a, Thresholds(m=m, n=1), 20_000, 3, levels=levels)
        static_b = ModelParams(1.0, lambda_a, exp1, exp1, mark_b=mark_a)
        with pytest.raises(NoExitError):
            estimate_exits(static_b, Thresholds(m=1, n=1), 20_000, 3)

    def test_zero_drift_at_zero_threshold_simulates(self):
        # level 0 is reached at the first observation, drift or not
        params = ModelParams(
            0.0, 1.0,
            IntervalDistribution.exponential(1.0),
            IntervalDistribution.exponential(1.0),
        )
        s = estimate_exits(params, Thresholds(m=0, n=1), 1000, 3)
        assert np.all(s.mu == 0)

    def test_se_shrinks_with_sample_size(self, reference_params, unit_thresholds):
        _, se_small = estimate_exits(reference_params, unit_thresholds, 10_000, 5).mean_se("mu")
        _, se_large = estimate_exits(reference_params, unit_thresholds, 40_000, 5).mean_se("mu")
        assert se_large < se_small

    def test_histogram_mass_accounts_for_censoring(self, reference_params, unit_thresholds):
        s = estimate_exits(reference_params, unit_thresholds, 20_000, 13)
        counts, probs = s.histogram("a")
        assert counts.sum() == s.n_paths - s.n_censored_a
        assert probs.sum() == pytest.approx((s.n_paths - s.n_censored_a) / s.n_paths)

    def test_agrees_with_path_level_exit_records(self, reference_params):
        # mutual cross-check: path machinery vs the oracle's plain linear scan
        thresholds = Thresholds(m=3, n=2)
        for seed in range(100):
            path = sample_path(reference_params, seed=seed, max_observations=300)
            rec = exit_indices(path, thresholds)
            assert rec.mu == scan_exit_index(path.cumulative_a, thresholds.m)
            assert rec.nu == scan_exit_index(path.cumulative_b, thresholds.n)


GEOMETRIC_PARAMS = ModelParams(
    2.0, 1.0,
    IntervalDistribution.exponential(2.0),
    IntervalDistribution.exponential(1.0),
    mark_a=MarkDistribution.geometric(0.5),
    mark_b=MarkDistribution.geometric(0.3),
)


class TestMultiLevelRecord:
    @pytest.fixture(params=["reference", "geometric"])
    def params(self, request, reference_params):
        return reference_params if request.param == "reference" else GEOMETRIC_PARAMS

    def test_per_path_invariants(self, params, unit_thresholds):
        s = estimate_exits(params, unit_thresholds, 20_000, 41, levels=(2, 3, 5))
        indices = [s.exit_index_a(level) for level in (1, 2, 3, 5)]
        assert indices[0] is s.mu
        for low, high in zip(indices, indices[1:]):
            # a path reaching the higher level reached the lower one no later
            assert np.all((high < 0) | ((low >= 0) & (low <= high)))
        for idx, tau_prev, tau, level, cens, threshold in (
            (s.mu, s.tau_mu_prev, s.tau_mu, s.level_at_mu, s.censored_a, s.thresholds.m),
            (s.nu, s.tau_nu_prev, s.tau_nu, s.level_at_nu, s.censored_b, s.thresholds.n),
        ):
            assert np.array_equal(cens, idx < 0)
            assert np.all(np.isnan(tau[cens])) and np.all(np.isnan(level[cens]))
            later = idx > 0
            assert np.all(tau_prev[later] < tau[later])
            assert np.all(tau_prev[idx == 0] == 0.0)
            assert np.all(level[~cens] >= threshold)

    def test_levels_up_to_m_leave_the_stream_unchanged(self, params):
        thresholds = Thresholds(m=5, n=5)
        plain = estimate_exits(params, thresholds, 5000, 43)
        multi = estimate_exits(params, thresholds, 5000, 43, levels=(2, 3, 5))
        for name in ("mu", "nu", "tau_mu", "tau_mu_prev", "tau_nu", "tau_nu_prev",
                     "level_at_mu", "level_at_nu"):
            assert np.array_equal(getattr(plain, name), getattr(multi, name),
                                  equal_nan=True), name
        assert multi.exit_index_a(5) is multi.mu
        assert sorted(multi.study_mu) == [2, 3]

    def test_levels_above_m_leave_the_record_unchanged(self, params, unit_thresholds):
        # Study levels are drawn after the (m, n) record, wherever they lie.
        plain = estimate_exits(params, unit_thresholds, 5000, 47)
        multi = estimate_exits(params, unit_thresholds, 5000, 47, levels=(2, 3, 5))
        for name in ("mu", "nu", "tau_mu", "tau_mu_prev", "tau_nu", "tau_nu_prev",
                     "level_at_mu", "level_at_nu"):
            assert np.array_equal(getattr(plain, name), getattr(multi, name),
                                  equal_nan=True), name

    def test_censoring_cap_applies_to_every_level(self, reference_params, unit_thresholds):
        estimate_exits(reference_params, unit_thresholds, 2000, 3, horizon=20)
        with pytest.raises(HorizonError):
            estimate_exits(reference_params, unit_thresholds, 2000, 3, horizon=20,
                           levels=(50,))

    def test_unrecorded_level_raises(self, reference_params, unit_thresholds):
        s = estimate_exits(reference_params, unit_thresholds, 100, 3, levels=(2,))
        with pytest.raises(NoDataError):
            s.exit_index_a(3)


class TestEmpiricalPgf:
    @pytest.fixture
    def summary(self, reference_params, unit_thresholds):
        return estimate_exits(reference_params, unit_thresholds, 20_000, 21)

    def test_normalized_at_one(self, summary):
        estimate, se = empirical_pgf(summary, 1.0)
        assert estimate == 1.0
        assert se == 0.0

    def test_at_zero_equals_initial_exceedance_probability(self, summary):
        estimate, _ = empirical_pgf(summary, 0.0)
        _, probs = summary.histogram("a")
        assert estimate == pytest.approx(probs[0] * summary.n_paths
                                         / (summary.n_paths - summary.n_censored_a))

    def test_degenerate_sample(self, summary):
        frozen = summary.__class__(
            **{**summary.__dict__, "mu": np.full(summary.n_paths, 3),
               "censored_a": np.zeros(summary.n_paths, dtype=bool)}
        )
        estimate, _ = empirical_pgf(frozen, 0.5)
        assert estimate == 0.125

    def test_all_censored_raises(self, summary):
        frozen = summary.__class__(
            **{**summary.__dict__,
               "censored_a": np.ones(summary.n_paths, dtype=bool)}
        )
        with pytest.raises(NoDataError):
            empirical_pgf(frozen, 0.5)


class TestEmpiricalFunctional:
    def test_zero_intensity_horizon_error(self, unit_thresholds):
        params = ModelParams(
            0.0, 1.0,
            IntervalDistribution.exponential(1.0),
            IntervalDistribution.exponential(1.0),
        )
        with pytest.raises(NoExitError):
            empirical_functional(estimate_exits(params, unit_thresholds, 200, 1,
                                                horizon=50),
                                 TransformContext.neutral())

    def test_matches_window_enumeration_oracle(self, reference_params, unit_thresholds):
        # Independent oracle for the neutral-argument functional at m = n = 1:
        # the value is P(first nonzero a-window has count 1 AND first nonzero
        # b-window has count 1).  Window counts share an Exp(1) interval, so
        # the joint pmf of (i, j) is C(i+j, i) / 3^(i+j+1).  Counts are binned
        # into {0, 1, >=2} and an absorption DP runs over 12 windows; the
        # un-absorbed tail mass bounds the truncation error.
        from math import comb

        def cell(i, j):
            return comb(i + j, i) / 3.0 ** (i + j + 1)

        big = 80
        joint = [[0.0] * 3 for _ in range(3)]
        for ia in range(3):
            for jb in range(3):
                i_range = [ia] if ia < 2 else range(2, big)
                j_range = [jb] if jb < 2 else range(2, big)
                joint[ia][jb] = sum(cell(i, j) for i in i_range for j in j_range)
        assert sum(map(sum, joint)) == pytest.approx(1.0, abs=1e-12)

        # per-axis state: 0 pending, 1 exited at level 1, 2 exited above 1
        state = {(0, 0): 1.0}
        for _ in range(12):
            nxt = {}
            for (sa, sb), p in state.items():
                if sa != 0 and sb != 0:
                    nxt[(sa, sb)] = nxt.get((sa, sb), 0.0) + p
                    continue
                for ia in range(3):
                    for jb in range(3):
                        na = sa if sa != 0 else (0 if ia == 0 else ia)
                        nb = sb if sb != 0 else (0 if jb == 0 else jb)
                        key = (na, nb)
                        nxt[key] = nxt.get(key, 0.0) + p * joint[ia][jb]
            state = nxt
        oracle_value = state.get((1, 1), 0.0)
        tail = sum(p for (sa, sb), p in state.items() if sa == 0 or sb == 0)
        assert tail < 1e-3

        estimate, se = empirical_functional(
            estimate_exits(reference_params, unit_thresholds, 100_000, 17),
            TransformContext.neutral(),
        )
        assert abs(estimate - oracle_value) <= 3 * se + tail


class TestConformance:
    def test_reference_bundle_matches(self, reference_params, unit_thresholds):
        summary = estimate_exits(reference_params, unit_thresholds, 40_000, 7,
                                 levels=STUDY_LEVELS)
        rows = {r.quantity: r for r in conformance_rows(summary)}
        assert rows["mean_exit_index_a"].verdict == "match"
        assert rows["mean_exit_index_b"].verdict == "match"

    def test_singular_constants_not_assertable(self, reference_params, unit_thresholds):
        summary = estimate_exits(reference_params, unit_thresholds, 10_000, 3,
                                 levels=STUDY_LEVELS)
        rows = {r.quantity: r for r in conformance_rows(summary)}
        row = rows["index_pgf_closed_a[z=0.5]"]
        assert row.analytic == "singular"
        assert row.verdict == "not-assertable"

    def test_deviation_verdict(self):
        row = judge("q", "made-up", 10.0, (1.0, 0.01), assertable=True)
        assert row.verdict == "deviation"
