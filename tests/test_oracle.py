import csv
import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from scipy import stats

from literal import exit_indices, poisson_epochs, sample_path
from strategyshift import oracle
from strategyshift.analytics import DEFAULT_Z_GRID, TransformContext
from strategyshift.config import DEFAULT_HORIZON
from strategyshift.errors import DomainError
from strategyshift.oracle import (
    ALIAS_CROSSOVER,
    MAX_CENSOR_FRACTION,
    AxisExits,
    _alias_table,
    _arithmetic_epochs,
    _arithmetic_index,
    _binomial,
    _crossing,
    _level_stays,
    _poisson_epochs,
    _study,
    empirical_functional,
    estimate_exits,
    exit_mean_se,
    sample_mean_se,
)
from strategyshift.params import (
    IntervalDistribution,
    MarkDistribution,
    ModelParams,
    Thresholds,
)
from strategyshift.report import (SE_MULTIPLE, STUDY_LEVELS, _power_table,
                                  conformance_rows, judge)


def index_probabilities(index, n_paths):
    """P(exit index = k) for k = 0, 1, ..., over all ``n_paths`` paths."""
    return np.bincount(index[index >= 0]) / n_paths


def pgf(index, z):
    """Sample mean and SE of z^index over the exited paths."""
    return exit_mean_se(index, z ** np.maximum(index, 0), "the exit index")


def scan_exit_index(levels, threshold) -> int:
    """Plain linear scan for the first reach-or-exceed index (cross-check
    implementation, intentionally independent of the path machinery).
    """
    for i, value in enumerate(levels):
        if value >= threshold:
            return i
    return -1


class TestThresholds:
    # A threshold counts mark units; the simulator and the series extraction
    # must read the same level, so a fraction never gets in.
    @pytest.mark.parametrize("value", [2.5, True, False, float("nan"), float("inf"),
                                       "3", -1])
    def test_non_integer_or_negative_threshold_refused(self, value):
        with pytest.raises(DomainError, match="threshold m"):
            Thresholds(value, 1)
        with pytest.raises(DomainError, match="threshold n"):
            Thresholds(1, value)

    def test_integral_thresholds_stored_as_ints(self):
        thresholds = Thresholds(4.0, np.int64(2))
        assert (thresholds.m, thresholds.n) == (4, 2)
        assert type(thresholds.m) is int and type(thresholds.n) is int


class TestEstimateExits:
    def test_zero_paths_rejected(self, reference_params, unit_thresholds):
        with pytest.raises(DomainError, match="n_paths"):
            estimate_exits(reference_params, unit_thresholds, 0, 1)

    def test_se_of_one_and_two_paths(self, reference_params, unit_thresholds):
        # One path is a sample with no standard error; two paths x1, x2 have
        # sample SD |x1 - x2| / sqrt(2), so an SE of |x1 - x2| / 2.
        one = estimate_exits(reference_params, unit_thresholds, 1, 1).a.index
        assert exit_mean_se(one, one, "") == (float(one[0]), 0.0)
        two = estimate_exits(reference_params, unit_thresholds, 2, 1).a.index
        x1, x2 = two.tolist()
        assert x1 != x2
        mean, se = exit_mean_se(two, two, "")
        assert mean == (x1 + x2) / 2 and se == pytest.approx(abs(x1 - x2) / 2, rel=1e-15)

    def test_determinism(self, reference_params, unit_thresholds):
        s1 = estimate_exits(reference_params, unit_thresholds, 5000, 99)
        s2 = estimate_exits(reference_params, unit_thresholds, 5000, 99)
        assert np.array_equal(s1.a.index, s2.a.index)
        assert np.array_equal(s1.a.shift, s2.a.shift, equal_nan=True)
        assert np.array_equal(s1.b.prior, s2.b.prior, equal_nan=True)

    def test_geometric_exit_distribution(self, reference_params, unit_thresholds):
        n = 100_000
        s = estimate_exits(reference_params, unit_thresholds, n, 7)
        probs = index_probabilities(s.a.index, s.a.index.size)
        for j in range(7):
            expect = 0.5 ** (j + 1)
            se = np.sqrt(expect * (1 - expect) / n)
            assert abs(probs[j] - expect) <= 3 * se
        mean, se = exit_mean_se(s.a.index, s.a.index, "mu")
        assert abs(mean - 1.0) <= 3 * se

    def test_zero_intensity_censors_out(self, unit_thresholds):
        params = ModelParams(
            0.0, 1.0,
            IntervalDistribution("exponential", 1.0),
            IntervalDistribution("exponential", 1.0),
        )
        with pytest.raises(DomainError, match="axis A has zero drift"):
            estimate_exits(params, unit_thresholds, 100, 3, horizon=50)

    @pytest.mark.parametrize("lambda_a, mark_a, m, levels", [
        (0.0, MarkDistribution(), 1, ()),
        (1.0, MarkDistribution("fixed", 0), 1, ()),
        (0.0, MarkDistribution(), 0, (2,)),
        # The mark mean 1 / p overflows to inf, so intensity times mean mark
        # would read NaN here, not 0.
        (0.0, MarkDistribution("geometric", p=1e-310), 1, ()),
    ])
    def test_zero_drift_fails_before_drawing(self, monkeypatch, lambda_a, mark_a,
                                             m, levels):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"a zero-drift run used the generator: {name}")

        monkeypatch.setattr(np.random, "default_rng", lambda *args, **kwargs: NoDraws())
        exp1 = IntervalDistribution("exponential", 1.0)
        static_a = ModelParams(lambda_a, 1.0, exp1, exp1, mark_a=mark_a)
        with pytest.raises(DomainError, match="axis A has zero drift"):
            estimate_exits(static_a, Thresholds(m=m, n=1), 20_000, 3, levels=levels)
        static_b = ModelParams(1.0, lambda_a, exp1, exp1, mark_b=mark_a)
        with pytest.raises(DomainError, match="axis B has zero drift"):
            estimate_exits(static_b, Thresholds(m=1, n=1), 20_000, 3)

    def test_index_at_the_horizon_exits_and_one_above_is_censored(self, monkeypatch):
        # Epochs 0.1 + 0.4 k, and axis A crossing m = 10**6 unit marks at
        # rate 10**6, at time 1 +- 0.001: every path exits, on the record and
        # on the study's own stream, at index 3 ((1 - 0.1) / 0.4 = 2.25, with
        # an SD of 0.0025, is 100 SDs from an integer).  Axis B exits at 0.
        det = partial(IntervalDistribution, "deterministic")
        params, thresholds = ModelParams(1e6, 1e6, det(0.1), det(0.4)), Thresholds(10**6, 1)
        s = estimate_exits(params, thresholds, 1000, 3, horizon=3, levels=(10**6,))
        assert np.all(s.a.index == 3) and np.all(s.study_mu[10**6] == 3)
        with pytest.raises(DomainError, match="1000/1000 paths hit the 2-observation cap"):
            estimate_exits(params, thresholds, 1000, 3, horizon=2)
        # With the censor gate open, each censored record reads index -1 and
        # NaN epochs.
        monkeypatch.setattr(oracle, "MAX_CENSOR_FRACTION", 1.0)
        s = estimate_exits(params, thresholds, 1000, 3, horizon=2, levels=(10**6,))
        assert np.all(s.a.index == -1) and np.all(s.study_mu[10**6] == -1)
        for epochs in (s.a.prior, s.a.crossing, s.a.shift):
            assert np.all(np.isnan(epochs))
        assert np.all(s.b.index == 0) and not np.isnan(s.b.shift).any()

    @pytest.mark.parametrize("censored, refused", [(2, False), (3, True)])
    def test_censor_gate_admits_exactly_its_fraction(self, monkeypatch, reference_params,
                                                     unit_thresholds, censored, refused):
        # 2,000 paths at MAX_CENSOR_FRACTION = 0.001 may lose 2 to the cap on
        # any recorded level, not 3.
        assert MAX_CENSOR_FRACTION * 2000 == 2

        def study(rng, params, t0, cap, levels):
            index = np.zeros(t0.size, dtype=np.int64)
            index[:censored] = -1
            return {5: index}

        monkeypatch.setattr(oracle, "_study", study)
        if refused:
            with pytest.raises(DomainError, match="3/2000 paths hit"):
                estimate_exits(reference_params, unit_thresholds, 2000, 3, levels=(5,))
        else:
            s = estimate_exits(reference_params, unit_thresholds, 2000, 3, levels=(5,))
            assert np.count_nonzero(s.study_mu[5] < 0) == censored

    def test_zero_drift_at_zero_threshold_simulates(self):
        # level 0 is reached at the first observation, drift or not
        params = ModelParams(
            0.0, 1.0,
            IntervalDistribution("exponential", 1.0),
            IntervalDistribution("exponential", 1.0),
        )
        s = estimate_exits(params, Thresholds(m=0, n=1), 1000, 3)
        assert np.all(s.a.index == 0)

    def test_se_shrinks_with_sample_size(self, reference_params, unit_thresholds):
        small = estimate_exits(reference_params, unit_thresholds, 10_000, 5).a.index
        large = estimate_exits(reference_params, unit_thresholds, 40_000, 5).a.index
        _, se_small = exit_mean_se(small, small, "mu")
        _, se_large = exit_mean_se(large, large, "mu")
        assert se_large < se_small

    def test_histogram_mass_accounts_for_censoring(self, tmp_path, monkeypatch):
        # The histogram is written by ``simulate``: the reference process at
        # m = n = 1 over 20,000 paths, seed 13.
        from strategyshift import cli

        doc = {"process": {"lambda_a": 1.0, "lambda_b": 1.0},
               "observation": {"family": "exponential", "initial_mean": 1.0,
                               "interval_mean": 1.0},
               "thresholds": {"m": 1, "n": 1},
               "simulation": {"paths": 20_000, "seed": 13}}
        (tmp_path / "config.json").write_text(json.dumps(doc))
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        assert cli.main(["simulate", str(tmp_path / "config.json")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        with open(tmp_path / "out" / "histogram_mu.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        counts = np.array([float(r["count"]) for r in rows])
        probs = np.array([float(r["probability"]) for r in rows])
        n_paths, n_censored = summary["n_paths"], summary["censored_a"]
        assert counts.sum() == n_paths - n_censored
        assert probs.sum() == pytest.approx((n_paths - n_censored) / n_paths)

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
    IntervalDistribution("exponential", 2.0),
    IntervalDistribution("exponential", 1.0),
    mark_a=MarkDistribution("geometric", p=0.5),
    mark_b=MarkDistribution("geometric", p=0.3),
)


DETERMINISTIC_PARAMS = ModelParams(
    1.0, 1.3,
    IntervalDistribution("deterministic", 0.7),
    IntervalDistribution("deterministic", 0.3),
)


AXIS_FIELDS = list(AxisExits._fields)


class TestMultiLevelRecord:
    @pytest.fixture(params=["reference", "geometric", "deterministic"])
    def params(self, request, reference_params):
        return {"reference": reference_params, "geometric": GEOMETRIC_PARAMS,
                "deterministic": DETERMINISTIC_PARAMS}[request.param]

    def test_per_path_invariants(self, params, unit_thresholds):
        s = estimate_exits(params, unit_thresholds, 20_000, 41, levels=(1, 2, 3, 5))
        # Every recorded level, m = 1 included, is a level of the study's
        # nested chain, which is drawn apart from the (m, n) record.
        assert sorted(s.study_mu) == [1, 2, 3, 5]
        assert not np.shares_memory(s.study_mu[1], s.a.index)
        for record in (s.a, s.b):
            idx, tau_prev, crossing, tau = (record.index, record.prior,
                                            record.crossing, record.shift)
            cens = idx < 0
            assert np.array_equal(cens, np.isnan(tau))
            assert np.all(np.isnan(tau_prev[cens])) and np.all(np.isnan(crossing[cens]))
            # The crossing lies after the prior epoch (the time origin at
            # index 0) and at or before the shift epoch.
            later, first = idx > 0, idx == 0
            assert np.all(tau_prev[later] < crossing[later])
            assert np.all(tau_prev[first] == 0.0)
            assert np.all(crossing[first] >= 0.0)
            assert np.all(crossing[~cens] <= tau[~cens])

    def test_levels_up_to_m_leave_the_stream_unchanged(self, params):
        thresholds = Thresholds(m=5, n=5)
        plain = estimate_exits(params, thresholds, 5000, 43)
        multi = estimate_exits(params, thresholds, 5000, 43, levels=(2, 3, 5))
        for axis in ("a", "b"):
            for name in AXIS_FIELDS:
                assert np.array_equal(getattr(getattr(plain, axis), name),
                                      getattr(getattr(multi, axis), name),
                                      equal_nan=True), (axis, name)
        assert sorted(multi.study_mu) == [2, 3, 5]
        assert not np.array_equal(multi.study_mu[5], multi.a.index)

    def test_level_m_is_its_own_draw(self, params):
        # m = 3 among the study levels is a level of the nested chain, like
        # 2 and 5, on a stream of its own apart from the record: same law as
        # mu, other paths, and the (m, n) record stays as it was.
        thresholds = Thresholds(m=3, n=2)
        plain = estimate_exits(params, thresholds, 20_000, 53)
        multi = estimate_exits(params, thresholds, 20_000, 53, levels=(2, 3, 5))
        for axis in ("a", "b"):
            for name in AXIS_FIELDS:
                assert np.array_equal(getattr(getattr(plain, axis), name),
                                      getattr(getattr(multi, axis), name),
                                      equal_nan=True), (axis, name)
        own = multi.study_mu[3]
        assert own is multi.study_mu[3]
        assert np.mean(own != multi.a.index) > 0.1
        (m1, se1), (m2, se2) = (exit_mean_se(i, i, "mu") for i in (own, multi.a.index))
        assert abs(m1 - m2) <= SE_MULTIPLE * np.hypot(se1, se2)

    def test_levels_above_m_leave_the_record_unchanged(self, params, unit_thresholds):
        # Study levels are drawn after the (m, n) record, wherever they lie.
        plain = estimate_exits(params, unit_thresholds, 5000, 47)
        multi = estimate_exits(params, unit_thresholds, 5000, 47, levels=(2, 3, 5))
        for axis in ("a", "b"):
            for name in AXIS_FIELDS:
                assert np.array_equal(getattr(getattr(plain, axis), name),
                                      getattr(getattr(multi, axis), name),
                                      equal_nan=True), (axis, name)

    def test_study_index_never_falls_as_the_level_rises(self, params):
        # Each level's crossing is the one below it plus the time of the
        # arrivals between them, read off one epoch sequence per path.
        levels = (1, 2, 3, 5, 8)
        s = estimate_exits(params, Thresholds(m=2, n=1), 20_000, 59, levels=levels)
        for low, high in zip(levels, levels[1:]):
            below, above = s.study_mu[low], s.study_mu[high]
            exited = (below >= 0) & (above >= 0)
            assert np.all(above[exited] >= below[exited]), (low, high)
            assert np.all(above[below < 0] < 0), (low, high)
            assert np.any(above > below), (low, high)

    @pytest.mark.parametrize("interval", [partial(IntervalDistribution, "exponential"),
                                          partial(IntervalDistribution, "deterministic")],
                             ids=["exponential", "deterministic"])
    def test_levels_sharing_an_arrival_share_an_index(self, interval):
        # A fixed mark of 3 reaches levels 2 and 3 at its first arrival and
        # level 4 at its second.
        params = ModelParams(1.0, 1.0, interval(1.0), interval(0.5),
                             mark_a=MarkDistribution("fixed", 3))
        s = estimate_exits(params, Thresholds(m=1, n=1), 5000, 61, levels=(2, 3, 4))
        assert np.array_equal(s.study_mu[2], s.study_mu[3])
        assert np.all(s.study_mu[4] >= s.study_mu[3])
        assert not np.array_equal(s.study_mu[4], s.study_mu[3])

    def test_level_zero_reads_index_zero(self, params, unit_thresholds):
        s = estimate_exits(params, unit_thresholds, 2000, 67, levels=(0, 2))
        assert np.array_equal(s.study_mu[0], np.zeros(2000, dtype=np.int64))
        # It draws nothing: level 2 reads as it does when recorded alone.
        alone = estimate_exits(params, unit_thresholds, 2000, 67, levels=(2,))
        assert np.array_equal(s.study_mu[2], alone.study_mu[2])

    @pytest.mark.parametrize("mark", [MarkDistribution(), MarkDistribution("fixed", 2),
                                      MarkDistribution("geometric", p=0.5)],
                             ids=["unit", "fixed", "geometric"])
    def test_levels_must_be_integers(self, monkeypatch, mark):
        # numpy would truncate a float binomial count: on geometric marks a
        # level of 2.5 would corrupt every level above it, and on unit marks
        # it would read as level 3.  A bool, non-integral or negative level is
        # refused before any draw, as a threshold is; an integral float reads
        # as its int.
        det = IntervalDistribution("deterministic", 1.0)
        params, thresholds = ModelParams(1.0, 1.0, det, det, mark_a=mark), Thresholds(1, 1)

        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"a refused level used the generator: {name}")

        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", lambda *args, **kwargs: NoDraws())
            for levels in ((2, 2.5, 3), (True,), (np.float64(0.5),), (math.nan,), (-3, 2)):
                with pytest.raises(DomainError,
                                   match="study level must be a nonnegative integer"):
                    estimate_exits(params, thresholds, 2000, 5, levels=levels)
        whole = estimate_exits(params, thresholds, 2000, 5, levels=(2.0, np.int64(3)))
        plain = estimate_exits(params, thresholds, 2000, 5, levels=(2, 3))
        assert [type(level) for level in whole.study_mu] == [int, int]
        for level in (2, 3):
            assert np.array_equal(whole.study_mu[level], plain.study_mu[level])

    def test_censoring_cap_applies_to_every_level(self, reference_params, unit_thresholds):
        estimate_exits(reference_params, unit_thresholds, 2000, 3, horizon=20)
        with pytest.raises(DomainError, match="observation cap"):
            estimate_exits(reference_params, unit_thresholds, 2000, 3, horizon=20,
                           levels=(50,))


class RecordingGenerator:
    """A Generator that appends (method name, arguments, number of values
    drawn) to ``calls`` for every method asked of it."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def record(*args, **kwargs):
            values = method(*args, **kwargs)
            self._calls.append((name, args, np.size(values)))
            return values

        return record


@pytest.fixture
def draws(monkeypatch):
    """The calls made of every generator that ``np.random.default_rng``
    returns while the test runs."""
    calls, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *args, **kwargs:
                        RecordingGenerator(default_rng(*args, **kwargs), calls))
    return calls


class TestDrawSequence:
    # The order and kind of draws fixes every artifact for a seed, so a
    # change here changes simulate and conformance output.  Each record
    # draws only what it reads: no epoch draws on deterministic intervals,
    # no binomial for unit or fixed marks.  A geometric count in numpy's
    # BTPE branch on at least ALIAS_CROSSOVER draws per table entry is one
    # uniform a path from an alias table; below that it is a binomial.
    EPOCHS = ["exponential", "exponential", "poisson"]

    @pytest.mark.parametrize("params, thresholds, n_paths, expected", [
        (ModelParams(1.0, 1.0, IntervalDistribution("exponential", 1.0),
                     IntervalDistribution("exponential", 1.0)),
         Thresholds(1, 1), 1000,
         ["exponential", "gamma", "gamma", *EPOCHS, *EPOCHS]
         + ["gamma", "poisson"] * 3),
        (ModelParams(1.0, 1.0, IntervalDistribution("exponential", 1.0),
                     IntervalDistribution("exponential", 1.0),
                     mark_a=MarkDistribution("geometric", p=0.3),
                     mark_b=MarkDistribution("fixed", 4)),
         Thresholds(5, 7), 1000,
         ["exponential", "binomial", "gamma", "gamma", *EPOCHS, *EPOCHS]
         + ["binomial", "gamma", "poisson"] * 3),
        # Axis B's J - 1 is Binomial(99, 0.5): mean 49.5 and 5,000 >= 32 * 100
        # draws, so it comes from the table; the study's counts (n <= 2) stay
        # binomial.
        (ModelParams(1.0, 1.0, IntervalDistribution("exponential", 1.0),
                     IntervalDistribution("exponential", 1.0),
                     mark_a=MarkDistribution("geometric", p=0.5),
                     mark_b=MarkDistribution("geometric", p=0.5)),
         Thresholds(1, 100), 5000,
         ["exponential", "binomial", "gamma", "random", "gamma", *EPOCHS, *EPOCHS]
         + ["binomial", "gamma", "poisson"] * 3),
        (DETERMINISTIC_PARAMS, Thresholds(2, 3), 1000, ["gamma"] * 5),
    ], ids=["reference", "geometric-fixed", "geometric-table", "deterministic"])
    def test_draw_sequence_is_pinned(self, draws, params, thresholds, n_paths, expected):
        estimate_exits(params, thresholds, n_paths, 1, levels=STUDY_LEVELS)
        assert [name for name, _, _ in draws] == expected
        assert all(size == n_paths for _, _, size in draws)

    @pytest.mark.parametrize("params, horizon", [
        # t0 overflows to inf on some paths, so inf - inf arises.
        (ModelParams(1.0, 1.0, IntervalDistribution("exponential", 1.7e308),
                     IntervalDistribution("exponential", 1.0)), DEFAULT_HORIZON),
        (ModelParams(1.0, 1.0, IntervalDistribution("exponential", 1.0),
                     IntervalDistribution("exponential", 1e300)), DEFAULT_HORIZON),
        (ModelParams(1.0, 1e-3, IntervalDistribution("exponential", 1.0),
                     IntervalDistribution("exponential", 1.0)), 10 ** 9),
    ], ids=["initial-mean-1.7e308", "interval-mean-1e300", "lambda-b-1e-3"])
    def test_poisson_means_stay_in_their_domain(self, draws, params, horizon):
        # numpy refuses a NaN, negative or over-2**63 Poisson mean.
        estimate_exits(params, Thresholds(1, 1), 1000, 1, horizon=horizon,
                       levels=STUDY_LEVELS)
        means = [np.asarray(args[0]) for name, args, _ in draws if name == "poisson"]
        assert len(means) == 5
        for mean in means:
            assert np.all(np.isfinite(mean)) and np.all((mean >= 0) & (mean <= 1e18))


class TestPoissonEpochs:
    # The in-place query against the nested-np.where reference of
    # tests/literal.py: from two generators on the same seed, the same bits
    # (NaN included, hence the int64 view), and its inputs left as they were.
    @pytest.mark.parametrize("d", [0.7, 1e308], ids=["finite", "overflowing"])
    def test_matches_the_nested_where_reference(self, d):
        setup = np.random.default_rng(5)
        t0 = setup.exponential(2.0, 3000)
        t0[::50] = np.inf
        first = setup.exponential(3.0, t0.size)
        first[::70] = np.inf  # inf - inf on every 350th path
        second = first + setup.exponential(3.0, t0.size)
        cap = 4
        rng_ref, rng_new = np.random.default_rng(9), np.random.default_rng(9)
        ref = new = (0, 0.0, t0)  # the first query's scalar state
        for times in (first, second):
            state = (times, *new)
            copies = [np.copy(x) for x in state]
            with np.errstate(invalid="ignore"):
                assert np.isnan(times - new[2]).any()
            assert (times <= new[2]).any()  # behind the last epoch
            ref = poisson_epochs(rng_ref, times, d, cap, *ref)
            new = _poisson_epochs(rng_new, times, d, cap, *new)
            for copy, x in zip(copies, state):
                assert np.array_equal(copy.view(np.int64), np.asarray(x).view(np.int64))
            for expected, got in zip(ref, new):
                assert got.dtype == expected.dtype
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))
            assert (new[0] == cap).any()
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def table_law(prob, alias):
    """The law an alias table draws: column k (chosen with probability
    1 / (n + 1)) gives k with probability prob[k], else alias[k]."""
    law = prob.copy()
    np.add.at(law, alias, 1.0 - prob)
    return law / prob.size


def binomial_pmf(n, p):
    """Binomial(n, p) pmf on 0..n, to 60 digits: q**n, then the ratios
    pmf(k) / pmf(k - 1) = (n - k + 1) / k * p / q."""
    with localcontext() as ctx:
        ctx.prec = 60
        p = Decimal(p)
        pmf = [(1 - p) ** n]
        for k in range(1, n + 1):
            pmf.append(pmf[-1] * (n - k + 1) / k * p / (1 - p))
        return [float(x) for x in pmf]


class TestAliasTable:
    # The table must draw Binomial(n, p) itself: its implied law is within
    # 1e-12 in total variation of the exact pmf.
    @pytest.mark.parametrize("n, p", [
        (0, 0.5), (1, 0.5), (2, 0.3), (7, 1e-300),
        (99, 0.5), (99, 0.01), (200, 0.9),
    ])
    def test_law_is_exact_in_rationals(self, n, p):
        prob, alias = _alias_table(n, p)
        assert prob.shape == alias.shape == (n + 1,)
        assert np.all((prob >= 0.0) & (prob <= 1.0))
        law = [Fraction(0)] * (n + 1)
        for k in range(n + 1):
            law[k] += Fraction(float(prob[k])) / (n + 1)
            law[int(alias[k])] += (1 - Fraction(float(prob[k]))) / (n + 1)
        q = Fraction(p)
        exact = [math.comb(n, k) * q ** k * (1 - q) ** (n - k) for k in range(n + 1)]
        assert sum(law) == 1
        assert float(sum(abs(a - b) for a, b in zip(law, exact)) / 2) <= 1e-12

    @pytest.mark.parametrize("n, p", [
        (1999, 0.5), (1999, 0.01), (19_999, 0.5), (19_999, 0.3), (19_999, 0.99),
        (19_999, 1e-300),
    ])
    def test_law_is_exact_at_large_n(self, n, p):
        law = table_law(*_alias_table(n, p))
        assert math.fsum(abs(a - b) for a, b in zip(law, binomial_pmf(n, p))) / 2 <= 1e-12

    @pytest.mark.parametrize("n, p", [(99, 0.5), (999, 0.9)])
    def test_draws_fit_the_binomial(self, draws, n, p):
        # One seeded chi-square test at 10**6 draws, the table's path
        # (asserted through the recorded call); cells of expectation < 5
        # are pooled into their neighbours.
        size = 10 ** 6
        counts = np.bincount(_binomial(np.random.default_rng(29), n, p, size),
                             minlength=n + 1)
        assert [name for name, _, _ in draws] == ["random"]
        expected = size * np.array(binomial_pmf(n, p))
        keep = expected >= 5.0
        lo, hi = np.flatnonzero(keep)[[0, -1]]
        observed = np.r_[counts[:lo + 1].sum(), counts[lo + 1:hi], counts[hi:].sum()]
        wanted = np.r_[expected[:lo + 1].sum(), expected[lo + 1:hi], expected[hi:].sum()]
        statistic = ((observed - wanted) ** 2 / wanted).sum()
        assert stats.chi2.sf(statistic, observed.size - 1) > 1e-3

    @pytest.mark.parametrize("n, p", [(99, 0.5), (1999, 0.7)])
    def test_crossover_both_ways(self, draws, n, p):
        # From ALIAS_CROSSOVER draws per entry the table draws one uniform
        # a path; one draw fewer, rng.binomial draws the counts.
        rng = np.random.default_rng(3)
        size = ALIAS_CROSSOVER * (n + 1)
        assert _binomial(rng, n, p, size).dtype == np.int64
        _binomial(rng, n, p, size - 1)
        assert [(name, drawn) for name, _, drawn in draws] == [
            ("random", size), ("binomial", size - 1)]

    @pytest.mark.parametrize("n, p", [(2, 0.5), (60, 0.5), (3000, 0.01), (300, 0.9),
                                      (5, 1.0), (5, 1e-300)])
    def test_inversion_branch_stays_binomial(self, draws, n, p):
        # numpy draws n min(p, 1 - p) <= 30 by inversion, which the
        # crossover leaves alone: the counts stay binomial at any size.
        _binomial(np.random.default_rng(3), n, p, 10 ** 6)
        assert [name for name, _, _ in draws] == ["binomial"]


class TestArithmeticIndex:
    # The study reads the index alone; it must be the epoch query's index,
    # capped and overflowing cases included.
    def test_index_is_the_epoch_query_index(self):
        setup = np.random.default_rng(8)
        t0 = setup.exponential(2.0, 2000)
        times = t0 + setup.exponential(30.0, t0.size)
        times[::7] = t0[::7] - 1.0  # before t0: index 0
        times[::11] = 1e308  # (times - t0) / d overflows
        times[::13] = np.inf
        for d, cap in ((0.7, 41), (1e-300, 10 ** 9), (3.0, 1)):
            expected = _arithmetic_epochs(times, t0, d, cap)[0]
            got = _arithmetic_index(times, t0, d, cap).astype(np.int64)
            assert np.array_equal(got, expected)
            assert (expected == cap).any() and (expected == 0).any()

    def test_study_index_is_the_epoch_query_index(self):
        # The study's chain replayed on a generator of the same seed, each
        # level's index taken from _arithmetic_epochs; a cap of 5 censors
        # some paths at every level.
        params = ModelParams(1.0, 1.0, IntervalDistribution("deterministic", 0.5),
                             IntervalDistribution("deterministic", 0.7),
                             mark_a=MarkDistribution("geometric", p=0.6))
        t0, cap, levels = np.full(3000, 0.5), 5, (0, 2, 3, 5)
        study = _study(np.random.default_rng(4), params, t0, cap, levels)
        rng, crossed, below = np.random.default_rng(4), 0.0, 0
        for level in levels[1:]:
            crossed = crossed + _crossing(rng, 1.0, params.mark_a, below, level, t0.size)
            below = level
            index = _arithmetic_epochs(crossed, t0, 0.7, cap)[0]
            assert (index == cap).any()
            index[index >= cap] = -1
            assert np.array_equal(study[level], index)
        assert np.array_equal(study[0], np.zeros(t0.size, dtype=np.int64))


class TestEmpiricalPgf:
    @pytest.fixture
    def summary(self, reference_params, unit_thresholds):
        return estimate_exits(reference_params, unit_thresholds, 20_000, 21)

    def test_normalized_at_one(self, summary):
        estimate, se = pgf(summary.a.index, 1.0)
        assert estimate == 1.0
        assert se == 0.0

    def test_at_zero_equals_initial_exceedance_probability(self, summary):
        estimate, _ = pgf(summary.a.index, 0.0)
        probs = index_probabilities(summary.a.index, summary.a.index.size)
        n_censored = np.count_nonzero(summary.a.index < 0)
        assert estimate == pytest.approx(probs[0] * summary.a.index.size
                                         / (summary.a.index.size - n_censored))

    def test_censored_index_is_never_transformed(self):
        # The censored path's value is dropped: the mean is over the two
        # exited paths, 0.0 ** 0 and 0.0 ** 2.
        estimate, _ = pgf(np.array([-1, 0, 2]), 0.0)
        assert estimate == 0.5

    def test_degenerate_sample(self, summary):
        estimate, _ = pgf(np.full(summary.a.index.size, 3), 0.5)
        assert estimate == 0.125

    def test_all_censored_raises(self, summary):
        with pytest.raises(DomainError, match="all paths censored"):
            pgf(np.full(summary.a.index.size, -1), 0.5)

    @pytest.mark.parametrize("z", [*DEFAULT_Z_GRID, 1e-300, 5e-324])
    def test_power_table_reads_every_power(self, z):
        # An index array reaching 10**9 reads z ** k from a table of at most
        # 2,594 entries (z = 0.75), the same pow on the same integers.
        k = np.r_[np.arange(3000), np.geomspace(3000, 10 ** 9, 2000).astype(np.int64),
                  10 ** 9]
        table = _power_table(z)
        assert table.size <= 2594 and table[-1] == 0.0
        assert np.array_equal(table.take(k, mode="clip"), z ** k)


class TestEmpiricalFunctional:
    def test_zero_intensity_horizon_error(self, unit_thresholds):
        params = ModelParams(
            0.0, 1.0,
            IntervalDistribution("exponential", 1.0),
            IntervalDistribution("exponential", 1.0),
        )
        with pytest.raises(DomainError, match="zero drift"):
            empirical_functional(estimate_exits(params, unit_thresholds, 200, 1,
                                                horizon=50),
                                 TransformContext())

    def test_neutral_factors_are_left_out(self, reference_params, unit_thresholds):
        # At neutral arguments the sample is the two level-stay weights'
        # product alone, so an infinite epoch weighs exp(0) = 1, not
        # exp(-0 * inf) = NaN.
        summary = estimate_exits(reference_params, unit_thresholds, 500, 4)
        a = summary.a._replace(prior=summary.a.prior.copy())
        a.prior[0] = np.inf
        summary = summary._replace(a=a)
        weights = [_level_stays(1.0, MarkDistribution(), 1, record.crossing, record.shift)
                   for record in (summary.a, summary.b)]
        expected = sample_mean_se(weights[0] * weights[1], "")
        assert empirical_functional(summary, TransformContext()) == expected

    def test_matches_window_enumeration_oracle(self, reference_params, unit_thresholds):
        oracle_value, tail = window_enumeration(1.0, 1.0)
        assert tail < 1e-3
        estimate, se = empirical_functional(
            estimate_exits(reference_params, unit_thresholds, 100_000, 17),
            TransformContext(),
        )
        assert abs(estimate - oracle_value) <= 3 * se + tail

    @pytest.mark.parametrize("z, g", [(0.5, 1.0), (1.0, 0.25), (0.5, 0.75)])
    def test_index_weights_match_window_enumeration(self, reference_params,
                                                    unit_thresholds, z, g):
        # E[z^mu g^nu 1{...} 1{...}] at m = n = 1, each index weight the
        # oracle's power of the window at which its axis exits.
        oracle_value, tail = window_enumeration(z, g)
        estimate, se = empirical_functional(
            estimate_exits(reference_params, unit_thresholds, 100_000, 17),
            TransformContext(z=z, g=g),
        )
        assert abs(estimate - oracle_value) <= 3 * se + tail

    @pytest.mark.parametrize("theta, weight", [("theta1", "z"), ("vartheta1", "g")])
    def test_shift_epoch_factor_is_an_index_power(self, theta, weight):
        # On deterministic intervals tau_mu = d0 + d mu, so exp(-th tau_mu)
        # is exp(-th d0) times z^mu at z = exp(-th d): the theta route and the
        # index route agree on one sample up to rounding.
        d0, d, th = 1.5, 0.5, 0.7
        params = ModelParams(1.0, 2.0, IntervalDistribution("deterministic", d0),
                             IntervalDistribution("deterministic", d),
                             MarkDistribution("geometric", p=0.4))
        summary = estimate_exits(params, Thresholds(2, 3), 2000, 5)
        got = empirical_functional(summary, TransformContext(**{theta: th}))
        via = empirical_functional(summary, TransformContext(**{weight: math.exp(-th * d)}))
        assert got == pytest.approx(tuple(math.exp(-th * d0) * v for v in via), rel=1e-12)
        assert got[0] < math.exp(-th * d0) * empirical_functional(
            summary, TransformContext())[0]


def window_enumeration(z, g):
    """Independent oracle for the functional at m = n = 1 on the reference
    process, E[z^mu g^nu 1{level_at_mu <= 1} 1{level_at_nu <= 1}], and the
    truncation bound: the value weighs the event that the first nonzero
    a-window and the first nonzero b-window each hold count 1 by z and g to
    the power of their window.  Window counts share an Exp(1) interval, so
    the joint pmf of (i, j) is C(i+j, i) / 3^(i+j+1).  Counts are binned
    into {0, 1, >=2} and an absorption DP runs over 12 windows; the
    un-absorbed tail mass (every weight is at most 1) bounds the error."""
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
    for window in range(12):
        nxt = {}
        for (sa, sb), p in state.items():
            if sa != 0 and sb != 0:
                nxt[(sa, sb)] = nxt.get((sa, sb), 0.0) + p
                continue
            for ia in range(3):
                for jb in range(3):
                    na = sa if sa != 0 else ia
                    nb = sb if sb != 0 else jb
                    weight = ((z ** window if sa == 0 and na != 0 else 1.0)
                              * (g ** window if sb == 0 and nb != 0 else 1.0))
                    key = (na, nb)
                    nxt[key] = nxt.get(key, 0.0) + p * joint[ia][jb] * weight
        state = nxt
    tail = sum(p for (sa, sb), p in state.items() if sa == 0 or sb == 0)
    return state.get((1, 1), 0.0), tail


class TestLevelAtExit:
    # The joint functional's indicator 1{level at exit <= threshold} enters
    # as its conditional probability given the crossing and shift epochs.

    def test_exact_value_with_a_zero_mark(self):
        # Axis A never moves from level 0 = m.  Axis B (unit marks, rate 1,
        # n = 1) must see exactly one arrival by the epoch at or after its
        # first: at epoch 1 with probability e^-1, else, after none by 1,
        # in the k-th later half-interval, each empty with probability
        # e^-1/2: e^-1 (1 + 0.5 e^-1/2 / (1 - e^-1/2)).
        params = ModelParams(
            1.0, 1.0,
            IntervalDistribution("deterministic", 1.0),
            IntervalDistribution("deterministic", 0.5),
            mark_a=MarkDistribution("fixed", 0),
        )
        half = np.exp(-0.5)
        exact = np.exp(-1.0) * (1.0 + 0.5 * half / (1.0 - half))
        estimate, se = empirical_functional(
            estimate_exits(params, Thresholds(m=0, n=1), 200_000, 19),
            TransformContext(),
        )
        assert exact == pytest.approx(0.651421, abs=1e-6)
        assert abs(estimate - exact) <= 3 * se

    def test_fixed_mark_off_the_threshold_reads_zero(self, reference_params):
        # A fixed mark of 2 only visits even levels, so it passes 3 without
        # ever resting on it.
        params = reference_params._replace(mark_a=MarkDistribution("fixed", 2))
        summary = estimate_exits(params, Thresholds(m=3, n=1), 2000, 5)
        assert empirical_functional(summary, TransformContext()) == (0.0, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("intensity, mark", [
        (0.0, MarkDistribution()),
        (1e300, MarkDistribution("fixed", 0)),
        (0.0, MarkDistribution("geometric", p=1e-310)),
    ])
    def test_zero_drift_never_forms_zero_times_infinity(self, intensity, mark):
        # A zero-drift axis at level 0 stays there, however far out its
        # shift epoch lies (an exponential first epoch can overflow to inf).
        shift = np.array([0.5, 1e308, np.inf])
        stays = _level_stays(intensity, mark, 0, np.zeros(3), shift)
        assert np.array_equal(stays, np.ones(3))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_exponent_reads_zero(self):
        stays = _level_stays(1e300, MarkDistribution(), 1,
                             np.array([0.0, 0.0]), np.array([0.0, 1e10]))
        assert np.array_equal(stays, [1.0, 0.0])


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

    @pytest.mark.parametrize("analytic, estimate", [(1e-300, 0.0), (2.0, 2.0), (0.0, 3.0)])
    def test_zero_spread_is_not_assertable(self, analytic, estimate):
        # A sample with no spread carries no standard error: its row keeps
        # the estimate and the relative deviation, but gates nothing.
        row = judge("q", "made-up", analytic, (estimate, 0.0), assertable=True)
        assert row.verdict == "not-assertable"
        assert (row.mc_estimate, row.se) == (estimate, 0.0)
        expected = abs(estimate - analytic) / abs(analytic) if analytic else estimate
        assert row.rel_dev == expected

    @pytest.mark.parametrize("estimate, verdict", [
        (1.0, "match"), (1.029, "match"), (0.971, "match"),
        (1.0301, "deviation"), (0.9699, "deviation"),
    ])
    def test_positive_se_is_gated_at_three_se(self, estimate, verdict):
        row = judge("q", "made-up", 1.0, (estimate, 0.01), assertable=True)
        assert row.verdict == verdict
        assert judge("q", "made-up", 1.0, (estimate, 0.01)).verdict == "not-assertable"
