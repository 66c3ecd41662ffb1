import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from literal import gamma_marginal
from strategyshift.config import MAX_THRESHOLD
from strategyshift.errors import ConfigError, DomainError
from strategyshift.params import IntervalDistribution, MarkDistribution, ModelParams
from strategyshift.series import FFT_CROSSOVER, d_extract
from strategyshift.analytics import TransformContext, axis_factor, gamma_series

EXP1 = IntervalDistribution("exponential", 1.0)
UNIT = MarkDistribution()


class TestLst:
    def test_value_at_zero(self):
        assert IntervalDistribution("exponential", 1.0).lst(0.0) == 1.0
        assert IntervalDistribution("deterministic", 2.0).lst(0.0) == 1.0

    def test_exponential_closed_form(self):
        assert IntervalDistribution("exponential", 1.0).lst(1.0) == 0.5

    def test_exponential_matches_quadrature(self):
        # independent check: integrate exp(-t/mean)/mean * exp(-theta t)
        from scipy.integrate import quad
        mean, theta = 0.7, 1.3
        numeric, _ = quad(lambda t: np.exp(-t / mean) / mean * np.exp(-theta * t),
                          0, np.inf)
        assert IntervalDistribution("exponential", mean).lst(theta) == pytest.approx(
            numeric, abs=1e-10)

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="unsupported interval family"):
            IntervalDistribution("gamma", 1.0)

    def test_monotone_decreasing_and_bounded(self):
        thetas = np.linspace(0.0, 5.0, 21)
        for family, mean in (("exponential", 0.5), ("deterministic", 2.0)):
            interval = IntervalDistribution(family, mean)
            values = [interval.lst(t) for t in thetas]
            assert values[0] == 1.0
            assert all(0.0 < v <= 1.0 for v in values)
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_drop_is_the_difference_it_replaces(self):
        for family, mean in (("exponential", 0.5), ("deterministic", 2.0)):
            interval = IntervalDistribution(family, mean)
            for theta, step in ((0.0, 1.0), (0.3, 0.7), (2.0, 1e-3)):
                assert interval.lst_drop(theta, step) == pytest.approx(
                    interval.lst(theta) - interval.lst(theta + step), rel=1e-12)
            # a step the difference rounds away keeps its first-order value
            assert interval.lst_drop(0.0, 1e-20) == pytest.approx(mean * 1e-20, rel=1e-15)


@pytest.mark.parametrize("build, error, match", [
    (lambda: MarkDistribution("poisson"), ConfigError, "unsupported mark family"),
    (lambda: MarkDistribution("fixed", -1), DomainError, "fixed mark value"),
    (lambda: MarkDistribution("fixed", 1.5), DomainError, "fixed mark value"),
    (lambda: MarkDistribution("geometric", p=0.0), DomainError, "geometric mark parameter"),
    (lambda: MarkDistribution("geometric", p=1.5), DomainError, "geometric mark parameter"),
    (lambda: IntervalDistribution("exponential", 0.0), DomainError, "interval mean"),
    (lambda: IntervalDistribution("deterministic", -1.0), DomainError, "interval mean"),
    (lambda: EXP1.lst(-0.1), DomainError, "LST argument"),
    (lambda: ModelParams(-1.0, 1.0, EXP1, EXP1), DomainError, "intensities"),
    (lambda: ModelParams(1.0, -1.0, EXP1, EXP1), DomainError, "intensities"),
], ids=["mark-family", "fixed-negative", "fixed-fractional", "geometric-p-0",
        "geometric-p-above-1", "interval-mean-0", "interval-mean-negative",
        "lst-negative-theta", "negative-lambda-a", "negative-lambda-b"])
def test_parameter_validation(build, error, match):
    with pytest.raises(error, match=match):
        build()


class TestGammaMarginal:
    # The scalar reference that TestGammaSeries reads the series against.

    def test_total_mass(self):
        assert gamma_marginal(1.0, 0.0, 1.0, UNIT, EXP1) == 1.0

    def test_unit_mark_closed_form(self):
        assert gamma_marginal(0.5, 0.0, 1.0, UNIT, EXP1) == pytest.approx(
            1.0 / 1.5, abs=1e-12
        )

    def test_zero_intensity_reduces_to_lst(self):
        for z in (0.0, 0.3, 1.0):
            assert gamma_marginal(z, 0.7, 0.0, UNIT, EXP1) == EXP1.lst(0.7)

    def test_out_of_range_z(self):
        with pytest.raises(DomainError):
            gamma_marginal(1.5, 0.0, 1.0, UNIT, EXP1)

    @pytest.mark.parametrize("z", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    def test_double_expectation_identity_mc(self, z, theta, rng):
        # sample the increment/interval pair and average z^a exp(-theta d)
        n = 100_000
        d = rng.exponential(1.0, n)
        a = rng.poisson(1.0 * d)
        samples = z**a * np.exp(-theta * d)
        se = samples.std(ddof=1) / np.sqrt(n)
        assert abs(samples.mean() - gamma_marginal(z, theta, 1.0, UNIT, EXP1)) <= 3 * se


class TestGammaSeries:
    def test_coefficients_sum_to_scalar_value(self):
        # evaluating the truncated series at z in [0,1) approximates the scalar
        s = gamma_series(60, 0.3, 1.0, UNIT, EXP1)
        z = 0.5
        approx = np.polynomial.polynomial.polyval(z, s.coeffs)
        assert approx == pytest.approx(gamma_marginal(z, 0.3, 1.0, UNIT, EXP1), abs=1e-10)

    def test_deterministic_family(self):
        det = IntervalDistribution("deterministic", 0.8)
        s = gamma_series(60, 0.2, 1.5, UNIT, det)
        z = 0.4
        approx = np.polynomial.polynomial.polyval(z, s.coeffs)
        assert approx == pytest.approx(gamma_marginal(z, 0.2, 1.5, UNIT, det), abs=1e-10)

    def test_geometric_marks(self):
        mark = MarkDistribution("geometric", p=0.6)
        s = gamma_series(80, 0.0, 1.0, mark, EXP1)
        z = 0.3
        approx = np.polynomial.polynomial.polyval(z, s.coeffs)
        assert approx == pytest.approx(gamma_marginal(z, 0.0, 1.0, mark, EXP1), abs=1e-10)

    @pytest.mark.parametrize("order", [0, 1, 60])
    def test_unit_mark_is_fixed_mark_one(self, order):
        # A unit mark stores value 1, whatever it is given, and reads as one.
        unit = MarkDistribution("unit", value=7)
        assert unit.value == 1
        np.testing.assert_array_equal(
            gamma_series(order, 0.2, 1.5, unit, EXP1).coeffs,
            gamma_series(order, 0.2, 1.5, MarkDistribution("fixed", 1), EXP1).coeffs)

    def test_negative_theta_is_a_domain_error(self):
        # gamma_series has no theta guard: every theta reaches it from a
        # TransformContext, which refuses a negative one.
        for name in ("theta0", "theta1", "vartheta0", "vartheta1"):
            with pytest.raises(DomainError, match="exponential transform arguments"):
                TransformContext(**{name: -0.1})

    @pytest.mark.parametrize("build, valid, refused", [
        (gamma_series, (10, 0.3, 1.0, UNIT, EXP1),
         (10, 0.3, 1e300, UNIT, IntervalDistribution("exponential", 1e300))),
        (axis_factor, (10, 0.5, 0.0, 0.2, 1.0, UNIT, EXP1, EXP1),
         (-1, 0.5, 0.0, 0.2, 1.0, UNIT, EXP1, EXP1)),
    ], ids=["series-overflow", "factor-negative-order"])
    def test_refused_call_leaves_the_cache_alone(self, build, valid, refused):
        cached = build(*valid)
        size = build.cache_info().currsize
        with pytest.raises(DomainError):
            build(*refused)
        assert build.cache_info().currsize == size
        assert build(*valid) is cached

    @pytest.mark.parametrize("order", [60, 2000])
    @pytest.mark.parametrize("family", ["exponential", "deterministic"])
    def test_coefficients_are_a_sub_probability_law(self, family, order):
        # Coefficient k is E[exp(-theta * Delta); increment = k]: never
        # negative, and the partial sum through any order stays at or below
        # the whole sum, the interval LST at theta.  Rounding may break
        # either by 1e-13 (relative to the largest coefficient for the
        # first); the worst seen is 1.9e-15 and 6.4e-15.  Order 2000 runs
        # the FFT-backed kernels.
        assert 60 < FFT_CROSSOVER < 2000
        marks = (UNIT, MarkDistribution("fixed", 3), MarkDistribution("geometric", p=0.4))
        for mean in (0.5, 3.0):
            interval = IntervalDistribution(family, mean)
            for mark, theta, intensity in itertools.product(marks, (0.0, 0.7), (1.0, 10.0)):
                c = gamma_series(order, theta, intensity, mark, interval).coeffs
                case = (mean, mark, theta, intensity)
                assert c.min() >= -1e-13 * c.max(), case
                assert c.sum() <= interval.lst(theta) + 1e-13, case

    def test_deterministic_law_with_underflowing_mass_at_zero(self):
        # Poisson(900) counts: P(0) = exp(-900) underflows, the law does not.
        det = IntervalDistribution("deterministic", 3.0)
        s = gamma_series(1500, 0.0, 300.0, UNIT, det)
        assert s.coeffs.sum() == pytest.approx(1.0, abs=1e-12)
        assert s.coeffs.argmax() in (899, 900)

    @pytest.mark.parametrize("family", ["deterministic", "exponential"])
    def test_mean_exit_index_at_the_threshold_cap(self, family):
        # E[mu] = sum_{i < m} u_i with u the coefficients of G0 / (1 - G):
        # one extraction from FFT-backed products at the largest order a
        # config allows, against the benchmark's exact law (Panjer's
        # recursion and the renewal sequence, term by term).
        m = MAX_THRESHOLD
        doc = {"process": {"lambda_a": 1.0, "mark_a": {"family": "geometric", "p": 0.5}},
               "observation": {"family": family, "initial_mean": 3.0, "interval_mean": 1.0},
               "thresholds": {"m": m}}
        mark = MarkDistribution("geometric", p=0.5)
        g0 = gamma_series(m - 1, 0.0, 1.0, mark, IntervalDistribution(family, 3.0))
        g = gamma_series(m - 1, 0.0, 1.0, mark, IntervalDistribution(family, 1.0))
        got = d_extract(g0 * (1.0 - g).reciprocal(), m - 1)
        expect = _exact_law().AxisLaw(doc, "a").mean_exit_index()
        assert got == pytest.approx(expect, rel=1e-11, abs=0.0)


def _exact_law():
    """perfbench/exact.py, which imports nothing from the package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "exact.py"
    spec = importlib.util.spec_from_file_location("perfbench_exact", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTransformContext:
    def test_neutral(self):
        ctx = TransformContext()
        assert ctx.z == ctx.g == 1.0
        assert ctx.theta0 == ctx.theta1 == ctx.vartheta0 == ctx.vartheta1 == 0.0

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            TransformContext(z=1.2)
        with pytest.raises(DomainError):
            TransformContext(theta0=-0.1)
