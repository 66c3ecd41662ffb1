import numpy as np
import pytest

from literal import gamma_marginal
from strategyshift import (
    IntervalDistribution,
    MarkDistribution,
    TransformContext,
    gamma_series,
)
from strategyshift.errors import DomainError, UnsupportedConfigurationError

EXP1 = IntervalDistribution.exponential(1.0)
UNIT = MarkDistribution.unit()


class TestLst:
    def test_value_at_zero(self):
        assert IntervalDistribution.exponential(1.0).lst(0.0) == 1.0
        assert IntervalDistribution.deterministic(2.0).lst(0.0) == 1.0

    def test_exponential_closed_form(self):
        assert IntervalDistribution.exponential(1.0).lst(1.0) == 0.5

    def test_exponential_matches_quadrature(self):
        # independent check: integrate exp(-t/mean)/mean * exp(-theta t)
        from scipy.integrate import quad
        mean, theta = 0.7, 1.3
        numeric, _ = quad(lambda t: np.exp(-t / mean) / mean * np.exp(-theta * t),
                          0, np.inf)
        assert IntervalDistribution.exponential(mean).lst(theta) == pytest.approx(
            numeric, abs=1e-10)

    def test_unknown_family(self):
        with pytest.raises(UnsupportedConfigurationError):
            IntervalDistribution("gamma", 1.0)

    def test_monotone_decreasing_and_bounded(self):
        thetas = np.linspace(0.0, 5.0, 21)
        for family, mean in (("exponential", 0.5), ("deterministic", 2.0)):
            interval = IntervalDistribution(family, mean)
            values = [interval.lst(t) for t in thetas]
            assert values[0] == 1.0
            assert all(0.0 < v <= 1.0 for v in values)
            assert all(a > b for a, b in zip(values, values[1:]))


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
        det = IntervalDistribution.deterministic(0.8)
        s = gamma_series(60, 0.2, 1.5, UNIT, det)
        z = 0.4
        approx = np.polynomial.polynomial.polyval(z, s.coeffs)
        assert approx == pytest.approx(gamma_marginal(z, 0.2, 1.5, UNIT, det), abs=1e-10)

    def test_geometric_marks(self):
        mark = MarkDistribution.geometric(0.6)
        s = gamma_series(80, 0.0, 1.0, mark, EXP1)
        z = 0.3
        approx = np.polynomial.polynomial.polyval(z, s.coeffs)
        assert approx == pytest.approx(gamma_marginal(z, 0.0, 1.0, mark, EXP1), abs=1e-10)


class TestTransformContext:
    def test_neutral(self):
        ctx = TransformContext.neutral()
        assert ctx.z == ctx.g == 1.0
        assert ctx.theta0 == ctx.theta1 == ctx.vartheta0 == ctx.vartheta1 == 0.0

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            TransformContext(z=1.2)
        with pytest.raises(DomainError):
            TransformContext(theta0=-0.1)
