from fractions import Fraction

import numpy as np
import pytest

from literal import d_extract_2d, exact_phi_1_1, phi_series
from strategyshift.analytics import (
    DEFAULT_Z_GRID,
    TransformContext,
    axis_factor,
    axis_means,
    gamma_series,
    lemma_note,
    lemma_pgf,
    phi_functional,
)
from strategyshift.errors import DomainError
from strategyshift.params import IntervalDistribution, MarkDistribution, ModelParams
from strategyshift.series import d_extract


def _exp_params(lambda_a=1.0, lambda_b=1.0, d0=1.0, d=1.0):
    return ModelParams(
        lambda_a, lambda_b,
        IntervalDistribution("exponential", d0),
        IntervalDistribution("exponential", d),
    )


#: Deterministic intervals with distinct means and non-unit marks, so both
#: interval families and every mark family but unit reach the series kernel.
DETERMINISTIC_PARAMS = ModelParams(
    1.3, 0.7,
    IntervalDistribution("deterministic", 2.0),
    IntervalDistribution("deterministic", 0.5),
    mark_a=MarkDistribution("geometric", p=0.4),
    mark_b=MarkDistribution("fixed", 2),
)

CONTEXTS = (
    TransformContext(),
    TransformContext(z=0.5, g=0.7, theta1=0.2, vartheta0=0.1),
    TransformContext(z=0.3, g=0.9, theta0=0.4, vartheta1=0.6),
)


def _factor(order, ctx, params, axis):
    if axis == "a":
        return axis_factor(order, ctx.z, ctx.theta0, ctx.theta1, params.lambda_a,
                           params.mark_a, params.obs_initial, params.obs_interval)
    return axis_factor(order, ctx.g, ctx.vartheta0, ctx.vartheta1, params.lambda_b,
                       params.mark_b, params.obs_initial, params.obs_interval)


class TestPhiFunctional:
    def test_zero_intensity_gives_zero(self):
        params = _exp_params(lambda_a=0.0)
        for m, n in [(0, 0), (1, 1), (2, 3)]:
            assert phi_functional(m, n, TransformContext(), params) == 0.0
            # the zero series of the order asked for, as every factor is
            factor = _factor(m, TransformContext(), params, "a")
            assert factor.coeffs.tolist() == [0.0] * (m + 1)

    def test_separability(self, reference_params):
        ctx = TransformContext(z=0.5, g=0.7, theta1=0.2, vartheta0=0.1)
        p = reference_params
        for m in range(4):
            for n in range(4):
                joint = d_extract_2d(phi_series(m, n, ctx, p), (m, n))
                fx = axis_factor(m + 8, ctx.z, ctx.theta0, ctx.theta1,
                                 p.lambda_a, p.mark_a, p.obs_initial, p.obs_interval)
                fy = axis_factor(n + 8, ctx.g, ctx.vartheta0, ctx.vartheta1,
                                 p.lambda_b, p.mark_b, p.obs_initial, p.obs_interval)
                assert abs(joint - d_extract(fx, m) * d_extract(fy, n)) <= 1e-9

    def test_finite_on_reference_grid(self, reference_params):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                value = phi_functional(m, n, TransformContext(), reference_params)
                assert np.isfinite(value)

    @pytest.mark.parametrize("params", [None, DETERMINISTIC_PARAMS],
                             ids=["reference", "deterministic"])
    def test_extraction_needs_order_m_only(self, reference_params, params):
        # a factor of order m extracts the same value at m as one of order
        # m + 40, on both axes, at neutral and non-neutral contexts
        p = params or reference_params
        for ctx in CONTEXTS:
            for k in range(7):
                for axis in ("a", "b"):
                    exact = d_extract(_factor(k, ctx, p, axis), k)
                    wide = d_extract(_factor(k + 40, ctx, p, axis), k)
                    assert abs(exact - wide) <= 1e-12
            for m in range(7):
                for n in range(7):
                    wide = (d_extract(_factor(m + 40, ctx, p, "a"), m)
                            * d_extract(_factor(n + 40, ctx, p, "b"), n))
                    assert abs(phi_functional(m, n, ctx, p) - wide) <= 1e-12

    @pytest.mark.parametrize("params", [None, DETERMINISTIC_PARAMS],
                             ids=["reference", "deterministic"])
    def test_matches_bivariate_extraction(self, reference_params, params):
        # the grid-free product equals the two-dimensional extraction
        p = params or reference_params
        for ctx in CONTEXTS[1:]:
            for m in range(7):
                for n in range(7):
                    joint = d_extract_2d(phi_series(m, n, ctx, p), (m, n))
                    assert abs(phi_functional(m, n, ctx, p) - joint) <= 1e-12

    def test_cached_series_are_read_only(self, reference_params):
        p = reference_params
        g = gamma_series(5, 0.0, p.lambda_a, p.mark_a, p.obs_interval)
        f = _factor(5, CONTEXTS[1], p, "a")
        for series in (g, f):
            with pytest.raises(ValueError):
                series.coeffs[0] = 0.0
        # a repeated request returns the cached series, unchanged
        assert gamma_series(5, 0.0, p.lambda_a, p.mark_a, p.obs_interval) is g
        assert _factor(5, CONTEXTS[1], p, "a") is f

    @pytest.mark.parametrize("lambda_a", [1e-15, 1e-16])
    def test_tiny_drift_matches_exact_evaluation(self, lambda_a):
        # The constant terms of delta - phi and 1 - w G were once formed as
        # differences near 1: 11% off at 1e-15, and 0 (exit 4) at 1e-16.
        params = _exp_params(lambda_a=lambda_a)
        for z in DEFAULT_Z_GRID:
            got = phi_functional(1, 1, TransformContext(z=z), params)
            assert abs(Fraction(got) - exact_phi_1_1(params, z)) <= 1e-30

    def test_negative_order_rejected(self, reference_params):
        # axis_factor holds the one order guard: gamma_series and d_extract
        # are reached only through it.
        p = reference_params
        with pytest.raises(DomainError):
            axis_factor(-1, 1.0, 0.0, 0.0, p.lambda_a, p.mark_a,
                        p.obs_initial, p.obs_interval)

    def test_negative_threshold_rejected(self, reference_params):
        with pytest.raises(DomainError):
            phi_functional(-1, 0, TransformContext(), reference_params)


class TestMarginalPgf:
    # The operator route's single-argument PGF/LST is phi_functional at a
    # context with one non-neutral slot.
    def test_neutral_specialization(self, reference_params):
        neutral = phi_functional(1, 1, TransformContext(), reference_params)
        assert phi_functional(1, 1, TransformContext(z=1.0), reference_params) == (
            pytest.approx(neutral, abs=1e-12))
        assert phi_functional(1, 1, TransformContext(theta1=0.0), reference_params) == (
            pytest.approx(neutral, abs=1e-12))

    def test_pgf_argument_validated(self, reference_params):
        with pytest.raises(DomainError):
            phi_functional(1, 1, TransformContext(z=1.5), reference_params)


def _lemma_literal(z, level, d0, lam, kappa):
    # the printed formula with kappa given explicitly
    base = 1.0 + d0 * lam
    bracket = sum((d0 * lam / base) ** j for j in range(level + 1))
    tail = sum((d0 * lam / (base - z)) ** k for k in range(level + 1))
    return (z + ((1.0 - kappa) / base) * bracket + (kappa / base) * bracket
            - ((1.0 - z) * z / (base - z)) * tail)


class TestLemmaConstants:
    def test_kappa_values(self):
        # kappa = 1 / (lambda (d0 - d)): 0.5 on axis A (lambda 2), 1.0 on B
        params = _exp_params(lambda_a=2.0, d0=2.0, d=1.0)
        for z in (0.0, 0.3, 0.8):
            assert lemma_pgf(z, 2, params, 2.0) == _lemma_literal(z, 2, 2.0, 2.0, 0.5)
            assert lemma_pgf(z, 2, params, 1.0) == _lemma_literal(z, 2, 2.0, 1.0, 1.0)
        # the two kappa brackets cancel up to rounding, which a huge kappa
        # (d0 - d = 2**-30) makes visible: 2**29 on A, 2**30 on B
        near = _exp_params(lambda_a=2.0, d0=2.0, d=2.0 - 2.0**-30)
        for z in (0.3, 0.8):
            for lam, kappa in ((2.0, 2.0**29), (1.0, 2.0**30)):
                value = lemma_pgf(z, 2, near, lam)
                assert value == _lemma_literal(z, 2, 2.0, lam, kappa)
                assert value != _lemma_literal(z, 2, 2.0, lam, 3.0 * kappa)

    def test_equal_means_singular(self):
        assert lemma_note(_exp_params(d0=1.0, d=1.0)) == "singular"
        with pytest.raises(DomainError):
            lemma_pgf(0.5, 1, _exp_params(d0=1.0, d=1.0), 1.0)

    def test_requires_memoryless(self):
        params = ModelParams(
            1.0, 1.0,
            IntervalDistribution("deterministic", 2.0),
            IntervalDistribution("deterministic", 1.0),
        )
        with pytest.raises(DomainError):
            lemma_pgf(0.5, 1, params, 1.0)

    def test_note_labels(self):
        deterministic = ModelParams(
            1.0, 1.0,
            IntervalDistribution("deterministic", 2.0),
            IntervalDistribution("deterministic", 1.0),
        )
        assert lemma_note(deterministic) == (
            "requires memoryless observation intervals")
        assert lemma_note(_exp_params(d0=1.0, d=1.0)) == "singular"
        assert lemma_note(_exp_params(lambda_b=0.0, d0=2.0)) == (
            "no shift predicted")
        assert lemma_note(_exp_params(lambda_a=0.0, d0=2.0)) == (
            "no shift predicted")
        assert lemma_note(_exp_params(d0=2.0, d=1.0)) is None
        # checked in order: memoryless, then d0 = d, then zero intensity
        singular_static = ModelParams(
            0.0, 0.0,
            IntervalDistribution("deterministic", 1.0),
            IntervalDistribution("deterministic", 1.0),
        )
        assert lemma_note(singular_static) == (
            "requires memoryless observation intervals")
        assert lemma_note(_exp_params(lambda_a=0.0)) == "singular"


class TestLemmaPgf:
    @pytest.fixture
    def params(self):
        return _exp_params(d0=2.0, d=1.0)

    def test_endpoints_kill_third_term(self, params):
        # at z in {0, 1} the (1 - z) z tail vanishes, leaving the bracket part
        base = 1.0 + params.obs_initial.mean * params.lambda_a
        ratio = params.obs_initial.mean * params.lambda_a / base
        bracket = sum(ratio**j for j in range(2))
        assert lemma_pgf(0.0, 1, params, params.lambda_a) == pytest.approx(
            bracket / base)
        assert lemma_pgf(1.0, 1, params, params.lambda_a) == pytest.approx(
            1.0 + bracket / base)

    def test_value_logged_case(self, params):
        # frozen value of the literal formula at z = 0.5, m = 1
        assert lemma_pgf(0.5, 1, params, params.lambda_a) == pytest.approx(
            0.87555555555555, abs=1e-10)

    def test_b_side_mirrors_a_side(self, params):
        assert lemma_pgf(0.3, 2, params, params.lambda_b) == pytest.approx(
            lemma_pgf(0.3, 2, params, params.lambda_a))

    def test_argument_domain(self, params):
        for z in (-0.1, 1.1):
            with pytest.raises(DomainError, match="PGF argument"):
                lemma_pgf(z, 1, params, params.lambda_a)


def _index_mean(params, axis="a"):
    return axis_means(params, params.lambda_a if axis == "a" else params.lambda_b)[0]


class TestClosedFormMeans:
    def test_exit_index_values(self):
        assert _index_mean(_exp_params()) == 1.0
        assert _index_mean(_exp_params(lambda_a=0.5, d=2.0)) == 1.0

    def test_shift_time_values(self):
        _, ta, prior_a = axis_means(_exp_params(lambda_a=0.5), 0.5)
        assert ta == 2.0
        assert prior_a == 1.0

    def test_zero_intensity_gives_the_note(self):
        assert _index_mean(_exp_params(lambda_a=0.0)) == "no shift predicted"
        assert _index_mean(_exp_params(lambda_b=0.0), axis="b") == "no shift predicted"

    def test_axis_means_feed_both_axes(self):
        params = _exp_params(lambda_a=0.5, lambda_b=2.0, d0=1.7, d=0.8)
        a, b = axis_means(params, 0.5), axis_means(params, 2.0)
        assert a == (1.0 / (0.8 * 0.5), 1.7 + 2.0 - 0.8, 1.7 + 2.0 - 0.8 - 0.8)
        assert b == (1.0 / (0.8 * 2.0), 1.7 + 0.5 - 0.8, 1.7 + 0.5 - 0.8 - 0.8)
        assert axis_means(params, 0.0) == ("no shift predicted",) * 3

    def test_mean_consistency_identity(self):
        # shift mean minus initial mean equals interval mean times (index mean - 1)
        for la in (0.25, 0.5, 1.0, 2.0):
            for d in (0.5, 1.0, 3.0):
                params = _exp_params(lambda_a=la, lambda_b=la, d0=1.7, d=d)
                e_mu, t_a, _ = axis_means(params, la)
                assert abs((t_a - params.obs_initial.mean) - d * (e_mu - 1.0)) <= 1e-12

    def test_monotone_in_intensity_and_interval(self):
        las = [0.25, 0.5, 1.0, 2.0, 4.0]
        means = [_index_mean(_exp_params(lambda_a=la)) for la in las]
        assert all(a > b for a, b in zip(means, means[1:]))
        ds = [0.5, 1.0, 2.0, 4.0]
        means = [_index_mean(_exp_params(d=d)) for d in ds]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_geometric_oracle_at_unit_threshold(self, reference_params):
        # per-window exceedance is Bernoulli(1/2) at the reference config,
        # so the exit index is 'number of failures' with mean exactly 1
        p_exceed = 0.5
        e_mu = sum(j * (1 - p_exceed) ** j * p_exceed for j in range(200))
        assert _index_mean(reference_params) == pytest.approx(e_mu, abs=1e-9)
