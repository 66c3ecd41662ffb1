import numpy as np
import pytest

from strategyshift import (
    IntervalDistribution,
    LemmaConstants,
    MarkDistribution,
    ModelParams,
    TransformContext,
    d_extract,
    expected_exit_index,
    expected_shift_time,
    lemma_pgf_a,
    lemma_pgf_b,
    marginal_pgf,
    phi_functional,
)
from strategyshift.analytics import (
    axis_factor,
    axis_means,
    lemma_constants_or_note,
    phi_series,
)
from strategyshift.errors import DomainError, NoExitError, SingularConstantError
from strategyshift.series import d_extract_2d
from strategyshift.transforms import gamma_series


def _exp_params(lambda_a=1.0, lambda_b=1.0, d0=1.0, d=1.0):
    return ModelParams(
        lambda_a, lambda_b,
        IntervalDistribution.exponential(d0),
        IntervalDistribution.exponential(d),
    )


#: Deterministic intervals with distinct means and non-unit marks, so both
#: interval families and every mark family but unit reach the series kernel.
DETERMINISTIC_PARAMS = ModelParams(
    1.3, 0.7,
    IntervalDistribution.deterministic(2.0),
    IntervalDistribution.deterministic(0.5),
    mark_a=MarkDistribution.geometric(0.4),
    mark_b=MarkDistribution.fixed(2),
)

CONTEXTS = (
    TransformContext.neutral(),
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
            assert phi_functional(m, n, TransformContext.neutral(), params) == 0.0

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
                value = phi_functional(m, n, TransformContext.neutral(), reference_params)
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

    def test_negative_order_rejected(self, reference_params):
        p = reference_params
        with pytest.raises(DomainError):
            gamma_series(-1, 0.0, p.lambda_a, p.mark_a, p.obs_interval)
        with pytest.raises(DomainError):
            axis_factor(-1, 1.0, 0.0, 0.0, p.lambda_a, p.mark_a,
                        p.obs_initial, p.obs_interval)

    def test_negative_threshold_rejected(self, reference_params):
        with pytest.raises(DomainError):
            phi_functional(-1, 0, TransformContext.neutral(), reference_params)


class TestMarginalPgf:
    def test_neutral_specialization(self, reference_params):
        neutral = phi_functional(1, 1, TransformContext.neutral(), reference_params)
        assert marginal_pgf("index_a", 1.0, 1, 1, reference_params) == pytest.approx(
            neutral, abs=1e-12
        )
        assert marginal_pgf("shift_a", 0.0, 1, 1, reference_params) == pytest.approx(
            neutral, abs=1e-12
        )

    def test_unknown_marginal(self, reference_params):
        with pytest.raises(DomainError):
            marginal_pgf("bogus", 0.5, 1, 1, reference_params)

    def test_pgf_argument_validated(self, reference_params):
        with pytest.raises(DomainError):
            marginal_pgf("index_a", 1.5, 1, 1, reference_params)


class TestLemmaConstants:
    def test_kappa_values(self):
        c = LemmaConstants.from_params(_exp_params(lambda_a=2.0, d0=2.0, d=1.0))
        assert c.kappa == pytest.approx(0.5)
        assert c.kappa1 == pytest.approx(1.0)

    def test_equal_means_singular(self):
        with pytest.raises(SingularConstantError):
            LemmaConstants.from_params(_exp_params(d0=1.0, d=1.0))

    def test_requires_memoryless(self):
        params = ModelParams(
            1.0, 1.0,
            IntervalDistribution.deterministic(2.0),
            IntervalDistribution.deterministic(1.0),
        )
        with pytest.raises(DomainError):
            LemmaConstants.from_params(params)

    def test_note_labels(self):
        deterministic = ModelParams(
            1.0, 1.0,
            IntervalDistribution.deterministic(2.0),
            IntervalDistribution.deterministic(1.0),
        )
        assert lemma_constants_or_note(deterministic) == (
            "requires memoryless observation intervals")
        assert lemma_constants_or_note(_exp_params(d0=1.0, d=1.0)) == "singular"
        assert lemma_constants_or_note(_exp_params(lambda_b=0.0, d0=2.0)) == (
            "no shift predicted")
        constants = lemma_constants_or_note(_exp_params(d0=2.0, d=1.0))
        assert constants == LemmaConstants.from_params(_exp_params(d0=2.0, d=1.0))


class TestLemmaPgf:
    @pytest.fixture
    def constants(self):
        return LemmaConstants.from_params(_exp_params(d0=2.0, d=1.0))

    def test_endpoints_kill_third_term(self, constants):
        # at z in {0, 1} the (1 - z) z tail vanishes, leaving the bracket part
        base = 1.0 + constants.delta0_mean * constants.lambda_a
        ratio = constants.delta0_mean * constants.lambda_a / base
        bracket = sum(ratio**j for j in range(2))
        assert lemma_pgf_a(0.0, 1, constants) == pytest.approx(bracket / base)
        assert lemma_pgf_a(1.0, 1, constants) == pytest.approx(1.0 + bracket / base)

    def test_value_logged_case(self, constants):
        # frozen value of the literal formula at z = 0.5, m = 1
        assert lemma_pgf_a(0.5, 1, constants) == pytest.approx(0.87555555555555, abs=1e-10)

    def test_b_side_mirrors_a_side(self):
        sym = LemmaConstants.from_params(_exp_params(d0=2.0, d=1.0))
        assert lemma_pgf_b(0.3, 2, sym) == pytest.approx(lemma_pgf_a(0.3, 2, sym))

    def test_argument_domain(self, constants):
        with pytest.raises(DomainError):
            lemma_pgf_a(-0.1, 1, constants)


class TestClosedFormMeans:
    def test_exit_index_values(self):
        assert expected_exit_index(_exp_params())[0] == 1.0
        assert expected_exit_index(_exp_params(lambda_a=0.5, d=2.0))[0] == 1.0

    def test_shift_time_values(self):
        ta, _, prior_a, _ = expected_shift_time(_exp_params(lambda_a=0.5))
        assert ta == 2.0
        assert prior_a == 1.0

    def test_zero_intensity_rejected(self):
        with pytest.raises(NoExitError):
            expected_exit_index(_exp_params(lambda_a=0.0))
        with pytest.raises(NoExitError):
            expected_shift_time(_exp_params(lambda_b=0.0))

    def test_axis_means_feed_both_axes(self):
        params = _exp_params(lambda_a=0.5, lambda_b=2.0, d0=1.7, d=0.8)
        a, b = axis_means(params, 0.5), axis_means(params, 2.0)
        assert expected_exit_index(params) == (a[0], b[0])
        assert expected_shift_time(params) == (a[1], b[1], a[2], b[2])
        assert a == (1.0 / (0.8 * 0.5), 1.7 + 2.0 - 0.8, 1.7 + 2.0 - 0.8 - 0.8)
        with pytest.raises(NoExitError):
            axis_means(params, 0.0)

    def test_mean_consistency_identity(self):
        # shift mean minus initial mean equals interval mean times (index mean - 1)
        for la in (0.25, 0.5, 1.0, 2.0):
            for d in (0.5, 1.0, 3.0):
                params = _exp_params(lambda_a=la, lambda_b=la, d0=1.7, d=d)
                e_mu, _ = expected_exit_index(params)
                t_a, _, _, _ = expected_shift_time(params)
                assert abs((t_a - params.delta0_mean) - d * (e_mu - 1.0)) <= 1e-12

    def test_monotone_in_intensity_and_interval(self):
        las = [0.25, 0.5, 1.0, 2.0, 4.0]
        means = [expected_exit_index(_exp_params(lambda_a=la))[0] for la in las]
        assert all(a > b for a, b in zip(means, means[1:]))
        ds = [0.5, 1.0, 2.0, 4.0]
        means = [expected_exit_index(_exp_params(d=d))[0] for d in ds]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_geometric_oracle_at_unit_threshold(self, reference_params):
        # per-window exceedance is Bernoulli(1/2) at the reference config,
        # so the exit index is 'number of failures' with mean exactly 1
        p_exceed = 0.5
        e_mu = sum(j * (1 - p_exceed) ** j * p_exceed for j in range(200))
        assert expected_exit_index(reference_params)[0] == pytest.approx(e_mu, abs=1e-9)
