import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from literal import d_apply, d_apply_2d
from strategyshift import BivariateSeries, TruncatedSeries, d_extract, d_extract_2d
from strategyshift.errors import DomainError, OrderError


def geometric_series(beta, alpha, order):
    """beta / (1 - alpha x) through ``order``, by the series reciprocal."""
    c = np.zeros(order + 1)
    c[:2] = 1.0, -alpha
    return beta * TruncatedSeries(c).reciprocal()


class TestTruncatedSeries:
    def test_multiplication_truncates_to_min_order(self):
        a = TruncatedSeries([1.0, 2.0, 3.0, 4.0])
        b = TruncatedSeries([1.0, 1.0])
        assert (a * b).order == 1
        assert np.allclose((a * b).coeffs, [1.0, 3.0])

    def test_mul_commutative_associative(self, rng):
        a = TruncatedSeries(rng.normal(size=9))
        b = TruncatedSeries(rng.normal(size=9))
        c = TruncatedSeries(rng.normal(size=9))
        assert np.allclose((a * b).coeffs, (b * a).coeffs, atol=1e-12)
        assert np.allclose(((a * b) * c).coeffs, (a * (b * c)).coeffs, atol=1e-12)

    def test_reciprocal_roundtrip(self, rng):
        coeffs = rng.normal(size=12)
        coeffs[0] = 2.0
        a = TruncatedSeries(coeffs)
        prod = a * a.reciprocal()
        expect = np.zeros(12)
        expect[0] = 1.0
        assert np.allclose(prod.coeffs, expect, atol=1e-12)

    def test_reciprocal_needs_nonzero_constant(self):
        with pytest.raises(DomainError):
            TruncatedSeries([0.0, 1.0]).reciprocal()

    def test_exp_matches_exponential_expansion(self):
        # exp(x) coefficients 1/k!
        e = TruncatedSeries([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]).exp()
        expect = [1.0 / math.factorial(k) for k in range(6)]
        assert np.allclose(e.coeffs, expect)

    def test_scalar_arithmetic(self):
        a = TruncatedSeries([1.0, 2.0])
        assert np.array_equal((1.0 - a).coeffs, [0.0, -2.0])
        assert np.array_equal((2.0 * a).coeffs, [2.0, 4.0])


class TestGeometricSeries:
    # The reciprocal against the closed form beta * alpha**k.

    def test_degenerate_ratio(self):
        s = geometric_series(1.0, 0.0, 4)
        assert np.array_equal(s.coeffs, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_direct_powers(self):
        s = geometric_series(0.5, 0.5, 2)
        assert np.allclose(s.coeffs, [0.5, 0.25, 0.125])

    def test_high_order_sum_matches_closed_form(self):
        beta, alpha = 0.7, 0.6
        s = geometric_series(beta, alpha, 200)
        assert abs(s.coeffs.sum() - beta / (1.0 - alpha)) < 1e-9


class TestOperatorPair:
    def test_constant_sequence_telescopes(self):
        s = d_apply([1.0] * 6)
        assert s.coeffs[0] == 1.0
        assert np.allclose(s.coeffs[1:6], 0.0)

    def test_small_sequence(self):
        s = d_apply([2.0, 5.0, 7.0])
        assert np.array_equal(s.coeffs, [2.0, 3.0, 2.0, -7.0])

    def test_empty_sequence(self):
        assert np.array_equal(d_apply([]).coeffs, [0.0])

    def test_extract_all_ones(self):
        f = TruncatedSeries.constant(1.0, 5)
        assert d_extract(f, 3) == 1.0

    def test_extract_monomial_tail(self):
        f = TruncatedSeries([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        assert d_extract(f, 1) == 0.0
        assert d_extract(f, 5) == 1.0

    def test_extract_negative_index_is_zero(self):
        assert d_extract(TruncatedSeries([1.0]), -2) == 0.0

    def test_extract_past_order_raises(self):
        with pytest.raises(OrderError):
            d_extract(TruncatedSeries([1.0, 1.0]), 5)

    def test_roundtrip_identity(self):
        assert d_extract(d_apply([2.0, 5.0, 7.0]), 1) == 5.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=32))
    def test_roundtrip_property(self, g):
        f = d_apply(g)
        for k, value in enumerate(g):
            assert d_extract(f, k) == pytest.approx(value, abs=1e-9 * max(1, abs(value)))


class TestBivariate:
    def test_separable_equals_product_of_extractions(self, rng):
        fx = TruncatedSeries(rng.normal(size=6))
        fy = TruncatedSeries(rng.normal(size=6))
        f = BivariateSeries.separable(fx, fy)
        for m in range(4):
            for n in range(4):
                assert d_extract_2d(f, (m, n)) == pytest.approx(
                    d_extract(fx, m) * d_extract(fy, n), abs=1e-12
                )

    def test_constant_grid(self):
        f = BivariateSeries(np.zeros((4, 4)))
        f.grid[0, 0] = 1.0
        assert d_extract_2d(f, (3, 2)) == 1.0

    def test_roundtrip_2d(self, rng):
        g = rng.normal(size=(8, 8))
        f = d_apply_2d(g)
        for j in range(8):
            for k in range(8):
                assert d_extract_2d(f, (j, k)) == pytest.approx(g[j, k], abs=1e-9)

    def test_extract_past_orders_raises(self, rng):
        f = BivariateSeries(rng.normal(size=(3, 3)))
        with pytest.raises(OrderError):
            d_extract_2d(f, (5, 1))
