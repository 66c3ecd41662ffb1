import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from literal import BivariateSeries, d_apply, d_apply_2d, d_extract_2d, series_exp
from strategyshift.errors import DomainError
from strategyshift import series
from strategyshift.series import FFT_CROSSOVER, TruncatedSeries, d_extract


EPS = np.finfo(float).eps

#: A drawn list, zeros beside entries near 1e6, on which a partial sum that
#: rounds once per term loses the roundtrip of coefficient 23 by 1.2e-9.
ZEROS_BESIDE_LARGE = [
    0.0, 0.0, -1.3325576713541523, 722348.9972153385, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.0, 0.0, 951848.1678515677, 430713.0, 0.001, 0.0, -524287.2695457275, 0.0,
    -410875.0, 637703.1131425232, 422954.94648429984, 93576.0, 0.0, 0.0,
    -1.2952120357658714, 0.0]


def poisson_pmf(c, order):
    """Poisson(c) probabilities of 0..order, through lgamma."""
    return np.array([math.exp(k * math.log(c) - c - math.lgamma(k + 1))
                     for k in range(order + 1)])


def compound_exponent(c, mark, order):
    """-c (1 - h(x)) for the PGF h of unit, fixed-2 or geometric(0.5) marks."""
    a = np.zeros(order + 1)
    if mark == "unit":
        a[1] = c
    elif mark == "fixed2":
        a[2] = c
    else:
        a[1:] = c * 0.5 ** np.arange(1, order + 1)
    a[0] = -c
    return a


def geometric_series(beta, alpha, order):
    """beta / (1 - alpha x) through ``order``, by the series reciprocal."""
    c = np.zeros(order + 1)
    c[:2] = 1.0, -alpha
    return beta * TruncatedSeries(c).reciprocal()


class TestTruncatedSeries:
    def test_sum_and_product_keep_the_order(self):
        # Both operands have one order; a number adds to the constant term.
        a = TruncatedSeries([1.0, 2.0, 3.0, 4.0])
        b = TruncatedSeries([1.0, 1.0, 0.0, 0.0])
        assert np.array_equal((a * b).coeffs, [1.0, 3.0, 5.0, 7.0])
        assert np.array_equal((a + b).coeffs, [2.0, 3.0, 3.0, 4.0])
        assert np.array_equal((0.5 + a).coeffs, [1.5, 2.0, 3.0, 4.0])
        assert np.array_equal((a + 0.5).coeffs, (0.5 + a).coeffs)
        assert a.coeffs.tolist() == [1.0, 2.0, 3.0, 4.0]

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
        for coeffs in ([0.0], [0.0, 1.0]):
            with pytest.raises(DomainError):
                TruncatedSeries(coeffs).reciprocal()

    def test_exp_matches_exponential_expansion(self):
        # exp(x) coefficients 1/k!
        e = TruncatedSeries([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]).exp()
        expect = [1.0 / math.factorial(k) for k in range(6)]
        assert np.allclose(e.coeffs, expect)

    def test_scalar_arithmetic(self):
        a = TruncatedSeries([1.0, 2.0])
        assert np.array_equal((1.0 - a).coeffs, [0.0, -2.0])
        assert np.array_equal((2.0 * a).coeffs, [2.0, 4.0])


class TestNewtonKernels:
    # Accuracy of reciprocal and exp against closed forms and the
    # coefficient-by-coefficient recurrence, at the orders the config allows.

    @pytest.mark.parametrize("order", [300, 2000, 20000])
    @pytest.mark.parametrize("c", [1.0, 1000.0])
    def test_reciprocal_geometric_closed_form(self, c, order):
        coeffs = np.zeros(order + 1)
        coeffs[:2] = 1.0 + c, -c
        got = TruncatedSeries(coeffs).reciprocal().coeffs
        expect = (c / (1.0 + c)) ** np.arange(order + 1) / (1.0 + c)
        # The closed form is a sum of positive terms, so its partial sums (all
        # d_extract reads) keep the relative accuracy of the recurrence.
        np.testing.assert_allclose(np.cumsum(got), np.cumsum(expect),
                                   rtol=4 * order * EPS, atol=0.0)
        if order < FFT_CROSSOVER:
            # every product is an np.convolve: term k of a geometric
            # sequence carries O(k) ulps of rounding
            np.testing.assert_allclose(got, expect, rtol=4 * order * EPS, atol=0.0)
        else:
            # FFT rounding is absolute: ulps of the largest coefficient per
            # log2 of the FFT length (at most that of a full product of two
            # order-N series), summed over the Newton steps.  Measured: at
            # most 16 such units, at c = 1000 and order 2000.
            log2_length = (2 * order).bit_length()
            bound = 32 * expect.max() * log2_length * EPS
            np.testing.assert_allclose(got, expect, rtol=0.0, atol=bound)

    @pytest.mark.parametrize("c", [0.5, 3.0, 30.0])
    @pytest.mark.parametrize("mark", ["unit", "fixed2", "geometric"])
    def test_exp_matches_recurrence(self, mark, c):
        a = compound_exponent(c, mark, 2000)
        got = TruncatedSeries(a).exp().coeffs
        np.testing.assert_allclose(got, series_exp(a), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("c", [0.5, 3.0, 30.0])
    @pytest.mark.parametrize("mark", ["unit", "fixed2"])
    def test_exp_matches_poisson(self, mark, c):
        order = 2000
        got = TruncatedSeries(compound_exponent(c, mark, order)).exp().coeffs
        expect = np.zeros(order + 1)
        step = 1 if mark == "unit" else 2
        expect[::step] = poisson_pmf(c, order // step)
        np.testing.assert_allclose(got, expect, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("c", [300.0, 900.0])
    def test_exp_of_large_mean_does_not_underflow(self, c):
        # exp(-c) underflows at c > 745; the series must not be zeroed by it.
        got = TruncatedSeries(compound_exponent(c, "unit", 1500)).exp().coeffs
        np.testing.assert_allclose(got, poisson_pmf(c, 1500), rtol=0.0, atol=1e-13)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("a0", [0.0, 2.5, -3.0, -700.0])
    def test_short_series(self, a0):
        e = math.exp(a0)
        np.testing.assert_allclose(TruncatedSeries([a0]).exp().coeffs, [e], rtol=1e-12)
        np.testing.assert_allclose(
            TruncatedSeries([a0, 1.5]).exp().coeffs, [e, 1.5 * e], rtol=1e-12)
        b0 = a0 + 0.5
        assert TruncatedSeries([b0]).reciprocal().coeffs.tolist() == [1.0 / b0]
        np.testing.assert_allclose(
            TruncatedSeries([b0, 1.5]).reciprocal().coeffs,
            [1.0 / b0, -1.5 / b0**2], rtol=4 * EPS)

    def test_kernels_make_logarithmically_many_products(self, monkeypatch):
        # A coefficient-by-coefficient loop makes ~20,000 products here, or
        # none through the product helper; either fails.
        calls = []
        product = series._product

        def counting(*args):
            calls.append(1)
            return product(*args)

        monkeypatch.setattr(series, "_product", counting)
        order = 20000
        coeffs = np.zeros(order + 1)
        coeffs[:2] = 4.0, -3.0
        TruncatedSeries(coeffs).reciprocal()
        assert 0 < len(calls) <= 100
        calls.clear()
        TruncatedSeries(compound_exponent(3.0, "unit", order)).exp()
        assert 0 < len(calls) <= 100

    def test_exp_stops_squaring_once_it_underflows(self, monkeypatch):
        # At c = 1e300 the argument is halved 998 times, but the Poisson(c)
        # pmf through order 200 is zero after about a dozen squarings; each
        # further square would be one more product of zeros.
        calls = []
        product = series._product

        def counting(*args):
            calls.append(1)
            return product(*args)

        monkeypatch.setattr(series, "_product", counting)
        got = TruncatedSeries(compound_exponent(1e300, "unit", 200)).exp()
        assert not got.coeffs.any()
        assert 0 < len(calls) <= 100


class TestProduct:
    # The product helper against the full np.convolve product, on both
    # sides of the FFT crossover.

    @pytest.mark.parametrize("len_a, len_b, lo, hi", [
        (1, 1, 0, 1),
        (1, 700, 0, 700),
        (9, 4, 0, 9),
        (9, 4, 3, 12),
        (64, 64, 0, 64),
        (127, 64, 64, 127),
        (127, 64, 63, 126),
        (FFT_CROSSOVER, FFT_CROSSOVER, 0, FFT_CROSSOVER),
        (2 * FFT_CROSSOVER - 1, FFT_CROSSOVER, FFT_CROSSOVER, 2 * FFT_CROSSOVER - 1),
        (2 * FFT_CROSSOVER, FFT_CROSSOVER - 1, 0, 3 * FFT_CROSSOVER - 2),
        # a full product whose top index, 2 * FFT_CROSSOVER, is a power of two
        (FFT_CROSSOVER + 1, FFT_CROSSOVER + 1, 0, 2 * FFT_CROSSOVER + 1),
        (3000, 700, 0, 3000),
        (700, 3000, 1000, 2500),
        (3000, 3000, 2999, 3000),
    ])
    def test_matches_convolve(self, rng, len_a, len_b, lo, hi):
        a, b = rng.normal(size=len_a), rng.normal(size=len_b)
        assert_product(series._product(a, b, lo, hi), a, b, lo, hi)

    @pytest.mark.parametrize("n", [1, 2, 7, FFT_CROSSOVER - 1, FFT_CROSSOVER, 3001])
    def test_square_is_the_truncated_product(self, rng, n):
        f = rng.random(n)
        assert_product(series._product(f, f, 0, n), f, f, 0, n)


def assert_product(got, a, b, lo, hi):
    """``got`` is coefficients lo..hi-1 of a*b: exactly as np.convolve forms
    them below the crossover, and above it within FFT rounding, which is
    absolute: a few ulps of the largest possible coefficient per log2 of
    the FFT length."""
    full = np.convolve(a, b)
    assert len(got) == hi - lo
    if min(len(a), len(b), hi) < FFT_CROSSOVER:
        assert np.array_equal(got, full[lo:hi])
    else:
        largest = np.abs(a).max() * np.abs(b).max() * min(len(a), len(b))
        bound = 4 * largest * (len(a) + len(b)).bit_length() * EPS
        np.testing.assert_allclose(got, full[lo:hi], rtol=0.0, atol=bound)


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
        f = TruncatedSeries([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert d_extract(f, 3) == 1.0

    def test_extract_monomial_tail(self):
        f = TruncatedSeries([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        assert d_extract(f, 1) == 0.0
        assert d_extract(f, 5) == 1.0

    def test_extract_past_order_raises(self):
        with pytest.raises(DomainError, match="coefficient 5"):
            d_extract(TruncatedSeries([1.0, 1.0]), 5)

    def test_roundtrip_identity(self):
        assert d_extract(d_apply([2.0, 5.0, 7.0]), 1) == 5.0

    def test_extract_is_the_correctly_rounded_partial_sum(self):
        f = d_apply(ZEROS_BESIDE_LARGE)
        for k in range(f.order + 1):
            exact = sum(map(Fraction, f.coeffs[: k + 1]))
            assert d_extract(f, k) == float(exact), k

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=32))
    @example(g=ZEROS_BESIDE_LARGE)
    def test_roundtrip_property(self, g):
        assert_roundtrip(g)

    def test_roundtrip_bound_on_large_alternating_lists(self):
        # The family on which a fixed bound of 1e-9 failed 0.09% of the time:
        # 32 entries of alternating sign, sizes in [5e5, 1e6], a final 0, so
        # every difference d_apply rounds is 1e6 to 2e6 in size.
        rng = np.random.default_rng(16)
        signs = (-1.0) ** np.arange(32)
        for _ in range(2000):
            g = signs * rng.uniform(5e5, 1e6, size=32)
            g[-1] = 0.0
            assert_roundtrip(g)


def assert_roundtrip(g):
    """d_extract(d_apply(g), k) gives g[k] back within the rounding the pair
    performs: d_apply rounds each difference g[j] - g[j-1] once and fsum
    rounds the partial sum once, so with u = 2**-53 the error is at most
    u * (|g[k]| + sum over j = 1..k of |g[j] - g[j-1]|), up to terms in u**2;
    the bound below doubles that."""
    u = 2.0 ** -53
    f = d_apply(g)
    for k, value in enumerate(g):
        variation = math.fsum(abs(g[j] - g[j - 1]) for j in range(1, k + 1))
        assert abs(d_extract(f, k) - value) <= 2 * u * (abs(value) + variation), k


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
        with pytest.raises(DomainError, match="coefficient"):
            d_extract_2d(f, (5, 1))
