"""Truncated power-series arithmetic at one order, and the discrete
extraction operator.

The operator pair of the calculus is multiplication by (1 - x) and its
inverse; the inverse reads coefficient k of F(x) / (1 - x), i.e. the k-th
partial sum of F's coefficients.  Division by (1 - x) is therefore a
partial sum, taken with ``math.fsum`` so that it is correctly rounded: the
roundtrip through (1 - x) loses only the rounding of the differences, not
a second rounding per added term.

The two series kernels are Newton iterations for power series (Brent and
Kung, J. ACM 1978).  Each step doubles the number of correct coefficients
with a few truncated products, so a series of order N costs O(log N) numpy
calls:

  * ``reciprocal``: b <- b - b*(a*b - 1);
  * ``exp``: f <- f*(1 + a - log f), with log f the integral of f' * (1/f)
    and 1/f extended by the reciprocal's step.  The argument is first
    halved until its absolute coefficient sum is at most 1, and the result
    squared back as often.

Every product goes through ``_product``: ``np.convolve`` while the shorter
operand has fewer than FFT_CROSSOVER terms, a real FFT from there on.  So a
product costs O(N^2) multiply-adds below the crossover and O(N log N) above
it, and the kernels O(N log N) in all.

Accuracy.  ``np.convolve`` rounds each coefficient relative to its own
terms: below the crossover ``reciprocal`` keeps O(k) ulps of relative error
on coefficient k, as the recurrence does.  FFT rounding is absolute: a few
ulps of the largest coefficient per log2 of the FFT length.  So above the
crossover a coefficient far below the largest (the tail of a fast-decaying
law) carries that absolute error, not a relative one.  The partial sums of
a series with positive terms, the only thing ``d_extract`` reads, stay
within 4N ulps relative at order N.

On PGF-shaped arguments -c(1 - h), with h the PGF of unit, fixed-2 or
geometric(0.5) marks, ``exp`` agrees with the coefficient-by-coefficient
recurrence to 3.2e-16 absolute (c <= 30, order 2000), and with the
Poisson(c) pmf to 2e-14 up to c = 900, where exp(-c) itself underflows.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

#: Terms in the shorter operand from which a product is formed by FFT.  Full
#: products of two length-n vectors cost the same both ways near n = 512 on
#: a 2-vCPU Xeon VM (numpy 2.4, pocketfft); BENCH_12.json has the timings.
FFT_CROSSOVER = 512


class TruncatedSeries:
    """Dense univariate power series truncated at a fixed order.

    Both operands of ``+`` and ``*`` have the same order; a number adds to
    the constant term or multiplies every term.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return TruncatedSeries(self.coeffs + other.coeffs)
        coeffs = self.coeffs.copy()
        coeffs[0] += other
        return TruncatedSeries(coeffs)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(-self.coeffs)

    def __rsub__(self, other) -> "TruncatedSeries":
        return -self + other

    def __mul__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(self.coeffs * float(other))
        return TruncatedSeries(_product(self.coeffs, other.coeffs, 0, len(self.coeffs)))

    __rmul__ = __mul__

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse as a truncated series (needs c0 != 0)."""
        a = self.coeffs
        if a[0] == 0.0:
            raise DomainError("cannot invert a series with zero constant term")
        return TruncatedSeries(_extend_inverse(a, np.array([1.0 / a[0]])))

    def exp(self) -> "TruncatedSeries":
        """Series exponential by Newton iteration on a scaled argument.

        The argument is halved s times until its absolute coefficient sum is
        at most 1, and the result is squared s times.  Unscaled, Newton's
        running inverse 1/f of a PGF-shaped argument -c(1 - h) has
        alternating coefficients near e^c in size, and the error grows with
        them; squaring a series with non-negative coefficients cancels
        nothing.  exp(a0) is never formed unscaled, so its underflow below
        1e-308 does not zero the whole series.  An argument whose absolute
        coefficient sum overflows cannot be scaled and is refused.
        """
        a = self.coeffs
        with np.errstate(over="ignore"):
            norm = float(np.abs(a).sum())
        if not math.isfinite(norm):
            raise DomainError("series exponential argument is too large")
        s = max(0, math.frexp(norm)[1])
        f = _newton_exp(np.ldexp(a, -s))
        for _ in range(s):
            if not f.any():
                break  # an underflowed series stays zero under squaring
            f = _product(f, f, 0, len(f))
        return TruncatedSeries(f)


def _extend_inverse(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Extend b = 1/a mod x^len(b) to 1/a mod x^len(a).

    Each Newton step b <- b - b*(a*b - 1) doubles the number of correct
    coefficients; a*b - 1 vanishes below x^h, so only its coefficients
    h..2h-1 are formed.
    """
    n, h = len(a), len(b)
    while h < n:
        h2 = min(2 * h, n)
        err = _product(a, b, h, h2)
        b = np.concatenate((b, -_product(b, err, 0, h2 - h)))
        h = h2
    return b


def _newton_exp(a: np.ndarray) -> np.ndarray:
    """exp(a) mod x^len(a) by Newton steps f <- f*(1 + a - log f).

    log f is the integral of f'/f.  With g = 1/f mod x^h (kept up to date
    by ``_extend_inverse``), f'/f = a' + g*(f' - f*a') mod x^(2h-1), and
    f' - f*a' vanishes below x^(h-1).  Accurate while |a|_1 is small.
    """
    n = len(a)
    f = np.array([math.exp(a[0])])
    g = np.array([math.exp(-a[0])])
    da = a[1:] * np.arange(1, n)
    h = 1
    while h < n:
        h2 = min(2 * h, n)
        g = _extend_inverse(f, g)
        # coefficients h-1..h2-2 of f*a'; f' has none there
        r = _product(da, f, h - 1, h2 - 1)
        # coefficients h..h2-1 of a - log f
        t = _product(g, r, 0, h2 - h) / np.arange(h, h2)
        f = np.concatenate((f, _product(f, t, 0, h2 - h)))
        h = h2
    return f


def _product(a: np.ndarray, b: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Coefficients lo..hi-1 of a*b, for hi <= len(a) + len(b) - 1.

    Terms of a and b from x^hi on reach no kept coefficient and are cut
    first; so are the terms of a below x^(lo - len(b) + 1).  When the shorter
    operand has FFT_CROSSOVER terms or more, the product is one real FFT
    per distinct operand and one inverse, over a power-of-two length that
    covers the whole product of the cut operands: a shorter cyclic length
    would fold its high coefficients onto the low ones.  Below that,
    ``np.convolve`` forms the full product of the cut operands.
    """
    square = a is b
    a, b = a[:hi], b[:hi]
    skip = max(0, lo - len(b) + 1)
    a = a[skip:]
    if min(len(a), len(b)) < FFT_CROSSOVER:
        return np.convolve(a, b)[lo - skip : hi - skip]
    size = 1 << (len(a) + len(b) - 2).bit_length()
    fa = np.fft.rfft(a, size)
    fb = fa if square else np.fft.rfft(b, size)
    return np.fft.irfft(fa * fb, size)[lo - skip : hi - skip]


def d_extract(f: TruncatedSeries, k: int) -> float:
    """Coefficient k of F(x) / (1 - x): the k-th partial coefficient sum,
    at k >= 0 (``axis_factor`` refuses a negative order); a DomainError past
    the retained order.
    """
    if k > f.order:
        raise DomainError(
            f"coefficient {k} requested from a series of order {f.order}"
        )
    return math.fsum(f.coeffs[: k + 1])
