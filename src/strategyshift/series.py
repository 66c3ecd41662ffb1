"""Truncated power-series arithmetic and the discrete extraction operator.

The operator pair of the calculus is multiplication by (1 - x) and its
inverse; the inverse reads coefficient k of F(x) / (1 - x), i.e. the k-th
partial sum of F's coefficients.  Division by (1 - x) is therefore
implemented as cumulative sums, which is exact.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, OrderError


class TruncatedSeries:
    """Dense univariate power series truncated at a fixed order.

    Binary operations keep the smaller operand order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))

    @classmethod
    def constant(cls, value: float, order: int) -> "TruncatedSeries":
        c = np.zeros(order + 1)
        c[0] = value
        return cls(c)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and np.array_equal(
            self.coeffs, other.coeffs
        )

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.coeffs.tolist()})"

    def _coerce(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return other
        return TruncatedSeries.constant(float(other), self.order)

    def __add__(self, other) -> "TruncatedSeries":
        other = self._coerce(other)
        k = min(self.order, other.order) + 1
        return TruncatedSeries(self.coeffs[:k] + other.coeffs[:k])

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(-self.coeffs)

    def __sub__(self, other) -> "TruncatedSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "TruncatedSeries":
        return self._coerce(other) - self

    def __mul__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(self.coeffs * float(other))
        k = min(self.order, other.order) + 1
        return TruncatedSeries(np.convolve(self.coeffs, other.coeffs)[:k])

    __rmul__ = __mul__

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse as a truncated series (needs c0 != 0)."""
        a = self.coeffs
        if a[0] == 0.0:
            raise DomainError("cannot invert a series with zero constant term")
        b = np.zeros_like(a)
        b[0] = 1.0 / a[0]
        for k in range(1, len(a)):
            b[k] = -np.dot(a[1 : k + 1], b[k - 1 :: -1]) / a[0]
        return TruncatedSeries(b)

    def exp(self) -> "TruncatedSeries":
        """Series exponential via the standard derivative recurrence."""
        a = self.coeffs
        e = np.zeros_like(a)
        e[0] = np.exp(a[0])
        ks = np.arange(len(a))
        for k in range(1, len(a)):
            e[k] = np.dot(ks[1 : k + 1] * a[1 : k + 1], e[k - 1 :: -1]) / k
        return TruncatedSeries(e)


class BivariateSeries:
    """Dense bivariate truncated series on a coefficient grid c[j, k]."""

    __slots__ = ("grid",)

    def __init__(self, grid):
        self.grid = np.atleast_2d(np.asarray(grid, dtype=float))

    @classmethod
    def separable(cls, fx: TruncatedSeries, fy: TruncatedSeries) -> "BivariateSeries":
        return cls(np.outer(fx.coeffs, fy.coeffs))

    @property
    def orders(self):
        return self.grid.shape[0] - 1, self.grid.shape[1] - 1


def d_extract(f: TruncatedSeries, k: int) -> float:
    """Coefficient k of F(x) / (1 - x): the k-th partial coefficient sum.

    Returns 0 for negative k; raises OrderError past the retained order.
    """
    if k < 0:
        return 0.0
    if k > f.order:
        raise OrderError(
            f"coefficient {k} requested from a series of order {f.order}"
        )
    return float(np.sum(f.coeffs[: k + 1]))


def d_extract_2d(f: BivariateSeries, mn) -> float:
    """Coefficient (m, n) of F(x, y) / ((1 - x)(1 - y))."""
    m, n = mn
    if m < 0 or n < 0:
        return 0.0
    jmax, kmax = f.orders
    if m > jmax or n > kmax:
        raise OrderError(
            f"coefficient {(m, n)} requested from a grid of orders {(jmax, kmax)}"
        )
    return float(np.sum(f.grid[: m + 1, : n + 1]))
