"""Marginal increment transforms as truncated power series.

The marginal transform of one axis is E[z^a * exp(-theta * Delta)] where a is
the compound increment accrued over one observation interval Delta.  By
conditioning on Delta it reduces to the interval LST evaluated at
theta + lambda * (1 - h(z)), with h the mark PGF.  The same composition,
applied with a truncated series in place of the scalar z, yields the
coefficient expansions used by the operator calculus.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .params import IntervalDistribution, MarkDistribution, Validated
from .series import TruncatedSeries


class TransformContext(Validated, namedtuple(
        "TransformContext", "z g theta0 theta1 vartheta0 vartheta1")):
    """Scalar transform arguments of the joint first-exceedance functional.

    z and g weight the two exit indices; theta0/theta1 the prior and actual
    shift epochs of axis A; vartheta0/vartheta1 those of axis B.
    """

    __slots__ = ()

    def __new__(cls, z: float = 1.0, g: float = 1.0, theta0: float = 0.0,
                theta1: float = 0.0, vartheta0: float = 0.0, vartheta1: float = 0.0):
        if not (0.0 <= z <= 1.0 and 0.0 <= g <= 1.0):
            raise DomainError("z and g must lie in [0, 1]")
        if min(theta0, theta1, vartheta0, vartheta1) < 0.0:
            raise DomainError("exponential transform arguments must be >= 0")
        return super().__new__(cls, z, g, theta0, theta1, vartheta0, vartheta1)


def gamma_series(
    order: int,
    theta: float,
    intensity: float,
    mark: MarkDistribution,
    interval: IntervalDistribution,
) -> TruncatedSeries:
    """The marginal transform of one axis with a formal series variable x
    in the z slot.

    Expands the interval LST at theta + lambda * (1 - h(x)) as a truncated
    power series in x.  An interval mean times intensity that overflows
    leaves a non-finite series argument, which is refused.  Each distinct
    series is built once per process; the returned coefficients are shared
    and read-only.
    """
    if order < 0:
        raise DomainError("series order must be nonnegative")
    if theta < 0.0:
        raise DomainError("theta must be nonnegative")
    return _gamma_series(order, theta, intensity, mark, interval)


@lru_cache(maxsize=256)
def _gamma_series(order, theta, intensity, mark, interval) -> TruncatedSeries:
    h = TruncatedSeries(_pgf_coefficients(mark, order))
    with np.errstate(over="ignore"):
        arg = interval.mean * (theta + intensity * (1.0 - h))
    if not np.isfinite(arg.coeffs).all():
        raise DomainError("interval mean times intensity overflows the series argument")
    if interval.family == "exponential":
        series = (1.0 + arg).reciprocal()
    else:
        series = (-arg).exp()
    series.coeffs.setflags(write=False)
    return series


def _pgf_coefficients(mark: MarkDistribution, order: int) -> np.ndarray:
    """Power-series coefficients of the mark PGF up to ``order``."""
    c = np.zeros(order + 1)
    if mark.family == "geometric":
        q = 1.0 - mark.p
        k = np.arange(1, order + 1)
        c[1:] = mark.p * q ** (k - 1)
    elif mark.value <= order:
        c[mark.value] = 1.0
    return c
