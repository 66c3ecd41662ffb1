"""Marginal increment transforms as truncated power series.

The marginal transform of one axis is E[z^a * exp(-theta * Delta)] where a is
the compound increment accrued over one observation interval Delta.  By
conditioning on Delta it reduces to the interval LST evaluated at
theta + lambda * (1 - h(z)), with h the mark PGF.  The same composition,
applied with a truncated series in place of the scalar z, yields the
coefficient expansions used by the operator calculus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .params import IntervalDistribution, MarkDistribution
from .series import TruncatedSeries


@dataclass(frozen=True)
class TransformContext:
    """Scalar transform arguments of the joint first-exceedance functional.

    z and g weight the two exit indices; theta0/theta1 the prior and actual
    shift epochs of axis A; vartheta0/vartheta1 those of axis B.
    """

    z: float = 1.0
    g: float = 1.0
    theta0: float = 0.0
    theta1: float = 0.0
    vartheta0: float = 0.0
    vartheta1: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.z <= 1.0 and 0.0 <= self.g <= 1.0):
            raise DomainError("z and g must lie in [0, 1]")
        if min(self.theta0, self.theta1, self.vartheta0, self.vartheta1) < 0.0:
            raise DomainError("exponential transform arguments must be >= 0")

    @classmethod
    def neutral(cls) -> "TransformContext":
        return cls()


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
    power series in x.  Each distinct series is built once per process; the
    returned coefficients are shared and read-only.
    """
    if order < 0:
        raise DomainError("series order must be nonnegative")
    if theta < 0.0:
        raise DomainError("theta must be nonnegative")
    return _gamma_series(order, theta, intensity, mark, interval)


@lru_cache(maxsize=256)
def _gamma_series(order, theta, intensity, mark, interval) -> TruncatedSeries:
    h = TruncatedSeries(mark.pgf_coefficients(order))
    inner = theta + intensity * (1.0 - h)
    if interval.family == "exponential":
        series = (1.0 + interval.mean * inner).reciprocal()
    else:
        series = (-interval.mean * inner).exp()
    series.coeffs.setflags(write=False)
    return series
