"""Model parameter types: intensities, mark distributions, observation intervals.

The model is a pair of compound marked Poisson streams (intensities
``lambda_a``, ``lambda_b``) whose cumulative levels are read off at the epochs
of a delayed renewal observation process.  The first observation interval may
follow a different distribution (and mean) than the subsequent ones.

These types only validate and describe; they need no numpy, so config
loading stays numpy-free.  Drawing from them lives in ``oracle`` and their
series expansions in ``analytics``.

Every record type in the package is a ``collections.namedtuple`` subclass:
cheap to build, and loading no further module at start-up (README,
"Start-up").
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .errors import ConfigError, DomainError

MARK_FAMILIES = ("unit", "fixed", "geometric")
INTERVAL_FAMILIES = ("exponential", "deterministic")


class Validated:
    """Base of a namedtuple record whose ``__new__`` validates: ``_make``,
    and with it ``_replace``, builds through the constructor too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class MarkDistribution(Validated, namedtuple("MarkDistribution", "family value p")):
    """Distribution of the nonnegative integer mark attached to each arrival.

    Families:
      * ``unit`` — every arrival contributes exactly 1: a fixed mark that
        stores ``value`` 1, so readers branch only on geometric or not.
      * ``fixed`` — every arrival contributes the constant ``value``.
      * ``geometric`` — marks on {1, 2, ...} with success probability ``p``,
        and ``value`` 1: only a fixed mark of 0 has ``value`` 0.
    """

    __slots__ = ()

    def __new__(cls, family: str = "unit", value: int = 1, p: float = 0.5):
        if family not in MARK_FAMILIES:
            raise ConfigError(
                f"unsupported mark family {family!r}; "
                f"expected one of {MARK_FAMILIES}"
            )
        if family != "fixed":
            value = 1
        if family == "fixed" and (value < 0 or value != int(value)):
            raise DomainError("fixed mark value must be a nonnegative integer")
        if family == "geometric" and not 0.0 < p <= 1.0:
            raise DomainError("geometric mark parameter p must be in (0, 1]")
        return super().__new__(cls, family, value, p)


def zero_drift(intensity: float, mark: MarkDistribution) -> bool:
    """True when an axis's level never moves: no arrivals, or marks of 0."""
    return intensity == 0.0 or mark.value == 0


class IntervalDistribution(Validated, namedtuple("IntervalDistribution", "family mean")):
    """Distribution of an observation interval (exponential or deterministic)."""

    __slots__ = ()

    def __new__(cls, family: str, mean: float):
        if family not in INTERVAL_FAMILIES:
            raise ConfigError(
                f"unsupported interval family {family!r}; "
                f"expected one of {INTERVAL_FAMILIES}"
            )
        if not mean > 0.0:
            raise DomainError("interval mean must be positive")
        return super().__new__(cls, family, mean)

    def lst(self, theta: float) -> float:
        """Laplace-Stieltjes transform E[exp(-theta * Delta)] at theta >= 0."""
        if theta < 0.0:
            raise DomainError("LST argument theta must be nonnegative")
        if self.family == "exponential":
            return 1.0 / (1.0 + self.mean * theta)
        return math.exp(-theta * self.mean)

    def lst_drop(self, theta: float, step: float) -> float:
        """lst(theta) - lst(theta + step) at theta, step >= 0, formed without
        subtracting the two, so a tiny step keeps its digits."""
        if self.family == "exponential":
            d = self.mean
            return d * step / ((1.0 + d * theta) * (1.0 + d * (theta + step)))
        return -math.exp(-theta * self.mean) * math.expm1(-step * self.mean)


class ModelParams(Validated, namedtuple(
        "ModelParams", "lambda_a lambda_b obs_initial obs_interval mark_a mark_b")):
    """Full parameter set of the two-parameter observed shift model."""

    __slots__ = ()

    def __new__(cls, lambda_a: float, lambda_b: float,
                obs_initial: IntervalDistribution, obs_interval: IntervalDistribution,
                mark_a: MarkDistribution = MarkDistribution(),
                mark_b: MarkDistribution = MarkDistribution()):
        if lambda_a < 0.0 or lambda_b < 0.0:
            raise DomainError("intensities must be nonnegative")
        return super().__new__(cls, lambda_a, lambda_b, obs_initial, obs_interval,
                               mark_a, mark_b)

    def is_memoryless(self) -> bool:
        """True when both observation distributions are exponential."""
        return (
            self.obs_initial.family == "exponential"
            and self.obs_interval.family == "exponential"
        )


class Thresholds(Validated, namedtuple("Thresholds", "m n")):
    """Exceedance levels for the two cumulative decision parameters, as
    whole counts of mark units (an integral float is stored as its int)."""

    __slots__ = ()

    def __new__(cls, m: int, n: int):
        return super().__new__(cls, mark_units("threshold m", m),
                               mark_units("threshold n", n))


def mark_units(name: str, value) -> int:
    """``value`` as a count of mark units, a nonnegative int (an integral float
    reads as its int); anything else is a DomainError naming ``name``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not hasattr(value, "__index__") or value < 0:
        raise DomainError(f"{name} must be a nonnegative integer, got {value!r}")
    return operator.index(value)
