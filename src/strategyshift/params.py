"""Model parameter types: intensities, mark distributions, observation intervals.

The model is a pair of compound marked Poisson streams (intensities
``lambda_a``, ``lambda_b``) whose cumulative levels are read off at the epochs
of a delayed renewal observation process.  The first observation interval may
follow a different distribution (and mean) than the subsequent ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError, UnsupportedConfigurationError

MARK_FAMILIES = ("unit", "fixed", "geometric")
INTERVAL_FAMILIES = ("exponential", "deterministic")


@dataclass(frozen=True)
class MarkDistribution:
    """Distribution of the nonnegative integer mark attached to each arrival.

    Families:
      * ``unit`` — every arrival contributes exactly 1 (counting process).
      * ``fixed`` — every arrival contributes the constant ``value``.
      * ``geometric`` — marks on {1, 2, ...} with success probability ``p``.
    """

    family: str = "unit"
    value: int = 1
    p: float = 0.5

    def __post_init__(self):
        if self.family not in MARK_FAMILIES:
            raise UnsupportedConfigurationError(
                f"unsupported mark family {self.family!r}; "
                f"expected one of {MARK_FAMILIES}"
            )
        if self.family == "fixed" and (self.value < 0 or self.value != int(self.value)):
            raise ParameterError("fixed mark value must be a nonnegative integer")
        if self.family == "geometric" and not 0.0 < self.p <= 1.0:
            raise ParameterError("geometric mark parameter p must be in (0, 1]")

    @classmethod
    def unit(cls) -> "MarkDistribution":
        return cls(family="unit")

    @classmethod
    def fixed(cls, value: int) -> "MarkDistribution":
        return cls(family="fixed", value=value)

    @classmethod
    def geometric(cls, p: float) -> "MarkDistribution":
        return cls(family="geometric", p=p)

    def mean(self) -> float:
        if self.family == "unit":
            return 1.0
        if self.family == "fixed":
            return float(self.value)
        return 1.0 / self.p

    def pgf_coefficients(self, order: int) -> np.ndarray:
        """Power-series coefficients of the mark PGF up to ``order``."""
        c = np.zeros(order + 1)
        if self.family == "unit":
            if order >= 1:
                c[1] = 1.0
        elif self.family == "fixed":
            if self.value <= order:
                c[self.value] = 1.0
        else:
            q = 1.0 - self.p
            k = np.arange(1, order + 1)
            c[1:] = self.p * q ** (k - 1)
        return c

    def sample_totals(self, rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
        """Sum of ``counts[i]`` independent marks, for each entry of ``counts``."""
        counts = np.asarray(counts)
        if self.family == "unit":
            return counts.astype(np.int64)
        if self.family == "fixed":
            return self.value * counts.astype(np.int64)
        out = np.zeros(counts.shape, dtype=np.int64)
        nz = counts > 0
        if np.any(nz):
            # sum of c iid Geometric(p) on {1,2,...} = c + NegBinomial(c, p)
            out[nz] = counts[nz] + rng.negative_binomial(counts[nz], self.p)
        return out


@dataclass(frozen=True)
class IntervalDistribution:
    """Distribution of an observation interval (exponential or deterministic)."""

    family: str
    mean: float

    def __post_init__(self):
        if self.family not in INTERVAL_FAMILIES:
            raise UnsupportedConfigurationError(
                f"unsupported interval family {self.family!r}; "
                f"expected one of {INTERVAL_FAMILIES}"
            )
        if not self.mean > 0.0:
            raise ParameterError("interval mean must be positive")

    @classmethod
    def exponential(cls, mean: float) -> "IntervalDistribution":
        return cls("exponential", mean)

    @classmethod
    def deterministic(cls, mean: float) -> "IntervalDistribution":
        return cls("deterministic", mean)

    def lst(self, theta: float) -> float:
        """Laplace-Stieltjes transform E[exp(-theta * Delta)] at theta >= 0."""
        if theta < 0.0:
            raise DomainError("LST argument theta must be nonnegative")
        if self.family == "exponential":
            return 1.0 / (1.0 + self.mean * theta)
        return float(np.exp(-theta * self.mean))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.family == "exponential":
            return rng.exponential(self.mean, size)
        return np.full(size, self.mean)


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of the two-parameter observed shift model."""

    lambda_a: float
    lambda_b: float
    obs_initial: IntervalDistribution
    obs_interval: IntervalDistribution
    mark_a: MarkDistribution = field(default_factory=MarkDistribution.unit)
    mark_b: MarkDistribution = field(default_factory=MarkDistribution.unit)

    def __post_init__(self):
        if self.lambda_a < 0.0 or self.lambda_b < 0.0:
            raise ParameterError("intensities must be nonnegative")

    @property
    def delta0_mean(self) -> float:
        """Mean of the first observation interval."""
        return self.obs_initial.mean

    @property
    def delta_mean(self) -> float:
        """Mean of the subsequent observation intervals."""
        return self.obs_interval.mean

    def is_memoryless(self) -> bool:
        """True when both observation distributions are exponential."""
        return (
            self.obs_initial.family == "exponential"
            and self.obs_interval.family == "exponential"
        )


@dataclass(frozen=True)
class Thresholds:
    """Exceedance levels for the two cumulative decision parameters."""

    m: float
    n: float

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ParameterError("thresholds must be nonnegative")
