"""Threshold strategy matrices and the shift advisor.

A 2x2 matrix assigns one of four labels from two threshold comparisons, with
ties going to the low side.  The growth-share variant uses a different
A-threshold in the high-growth row, so the B comparison is evaluated first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .analytics import axis_means
from .errors import DomainError, NoExitError
from .params import ModelParams

GENERIC_LABELS = ("I", "II", "III", "IV")
BCG_LABELS = ("Dogs", "Cows", "Stars", "Question Marks")

#: Growth-share thresholds: A-axis (scaled relative share) split at 0 in the
#: low-growth row and at 17.6 in the high-growth row; B-axis (growth %) at 10.
BCG_A_LOW = 0.0
BCG_A_HIGH = 17.6
BCG_B = 10.0

#: Multiplier of log10(relative share) mapping share 1.0 to 0 and share 1.5
#: to ~17.6 on the A-axis.
DEFAULT_SCALE_FACTOR = 100.0


@dataclass(frozen=True)
class StrategyMatrix:
    """Labeled 2x2 threshold matrix over the two decision-parameter levels.

    ``labels`` are the region names in quadrant order (low/low, high/low,
    high/high, low/high).  ``a_threshold_low`` applies when the B level is at
    or below ``b_threshold``; ``a_threshold_high`` when it is above.  A
    uniform matrix uses the same A-threshold in both rows.
    """

    labels: tuple = GENERIC_LABELS
    a_threshold_low: float = 0.0
    a_threshold_high: float = 0.0
    b_threshold: float = 0.0

    @classmethod
    def uniform(cls, m: float, n: float, labels=GENERIC_LABELS) -> "StrategyMatrix":
        return cls(labels=tuple(labels), a_threshold_low=m,
                   a_threshold_high=m, b_threshold=n)

    @classmethod
    def bcg(cls) -> "StrategyMatrix":
        return cls(labels=BCG_LABELS, a_threshold_low=BCG_A_LOW,
                   a_threshold_high=BCG_A_HIGH, b_threshold=BCG_B)

    def a_threshold(self, b_high: bool) -> float:
        return self.a_threshold_high if b_high else self.a_threshold_low

    def label_for(self, a_high: bool, b_high: bool) -> str:
        idx = {(False, False): 0, (True, False): 1,
               (True, True): 2, (False, True): 3}[(a_high, b_high)]
        return self.labels[idx]


def classify(level_a: float, level_b: float, matrix: StrategyMatrix) -> str:
    """Region label of a point; boundary points go to the low side."""
    b_high = level_b > matrix.b_threshold
    a_high = level_a > matrix.a_threshold(b_high)
    return matrix.label_for(a_high, b_high)


def bcg_scale(relative_share: float, factor: float = DEFAULT_SCALE_FACTOR) -> float:
    """Map relative market share onto the matrix A-axis: factor * log10(share)."""
    if relative_share <= 0.0:
        raise DomainError("relative market share must be positive")
    return factor * math.log10(relative_share)


def bcg_classify(
    relative_share: float,
    growth_pct: float,
    factor: float = DEFAULT_SCALE_FACTOR,
) -> str:
    """Growth-share quadrant of a (relative share, growth %) position."""
    return classify(bcg_scale(relative_share, factor), growth_pct, StrategyMatrix.bcg())


@dataclass(frozen=True)
class AxisAdvice:
    """Shift prediction for one axis of the matrix."""

    shift_predicted: bool
    expected_shift_time: Optional[float]
    expected_prior_time: Optional[float]
    region_after: str
    note: str = ""


@dataclass(frozen=True)
class ShiftAdvice:
    """Current region plus per-axis shift timing and destination regions."""

    current_region: str
    axis_a: AxisAdvice
    axis_b: AxisAdvice


def shift_advisor(
    level_a: float,
    level_b: float,
    params: ModelParams,
    matrix: StrategyMatrix,
) -> ShiftAdvice:
    """Predicted shift epochs and destination regions from the current position.

    Each axis reports the mean shift epoch, the one-interval-earlier warning
    epoch, and the region reached when that axis alone crosses its threshold.
    A zero-intensity axis is static: no shift is predicted for it.
    """
    current = classify(level_a, level_b, matrix)
    b_high = level_b > matrix.b_threshold

    # Destination when A alone exceeds its row threshold, and when B alone
    # exceeds (which switches the applicable A-threshold to the high row).
    after_a = matrix.label_for(True, b_high)
    after_b = matrix.label_for(level_a > matrix.a_threshold_high, True)

    def axis(intensity: float, region_after: str) -> AxisAdvice:
        try:
            _, shift, prior = axis_means(params, intensity)
        except NoExitError:
            # Static axis: a no-exit condition is advice, not an error.
            return AxisAdvice(False, None, None, region_after,
                              note="no shift predicted")
        return AxisAdvice(True, shift, prior, region_after)

    advice_a = axis(params.lambda_a, after_a)
    advice_b = axis(params.lambda_b, after_b)
    return ShiftAdvice(current_region=current, axis_a=advice_a, axis_b=advice_b)
