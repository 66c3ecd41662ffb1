"""Threshold strategy matrices: pure geometry, no model and no numpy.

A 2x2 matrix assigns one of four labels from two threshold comparisons, with
ties going to the low side.  The growth-share variant uses a different
A-threshold in the high-growth row, so the B comparison is evaluated first.
A point with a NaN or infinite coordinate lies in no region.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError

GENERIC_LABELS = ("I", "II", "III", "IV")
BCG_LABELS = ("Dogs", "Cows", "Stars", "Question Marks")

#: Growth-share thresholds: A-axis (scaled relative share) split at 0 in the
#: low-growth row and at 17.6 in the high-growth row; B-axis (growth %) at 10.
BCG_A_LOW = 0.0
BCG_A_HIGH = 17.6
BCG_B = 10.0

#: Multiplier of log10(relative share) mapping share 1.0 to 0 and share 1.5
#: to ~17.6 on the A-axis; another share scale is a matter of the cut points.
SCALE_FACTOR = 100.0


class StrategyMatrix(namedtuple(
        "StrategyMatrix", "labels a_threshold_low a_threshold_high b_threshold")):
    """Labeled 2x2 threshold matrix over the two decision-parameter levels.

    ``labels`` are the region names in quadrant order (low/low, high/low,
    high/high, low/high).  ``a_threshold_low`` applies when the B level is at
    or below ``b_threshold``; ``a_threshold_high`` when it is above.  A
    uniform matrix uses the same A-threshold in both rows.
    """

    __slots__ = ()


#: Index into ``labels`` of the quadrant (A above its cut, B above its cut).
_QUADRANT = {(False, False): 0, (True, False): 1, (True, True): 2, (False, True): 3}


def classify(level_a: float, level_b: float, matrix: StrategyMatrix) -> str:
    """Region label of a point; boundary points go to the low side."""
    if not (math.isfinite(level_a) and math.isfinite(level_b)):
        raise DomainError("matrix coordinates must be finite")
    b_high = level_b > matrix.b_threshold
    a_high = level_a > (matrix.a_threshold_high if b_high else matrix.a_threshold_low)
    return matrix.labels[_QUADRANT[a_high, b_high]]


def bcg_scale(relative_share: float) -> float:
    """Map relative market share onto the matrix A-axis: 100 * log10(share)."""
    if relative_share <= 0.0:
        raise DomainError("relative market share must be positive")
    return SCALE_FACTOR * math.log10(relative_share)
