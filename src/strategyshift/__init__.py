"""First-exceedance analytics for threshold strategy matrices.

Two compound marked Poisson decision parameters are observed at the epochs of
a delayed renewal process; the package evaluates the closed-form exit-index
and shift-time results by discrete operational calculus, classifies positions
in threshold strategy matrices (generic 2x2 and growth-share), and verifies
every verifiable closed form against an independent Monte Carlo oracle.
"""

from .analytics import (
    LemmaConstants,
    expected_exit_index,
    expected_shift_time,
    lemma_pgf_a,
    lemma_pgf_b,
    marginal_pgf,
    phi_functional,
)
from .matrix import (
    ShiftAdvice,
    StrategyMatrix,
    bcg_classify,
    bcg_scale,
    classify,
    shift_advisor,
)
from .oracle import (
    EmpiricalExitSummary,
    empirical_functional,
    empirical_pgf,
    estimate_exits,
)
from .params import (
    IntervalDistribution,
    MarkDistribution,
    ModelParams,
    Thresholds,
)
from .report import ConformanceRow, conformance_rows
from .series import (
    BivariateSeries,
    TruncatedSeries,
    d_extract,
    d_extract_2d,
)
from .transforms import TransformContext, gamma_series

__version__ = "0.1.0"

__all__ = [
    "BivariateSeries",
    "ConformanceRow",
    "EmpiricalExitSummary",
    "IntervalDistribution",
    "LemmaConstants",
    "MarkDistribution",
    "ModelParams",
    "ShiftAdvice",
    "StrategyMatrix",
    "Thresholds",
    "TransformContext",
    "TruncatedSeries",
    "bcg_classify",
    "bcg_scale",
    "classify",
    "conformance_rows",
    "d_extract",
    "d_extract_2d",
    "empirical_functional",
    "empirical_pgf",
    "estimate_exits",
    "expected_exit_index",
    "expected_shift_time",
    "gamma_series",
    "lemma_pgf_a",
    "lemma_pgf_b",
    "marginal_pgf",
    "phi_functional",
    "shift_advisor",
]
