"""The conformance table.

``conformance_rows`` builds the whole table from one simulated sample,
pairing each closed-form value with its Monte Carlo estimate.  Every row is
judged by one rule (``judge``).  Assertability policy, per axis: only an
axis's exit-index mean is gated on, when that axis's threshold is 1 and both
observation intervals are exponential with equal means, whatever its mark
law; every other closed form is documented with its deviation.
``ConformanceRow``'s fields are the artifact columns; writing the rows out
is the CLI's job.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import List, Tuple, Union

import numpy as np

from .analytics import (DEFAULT_Z_GRID, TransformContext, axis_means, lemma_note,
                        lemma_pgf, phi_functional)
from .oracle import EmpiricalExitSummary, empirical_functional, exit_mean_se
from .params import ModelParams

#: Axis-A levels of the threshold-dependence study.
STUDY_LEVELS = (2, 3, 5)

#: Match verdicts use the standard 3-standard-error gate.
SE_MULTIPLE = 3.0


class ConformanceRow(namedtuple(
        "ConformanceRow", "quantity paper_ref analytic mc_estimate se rel_dev verdict")):
    """One analytic-vs-empirical comparison in the conformance table:
    ``analytic`` is a float, or a note with ``rel_dev`` None."""

    __slots__ = ()


def judge(
    quantity: str,
    paper_ref: str,
    analytic: Union[float, str],
    estimate: Tuple[float, float],
    assertable: bool = False,
) -> ConformanceRow:
    """One table row from a closed-form value and an (estimate, SE) pair.

    A note in place of the value, a value not trusted enough to gate on, or
    an estimate with a standard error of 0 is "not-assertable"; an
    assertable value is a "match" when the estimate lies within SE_MULTIPLE
    standard errors of it, else a "deviation".  A sample with no spread
    (every path exits at one index) carries no standard error, so it cannot
    gate a value; its row still shows the estimate and ``rel_dev``.
    """
    est, se = estimate
    if isinstance(analytic, str):
        return ConformanceRow(quantity, paper_ref, analytic, est, se, None,
                              "not-assertable")
    rel = abs(est - analytic) / abs(analytic) if analytic != 0.0 else abs(est)
    if not assertable or se == 0.0:
        verdict = "not-assertable"
    elif abs(est - analytic) <= SE_MULTIPLE * se:
        verdict = "match"
    else:
        verdict = "deviation"
    return ConformanceRow(quantity, paper_ref, analytic, est, se, rel, verdict)


def _power_table(z: float) -> np.ndarray:
    """``z ** k`` for 0 < z < 1 and every k up to the first power that has
    underflowed to 0.0, so that ``take(k, mode="clip")`` reads ``z ** k``
    for every integer k >= 0.

    z ** k is 0.0 once it falls below 2**-1075, by k = 1076 ln 2 / -ln z:
    2,594 entries at z = 0.75, the longest table on DEFAULT_Z_GRID, however
    large the indices read from it.  A z near 1 would need a long one.  Each
    entry is the same ``pow`` on the same integer as ``z ** k`` itself.
    """
    return z ** np.arange(math.ceil(1076 * math.log(2.0) / -math.log(z)) + 1)


def _exit_mean_assertable(params: ModelParams, level: int) -> bool:
    # The printed mean 1/(delta lambda) carries no threshold dependence.  At
    # level 1 any mark (each is at least 1) crosses at the first arrival, so
    # the crossing time is Exp(lambda), and with equal exponential intervals
    # the exit index counts rate-1/delta epochs before it: its mean is
    # 1/(delta lambda) exactly, whatever the mark law.  Each axis is gated by
    # its own level alone.
    return (
        level == 1
        and params.is_memoryless()
        and params.obs_initial.mean == params.obs_interval.mean
    )


def conformance_rows(summary: EmpiricalExitSummary) -> List[ConformanceRow]:
    """The conformance table of one ``estimate_exits`` call, in its fixed
    row order.

    ``summary`` must have recorded the axis-A exit index at STUDY_LEVELS
    (``estimate_exits(..., levels=STUDY_LEVELS)``).  Each study row reads
    one level of the summary's nested chain, ``summary.study_mu[level]``,
    whose levels share one stream per path.  The closed-form exit-index mean
    carries no threshold dependence, so those rows document its growing
    deviation from simulation.
    """
    params, m, n = summary.params, summary.thresholds.m, summary.thresholds.n
    a, b = summary.a, summary.b
    means_a = axis_means(params, params.lambda_a)
    means_b = axis_means(params, params.lambda_b)
    # Each closed-form mean against its field of the axis record, A then B;
    # only the exit-index mean can be gated on.
    rows = [
        judge(f"{quantity}_{axis}", f"{paper_ref}, axis {axis.upper()}", means[i],
              exit_mean_se(record.index, getattr(record, field), f"{quantity}_{axis}"),
              i == 0 and _exit_mean_assertable(params, level))
        for i, (quantity, paper_ref, field) in enumerate((
            ("mean_exit_index", "closed-form exit-index mean", "index"),
            ("mean_shift_time", "closed-form shift-epoch mean", "shift"),
            ("mean_prior_time", "shift-epoch mean minus one interval", "prior"),
        ))
        for axis, record, level, means in (("a", a, m, means_a), ("b", b, n, means_b))
    ]

    # Each PGF term z ** k is read from one table of powers, not a pow a path;
    # a censored -1 clips to entry 0 and is dropped with its path.
    pgfs = {z: exit_mean_se(a.index, _power_table(z).take(a.index, mode="clip"),
                            "the exit index")
            for z in DEFAULT_Z_GRID}
    for z, pgf in pgfs.items():
        rows.append(judge(f"index_pgf_operator_a[z={z:g}]",
                          "exit-index PGF via the operator route, axis A",
                          phi_functional(m, n, TransformContext(z=z), params), pgf))
    note = lemma_note(params)
    for z, pgf in pgfs.items():
        rows.append(judge(f"index_pgf_closed_a[z={z:g}]",
                          "exit-index PGF, memoryless closed form, axis A",
                          note or lemma_pgf(z, m, params, params.lambda_a), pgf))

    neutral = TransformContext()
    rows.append(judge("joint_functional",
                      "operator-calculus joint functional at neutral arguments",
                      phi_functional(m, n, neutral, params),
                      empirical_functional(summary, neutral)))

    for level in STUDY_LEVELS:
        index = summary.study_mu[level]
        rows.append(judge(f"mean_exit_index_a[m={level}]",
                          "closed-form exit-index mean, threshold-dependence study",
                          means_a[0], exit_mean_se(index, index, f"mu at level {level}")))
    return rows
