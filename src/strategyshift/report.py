"""The conformance table.

``conformance_rows`` builds the whole table from one simulated sample,
pairing each closed-form value with its Monte Carlo estimate.  Every row is
judged by one rule (``judge``).  Assertability policy: only the exit-index
means at unit thresholds with matching interval means, unit marks, and
exponential observation are gated on; every other closed form is documented
with its deviation.  ``ConformanceRow``'s fields are the artifact columns;
writing the rows out is the CLI's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .analytics import axis_means, lemma_note, lemma_pgf, phi_functional
from .errors import NoExitError
from .oracle import (
    EmpiricalExitSummary,
    empirical_functional,
    empirical_pgf,
    sample_mean_se,
)
from .params import ModelParams
from .transforms import TransformContext

DEFAULT_Z_GRID = (0.25, 0.5, 0.75)

#: Axis-A levels of the threshold-dependence study.
STUDY_LEVELS = (2, 3, 5)

#: Match verdicts use the standard 3-standard-error gate.
SE_MULTIPLE = 3.0


@dataclass(frozen=True)
class ConformanceRow:
    """One analytic-vs-empirical comparison in the conformance table."""

    quantity: str
    paper_ref: str
    analytic: Union[float, str]
    mc_estimate: float
    se: float
    rel_dev: Optional[float]
    verdict: str


def judge(
    quantity: str,
    paper_ref: str,
    analytic: Union[float, str],
    estimate: Tuple[float, float],
    assertable: bool = False,
) -> ConformanceRow:
    """One table row from a closed-form value and an (estimate, SE) pair.

    A note in place of the value, or a value not trusted enough to gate on,
    is "not-assertable"; an assertable value is a "match" when the estimate
    lies within SE_MULTIPLE standard errors of it, else a "deviation".
    """
    est, se = estimate
    if isinstance(analytic, str):
        return ConformanceRow(quantity, paper_ref, analytic, est, se, None,
                              "not-assertable")
    rel = abs(est - analytic) / abs(analytic) if analytic != 0.0 else abs(est)
    if not assertable:
        verdict = "not-assertable"
    elif abs(est - analytic) <= SE_MULTIPLE * se:
        verdict = "match"
    else:
        verdict = "deviation"
    return ConformanceRow(quantity, paper_ref, analytic, est, se, rel, verdict)


def means_or_note(params: ModelParams, intensity: float) -> Tuple[Union[float, str], ...]:
    """``axis_means`` of one axis, or the note "no shift predicted" in place
    of each mean when the axis has zero intensity and so never exits."""
    try:
        return axis_means(params, intensity)
    except NoExitError:
        return ("no shift predicted",) * 3


def _exit_mean_assertable(params: ModelParams, level: int) -> bool:
    # The printed mean carries no threshold dependence; it provably matches
    # simulation only at unit thresholds with unit marks and a memoryless
    # observation process whose two interval means coincide.
    return (
        level == 1
        and params.is_memoryless()
        and params.delta0_mean == params.delta_mean
        and params.mark_a.family == "unit"
        and params.mark_b.family == "unit"
    )


def conformance_rows(summary: EmpiricalExitSummary) -> List[ConformanceRow]:
    """The conformance table of one ``estimate_exits`` call, in its fixed
    row order.

    ``summary`` must have recorded the axis-A exit index at STUDY_LEVELS
    (``estimate_exits(..., levels=STUDY_LEVELS)``).  Each study row reads
    one level's own draw.  The closed-form exit-index mean carries no
    threshold dependence, so those rows document its growing deviation from
    simulation.
    """
    params, thresholds = summary.params, summary.thresholds
    m, n = thresholds.m, thresholds.n
    e_mu, t_a, p_a = means_or_note(params, params.lambda_a)
    e_nu, t_b, p_b = means_or_note(params, params.lambda_b)
    gate_a = _exit_mean_assertable(params, m)
    gate_b = _exit_mean_assertable(params, n)
    rows = [
        judge(quantity, paper_ref, value, summary.mean_se(sample), gate)
        for quantity, paper_ref, value, sample, gate in (
            ("mean_exit_index_a", "closed-form exit-index mean, axis A",
             e_mu, "mu", gate_a),
            ("mean_exit_index_b", "closed-form exit-index mean, axis B",
             e_nu, "nu", gate_b),
            ("mean_shift_time_a", "closed-form shift-epoch mean, axis A",
             t_a, "tau_mu", False),
            ("mean_shift_time_b", "closed-form shift-epoch mean, axis B",
             t_b, "tau_nu", False),
            ("mean_prior_time_a", "shift-epoch mean minus one interval, axis A",
             p_a, "tau_mu_prev", False),
            ("mean_prior_time_b", "shift-epoch mean minus one interval, axis B",
             p_b, "tau_nu_prev", False),
        )
    ]

    pgfs = {z: empirical_pgf(summary, z, axis="a") for z in DEFAULT_Z_GRID}
    for z, pgf in pgfs.items():
        rows.append(judge(f"index_pgf_operator_a[z={z:g}]",
                          "exit-index PGF via the operator route, axis A",
                          phi_functional(m, n, TransformContext(z=z), params), pgf))
    note = lemma_note(params)
    for z, pgf in pgfs.items():
        rows.append(judge(f"index_pgf_closed_a[z={z:g}]",
                          "exit-index PGF, memoryless closed form, axis A",
                          note or lemma_pgf(z, m, params, params.lambda_a), pgf))

    neutral = TransformContext.neutral()
    rows.append(judge("joint_functional",
                      "operator-calculus joint functional at neutral arguments",
                      phi_functional(m, n, neutral, params),
                      empirical_functional(summary, neutral)))

    for level in STUDY_LEVELS:
        idx = summary.exit_index_a(level)
        rows.append(judge(f"mean_exit_index_a[m={level}]",
                          "closed-form exit-index mean, threshold-dependence study",
                          e_mu, sample_mean_se(idx[idx >= 0].astype(float),
                                               f"mu at level {level}")))
    return rows
