"""The conformance table and report serialization.

``conformance_rows`` builds the whole table from one simulated sample,
pairing each closed-form value with its Monte Carlo estimate.  Every row is
judged by one rule (``judge``).  Assertability policy: only the exit-index
means at unit thresholds with matching interval means, unit marks, and
exponential observation are gated on; every other closed form is documented
with its deviation.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .analytics import axis_means, lemma_note, lemma_pgf, phi_functional
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
    reference: str
    analytic: Union[float, str]
    mc_estimate: float
    se: float
    rel_dev: Optional[float]
    verdict: str


def judge(
    quantity: str,
    reference: str,
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
        return ConformanceRow(quantity, reference, analytic, est, se, None,
                              "not-assertable")
    rel = abs(est - analytic) / abs(analytic) if analytic != 0.0 else abs(est)
    if not assertable:
        verdict = "not-assertable"
    elif abs(est - analytic) <= SE_MULTIPLE * se:
        verdict = "match"
    else:
        verdict = "deviation"
    return ConformanceRow(quantity, reference, analytic, est, se, rel, verdict)


def _exit_mean_assertable(params: ModelParams, level: float) -> bool:
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
    m, n = int(thresholds.m), int(thresholds.n)
    e_mu, t_a, p_a = axis_means(params, params.lambda_a)
    e_nu, t_b, p_b = axis_means(params, params.lambda_b)
    gate_a = _exit_mean_assertable(params, thresholds.m)
    gate_b = _exit_mean_assertable(params, thresholds.n)
    rows = [
        judge(quantity, reference, value, summary.mean_se(sample), gate)
        for quantity, reference, value, sample, gate in (
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


def fmt(value) -> str:
    """Serialize a number with 12 significant digits; pass strings through."""
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    return format(float(value), ".12g")


def rows_to_csv(rows: List[ConformanceRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["quantity", "paper_ref", "analytic", "mc_estimate", "se", "rel_dev", "verdict"]
    )
    for r in rows:
        writer.writerow(
            [r.quantity, r.reference, fmt(r.analytic), fmt(r.mc_estimate),
             fmt(r.se), fmt(r.rel_dev), r.verdict]
        )
    return buf.getvalue()


def rows_to_json(rows: List[ConformanceRow]) -> str:
    payload = [
        {
            "quantity": r.quantity,
            "paper_ref": r.reference,
            "analytic": r.analytic if isinstance(r.analytic, str) else _round12(r.analytic),
            "mc_estimate": _round12(r.mc_estimate),
            "se": _round12(r.se),
            "rel_dev": None if r.rel_dev is None else _round12(r.rel_dev),
            "verdict": r.verdict,
        }
        for r in rows
    ]
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _round12(x: float) -> float:
    return float(format(float(x), ".12g"))


def histogram_csv(counts, probabilities) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "count", "probability"])
    for i, (c, p) in enumerate(zip(counts, probabilities)):
        writer.writerow([i, int(c), fmt(p)])
    return buf.getvalue()
