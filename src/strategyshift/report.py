"""Builders for the standard conformance bundles and report serialization.

Quantity names are shared between the analytic and empirical builders so the
two bundles zip into one table.  Assertability policy: only the exit-index
means at unit thresholds with matching interval means, unit marks, and
exponential observation are gated on; every other closed form is documented
with its deviation.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Sequence, Tuple, Union

from .analytics import (
    LemmaConstants,
    expected_exit_index,
    expected_shift_time,
    lemma_pgf_a,
    marginal_pgf,
    phi_functional,
)
from .errors import DomainError, NoExitError, SingularConstantError
from .oracle import (
    AnalyticBundle,
    ConformanceRow,
    EmpiricalBundle,
    EmpiricalExitSummary,
    empirical_functional,
    empirical_pgf,
    sample_mean_se,
)
from .params import ModelParams, Thresholds
from .transforms import TransformContext

DEFAULT_Z_GRID = (0.25, 0.5, 0.75)

#: Axis-A levels of the threshold-dependence study.
STUDY_LEVELS = (2, 3, 5)

REFERENCES = {
    "mean_exit_index_a": "closed-form exit-index mean, axis A",
    "mean_exit_index_b": "closed-form exit-index mean, axis B",
    "mean_shift_time_a": "closed-form shift-epoch mean, axis A",
    "mean_shift_time_b": "closed-form shift-epoch mean, axis B",
    "mean_prior_time_a": "shift-epoch mean minus one interval, axis A",
    "mean_prior_time_b": "shift-epoch mean minus one interval, axis B",
    "joint_functional": "operator-calculus joint functional at neutral arguments",
}


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


def build_analytic_bundle(
    params: ModelParams,
    thresholds: Thresholds,
    z_grid: Sequence[float] = DEFAULT_Z_GRID,
) -> AnalyticBundle:
    """Evaluate every tracked closed form for one parameter set."""
    values: Dict[str, Union[float, str]] = {}
    references = dict(REFERENCES)
    assertable: Dict[str, bool] = {}

    e_mu, e_nu = expected_exit_index(params)
    values["mean_exit_index_a"] = e_mu
    values["mean_exit_index_b"] = e_nu
    assertable["mean_exit_index_a"] = _exit_mean_assertable(params, thresholds.m)
    assertable["mean_exit_index_b"] = _exit_mean_assertable(params, thresholds.n)

    t_a, t_b, p_a, p_b = expected_shift_time(params)
    values["mean_shift_time_a"] = t_a
    values["mean_shift_time_b"] = t_b
    values["mean_prior_time_a"] = p_a
    values["mean_prior_time_b"] = p_b

    m, n = int(thresholds.m), int(thresholds.n)
    for z in z_grid:
        name = f"index_pgf_operator_a[z={z:g}]"
        values[name] = marginal_pgf("index_a", z, m, n, params)
        references[name] = "exit-index PGF via the operator route, axis A"

    note = None
    try:
        constants = LemmaConstants.from_params(params)
    except DomainError:
        note = "requires memoryless observation intervals"
    except (SingularConstantError, NoExitError):
        note = "singular"
    for z in z_grid:
        name = f"index_pgf_closed_a[z={z:g}]"
        values[name] = note or lemma_pgf_a(z, m, constants)
        references[name] = "exit-index PGF, memoryless closed form, axis A"

    values["joint_functional"] = phi_functional(
        m, n, TransformContext.neutral(), params
    )
    return AnalyticBundle(
        params=params, thresholds=thresholds,
        values=values, references=references, assertable=assertable,
    )


def build_empirical_bundle(
    summary: EmpiricalExitSummary,
    z_grid: Sequence[float] = DEFAULT_Z_GRID,
) -> EmpiricalBundle:
    """Monte Carlo counterparts of the analytic bundle, same quantity names,
    all read from one simulated sample."""
    estimates: Dict[str, Tuple[float, float]] = {
        "mean_exit_index_a": summary.mean_se("mu"),
        "mean_exit_index_b": summary.mean_se("nu"),
        "mean_shift_time_a": summary.mean_se("tau_mu"),
        "mean_shift_time_b": summary.mean_se("tau_nu"),
        "mean_prior_time_a": summary.mean_se("tau_mu_prev"),
        "mean_prior_time_b": summary.mean_se("tau_nu_prev"),
    }
    for z in z_grid:
        pgf = empirical_pgf(summary, z, axis="a")
        estimates[f"index_pgf_operator_a[z={z:g}]"] = pgf
        estimates[f"index_pgf_closed_a[z={z:g}]"] = pgf
    estimates["joint_functional"] = empirical_functional(
        summary, TransformContext.neutral()
    )
    return EmpiricalBundle(
        params=summary.params, thresholds=summary.thresholds, estimates=estimates
    )


def deviation_study(
    summary: EmpiricalExitSummary,
    levels: Sequence[int] = STUDY_LEVELS,
) -> List[ConformanceRow]:
    """Exit-index mean rows at higher thresholds, emitted without asserting.

    Reads the axis-A exit index at each level from ``summary``, which must
    have recorded them (``estimate_exits(..., levels=levels)``).  The
    closed-form mean carries no threshold dependence, so these rows document
    its growing deviation from simulation as the level rises.
    """
    rows: List[ConformanceRow] = []
    e_mu, _ = expected_exit_index(summary.params)
    for m in levels:
        idx = summary.exit_index_a(m)
        est, se = sample_mean_se(idx[idx >= 0].astype(float), f"mu at level {m}")
        rel = abs(est - e_mu) / abs(e_mu) if e_mu else abs(est)
        rows.append(
            ConformanceRow(
                quantity=f"mean_exit_index_a[m={m}]",
                reference="closed-form exit-index mean, threshold-dependence study",
                analytic=e_mu,
                mc_estimate=est,
                se=se,
                rel_dev=rel,
                verdict="not-assertable",
            )
        )
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
