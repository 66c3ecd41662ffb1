"""Monte Carlo verification engine.

Simulates the observed two-parameter process path by path (vectorized across
paths, stepping one observation epoch at a time) and turns the results into
empirical exit summaries, empirical transforms, and a conformance table that
confronts every closed-form claim with its simulated counterpart.

Quantities whose printed closed forms are documented as suspect are carried
in the table with verdict "not-assertable": their rows report the deviation
instead of asserting it away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    ComparisonError,
    HorizonError,
    NoDataError,
    NoExitError,
    ParameterError,
)
from .params import ModelParams, Thresholds
from .process import compound_increments
from .transforms import TransformContext

#: Observation cap per path; paths that never exceed within the cap are
#: censored, and a run fails when censoring exceeds MAX_CENSOR_FRACTION.
DEFAULT_HORIZON = 10_000
MAX_CENSOR_FRACTION = 0.001

#: Match verdicts use the standard 3-standard-error gate.
SE_MULTIPLE = 3.0


def sample_mean_se(samples: np.ndarray, what: str) -> Tuple[float, float]:
    """Sample mean and standard error (0.0 for a single sample)."""
    if samples.size == 0:
        raise NoDataError(f"all paths censored; no samples of {what}")
    se = samples.std(ddof=1) / np.sqrt(samples.size) if samples.size > 1 else 0.0
    return float(samples.mean()), float(se)


@dataclass(frozen=True)
class EmpiricalExitSummary:
    """Per-path exit data for a batch of simulated trajectories.

    Arrays are aligned by path; censored axes hold index -1 and NaN epochs.
    ``study_mu`` maps each extra axis-A level to its exit-index array (-1
    where censored).
    """

    n_paths: int
    seed: int
    params: ModelParams
    thresholds: Thresholds
    mu: np.ndarray
    nu: np.ndarray
    tau_mu: np.ndarray
    tau_mu_prev: np.ndarray
    tau_nu: np.ndarray
    tau_nu_prev: np.ndarray
    level_at_mu: np.ndarray
    level_at_nu: np.ndarray
    censored_a: np.ndarray
    censored_b: np.ndarray
    study_mu: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n_censored_a(self) -> int:
        return int(np.count_nonzero(self.censored_a))

    @property
    def n_censored_b(self) -> int:
        return int(np.count_nonzero(self.censored_b))

    def exit_index_a(self, level: int) -> np.ndarray:
        """Axis-A exit indices at ``level``: ``mu`` at m, else a study level."""
        if level == self.thresholds.m:
            return self.mu
        if level not in self.study_mu:
            raise NoDataError(f"axis-A level {level} was not recorded")
        return self.study_mu[level]

    def histogram(self, axis: str) -> Tuple[np.ndarray, np.ndarray]:
        """(counts, probabilities) of the exit index on one axis.

        Probabilities are relative to the full path count, so censored mass
        is visible as a total below 1.
        """
        idx, cens = (self.mu, self.censored_a) if axis == "a" else (self.nu, self.censored_b)
        ok = idx[~cens]
        counts = np.bincount(ok) if ok.size else np.zeros(1, dtype=np.int64)
        return counts, counts / self.n_paths

    def mean_se(self, name: str) -> Tuple[float, float]:
        """Sample mean and standard error of one tracked quantity."""
        samples = {
            "mu": (self.mu, self.censored_a),
            "nu": (self.nu, self.censored_b),
            "tau_mu": (self.tau_mu, self.censored_a),
            "tau_mu_prev": (self.tau_mu_prev, self.censored_a),
            "tau_nu": (self.tau_nu, self.censored_b),
            "tau_nu_prev": (self.tau_nu_prev, self.censored_b),
        }
        values, cens = samples[name]
        return sample_mean_se(values[~cens].astype(float), name)


def _first_passage(idx, k, active, level, threshold) -> np.ndarray:
    """Set index ``k`` on the pending active paths whose ``level`` (aligned
    with ``active``) reaches ``threshold``; return the hit mask."""
    hit = (idx[active] < 0) & (level >= threshold)
    idx[active[hit]] = k
    return hit


def _simulate(
    params: ModelParams,
    thresholds: Thresholds,
    n_paths: int,
    seed: int,
    horizon: int,
    levels: Sequence[int],
) -> EmpiricalExitSummary:
    rng = np.random.default_rng(seed)
    m, n = thresholds.m, thresholds.n

    level_a = np.zeros(n_paths)
    level_b = np.zeros(n_paths)
    t = np.zeros(n_paths)
    mu = np.full(n_paths, -1, dtype=np.int64)
    nu = np.full(n_paths, -1, dtype=np.int64)
    tau_mu = np.full(n_paths, np.nan)
    tau_mu_prev = np.full(n_paths, np.nan)
    tau_nu = np.full(n_paths, np.nan)
    tau_nu_prev = np.full(n_paths, np.nan)
    lev_mu = np.full(n_paths, np.nan)
    lev_nu = np.full(n_paths, np.nan)
    study = {level: np.full(n_paths, -1, dtype=np.int64)
             for level in sorted(set(levels) - {m})}
    # Levels never fall, so a path that reached the top study level has
    # reached every lower one; when that level is above m, paths run on
    # until they reach it.
    top = max(study, default=m)
    top_idx = study[top] if top > m else None

    for k in range(horizon + 1):
        waiting = (mu < 0) | (nu < 0)
        if top_idx is not None:
            waiting |= top_idx < 0
        active = np.flatnonzero(waiting)
        if active.size == 0:
            break
        dist = params.obs_initial if k == 0 else params.obs_interval
        d = dist.sample(rng, active.size)
        inc_a = compound_increments(rng, params.lambda_a, params.mark_a, d)
        inc_b = compound_increments(rng, params.lambda_b, params.mark_b, d)
        t_prev = t[active]
        t[active] = t_prev + d
        level_a[active] += inc_a
        level_b[active] += inc_b
        la = level_a[active]

        hit = _first_passage(mu, k, active, la, m)
        hit_a = active[hit]
        tau_mu[hit_a] = t[hit_a]
        tau_mu_prev[hit_a] = 0.0 if k == 0 else t_prev[hit]
        lev_mu[hit_a] = level_a[hit_a]

        hit = _first_passage(nu, k, active, level_b[active], n)
        hit_b = active[hit]
        tau_nu[hit_b] = t[hit_b]
        tau_nu_prev[hit_b] = 0.0 if k == 0 else t_prev[hit]
        lev_nu[hit_b] = level_b[hit_b]

        for level, idx in study.items():
            _first_passage(idx, k, active, la, level)

    return EmpiricalExitSummary(
        n_paths=n_paths, seed=seed, params=params, thresholds=thresholds,
        mu=mu, nu=nu,
        tau_mu=tau_mu, tau_mu_prev=tau_mu_prev,
        tau_nu=tau_nu, tau_nu_prev=tau_nu_prev,
        level_at_mu=lev_mu, level_at_nu=lev_nu,
        censored_a=mu < 0, censored_b=nu < 0,
        study_mu=study,
    )


def estimate_exits(
    params: ModelParams,
    thresholds: Thresholds,
    n_paths: int,
    seed: int,
    horizon: int = DEFAULT_HORIZON,
    levels: Sequence[int] = (),
) -> EmpiricalExitSummary:
    """Simulate ``n_paths`` trajectories and collect their exit records.

    Besides first passage at (m, n), records the axis-A exit index at every
    level in ``levels`` in the same pass (see
    ``EmpiricalExitSummary.exit_index_a``).  Without levels above m the
    random stream is consumed as by a run without levels.

    Deterministic for fixed (params, thresholds, n_paths, seed, levels).
    Fails with NoExitError, before any draw, when an axis with zero drift
    has a positive threshold or recorded level, and with HorizonError when
    more than MAX_CENSOR_FRACTION of paths are censored on either axis or at
    any recorded level.
    """
    if n_paths < 1:
        raise ParameterError("n_paths must be >= 1")
    # A level with zero drift never moves, so no positive threshold is ever
    # reached: fail before drawing instead of stepping to the horizon.
    for axis, intensity, mark, level in (
        ("A", params.lambda_a, params.mark_a, max((thresholds.m, *levels))),
        ("B", params.lambda_b, params.mark_b, thresholds.n),
    ):
        if level > 0 and intensity * mark.mean() == 0.0:
            raise NoExitError(
                f"axis {axis} has zero drift (intensity times mean mark) and "
                f"never reaches level {level:g}"
            )
    summary = _simulate(params, thresholds, n_paths, seed, horizon, levels)
    worst = max(
        summary.n_censored_a, summary.n_censored_b,
        *(int(np.count_nonzero(idx < 0)) for idx in summary.study_mu.values()),
    )
    if worst > MAX_CENSOR_FRACTION * n_paths:
        raise HorizonError(
            f"{worst}/{n_paths} paths hit the {horizon}-observation cap "
            "before exceedance; raise the horizon to keep estimates unbiased"
        )
    return summary


def empirical_pgf(
    summary: EmpiricalExitSummary, z: float, axis: str = "a"
) -> Tuple[float, float]:
    """Sample mean of z^exit_index with its standard error."""
    idx, cens = (
        (summary.mu, summary.censored_a)
        if axis == "a"
        else (summary.nu, summary.censored_b)
    )
    return sample_mean_se(np.asarray(z, dtype=float) ** idx[~cens], "the exit index")


def empirical_functional(
    summary: EmpiricalExitSummary,
    ctx: TransformContext,
    include_indicators: bool = True,
) -> Tuple[float, float]:
    """Unbiased sample estimate of the joint first-exceedance functional.

    Averages z^mu g^nu exp(-theta0 tau_mu_prev - theta1 tau_mu - vartheta0
    tau_nu_prev - vartheta1 tau_nu) over the summary's paths, with the
    literal level indicators 1{level_at_mu <= m} 1{level_at_nu <= n} unless
    ``include_indicators`` is disabled.
    """
    s = summary
    ok = ~(s.censored_a | s.censored_b)
    samples = (
        ctx.z ** s.mu[ok]
        * ctx.g ** s.nu[ok]
        * np.exp(
            -ctx.theta0 * s.tau_mu_prev[ok]
            - ctx.theta1 * s.tau_mu[ok]
            - ctx.vartheta0 * s.tau_nu_prev[ok]
            - ctx.vartheta1 * s.tau_nu[ok]
        )
    )
    if include_indicators:
        samples = samples * (
            (s.level_at_mu[ok] <= s.thresholds.m)
            & (s.level_at_nu[ok] <= s.thresholds.n)
        )
    return sample_mean_se(samples, "the joint functional")


def scan_exit_index(levels, threshold) -> int:
    """Plain linear scan for the first reach-or-exceed index (cross-check
    implementation, intentionally independent of the path machinery).
    """
    for i, value in enumerate(levels):
        if value >= threshold:
            return i
    return -1


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


@dataclass(frozen=True)
class AnalyticBundle:
    """Closed-form values keyed by quantity name.

    ``assertable`` marks the quantities whose printed formulas are trusted
    enough to gate on; the rest are carried for documentation.
    """

    params: ModelParams
    thresholds: Thresholds
    values: Dict[str, Union[float, str]]
    references: Dict[str, str]
    assertable: Dict[str, bool] = field(default_factory=dict)


@dataclass(frozen=True)
class EmpiricalBundle:
    """Monte Carlo estimates (value, SE) keyed by quantity name."""

    params: ModelParams
    thresholds: Thresholds
    estimates: Dict[str, Tuple[float, float]]


def conformance(
    analytic: AnalyticBundle, empirical: EmpiricalBundle
) -> List[ConformanceRow]:
    """Join the two bundles into verdict rows under the 3-SE match rule."""
    if analytic.params != empirical.params or analytic.thresholds != empirical.thresholds:
        raise ComparisonError(
            "analytic and empirical bundles were built from different "
            "parameters or thresholds"
        )
    rows = []
    for name, value in analytic.values.items():
        if name not in empirical.estimates:
            raise ComparisonError(f"no empirical counterpart for {name!r}")
        est, se = empirical.estimates[name]
        reference = analytic.references.get(name, "")
        if isinstance(value, str):
            rows.append(ConformanceRow(name, reference, value, est, se, None,
                                       "not-assertable"))
            continue
        rel = abs(est - value) / abs(value) if value != 0.0 else abs(est)
        if not analytic.assertable.get(name, False):
            verdict = "not-assertable"
        elif abs(est - value) <= SE_MULTIPLE * se:
            verdict = "match"
        else:
            verdict = "deviation"
        rows.append(ConformanceRow(name, reference, value, est, se, rel, verdict))
    return rows
