"""Sample-path generation and exit-record extraction.

A path is built by sampling the observation intervals first and then, for each
interval of length d, drawing the two compound-Poisson increments
conditionally (Poisson(lambda * d) arrival counts, mark totals on top).  The
two increments share the interval, which is the only source of dependence
between the A- and B-levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .params import MarkDistribution, ModelParams, Thresholds


@dataclass(frozen=True)
class SamplePath:
    """One realized trajectory of the observed two-parameter process.

    ``epochs[k]`` is the k-th observation time; ``increments_*[k]`` is the
    level accrued over the k-th interval (index 0 covers [0, epochs[0]]);
    ``cumulative_*`` are the running sums observed at each epoch.
    """

    epochs: np.ndarray
    increments_a: np.ndarray
    increments_b: np.ndarray
    cumulative_a: np.ndarray
    cumulative_b: np.ndarray

    def __len__(self) -> int:
        return len(self.epochs)


@dataclass(frozen=True)
class ExitRecord:
    """Exit indices and shift epochs of one path against fixed thresholds.

    ``tau_mu_prev`` is 0 by convention when ``mu == 0`` (the time origin).
    Censored axes keep index -1 and NaN epochs.
    """

    mu: int
    nu: int
    tau_mu_prev: float
    tau_mu: float
    tau_nu_prev: float
    tau_nu: float
    level_at_mu: float
    level_at_nu: float
    censored_a: bool
    censored_b: bool


def compound_increments(
    rng: np.random.Generator,
    intensity: float,
    mark: MarkDistribution,
    interval_lengths: np.ndarray,
) -> np.ndarray:
    """Compound-Poisson totals for a batch of interval lengths.

    Raises ParameterError when numpy refuses a draw: an expected arrival
    count beyond the int64 range, or a geometric mark total too large.
    """
    try:
        counts = rng.poisson(intensity * interval_lengths)
        return mark.sample_totals(rng, counts)
    except ValueError as exc:
        raise ParameterError(
            f"expected increment too large to simulate ({exc})"
        ) from exc


def sample_path(
    params: ModelParams, seed: int, max_observations: int
) -> SamplePath:
    """Generate one path with ``max_observations + 1`` observation epochs.

    Deterministic in (params, seed, max_observations).
    """
    if max_observations < 1:
        raise ParameterError("max_observations must be >= 1")
    rng = np.random.default_rng(seed)
    intervals = np.empty(max_observations + 1)
    intervals[0] = params.obs_initial.sample(rng, 1)[0]
    intervals[1:] = params.obs_interval.sample(rng, max_observations)
    inc_a = compound_increments(rng, params.lambda_a, params.mark_a, intervals)
    inc_b = compound_increments(rng, params.lambda_b, params.mark_b, intervals)
    return SamplePath(
        epochs=np.cumsum(intervals),
        increments_a=inc_a,
        increments_b=inc_b,
        cumulative_a=np.cumsum(inc_a),
        cumulative_b=np.cumsum(inc_b),
    )


def _first_exceedance(epochs: np.ndarray, cumulative: np.ndarray, level: float):
    """(index, tau_prev, tau, level_at_exit, censored) for one axis."""
    idx = int(np.searchsorted(cumulative, level, side="left"))
    if idx >= len(cumulative):
        return -1, float("nan"), float("nan"), float("nan"), True
    tau_prev = 0.0 if idx == 0 else float(epochs[idx - 1])
    return idx, tau_prev, float(epochs[idx]), float(cumulative[idx]), False


def exit_indices(path: SamplePath, thresholds: Thresholds) -> ExitRecord:
    """First observation indices at which each cumulative level reaches its
    threshold (reach-or-exceed convention); censored flags when it never does.
    """
    mu, tpa, ta, la, ca = _first_exceedance(
        path.epochs, path.cumulative_a, thresholds.m
    )
    nu, tpb, tb, lb, cb = _first_exceedance(
        path.epochs, path.cumulative_b, thresholds.n
    )
    return ExitRecord(
        mu=mu, nu=nu,
        tau_mu_prev=tpa, tau_mu=ta, tau_nu_prev=tpb, tau_nu=tb,
        level_at_mu=la, level_at_nu=lb,
        censored_a=ca, censored_b=cb,
    )


def increment_moments(params: ModelParams):
    """Per-interval mean increments and their covariance.

    mean_a = lambda_a * mark_mean_a * delta_mean; the covariance comes purely
    from the shared interval length:
    cov(a, b) = lambda_a * mark_mean_a * lambda_b * mark_mean_b * Var(Delta).
    """
    ma = params.lambda_a * params.mark_a.mean()
    mb = params.lambda_b * params.mark_b.mean()
    var_d = params.obs_interval.variance()
    mean = params.delta_mean
    return ma * mean, mb * mean, ma * mb * var_d
