"""Literal references the package is tested against.

- ``sample_path`` and ``exit_indices`` are the per-path definition of the
  model: every observation interval is drawn, both axes' increments are drawn
  over it, and the exit index is read off the running sums.  The event-driven
  sampler behind ``estimate_exits`` must agree with them in law.
- ``gamma_marginal`` is the scalar marginal transform that ``gamma_series``
  expands as a power series.
- ``d_apply`` and ``d_apply_2d`` are the forward operators that
  ``d_extract`` and ``d_extract_2d`` invert.
"""

from types import SimpleNamespace

import numpy as np

from strategyshift.errors import DomainError, ParameterError
from strategyshift.oracle import compound_increments
from strategyshift.series import BivariateSeries, TruncatedSeries


def sample_path(params, seed, max_observations):
    """One path with ``max_observations + 1`` observation epochs.

    ``epochs[k]`` is the k-th observation time; ``increments_*[k]`` is the
    level accrued over the k-th interval (index 0 covers [0, epochs[0]]);
    ``cumulative_*`` are the running sums observed at each epoch.  The two
    increments share the interval, the only dependence between the axes.
    """
    if max_observations < 1:
        raise ParameterError("max_observations must be >= 1")
    rng = np.random.default_rng(seed)
    intervals = np.empty(max_observations + 1)
    intervals[0] = params.obs_initial.sample(rng, 1)[0]
    intervals[1:] = params.obs_interval.sample(rng, max_observations)
    inc_a = compound_increments(rng, params.lambda_a, params.mark_a, intervals)
    inc_b = compound_increments(rng, params.lambda_b, params.mark_b, intervals)
    return SimpleNamespace(
        epochs=np.cumsum(intervals),
        increments_a=inc_a,
        increments_b=inc_b,
        cumulative_a=np.cumsum(inc_a),
        cumulative_b=np.cumsum(inc_b),
    )


def _first_exceedance(epochs, cumulative, level):
    """(index, tau_prev, tau, level_at_exit, censored) for one axis."""
    idx = int(np.searchsorted(cumulative, level, side="left"))
    if idx >= len(cumulative):
        return -1, float("nan"), float("nan"), float("nan"), True
    tau_prev = 0.0 if idx == 0 else float(epochs[idx - 1])
    return idx, tau_prev, float(epochs[idx]), float(cumulative[idx]), False


def exit_indices(path, thresholds):
    """The exit record of one path: first indices at which each running sum
    reaches its threshold, with the epochs around them.

    ``tau_mu_prev`` is 0 when ``mu == 0`` (the time origin).  An axis that
    never reaches its threshold is censored, with index -1 and NaN epochs.
    """
    mu, tpa, ta, la, ca = _first_exceedance(path.epochs, path.cumulative_a, thresholds.m)
    nu, tpb, tb, lb, cb = _first_exceedance(path.epochs, path.cumulative_b, thresholds.n)
    return SimpleNamespace(
        mu=mu, nu=nu,
        tau_mu_prev=tpa, tau_mu=ta, tau_nu_prev=tpb, tau_nu=tb,
        level_at_mu=la, level_at_nu=lb,
        censored_a=ca, censored_b=cb,
    )


def mark_pgf(mark, z):
    """E[z^mark] for scalar z in [0, 1]."""
    if mark.family == "unit":
        return z
    if mark.family == "fixed":
        return z**mark.value
    return mark.p * z / (1.0 - (1.0 - mark.p) * z)


def gamma_marginal(z, theta, intensity, mark, interval):
    """Marginal transform E[z^a * exp(-theta * Delta)] of one axis."""
    if not 0.0 <= z <= 1.0:
        raise DomainError("z must lie in [0, 1]")
    return interval.lst(theta + intensity * (1.0 - mark_pgf(mark, z)))


def d_apply(g):
    """Forward operator: (1 - x) * sum_k g[k] x^k, retained through order len(g)."""
    g = np.asarray(g, dtype=float)
    if g.size == 0:
        return TruncatedSeries([0.0])
    return TruncatedSeries(np.convolve(g, [1.0, -1.0]))


def d_apply_2d(g):
    """Bivariate forward operator: (1 - x)(1 - y) * sum g[j, k] x^j y^k."""
    g = np.atleast_2d(np.asarray(g, dtype=float))
    rows, cols = g.shape
    out = np.zeros((rows + 1, cols + 1))
    out[:rows, :cols] += g
    out[1:, :cols] -= g
    out[:rows, 1:] -= g
    out[1:, 1:] += g
    return BivariateSeries(out)
