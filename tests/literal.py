"""Literal references the package is tested against.

- ``sample_path`` and ``exit_indices`` are the per-path definition of the
  model: every observation interval is drawn, both axes' increments are drawn
  over it (``compound_increments``), and the exit index is read off the
  running sums.  The event-driven sampler behind ``estimate_exits`` must
  agree with them in law; it shares no sampling code with them.
- ``gamma_marginal`` is the scalar marginal transform that ``gamma_series``
  expands as a power series.
- ``d_apply`` and ``d_apply_2d`` are the forward operators that
  ``d_extract`` and ``d_extract_2d`` invert.
- ``series_exp`` is the coefficient-by-coefficient recurrence that
  ``TruncatedSeries.exp`` replaces with Newton iteration.
- ``phi_series`` is the joint functional's bivariate series kernel, and
  ``d_extract_2d`` its two-dimensional extraction: the grid route that
  ``phi_functional``'s product of two univariate extractions replaces.
- ``exact_phi_1_1`` is the operator route's exit-index PGF at m = n = 1 in
  exact rational arithmetic, free of the rounding ``phi_functional`` has.
- ``uniform_matrix`` and ``bcg_matrix`` build the two kinds of matrix
  directly; ``config.from_dict`` builds a run's matrix from its document.
- ``bcg_classify`` is the growth-share quadrant of a (relative share,
  growth %) position, the composition ``classify --share`` performs.
- ``config_leaves`` flattens the config table, so the config tests reach
  every field it declares.
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from strategyshift import config
from strategyshift.analytics import axis_factor
from strategyshift.errors import DomainError
from strategyshift.matrix import (BCG_A_HIGH, BCG_A_LOW, BCG_B, BCG_LABELS,
                                  GENERIC_LABELS, StrategyMatrix, bcg_scale, classify)
from strategyshift.params import MarkDistribution
from strategyshift.series import TruncatedSeries


def compound_increments(
    rng: np.random.Generator,
    intensity: float,
    mark: MarkDistribution,
    interval_lengths: np.ndarray,
) -> np.ndarray:
    """Compound-Poisson totals for a batch of interval lengths.

    Raises DomainError when numpy refuses a draw: an expected arrival
    count beyond the int64 range, or a geometric mark total too large.
    """
    with np.errstate(over="ignore"):  # numpy refuses an infinite mean below
        means = intensity * interval_lengths
    try:
        counts = rng.poisson(means)
        if mark.family != "geometric":
            return mark.value * counts.astype(np.int64)
        totals = np.zeros(counts.shape, dtype=np.int64)
        nz = counts > 0
        if np.any(nz):
            # sum of c iid Geometric(p) on {1,2,...} = c + NegBinomial(c, p)
            totals[nz] = counts[nz] + rng.negative_binomial(counts[nz], mark.p)
        return totals
    except ValueError as exc:
        raise DomainError(
            f"expected increment too large to simulate ({exc})"
        ) from exc


def sample_path(params, seed, max_observations):
    """One path with ``max_observations + 1`` observation epochs.

    ``epochs[k]`` is the k-th observation time; ``increments_*[k]`` is the
    level accrued over the k-th interval (index 0 covers [0, epochs[0]]);
    ``cumulative_*`` are the running sums observed at each epoch.  The two
    increments share the interval, the only dependence between the axes.
    """
    if max_observations < 1:
        raise DomainError("max_observations must be >= 1")
    rng = np.random.default_rng(seed)
    intervals = np.empty(max_observations + 1)
    for part, dist in ((intervals[:1], params.obs_initial),
                       (intervals[1:], params.obs_interval)):
        if dist.family == "exponential":
            part[:] = rng.exponential(dist.mean, part.size)
        else:
            part[:] = dist.mean
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


class BivariateSeries:
    """Dense bivariate truncated series on a coefficient grid c[j, k]."""

    __slots__ = ("grid",)

    def __init__(self, grid):
        self.grid = np.atleast_2d(np.asarray(grid, dtype=float))

    @classmethod
    def separable(cls, fx: TruncatedSeries, fy: TruncatedSeries) -> "BivariateSeries":
        return cls(np.outer(fx.coeffs, fy.coeffs))

    @property
    def orders(self):
        return self.grid.shape[0] - 1, self.grid.shape[1] - 1


def d_extract_2d(f: BivariateSeries, mn) -> float:
    """Coefficient (m, n) of F(x, y) / ((1 - x)(1 - y))."""
    m, n = mn
    if m < 0 or n < 0:
        return 0.0
    jmax, kmax = f.orders
    if m > jmax or n > kmax:
        raise DomainError(
            f"coefficient {(m, n)} requested from a grid of orders {(jmax, kmax)}"
        )
    return float(np.sum(f.grid[: m + 1, : n + 1]))


def phi_series(m, n, ctx, params) -> BivariateSeries:
    """Bivariate series kernel of the joint functional, ready for extraction."""
    fx = axis_factor(
        m, ctx.z, ctx.theta0, ctx.theta1,
        params.lambda_a, params.mark_a, params.obs_initial, params.obs_interval,
    )
    fy = axis_factor(
        n, ctx.g, ctx.vartheta0, ctx.vartheta1,
        params.lambda_b, params.mark_b, params.obs_initial, params.obs_interval,
    )
    return BivariateSeries.separable(fx, fy)


def exact_phi_1_1(params, z):
    """``phi_functional(1, 1, TransformContext(z=z), params)`` as a Fraction,
    for exponential intervals and unit marks: each axis factor to order 1,
    built as ``analytics.axis_factor`` builds it, then summed."""
    def mul(p, q):
        return p[0] * q[0], p[0] * q[1] + p[1] * q[0]

    def extract(w, intensity):
        def gamma(mean):  # 1 / (1 + d lambda (1 - x)) to order 1
            c = Fraction(mean) * Fraction(intensity)
            return 1 / (1 + c), c / (1 + c) ** 2

        big, big0 = gamma(params.obs_interval.mean), gamma(params.obs_initial.mean)
        both = mul(big0, big)
        den = (1 - w * big[0], -w * big[1])
        f = mul(mul((1 - big[0], -big[1]), (w - w * both[0] + big0[0], big0[1] - w * both[1])),
                (1 / den[0], -den[1] / den[0] ** 2))
        return f[0] + f[1]

    return extract(Fraction(z), params.lambda_a) * extract(Fraction(1), params.lambda_b)


def uniform_matrix(m, n, labels=GENERIC_LABELS) -> StrategyMatrix:
    """A matrix cut at ``m`` on the A axis in both rows and at ``n`` on B."""
    return StrategyMatrix(labels=tuple(labels), a_threshold_low=m,
                          a_threshold_high=m, b_threshold=n)


def bcg_matrix() -> StrategyMatrix:
    """The growth-share matrix: its labels and row-dependent cut points."""
    return StrategyMatrix(labels=BCG_LABELS, a_threshold_low=BCG_A_LOW,
                          a_threshold_high=BCG_A_HIGH, b_threshold=BCG_B)


def bcg_classify(relative_share, growth_pct) -> str:
    """Growth-share quadrant of a (relative share, growth %) position."""
    return classify(bcg_scale(relative_share), growth_pct, bcg_matrix())


def series_exp(a):
    """exp of the series with coefficients ``a``, one coefficient at a time:
    k e_k = sum_{j=1..k} j a_j e_{k-j}, e_0 = exp(a_0)."""
    a = np.asarray(a, dtype=float)
    ja = a * np.arange(len(a))
    e = np.zeros_like(a)
    e[0] = np.exp(a[0])
    for k in range(1, len(a)):
        e[k] = np.dot(ja[1 : k + 1], e[k - 1 :: -1]) / k
    return e


def config_leaves(schema=config.SCHEMA, path=""):
    """(field, entry) of every leaf of the config table, in table order."""
    for key, entry in schema.items():
        field = f"{path}.{key}" if path else key
        if isinstance(entry, dict):
            yield from config_leaves(entry, field)
        else:
            yield field, entry
