"""Monte Carlo verification engine.

Simulates the observed two-parameter process (vectorized across paths) and
turns the results into empirical exit summaries and empirical transforms, the
Monte Carlo side of the conformance table (``report.conformance_rows``).

The simulator is event-driven and exact: it draws each path's crossing times
and the observation epochs around them instead of stepping through every
observation.  A level first reaches its threshold L at an arrival J of its
Poisson stream (J = L for unit marks, ceil(L / v) for a fixed mark v,
1 + Binomial(L - 1, p) for geometric(p) marks), so at the continuous time
T ~ Gamma(J, 1 / lambda).  The exit index is the first observation epoch at
or after T and the prior epoch is the one before it: plain arithmetic for
deterministic intervals, a few memoryless draws around T for exponential ones
(``_PoissonEpochs``).  The level at exit adds the increments over (T, epoch].
A path thus costs a fixed number of draws per recorded level, whatever its
exit index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import HorizonError, NoDataError, NoExitError, ParameterError
from .params import MarkDistribution, ModelParams, Thresholds
from .transforms import TransformContext

#: Observation cap per path; paths that never exceed within the cap are
#: censored, and a run fails when censoring exceeds MAX_CENSOR_FRACTION.
DEFAULT_HORIZON = 10_000
MAX_CENSOR_FRACTION = 0.001


def sample_mean_se(samples: np.ndarray, what: str) -> Tuple[float, float]:
    """Sample mean and standard error (0.0 for a single sample)."""
    if samples.size == 0:
        raise NoDataError(f"all paths censored; no samples of {what}")
    se = samples.std(ddof=1) / np.sqrt(samples.size) if samples.size > 1 else 0.0
    return float(samples.mean()), float(se)


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


#: A gap whose expected epoch count exceeds this is drawn at this mean (numpy
#: refuses Poisson means near 2**63).  Such a gap holds more epochs than any
#: horizon, so every index at or past it is censored either way.
_MAX_GAP_EPOCHS = 1e18


def _crossing(rng, intensity, mark, need):
    """(arrivals, total, elapsed time) at the arrival that first brings a
    fresh compound Poisson stream to ``need`` or above (an int64 array,
    entries >= 1)."""
    if mark.family == "unit":
        arrivals, total = need, need
    elif mark.family == "fixed":
        arrivals = -(-need // mark.value)
        total = arrivals * mark.value
    else:
        # The totals a sum of geometric(p) marks visits are the successes of
        # Bernoulli(p) trials over the levels 1, 2, ...: it visits
        # Binomial(need - 1, p) levels below ``need``, and its first total at
        # or above ``need`` is need - 1 + Geometric(p) by memorylessness.
        arrivals = 1 + rng.binomial(need - 1, mark.p)
        total = need - 1 + rng.geometric(mark.p, need.size)
    return arrivals, total, rng.gamma(arrivals, 1.0 / intensity)


def _bridged_crossing(rng, mark, level, top, top_arrivals, top_times):
    """(arrivals, time) at the first crossing of ``level`` <= ``top`` by a
    stream that first reached ``top`` at arrival ``top_arrivals``, time
    ``top_times``."""
    shape = top_arrivals.shape
    if level <= 0:
        return np.zeros(shape, dtype=np.int64), np.zeros(shape)
    if mark.family == "unit":
        arrivals = np.full(shape, level, dtype=np.int64)
    elif mark.family == "fixed":
        arrivals = np.full(shape, -(-level // mark.value), dtype=np.int64)
    else:
        # Given their number, the levels visited below ``top`` are a uniform
        # subset of 1 .. top - 1.
        arrivals = 1 + rng.hypergeometric(level - 1, top - level, top_arrivals - 1)
    # The arrivals before a given one of a Poisson stream are uniform order
    # statistics on (0, its time).
    times = top_times.copy()
    inner = arrivals < top_arrivals
    times[inner] *= rng.beta(arrivals[inner], top_arrivals[inner] - arrivals[inner])
    return arrivals, times


class _ArithmeticEpochs:
    """Observation epochs t0 + k d, k = 0, 1, ..., of deterministic later
    intervals."""

    def __init__(self, t0, d, cap):
        self.t0, self.d, self.cap = t0, d, cap

    def first_at_or_after(self, times, rows):
        """Index (at most ``cap``), previous epoch (0 before index 0) and
        epoch of the first observation at or after ``times`` on ``rows``."""
        t0 = self.t0[rows]
        index = np.clip(np.ceil((times - t0) / self.d), 0, self.cap)
        epoch = t0 + index * self.d
        return index.astype(np.int64), np.where(index > 0, epoch - self.d, 0.0), epoch


def _scatter(size, rows, values):
    out = np.full(size, np.nan if values.dtype.kind == "f" else 0, dtype=values.dtype)
    out[rows] = values
    return out


class _PoissonEpochs:
    """Observation epochs of exponential later intervals, sampled only around
    the times asked about.

    After the first epoch t0 the epochs form a Poisson process of rate 1/d.
    A time q past a path's last sampled epoch F samples one segment: looking
    back from q, the last epoch before q lies Exp(d) earlier, at p, unless
    that reaches back past F (then p = F and no epoch lies in (F, q)); the
    epochs strictly between F and p number Poisson((p - F) / d) and are
    uniform there; the first epoch at or after q is x = q + Exp(d).  A time
    at or before F falls in a sampled segment.  In (p, x] its epoch is x.  In
    (F, p) only its index is drawn: the binomial share of the segment's
    uniform epochs before it.  Such times must come in increasing order per
    path, so that each share is drawn given the ones before it.
    """

    def __init__(self, rng, t0, d, cap):
        n = t0.size
        self.rng, self.t0, self.d, self.cap = rng, t0, d, cap
        self.last = t0.copy()
        self.last_index = np.zeros(n, dtype=np.int64)
        # One (F, index of F, p, epochs in (F, q), x) per extending call,
        # NaN/0 on the paths that call did not extend.
        self.segments = []
        # Per path: the segment of the last time looked up inside (F, p), that
        # time, and how many of the segment's uniform epochs lie before it.
        self.cursor = np.full(n, -1)
        self.cursor_time = np.zeros(n)
        self.cursor_below = np.zeros(n, dtype=np.int64)

    def first_at_or_after(self, times, rows):
        """As ``_ArithmeticEpochs.first_at_or_after``; the previous epoch and
        the epoch are NaN where only the index is drawn."""
        index = np.zeros(rows.size, dtype=np.int64)
        prev = np.zeros(rows.size)
        epoch = self.t0[rows]
        ahead = times > self.last[rows]
        if ahead.any():
            index[ahead], prev[ahead], epoch[ahead] = self._extend(times[ahead],
                                                                   rows[ahead])
        inside = ~ahead & (times > self.t0[rows])
        if inside.any():
            index[inside], prev[inside], epoch[inside] = self._look_up(
                times[inside], rows[inside])
        return index, prev, epoch

    def _extend(self, times, rows):
        rng, d = self.rng, self.d
        last, last_index = self.last[rows], self.last_index[rows]
        back = rng.exponential(d, rows.size)
        empty = back >= times - last
        mean = np.where(empty, 0.0,
                        np.minimum((times - back - last) / d, _MAX_GAP_EPOCHS))
        count = np.where(empty, 0, 1 + rng.poisson(mean))
        prev = np.where(empty, last, times - back)
        epoch = times + rng.exponential(d, rows.size)
        index = np.minimum(last_index + count + 1, self.cap)
        self.segments.append(tuple(_scatter(self.t0.size, rows, v)
                                   for v in (last, last_index, prev, count, epoch)))
        self.last[rows], self.last_index[rows] = epoch, index
        return index, prev, epoch

    def _look_up(self, times, rows):
        index = np.empty(rows.size, dtype=np.int64)
        prev = np.full(rows.size, np.nan)
        epoch = np.full(rows.size, np.nan)
        for number, (start, start_index, p, count, x) in enumerate(self.segments):
            hit = (start[rows] < times) & (times <= x[rows])
            late = hit & (times >= p[rows])
            r = rows[late]
            index[late] = np.minimum(start_index[r] + count[r] + 1, self.cap)
            prev[late], epoch[late] = p[r], x[r]
            early = hit & ~late
            if not early.any():
                continue
            r, t = rows[early], times[early]
            fresh = r[self.cursor[r] != number]
            self.cursor[fresh] = number
            self.cursor_time[fresh] = start[fresh]
            self.cursor_below[fresh] = 0
            since, below = self.cursor_time[r], self.cursor_below[r]
            below = below + self.rng.binomial(count[r] - 1 - below,
                                              (t - since) / (p[r] - since))
            self.cursor_time[r], self.cursor_below[r] = t, below
            index[early] = np.minimum(start_index[r] + 1 + below, self.cap)
        return index, prev, epoch


def _simulate(
    params: ModelParams,
    thresholds: Thresholds,
    n_paths: int,
    seed: int,
    horizon: int,
    levels: Sequence[int],
) -> EmpiricalExitSummary:
    rng = np.random.default_rng(seed)
    cap = horizon + 1  # an index above the horizon is censored
    rows = np.arange(n_paths)
    t0 = params.obs_initial.sample(rng, n_paths)
    d = params.obs_interval.mean
    if params.obs_interval.family == "exponential":
        epochs = _PoissonEpochs(rng, t0, d, cap)
    else:
        epochs = _ArithmeticEpochs(t0, d, cap)

    crossings = []
    for intensity, mark, threshold in ((params.lambda_a, params.mark_a, thresholds.m),
                                       (params.lambda_b, params.mark_b, thresholds.n)):
        level = math.ceil(threshold)
        if level > 0:
            need = np.full(n_paths, level, dtype=np.int64)
            crossings.append(_crossing(rng, intensity, mark, need))
        else:
            zeros = np.zeros(n_paths, dtype=np.int64)
            crossings.append((zeros, zeros, np.zeros(n_paths)))

    # Both axes read the same epochs: place the earlier crossing first.
    (_, _, time_a), (_, _, time_b) = crossings
    a_first = time_a <= time_b
    first = epochs.first_at_or_after(np.minimum(time_a, time_b), rows)
    second = epochs.first_at_or_after(np.maximum(time_a, time_b), rows)
    exits = []
    for in_first, (_, total, crossed), intensity, mark in (
        (a_first, crossings[0], params.lambda_a, params.mark_a),
        (~a_first, crossings[1], params.lambda_b, params.mark_b),
    ):
        index, prev, epoch = (np.where(in_first, f, s) for f, s in zip(first, second))
        level = np.full(n_paths, np.nan)
        ok = index < cap
        level[ok] = total[ok] + compound_increments(rng, intensity, mark,
                                                    epoch[ok] - crossed[ok])
        exits.append((index, prev, epoch, level))

    study = _study_indices(rng, epochs, params, thresholds, levels, crossings[0],
                           exits[0], cap)
    for index, prev, epoch, level in exits:
        censored = index >= cap
        index[censored] = -1
        prev[censored] = epoch[censored] = np.nan
    for index in study.values():
        index[index >= cap] = -1

    (mu, tau_mu_prev, tau_mu, lev_mu), (nu, tau_nu_prev, tau_nu, lev_nu) = exits
    return EmpiricalExitSummary(
        n_paths=n_paths, seed=seed, params=params, thresholds=thresholds,
        mu=mu, nu=nu,
        tau_mu=tau_mu, tau_mu_prev=tau_mu_prev,
        tau_nu=tau_nu, tau_nu_prev=tau_nu_prev,
        level_at_mu=lev_mu, level_at_nu=lev_nu,
        censored_a=mu < 0, censored_b=nu < 0,
        study_mu=study,
    )


def _study_indices(rng, epochs, params, thresholds, levels, crossing, exit_a, cap):
    """Axis-A exit indices (at most ``cap``) at the study levels, drawn after
    the (m, n) record so that they leave it unchanged.

    A level at or below m is crossed on the way to m: its crossing is bridged
    back from the crossing of m.  A level above m continues the stream from
    the axis-A exit (epoch and level at exit), then from each crossing above.
    """
    top = math.ceil(thresholds.m)
    rows = np.arange(exit_a[0].size)
    levels = sorted(set(levels) - {thresholds.m})
    study = {}
    arrivals, _, times = crossing
    bridged, above = {}, top
    for level in reversed([level for level in levels if level <= top]):
        arrivals, times = _bridged_crossing(rng, params.mark_a, level, above,
                                            arrivals, times)
        bridged[level], above = times, level
    for level in sorted(bridged):
        study[level] = epochs.first_at_or_after(bridged[level], rows)[0]

    index, _, time, total = (values.copy() for values in exit_a)
    for level in (level for level in levels if level > top):
        go = np.flatnonzero((index < cap) & (total < level))
        _, reached, elapsed = _crossing(rng, params.lambda_a, params.mark_a,
                                        (level - total[go]).astype(np.int64))
        time[go] += elapsed
        total[go] += reached
        index[go] = epochs.first_at_or_after(time[go], go)[0]
        study[level] = index.copy()
    return study


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
    level in ``levels`` from the same paths (see
    ``EmpiricalExitSummary.exit_index_a``).  Those are drawn after the
    (m, n) record, which is therefore the same with or without levels.
    An index above ``horizon`` counts as censored.

    Deterministic for fixed (params, thresholds, n_paths, seed, levels).
    Fails with NoExitError, before any draw, when an axis with zero drift
    has a positive threshold or recorded level, and with HorizonError when
    more than MAX_CENSOR_FRACTION of paths are censored on either axis or at
    any recorded level.
    """
    if n_paths < 1:
        raise ParameterError("n_paths must be >= 1")
    # A level with zero drift never moves, so no positive threshold is ever
    # reached (its crossing time is infinite): fail before drawing.
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
    summary: EmpiricalExitSummary, ctx: TransformContext
) -> Tuple[float, float]:
    """Unbiased sample estimate of the joint first-exceedance functional.

    Averages z^mu g^nu exp(-theta0 tau_mu_prev - theta1 tau_mu - vartheta0
    tau_nu_prev - vartheta1 tau_nu) over the summary's paths, times the
    literal level indicators 1{level_at_mu <= m} 1{level_at_nu <= n}.
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
        * ((s.level_at_mu[ok] <= s.thresholds.m)
           & (s.level_at_nu[ok] <= s.thresholds.n))
    )
    return sample_mean_se(samples, "the joint functional")
