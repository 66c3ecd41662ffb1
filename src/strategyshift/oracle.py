"""Monte Carlo verification engine.

Simulates the observed two-parameter process (vectorized across paths) and
turns the results into empirical exit summaries and empirical transforms, the
Monte Carlo side of the conformance table (``report.conformance_rows``).

The simulator is event-driven and exact: it draws each path's crossing times
and the observation epochs around them instead of stepping through every
observation.  A level first reaches its threshold L at an arrival J of its
Poisson stream (J = L for unit marks, ceil(L / v) for a fixed mark v,
1 + Binomial(L - 1, p) for geometric(p) marks), so at the continuous time
T ~ Gamma(J, 1 / lambda).  A Binomial(n, p) count that numpy would draw by
BTPE (n min(p, 1 - p) > 30) comes instead from a Walker alias table over
0..n, one uniform a draw, when there are at least ALIAS_CROSSOVER draws per
table entry to pay for its set-up (``_binomial``); every other count is
``rng.binomial``'s.  The exit index is the first observation epoch at
or after T and the prior epoch is the one before it: plain arithmetic for
deterministic intervals (``_arithmetic_epochs``), a few memoryless draws
around T for exponential ones (``_poisson_epochs``, asked once for the
earlier of the two axes' crossings and once for the later).  Each axis
records T with its epochs.  Its level at exit is never drawn: the joint
functional averages the probability, given T and the exit epoch, that the
level is still at the threshold (``_level_stays``).  A path thus costs a
fixed number of draws per recorded level, whatever its exit index.

The axis-A levels of the threshold-dependence study, m included, are drawn
after that record on one fresh compound Poisson stream per path, from the
path's first epoch t0 (``_study``).  They form a nested chain: in increasing
order, each level's crossing time is the one below it plus
Gamma(J_high - J_low, 1 / lambda), the time of the arrivals between the two
levels (L_high - L_low of them for unit marks, a difference of ceilings for a
fixed mark, Binomial(L_high - L_low, p) for geometric marks).  On exponential
intervals a level's index is 0 where T <= t0, else one plus the epochs of a
fresh Poisson process in (t0, T), which grow by one Poisson draw per level
(``_epochs_within``, which counts the record's epochs too); on deterministic
ones it is arithmetic.  So each level has its exact law, no index of a path
falls as the level rises, and the chain is independent of the record.

Each axis's record is one ``AxisExits``, censored where its index is -1, and
every Monte Carlo mean over one axis's exited paths is ``exit_mean_se``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

from .config import DEFAULT_HORIZON
from .errors import DomainError
from .params import ModelParams, Thresholds

if TYPE_CHECKING:
    from .analytics import TransformContext

#: Paths that never exceed within the horizon are censored, and a run fails
#: when censoring exceeds this fraction on any recorded level.
MAX_CENSOR_FRACTION = 0.001


def sample_mean_se(samples: np.ndarray, what: str) -> Tuple[float, float]:
    """Sample mean and standard error (0.0 for a single sample); a
    DomainError when either is not finite, as when huge epochs' squares
    overflow."""
    if samples.size == 0:
        raise DomainError(f"all paths censored; no samples of {what}")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        mean = samples.mean()
        se = samples.std(ddof=1) / np.sqrt(samples.size) if samples.size > 1 else 0.0
    if not (np.isfinite(mean) and np.isfinite(se)):
        raise DomainError(f"the Monte Carlo mean or standard error of {what} "
                          "is not a finite float")
    return float(mean), float(se)


def exit_mean_se(index: np.ndarray, values, what: str) -> Tuple[float, float]:
    """Sample mean and standard error of a per-path value over the paths
    that exited (``index >= 0``).

    ``values`` is an array aligned with ``index``, or a function of the
    exited paths' indices.  The function never sees a censored index, so a
    transform such as ``z ** k`` at z = 0 never divides by zero.  When no
    path is censored, both are read whole, without a masked copy.
    """
    exited = index >= 0
    if exited.all():
        exited = slice(None)
    samples = values(index[exited]) if callable(values) else values[exited]
    return sample_mean_se(np.asarray(samples, dtype=float), what)


class AxisExits(namedtuple("AxisExits", "index prior crossing shift")):
    """One axis's exit record, arrays aligned by path: the exit index (-1
    where censored), the prior epoch (0 before index 0), the crossing time T
    and the shift epoch (NaN where censored).  ``index`` hides
    ``tuple.index``."""

    __slots__ = ()


class EmpiricalExitSummary(namedtuple(
        "EmpiricalExitSummary", "a b n_paths params thresholds study_mu")):
    """The exit records of a batch of simulated trajectories.

    ``a`` and ``b`` are the two axes' records at the thresholds (m, n).
    ``study_mu`` maps each axis-A study level to its exit-index array (-1
    where censored).  The levels, m included, are one nested chain per path,
    drawn apart from ``a``: each array has its level's exact law, and on a
    path no exited index falls as the level rises.  ``mu`` and ``nu`` are
    ``a.index`` and ``b.index`` under the paper's names.  The tracer's
    ``estimate_exits`` hook in ``perfbench/traced.py`` reads them too, but
    never runs: the CLI loads this module after the tracer has installed.
    """

    __slots__ = ()

    mu = property(lambda self: self.a.index, doc="Axis-A exit indices.")
    nu = property(lambda self: self.b.index, doc="Axis-B exit indices.")


#: Draws per table entry from which a binomial count that numpy would draw
#: by BTPE comes from an alias table (``_binomial``).  On a 2-vCPU Xeon VM
#: (numpy 2.4) the table's set-up cost ~0.3-0.4 us an entry and its draws
#: saved 18-70 ns each; the worst case of the grid in BENCH_29.json broke
#: even at 15 draws an entry, and this is twice that, rounded up.
ALIAS_CROSSOVER = 32

#: A gap whose expected epoch count exceeds this is drawn at this mean (numpy
#: refuses Poisson means near 2**63).  Such a gap holds more epochs than any
#: horizon, so every index at or past it is censored either way.
_MAX_GAP_EPOCHS = 1e18


def _arrivals(rng, mark, low, high, size):
    """Arrivals, on ``size`` paths, that take a compound Poisson stream from
    its first total at or above ``low`` to its first at or above ``high``
    (0 <= low < high)."""
    if mark.family == "geometric":
        # The totals a sum of geometric(p) marks visits are 0 and the
        # successes of Bernoulli(p) trials over the levels 1, 2, ...; each
        # visited total below ``high`` is left by one arrival.
        start = int(low == 0)
        return start + _binomial(rng, high - low - start, mark.p, size)
    return (-low // mark.value) - (-high // mark.value)  # ceil(high/v) - ceil(low/v)


def _alias_table(n, p):
    """Walker's alias table of Binomial(n, p) on 0..n (0 < p <= 1), built by
    Vose's method: column k keeps k with probability ``prob[k]`` and gives
    ``alias[k]`` otherwise, each column chosen with probability 1 / (n + 1).

    The weights are the pmf's successive ratios (n - k + 1) / k * p / q
    multiplied out from the mode, so each is at most 1 and the ones that
    carry the mass take few roundings.  A log-pmf from ``math.lgamma`` would
    cancel: lgamma(20000) is ~178,000, whose rounding alone is ~3e-11.
    """
    if p == 1.0:  # all mass on n; the ratios would divide by q = 0
        weights = np.zeros(n + 1)
        weights[n] = 1.0
    else:
        k = np.arange(1, n + 1)
        ratio = (n - k + 1) / k * (p / (1.0 - p))
        mode = min(int((n + 1) * p), n)
        weights = np.ones(n + 1)
        np.cumprod(ratio[mode:], out=weights[mode + 1:])
        weights[:mode] = np.cumprod(1.0 / ratio[:mode][::-1])[::-1]
    scaled = (weights * ((n + 1) / weights.sum())).tolist()
    prob, alias = [1.0] * (n + 1), list(range(n + 1))
    small = [k for k, q in enumerate(scaled) if q < 1.0]
    large = [k for k, q in enumerate(scaled) if q >= 1.0]
    while small and large:
        below, above = small.pop(), large.pop()
        prob[below], alias[below] = scaled[below], above
        scaled[above] = (scaled[above] + scaled[below]) - 1.0
        (small if scaled[above] < 1.0 else large).append(above)
    # A column left over in either list is full up to rounding: prob 1.
    return np.array(prob), np.array(alias)


def _binomial(rng, n, p, size):
    """Binomial(n, p) counts on ``size`` paths.

    numpy draws them by BTPE when n min(p, 1 - p) > 30, at ~30-80 ns a
    draw, and by inversion below, whose cost falls with that mean.  Where
    BTPE would run on at least ALIAS_CROSSOVER draws per table entry, the
    counts come from an alias table (``_alias_table``) instead: one uniform
    a draw, scaled by n + 1, whose integer part picks the column and whose
    fraction is the column's coin.  Else ``rng.binomial`` draws them.
    """
    if n * min(p, 1.0 - p) <= 30.0 or size < ALIAS_CROSSOVER * (n + 1):
        return rng.binomial(n, p, size)
    prob, alias = _alias_table(n, p)
    coin = rng.random(size)
    coin *= n + 1  # stays below n + 1: (1 - 2**-53)(n + 1) rounds below it
    column = coin.astype(np.int64)
    coin -= column
    return np.where(coin < prob.take(column), column, alias.take(column))


def _crossing(rng, intensity, mark, low, high, size):
    """Time on ``size`` paths for a compound Poisson stream to climb from its
    first total at or above ``low`` to its first at or above ``high`` (0 <=
    low < high; low = 0 starts a fresh stream); a high <= 0 takes no time."""
    if high <= 0:
        return np.zeros(size)
    return rng.gamma(_arrivals(rng, mark, low, high, size), 1.0 / intensity, size)


def _level_stays(intensity, mark, level, crossing, shift):
    """P(an axis's level at its shift epoch equals ``level`` | its crossing
    time and shift epoch), per path.

    The crossing arrival lands on ``level`` surely at level 0 and for unit
    marks, with probability p for geometric marks (the first total at or
    above ``level`` is level - 1 + Geometric(p)), and when v divides
    ``level`` for a fixed mark v.  Then no arrival of a non-zero mark may
    follow in (crossing, shift].
    """
    if level <= 0:
        lands = 1.0
    elif mark.family == "geometric":
        lands = mark.p
    else:
        lands = float(level % mark.value == 0)
    if intensity * mark.mean() == 0.0:
        return np.full(shift.shape, lands)  # never 0 * an infinite gap
    with np.errstate(over="ignore"):  # an overflowing exponent is exp(-inf) = 0
        stays = np.subtract(shift, crossing)
        stays *= -intensity
        np.exp(stays, out=stays)
    stays *= lands
    return stays


def _arithmetic_index(times, t0, d, cap):
    """Index (at most ``cap``, as floats) of the first observation at or
    after ``times``, per path, among the epochs t0 + k d, k = 0, 1, ..., of
    deterministic later intervals."""
    with np.errstate(over="ignore"):  # an overflowing index is capped
        return np.clip(np.ceil((times - t0) / d), 0, cap)


def _arithmetic_epochs(times, t0, d, cap):
    """Index (``_arithmetic_index``), previous epoch (0 before index 0) and
    epoch of the first observation at or after ``times``, per path."""
    index = _arithmetic_index(times, t0, d, cap)
    epoch = t0 + index * d
    return index.astype(np.int64), np.where(index > 0, epoch - d, 0.0), epoch


def _epochs_within(rng, gap, d):
    """Epochs of a rate-1/d Poisson process in a window of length ``gap``,
    per path.  A gap that is not positive, or NaN (inf - inf), holds none;
    a mean above _MAX_GAP_EPOCHS is drawn at that cap.

    ``gap`` is a temporary of the caller's: it becomes the Poisson means in
    place and is handed to the draw, so nothing may write it afterwards."""
    np.fmax(gap, 0.0, out=gap)
    gap /= d
    return rng.poisson(np.minimum(gap, _MAX_GAP_EPOCHS, out=gap))


def _poisson_epochs(rng, times, d, cap, index, prev, last):
    """As ``_arithmetic_epochs``, for exponential later intervals, given the
    triple ``(index, prev, last)`` that the previous query returned (for the
    first, 0, 0.0 and t0); ``times`` must not fall below the previous
    query's on a path.

    After t0 the epochs form a Poisson process of rate 1/d, sampled only
    around the times asked about.  A time q past a path's last sampled epoch
    x samples one segment: looking back from q, the last epoch before q lies
    Exp(d) earlier, at p, unless that reaches back past x (then p = x and no
    epoch lies in (x, q)); the epochs strictly between x and p number
    Poisson((p - x) / d); the first epoch at or after q is the new
    x = q + Exp(d).  A time at or before x lies in (p, x], so its epoch is x
    too.  Every query draws the segment's variates on every path.  The new
    triple is built in the buffers of the Poisson count and the two
    exponential variates; masked copies then set p = x where the look-back
    reaches past x, and keep the old triple on the paths not past x.
    """
    back = rng.exponential(d, times.size)
    forward = rng.exponential(d, times.size)
    with np.errstate(over="ignore", invalid="ignore"):  # overflows are capped
        gap = times - last
        inside = back < gap
        count = _epochs_within(rng, np.subtract(gap, back, out=gap), d)
        count += 1
        count += inside
        count += index
        np.minimum(count, cap, out=count)
        np.subtract(times, back, out=back)
        np.add(times, forward, out=forward)
    np.copyto(back, last, where=np.logical_not(inside, out=inside))
    behind = np.logical_not(np.greater(times, last, out=inside), out=inside)
    np.copyto(count, index, where=behind)
    np.copyto(back, prev, where=behind)
    np.copyto(forward, last, where=behind)
    return count, back, forward


def _study(rng, params, t0, cap, levels):
    """Axis-A exit indices at each of ``levels`` (-1 where censored), read
    off one fresh compound Poisson stream per path after its t0.

    The levels are drawn in increasing order: each positive level's crossing
    adds the Gamma time of the arrivals between it and the level below, so
    no index falls as the level rises.  On exponential later intervals the
    index is 0 where T <= t0, else 1 + N(t0, T), N counting the epochs of a
    fresh rate-1/d Poisson process; N grows by one Poisson draw per level
    (``_epochs_within``).  On deterministic ones ``_arithmetic_index``
    gives it.
    """
    intensity, mark, interval = params.lambda_a, params.mark_a, params.obs_interval
    d = interval.mean
    study, below, crossed, reached, count = {}, 0, 0.0, t0, 0
    for level in sorted(set(levels)):
        if level <= 0:
            study[level] = np.zeros(t0.size, dtype=np.int64)
            continue
        # Each accumulator takes its sum in the buffer of the new draw.
        step = _crossing(rng, intensity, mark, below, level, t0.size)
        crossed = np.add(crossed, step, out=step)
        below = level
        if interval.family == "exponential":
            # The epochs in (t0, T) grow by those between the level below's
            # reach past t0 and this one's; that window is written into the
            # level below's reach, t0 aside.
            reach = np.maximum(crossed, t0)
            with np.errstate(over="ignore", invalid="ignore"):  # overflows are capped
                window = np.subtract(reach, reached,
                                     out=None if reached is t0 else reached)
                drawn = _epochs_within(rng, window, d)
                count = np.minimum(np.add(count, drawn, out=drawn), cap, out=drawn)
            reached = reach
            index = count + 1
            index *= crossed > t0
        else:
            index = _arithmetic_index(crossed, t0, d, cap).astype(np.int64)
        index[index >= cap] = -1
        study[level] = index
    return study


def _records(rng, params, thresholds, n_paths, cap):
    """Each path's first epoch t0, and the two axes' ``AxisExits`` at the
    thresholds (m, n)."""
    if params.obs_initial.family == "exponential":
        t0 = rng.exponential(params.obs_initial.mean, n_paths)
    else:
        t0 = np.full(n_paths, params.obs_initial.mean)
    time_a = _crossing(rng, params.lambda_a, params.mark_a, 0, thresholds.m, n_paths)
    time_b = _crossing(rng, params.lambda_b, params.mark_b, 0, thresholds.n, n_paths)

    # Both axes read the same epochs: place the earlier crossing first.
    a_first = time_a <= time_b
    d = params.obs_interval.mean
    if params.obs_interval.family == "exponential":
        first = _poisson_epochs(rng, np.minimum(time_a, time_b), d, cap, 0, 0.0, t0)
        second = _poisson_epochs(rng, np.maximum(time_a, time_b), d, cap, *first)
    else:
        first = _arithmetic_epochs(np.minimum(time_a, time_b), t0, d, cap)
        second = _arithmetic_epochs(np.maximum(time_a, time_b), t0, d, cap)
    # Axis A takes each field from the query of its crossing; axis B then
    # takes the other query's in the first query's buffer.
    fields_a = [np.where(a_first, f, s) for f, s in zip(first, second)]
    for f, s in zip(first, second):
        np.copyto(f, s, where=a_first)
    exits = []
    for (index, prior, shift), crossed in ((fields_a, time_a), (first, time_b)):
        censored = index >= cap
        if censored.any():
            index[censored] = -1
            prior[censored] = crossed[censored] = shift[censored] = np.nan
        exits.append(AxisExits(index, prior, crossed, shift))
    return t0, exits


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
    level in ``levels`` (``EmpiricalExitSummary.study_mu``).  The
    levels, m included, are drawn in increasing order on one fresh stream
    per path (a nested chain; a level <= 0 reads index 0), from the same
    generator after the (m, n) record, which is therefore the same with or
    without levels.  An index above ``horizon`` counts as censored.

    Deterministic for fixed (params, thresholds, n_paths, seed, levels).
    Fails with a DomainError, before any draw, when an axis with zero drift
    has a positive threshold or recorded level, and with one after it when
    more than MAX_CENSOR_FRACTION of paths are censored on either axis or at
    any recorded level.
    """
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    # A level with zero drift never moves, so no positive threshold is ever
    # reached (its crossing time is infinite): fail before drawing.
    for axis, intensity, mark, level in (
        ("A", params.lambda_a, params.mark_a, max((thresholds.m, *levels))),
        ("B", params.lambda_b, params.mark_b, thresholds.n),
    ):
        if level > 0 and intensity * mark.mean() == 0.0:
            raise DomainError(
                f"axis {axis} has zero drift (intensity times mean mark) and "
                f"never reaches level {level:g}"
            )
    rng = np.random.default_rng(seed)
    cap = horizon + 1  # an index above the horizon is censored
    t0, (a, b) = _records(rng, params, thresholds, n_paths, cap)
    # The study reuses the pages of the record's temporaries, freed on return.
    study = _study(rng, params, t0, cap, levels)
    worst = max(int(np.count_nonzero(index < 0))
                for index in (a.index, b.index, *study.values()))
    if worst > MAX_CENSOR_FRACTION * n_paths:
        raise DomainError(
            f"{worst}/{n_paths} paths hit the {horizon}-observation cap "
            "before exceedance; raise the horizon to keep estimates unbiased"
        )
    return EmpiricalExitSummary(a, b, n_paths, params, thresholds, study)


def empirical_functional(
    summary: EmpiricalExitSummary, ctx: TransformContext
) -> Tuple[float, float]:
    """Unbiased sample estimate of the joint first-exceedance functional.

    Averages z^mu g^nu exp(-theta0 tau_mu_prev - theta1 tau_mu - vartheta0
    tau_nu_prev - vartheta1 tau_nu) over the summary's paths, times the level
    indicators 1{level_at_mu <= m} 1{level_at_nu <= n}.  Each indicator
    enters as its conditional probability given the path's crossing time and
    shift epoch (``_level_stays``), which has the same mean and a smaller
    variance than the indicator itself.  A factor at its neutral argument
    (z = 1, g = 1, or every theta 0) is exactly 1, so it is left out of the
    product; an infinite epoch then weighs exp(0) = 1 at theta 0, not NaN.
    """
    a, b = summary.a, summary.b
    params, thresholds = summary.params, summary.thresholds
    ok = (a.index >= 0) & (b.index >= 0)
    if ok.all():
        ok = slice(None)
    factors = [base ** index[ok] for base, index in ((ctx.z, a.index), (ctx.g, b.index))
               if base != 1.0]
    if any((ctx.theta0, ctx.theta1, ctx.vartheta0, ctx.vartheta1)):
        factors.append(np.exp(
            -ctx.theta0 * a.prior[ok]
            - ctx.theta1 * a.shift[ok]
            - ctx.vartheta0 * b.prior[ok]
            - ctx.vartheta1 * b.shift[ok]
        ))
    factors += (
        _level_stays(params.lambda_a, params.mark_a, thresholds.m,
                     a.crossing[ok], a.shift[ok]),
        _level_stays(params.lambda_b, params.mark_b, thresholds.n,
                     b.crossing[ok], b.shift[ok]),
    )
    return sample_mean_se(reduce(np.multiply, factors), "the joint functional")
