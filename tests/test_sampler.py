"""Exact-law tests of the event-driven sampler behind ``estimate_exits``.

The reference is a lattice dynamic programme over observation steps built
from the one-interval increment law, so it shares no code with the sampler:
both axes' increments over one interval come from the same interval length,
which is the only dependence between them.
"""

from functools import partial
from math import comb, exp, factorial

import numpy as np
import pytest

from literal import exit_indices, sample_path
from strategyshift.analytics import TransformContext
from strategyshift.errors import DomainError
from strategyshift.oracle import empirical_functional, estimate_exits, sample_mean_se
from strategyshift.params import (
    IntervalDistribution,
    MarkDistribution,
    ModelParams,
    Thresholds,
)

N_PATHS = 200_000
SE_MULTIPLE = 4.0
#: Cells expected to hold fewer paths than this are pooled into one cell.
MIN_EXPECTED = 50
STEPS = 120


def count_pmf(interval, lambda_a, lambda_b, size_a, size_b):
    """P(N_a = i, N_b = j), i < size_a, j < size_b: arrivals of the two
    streams over one shared interval."""
    d = interval.mean
    i = np.arange(size_a)[:, None]
    j = np.arange(size_b)[None, :]
    if interval.family == "deterministic":
        pois = np.vectorize(lambda k, lam: exp(-lam) * lam**k / factorial(k))
        return pois(i, lambda_a * d) * pois(j, lambda_b * d)
    # Mixing both Poisson counts over one Exp(d) length gives a negative
    # multinomial law.
    a, b = lambda_a * d, lambda_b * d
    binom = np.vectorize(lambda i, j: comb(i + j, i))
    return binom(i, j) * a**i * b**j / (1.0 + a + b) ** (i + j + 1)


def mark_sum_pmf(mark, counts, size):
    """P(sum of i marks = x), i < counts, x < size (marks are >= 1)."""
    out = np.zeros((counts, size))
    for i in range(counts):
        for x in range(size):
            if mark.family == "unit":
                out[i, x] = float(x == i)
            elif mark.family == "fixed":
                out[i, x] = float(x == i * mark.value)
            elif i == 0:
                out[i, x] = float(x == 0)
            elif x >= i:
                out[i, x] = comb(x - 1, i - 1) * mark.p**i * (1 - mark.p) ** (x - i)
    return out


def two_axis_law(params, interval, m, n):
    """Joint increment pmf over one interval on [0, m) x [0, n), and each
    axis's marginal pmf on [0, m) and [0, n)."""
    fa = mark_sum_pmf(params.mark_a, m, m)
    fb = mark_sum_pmf(params.mark_b, n, n)
    joint = fa.T @ count_pmf(interval, params.lambda_a, params.lambda_b, m, n) @ fb
    ga = fa.T @ count_pmf(interval, params.lambda_a, 0.0, m, 1)[:, 0]
    gb = fb.T @ count_pmf(interval, 0.0, params.lambda_b, 1, n)[0]
    return joint, ga, gb


def one_axis_law(params, interval, low, high):
    """The axis-A increment read against two levels ``low`` < ``high``: the
    joint pmf is diagonal."""
    fa = mark_sum_pmf(params.mark_a, high, high)
    g = fa.T @ count_pmf(interval, params.lambda_a, 0.0, high, 1)[:, 0]
    return np.diag(g)[:low, :high], g[:low], g


def exits_after(pending, g, steps):
    """P(a walk pending at each level exits exactly ``r`` later steps on), r =
    1 .. steps; ``g`` is its increment pmf below the threshold."""
    size = len(pending)
    out = np.zeros(steps + 1)
    for r in range(1, steps + 1):
        nxt = np.zeros(size)
        for y, v in enumerate(pending):
            nxt[y:] += v * g[: size - y]
            out[r] += v * (1.0 - g[: size - y].sum())
        pending = nxt
    return out


def joint_exit_pmf(initial_law, later_law, steps=STEPS):
    """P(first passage index of axis 1 = i, of axis 2 = j), i, j < steps, for
    a two-dimensional walk with the given one-step laws (the first step uses
    ``initial_law``); each law is (joint pmf below both thresholds, marginal
    pmf of axis 1, marginal pmf of axis 2)."""
    m, n = initial_law[0].shape
    pmf = np.zeros((steps, steps))
    both_pending = np.zeros((m, n))
    both_pending[0, 0] = 1.0
    for k in range(steps):
        joint, ga, gb = initial_law if k == 0 else later_law
        nxt = np.zeros((m, n))
        only_a_pending, only_b_pending = np.zeros(m), np.zeros(n)
        for x in range(m):
            for y in range(n):
                v = both_pending[x, y]
                if v == 0.0:
                    continue
                stay = joint[: m - x, : n - y]
                nxt[x:, y:] += v * stay
                only_a_pending[x:] += v * (ga[: m - x] - stay.sum(axis=1))
                only_b_pending[y:] += v * (gb[: n - y] - stay.sum(axis=0))
                pmf[k, k] += v * (1.0 - ga[: m - x].sum() - gb[: n - y].sum()
                                  + stay.sum())
        later_a, later_b = later_law[1], later_law[2]
        rest = steps - 1 - k
        pmf[k, k:] += exits_after(only_b_pending, later_b, rest)
        pmf[k:, k] += exits_after(only_a_pending, later_a, rest)
        both_pending = nxt
    return pmf


def assert_pmf_matches(pmf, *indices, min_cells=10):
    """Cell-by-cell 4-SE comparison of sampled indices with ``pmf``, one index
    array per axis of ``pmf``; sparse cells and mass beyond the table are
    pooled, and at least ``min_cells`` cells must stay unpooled."""
    assert pmf.sum() > 1.0 - 1e-9, "lattice table truncated too early"
    n_paths = indices[0].size
    observed = np.zeros(pmf.shape)
    inside = np.logical_and.reduce([idx < size for idx, size in zip(indices, pmf.shape)])
    np.add.at(observed, tuple(idx[inside] for idx in indices), 1)
    big = pmf * n_paths >= MIN_EXPECTED
    cells = [(observed[big], pmf[big] * n_paths)]
    pooled_observed = n_paths - observed[big].sum()
    pooled_expected = (1.0 - pmf[big].sum()) * n_paths
    cells.append((np.array([pooled_observed]), np.array([pooled_expected])))
    for obs, expected in cells:
        p = expected / n_paths
        se = np.sqrt(n_paths * p * (1.0 - p))
        z = (obs - expected) / np.maximum(se, 1e-300)
        assert np.all(np.abs(z) <= SE_MULTIPLE), f"max |z| = {np.abs(z).max():.2f}"
    assert big.sum() >= min_cells


EXP = partial(IntervalDistribution, "exponential")
DET = partial(IntervalDistribution, "deterministic")
UNIT = MarkDistribution()

#: (params, m, n): exponential and deterministic intervals, d0 != d, and
#: unit, fixed and geometric marks on each axis.
CASES = {
    "exp-unit-geometric": (ModelParams(1.0, 0.7, EXP(2.0), EXP(1.0),
                                       UNIT, MarkDistribution("geometric", p=0.4)), 3, 2),
    "det-fixed-unit": (ModelParams(2.0, 1.5, DET(1.5), DET(0.5),
                                   MarkDistribution("fixed", 2), UNIT), 5, 4),
    "exp-geometric-fixed": (ModelParams(0.8, 1.2, EXP(0.5), EXP(1.5),
                                        MarkDistribution("geometric", p=0.6),
                                        MarkDistribution("fixed", 3)), 5, 5),
    "det-geometric-geometric": (ModelParams(1.0, 1.0, DET(1.0), DET(2.0),
                                            MarkDistribution("geometric", p=0.5),
                                            MarkDistribution("geometric", p=0.3)), 4, 1),
}


def test_lattice_reference_is_exact_on_the_geometric_case():
    # Unit rates, unit marks, Exp(1) intervals, m = n = 1: each exit index is
    # geometric with P(mu = k) = 2^-(k+1).
    params = ModelParams(1.0, 1.0, EXP(1.0), EXP(1.0))
    law = two_axis_law(params, params.obs_interval, 1, 1)
    pmf = joint_exit_pmf(law, law, steps=60)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-15)
    geometric = 0.5 ** np.arange(1, 21)
    np.testing.assert_allclose(pmf.sum(axis=1)[:20], geometric, rtol=1e-12)
    np.testing.assert_allclose(pmf.sum(axis=0)[:20], geometric, rtol=1e-12)


@pytest.mark.parametrize("case", sorted(CASES))
def test_joint_exit_index_law(case):
    params, m, n = CASES[case]
    initial = two_axis_law(params, params.obs_initial, m, n)
    later = two_axis_law(params, params.obs_interval, m, n)
    s = estimate_exits(params, Thresholds(m=m, n=n), N_PATHS, 71)
    assert np.all(s.a.index >= 0) and np.all(s.b.index >= 0)
    assert_pmf_matches(joint_exit_pmf(initial, later), s.a.index, s.b.index)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("m, low, high", [(5, 2, 4), (1, 2, 5), (3, 2, 5)])
def test_law_of_each_study_level(case, m, low, high):
    # The study levels are one nested chain per path, drawn apart from the
    # (m, n) record wherever they lie against m, so each must have its own
    # level's exit-index law.  A 1-D law has fewer cells than a joint one:
    # the deterministic cases keep 6 unpooled.
    params, _, n = CASES[case]
    initial = one_axis_law(params, params.obs_initial, low, high)
    later = one_axis_law(params, params.obs_interval, low, high)
    pmf = joint_exit_pmf(initial, later)
    s = estimate_exits(params, Thresholds(m=m, n=n), N_PATHS, 73, levels=(low, high))
    for level, marginal in ((low, pmf.sum(axis=1)), (high, pmf.sum(axis=0))):
        assert_pmf_matches(marginal, s.study_mu[level], min_cells=5)


@pytest.mark.parametrize("case", sorted(CASES))
def test_joint_law_of_two_study_levels(case):
    # Two levels of the chain share one compound Poisson stream and one
    # epoch sequence per path, so the pair of their indices has the joint
    # law of one axis read against both levels.
    params, _, n = CASES[case]
    low, high = 2, 5
    initial = one_axis_law(params, params.obs_initial, low, high)
    later = one_axis_law(params, params.obs_interval, low, high)
    s = estimate_exits(params, Thresholds(m=1, n=n), N_PATHS, 89, levels=(low, high))
    assert_pmf_matches(joint_exit_pmf(initial, later),
                       s.study_mu[low], s.study_mu[high])


@pytest.mark.parametrize("case", sorted(CASES))
def test_wald_identity(case):
    # mu is a stopping time of the i.i.d. later intervals, so
    # E[tau_mu] = d0 + d E[mu].
    params, m, n = CASES[case]
    s = estimate_exits(params, Thresholds(m=m, n=n), N_PATHS, 79)
    d0, d = params.obs_initial.mean, params.obs_interval.mean
    for index, tau in ((s.a.index, s.a.shift), (s.b.index, s.b.shift)):
        residual = tau - d * index
        se = residual.std(ddof=1) / np.sqrt(residual.size)
        assert abs(residual.mean() - d0) <= SE_MULTIPLE * max(se, 1e-12)


@pytest.mark.parametrize("case", sorted(CASES))
def test_record_matches_literal_paths(case):
    # Every epoch field of the exit record, and the joint functional's level
    # indicators, against the literal per-path definition
    # (literal.sample_path + literal.exit_indices), mean by mean.
    params, m, n = CASES[case]
    thresholds = Thresholds(m=m, n=n)
    records = [exit_indices(sample_path(params, seed, 60), thresholds)
               for seed in range(3000)]
    assert not any(r.censored_a or r.censored_b for r in records)
    s = estimate_exits(params, thresholds, 50_000, 83)
    pairs = [(name, [getattr(r, name) for r in records],
              sample_mean_se(sampled.astype(float), name))
             for name, sampled in (("mu", s.a.index), ("nu", s.b.index),
                                   ("tau_mu", s.a.shift), ("tau_mu_prev", s.a.prior),
                                   ("tau_nu", s.b.shift), ("tau_nu_prev", s.b.prior))]
    # At neutral arguments the functional averages the level indicators.
    pairs.append(("level indicators",
                  [r.level_at_mu == m and r.level_at_nu == n for r in records],
                  empirical_functional(s, TransformContext())))
    for name, literal, (mean, se) in pairs:
        literal = np.array(literal, dtype=float)
        se = np.hypot(literal.std(ddof=1) / np.sqrt(literal.size), se)
        assert abs(literal.mean() - mean) <= SE_MULTIPLE * max(se, 1e-12), name


@pytest.mark.parametrize("interval", [EXP, DET], ids=["exponential", "deterministic"])
@pytest.mark.parametrize("axis", ["a", "b"])
@pytest.mark.parametrize("m, levels", [(1, (2, 3, 5)), (5, (2, 3))])
def test_vanishing_intensity_is_censored(interval, axis, m, levels):
    # Crossing times near 1e300 must censor at the horizon, not overflow an
    # integer or ask numpy for a Poisson draw with an enormous mean.
    tiny, one = (1e-300, 1.0) if axis == "a" else (1.0, 1e-300)
    params = ModelParams(tiny, one, interval(1.0), interval(2.0))
    with pytest.raises(DomainError, match="observation cap"):
        estimate_exits(params, Thresholds(m=m, n=2), 1000, 5, horizon=50,
                       levels=levels)
