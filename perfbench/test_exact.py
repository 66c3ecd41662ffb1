"""Tests of the exact-law reference against brute-force lattice enumeration.

Run with ``python3 -m pytest perfbench``.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from exact import AxisLaw, increment_pmf

MARKS = [
    {"family": "unit"},
    {"family": "fixed", "value": 2},
    {"family": "geometric", "p": 0.4},
]
FAMILIES = ["exponential", "deterministic"]


def count_pmf(intensity, family, mean, n_max):
    """P(N = k), k <= n_max, for the arrivals over one interval.

    Exponential intervals are mixed by numerical quadrature over t, so the
    geometric law used by the reference is not assumed here.
    """
    def poisson(k, t):
        return math.exp(-intensity * t) * (intensity * t) ** k / math.factorial(k)

    if family == "deterministic":
        return np.array([poisson(k, mean) for k in range(n_max + 1)])
    return np.array([
        integrate.quad(lambda t: poisson(k, t) * math.exp(-t / mean) / mean,
                       0.0, math.inf, epsabs=1e-14, epsrel=1e-12)[0]
        for k in range(n_max + 1)
    ])


def mark_values(mark, top):
    """(value, probability) pairs of one mark, values <= top."""
    if mark["family"] == "unit":
        return [(1, 1.0)]
    if mark["family"] == "fixed":
        return [(mark["value"], 1.0)]
    p = mark["p"]
    return [(v, p * (1 - p) ** (v - 1)) for v in range(1, top + 1)]


def brute_increment_pmf(intensity, mark, family, mean, order):
    """Increment pmf by enumerating every arrival count and mark sequence.

    Every mark is at least 1, so more than ``order`` arrivals overshoot.
    """
    n_max = order
    pn = count_pmf(intensity, family, mean, n_max)
    g = np.zeros(order + 1)
    values = mark_values(mark, order)
    for n in range(n_max + 1):
        for seq in itertools.product(values, repeat=n):
            total = sum(v for v, _ in seq)
            if total <= order:
                g[total] += pn[n] * math.prod(p for _, p in seq)
    return g


def brute_exit_law(g0, g, m, z, k_max=400):
    """(E[mu], E[z^mu]) by stepping the level distribution over the lattice.

    Mass below m after step k is P(S_k < m) = P(mu > k).
    """
    below = g0[:m].copy()
    survival = [below.sum()]
    for _ in range(k_max):
        below = np.convolve(below, g[:m])[:m]
        survival.append(below.sum())
    survival = np.array(survival)
    p_exit = np.concatenate(([1.0], survival[:-1])) - survival
    return survival.sum(), float(np.sum(p_exit * z ** np.arange(len(p_exit))))


def doc(mark, family, m, d0=1.7, d=0.6, lam=1.3):
    return {
        "process": {"lambda_a": lam, "lambda_b": lam, "mark_a": mark},
        "observation": {"family": family, "initial_mean": d0, "interval_mean": d},
        "thresholds": {"m": m, "n": m},
    }


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mark", MARKS, ids=lambda mk: mk["family"])
def test_panjer_matches_enumeration(mark, family):
    order = 6
    exact = increment_pmf(1.3, mark, family, 0.8, order)
    brute = brute_increment_pmf(1.3, mark, family, 0.8, order)
    np.testing.assert_allclose(exact, brute, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mark", MARKS, ids=lambda mk: mk["family"])
def test_exit_law_matches_lattice(mark, family, m):
    law = AxisLaw(doc(mark, family, m), "a")
    brute_g0 = brute_increment_pmf(1.3, mark, family, 1.7, m - 1)
    brute_g = brute_increment_pmf(1.3, mark, family, 0.6, m - 1)
    for z in (0.25, 0.5, 0.75):
        mean, pgf = brute_exit_law(brute_g0, brute_g, m, z)
        assert law.mean_exit_index() == pytest.approx(mean, rel=1e-9)
        assert law.exit_index_pgf(z) == pytest.approx(pgf, rel=1e-9)
    assert law.mean_shift_time() == pytest.approx(1.7 + 0.6 * mean, rel=1e-12)


def test_reference_config_is_geometric():
    # Unit rate, unit marks, unit-mean exponential intervals at m = 1: each
    # interval is empty with probability 1/2, so mu is geometric.
    ref = {
        "process": {"lambda_a": 1.0, "lambda_b": 1.0},
        "observation": {"family": "exponential", "initial_mean": 1.0,
                        "interval_mean": 1.0},
        "thresholds": {"m": 1, "n": 1},
    }
    for axis in "ab":
        law = AxisLaw(ref, axis)
        assert law.mean_exit_index() == pytest.approx(1.0, rel=1e-15)
        assert law.exit_index_pgf(0.5) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert law.mean_shift_time() == pytest.approx(2.0, rel=1e-15)


def test_wald_matches_simulated_shift_epochs():
    # Exponential intervals with d0 != d: tau_mu is a random sum, so this
    # checks Wald's identity, not a restatement of it.
    d = doc({"family": "geometric", "p": 0.5}, "exponential", 4)
    law = AxisLaw(d, "a")
    rng = np.random.default_rng(5)
    n_paths, steps = 200_000, 60
    dt = np.column_stack([rng.exponential(1.7, n_paths),
                          rng.exponential(0.6, (n_paths, steps))])
    counts = rng.poisson(1.3 * dt)
    inc = counts + np.where(counts > 0, rng.negative_binomial(np.maximum(counts, 1), 0.5), 0)
    level = np.cumsum(inc, axis=1)
    mu = np.argmax(level >= 4, axis=1)
    assert np.all(level[:, -1] >= 4)
    tau = np.cumsum(dt, axis=1)[np.arange(n_paths), mu]
    se = tau.std(ddof=1) / math.sqrt(n_paths)
    assert abs(tau.mean() - law.mean_shift_time()) < 5 * se
    se_mu = mu.std(ddof=1) / math.sqrt(n_paths)
    assert abs(mu.mean() - law.mean_exit_index()) < 5 * se_mu
