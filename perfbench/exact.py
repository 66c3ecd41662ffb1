"""Exact law of the exit indices, computed apart from the package.

Reads a config document (the same JSON the CLI reads) and derives, per axis,
the quantities the benchmark's output checks compare against.  Nothing here
imports ``strategyshift``: the one-interval increment pmf comes from Panjer's
recursion, the exit-index law from the renewal sequence of G0 / (1 - z G).

Conventions match the simulator: the level after observation k (k = 0 is the
end of the initial interval) is S_k = a_0 + ... + a_k, and the exit index is
mu = min{k : S_k >= m}.  Then

    P(mu > k) = P(S_k < m),
    E[mu]     = sum_{k >= 0} P(S_k < m) = sum_{i < m} u_i,
    E[z^mu]   = 1 - (1 - z) * sum_{i < m} w_i(z),

where u = w(1) and w(z) has generating function G0(x) / (1 - z G(x)), with G0
and G the increment PGFs of the initial and later intervals.  mu is a
stopping time of the later intervals, so Wald's identity gives the shift
epoch mean E[tau_mu] = d0 + d * E[mu].
"""

from __future__ import annotations

import math

import numpy as np

AXES = {"a": ("lambda_a", "mark_a", "m"), "b": ("lambda_b", "mark_b", "n")}


def mark_pmf(mark: dict | None, order: int) -> np.ndarray:
    """pmf of one mark on 0..order for the config's mark families."""
    mark = mark or {"family": "unit"}
    f = np.zeros(order + 1)
    family = mark.get("family", "unit")
    if family == "unit":
        if order >= 1:
            f[1] = 1.0
    elif family == "fixed":
        if mark["value"] <= order:
            f[int(mark["value"])] = 1.0
    elif family == "geometric":
        p = float(mark["p"])
        k = np.arange(1, order + 1)
        f[1:] = p * (1.0 - p) ** (k - 1)
    else:
        raise ValueError(f"unknown mark family {family!r}")
    return f


def increment_pmf(
    intensity: float, mark: dict | None, family: str, mean: float, order: int
) -> np.ndarray:
    """pmf on 0..order of the compound increment over one interval (Panjer).

    Deterministic interval d: the arrival count is Poisson(lambda d), the
    (a, b) = (0, lambda d) member of Panjer's class.  Exponential interval of
    mean d: mixing Poisson(lambda t) over t makes the count geometric with
    ratio beta = lambda d / (1 + lambda d), the (a, b) = (beta, 0) member.
    """
    f = mark_pmf(mark, order)
    g = np.zeros(order + 1)
    if family == "deterministic":
        lam_d = intensity * mean
        a, b = 0.0, lam_d
        g[0] = math.exp(-lam_d * (1.0 - f[0]))
    elif family == "exponential":
        beta = intensity * mean / (1.0 + intensity * mean)
        a, b = beta, 0.0
        g[0] = (1.0 - beta) / (1.0 - beta * f[0])
    else:
        raise ValueError(f"unknown interval family {family!r}")
    j = np.arange(1, order + 1)
    for k in range(1, order + 1):
        terms = (a + b * j[:k] / k) * f[1 : k + 1] * g[k - 1 :: -1]
        g[k] = terms.sum() / (1.0 - a * f[0])
    return g


def renewal_sequence(g0: np.ndarray, g: np.ndarray, z: float = 1.0) -> np.ndarray:
    """Coefficients w_k of G0(x) / (1 - z G(x)) on the orders of ``g0``.

    From w (1 - z G) = G0:  w_k = (g0_k + z sum_{j=1..k} g_j w_{k-j}) / (1 - z g_0).
    """
    denom = 1.0 - z * g[0]
    if denom <= 0.0:
        raise ValueError("the level never rises (zero increment with probability 1)")
    w = np.zeros_like(g0)
    for k in range(len(g0)):
        w[k] = (g0[k] + z * np.dot(g[1 : k + 1], w[k - 1 :: -1][:k])) / denom
    return w


class AxisLaw:
    """Exact exit-index law of one axis at one threshold."""

    def __init__(self, doc: dict, axis: str, threshold: float | None = None):
        lam_key, mark_key, thr_key = AXES[axis]
        proc, obs = doc["process"], doc["observation"]
        level = doc["thresholds"][thr_key] if threshold is None else threshold
        # The level is an integer, so S < m means S <= ceil(m) - 1.
        self.n_levels = max(int(math.ceil(level)), 0)
        order = max(self.n_levels - 1, 0)
        lam, mark, family = float(proc[lam_key]), proc.get(mark_key), obs["family"]
        self.d0 = float(obs["initial_mean"])
        self.d = float(obs["interval_mean"])
        self.g0 = increment_pmf(lam, mark, family, self.d0, order)
        self.g = increment_pmf(lam, mark, family, self.d, order)

    def mean_exit_index(self) -> float:
        """E[mu] = sum_{i < m} u_i."""
        if self.n_levels == 0:
            return 0.0
        return float(renewal_sequence(self.g0, self.g)[: self.n_levels].sum())

    def exit_index_pgf(self, z: float) -> float:
        """E[z^mu] = 1 - (1 - z) sum_{i < m} w_i(z)."""
        if self.n_levels == 0:
            return 1.0
        w = renewal_sequence(self.g0, self.g, z)
        return float(1.0 - (1.0 - z) * w[: self.n_levels].sum())

    def mean_shift_time(self) -> float:
        """E[tau_mu] = d0 + d E[mu] (Wald's identity)."""
        return self.d0 + self.d * self.mean_exit_index()
