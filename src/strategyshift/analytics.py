"""Closed-form first-exceedance analytics.

Each printed closed form is one function, kept separate so the Monte Carlo
harness can confront each one:

  * ``gamma_series`` — one axis's marginal transform E[x^a exp(-theta
    Delta)], a the compound increment over one observation interval Delta,
    as a truncated series in x; the other series are built from it.
  * ``phi_functional`` — the operator-calculus evaluation of the joint
    first-exceedance functional at a ``TransformContext``, built from
    truncated series; the kernel is separable, so its two-dimensional
    extraction is a product of univariate ones.  A single-argument context
    (``TransformContext(z=...)``) gives the operator route's exit-index PGF.
  * ``lemma_pgf`` — the memoryless-observation closed form for one axis's
    exit-index PGF, evaluated term by term exactly as printed;
    ``lemma_note`` names why it is undefined for a configuration.
  * ``axis_means`` — the closed-form means of one axis's exit index, shift
    epoch and prior epoch, or a note in place of each where the axis never
    exits.

The printed closed forms are known to be suspect in places (duplicated
bracket sums, threshold-independent means); they are evaluated faithfully
and judged by the conformance harness, not patched here.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from typing import Optional, Tuple, Union

import numpy as np

from .errors import DomainError
from .params import (IntervalDistribution, MarkDistribution, ModelParams, Validated,
                     zero_drift)
from .series import TruncatedSeries, d_extract

#: Exit-index PGF arguments that ``analyze`` and the conformance table read.
DEFAULT_Z_GRID = (0.25, 0.5, 0.75)


class TransformContext(Validated, namedtuple(
        "TransformContext", "z g theta0 theta1 vartheta0 vartheta1")):
    """Scalar transform arguments of the joint first-exceedance functional.

    z and g weight the two exit indices; theta0/theta1 the prior and actual
    shift epochs of axis A; vartheta0/vartheta1 those of axis B.
    """

    __slots__ = ()

    def __new__(cls, z: float = 1.0, g: float = 1.0, theta0: float = 0.0,
                theta1: float = 0.0, vartheta0: float = 0.0, vartheta1: float = 0.0):
        if not (0.0 <= z <= 1.0 and 0.0 <= g <= 1.0):
            raise DomainError("z and g must lie in [0, 1]")
        if min(theta0, theta1, vartheta0, vartheta1) < 0.0:
            raise DomainError("exponential transform arguments must be >= 0")
        return super().__new__(cls, z, g, theta0, theta1, vartheta0, vartheta1)


@lru_cache(maxsize=256)
def gamma_series(order: int, theta: float, intensity: float, mark: MarkDistribution,
                 interval: IntervalDistribution) -> TruncatedSeries:
    """The marginal transform of one axis with a formal series variable x
    in the z slot.

    Conditioning on the interval, it is the interval LST at
    theta + lambda * (1 - h(x)), h the mark PGF, expanded as a truncated
    power series in x.  An interval mean times intensity that overflows
    leaves a non-finite series argument, which is refused.  Each distinct
    series is built once per process; the returned coefficients are shared
    and read-only.
    """
    h = TruncatedSeries(_pgf_coefficients(mark, order))
    with np.errstate(over="ignore"):
        arg = interval.mean * (theta + intensity * (1.0 - h))
    if not np.isfinite(arg.coeffs).all():
        raise DomainError("interval mean times intensity overflows the series argument")
    if interval.family == "exponential":
        series = (1.0 + arg).reciprocal()
    else:
        series = (-arg).exp()
    series.coeffs.setflags(write=False)
    return series


def _pgf_coefficients(mark: MarkDistribution, order: int) -> np.ndarray:
    """Power-series coefficients of the mark PGF up to ``order``."""
    c = np.zeros(order + 1)
    if mark.family == "geometric":
        q = 1.0 - mark.p
        k = np.arange(1, order + 1)
        c[1:] = mark.p * q ** (k - 1)
    elif mark.value <= order:
        c[mark.value] = 1.0
    return c


@lru_cache(maxsize=256)
def axis_factor(order: int, weight: float, theta0: float, theta1: float,
                intensity: float, mark: MarkDistribution,
                obs_initial: IntervalDistribution,
                obs_interval: IntervalDistribution) -> TruncatedSeries:
    """One univariate factor of the joint functional's series kernel.

    Built as (delta(theta1) - phi) * (w - w*G0*G + G0) / (1 - w*G) where
    phi, G, G0 are the marginal-transform series at theta1, theta0 + theta1,
    and the initial-interval analog.  A negative order (a threshold) is
    refused here, the package's one such guard.  Zero drift (``zero_drift``)
    makes the factor the zero series of ``order``, built without inverting
    1 - w at w = 1.  Otherwise the mark PGF has no constant term,
    so those of delta(theta1) - phi and 1 - w*G are ``lst_drop`` values, set
    over the constant terms the series arithmetic forms: not differences
    near 1 that round a tiny drift away.  Each distinct factor is built once
    per process; the returned coefficients are shared and read-only.
    """
    if order < 0:
        raise DomainError("series order must be nonnegative")
    if zero_drift(intensity, mark):
        factor = TruncatedSeries(np.zeros(order + 1))
    else:
        phi = gamma_series(order, theta1, intensity, mark, obs_interval)
        big = gamma_series(order, theta0 + theta1, intensity, mark, obs_interval)
        big0 = gamma_series(order, theta0 + theta1, intensity, mark, obs_initial)
        drop = -phi
        drop.coeffs[0] = obs_interval.lst_drop(theta1, intensity)
        numerator = drop * (weight - weight * big0 * big + big0)
        denominator = -weight * big
        denominator.coeffs[0] = (1.0 - weight) + weight * obs_interval.lst_drop(
            0.0, theta0 + theta1 + intensity)
        factor = numerator * denominator.reciprocal()
    factor.coeffs.setflags(write=False)
    return factor


def phi_functional(
    m: int, n: int, ctx: TransformContext, params: ModelParams
) -> float:
    """Operator-calculus value of the joint first-exceedance functional.

    The kernel is separable, so its two-dimensional extraction at (m, n) is
    the product of the two univariate extractions; no grid is built.  A
    negative m or n is refused by ``axis_factor``, before ``d_extract``.
    """
    # Truncated products, reciprocals and exponentials are exact on every
    # retained coefficient, so extraction at (m, n) needs orders m and n only.
    fx = axis_factor(
        m, ctx.z, ctx.theta0, ctx.theta1,
        params.lambda_a, params.mark_a, params.obs_initial, params.obs_interval,
    )
    fy = axis_factor(
        n, ctx.g, ctx.vartheta0, ctx.vartheta1,
        params.lambda_b, params.mark_b, params.obs_initial, params.obs_interval,
    )
    return d_extract(fx, m) * d_extract(fy, n)


def lemma_note(params: ModelParams) -> Optional[str]:
    """The note that stands in for the memoryless closed-form exit-index
    PGFs where they are undefined, or None where ``lemma_pgf`` applies."""
    if not params.is_memoryless():
        return "requires memoryless observation intervals"
    if params.obs_initial.mean == params.obs_interval.mean:
        return "singular"
    if params.lambda_a <= 0.0 or params.lambda_b <= 0.0:
        return "no shift predicted"


def lemma_pgf(z: float, level: int, params: ModelParams, intensity: float) -> float:
    """Closed-form exit-index PGF at threshold ``level`` of the axis with the
    given intensity (memoryless observation), evaluated term by term exactly
    as printed; the two kappa-weighted brackets are identical as printed and
    are kept that way.  kappa = 1 / (lambda * (d0 - d)), with d0 and d the
    initial and later interval means.  A value that is not finite, as when
    kappa overflows and its two brackets give inf - inf, is a DomainError.
    """
    note = lemma_note(params)
    if note is not None:
        raise DomainError(f"closed-form exit-index PGF undefined: {note}")
    if not 0.0 <= z <= 1.0:
        raise DomainError("PGF argument must lie in [0, 1]")
    d0 = params.obs_initial.mean
    kappa = 1.0 / (intensity * (d0 - params.obs_interval.mean))
    d0_lam = d0 * intensity
    base = 1.0 + d0_lam
    ratio = d0_lam / base
    bracket = sum(ratio**j for j in range(level + 1))
    tail_base = base - z
    tail = sum((d0_lam / tail_base) ** k for k in range(level + 1))
    value = (
        z
        + ((1.0 - kappa) / base) * bracket
        + (kappa / base) * bracket
        - ((1.0 - z) * z / tail_base) * tail
    )
    if not math.isfinite(value):
        raise DomainError("closed-form exit-index PGF is not finite")
    return value


def axis_means(params: ModelParams, intensity: float) -> Tuple[Union[float, str], ...]:
    """Closed-form means on one axis with the given intensity.

    Returns (E[exit index], E[shift epoch], E[prior epoch]) with
    E[exit index] = 1 / (d * lambda), E[shift epoch] = d0 + 1/lambda - d and
    prior = E[shift epoch] - d, d0 and d the initial and later interval
    means.  A zero-intensity axis never exits: the note "no shift predicted"
    stands in for each mean.  A product d * lambda that underflows to 0, or
    a mean that overflows, is a DomainError.
    """
    if intensity <= 0.0:
        return ("no shift predicted",) * 3
    d0, d = params.obs_initial.mean, params.obs_interval.mean
    rate = d * intensity
    if rate == 0.0:
        raise DomainError("interval mean times intensity underflows to 0")
    shift = d0 + 1.0 / intensity - d
    means = (1.0 / rate, shift, shift - d)
    if not all(math.isfinite(mean) for mean in means):
        raise DomainError("closed-form means overflow")
    return means

