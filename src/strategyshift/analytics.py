"""Closed-form first-exceedance analytics.

Three routes are provided and deliberately kept separate so the Monte Carlo
harness can confront each one:

  * ``phi_functional`` — the operator-calculus evaluation of the joint
    first-exceedance functional, built from truncated series; the kernel is
    separable, so its two-dimensional extraction is a product of univariate
    ones.
  * ``lemma_pgf_a`` / ``lemma_pgf_b`` — the memoryless-observation closed
    forms for the exit-index PGFs, evaluated term by term exactly as printed
    in the source formulas.
  * ``axis_means`` — the closed-form means of one axis's exit index, shift
    epoch and prior epoch; ``expected_exit_index`` / ``expected_shift_time``
    collect them for both axes.

The printed closed forms are known to be suspect in places (duplicated
bracket sums, threshold-independent means); they are evaluated faithfully
and judged by the conformance harness, not patched here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple, Union

from .errors import DomainError, NoExitError, SingularConstantError
from .params import ModelParams
from .series import BivariateSeries, TruncatedSeries, d_extract
from .transforms import TransformContext, gamma_series


def axis_factor(
    order: int,
    weight: float,
    theta0: float,
    theta1: float,
    intensity: float,
    mark,
    obs_initial,
    obs_interval,
) -> TruncatedSeries:
    """One univariate factor of the joint functional's series kernel.

    Built as (delta(theta1) - phi) * (w - w*G0*G + G0) / (1 - w*G) where
    phi, G, G0 are the marginal-transform series at theta1, theta0 + theta1,
    and the initial-interval analog.  Zero intensity collapses the numerator
    to zero; that case is short-circuited to avoid inverting 1 - w at w = 1.
    Each distinct factor is built once per process; the returned
    coefficients are shared and read-only.
    """
    if order < 0:
        raise DomainError("series order must be nonnegative")
    return _axis_factor(
        order, weight, theta0, theta1, intensity, mark, obs_initial, obs_interval
    )


@lru_cache(maxsize=256)
def _axis_factor(
    order, weight, theta0, theta1, intensity, mark, obs_initial, obs_interval
) -> TruncatedSeries:
    if intensity == 0.0:
        factor = TruncatedSeries.constant(0.0, order)
    else:
        delta_t1 = obs_interval.lst(theta1)
        phi = gamma_series(order, theta1, intensity, mark, obs_interval)
        big = gamma_series(order, theta0 + theta1, intensity, mark, obs_interval)
        big0 = gamma_series(order, theta0 + theta1, intensity, mark, obs_initial)
        numerator = (delta_t1 - phi) * (weight - weight * big0 * big + big0)
        denominator = 1.0 - weight * big
        factor = numerator * denominator.reciprocal()
    factor.coeffs.setflags(write=False)
    return factor


def _axis_factors(m: int, n: int, ctx: TransformContext, params: ModelParams):
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
    return fx, fy


def phi_series(
    m: int, n: int, ctx: TransformContext, params: ModelParams
) -> BivariateSeries:
    """Bivariate series kernel of the joint functional, ready for extraction."""
    return BivariateSeries.separable(*_axis_factors(m, n, ctx, params))


def phi_functional(
    m: int, n: int, ctx: TransformContext, params: ModelParams
) -> float:
    """Operator-calculus value of the joint first-exceedance functional.

    The kernel is separable, so its two-dimensional extraction at (m, n) is
    the product of the two univariate extractions; no grid is built.
    """
    if m < 0 or n < 0:
        raise DomainError("thresholds m, n must be nonnegative integers")
    fx, fy = _axis_factors(m, n, ctx, params)
    return d_extract(fx, m) * d_extract(fy, n)


#: Slots of the joint functional selected by each marginal quantity.
MARGINALS = {
    "index_a": "z",
    "index_b": "g",
    "shift_prev_a": "theta0",
    "shift_a": "theta1",
    "shift_prev_b": "vartheta0",
    "shift_b": "vartheta1",
}


def marginal_pgf(
    which: str, arg: float, m: int, n: int, params: ModelParams
) -> float:
    """Single-argument specialization of the joint functional.

    ``which`` selects the quantity: exit-index PGFs ("index_a", "index_b")
    take arg in [0, 1]; shift-epoch LSTs ("shift_a", "shift_prev_a", ...)
    take arg >= 0.  All other slots are held at their neutral values.
    """
    if which not in MARGINALS:
        raise DomainError(f"unknown marginal {which!r}")
    slot = MARGINALS[which]
    ctx = TransformContext(**{slot: arg})
    return phi_functional(m, n, ctx, params)


@dataclass(frozen=True)
class LemmaConstants:
    """Scalar constants of the memoryless closed-form exit-index PGFs.

    kappa (a-side) and kappa1 (b-side) are 1 / (lambda * (delta0_mean -
    delta_mean)) and are undefined when the two interval means coincide.
    """

    kappa: float
    kappa1: float
    delta0_mean: float
    lambda_a: float
    lambda_b: float

    @classmethod
    def from_params(cls, params: ModelParams) -> "LemmaConstants":
        if not params.is_memoryless():
            raise DomainError(
                "closed-form exit-index PGFs require exponential observation "
                "intervals"
            )
        d0, d = params.delta0_mean, params.delta_mean
        la, lb = params.lambda_a, params.lambda_b
        if d0 == d:
            raise SingularConstantError(
                "kappa constants are undefined when the initial and "
                "subsequent interval means coincide"
            )
        if la <= 0.0 or lb <= 0.0:
            raise NoExitError("closed-form constants need positive intensities")
        return cls(
            kappa=1.0 / (la * (d0 - d)),
            kappa1=1.0 / (lb * (d0 - d)),
            delta0_mean=d0, lambda_a=la, lambda_b=lb,
        )


def lemma_constants_or_note(params: ModelParams) -> Union[LemmaConstants, str]:
    """The closed-form PGF constants, or the note that stands in for the
    memoryless closed-form PGFs when they are undefined."""
    try:
        return LemmaConstants.from_params(params)
    except DomainError:
        return "requires memoryless observation intervals"
    except SingularConstantError:
        return "singular"
    except NoExitError:
        return "no shift predicted"


def _lemma_pgf(z: float, level: int, d0_lam: float, kappa: float) -> float:
    # Literal term-by-term evaluation of the printed closed form; the two
    # kappa-weighted brackets are identical as printed and are kept that way.
    if not 0.0 <= z <= 1.0:
        raise DomainError("PGF argument must lie in [0, 1]")
    base = 1.0 + d0_lam
    ratio = d0_lam / base
    bracket = sum(ratio**j for j in range(level + 1))
    tail_base = base - z
    tail = sum((d0_lam / tail_base) ** k for k in range(level + 1))
    return (
        z
        + ((1.0 - kappa) / base) * bracket
        + (kappa / base) * bracket
        - ((1.0 - z) * z / tail_base) * tail
    )


def lemma_pgf_a(z: float, m: int, constants: LemmaConstants) -> float:
    """Closed-form exit-index PGF for axis A (memoryless observation)."""
    return _lemma_pgf(
        z, m, constants.delta0_mean * constants.lambda_a, constants.kappa
    )


def lemma_pgf_b(g: float, n: int, constants: LemmaConstants) -> float:
    """Closed-form exit-index PGF for axis B (memoryless observation)."""
    return _lemma_pgf(
        g, n, constants.delta0_mean * constants.lambda_b, constants.kappa1
    )


def axis_means(params: ModelParams, intensity: float) -> Tuple[float, float, float]:
    """Closed-form means on one axis with the given intensity.

    Returns (E[exit index], E[shift epoch], E[prior epoch]) with
    E[exit index] = 1 / (delta_mean * lambda), E[shift epoch] =
    delta0_mean + 1/lambda - delta_mean and prior = E[shift epoch] -
    delta_mean.  A zero-intensity axis never exits.
    """
    if intensity <= 0.0:
        raise NoExitError("closed-form means need a positive intensity")
    d0, d = params.delta0_mean, params.delta_mean
    shift = d0 + 1.0 / intensity - d
    return 1.0 / (d * intensity), shift, shift - d


def expected_exit_index(params: ModelParams):
    """Closed-form means of the two exit indices (see ``axis_means``)."""
    index_a, _, _ = axis_means(params, params.lambda_a)
    index_b, _, _ = axis_means(params, params.lambda_b)
    return index_a, index_b


def expected_shift_time(params: ModelParams):
    """Closed-form shift-epoch means and their one-interval-earlier priors.

    Returns (E[tau_mu], E[tau_nu], E[tau_mu_prev], E[tau_nu_prev]) from
    ``axis_means``.
    """
    _, ta, prior_a = axis_means(params, params.lambda_a)
    _, tb, prior_b = axis_means(params, params.lambda_b)
    return ta, tb, prior_a, prior_b
