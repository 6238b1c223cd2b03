"""Growth classification, limit estimation, and asymptotic representations.

Everything here operates on finite data, so every quantity that stands in
for an n -> infinity object (a ratio limit, a limsup, an almost periodic
part) is an estimate with window metadata attached, never a bare number.

The central conventions:

* the bounded factor of g against a reference scale a is taken as
  g(n)/a(n) itself;
* every other tail statistic is taken over the final quarter of its
  series, the one window :func:`series.tail` cuts;
* limsup estimation uses dyadic block maxima with the first quarter of
  the window excluded as burn-in (:func:`series.burn_in_start`);
* the limsup classification thresholds (zero / finite-positive /
  infinite) are fixed heuristics, ``_ZERO_PEAK_RATIO`` and
  ``_GROWTH_FACTOR``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import rfft

from .core import Kernel, recover_forcing, solve_linear
from .exceptions import InputError, ParameterError
from .growth_catalogue import CatalogueEntry
from .series import (
    _LOG_DOUBLE_MAX,
    LogTrajectory,
    Trajectory,
    abs_log_series,
    burn_in_start,
    consecutive_ratios,
    dyadic_blocks,
    median,
    overlap_range,
    percentile,
    ratio_series,
    tail,
)
from .spectral import _summability_caveat, multiplier_L

logger = logging.getLogger(__name__)

# estimator constants: the interquartile range under which tail ratios have
# settled, the longest detectable period as a fraction of the series length,
# the highest harmonic the spectral peak is taken to be, and the share of the
# window's variance that a period's fold may leave, which is also the margin
# within which a fold score ties the best one
_IQR_TOLERANCE = 1e-3
_MAX_PERIOD_FRACTION = 0.125
_HARMONICS = 8
_FOLD_SLACK = 1e-3
# limsup classification: the share of the overall peak under which a final
# dyadic block maximum reads as zero, and the least overall climb of the
# last three block maxima that reads as infinite
_ZERO_PEAK_RATIO = 1e-3
_GROWTH_FACTOR = 2.0

__all__ = [
    "ScalingModel",
    "LimsupEstimate",
    "ConvexFunctional",
    "make_phi",
    "PeriodicExtraction",
    "Growth2Result",
    "PhiMomentReport",
    "estimate_lambda",
    "estimate_limsup",
    "verify_growth2",
    "predict_x_over_a",
    "predict_H_over_a",
    "extract_almost_periodic",
    "time_average",
    "phi_average_bounds",
    "residual_tail_sup",
]


# --------------------------------------------------------------------------
# scaling models
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingModel:
    """A positive reference sequence a with its consecutive-ratio limit.

    ``lam`` is the limit of a(n-1)/a(n): 1 for subgeometric scales, a
    value in (0,1) for geometric ones, 0 for supergeometric ones.
    """

    a: object  # Trajectory or LogTrajectory
    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ParameterError(f"ratio limit must lie in [0, 1], got {self.lam!r}")
        signs = self.a.sign if isinstance(self.a, LogTrajectory) else self.a.values
        if np.any(signs <= 0.0):
            raise ParameterError("scaling sequence must be strictly positive")

    @classmethod
    def from_entry(cls, entry: CatalogueEntry, horizon, log_domain=False) -> "ScalingModel":
        """The entry's sequence on indices min_index..horizon."""
        if horizon < entry.min_index:
            raise InputError(
                f"catalogue entry {entry.name!r} starts at index {entry.min_index}, "
                f"horizon {horizon} is too short"
            )
        return cls(a=entry.sequence(entry.min_index, horizon, log_domain), lam=entry.ratio_limit)


# --------------------------------------------------------------------------
# ratio-limit estimation
# --------------------------------------------------------------------------

def estimate_lambda(g):
    """Estimate the consecutive-ratio limit of g from its tail.

    Returns (lambda_hat, converged): the median of g(n-1)/g(n) over the
    tail window (at least two points), and whether the interquartile
    range of those ratios is below ``_IQR_TOLERANCE``.
    """
    ratios = consecutive_ratios(tail(g, least=2)).values
    lam_hat = median(ratios)
    iqr = percentile(ratios, 75) - percentile(ratios, 25)
    return lam_hat, bool(iqr < _IQR_TOLERANCE)


# --------------------------------------------------------------------------
# limsup estimation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LimsupEstimate:
    """A windowed stand-in for limsup |g(n)| / a(n).

    ``value`` is the maximum of |g|/a from :func:`series.burn_in_start` on.
    The classification compares dyadic block maxima: "zero" when the final
    block has sunk below ``_ZERO_PEAK_RATIO`` of the overall peak,
    "infinite" when the last three block maxima climb by at least
    ``_GROWTH_FACTOR`` overall, "finite-positive" otherwise.  An infinite
    verdict is the +inf marker; ``value`` itself stays finite.
    """

    value: float
    classification: str
    block_maxima: np.ndarray


def estimate_limsup(g, scale: ScalingModel) -> LimsupEstimate:
    ratio = ratio_series(g, scale.a)
    lo, hi = ratio.start, ratio.end
    absvals = np.abs(ratio.values)
    blocks = dyadic_blocks(lo, hi)
    maxima = np.array([
        float(np.max(absvals[blo - lo : bhi - lo + 1])) for blo, bhi in blocks
    ])
    value = float(np.max(absvals[burn_in_start(lo, hi) - lo :]))
    peak = float(np.max(maxima))
    if peak == 0.0:
        classification = "zero"
    else:
        classification = "finite-positive"
        if len(maxima) >= 3:
            b3, b2, b1 = maxima[-3], maxima[-2], maxima[-1]
            if b3 < b2 < b1 and b1 >= _GROWTH_FACTOR * b3:
                classification = "infinite"
        if classification == "finite-positive" and maxima[-1] < _ZERO_PEAK_RATIO * peak:
            classification = "zero"
    return LimsupEstimate(
        value=value,
        classification=classification,
        block_maxima=maxima,
    )


# --------------------------------------------------------------------------
# ratio-limit verification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Growth2Result:
    L_empirical: float
    L_theory: float
    residual: float
    lambda_hat: float
    lambda_used: float
    lambda_converged: bool
    summable: bool
    ratio: Trajectory


def verify_growth2(kernel: Kernel, x, forcing, scale: ScalingModel = None) -> Growth2Result:
    """Compare the tail ratio x(n)/H(n) against the multiplier constant.

    ``x`` is the solved path of the recursion driven by ``forcing``, plain
    or log form, and ``x.end`` is the horizon: the prefixes
    ``x.window(0, n)`` and ``forcing.window(0, n)`` check the statement at
    horizon n without a new solve.

    The ratio limit lam is taken from ``scale`` when one is supplied and
    estimated from the forcing tail otherwise.  The empirical constant is
    the mean of x/H over the tail window.  ``summable`` is whether r(j)
    lam^j is summable at the scale's lam, or at 1 when lam is estimated.
    """
    horizon = x.end
    lam_hat, converged = estimate_lambda(forcing)
    if not converged:
        logger.warning(
            "forcing consecutive ratios have not settled (lambda_hat=%.6g); "
            "the ratio-limit statement may not apply",
            lam_hat,
        )
    lam_used = scale.lam if scale is not None else min(max(lam_hat, 0.0), 1.0)
    summable = _summability_caveat(kernel, scale.lam if scale is not None else 1.0)
    L_theory = multiplier_L(kernel, lam_used)
    lo = max(x.start, forcing.start, 1)
    ratio = ratio_series(x.window(lo, horizon), forcing.window(lo, horizon))
    L_emp = float(np.mean(tail(ratio).values))
    return Growth2Result(
        L_empirical=L_emp,
        L_theory=L_theory,
        residual=abs(L_emp - L_theory),
        lambda_hat=lam_hat,
        lambda_used=lam_used,
        lambda_converged=converged,
        summable=summable,
        ratio=ratio,
    )


# --------------------------------------------------------------------------
# asymptotic representations
# --------------------------------------------------------------------------

def predict_x_over_a(kernel: Kernel, lam: float, lam_a_H: Trajectory) -> Trajectory:
    """Right side of the solution representation at scale a:

        out(n) = (H/a)(n) + sum_{j=1}^{n} r(j) lam^j (H/a)(n-j),

    n counted from where the stored bounded factor starts; r(j) lam^j is the
    resolvent of ``kernel.at_scale(lam)``, so this is its :func:`solve_linear`.
    """
    g = lam_a_H.values
    y = solve_linear(kernel.at_scale(lam), Trajectory(g[1:], start=1), g[0], len(g) - 1)
    return Trajectory(y.values, start=lam_a_H.start)


def predict_H_over_a(kernel: Kernel, lam: float, lam_a_x: Trajectory) -> Trajectory:
    """Right side of the forcing recovery at scale a:

        out(n) = (x/a)(n) - sum_{j=0}^{n-1} k(j) lam^(j+1) (x/a)(n-j-1).
    """
    g = lam_a_x.values
    h = recover_forcing(kernel.at_scale(lam), Trajectory(g, start=0)).values
    return Trajectory(np.concatenate((g[:1], h)), start=lam_a_x.start)


# --------------------------------------------------------------------------
# almost periodic extraction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicExtraction:
    """Result of folding a bounded ratio series onto a detected period.

    ``pi`` is the periodic part extended over the full input range (the
    constant tail mean when no periodicity is found), ``residual`` the
    pointwise difference, and ``residual_tail_sup`` its sup over the tail
    window the extraction used.  ``period`` is 0 when no fold explains the
    window (the verdict "aperiodic"), and at least 2 otherwise.
    """

    pi: Trajectory
    residual: Trajectory
    period: int
    profile: np.ndarray
    residual_tail_sup: float

    @property
    def verdict(self) -> str:
        return "periodic" if self.period > 0 else "aperiodic"


def extract_almost_periodic(g_over_a: Trajectory) -> PeriodicExtraction:
    """Split a bounded ratio series into a periodic part plus residual.

    Candidate periods come from the dominant discrete-spectrum peak of the
    tail window, restricted to integer periods at most
    ``_MAX_PERIOD_FRACTION`` of the series length.  A period is a fold that
    explains the window: the best candidate's fold must leave at most
    ``_FOLD_SLACK`` of the window's variance.  Otherwise, and on a window
    with zero variance, the series is aperiodic and the constant tail mean
    is returned.
    """
    window = tail(g_over_a)
    max_period = max(2, int(len(g_over_a) * _MAX_PERIOD_FRACTION))
    period = _spectral_period(window, max_period)
    if period:
        profile = _fold_profile(window, period)
    else:
        profile = np.array([float(np.mean(window.values))])
    pi = Trajectory(profile[g_over_a.indices() % len(profile)], start=g_over_a.start)
    residual = Trajectory(g_over_a.values - pi.values, start=g_over_a.start)
    return PeriodicExtraction(pi, residual, period=period, profile=profile,
                              residual_tail_sup=residual_tail_sup(g_over_a, pi))


def _fold_profile(window: Trajectory, period: int) -> np.ndarray:
    """Mean of window values in each residue class of the absolute index."""
    idx = window.indices() % period
    counts = np.bincount(idx, minlength=period)
    if not counts.all():
        raise InputError(f"period {period} leaves an empty residue class in the tail window")
    return np.bincount(idx, weights=window.values, minlength=period) / counts


def _fold_score(window: Trajectory, period: int) -> float:
    profile = _fold_profile(window, period)
    return float(np.mean((window.values - profile[window.indices() % period]) ** 2))


def _spectral_period(window: Trajectory, max_period: int):
    # every fold explains a window of one repeated value, which has zero
    # variance; its mean-centred values are rounding noise, not a period
    if len(window) < 8 or np.ptp(window.values) == 0.0:
        return 0
    # the fold scores square the window, so they read it over its largest
    # |value|: no square of a value in [-1, 1] overflows, and the largest is 1
    window = Trajectory(window.values / np.max(np.abs(window.values)), start=window.start)
    vals = window.values - np.mean(window.values)
    peak_bin = int(np.argmax(np.abs(rfft(vals))[1:])) + 1
    # the peak is some harmonic h of the fundamental, so the fundamental
    # period lies near h times the peak's period
    near = {int(round(h * len(vals) / peak_bin)) for h in range(1, _HARMONICS + 1)}
    candidates = sorted({q for p in near for q in range(p - 2, p + 3) if 2 <= q <= max_period})
    slack = _FOLD_SLACK * float(np.mean(vals ** 2))
    scores = [_fold_score(window, p) for p in candidates]
    # a period's fold explains the window; a multiple of a period folds as
    # well as the period, so the smallest candidate within the same share of
    # the best score wins
    if not candidates or min(scores) > slack:
        return 0
    return next(p for p, s in zip(candidates, scores) if s <= min(scores) + slack)


# --------------------------------------------------------------------------
# time averages
# --------------------------------------------------------------------------

def time_average(g_over_a: Trajectory) -> Trajectory:
    """Running average (1/n) sum_{j=1}^n values(j), starting at index 1."""
    if g_over_a.start > 1:
        raise InputError("time averages start at index 1; input starts later")
    series = g_over_a if g_over_a.start == 1 else g_over_a.window(1, g_over_a.end)
    sums = np.cumsum(series.values)
    return Trajectory(sums / np.arange(1, len(series) + 1), start=1)


# --------------------------------------------------------------------------
# convex time-average functionals
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexFunctional:
    """An increasing convex map on [0, inf) applied to |values|.

    Power members are O-regularly varying; the exponential member is not
    and carries ``o_regularly_varying=False``, which matters to consumers
    that want finiteness of one average to transfer to the other.
    """

    name: str
    fn: callable
    params: dict
    o_regularly_varying: bool

    __hash__ = None  # compares by value, but ``params`` is a dict

    def __call__(self, values):
        return self.fn(np.asarray(values, dtype=np.float64))


def _power_phi(p=2.0):
    p = float(p)
    if p < 1.0:
        raise ParameterError("power exponent must be at least 1")
    return ConvexFunctional("power", lambda v: np.abs(v) ** p, {"p": p}, True)


def _hinge_phi(c=0.0):
    c = float(c)
    if c < 0:
        raise ParameterError("hinge offset must be nonnegative")
    return ConvexFunctional("hinge", lambda v: np.maximum(0.0, v - c), {"c": c}, True)


# name -> builder; a builder's keyword arguments are the functional's parameters
_PHIS = {
    "power": _power_phi,
    "exp": lambda: ConvexFunctional("exp", np.exp, {}, False),
    "hinge": _hinge_phi,
}


def make_phi(name: str, **params) -> ConvexFunctional:
    if name not in _PHIS:
        raise ParameterError(f"unknown convex functional {name!r}")
    return _PHIS[name](**params)


@dataclass(frozen=True)
class PhiMomentReport:
    """The four averages and both verdicts of :func:`phi_average_bounds`.

    On the log-domain fallback the ``*_log`` fields are the logarithms the
    verdicts were decided on; the plain fields are their exponentials,
    ``inf`` past double range.  On the plain branch they are None.
    """

    lhs: float
    rhs: float
    holds: bool
    dual_lhs: float
    dual_rhs: float
    dual_holds: bool
    r_l1: float
    k_l1: float
    log_domain: bool
    lhs_log: float = None
    rhs_log: float = None
    dual_lhs_log: float = None
    dual_rhs_log: float = None


def _logsumexp(a):
    """log(sum(exp(a))) of a nonempty 1-d array, shifted by its maximum.

    Terms equal to the maximum are counted, not summed, and the rest enter
    through log1p, as in ``scipy.special.logsumexp`` (SciPy 1.17 returns
    the same doubles).  An infinite or NaN maximum is the result, so all -inf
    terms give -inf.
    """
    a = np.asarray(a, dtype=np.float64)
    top = a.max()
    if not np.isfinite(top):
        return float(top)
    at_top = a == top
    count = np.count_nonzero(at_top)
    rest = np.sum(np.exp(np.where(at_top, -np.inf, a - top))) / count
    return float(np.log1p(rest) + np.log(count) + top)


def phi_average_bounds(kernel: Kernel, x, forcing, phi: ConvexFunctional,
                       slack: float = 1e-6) -> PhiMomentReport:
    """Tail-window averages of phi(|x|) against phi(|r|_1 |H|), plus dual.

    ``holds`` checks average phi(|x|) <= average phi(|r|_1 |H|) up to a
    relative slack; the dual bound compares average phi(|H|) against
    average phi((1 + |k|_1)|x|).  Power functionals fall back to a
    log-domain evaluation when plain evaluation overflows.
    """
    lo, hi = overlap_range(x, forcing)
    x = tail(x.window(max(lo, 1), hi))
    forcing = forcing.window(x.start, hi)
    r_l1 = kernel.resolvent_l1(hi)
    k_l1 = kernel.l1_norm
    use_log = isinstance(x, LogTrajectory) or isinstance(forcing, LogTrajectory)
    if not use_log:
        ax = np.abs(x.values)
        ah = np.abs(forcing.values)
        with np.errstate(over="ignore"):
            parts = [phi(ax), phi(r_l1 * ah), phi(ah), phi((1.0 + k_l1) * ax)]
        if all(np.all(np.isfinite(p)) for p in parts):
            lhs, rhs, dual_lhs, dual_rhs = (float(np.mean(p)) for p in parts)
            return PhiMomentReport(
                lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs * (1.0 + slack)),
                dual_lhs=dual_lhs, dual_rhs=dual_rhs,
                dual_holds=bool(dual_lhs <= dual_rhs * (1.0 + slack)),
                r_l1=r_l1, k_l1=k_l1, log_domain=False,
            )
    if phi.name != "power":
        raise InputError(
            "phi overflowed and the log-domain fallback exists only for "
            "power functionals"
        )
    lx = abs_log_series(x).values
    lh = abs_log_series(forcing).values
    logn = math.log(len(x))
    p = phi.params["p"]
    sum_x, sum_h = _logsumexp(p * lx), _logsumexp(p * lh)
    lhs_log = sum_x - logn
    rhs_log = p * math.log(r_l1) + sum_h - logn
    dual_lhs_log = sum_h - logn
    dual_rhs_log = p * math.log1p(k_l1) + sum_x - logn
    log_slack = math.log1p(slack)

    def _exp(v):
        return float(np.exp(v)) if v <= _LOG_DOUBLE_MAX else math.inf

    return PhiMomentReport(
        lhs=_exp(lhs_log), rhs=_exp(rhs_log),
        holds=bool(lhs_log <= rhs_log + log_slack),
        dual_lhs=_exp(dual_lhs_log), dual_rhs=_exp(dual_rhs_log),
        dual_holds=bool(dual_lhs_log <= dual_rhs_log + log_slack),
        r_l1=r_l1, k_l1=k_l1, log_domain=True,
        lhs_log=lhs_log, rhs_log=rhs_log, dual_lhs_log=dual_lhs_log, dual_rhs_log=dual_rhs_log,
    )


# --------------------------------------------------------------------------
# decomposition residual
# --------------------------------------------------------------------------

def residual_tail_sup(actual: Trajectory, predicted: Trajectory) -> float:
    """Sup of |actual - predicted| over the tail window of their common indices."""
    lo, hi = overlap_range(actual, predicted)
    actual = tail(actual.window(lo, hi))
    return float(np.max(np.abs(actual.values - predicted.window(actual.start, hi).values)))
