"""Growth classification, limit estimation, and asymptotic representations.

Everything here operates on finite data, so every quantity that stands in
for an n -> infinity object (a ratio limit, a limsup, an almost periodic
part) is an estimate with window metadata attached, never a bare number.

The central conventions:

* the bounded factor of g against a reference scale a is taken as
  g(n)/a(n) itself;
* every other tail statistic is taken over the final quarter of its
  series, the one window :func:`series.tail_count` sizes;
* limsup estimation uses dyadic block maxima with the first quarter of
  the window excluded as burn-in;
* classification thresholds (zero / finite-positive / infinite) are
  heuristics and are overridable through :class:`LimsupThresholds`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .core import Kernel, _aligned_forcing, resolvent, solve_linear
from .exceptions import InputError, ParameterError
from .growth_catalogue import CatalogueEntry, catalogue_entry
from .series import (
    LogTrajectory,
    Trajectory,
    abs_log_series,
    consecutive_ratios,
    dyadic_blocks,
    overlap_range,
    ratio_series,
    tail_count,
)
from .spectral import characteristic_roots, multiplier_L

logger = logging.getLogger(__name__)

# estimator constants: the interquartile range under which tail ratios have
# settled, the multiple of the median a spectral peak must clear, and the
# longest detectable period as a fraction of the series length
_IQR_TOLERANCE = 1e-3
_NOISE_FACTOR = 3.0
_MAX_PERIOD_FRACTION = 0.125

__all__ = [
    "ScalingModel",
    "LimsupThresholds",
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
    "scaled_convolution",
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
    monotone: bool = False

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ParameterError(f"ratio limit must lie in [0, 1], got {self.lam!r}")
        if isinstance(self.a, LogTrajectory):
            if np.any(self.a.sign <= 0.0):
                raise ParameterError("scaling sequence must be strictly positive")
            vals = self.a.log_abs
        else:
            if np.any(self.a.values <= 0.0):
                raise ParameterError("scaling sequence must be strictly positive")
            vals = self.a.values
        if self.monotone and np.any(np.diff(vals) < 0.0):
            raise ParameterError("scaling flagged monotone but decreases somewhere")

    @classmethod
    def from_catalogue(cls, name, horizon, log_domain=False, **params) -> "ScalingModel":
        return cls.from_entry(catalogue_entry(name, **params), horizon, log_domain)

    @classmethod
    def from_entry(cls, entry: CatalogueEntry, horizon, log_domain=False) -> "ScalingModel":
        """The entry's sequence on indices min_index..horizon."""
        if horizon < entry.min_index:
            raise InputError(
                f"catalogue entry {entry.name!r} starts at index {entry.min_index}, "
                f"horizon {horizon} is too short"
            )
        return cls(a=entry.sequence(entry.min_index, horizon, log_domain),
                   lam=entry.ratio_limit, monotone=entry.monotone)


# --------------------------------------------------------------------------
# ratio-limit estimation
# --------------------------------------------------------------------------

def estimate_lambda(g):
    """Estimate the consecutive-ratio limit of g from its tail.

    Returns (lambda_hat, converged): the median of g(n-1)/g(n) over the
    tail window (at least two points), and whether the interquartile
    range of those ratios is below ``_IQR_TOLERANCE``.
    """
    count = max(2, tail_count(len(g)))
    lo = max(g.start, g.end - count + 1)
    window = g.window(lo, g.end)
    ratios = consecutive_ratios(window).values
    lam_hat = float(np.median(ratios))
    iqr = float(np.percentile(ratios, 75) - np.percentile(ratios, 25))
    return lam_hat, bool(iqr < _IQR_TOLERANCE)


# --------------------------------------------------------------------------
# limsup estimation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LimsupThresholds:
    """Classification thresholds; all three are heuristics and overridable."""

    burn_in_fraction: float = 0.25
    zero_peak_ratio: float = 1e-3
    growth_factor: float = 2.0


@dataclass(frozen=True)
class LimsupEstimate:
    """A windowed stand-in for limsup |g(n)| / a(n).

    ``value`` is the maximum of |g|/a over the post-burn-in range.  The
    classification compares dyadic block maxima: "zero" when the final
    block has sunk below ``zero_peak_ratio`` of the overall peak,
    "infinite" when the last three block maxima climb by at least
    ``growth_factor`` overall, "finite-positive" otherwise.  An infinite
    verdict is the +inf marker; ``value`` itself stays finite.
    """

    value: float
    classification: str
    block_maxima: np.ndarray


def estimate_limsup(g, scale: ScalingModel, thresholds: LimsupThresholds = None) -> LimsupEstimate:
    thresholds = thresholds or LimsupThresholds()
    ratio = ratio_series(g, scale.a)
    return _limsup_of_ratio(ratio, thresholds)


def _limsup_of_ratio(ratio: Trajectory, thresholds: LimsupThresholds) -> LimsupEstimate:
    lo, hi = ratio.start, ratio.end
    absvals = np.abs(ratio.values)
    blocks = dyadic_blocks(lo, hi)
    maxima = np.array([
        float(np.max(absvals[blo - lo : bhi - lo + 1])) for blo, bhi in blocks
    ])
    burn_start = lo + int(math.ceil(thresholds.burn_in_fraction * (hi - lo + 1)))
    burn_start = min(burn_start, hi)
    value = float(np.max(absvals[burn_start - lo :]))
    peak = float(np.max(maxima))
    if peak == 0.0:
        classification = "zero"
    else:
        classification = "finite-positive"
        if len(maxima) >= 3:
            b3, b2, b1 = maxima[-3], maxima[-2], maxima[-1]
            if b3 < b2 < b1 and b1 >= thresholds.growth_factor * b3:
                classification = "infinite"
        if classification == "finite-positive" and maxima[-1] < thresholds.zero_peak_ratio * peak:
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


def verify_growth2(kernel: Kernel, forcing, xi: float = 1.0, horizon: int = None,
                   scale: ScalingModel = None, log_domain: bool = None) -> Growth2Result:
    """Compare the tail ratio x(n)/H(n) against the multiplier constant.

    The ratio limit lam is taken from ``scale`` when one is supplied and
    estimated from the forcing tail otherwise.  The empirical constant is
    the mean of x/H over the tail window.
    """
    if horizon is None:
        horizon = forcing.end
    if log_domain is None:
        log_domain = isinstance(forcing, LogTrajectory)
    x = solve_linear(kernel, forcing, xi, horizon, log_domain=log_domain)
    lam_hat, converged = estimate_lambda(forcing)
    if not converged:
        logger.warning(
            "forcing consecutive ratios have not settled (lambda_hat=%.6g); "
            "the ratio-limit statement may not apply",
            lam_hat,
        )
    lam_used = scale.lam if scale is not None else min(max(lam_hat, 0.0), 1.0)
    report = characteristic_roots(kernel)
    if not report.summable:
        logger.warning("kernel resolvent verdict is %s; limit may not exist", report.verdict)
    L_theory = multiplier_L(kernel, lam_used)
    lo = max(x.start, forcing.start, 1)
    ratio = ratio_series(x.window(lo, horizon), forcing.window(lo, horizon))
    tail = ratio.tail_window()
    L_emp = float(np.mean(tail.values))
    return Growth2Result(
        L_empirical=L_emp,
        L_theory=L_theory,
        residual=abs(L_emp - L_theory),
        lambda_hat=lam_hat,
        lambda_used=lam_used,
        lambda_converged=converged,
        summable=report.summable,
        ratio=ratio,
    )


# --------------------------------------------------------------------------
# asymptotic representations
# --------------------------------------------------------------------------

def predict_x_over_a(kernel: Kernel, lam: float, lam_a_H: Trajectory) -> Trajectory:
    """Right side of the solution representation at scale a:

        out(n) = (H/a)(n) + sum_{j=1}^{n} r(j) lam^j (H/a)(n-j),

    with the sum truncated where the stored bounded factor starts; r is the
    per-term :func:`core.resolvent`, computed here to the same length.
    """
    if not 0.0 <= lam <= 1.0:
        raise InputError(f"lambda must lie in [0, 1], got {lam!r}")
    n = len(lam_a_H)
    weights = resolvent(kernel, n - 1).values * lam ** np.arange(n)
    out = np.convolve(weights, lam_a_H.values)[:n]
    return Trajectory(out, start=lam_a_H.start)


def predict_H_over_a(kernel: Kernel, lam: float, lam_a_x: Trajectory) -> Trajectory:
    """Right side of the forcing recovery at scale a:

        out(n) = (x/a)(n) - sum_{j=0}^{n-1} k(j) lam^(j+1) (x/a)(n-j-1).
    """
    if not 0.0 <= lam <= 1.0:
        raise InputError(f"lambda must lie in [0, 1], got {lam!r}")
    n = len(lam_a_x)
    weights = np.zeros(min(kernel.size + 1, n))
    weights[0] = 1.0
    if kernel.size:
        m = len(weights) - 1
        weights[1:] = -kernel.coefficients[:m] * lam ** (np.arange(m) + 1)
    out = np.convolve(weights, lam_a_x.values)[:n]
    return Trajectory(out, start=lam_a_x.start)


# --------------------------------------------------------------------------
# almost periodic extraction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicExtraction:
    """Result of folding a bounded ratio series onto a detected period.

    ``pi`` is the periodic part extended over the full input range (the
    constant tail mean when no periodicity is found), ``residual`` the
    pointwise difference, and ``residual_tail_sup`` its sup over the tail
    window the extraction used.
    """

    pi: Trajectory
    residual: Trajectory
    period: int
    verdict: str
    profile: np.ndarray
    residual_tail_sup: float


def extract_almost_periodic(g_over_a: Trajectory, period_hint: int = None) -> PeriodicExtraction:
    """Split a bounded ratio series into a periodic part plus residual.

    With an explicit integer ``period_hint``, the periodic profile is the
    mean of the tail window over each residue class mod p.  Without a hint
    the period comes from the dominant discrete-spectrum peak of the tail
    window, restricted to integer periods at most ``_MAX_PERIOD_FRACTION``
    of the series length and refined by a folding score; if no spectral
    peak clears ``_NOISE_FACTOR`` times the median magnitude, the series is
    declared aperiodic and the constant tail mean is returned.
    """
    tail = g_over_a.tail_window()
    max_period = max(2, int(len(g_over_a) * _MAX_PERIOD_FRACTION))
    if period_hint is not None:
        if period_hint < 1:
            raise InputError("period hint must be a positive integer")
        period = int(period_hint)
        verdict = "periodic"
    else:
        period = _spectral_period(tail, max_period)
        verdict = "periodic" if period else "aperiodic"
    if not period or period == 1:
        period, verdict = 0, "aperiodic"
        profile = np.array([float(np.mean(tail.values))])
    else:
        profile = _fold_profile(tail, period)
    pi = Trajectory(profile[g_over_a.indices() % len(profile)], start=g_over_a.start)
    residual = Trajectory(g_over_a.values - pi.values, start=g_over_a.start)
    return PeriodicExtraction(pi, residual, period=period, verdict=verdict, profile=profile,
                              residual_tail_sup=residual_tail_sup(g_over_a, pi))


def _fold_profile(window: Trajectory, period: int) -> np.ndarray:
    """Mean of window values in each residue class of the absolute index."""
    idx = window.indices() % period
    profile = np.zeros(period)
    for m in range(period):
        sel = window.values[idx == m]
        if sel.size == 0:
            raise InputError(f"period {period} leaves an empty residue class in the tail window")
        profile[m] = float(np.mean(sel))
    return profile


def _fold_score(window: Trajectory, period: int) -> float:
    idx = window.indices() % period
    profile = _fold_profile(window, period)
    return float(np.mean((window.values - profile[idx]) ** 2))


def _spectral_period(tail: Trajectory, max_period: int):
    vals = tail.values - np.mean(tail.values)
    if len(vals) < 8:
        return 0
    mags = np.abs(np.fft.rfft(vals))[1:]
    peak_bin = int(np.argmax(mags)) + 1
    floor = float(np.median(mags))
    if mags[peak_bin - 1] < _NOISE_FACTOR * max(floor, 1e-300):
        return 0
    p0 = int(round(len(vals) / peak_bin))
    candidates = [p for p in range(max(2, p0 - 2), p0 + 3) if 2 <= p <= max_period]
    if not candidates:
        return 0
    scores = [(_fold_score(tail, p), p) for p in candidates]
    return min(scores)[1]


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

    def log_value(self, log_abs_values):
        if self.name != "power":
            raise InputError("log-domain evaluation exists only for power functionals")
        return self.params["p"] * np.asarray(log_abs_values, dtype=np.float64)

    def validate(self) -> None:
        grid = np.linspace(0.0, 100.0, 401)
        vals = self.fn(grid)
        if not np.all(np.isfinite(vals)):
            raise ParameterError(f"functional {self.name!r} not finite on [0, 100.0]")
        scale = max(1.0, float(np.max(np.abs(vals))))
        if np.any(np.diff(vals) < -1e-12 * scale):
            raise ParameterError(f"functional {self.name!r} is not increasing")
        if np.any(np.diff(vals, 2) < -1e-12 * scale):
            raise ParameterError(f"functional {self.name!r} is not convex")


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
    lhs: float
    rhs: float
    holds: bool
    dual_lhs: float
    dual_rhs: float
    dual_holds: bool
    r_l1: float
    k_l1: float
    log_domain: bool


def phi_average_bounds(kernel: Kernel, x, forcing, phi: ConvexFunctional,
                       slack: float = 1e-6) -> PhiMomentReport:
    """Tail-window averages of phi(|x|) against phi(|r|_1 |H|), plus dual.

    ``holds`` checks average phi(|x|) <= average phi(|r|_1 |H|) up to a
    relative slack; the dual bound compares average phi(|H|) against
    average phi((1 + |k|_1)|x|).  Power functionals fall back to a
    log-domain evaluation when plain evaluation overflows.
    """
    lo, hi = overlap_range(x, forcing)
    lo = max(lo, 1)
    count = tail_count(hi - lo + 1)
    wlo = hi - count + 1
    r = resolvent(kernel, hi)
    r_l1 = float(np.sum(np.abs(r.values)))
    k_l1 = kernel.l1_norm
    use_log = isinstance(x, LogTrajectory) or isinstance(forcing, LogTrajectory)
    if not use_log:
        ax = np.abs(x.window(wlo, hi).values)
        ah = np.abs(forcing.window(wlo, hi).values)
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
    lx = abs_log_series(x).window(wlo, hi).values
    lh = abs_log_series(forcing).window(wlo, hi).values
    logn = math.log(count)
    lhs_log = float(logsumexp(phi.log_value(lx))) - logn
    rhs_log = phi.params["p"] * math.log(r_l1) + float(logsumexp(phi.log_value(lh))) - logn
    dual_lhs_log = float(logsumexp(phi.log_value(lh))) - logn
    dual_rhs_log = phi.params["p"] * math.log1p(k_l1) + float(logsumexp(phi.log_value(lx))) - logn
    log_slack = math.log1p(slack)

    def _exp(v):
        return float(np.exp(v)) if v <= 709.0 else math.inf

    return PhiMomentReport(
        lhs=_exp(lhs_log), rhs=_exp(rhs_log),
        holds=bool(lhs_log <= rhs_log + log_slack),
        dual_lhs=_exp(dual_lhs_log), dual_rhs=_exp(dual_rhs_log),
        dual_holds=bool(dual_lhs_log <= dual_rhs_log + log_slack),
        r_l1=r_l1, k_l1=k_l1, log_domain=True,
    )


# --------------------------------------------------------------------------
# convolution growth evidence
# --------------------------------------------------------------------------

def scaled_convolution(kernel: Kernel, forcing: Trajectory, scale: ScalingModel) -> Trajectory:
    """(sum_{j=1}^n k(n-j) H(j)) / a(n): the scaled convolution series.

    Its tail-window magnitude is bounded by |k|_1 times the forcing's
    limsup estimate for monotone diverging scales; tests enforce that.
    """
    n, h = _aligned_forcing(forcing, forcing.end)
    if kernel.size:
        conv = np.convolve(kernel.coefficients, h)[: n + 1]
    else:
        conv = np.zeros(n + 1)
    return ratio_series(Trajectory(conv, start=0), scale.a)


# --------------------------------------------------------------------------
# decomposition residual
# --------------------------------------------------------------------------

def residual_tail_sup(actual: Trajectory, predicted: Trajectory) -> float:
    """Sup of |actual - predicted| over the tail window of their common indices."""
    lo, hi = overlap_range(actual, predicted)
    diff = actual.window(lo, hi).values - predicted.window(lo, hi).values
    return float(np.max(np.abs(diff[-tail_count(len(diff)):])))
