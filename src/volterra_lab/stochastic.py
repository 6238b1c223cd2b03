"""Random forcing generators, tail models, and ensemble verification.

Almost-sure statements about i.i.d. driven systems are rendered at desk
scale as seeded ensembles: every path owns an independent counter-based
generator stream derived from (master seed, path index), statistics are
computed per path, and the report carries the fraction of paths landing
inside a pre-registered band.  Identical configuration and seed reproduce
every number bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .asymptotics import (
    ConvexFunctional,
    LimsupThresholds,
    ScalingModel,
    estimate_limsup,
    make_phi,
    time_average,
)
from .core import Kernel, _blocked_linear, _solve_horizon, solve_linear
from .exceptions import (
    InputError,
    ParameterError,
    TrajectoryOverflowError,
    UndefinedRatioError,
)
from .growth_catalogue import CatalogueEntry, catalogue_entry
from .series import LogTrajectory, Trajectory, abs_log_series, ratio_series

__all__ = [
    "TailModel",
    "make_tail_model",
    "ForcingGenerator",
    "factor_error",
    "forcing_entry",
    "generate",
    "EnvelopeReport",
    "envelope_sums",
    "TailClassification",
    "classify_tail",
    "EnsembleSpec",
    "StatisticSpec",
    "EnsembleResult",
    "ensemble_verify",
    "STATISTICS",
]


# --------------------------------------------------------------------------
# tail models
# --------------------------------------------------------------------------

def _default_modulus(x):
    return np.log(x) ** 2


# rapid-tail certificate: probe points, and the relative quantile movement accepted there
_SSV_PROBES = (1e3, 1e4, 1e5, 1e6)
_SSV_TOLERANCE = 0.02


@dataclass(frozen=True)
class TailModel:
    """Distribution tails: F, the survival function G = 1 - F, quantiles.

    ``sf`` and ``upper_quantile`` are stored separately from ``cdf`` and
    ``quantile`` so far-tail probabilities keep full precision.  The
    rapid-tail certificate probes the slow-variation modulus log(x)**2 at
    exponent ``delta_star`` (any positive probe exponent is admissible;
    small values keep the finite-sample certificate decisive).
    """

    family: str
    params: dict
    cdf: callable
    sf: callable
    quantile: callable
    upper_quantile: callable
    symmetric: bool
    delta_star: float = 0.025

    __hash__ = None  # compares by value, but ``params`` is a dict

    def tail_probability(self, threshold):
        """P[|X| > t] = G(t) + F(-t)."""
        t = np.asarray(threshold, dtype=np.float64)
        return self.sf(t) + self.cdf(-t)

    def sample(self, rng, size):
        """Inverse-transform draws; one uniform consumed per sample."""
        u = np.maximum(rng.random(size), 1e-300)
        return self.quantile(u)

    def validate(self) -> None:
        lo = float(self.quantile(np.asarray(1e-8)))
        hi = float(self.quantile(np.asarray(1.0 - 1e-8)))
        grid = np.linspace(lo, hi, 512)
        f = self.cdf(grid)
        if np.any(np.diff(f) < -1e-12):
            raise ParameterError(f"{self.family}: cdf is not nondecreasing")
        if not (f[0] < 1e-6 and f[-1] > 1 - 1e-6):
            raise ParameterError(f"{self.family}: cdf does not span (0, 1)")
        ps = np.logspace(-8, -2, 25)
        xs = self.upper_quantile(ps)
        back = self.upper_quantile(self.sf(xs))
        rel = np.abs(back - xs) / np.maximum(np.abs(xs), 1e-30)
        if np.any(rel > 1e-8):
            raise ParameterError(f"{self.family}: quantile/survival round trip off")
        if self.symmetric:
            probe = self.upper_quantile(np.logspace(-6, -1, 12))
            if np.any(np.abs(self.cdf(-probe) - self.sf(probe)) > 1e-12):
                raise ParameterError(f"{self.family}: tails are not symmetric")


def _normal_model(sigma=1.0):
    if sigma <= 0:
        raise ParameterError("normal sigma must be positive")
    sigma = float(sigma)
    # the arithmetic of scipy.stats.norm(scale=sigma), without building a
    # frozen distribution (about 1 ms, mostly docstring formatting); its
    # "+ loc" with loc = 0.0 is kept because it turns -0.0 into 0.0
    return TailModel(
        family="normal",
        params={"sigma": sigma},
        cdf=lambda x: ndtr(np.asarray(x, dtype=np.float64) / sigma),
        sf=lambda x: ndtr(-(np.asarray(x, dtype=np.float64) / sigma)),
        quantile=lambda u: ndtri(np.asarray(u, dtype=np.float64)) * sigma + 0.0,
        upper_quantile=lambda p: -ndtri(np.asarray(p, dtype=np.float64)) * sigma + 0.0,
        symmetric=True,
    )


def _symmetric_power_model(alpha=2.0, c1=0.5, c2=0.5):
    alpha, c1, c2 = float(alpha), float(c1), float(c2)
    if alpha <= 0:
        raise ParameterError("power tail index alpha must be positive")
    if c1 <= 0 or c2 <= 0 or c1 + c2 > 1 + 1e-12:
        raise ParameterError("tail weights must be positive with c1 + c2 <= 1")
    mid = max(1.0 - c1 - c2, 0.0)

    def cdf(x):
        x = np.asarray(x, dtype=np.float64)
        return np.select(
            [x <= -1.0, x >= 1.0],
            [c1 * np.abs(x) ** -alpha, 1.0 - c2 * np.where(x >= 1.0, x, 1.0) ** -alpha],
            default=c1 + mid * (x + 1.0) / 2.0,
        )

    def sf(x):
        x = np.asarray(x, dtype=np.float64)
        return np.select(
            [x >= 1.0, x <= -1.0],
            [c2 * np.where(x >= 1.0, x, 1.0) ** -alpha, 1.0 - c1 * np.abs(x) ** -alpha],
            default=c2 + mid * (1.0 - x) / 2.0,
        )

    def quantile(u):
        # one power per draw: -(c1 / u)^(1/alpha) in the lower tail,
        # (c2 / (1 - u))^(1/alpha) in the upper one
        u = np.asarray(u, dtype=np.float64)
        lo = u <= c1
        tail = (np.where(lo, c1, c2) / np.maximum(np.where(lo, u, 1.0 - u), 1e-300)) ** (1.0 / alpha)
        tail = np.where(lo, -tail, tail)
        if mid > 0:
            middle = -1.0 + 2.0 * (u - c1) / mid
        else:
            middle = np.ones_like(u)
        return np.where(lo | (u >= 1.0 - c2), tail, middle)

    def upper_quantile(p):
        p = np.asarray(p, dtype=np.float64)
        with np.errstate(divide="ignore"):
            upper = (c2 / np.maximum(p, 1e-300)) ** (1.0 / alpha)
        if mid > 0:
            middle = 1.0 - 2.0 * (p - c2) / mid
        else:
            middle = np.ones_like(p)
        with np.errstate(divide="ignore"):
            lower = -((c1 / np.maximum(1.0 - p, 1e-300)) ** (1.0 / alpha))
        return np.select([p <= c2, p >= 1.0 - c1], [upper, lower], default=middle)

    return TailModel(
        family="symmetric_power",
        params={"alpha": alpha, "c1": c1, "c2": c2},
        cdf=cdf,
        sf=sf,
        quantile=quantile,
        upper_quantile=upper_quantile,
        symmetric=(abs(c1 - c2) < 1e-15 and mid == 0.0),
    )


def _weibull_symmetric_model(scale=1.0, shape=1.0):
    lam, k = float(scale), float(shape)
    if lam <= 0 or k <= 0:
        raise ParameterError("weibull scale and shape must be positive")

    def _one_sided_sf(x):
        return np.exp(-((np.maximum(x, 0.0) / lam) ** k))

    def cdf(x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x < 0, 0.5 * _one_sided_sf(-x), 1.0 - 0.5 * _one_sided_sf(x))

    def sf(x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x >= 0, 0.5 * _one_sided_sf(x), 1.0 - 0.5 * _one_sided_sf(-x))

    def quantile(u):
        u = np.asarray(u, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            up = lam * (-np.log(np.maximum(2.0 * (1.0 - u), 1e-300))) ** (1.0 / k)
            down = -lam * (-np.log(np.maximum(2.0 * u, 1e-300))) ** (1.0 / k)
        return np.where(u >= 0.5, np.maximum(up, 0.0), np.minimum(down, 0.0))

    def upper_quantile(p):
        p = np.asarray(p, dtype=np.float64)
        with np.errstate(divide="ignore"):
            up = lam * (-np.log(np.maximum(2.0 * p, 1e-300))) ** (1.0 / k)
        return np.where(p <= 0.5, np.maximum(up, 0.0), quantile(1.0 - p))

    return TailModel(
        family="weibull_symmetric",
        params={"scale": lam, "shape": k},
        cdf=cdf,
        sf=sf,
        quantile=quantile,
        upper_quantile=upper_quantile,
        symmetric=True,
    )


def _uniform_model(low=-1.0, high=1.0):
    low, high = float(low), float(high)
    if not low < high:
        raise ParameterError("uniform support must satisfy low < high")
    span = high - low

    def cdf(x):
        return np.clip((np.asarray(x, dtype=np.float64) - low) / span, 0.0, 1.0)

    def sf(x):
        return np.clip((high - np.asarray(x, dtype=np.float64)) / span, 0.0, 1.0)

    return TailModel(
        family="uniform",
        params={"low": low, "high": high},
        cdf=cdf,
        sf=sf,
        quantile=lambda u: low + span * np.asarray(u, dtype=np.float64),
        upper_quantile=lambda p: high - span * np.asarray(p, dtype=np.float64),
        symmetric=(abs(low + high) < 1e-15),
    )


def _custom_quantile_model(cdf, sf, quantile, upper_quantile, symmetric=False):
    return TailModel(
        family="custom_quantile",
        params={},
        cdf=cdf,
        sf=sf,
        quantile=quantile,
        upper_quantile=upper_quantile,
        symmetric=bool(symmetric),
    )


# family -> builder; a builder's keyword arguments are the family's parameters
_TAIL_FAMILIES = {
    "normal": _normal_model,
    "symmetric_power": _symmetric_power_model,
    "weibull_symmetric": _weibull_symmetric_model,
    "uniform": _uniform_model,
    "custom_quantile": _custom_quantile_model,
}


def make_tail_model(family: str, **params) -> TailModel:
    if family not in _TAIL_FAMILIES:
        raise ParameterError(f"unknown tail family {family!r}")
    return _TAIL_FAMILIES[family](**params)


# --------------------------------------------------------------------------
# forcing generators
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ForcingGenerator:
    """Seeded description of a forcing sequence on indices 1..horizon.

    Kinds: "iid" (tail model draws), "random_walk_drift" and
    "geometric_random_walk" (drift plus centered noise increments),
    "deterministic" (growth-catalogue entry), "modulated" (deterministic
    base times a bounded stationary factor).  Index 0 of the output is
    always the zero placeholder; the recursion never reads it.

    Generators compare by value but are unhashable: their ``params``,
    ``base`` and ``factor`` are dicts, and a tail model compares by the
    identity of its functions.
    """

    kind: str
    seed: int = 0
    tail: TailModel = None
    drift: float = 0.0
    noise: TailModel = None
    name: str = None
    params: dict = field(default_factory=dict)
    base: dict = None
    factor: dict = None

    __hash__ = None


def _rng_for(gen: ForcingGenerator):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(gen.seed)))


def forcing_entry(name, **params) -> CatalogueEntry:
    """The catalogue entry a deterministic forcing or a modulated base uses.

    A forcing starts at index 1, so an entry defined only from a later
    index is refused.
    """
    entry = catalogue_entry(name, **params)
    if entry.min_index > 1:
        raise InputError(
            f"catalogue entry {name!r} starts at index {entry.min_index}; it "
            "cannot serve as a forcing sequence"
        )
    return entry


def factor_error(spec):
    """The first field of a modulation factor spec that generation rejects.

    Returns ``(field, reason)``, or None when the spec is valid.
    """
    kind = spec.get("kind")
    if kind not in ("iid_uniform", "periodic", "sinusoid"):
        return "kind", f"unknown modulation factor kind {kind!r}"
    for key, value in spec.items():
        if key != "kind" and not np.all(np.isfinite(np.asarray(value, dtype=np.float64))):
            return key, "factor parameters must be finite"
    if kind == "iid_uniform" and not float(spec.get("low", 0.0)) < float(spec.get("high", 1.0)):
        return "high", "factor support must satisfy low < high"
    if kind == "periodic" and len(spec.get("profile", ())) < 1:
        return "profile", "periodic factor needs a nonempty profile"
    if kind == "sinusoid" and (len(spec.get("amplitudes", (1.0,)))
                               != len(spec.get("frequencies", (1.0,)))):
        return "frequencies", "sinusoid amplitudes and frequencies must pair up"
    return None


def _factor_values(spec, horizon, rng):
    error = factor_error(spec)
    if error is not None:
        raise ParameterError(error[1])
    kind = spec["kind"]
    n = np.arange(1, horizon + 1)
    if kind == "iid_uniform":
        return rng.uniform(float(spec.get("low", 0.0)), float(spec.get("high", 1.0)), horizon)
    if kind == "periodic":
        profile = np.asarray(spec["profile"], dtype=np.float64)
        return profile[n % len(profile)]
    amps = np.asarray(spec.get("amplitudes", (1.0,)), dtype=np.float64)  # sinusoid
    freqs = np.asarray(spec.get("frequencies", (1.0,)), dtype=np.float64)
    out = np.full(horizon, float(spec.get("offset", 0.0)))
    for a, w in zip(amps, freqs):
        out += a * np.sin(w * n)
    return out


def generate(gen: ForcingGenerator, horizon: int, log_domain: bool = False, rng=None):
    """Materialise the forcing on indices 0..horizon (index 0 set to 0).

    Identical (kind, parameters, seed, horizon) produce bitwise identical
    output; the draws come from a counter-based Philox stream.
    """
    horizon = _solve_horizon(horizon)
    if rng is None:
        rng = _rng_for(gen)

    h = _forcing_body(gen, horizon, log_domain, rng)
    if log_domain:
        h = h.to_log()
        return LogTrajectory(np.concatenate(([-np.inf], h.log_abs)),
                             np.concatenate(([0.0], h.sign)))
    return Trajectory(np.concatenate(([0.0], h.to_plain().values)))


def _forcing_body(gen, horizon, log_domain, rng):
    """The forcing on indices 1..horizon, in whichever form it is built."""
    if gen.kind == "iid":
        if gen.tail is None:
            raise ParameterError("iid forcing needs a tail model")
        return Trajectory(gen.tail.sample(rng, horizon), start=1)

    if gen.kind in ("random_walk_drift", "geometric_random_walk"):
        steps = gen.noise.sample(rng, horizon) if gen.noise is not None else np.zeros(horizon)
        walk = gen.drift * np.arange(1, horizon + 1) + np.cumsum(steps)
        if gen.kind == "random_walk_drift":
            return Trajectory(walk, start=1)
        return LogTrajectory.from_log(walk, start=1)

    if gen.kind == "deterministic":
        return forcing_entry(gen.name, **gen.params).sequence(1, horizon, log_domain)

    if gen.kind == "modulated":
        if not gen.base or not gen.factor:
            raise ParameterError("modulated forcing needs base and factor specs")
        entry = forcing_entry(gen.base["name"], **gen.base.get("params", {}))
        base = entry.sequence(1, horizon, log_domain)
        factor = _factor_values(gen.factor, horizon, rng)
        if log_domain:
            with np.errstate(divide="ignore"):
                return LogTrajectory(np.log(np.abs(factor)) + base.log_abs,
                                     np.sign(factor), start=1)
        return Trajectory(factor * base.values, start=1)

    raise ParameterError(f"unknown forcing kind {gen.kind!r}")


# --------------------------------------------------------------------------
# Borel-Cantelli envelope accounting
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeReport:
    """Partial sums of sum_n P[|H(n)| > K a(n)] over a grid of K values.

    Verdicts follow a log-log regression of the summand over the last
    decade of indices: fitted decay exponent strictly below -1 reads
    convergent, at or above -1 divergent, an unusable fit undecided.
    ``crossing`` is the midpoint between the largest divergent and the
    smallest convergent K when the grid brackets the transition.
    """

    k_grid: np.ndarray
    partial_sums: np.ndarray
    verdicts: tuple
    slopes: tuple
    crossing: float
    start_index: int


def _decay_regression(indices, summands):
    """Classify series convergence from the summand's log-log decay."""
    pos = summands > 0.0
    if not np.any(pos):
        return "convergent", float("-inf")
    if np.count_nonzero(pos) < 8:
        return "undecided", float("nan")
    slope = float(np.polyfit(np.log(indices[pos]), np.log(summands[pos]), 1)[0])
    return ("convergent" if slope < -1.0 else "divergent"), slope


def envelope_sums(tail: TailModel, a: Trajectory, k_grid) -> EnvelopeReport:
    """Exact partial sums S_N(a, K) of the exceedance series for each K, over all of a."""
    a = a.to_plain()
    if np.any(a.values <= 0.0) or np.any(np.diff(a.values) < 0.0):
        raise InputError("envelope scale must be positive and nondecreasing")
    idx = a.indices().astype(np.float64)
    k_grid = np.asarray(sorted(float(k) for k in k_grid))
    if k_grid.size == 0 or np.any(k_grid <= 0.0):
        raise InputError("K grid must contain positive values")
    sums = np.empty((k_grid.size, len(a)))
    verdicts = []
    slopes = []
    reg_lo = max(a.start, a.end // 10)
    reg_mask = idx >= reg_lo
    for i, k in enumerate(k_grid):
        summand = np.asarray(tail.tail_probability(k * a.values), dtype=np.float64)
        sums[i] = np.cumsum(summand)
        verdict, slope = _decay_regression(idx[reg_mask], summand[reg_mask])
        verdicts.append(verdict)
        slopes.append(slope)
    crossing = None
    divergent = [k for k, v in zip(k_grid, verdicts) if v == "divergent"]
    convergent = [k for k, v in zip(k_grid, verdicts) if v == "convergent"]
    if divergent and convergent and max(divergent) < min(convergent):
        crossing = 0.5 * (max(divergent) + min(convergent))
    return EnvelopeReport(
        k_grid=k_grid,
        partial_sums=sums,
        verdicts=tuple(verdicts),
        slopes=tuple(slopes),
        crossing=crossing,
        start_index=a.start,
    )


# --------------------------------------------------------------------------
# tail classification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TailClassification:
    verdict: str          # "rapid" | "regularly-varying" | "undecided"
    alpha: float = None
    case: str = None      # "i" | "ii" | "iii"
    ratio_limit: float = None
    detail: dict = field(default_factory=dict)


def _side_slopes(qfun):
    """Log-log tail slopes over a near and a far probe decade."""
    ps = np.array([1e-2, 1e-4, 1e-6])
    xs = np.abs(np.asarray(qfun(ps), dtype=np.float64))
    if np.any(~np.isfinite(xs)) or np.any(xs <= 0.0):
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        dx_near = math.log(xs[1]) - math.log(xs[0])
        dx_far = math.log(xs[2]) - math.log(xs[1])
    if dx_near <= 0.0 or dx_far <= 0.0:
        return None
    dp = math.log(1e-4) - math.log(1e-2)
    return dp / dx_near, dp / dx_far


def _rv_fit(tail: TailModel):
    """Power-decay fit of either tail; None when the slope drifts."""
    sides = {}
    right = _side_slopes(tail.upper_quantile)
    left = _side_slopes(lambda p: tail.quantile(np.asarray(p)))
    for label, pair in (("right", right), ("left", left)):
        if pair is None:
            continue
        near, far = pair
        if far >= 0.0:
            continue
        if abs(far - near) <= max(0.15 * abs(far), 0.1):
            sides[label] = -0.5 * (near + far)
    if not sides:
        return None
    alpha = min(sides.values())
    return {"alpha": alpha, "sides": sides}


def _ssv_certificate(tail: TailModel):
    """Finite-sample super-slow-variation check at exponents {0, delta*}."""
    xs = np.asarray(_SSV_PROBES, dtype=np.float64)
    detail = {}
    worst = 0.0
    for delta in (0.0, tail.delta_star):
        scaled = xs * _default_modulus(xs) ** delta
        base = np.asarray(tail.upper_quantile(1.0 / xs), dtype=np.float64)
        moved = np.asarray(tail.upper_quantile(1.0 / scaled), dtype=np.float64)
        if np.any(~np.isfinite(base)) or np.any(base <= 0.0):
            return False, {"error": "quantile not positive at probe points"}
        dev = float(np.max(np.abs(moved / base - 1.0)))
        detail[f"deviation_delta_{delta:g}"] = dev
        worst = max(worst, dev)
    ratio_ok = worst < _SSV_TOLERANCE
    n = np.logspace(4, 5, 60)
    summand = 1.0 / (n * _default_modulus(n) ** tail.delta_star)
    verdict, slope = _decay_regression(n, summand)
    detail["modulus_series_slope"] = slope
    detail["modulus_series_verdict"] = verdict
    return ratio_ok and verdict == "convergent", detail


def classify_tail(tail: TailModel) -> TailClassification:
    """Sort a tail model into rapid (thin) or regularly varying (power).

    The rapid certificate checks that the upper quantile barely moves when
    its argument is rescaled by mu(x)**delta*, and that the modulus series
    sum 1/(n mu(n)**delta*) passes the convergence regression.  The
    regularly-varying branch fits a stable log-log tail slope -alpha and
    decides the side balance from the limit of G(x) / F(-x): infinite is
    case i, zero case ii, a finite positive constant case iii.  Conflicting
    or failing certificates yield "undecided".
    """
    rv = _rv_fit(tail)
    rapid_ok, ssv_detail = _ssv_certificate(tail)
    if rapid_ok and rv is not None:
        return TailClassification(
            verdict="undecided", detail={"conflict": True, "ssv": ssv_detail, "rv": rv}
        )
    if rapid_ok:
        return TailClassification(verdict="rapid", detail={"ssv": ssv_detail})
    if rv is not None:
        xs = np.abs(np.asarray(tail.upper_quantile(np.array([1e-4, 1e-6]))))
        if "left" in rv["sides"]:
            xs = np.maximum(xs, np.abs(np.asarray(tail.quantile(np.array([1e-4, 1e-6])))))
        with np.errstate(divide="ignore"):
            num = np.asarray(tail.sf(xs), dtype=np.float64)
            den = np.asarray(tail.cdf(-xs), dtype=np.float64)
        ratios = np.divide(num, den, out=np.full_like(num, np.inf), where=den > 0.0)
        detail = {"rv": rv, "balance_ratios": [float(r) for r in ratios]}
        if np.all(ratios > 100.0):
            return TailClassification("regularly-varying", alpha=rv["alpha"], case="i", detail=detail)
        if np.all(ratios < 0.01):
            return TailClassification("regularly-varying", alpha=rv["alpha"], case="ii", detail=detail)
        if ratios[0] > 0 and np.isfinite(ratios).all() and abs(ratios[1] / ratios[0] - 1.0) < 0.5:
            return TailClassification(
                "regularly-varying", alpha=rv["alpha"], case="iii",
                ratio_limit=float(ratios[1]), detail=detail,
            )
        return TailClassification("undecided", detail=detail)
    return TailClassification("undecided", detail={"ssv": ssv_detail})


# --------------------------------------------------------------------------
# ensembles
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleSpec:
    """One seeded system: kernel, forcing, optional scale, solve options.

    Specs compare by value and, like their forcing generator, are unhashable.
    """

    kernel: Kernel
    forcing: ForcingGenerator
    horizon: int
    xi: float = 1.0
    log_domain: bool = False
    scaling: ScalingModel = None
    thresholds: LimsupThresholds = None

    __hash__ = None


STATISTICS = (
    "limsup_ratio",
    "log_growth_rate",
    "log_log_exponent",
    "cesaro_limit",
    "phi_average",
)


@dataclass(frozen=True)
class StatisticSpec:
    """Named per-path statistic with its pre-registered acceptance band."""

    name: str
    band: tuple
    series: str = "solution"  # "solution" or "forcing"
    phi: ConvexFunctional = None
    burn_in_fraction: float = 0.25

    __hash__ = None  # compares by value, but ``phi`` holds a dict

    def __post_init__(self):
        if self.name not in STATISTICS:
            raise ParameterError(f"unknown statistic {self.name!r}")
        if self.series not in ("solution", "forcing"):
            raise ParameterError("statistic series must be 'solution' or 'forcing'")
        if len(self.band) != 2 or not self.band[0] <= self.band[1]:
            raise ParameterError("band must be (low, high) with low <= high")
        if not 0.0 <= self.burn_in_fraction < 1.0:
            raise ParameterError("burn_in_fraction must lie in [0, 1)")


@dataclass(frozen=True)
class EnsembleResult:
    """Sorted per-path statistics and the fraction inside the band.

    Failed paths (overflow outside the log domain) are recorded as NaN at
    the end of ``per_path`` and count against the pass fraction.
    """

    per_path: tuple
    pass_fraction: float
    failures: int
    median: float


def _path_statistic(spec: StatisticSpec, series, system: EnsembleSpec) -> float:
    """The statistic of one path's solution or forcing, as ``spec.series`` names."""
    if spec.name == "limsup_ratio":
        est = estimate_limsup(series, system.scaling, system.thresholds)
        return est.value
    if spec.name == "log_growth_rate":
        la = abs_log_series(series)
        return float(la.values[-1]) / la.end
    if spec.name == "log_log_exponent":
        la = abs_log_series(series)
        lo = max(series.start, 2, series.start + int(spec.burn_in_fraction * len(la)))
        win = la.window(lo, la.end)
        return float(np.max(win.values / np.log(win.indices())))
    if spec.name == "cesaro_limit":
        ratio = ratio_series(series, system.scaling.a)
        return float(time_average(ratio).values[-1])
    phi = spec.phi or make_phi("power", p=2.0)  # phi_average
    return float(np.mean(phi(np.abs(series.to_plain().values))))


# most doubles in the one array a batched plain-domain ensemble solves in
# place: paths run in groups of max(1, _GROUP_DOUBLES // (horizon + 1)), so a
# group's array takes at most 2 MB unless a single path is longer
_GROUP_DOUBLES = 2**18

# the errors that fail a single path; any other error stops the ensemble
_PATH_ERRORS = (TrajectoryOverflowError, UndefinedRatioError, InputError)


def _log_path(system: EnsembleSpec, statistic: StatisticSpec, rng):
    """One log-domain path's statistic, or None if it fails."""
    try:
        forcing = generate(system.forcing, system.horizon, log_domain=True, rng=rng)
        x = solve_linear(system.kernel, forcing, system.xi, system.horizon, log_domain=True)
        series = x if statistic.series == "solution" else forcing
        return float(_path_statistic(statistic, series, system))
    except _PATH_ERRORS:
        return None


def _plain_group(system: EnsembleSpec, statistic: StatisticSpec, horizon: int, rngs) -> list:
    """The statistics of plain-domain paths solved as the rows of one array.

    Each path's forcing is written into its row of one (P, horizon + 1)
    array, all rows are solved in place in one call, and each row is then
    scored.  A path's entry is None if its generation, its solve or its
    statistic fails, as when the path runs alone.
    """
    x = np.zeros((len(rngs), horizon + 1))
    made = np.zeros(len(rngs), dtype=bool)
    for p, rng in enumerate(rngs):
        try:
            x[p, 1:] = _forcing_body(system.forcing, horizon, False, rng).to_plain().values
            made[p] = True
        except _PATH_ERRORS:
            pass
    values = [None] * len(rngs)
    # the solve overwrites the forcings, so keep them if the statistic reads them
    series = x if statistic.series == "solution" else x.copy()
    bad = _blocked_linear(system.kernel, x, float(system.xi))
    for p in np.flatnonzero(made & (bad < 0)):
        try:
            values[p] = float(_path_statistic(statistic, Trajectory(series[p]), system))
        except _PATH_ERRORS:
            pass
    return values


def ensemble_verify(system: EnsembleSpec, paths: int, statistic: StatisticSpec) -> EnsembleResult:
    """Run seeded independent paths and score a statistic against a band.

    Path p draws from the stream spawned for (master seed, p); aggregation
    is order independent and the per-path list is reported sorted.  The
    spec is checked once, before any path runs: a statistic that needs a
    missing scaling model, a horizon that is not an integer >= 1 and a
    non-finite start each raise ``InputError``.  Plain-domain paths are
    solved in groups, as the rows of one array; log-domain paths one at a
    time.  A path's statistic is bitwise reproducible for the same spec,
    seed and path count under the same BLAS and thread count; its solution
    is within the block engine's 1e-12 scaled gap of the same path solved
    alone.
    """
    if paths < 1:
        raise InputError("need at least one path")
    if statistic.name in ("limsup_ratio", "cesaro_limit") and system.scaling is None:
        raise InputError(f"{statistic.name} needs a scaling model")
    horizon = _solve_horizon(system.horizon, system.xi)
    rngs = [np.random.Generator(np.random.Philox(child))
            for child in np.random.SeedSequence(system.forcing.seed).spawn(paths)]
    if system.log_domain:
        values = [_log_path(system, statistic, rng) for rng in rngs]
    else:
        group = max(1, _GROUP_DOUBLES // (horizon + 1))
        values = []
        for lo in range(0, paths, group):
            values += _plain_group(system, statistic, horizon, rngs[lo : lo + group])
    failures = values.count(None)
    arr = np.array([math.nan if v is None else v for v in values])
    finite = arr[np.isfinite(arr)]
    lo, hi = statistic.band
    in_band = int(np.count_nonzero((finite >= lo) & (finite <= hi)))
    ordered = tuple(sorted(finite)) + (float("nan"),) * (paths - finite.size)
    return EnsembleResult(
        per_path=ordered,
        pass_fraction=in_band / paths,
        failures=failures,
        median=float(np.median(finite)) if finite.size else float("nan"),
    )
