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
from dataclasses import dataclass

import numpy as np

from .asymptotics import ScalingModel, estimate_limsup, time_average
from .core import (
    _CHUNK,
    Kernel,
    _blocked_linear,
    _placeholder_forcing,
    _solve_horizon,
    solve_linear,
)
from .exceptions import (
    InputError,
    ParameterError,
    TrajectoryOverflowError,
    UndefinedRatioError,
)
from .growth_catalogue import CatalogueEntry, catalogue_entry
from .series import (
    LogTrajectory,
    Trajectory,
    abs_log_series,
    burn_in_start,
    median,
    ratio_series,
)

__all__ = [
    "TailModel",
    "make_tail_model",
    "make_factor",
    "ForcingGenerator",
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

# rapid-tail certificate: probe points, the relative quantile movement accepted
# there, and the one exponent delta* of the modulus mu(x) = (log x)^2 that its
# quantile test rescales by; no other exponent is tried
_SSV_PROBES = (1e3, 1e4, 1e5, 1e6)
_SSV_TOLERANCE = 0.02
_DELTA_STAR = 0.025


@dataclass(frozen=True)
class TailModel:
    """The law of X, and of -X where X is not symmetric, each as (cdf, quantile).

    ``reflected`` is the (cdf, quantile) pair of -X, or None when -X has the
    law of X.  The far side is read off it: G(t) = P[X > t] is the cdf of
    -X at -t, and the upper quantile G^{-1}(p) is minus its quantile at p,
    so far-tail probabilities and quantiles keep full precision where
    1 - F(t) would round to 0, or 1 - p to 1.
    """

    family: str
    cdf: callable
    quantile: callable
    reflected: tuple = None

    def _mirror(self):
        return self.reflected or (self.cdf, self.quantile)

    def sf(self, x):
        """G(x) = P[X > x], the cdf of -X at -x."""
        return self._mirror()[0](-np.asarray(x, dtype=np.float64))

    def upper_quantile(self, p):
        """G^{-1}(p), minus the quantile of -X at p; "+ 0.0" keeps a zero at +0.0."""
        return -self._mirror()[1](p) + 0.0

    def tail_probability(self, threshold):
        """P[|X| > t] = G(t) + F(-t), which is 2 F(-t) when X is symmetric."""
        below = -np.asarray(threshold, dtype=np.float64)
        if self.reflected is None:
            return 2.0 * self.cdf(below)
        return self.reflected[0](below) + self.cdf(below)

    def sample(self, rng, size):
        """Inverse-transform draws; one uniform consumed per sample.

        The output array is filled ``_CHUNK`` values at a time: each piece's
        uniforms are drawn straight into it, floored at 1e-300 in place, and
        mapped through the quantile.  The generator's stream runs on across
        pieces, so the draws are bitwise those of one whole-array pass.
        """
        out = np.empty(size)
        for lo in range(0, size, _CHUNK):
            piece = out[lo : lo + _CHUNK]
            rng.random(out=piece)
            np.maximum(piece, 1e-300, out=piece)
            piece[:] = self.quantile(piece)
        return out


def _piecewise(x, pieces):
    """fn(x[mask]) into out[mask] for each (mask, fn) of disjoint 1-d masks covering x.

    A mask that covers all of x is the fast path: fn(x), with no gather or
    scatter.
    """
    for mask, fn in pieces:
        if mask.all():
            return fn(x)
    out = np.empty(x.shape)
    for mask, fn in pieces:
        if mask.any():
            out[mask] = fn(x[mask])
    return out


def _horner(x, coeffs):
    """((c0 x + c1) x + ...) x + c_last, one rounding per step, in place."""
    acc = coeffs[0] * x
    for c in coeffs[1:-1]:
        acc += c
        acc *= x
    acc += coeffs[-1]
    return acc


def _rational(x, pair):
    num, den = (_horner(x, c) for c in pair)
    return num / den


# Cody's ANORM (ACM TOMS Algorithm 715), as in R's pnorm, in Horner order:
# Cody's (a[4], a[0..3]) and (1, b[0..3]) on |z| <= 0.67448975 in s = z^2,
# (c[8], c[0..7]) and (1, d[0..7]) on |z| <= sqrt(32) in y = |z|, and
# (p[5], p[0..4]) and (1, q[0..4]) beyond in s = 1/z^2
_ANORM_CENTRE = (
    (0.065682337918207449113, 2.2352520354606839287, 161.02823106855587881,
     1067.6894854603709582, 18154.981253343561249),
    (1.0, 47.20258190468824187, 976.09855173777669322, 10260.932208618978205,
     45507.789335026729956),
)
_ANORM_MIDDLE = (
    (1.0765576773720192317e-8, 0.39894151208813466764, 8.8831497943883759412,
     93.506656132177855979, 597.27027639480026226, 2494.5375852903726711,
     6848.1904505362823326, 11602.651437647350124, 9842.7148383839780218),
    (1.0, 22.266688044328115691, 235.38790178262499861, 1519.377599407554805,
     6485.558298266760755, 18615.571640885098091, 34900.952721145977266,
     38912.003286093271411, 19685.429676859990727),
)
_ANORM_FAR = (
    (0.02307344176494017303, 0.21589853405795699, 0.1274011611602473639,
     0.022235277870649807, 0.001421619193227893466, 2.9112874951168792e-5),
    (1.0, 1.28426009614491121, 0.468238212480865118, 0.0659881378689285515,
     0.00378239633202758244, 7.29751555083966205e-5),
)
_ANORM_EDGES = (0.67448975, math.sqrt(32.0), 38.5)  # Phi(-38.5) rounds to 0.0
_INV_SQRT_2PI = 0.398942280401432677939946059934


def _anorm_centre(z):
    s = z * z
    num, den = (_horner(s, c) for c in _ANORM_CENTRE)
    return 0.5 + z * num / den


def _anorm_tail(z, ratio):
    """Phi(z) from Phi(-|z|) = gauss(|z|) ratio(|z|).

    exp(-y^2/2) is split at y0 = trunc(16 y)/16 as exp(-y0^2/2) exp(-(y - y0)(y + y0)/2):
    y0^2 is exact, so the rounding of y^2 is not magnified by exp.
    """
    y = np.abs(z)
    y0 = np.trunc(y * 16.0) / 16.0
    tail = np.exp(y0 * y0 * -0.5)
    tail *= np.exp((y - y0) * (y + y0) * -0.5)
    tail *= ratio(y)
    np.subtract(1.0, tail, out=tail, where=z > 0.0)
    return tail


def _anorm_middle_ratio(y):
    return _rational(y, _ANORM_MIDDLE)


def _anorm_far_ratio(y):
    s = 1.0 / (y * y)
    num, den = (_horner(s, c) for c in _ANORM_FAR)
    return (_INV_SQRT_2PI - s * num / den) / y


def _ndtr(z):
    """Phi(z), the standard normal cdf, by Cody's ANORM; 0 or 1 past |z| = 38.5.

    Any shape; a 0-d input gives a scalar, as from a ufunc.
    """
    z = np.asarray(z, dtype=np.float64)
    flat = z.ravel()
    y = np.abs(flat)
    centre = y <= _ANORM_EDGES[0]
    middle = ~centre & (y <= _ANORM_EDGES[1])
    far = (y > _ANORM_EDGES[1]) & (y < _ANORM_EDGES[2])
    return _piecewise(flat, (
        (centre, _anorm_centre),
        (middle, lambda v: _anorm_tail(v, _anorm_middle_ratio)),
        (far, lambda v: _anorm_tail(v, _anorm_far_ratio)),
        # |z| >= 38.5, and NaN: heaviside keeps NaN
        (~(centre | middle | far), lambda v: np.heaviside(v, 0.5)),
    )).reshape(z.shape)[()]


# Wichura's AS241 (Appl. Statist. 37 (1988) 477-484), the coefficients and
# steps of CPython's statistics._normal_dist_inv_cdf, in Horner order
_AS241_CENTRE = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_AS241_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0),
)
_AS241_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)


def _as241_centre(q):
    r = 0.180625 - q * q
    num, den = (_horner(r, c) for c in _AS241_CENTRE)
    num *= q
    return num / den


def _as241_tail(p):
    """AS241 for 0 < p < 1 with |p - 1/2| > 0.425."""
    q = p - 0.5
    r = np.sqrt(-np.log(np.where(q <= 0.0, p, 1.0 - p)))
    x = _piecewise(r, (
        (r <= 5.0, lambda v: _rational(v - 1.6, _AS241_NEAR)),
        (r > 5.0, lambda v: _rational(v - 5.0, _AS241_FAR)),
    ))
    return np.negative(x, out=x, where=q < 0.0)


def _ndtri(p):
    """Phi^{-1}(p) by AS241: -inf at p = 0, inf at p = 1, NaN outside [0, 1].

    The central branch runs on every p, with no gather; the tail draws
    (|p - 1/2| > 0.425) and the ones outside (0, 1) are then scattered over
    it.  Any shape; a 0-d input gives a scalar, as from a ufunc.
    """
    p = np.asarray(p, dtype=np.float64)
    flat = p.ravel()
    q = flat - 0.5
    # far outside [0, 1], q * q overflows; those entries are overwritten below
    with np.errstate(over="ignore", invalid="ignore"):
        out = _as241_centre(q)
    off = ~(np.abs(q) <= 0.425)
    if off.any():
        tail = off & (flat > 0.0) & (flat < 1.0)
        rest = off & ~tail
        if tail.any():
            out[tail] = _as241_tail(flat[tail])
        if rest.any():
            v = flat[rest]
            out[rest] = np.select([v == 0.0, v == 1.0], [-np.inf, np.inf], np.nan)
    return out.reshape(p.shape)[()]


def _normal_model(sigma=1.0):
    if sigma <= 0:
        raise ParameterError("normal sigma must be positive")
    sigma = float(sigma)
    # symmetric: G(t) is F(-t), Phi((-t)/sigma), so far-tail probabilities keep
    # full precision, and P[|X| > t] is 2 F(-t) in one _ndtr pass.  "+ 0.0"
    # turns a quantile's -0.0 into 0.0, as statistics.NormalDist(0.0, sigma).inv_cdf does.
    return TailModel(
        family="normal",
        cdf=lambda x: _ndtr(np.asarray(x, dtype=np.float64) / sigma),
        quantile=lambda u: _ndtri(u) * sigma + 0.0,
    )


def _power_side(alpha, c_lo, c_hi, mid):
    """(cdf, quantile) of the law with c_lo |x|^-alpha below -1, 1 - c_hi x^-alpha
    above 1 and uniform mass mid on [-1, 1]."""

    def cdf(x):
        x = np.asarray(x, dtype=np.float64)
        return np.select(
            [x <= -1.0, x >= 1.0],
            # each branch reads x only where it is selected, so none overflows
            # (|x|^-alpha near 0) or computes 0 * inf (mid = 0 at x = +-inf)
            [c_lo * np.where(x <= -1.0, -x, 1.0) ** -alpha,
             1.0 - c_hi * np.where(x >= 1.0, x, 1.0) ** -alpha],
            default=c_lo + mid * (np.clip(x, -1.0, 1.0) + 1.0) / 2.0,
        )

    def quantile(u):
        # one power per draw, in place: -(c_lo / u)^(1/alpha) in the lower
        # tail, (c_hi / (1 - u))^(1/alpha) in the upper one
        u = np.asarray(u, dtype=np.float64)
        lo = u <= c_lo
        tail = np.where(lo, u, 1.0 - u)
        np.maximum(tail, 1e-300, out=tail)
        np.divide(c_lo if c_lo == c_hi else np.where(lo, c_lo, c_hi), tail, out=tail)
        tail **= 1.0 / alpha
        tail = np.where(lo, -tail, tail)
        # the middle branch, NaN draws included, only where some draw takes it
        inside = ~(lo | (u >= 1.0 - c_hi))
        if inside.any():
            middle = -1.0 + 2.0 * (u - c_lo) / mid if mid > 0 else 1.0
            tail = np.where(inside, middle, tail)
        return tail

    return cdf, quantile


def _symmetric_power_model(alpha=2.0, c1=0.5, c2=0.5):
    alpha, c1, c2 = float(alpha), float(c1), float(c2)
    if alpha <= 0:
        raise ParameterError("power tail index alpha must be positive")
    if c1 <= 0 or c2 <= 0 or c1 + c2 > 1 + 1e-12:
        raise ParameterError("tail weights must be positive with c1 + c2 <= 1")
    # one mid for both sides: 1 - c2 - c1 may round differently
    mid = max(1.0 - c1 - c2, 0.0)
    cdf, quantile = _power_side(alpha, c1, c2, mid)
    return TailModel(
        family="symmetric_power",
        cdf=cdf,
        quantile=quantile,
        reflected=_power_side(alpha, c2, c1, mid),
    )


def _weibull_symmetric_model(scale=1.0, shape=1.0):
    lam, k = float(scale), float(shape)
    if lam <= 0 or k <= 0:
        raise ParameterError("weibull scale and shape must be positive")

    def _one_sided_sf(x):
        # (x / lam)^k overflows to inf far out, and exp(-inf) = 0 is the exact sf there
        with np.errstate(over="ignore"):
            return np.exp(-((np.maximum(x, 0.0) / lam) ** k))

    def cdf(x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x < 0, 0.5 * _one_sided_sf(-x), 1.0 - 0.5 * _one_sided_sf(x))

    def quantile(u):
        # one log and one power per draw, in place: lam (-log 2(1 - u))^(1/k)
        # from u = 1/2 up, -lam (-log 2u)^(1/k) below; min(u, 1 - u) is the
        # side's 1 - u or u (an array for 0-d u too), NaN included
        u = np.asarray(u, dtype=np.float64)
        t = np.asarray(np.minimum(u, 1.0 - u))
        t *= 2.0
        np.maximum(t, 1e-300, out=t)
        np.log(t, out=t)
        np.negative(t, out=t)
        t **= 1.0 / k
        return np.where(u >= 0.5, np.maximum(t * lam, 0.0), np.minimum(t * -lam, 0.0))

    return TailModel(family="weibull_symmetric", cdf=cdf, quantile=quantile)


def _uniform_side(low, high):
    """(cdf, quantile) of the uniform law on [low, high]."""
    span = high - low
    return (lambda x: np.clip((np.asarray(x, dtype=np.float64) - low) / span, 0.0, 1.0),
            lambda u: low + span * np.asarray(u, dtype=np.float64))


def _uniform_model(low=-1.0, high=1.0):
    low, high = float(low), float(high)
    if not low < high:
        raise ParameterError("uniform support must satisfy low < high")
    cdf, quantile = _uniform_side(low, high)
    return TailModel(family="uniform", cdf=cdf, quantile=quantile,
                     reflected=_uniform_side(-high, -low))


# family -> builder; a builder's keyword arguments are the family's parameters
_TAIL_FAMILIES = {
    "normal": _normal_model,
    "symmetric_power": _symmetric_power_model,
    "weibull_symmetric": _weibull_symmetric_model,
    "uniform": _uniform_model,
}


def make_tail_model(family: str, **params) -> TailModel:
    if family not in _TAIL_FAMILIES:
        raise ParameterError(f"unknown tail family {family!r}")
    return _TAIL_FAMILIES[family](**params)


# --------------------------------------------------------------------------
# modulation factors
# --------------------------------------------------------------------------

def _finite(values, what):
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ParameterError(f"{what} must be finite")
    return values


def _factor(values, draws):
    """A factor: ``values`` of (indices, rng), and whether it reads rng."""
    values.draws = draws
    return values


def _iid_uniform_factor(low=0.0, high=1.0):
    low, high = float(low), float(high)
    _finite((low, high), "uniform factor bounds")
    if not low < high:
        raise ParameterError("factor support must satisfy low < high")
    return _factor(lambda n, rng: rng.uniform(low, high, len(n)), draws=True)


def _periodic_factor(profile):
    profile = _finite(profile, "periodic factor profile")
    if profile.ndim != 1 or not profile.size:
        raise ParameterError("periodic factor needs a nonempty profile")
    return _factor(lambda n, rng: profile[n % len(profile)], draws=False)


def _sinusoid_factor(amplitudes=(1.0,), frequencies=(1.0,), offset=0.0):
    amps = _finite(amplitudes, "sinusoid amplitudes")
    freqs = _finite(frequencies, "sinusoid frequencies")
    offset = float(offset)
    _finite(offset, "sinusoid offset")
    if amps.ndim != 1 or amps.shape != freqs.shape:
        raise ParameterError("sinusoid amplitudes and frequencies must pair up")

    def values(n, rng):
        out = np.full(len(n), offset)
        for a, w in zip(amps, freqs):
            out += a * np.sin(w * n)
        return out

    return _factor(values, draws=False)


# kind -> builder; a builder's keyword arguments are the factor's parameters,
# and it returns the factor from _factor; one that draws nothing gets rng=None
_FACTORS = {
    "iid_uniform": _iid_uniform_factor,
    "periodic": _periodic_factor,
    "sinusoid": _sinusoid_factor,
}


def make_factor(kind: str, **params):
    if kind not in _FACTORS:
        raise ParameterError(f"unknown modulation factor kind {kind!r}")
    return _FACTORS[kind](**params)


# --------------------------------------------------------------------------
# forcing generators
# --------------------------------------------------------------------------

def _philox(seed, paths=None):
    """The Philox stream ``seed`` starts, or the streams of its ``paths`` spawned
    children.  The one import of numpy.random: a run that draws nothing never loads it."""
    from numpy.random import Generator, Philox, SeedSequence

    if paths is None:
        return Generator(Philox(SeedSequence(seed)))
    return [Generator(Philox(child)) for child in SeedSequence(seed).spawn(paths)]


@dataclass(frozen=True)
class ForcingGenerator:
    """Seeded description of a forcing sequence on indices 1..horizon.

    Kinds: "iid" (``tail`` draws), "random_walk_drift" and
    "geometric_random_walk" (``drift`` plus centered ``noise`` increments),
    "deterministic" (the growth-catalogue ``entry``, from
    :func:`forcing_entry`), "modulated" (``entry`` times a bounded
    stationary ``factor``, from :func:`make_factor`).  Index 0 of the
    output is always the zero placeholder; the recursion never reads it.

    Every part is built, and so checked, before the generator is; tail
    models, entries and factors compare by the identity of their functions.
    A generator that ``draws`` loads the random-number machinery when it is
    built, and checks its seed there: a config that draws pays for that
    import while it is parsed, never in the middle of a run.
    """

    kind: str
    seed: int = 0
    tail: TailModel = None
    drift: float = 0.0
    noise: TailModel = None
    entry: CatalogueEntry = None
    factor: callable = None

    def __post_init__(self):
        if self.draws:
            _philox(self.seed, 0)

    @property
    def draws(self) -> bool:
        """Whether the forcing reads a stream; a factor that does not say is taken to."""
        if self.kind == "modulated":
            return getattr(self.factor, "draws", True)
        return self.kind == "iid" or self.noise is not None


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


def generate(gen: ForcingGenerator, horizon: int, log_domain: bool = False, rng=None):
    """Materialise the forcing on indices 0..horizon (index 0 set to 0).

    Identical (kind, parameters, seed, horizon) produce bitwise identical
    output; the draws come from a counter-based Philox stream, ``rng`` or
    else the one the generator's seed starts.  A forcing that draws nothing
    (not ``gen.draws``) opens no stream and leaves ``rng`` untouched.
    """
    horizon = _solve_horizon(horizon)
    if rng is None and gen.draws:
        rng = _philox(gen.seed)

    if gen.kind == "iid":
        if gen.tail is None:
            raise ParameterError("iid forcing needs a tail model")
        h = Trajectory(gen.tail.sample(rng, horizon), start=1)
    elif gen.kind in ("random_walk_drift", "geometric_random_walk"):
        steps = gen.noise.sample(rng, horizon) if gen.noise is not None else np.zeros(horizon)
        walk = gen.drift * np.arange(1, horizon + 1) + np.cumsum(steps)
        if gen.kind == "random_walk_drift":
            h = Trajectory(walk, start=1)
        else:
            h = LogTrajectory.from_log(walk, start=1)
    elif gen.kind in ("deterministic", "modulated"):
        if gen.entry is None:
            raise ParameterError(f"{gen.kind} forcing needs a catalogue entry")
        h = gen.entry.sequence(1, horizon, log_domain)
        if gen.kind == "modulated":
            if gen.factor is None:
                raise ParameterError("modulated forcing needs a factor")
            factor = gen.factor(np.arange(1, horizon + 1), rng)
            if log_domain:
                with np.errstate(divide="ignore"):
                    h = LogTrajectory(np.log(np.abs(factor)) + h.log_abs, np.sign(factor), start=1)
            else:
                h = Trajectory(factor * h.values, start=1)
    else:
        raise ParameterError(f"unknown forcing kind {gen.kind!r}")

    # h is checked where it was built; the placeholder keeps it valid
    h = _placeholder_forcing(h, log_domain)
    return LogTrajectory._from_valid(*h) if log_domain else Trajectory._from_valid(h)


# --------------------------------------------------------------------------
# Borel-Cantelli envelope accounting
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeReport:
    """Partial sums of sum_n P[|H(n)| > K a(n)] over a grid of K values.

    Verdicts follow a log-log regression of the summand over the last
    decade of indices: fitted decay exponent strictly below -1 reads
    convergent, at or above -1 divergent, an unusable fit undecided.
    ``bracket`` is (largest divergent K, smallest convergent K) when the
    former is the smaller, so that the grid brackets the transition, and
    None otherwise; ``crossing`` is its midpoint.
    """

    k_grid: np.ndarray
    partial_sums: np.ndarray
    verdicts: tuple
    slopes: tuple
    bracket: tuple
    start_index: int

    @property
    def crossing(self):
        if self.bracket is None:
            return None
        return 0.5 * (self.bracket[0] + self.bracket[1])


def _decay_regression(log_indices, summands):
    """Classify series convergence from the summand's log-log decay.

    ``log_indices`` are the logs of the summands' indices.  A summand of 0
    has no log, and is left out of the fit.
    """
    pos = summands > 0.0
    count = np.count_nonzero(pos)
    if count == 0:
        return "convergent", float("-inf")
    if count < 8:
        return "undecided", float("nan")
    if count < summands.size:
        log_indices, summands = log_indices[pos], summands[pos]
    slope = _ls_slope(log_indices, np.log(summands))
    return ("convergent" if slope < -1.0 else "divergent"), slope


def _ls_slope(x, y):
    """Least-squares slope of y on x in closed form: centred x.y over centred x.x.

    The slope of np.polyfit(x, y, 1), to rounding, at a twentieth of its
    cost.  y is centred in place.
    """
    xc = x - x.mean()
    y -= y.mean()
    return float(np.dot(xc, y) / np.dot(xc, xc))


def envelope_sums(tail: TailModel, a: Trajectory, k_grid) -> EnvelopeReport:
    """Exact partial sums S_N(a, K) of the exceedance series for each K, over all of a.

    Each K's summand is computed ``_CHUNK`` values at a time straight into
    its row of ``partial_sums``, which is then summed up in place; the
    output is bitwise that of whole-array passes.
    """
    a = a.to_plain()
    values = a.values
    if np.any(values <= 0.0) or np.any(values[1:] < values[:-1]):
        raise InputError("envelope scale must be positive and nondecreasing")
    k_grid = np.asarray(sorted(float(k) for k in k_grid))
    if k_grid.size == 0 or np.any(k_grid <= 0.0):
        raise InputError("K grid must contain positive values")
    sums = np.empty((k_grid.size, len(a)))
    verdicts = []
    slopes = []
    # the regression window: the last decade of indices, never index 0 (log 0)
    reg_lo = max(a.start, 1, a.end // 10)
    log_idx = np.log(np.arange(reg_lo, a.end + 1, dtype=np.float64))
    for k, row in zip(k_grid, sums):
        for lo in range(0, row.size, _CHUNK):
            row[lo : lo + _CHUNK] = tail.tail_probability(k * values[lo : lo + _CHUNK])
        verdict, slope = _decay_regression(log_idx, row[reg_lo - a.start :])
        verdicts.append(verdict)
        slopes.append(slope)
        np.cumsum(row, out=row)
    bracket = None
    divergent = [k for k, v in zip(k_grid, verdicts) if v == "divergent"]
    convergent = [k for k, v in zip(k_grid, verdicts) if v == "convergent"]
    if divergent and convergent and max(divergent) < min(convergent):
        bracket = (max(divergent), min(convergent))
    return EnvelopeReport(
        k_grid=k_grid,
        partial_sums=sums,
        verdicts=tuple(verdicts),
        slopes=tuple(slopes),
        bracket=bracket,
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
    """Power-decay fit of either tail: (alpha, sides), or None when the slope drifts."""
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
    return min(sides.values()), sides


def _ssv_certificate(tail: TailModel) -> bool:
    """Finite-sample super-slow-variation check at the exponent delta*."""
    xs = np.asarray(_SSV_PROBES, dtype=np.float64)
    base = np.asarray(tail.upper_quantile(1.0 / xs), dtype=np.float64)
    if np.any(~np.isfinite(base)) or np.any(base <= 0.0):
        return False
    scaled = xs * (np.log(xs) ** 2) ** _DELTA_STAR
    moved = np.asarray(tail.upper_quantile(1.0 / scaled), dtype=np.float64)
    return bool(np.max(np.abs(moved / base - 1.0)) < _SSV_TOLERANCE)


def classify_tail(tail: TailModel) -> TailClassification:
    """Sort a tail model into rapid (thin) or regularly varying (power).

    The rapid certificate is one quantile condition: the upper quantile
    moves by less than ``_SSV_TOLERANCE`` when its argument is rescaled by
    mu(x)**delta* at the probe points.  The regularly-varying branch fits a
    stable log-log tail slope -alpha and decides the side balance from the
    limit of G(x) / F(-x): infinite is case i, zero case ii, a finite
    positive constant case iii.  A tail that passes both tests, or neither,
    or has no settled balance, is "undecided".
    """
    rv = _rv_fit(tail)
    if _ssv_certificate(tail):
        return TailClassification("rapid" if rv is None else "undecided")
    if rv is not None:
        alpha, sides = rv
        xs = np.abs(np.asarray(tail.upper_quantile(np.array([1e-4, 1e-6]))))
        if "left" in sides:
            xs = np.maximum(xs, np.abs(np.asarray(tail.quantile(np.array([1e-4, 1e-6])))))
        with np.errstate(divide="ignore"):
            num = np.asarray(tail.sf(xs), dtype=np.float64)
            den = np.asarray(tail.cdf(-xs), dtype=np.float64)
        ratios = np.divide(num, den, out=np.full_like(num, np.inf), where=den > 0.0)
        if np.all(ratios > 100.0):
            return TailClassification("regularly-varying", alpha=alpha, case="i")
        if np.all(ratios < 0.01):
            return TailClassification("regularly-varying", alpha=alpha, case="ii")
        if ratios[0] > 0 and np.isfinite(ratios).all() and abs(ratios[1] / ratios[0] - 1.0) < 0.5:
            return TailClassification("regularly-varying", alpha=alpha, case="iii",
                                      ratio_limit=float(ratios[1]))
    return TailClassification("undecided")


# --------------------------------------------------------------------------
# ensembles
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleSpec:
    """One seeded system: kernel, forcing, optional scale, solve options.

    Specs compare by value but are unhashable: a scaling model holds arrays.
    """

    kernel: Kernel
    forcing: ForcingGenerator
    horizon: int
    xi: float = 1.0
    log_domain: bool = False
    scaling: ScalingModel = None

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
    """Named per-path statistic with its pre-registered acceptance band;
    specs compare and hash by value.  ``phi_average`` is the mean of x^2,
    with no functional to choose."""

    name: str
    band: tuple
    series: str = "solution"  # "solution" or "forcing"

    def __post_init__(self):
        if self.name not in STATISTICS:
            raise ParameterError(f"unknown statistic {self.name!r}")
        if self.series not in ("solution", "forcing"):
            raise ParameterError("statistic series must be 'solution' or 'forcing'")
        if len(self.band) != 2 or not self.band[0] <= self.band[1]:
            raise ParameterError("band must be (low, high) with low <= high")


@dataclass(frozen=True)
class EnsembleResult:
    """Sorted per-path statistics and the fraction inside the band.

    Failed paths are recorded as NaN at the end of ``per_path`` and count
    against the pass fraction: a path whose generation, solve or statistic
    fails, in either domain; for example a plain path that overflows, a log
    path past double range for a statistic read in plain doubles, or a
    ``phi_average`` whose mean is not finite.  A statistic of the forcing
    solves nothing, so no solve can fail it.
    """

    per_path: tuple
    pass_fraction: float
    failures: int
    median: float


def _log_log_exponent(series) -> float:
    """max log|x(n)| / log n over n from max(2, burn-in start), log 0 read
    as -745 as in :func:`abs_log_series`; a log path is compared in log|x|.

    Where the window's max |x| exceeds 1 the maximum is positive, and only
    a record index can hold it: the window's first index, or one whose |x|
    exceeds every earlier one.  A later 1 < |x(n)| <= |x(m)| has log|x(n)|
    / log n <= log|x(m)| / log m, rounded too, so the records give the
    whole pass's value bitwise.  Other windows run the whole pass.
    """
    win = series.window(max(2, burn_in_start(series.start, series.end)), series.end)
    plain = isinstance(win, Trajectory)
    mag = np.abs(win.values) if plain else win.log_abs
    top = np.maximum.accumulate(mag)
    if top[-1] > (1.0 if plain else 0.0):
        at = np.flatnonzero(mag[1:] > top[:-1])
        at += 1
        at = np.concatenate(([0], at))
        mag = mag[at]
    else:
        at = np.arange(mag.size)
    if plain:
        with np.errstate(divide="ignore"):
            mag = np.log(mag)
    return float(np.max(np.where(mag == -np.inf, -745.0, mag) / np.log(at + win.start)))


def _path_statistic(spec: StatisticSpec, series, system: EnsembleSpec) -> float:
    """The statistic of one path's solution or forcing, as ``spec.series`` names.

    Each reads only what it needs: ``log_growth_rate`` the last value,
    ``log_log_exponent`` the record indices of its window where they decide
    it (:func:`_log_log_exponent`).
    """
    if spec.name == "limsup_ratio":
        return estimate_limsup(series, system.scaling).value
    if spec.name == "log_growth_rate":
        last = abs_log_series(series.window(series.end, series.end))
        return float(last.values[0]) / series.end
    if spec.name == "log_log_exponent":
        return _log_log_exponent(series)
    if spec.name == "cesaro_limit":
        ratio = ratio_series(series, system.scaling.a)
        return float(time_average(ratio).values[-1])
    # phi_average
    if spec.series == "forcing":  # H(0) = 0 is a placeholder, not data
        series = series.window(1, series.end)
    with np.errstate(over="ignore"):
        mean = float(np.mean(np.square(series.to_plain().values)))
    if not math.isfinite(mean):  # x^2 can leave double range on values inside it
        raise TrajectoryOverflowError(series.end)
    return mean


# most doubles in the one array a plain-domain group of paths solves in
# place: plain paths run in groups of max(1, _GROUP_DOUBLES // (horizon + 1)),
# so a group's array takes at most 2 MB unless a single path is longer;
# log-domain paths run in groups of one
_GROUP_DOUBLES = 2**18

# the errors that fail a single path; any other error stops the ensemble
_PATH_ERRORS = (TrajectoryOverflowError, UndefinedRatioError, InputError)


def _path_group(system: EnsembleSpec, statistic: StatisticSpec, horizon: int, rngs) -> list:
    """The statistics of one group of paths, one per generator in ``rngs``.

    Each path's forcing is drawn by :func:`generate`.  A statistic of the
    forcing solves nothing.  For one of the solution, in the log domain the
    path is solved alone; in the plain domain it is copied into its row of
    one (P, horizon + 1) array, and all rows are solved in place in one
    call.  A path's entry is None if its generation, its solve or its
    statistic fails.
    """
    solve = statistic.series == "solution"
    rows = np.zeros((len(rngs), horizon + 1)) if solve and not system.log_domain else None
    series = [None] * len(rngs)
    for p, rng in enumerate(rngs):
        try:
            forcing = generate(system.forcing, horizon, system.log_domain, rng)
            if not solve:
                series[p] = forcing
            elif rows is None:
                series[p] = solve_linear(system.kernel, forcing, system.xi, horizon)
            else:
                rows[p] = forcing.values
                # a view the solve below fills in; a row it leaves non-finite
                # is dropped there, so the others need no second check
                series[p] = Trajectory._from_valid(rows[p])
        except _PATH_ERRORS:
            pass
        forcing = None  # a forcing the statistic does not read goes before the next draw
    if rows is not None:
        for p in np.flatnonzero(_blocked_linear(system.kernel, rows, float(system.xi)) >= 0):
            series[p] = None
    values = [None] * len(rngs)
    for p, path in enumerate(series):
        if path is not None:
            try:
                values[p] = float(_path_statistic(statistic, path, system))
            except _PATH_ERRORS:
                pass
    return values


def ensemble_verify(system: EnsembleSpec, paths: int, statistic: StatisticSpec) -> EnsembleResult:
    """Run seeded independent paths and score a statistic against a band.

    Path p draws from the stream spawned for (master seed, p), and a
    forcing that draws nothing opens none; aggregation is order
    independent and the per-path list is reported sorted.  The
    spec is checked once, before any path runs: a statistic that needs a
    missing scaling model, a horizon that is not an integer >= 1, a
    non-finite start and, in the plain domain, a deterministic or modulated
    forcing past double range each raise ``InputError``.  Every path is
    drawn, solved (for a statistic of the solution only) and scored by one
    loop, in groups: a plain-domain group is solved as the rows of one
    array, a log-domain path alone.  A failing path counts once, whichever
    step failed.  A path's statistic
    is bitwise reproducible for the same spec, seed and path count under
    the same BLAS and thread count; a plain path's solution is within the
    block engine's 1e-12 scaled gap of the same path solved alone.
    """
    if paths < 1:
        raise InputError("need at least one path")
    if statistic.name in ("limsup_ratio", "cesaro_limit") and system.scaling is None:
        raise InputError(f"{statistic.name} needs a scaling model")
    horizon = _solve_horizon(system.horizon, system.xi)
    if not system.log_domain and system.forcing.kind in ("deterministic", "modulated"):
        generate(system.forcing, horizon)
    rngs = _philox(system.forcing.seed, paths) if system.forcing.draws else [None] * paths
    group = 1 if system.log_domain else max(1, _GROUP_DOUBLES // (horizon + 1))
    values = []
    for lo in range(0, paths, group):
        values += _path_group(system, statistic, horizon, rngs[lo : lo + group])
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
        median=median(finite) if finite.size else float("nan"),
    )
