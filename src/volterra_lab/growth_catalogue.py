"""Catalogue of deterministic growth sequences, labelled H1 through H10.

Each entry supplies the sequence in log form (so factorial or iterated
exponential growth can be represented far past double overflow) together
with its consecutive-ratio limit: 1 for subgeometric growth, a fixed
lam in (0, 1) for geometric growth, 0 for supergeometric growth.  H1-H8
are terms of one product, built by ``_product``, which derives both facts.

The iterated logarithms are evaluated at shifted arguments (log applied
to n + offset) so every member is positive from index 1; the shift
changes nothing asymptotically.  An extra entry ``sqrt_log`` provides the
classic extreme-value envelope sqrt(2 log n), from index 2, unshifted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InputError, ParameterError
from .series import LogTrajectory, Trajectory

__all__ = ["CatalogueEntry", "catalogue_entry", "catalogue_names"]


@dataclass(frozen=True)
class CatalogueEntry:
    name: str
    log_fn: callable          # (np.ndarray of indices) -> log values
    ratio_limit: float        # lim value(n-1)/value(n)
    min_index: int
    plain_fn: callable = None  # exact plain values where exp(log) loses bits

    def sequence(self, lo, hi, log_domain):
        """The entry on indices lo..hi, as a LogTrajectory when ``log_domain``.

        The plain form is refused past double range by
        ``LogTrajectory.to_plain``; within it, it takes the exact
        ``plain_fn`` values wherever those are finite.
        """
        n = np.arange(lo, hi + 1, dtype=np.float64)
        # H10's log form overflows past n = 709 and is refused below; an
        # exact form overflows when a small scale meets lam**-n past DBL_MAX,
        # and exp(log) stands in there: numpy's warning would add nothing
        with np.errstate(over="ignore"):
            logs = self.log_fn(n)
            if not np.all(np.isfinite(logs)):
                raise InputError(f"catalogue entry {self.name!r} overflowed in log space")
            seq = LogTrajectory.from_log(logs, start=lo)
            if log_domain:
                return seq
            plain = seq.to_plain()
            if self.plain_fn is None:
                return plain
            exact = self.plain_fn(n)
        return Trajectory(np.where(np.isfinite(exact), exact, plain.values), start=lo)


# depth-dependent shifts keeping every iterated log positive from n = 1
_ITERLOG_SHIFT = {1: 1, 2: 2, 3: 16}


def _product(name, lam=None, alpha=None, theta=None, power=None, scale=None, betas=None,
             plain_fn=None):
    """The entry log a(n) = -n log lam + alpha n**theta + power log n + log scale
    + sum_d betas[d-1] log L_d(n), with L_d the depth-d iterated log.

    Only the terms given are summed, left to right in that order, which fixes
    the rounding.  The ratio limit follows from them: 0 when theta > 1, else
    lam, else 1; a power or log term starts the entry at index 1.
    """
    terms = []
    if lam is not None:
        terms.append(lambda n: -n * math.log(lam))
    if alpha is not None:
        terms.append(lambda n: alpha * n ** theta)
    if power is not None:
        terms.append(lambda n: power * np.log(n))
    if scale is not None:
        scale = float(scale)
        if scale <= 0 or not math.isfinite(scale):
            raise ParameterError("scale must be positive and finite")
        terms.append(lambda n: math.log(scale))
    if betas is not None:
        betas = [float(b) for b in betas]
        if not any(betas):
            raise ParameterError("log_power_product needs a nonzero exponent list")
        if len(betas) > len(_ITERLOG_SHIFT):
            raise ParameterError(f"log_power_product takes at most {len(_ITERLOG_SHIFT)} exponents, "
                                 f"one per iterated-log depth, got {len(betas)}")
        if next(b for b in betas if b) < 0:
            raise ParameterError("leading nonzero exponent must be positive for growth")

        def log_sum(n):
            out = np.zeros(n.shape)
            for depth, beta in enumerate(betas, start=1):
                if beta:
                    v = n + _ITERLOG_SHIFT[depth]
                    for _ in range(depth):
                        v = np.log(v)
                    out += beta * np.log(v)
            return out

        terms.append(log_sum)

    def log_fn(n):
        n = np.asarray(n, dtype=np.float64)
        # sum's start 0 changes no bit: no first term can be -0.0
        return sum(term(n) for term in terms)

    ratio_limit = 0.0 if theta is not None and theta > 1 else 1.0 if lam is None else lam
    min_index = 1 if power is not None or betas is not None else 0
    return CatalogueEntry(name, log_fn, ratio_limit, min_index, plain_fn)


def _entry_log_power_product(betas=(1.0,), scale=1.0):
    return _product("log_power_product", scale=scale, betas=betas)


def _entry_power_log_product(theta=1.0, betas=(), scale=1.0):
    theta = float(theta)
    if theta <= 0:
        raise ParameterError("power exponent theta must be positive")
    return _product("power_log_product", power=theta, scale=scale, betas=betas or None)


def _entry_power(theta=1.0, scale=1.0):
    theta = float(theta)
    if theta <= 0:
        raise ParameterError("power exponent theta must be positive")
    s = float(scale)
    return _product("power", power=theta, scale=s, plain_fn=lambda n: s * n ** theta)


def _entry_stretched_exponential(alpha=1.0, theta=0.5):
    alpha, theta = float(alpha), float(theta)
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    if not 0 < theta < 1:
        raise ParameterError("stretched exponent theta must lie in (0, 1)")
    return _product("stretched_exponential", alpha=alpha, theta=theta)


def _entry_stretched_exponential_power(alpha=1.0, theta2=0.5, theta1=1.0, betas=()):
    alpha, theta2 = float(alpha), float(theta2)
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    if not 0 < theta2 < 1:
        raise ParameterError("stretched exponent theta2 must lie in (0, 1)")
    return _product("stretched_exponential_power", alpha=alpha, theta=theta2, power=float(theta1),
                    betas=betas or None)


def _entry_geometric(lam=0.5, scale=1.0):
    lam = float(lam)
    if not 0 < lam < 1:
        raise ParameterError("geometric ratio lam must lie in (0, 1)")
    s = float(scale)
    return _product("geometric", lam=lam, scale=s, plain_fn=lambda n: s * (1.0 / lam) ** n)


def _entry_geometric_mixture(lam=0.5, alpha=1.0, theta2=0.5, theta1=1.0):
    lam = float(lam)
    if not 0 < lam < 1:
        raise ParameterError("geometric ratio lam must lie in (0, 1)")
    alpha, theta2 = float(alpha), float(theta2)
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    if not 0 < theta2 < 1:
        raise ParameterError("stretched exponent theta2 must lie in (0, 1)")
    return _product("geometric_mixture", lam=lam, alpha=alpha, theta=theta2, power=float(theta1))


def _entry_super_exponential(alpha=1.0, theta=2.0):
    alpha, theta = float(alpha), float(theta)
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    if theta <= 1:
        raise ParameterError("super-exponential exponent theta must exceed 1")
    return _product("super_exponential", alpha=alpha, theta=theta)


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_factorial(n):
    """log(n!) = lgamma(n + 1) for an array of n >= 0.

    From x = n + 1 >= 16 the Stirling series up to its x**-9 term, whose
    first omitted term is below 1.1e-16 absolute there; below that
    ``math.lgamma`` per element.  Within 1e-15 relative of
    ``scipy.special.gammaln`` for n <= 1e6.
    """
    x = np.array(n, dtype=np.float64)
    x += 1.0
    small = x < 16.0
    big = x[~small]
    # ((((p / 1188 - 1/1680) p + 1/1260) p - 1/360) p + 1/12) / big with
    # p = 1 / big^2, then (big - 0.5) log(big) - big + log(2 pi)/2 + series,
    # in place and in that order of operations
    p = np.multiply(big, big)
    np.divide(1.0, p, out=p)
    series = p / 1188.0
    for c in (-1.0 / 1680.0, 1.0 / 1260.0, -1.0 / 360.0):
        series += c
        series *= p
    series += 1.0 / 12.0
    series /= big
    lead = np.log(big)
    lead *= big - 0.5
    lead -= big
    lead += _HALF_LOG_2PI
    lead += series
    x[small] = [math.lgamma(v) for v in x[small]]
    x[~small] = lead
    return x


def _entry_factorial():
    return CatalogueEntry("factorial", _log_factorial, ratio_limit=0.0, min_index=0)


def _entry_iterated_exponential(depth=2):
    if depth % 1 != 0:
        raise ParameterError(f"iterated-exponential depth must be an integer, got {depth!r}")
    depth = int(depth)
    if depth < 2:
        raise ParameterError("iterated-exponential depth must be at least 2")

    def log_fn(n):
        # exp(inf) = inf: once every value is inf, further passes change nothing
        v = np.asarray(n, dtype=np.float64)
        for _ in range(depth - 1):
            if np.all(v == np.inf):
                break
            v = np.exp(v)
        return v

    return CatalogueEntry("iterated_exponential", log_fn, ratio_limit=0.0, min_index=0)


def _entry_sqrt_log():
    # exact sqrt(2 log n); positive and increasing from n = 2
    def log_fn(n):
        return 0.5 * np.log(2.0 * np.log(np.asarray(n, dtype=np.float64)))

    return CatalogueEntry("sqrt_log", log_fn, ratio_limit=1.0, min_index=2)


_BUILDERS = {
    "log_power_product": _entry_log_power_product,
    "power_log_product": _entry_power_log_product,
    "power": _entry_power,
    "stretched_exponential": _entry_stretched_exponential,
    "stretched_exponential_power": _entry_stretched_exponential_power,
    "geometric": _entry_geometric,
    "geometric_mixture": _entry_geometric_mixture,
    "super_exponential": _entry_super_exponential,
    "factorial": _entry_factorial,
    "iterated_exponential": _entry_iterated_exponential,
    "sqrt_log": _entry_sqrt_log,
}

_ALIASES = {
    "H1": "log_power_product",
    "H2": "power_log_product",
    "H3": "power",
    "H4": "stretched_exponential",
    "H5": "stretched_exponential_power",
    "H6": "geometric",
    "H7": "geometric_mixture",
    "H8": "super_exponential",
    "H9": "factorial",
    "H10": "iterated_exponential",
}

def catalogue_names():
    return [(name, alias) for alias, name in sorted(_ALIASES.items(), key=lambda kv: int(kv[0][1:]))] + [
        ("sqrt_log", "extreme-value envelope")
    ]


def catalogue_entry(name: str, **params) -> CatalogueEntry:
    key = _ALIASES.get(name, name)
    if key not in _BUILDERS:
        raise ParameterError(f"unknown growth catalogue entry {name!r}")
    return _BUILDERS[key](**params)
