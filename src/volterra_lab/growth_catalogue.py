"""Catalogue of deterministic growth sequences, labelled H1 through H10.

Each entry supplies the sequence in log form (so factorial or iterated
exponential growth can be represented far past double overflow) together
with its consecutive-ratio limit: 1 for subgeometric growth, a fixed
lam in (0, 1) for geometric growth, 0 for supergeometric growth.

The iterated-logarithm entries are evaluated at shifted arguments
(log applied to n + offset) so every member is positive from index 1;
the shift changes nothing asymptotically.  An extra entry ``sqrt_log``
provides the classic extreme-value envelope sqrt(2 log n), defined from
index 2, and is deliberately unshifted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .exceptions import InputError, ParameterError
from .series import LogTrajectory, Trajectory

__all__ = ["CatalogueEntry", "catalogue_entry", "catalogue_names"]


@dataclass(frozen=True)
class CatalogueEntry:
    name: str
    alias: str
    log_fn: callable          # (np.ndarray of indices) -> log values
    ratio_limit: float        # lim value(n-1)/value(n)
    min_index: int
    monotone: bool
    params: dict
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


def _iterated_log(n, depth):
    if depth not in _ITERLOG_SHIFT:
        raise ParameterError(f"iterated-log depth must be in {sorted(_ITERLOG_SHIFT)}")
    v = np.asarray(n, dtype=np.float64) + _ITERLOG_SHIFT[depth]
    for _ in range(depth):
        v = np.log(v)
    return v


def _log_power_product(betas):
    betas = [float(b) for b in betas]
    if not betas or all(b == 0 for b in betas):
        raise ParameterError("log_power_product needs a nonzero exponent list")
    first_nonzero = next(b for b in betas if b != 0)
    if first_nonzero <= 0:
        raise ParameterError("leading nonzero exponent must be positive for growth")

    def log_fn(n):
        out = np.zeros(len(n))
        for depth, beta in enumerate(betas, start=1):
            if beta:
                out += beta * np.log(_iterated_log(n, depth))
        return out

    return log_fn


def _entry_log_power_product(betas=(1.0,), scale=1.0):
    log_fn = _log_power_product(betas)
    s = _check_scale(scale)
    return CatalogueEntry(
        "log_power_product", "H1",
        lambda n: log_fn(n) + math.log(s),
        ratio_limit=1.0, min_index=1,
        monotone=all(float(b) >= 0 for b in betas),
        params={"betas": list(betas), "scale": s},
    )


def _check_scale(scale):
    s = float(scale)
    if s <= 0 or not math.isfinite(s):
        raise ParameterError("scale must be positive and finite")
    return s


def _entry_power_log_product(theta=1.0, betas=(), scale=1.0):
    theta = float(theta)
    if theta <= 0:
        raise ParameterError("power exponent theta must be positive")
    s = _check_scale(scale)
    inner = _log_power_product(betas) if betas else None

    def log_fn(n):
        out = theta * np.log(np.asarray(n, dtype=np.float64)) + math.log(s)
        if inner is not None:
            out = out + inner(n)
        return out

    return CatalogueEntry(
        "power_log_product", "H2", log_fn, ratio_limit=1.0, min_index=1,
        monotone=not betas, params={"theta": theta, "betas": list(betas), "scale": s},
    )


def _entry_power(theta=1.0, scale=1.0):
    theta = float(theta)
    if theta <= 0:
        raise ParameterError("power exponent theta must be positive")
    s = _check_scale(scale)
    return CatalogueEntry(
        "power", "H3",
        lambda n: theta * np.log(np.asarray(n, dtype=np.float64)) + math.log(s),
        ratio_limit=1.0, min_index=1, monotone=True,
        params={"theta": theta, "scale": s},
        plain_fn=lambda n: s * n ** theta,
    )


def _stretched_log(alpha, theta):
    alpha = float(alpha)
    theta = float(theta)
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    return alpha, theta, lambda n: alpha * np.asarray(n, dtype=np.float64) ** theta


def _entry_stretched_exponential(alpha=1.0, theta=0.5):
    alpha, theta, log_fn = _stretched_log(alpha, theta)
    if not 0 < theta < 1:
        raise ParameterError("stretched exponent theta must lie in (0, 1)")
    return CatalogueEntry(
        "stretched_exponential", "H4", log_fn, ratio_limit=1.0, min_index=0,
        monotone=True, params={"alpha": alpha, "theta": theta},
    )


def _entry_stretched_exponential_power(alpha=1.0, theta2=0.5, theta1=1.0, betas=()):
    alpha, theta2, stretched = _stretched_log(alpha, theta2)
    if not 0 < theta2 < 1:
        raise ParameterError("stretched exponent theta2 must lie in (0, 1)")
    theta1 = float(theta1)
    inner = _log_power_product(betas) if betas else None

    def log_fn(n):
        nn = np.asarray(n, dtype=np.float64)
        out = stretched(nn) + theta1 * np.log(nn)
        if inner is not None:
            out = out + inner(n)
        return out

    return CatalogueEntry(
        "stretched_exponential_power", "H5", log_fn, ratio_limit=1.0, min_index=1,
        monotone=False,
        params={"alpha": alpha, "theta2": theta2, "theta1": theta1, "betas": list(betas)},
    )


def _check_lam(lam):
    lam = float(lam)
    if not 0 < lam < 1:
        raise ParameterError("geometric ratio lam must lie in (0, 1)")
    return lam


def _entry_geometric(lam=0.5, scale=1.0):
    lam = _check_lam(lam)
    s = _check_scale(scale)
    return CatalogueEntry(
        "geometric", "H6",
        lambda n: -np.asarray(n, dtype=np.float64) * math.log(lam) + math.log(s),
        ratio_limit=lam, min_index=0, monotone=(lam < 1 and s > 0),
        params={"lam": lam, "scale": s},
        plain_fn=lambda n: s * (1.0 / lam) ** n,
    )


def _entry_geometric_mixture(lam=0.5, alpha=1.0, theta2=0.5, theta1=1.0):
    lam = _check_lam(lam)
    alpha, theta2, stretched = _stretched_log(alpha, theta2)
    if not 0 < theta2 < 1:
        raise ParameterError("stretched exponent theta2 must lie in (0, 1)")
    theta1 = float(theta1)

    def log_fn(n):
        nn = np.asarray(n, dtype=np.float64)
        return -nn * math.log(lam) + stretched(nn) + theta1 * np.log(nn)

    return CatalogueEntry(
        "geometric_mixture", "H7", log_fn, ratio_limit=lam, min_index=1,
        monotone=False,
        params={"lam": lam, "alpha": alpha, "theta2": theta2, "theta1": theta1},
    )


def _entry_super_exponential(alpha=1.0, theta=2.0):
    alpha, theta, log_fn = _stretched_log(alpha, theta)
    if theta <= 1:
        raise ParameterError("super-exponential exponent theta must exceed 1")
    return CatalogueEntry(
        "super_exponential", "H8", log_fn, ratio_limit=0.0, min_index=0,
        monotone=True, params={"alpha": alpha, "theta": theta},
    )


def _entry_factorial():
    return CatalogueEntry(
        "factorial", "H9",
        lambda n: gammaln(np.asarray(n, dtype=np.float64) + 1.0),
        ratio_limit=0.0, min_index=0, monotone=True, params={},
    )


def _entry_iterated_exponential(depth=2):
    depth = int(depth)
    if depth < 2:
        raise ParameterError("iterated-exponential depth must be at least 2")

    def log_fn(n):
        v = np.asarray(n, dtype=np.float64)
        for _ in range(depth - 1):
            v = np.exp(v)
        return v

    return CatalogueEntry(
        "iterated_exponential", "H10", log_fn, ratio_limit=0.0, min_index=0,
        monotone=True, params={"depth": depth},
    )


def _entry_sqrt_log():
    # exact sqrt(2 log n); positive and increasing from n = 2
    def log_fn(n):
        return 0.5 * np.log(2.0 * np.log(np.asarray(n, dtype=np.float64)))

    return CatalogueEntry(
        "sqrt_log", "BC", log_fn, ratio_limit=1.0, min_index=2, monotone=True,
        params={},
    )


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
