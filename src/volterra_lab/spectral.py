"""The kernel symbol, resolvent summability and the growth multiplier.

For a kernel with M stored entries k(0), ..., k(M-1) the kernel symbol is

    g(z) = 1 - sum_{l<M} k(l) z^(l+1),

and every spectral quantity here is read from it.  The characteristic
polynomial is p(w) = w^M g(1/w) = w^M - sum_l k(l) w^(M-1-l); the resolvent
is summable when all of its roots lie strictly inside the unit disc.  Inside
the disc of convergence 1/g(z) = sum_j r(j) z^j, so the growth multiplier is
L(lam) = 1/g(lam), the geometric-weighted resolvent sum, for summable
kernels.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import Kernel
from .exceptions import InputError, SingularMultiplierError, SpectralError

logger = logging.getLogger(__name__)

__all__ = [
    "SpectralReport",
    "characteristic_roots",
    "multiplier_L",
    "symbol",
    "ROOT_TOLERANCE",
]

# open-unit-disc test width; the dichotomy is sharp, floating point is not,
# so roots within [1 - tol, 1 + tol] of the circle yield verdict "marginal"
ROOT_TOLERANCE = 1e-9
# |g(lam)| at or below this leaves the multiplier 1/g(lam) undefined
_SINGULAR_SYMBOL = 1e-12


def _symbol_coefficients(kernel: Kernel) -> np.ndarray:
    """[1, -k(0), ..., -k(M-1)]: g's coefficients by ascending power of z,
    and p's by descending power of w."""
    return np.concatenate(([1.0], -kernel.coefficients))


def symbol(kernel: Kernel, z):
    """The kernel symbol g(z) = 1 - sum_l k(l) z^(l+1), by Horner's rule, at
    real or complex z, a scalar or an array."""
    return np.polyval(_symbol_coefficients(kernel)[::-1], z)


def _inverse_symbol(g: float):
    """1/g, or None where |g| <= _SINGULAR_SYMBOL."""
    return None if abs(g) <= _SINGULAR_SYMBOL else 1.0 / g


@dataclass(frozen=True)
class SpectralReport:
    """Roots of the truncated characteristic polynomial and the verdict.

    ``verdict`` is "summable" when every root modulus is below
    1 - ROOT_TOLERANCE, "marginal" when the largest lies within
    ROOT_TOLERANCE of the unit circle and "nonsummable" beyond.  The
    verdict is exact only when the kernel's ``tail_bound`` is zero.
    """

    roots: np.ndarray
    max_modulus: float
    verdict: str

    @property
    def summable(self) -> bool:
        return self.verdict == "summable"


def _polish_roots(coeffs, roots):
    """Newton-polish companion-matrix roots to small scaled residual.

    All roots are polished at once, as arrays, and each root goes through
    exactly the steps of a per-root Newton loop: up to 4 attempts from the
    root and three slightly perturbed starts, up to 12 iterations each,
    stopping when the residual |p(z)| is at most 1e-12 * ||p|| max(1, |z|)^M
    or p'(z) = 0, and accepting the first attempt whose end point passes that
    residual test.  The result is bitwise that of the per-root loop.  Raises
    SpectralError naming the first root, in input order, that no attempt
    accepts.
    """
    deriv = np.polyder(coeffs)
    norm = float(np.linalg.norm(np.nan_to_num(coeffs)))
    m = len(coeffs) - 1

    def small(pv, z):
        # abs(pv) <= 1e-12 * norm * max(1, abs(z)) ** m, with numpy's scalar
        # abs (hypot) and scalar **: the array np.abs of complex128 and the
        # array ** differ from them in the last bits
        scale = [norm * max(1.0, a) ** m for a in np.hypot(z.real, z.imag)]
        return np.hypot(pv.real, pv.imag) <= np.multiply(1e-12, scale)

    start = np.array(roots, dtype=np.complex128)
    polished = start.copy()
    pending = np.arange(len(start))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for attempt in range(4):
            if not pending.size:
                break
            z = start[pending]
            if attempt:
                z = z * (1.0 + 1e-8 * attempt) + 1e-12 * attempt
            live = np.arange(len(z))
            for _ in range(12):
                zl = z[live]
                pv = np.polyval(coeffs, zl)
                going = ~small(pv, zl)
                live, zl, pv = live[going], zl[going], pv[going]
                dv = np.polyval(deriv, zl)
                going = dv != 0
                live = live[going]
                if not live.size:
                    break
                z[live] = zl[going] - pv[going] / dv[going]
            done = small(np.polyval(coeffs, z), z)
            polished[pending[done]] = z[done]
            pending = pending[~done]
    if pending.size:
        raise SpectralError(
            f"root polishing failed to converge near z = {start[pending[0]]!r}"
        )
    return polished


def characteristic_roots(kernel: Kernel) -> SpectralReport:
    """All M roots of p(w) = w^M g(1/w); none for the empty kernel.

    Root finding goes through companion-matrix eigenvalues followed by
    Newton polishing.
    """
    coeffs = _symbol_coefficients(kernel)
    roots = _polish_roots(coeffs, np.roots(coeffs))
    max_mod = float(np.max(np.abs(roots))) if roots.size else 0.0
    if max_mod < 1.0 - ROOT_TOLERANCE:
        verdict = "summable"
    elif max_mod <= 1.0 + ROOT_TOLERANCE:
        verdict = "marginal"
    else:
        verdict = "nonsummable"
    return SpectralReport(roots=roots, max_modulus=max_mod, verdict=verdict)


def _summability_caveat(kernel: Kernel) -> bool:
    """Whether the kernel's resolvent is summable, by ``characteristic_roots``;
    if not, the one warning that a limit stated with L(lam) may not exist."""
    report = characteristic_roots(kernel)
    if not report.summable:
        logger.warning("kernel resolvent verdict is %s; the limit stated with "
                       "L(lambda) may not exist", report.verdict)
    return report.summable


def multiplier_L(kernel: Kernel, lam: float) -> float:
    """The growth multiplier L(lam) = 1/g(lam) for lam in [0, 1].

    For a summable kernel g is bounded away from zero on [0, 1]; a
    vanishing g(lam) therefore signals an inconsistent input and raises.
    The formula is evaluated for any kernel and never solves for roots:
    callers that state a limit with this constant take summability, and
    its warning, from ``_summability_caveat``, once per verdict.
    """
    if not 0.0 <= lam <= 1.0:
        raise InputError(f"lambda must lie in [0, 1], got {lam!r}")
    g = float(symbol(kernel, lam))
    inverse = _inverse_symbol(g)
    if inverse is None:
        raise SingularMultiplierError(f"g(lambda) = {g!r} at lambda = {lam!r}")
    return inverse
