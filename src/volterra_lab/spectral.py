"""The kernel symbol, resolvent summability and the growth multiplier.

For a kernel with M stored entries k(0), ..., k(M-1) the kernel symbol is

    g(z) = 1 - sum_{l<M} k(l) z^(l+1),

and every spectral quantity here is read from it.  The characteristic
polynomial is p(w) = w^M g(1/w) = w^M - sum_l k(l) w^(M-1-l); the resolvent
is summable when all of its roots lie strictly inside the unit disc, and the
at-scale resolvent r(j) lam^j when they lie inside the disc of radius 1/lam.
Inside the disc of convergence 1/g(z) = sum_j r(j) z^j, so the growth
multiplier is L(lam) = 1/g(lam), the geometric-weighted resolvent sum, when
r(j) lam^j is summable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import Kernel
from .exceptions import InputError, SingularMultiplierError

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


def _verdict(rho: float) -> str:
    """The summability verdict for a largest root modulus ``rho``."""
    if rho < 1.0 - ROOT_TOLERANCE:
        return "summable"
    if rho <= 1.0 + ROOT_TOLERANCE:
        return "marginal"
    return "nonsummable"


def characteristic_roots(kernel: Kernel) -> SpectralReport:
    """All M roots of p(w) = w^M g(1/w), as complex128; none for the empty
    kernel.

    The roots are the eigenvalues of the companion matrix (``np.roots``),
    which are backward stable; the verdict reads them only against
    1 +/- ROOT_TOLERANCE.
    """
    roots = np.roots(_symbol_coefficients(kernel)).astype(np.complex128)
    max_mod = float(np.max(np.abs(roots))) if roots.size else 0.0
    return SpectralReport(roots=roots, max_modulus=max_mod, verdict=_verdict(max_mod))


def _summability_caveat(kernel: Kernel, lam: float) -> bool:
    """Whether the at-scale resolvent r(j) lam^j is summable: g has no zero
    in |z| <= lam, so rho_lam = lam * max |w| over the roots of
    ``characteristic_roots`` reads "summable"; lam = 0 always does.  If not,
    the one warning that a limit stated with L(lam) may not exist."""
    verdict = _verdict(lam * characteristic_roots(kernel).max_modulus)
    if verdict != "summable":
        logger.warning("kernel resolvent verdict at lambda = %.6g is %s; the limit "
                       "stated with L(lambda) may not exist", lam, verdict)
    return verdict == "summable"


def multiplier_L(kernel: Kernel, lam: float) -> float:
    """The growth multiplier L(lam) = 1/g(lam) for lam in [0, 1].

    For a summable kernel g is bounded away from zero on [0, 1]; a
    vanishing g(lam) therefore signals an inconsistent input and raises.
    The formula is evaluated for any kernel and never solves for roots:
    callers that state a limit with this constant take summability at lam,
    and its warning, from ``_summability_caveat``, once per verdict.
    """
    if not 0.0 <= lam <= 1.0:
        raise InputError(f"lambda must lie in [0, 1], got {lam!r}")
    g = float(symbol(kernel, lam))
    inverse = _inverse_symbol(g)
    if inverse is None:
        raise SingularMultiplierError(f"g(lambda) = {g!r} at lambda = {lam!r}")
    return inverse
