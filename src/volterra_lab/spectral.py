"""Resolvent summability via characteristic roots, and the limit constants.

For a kernel with M stored entries the characteristic condition reduces to
the polynomial

    p(z) = z^M - sum_{l=0}^{M-1} k(l) z^{M-1-l},

whose roots must all lie strictly inside the unit disc for the resolvent
to be summable.  The module also computes kappa(lam) = sum k(l) lam^(l+1)
and the multiplier L(lam) = 1 / (1 - kappa(lam)), which equals the
geometric-weighted resolvent sum, sum r(j) lam^j, for summable kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Kernel
from .exceptions import InputError, SingularMultiplierError, SpectralError

__all__ = [
    "SpectralReport",
    "characteristic_roots",
    "kappa",
    "multiplier_L",
    "ROOT_TOLERANCE",
]

# open-unit-disc test width; the dichotomy is sharp, floating point is not,
# so roots within [1 - tol, 1 + tol] of the circle yield verdict "marginal"
ROOT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SpectralReport:
    """Roots of the truncated characteristic polynomial and the verdict.

    ``summable`` is True exactly when every root modulus is below
    1 - ROOT_TOLERANCE; ``verdict`` refines the boolean with "marginal"
    for roots within ROOT_TOLERANCE of the unit circle.  ``tail_caveat``
    carries the kernel's discarded-tail bound: the verdict is exact only
    when it is zero.
    """

    roots: np.ndarray
    max_modulus: float
    summable: bool
    verdict: str
    tail_caveat: float = 0.0


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
    """All M roots of the truncated characteristic polynomial.

    Root finding goes through companion-matrix eigenvalues followed by
    Newton polishing.  An empty kernel is trivially summable.
    """
    m = kernel.size
    if m == 0:
        return SpectralReport(
            roots=np.zeros(0, dtype=np.complex128),
            max_modulus=0.0,
            summable=True,
            verdict="summable",
            tail_caveat=kernel.tail_bound,
        )
    coeffs = np.concatenate(([1.0], -kernel.coefficients))
    roots = np.roots(coeffs)
    roots = _polish_roots(coeffs, roots)
    max_mod = float(np.max(np.abs(roots))) if roots.size else 0.0
    if max_mod < 1.0 - ROOT_TOLERANCE:
        verdict = "summable"
    elif max_mod <= 1.0 + ROOT_TOLERANCE:
        verdict = "marginal"
    else:
        verdict = "nonsummable"
    return SpectralReport(
        roots=roots,
        max_modulus=max_mod,
        summable=(verdict == "summable"),
        verdict=verdict,
        tail_caveat=kernel.tail_bound,
    )


def kappa(kernel: Kernel, lam: float) -> float:
    """Weighted kernel sum kappa(lam) = sum_{l<M} k(l) lam^(l+1)."""
    lam = float(lam)
    powers = lam ** (np.arange(kernel.size) + 1)
    return float(np.dot(kernel.coefficients, powers))


def multiplier_L(kernel: Kernel, lam: float) -> float:
    """The growth multiplier L(lam) = 1 / (1 - kappa(lam)) for lam in [0, 1].

    For a summable kernel the denominator is bounded away from zero; a
    near-zero denominator therefore signals an inconsistent input and
    raises.  The formula is evaluated for any kernel and never solves for
    roots: callers that state a limit with this constant check
    summability themselves (``characteristic_roots``), once per verdict.
    """
    if not 0.0 <= lam <= 1.0:
        raise InputError(f"lambda must lie in [0, 1], got {lam!r}")
    denom = 1.0 - kappa(kernel, lam)
    if abs(denom) <= 1e-12:
        raise SingularMultiplierError(
            f"1 - kappa(lambda) = {denom!r} at lambda = {lam!r}"
        )
    return 1.0 / denom
