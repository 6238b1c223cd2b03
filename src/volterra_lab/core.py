"""Exact finite-horizon solvers for the forced convolution recursion.

The linear equation advances as

    x(n+1) = sum_{j=0}^{n} k(n-j) x(j) + H(n+1),    x(0) = xi,

with a finitely supported kernel k.  This module provides the forward
recursion, the unforced (resolvent) solution r with r(0) = 1, the
closed-form solution through the resolvent x(n) = r(n) xi + sum r(n-j)H(j),
the inverse map recovering H from a solution, and the nonlinear variant
with f applied inside the convolution.

Two evaluation domains are supported.  The default is plain doubles with a
hard failure on the first non-finite value.  When ``log_domain=True`` the
solution is carried as (sign, log|x|) pairs so that genuinely growing
solutions (for example geometric or factorial forcing) can be followed far
past double-precision overflow.  Signed log-space sums suffer catastrophic
cancellation when terms of opposite sign nearly cancel, so the log domain
is intended for the sign-coherent growth regimes it exists for; the
per-step log recursion logs one warning per solve, with the index and the
digits lost, where sum|terms| / |sum| first exceeds 1e8.

Which engine runs where (B = max(256, M) for a kernel of length M):

* ``solve_linear`` in plain doubles runs the blocked engine: the first
  block of B indices by the per-term reference recursion, every later
  block as the short Toeplitz solve x = r[:B] * (H + history) with direct
  convolutions, O(horizon * B) in all.
* ``solve_linear`` in the log domain runs the block-scaled engine: the
  first block by the per-step log recursion, every later block [t, t+L)
  as the same Toeplitz step on plain doubles times exp(ref), ref the
  largest log|.| among its forcing and the M values before it.  L <= B is
  chosen from the forcing's log-range so that nothing overflows (about 60
  steps for factorial forcing near n = 2e4, all of B for geometric).  A
  block runs per step when its nonzero forcing and history signs differ,
  when L would be 1, or when a scaled |x| falls below a floor where
  underflowed inputs could show; a kernel with a negative coefficient, or
  an r[:B] that overflows, runs per step throughout.  Only same-signed
  sums are ever scaled, so no cancellation is hidden.
* ``resolvent`` and ``solve_by_representation`` run the per-term reference
  recursion, O(horizon * min(horizon, M)); ``solve_by_representation``
  adds the only O(horizon^2) step, the direct convolution of the
  resolvent with the forcing.

Accuracy contract of the plain blocked engine: for horizon < B its output
is bitwise equal to the reference recursion; beyond that, its scaled gap to
the reference, max |x - x_ref| / max(|x_ref|, 1), is at most 1e-12 on
summable, marginal (sum k = 1) and growing kernels at horizons up to a
few thousand, and about 1e-15 on summable kernels at any horizon.  On
marginal kernels both engines drift from exact arithmetic by rounding
that grows with the horizon, by about 1e-12 at 2e5 steps each against
extended precision.  On the growing kernels tested, both engines raise on
the same first non-finite index.

Accuracy contract of the log engine: bitwise equal to the per-step log
recursion below B and on every block that runs per step (so on all of a
solve with a signed kernel or sign-incoherent forcing).  On scaled blocks
the signs equal the per-step recursion's, and log|x| is within 1e-12 +
1e-15 |log|x|| of the exact value, the second term being the rounding of
log|x| itself as one double.  The same bound holds against the per-step
recursion on the growth catalogue and the growth, ergodic and random-walk
configurations tested; with decaying forcing the per-step recursion itself
drifts further from the exact value than that, and the scaled blocks stay
the closer of the two.  Repeated calls of either engine are bitwise
identical.

The forward recursion and the resolvent representation stay
algorithmically independent on purpose; their agreement is a mandatory
cross-check, not an assumption.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    InputError,
    NonlinearityError,
    ParameterError,
    TrajectoryOverflowError,
)
from .series import LogTrajectory, Trajectory

logger = logging.getLogger(__name__)

__all__ = [
    "Kernel",
    "Nonlinearity",
    "NONLINEARITY_CATALOGUE",
    "make_nonlinearity",
    "solve_linear",
    "resolvent",
    "solve_by_representation",
    "recover_forcing",
    "solve_nonlinear",
]


# --------------------------------------------------------------------------
# kernel
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Kernel:
    """Truncated summable convolution weights k(0..M-1); zero beyond M-1.

    ``tail_bound`` is an analytic bound on the discarded tail mass for
    kernels that truncate an infinite sequence; it is 0 (exact) for kernels
    defined with finite support.
    """

    coefficients: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        object.__setattr__(self, "coefficients", coeffs)
        if coeffs.ndim != 1:
            raise InputError("kernel coefficients must be one-dimensional")
        if coeffs.size and not np.all(np.isfinite(coeffs)):
            raise InputError("kernel coefficients must be finite")
        if self.tail_bound < 0 or not np.isfinite(self.tail_bound):
            raise InputError("tail bound must be finite and nonnegative")

    @property
    def size(self) -> int:
        return len(self.coefficients)

    @property
    def l1_norm(self) -> float:
        return float(np.sum(np.abs(self.coefficients)))

    @classmethod
    def zero(cls) -> "Kernel":
        return cls(np.zeros(0))

    @classmethod
    def geometric(cls, c: float, ratio: float, size: int) -> "Kernel":
        """k(l) = c * ratio**l for l < size."""
        if size < 0:
            raise ParameterError("kernel size must be nonnegative")
        if not 0 < abs(ratio) < 1:
            raise ParameterError("geometric ratio must satisfy 0 < |ratio| < 1")
        coeffs = c * ratio ** np.arange(size)
        tail = abs(c) * abs(ratio) ** size / (1 - abs(ratio))
        return cls(coeffs, tail_bound=tail)


# --------------------------------------------------------------------------
# nonlinearity catalogue
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Nonlinearity:
    """A scalar map f applied inside the convolution.

    ``linear_at_infinity`` flags whether f(x)/x -> 1 as |x| -> infinity;
    catalogue members satisfy it except where the flag says otherwise, in
    which case ``ratio_limit`` records the actual limit.
    """

    name: str
    fn: callable
    linear_at_infinity: bool = True
    ratio_limit: float = 1.0
    params: dict = field(default_factory=dict)

    def __call__(self, x: float) -> float:
        return self.fn(x)

    def validate(self, sample_range: float = 1e6, samples: int = 201) -> None:
        """Check finite outputs on a symmetric sampled grid."""
        grid = np.linspace(-sample_range, sample_range, samples)
        for x in grid:
            y = self.fn(float(x))
            if not math.isfinite(y):
                raise NonlinearityError(
                    f"nonlinearity {self.name!r} returned non-finite value at x={x!r}"
                )


def _identity(x):
    return x


def _bounded_offset(x):
    # correction x/(1+|x|) is bounded by 1, so f(x)/x -> 1
    return x + x / (1.0 + abs(x))


def _sqrt_offset(x):
    # correction grows like sqrt(|x|), still sublinear
    return x + math.copysign(math.sqrt(abs(x)), x)


def _solow(delta, s):
    def fn(x):
        return (1.0 - delta) * x + s * math.sqrt(abs(x))

    return fn


def make_nonlinearity(name: str, **params) -> Nonlinearity:
    if name == "identity":
        return Nonlinearity("identity", _identity)
    if name == "bounded_offset":
        return Nonlinearity("bounded_offset", _bounded_offset)
    if name == "sqrt_offset":
        return Nonlinearity("sqrt_offset", _sqrt_offset)
    if name == "solow":
        delta = float(params.get("delta", 0.1))
        s = float(params.get("s", 0.2))
        if not 0 <= delta < 1:
            raise ParameterError("solow depreciation delta must lie in [0, 1)")
        if not 0 < s < 1:
            raise ParameterError("solow savings rate s must lie in (0, 1)")
        return Nonlinearity(
            "solow",
            _solow(delta, s),
            linear_at_infinity=(delta == 0.0),
            ratio_limit=1.0 - delta,
            params={"delta": delta, "s": s},
        )
    raise ParameterError(f"unknown nonlinearity {name!r}")


NONLINEARITY_CATALOGUE = ("identity", "bounded_offset", "sqrt_offset", "solow")


# --------------------------------------------------------------------------
# per-term reference recursions: O(horizon * M) in the interpreter.  Each is
# the reference its domain's blocked engine below is held to, and runs that
# engine's first block and fallbacks; the plain one is the whole of resolvent().
# --------------------------------------------------------------------------

def _linear_recursion(k, h, xi, out):
    m = len(k)
    out[0] = xi
    for n in range(len(out) - 1):
        w = n + 1 if n + 1 < m else m
        acc = 0.0
        for l in range(w):
            acc += k[l] * out[n - l]
        val = acc + h[n + 1]
        out[n + 1] = val
        if not math.isfinite(val):
            return n + 1
    return -1


# sum|terms| / |sum| of one log-domain step beyond which digits are reported lost
_CANCELLATION = 1e8


def _log_linear_recursion(lk, sk, lh, sh, out_l, out_s, lo=1, hi=None):
    """Fill indices [lo, hi) of (out_l, out_s); returns (overflow index, lossy).

    The overflow index is the first non-finite log|x|, or -1.  ``lossy`` is
    (index, sum|terms| / |sum|) at the first index where that cancellation
    ratio exceeds ``_CANCELLATION``, or None.  A sum that cancels to exactly
    zero is stored as an exact zero and not counted: its ratio is undefined.
    """
    m = len(lk)
    lossy = None
    for n in range(lo - 1, len(out_l) - 1 if hi is None else hi - 1):
        w = n + 1 if n + 1 < m else m
        peak = -math.inf
        if sh[n + 1] != 0.0 and lh[n + 1] > peak:
            peak = lh[n + 1]
        for l in range(w):
            if sk[l] != 0.0 and out_s[n - l] != 0.0:
                t = lk[l] + out_l[n - l]
                if t > peak:
                    peak = t
        if peak == -math.inf:
            out_l[n + 1] = -math.inf
            out_s[n + 1] = 0.0
            continue
        acc = 0.0
        mag = 0.0
        for l in range(w):
            if sk[l] != 0.0 and out_s[n - l] != 0.0:
                t = sk[l] * out_s[n - l] * math.exp(lk[l] + out_l[n - l] - peak)
                acc += t
                mag += abs(t)
        if sh[n + 1] != 0.0:
            t = sh[n + 1] * math.exp(lh[n + 1] - peak)
            acc += t
            mag += abs(t)
        if acc == 0.0:
            out_l[n + 1] = -math.inf
            out_s[n + 1] = 0.0
        else:
            out_l[n + 1] = peak + math.log(abs(acc))
            out_s[n + 1] = 1.0 if acc > 0.0 else -1.0
            if lossy is None and mag > _CANCELLATION * abs(acc):
                lossy = (n + 1, mag / abs(acc))
        if not math.isfinite(out_l[n + 1]) and out_s[n + 1] != 0.0:
            return n + 1, lossy
    return -1, lossy


# --------------------------------------------------------------------------
# plain-domain engine, and the Toeplitz block step both domains share
# --------------------------------------------------------------------------

# shortest block of the blocked engines; a block is never shorter than the kernel
_BLOCK = 256


def _reference_linear(k, h, xi):
    """x(0..len(h)-1) by the per-term recursion; raises on the first non-finite value."""
    out = np.empty(len(h))
    # overflow is detected and raised below; suppress the element-wise warning
    with np.errstate(over="ignore", invalid="ignore"):
        bad = _linear_recursion(k, h, xi, out)
    if bad >= 0:
        raise TrajectoryOverflowError(bad)
    return out


def _blocked_linear(k, h, xi):
    """x(0..len(h)-1) as a blocked unit lower-triangular Toeplitz solve.

    The first block [0, B) runs the reference recursion, so it is bitwise
    equal to it.  Every later block [t, t+L) solves x = r[:L] * f with
    f = H[t:t+L] plus the history sum_{l} k(l) x(n-l) over n-l < t, where
    r is the resolvent, itself taken from the reference recursion.  Both
    convolutions are direct (np.convolve), so exact zeros stay exact.  If
    r[:B] itself overflows, the whole solve runs the reference recursion.
    """
    m = len(k)
    b = max(_BLOCK, m)
    out = np.empty(len(h))
    out[:b] = _reference_linear(k, h[:b], xi)
    if len(h) <= b:
        return out
    r = _block_resolvent(k, b)
    if r is None:
        return _reference_linear(k, h, xi)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(b, len(h), b):
            block = _toeplitz_block(k, r, h[t : t + b].copy(), out[t - m : t])
            finite = np.isfinite(block)
            if not finite.all():
                raise TrajectoryOverflowError(t + int(np.argmin(finite)))
            out[t : t + len(block)] = block
    return out


def _block_resolvent(k, b):
    """r[:b] by the reference recursion, or None if it overflows."""
    try:
        return _reference_linear(k, np.zeros(b), 1.0)
    except TrajectoryOverflowError:
        return None


def _toeplitz_block(k, r, f, prev):
    """One block of the Toeplitz solve: x = r[:L] * (f + history), L = len(f).

    ``prev`` holds the M = len(k) solution values just before the block, and
    the history is their part of sum_l k(l) x(n-l).  ``f`` is updated in place.
    """
    m = len(k)
    if m:
        hist = np.convolve(k, prev)[m - 1 : m - 1 + len(f)]
        f[: len(hist)] += hist
    return np.convolve(r[: len(f)], f)[: len(f)]


# --------------------------------------------------------------------------
# log-domain engine
# --------------------------------------------------------------------------

# most a block's forcing log-range plus log sum|r[:B]| may span, so that its
# scaled values stay normal doubles (exp(-600) ~ 1e-261) and |x| stays finite
_SPAN = 600.0
# smallest |x| / exp(ref) a scaled block may return, per unit of
# max|r[:B]| * (1 + sum|k|): inputs that underflow move x by less than 1e-25 of it
_FLOOR = 1e-280


def _blocked_log_linear(k, lh, sh, xi):
    """(log|x|, sign x) on 0..len(lh)-1 as blocks of plain doubles times exp(ref).

    The first block [0, B), a signed kernel and every block that cannot be
    scaled (see the module docstring) run the per-step recursion, which
    logs its first cancellation beyond ``_CANCELLATION`` once per solve.
    Every other block [t, t+L) runs the plain Toeplitz step on its inputs
    times exp(-ref); L <= B keeps the forcing's log-range plus
    log sum r[:B] within ``_SPAN``.
    """
    n = len(lh)
    lk, sk = _kernel_log(k)
    out_l = np.full(n, -np.inf)
    out_s = np.zeros(n)
    if xi != 0.0:
        out_l[0] = math.log(abs(xi))
        out_s[0] = math.copysign(1.0, xi)
    warned = False

    def per_step(lo, hi):
        nonlocal warned
        bad, lossy = _log_linear_recursion(lk, sk, lh, sh, out_l, out_s, lo, hi)
        if lossy is not None and not warned:
            warned = True
            logger.warning(
                "log-domain cancellation at index %d: sum|terms|/|sum| = %.3g, "
                "about %.1f digits lost", lossy[0], lossy[1], math.log10(lossy[1])
            )
        if bad >= 0:
            raise TrajectoryOverflowError(bad)

    b = max(_BLOCK, len(k))
    per_step(1, min(b, n))
    r = _block_resolvent(k, b) if n > b and np.all(k >= 0.0) else None
    if r is None:
        per_step(b, n)
        return out_l, out_s
    room = _SPAN - math.log(np.sum(r))
    floor = _FLOOR * np.max(r) * (1.0 + np.sum(k))
    t = b
    while t < n:
        # longest run [t, t+L) whose nonzero forcing stays within ``room`` in log|H|
        live = sh[t : t + b] != 0.0
        seg = lh[t : t + b]
        spread = (np.maximum.accumulate(np.where(live, seg, -np.inf))
                  - np.minimum.accumulate(np.where(live, seg, np.inf)))
        size = max(1, int(np.argmax(spread > room)) if spread[-1] > room else len(seg))
        if size == 1 or not _scaled_block(k, r, lh, sh, out_l, out_s, t, t + size, floor):
            per_step(t, t + size)
        t += size
    return out_l, out_s


def _scaled_block(k, r, lh, sh, out_l, out_s, lo, hi, floor):
    """Solve [lo, hi) as plain doubles times exp(ref); False if it must run per step."""
    m = len(k)
    signs = np.concatenate((sh[lo:hi], out_s[lo - m : lo]))
    signs = signs[signs != 0.0]
    if signs.size and np.any(signs != signs[0]):
        return False
    # an all-zero block gives ref = -inf and NaN below, so it runs per step
    ref = max(np.max(lh[lo:hi]), np.max(out_l[lo - m : lo], initial=-np.inf))
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        f = sh[lo:hi] * np.exp(lh[lo:hi] - ref)
        prev = out_s[lo - m : lo] * np.exp(out_l[lo - m : lo] - ref)
        x = _toeplitz_block(k, r, f, prev)
        mag = np.abs(x)
        if not (np.min(mag) >= floor and np.max(mag) < np.inf):
            return False
        out_l[lo:hi] = np.log(mag) + ref
    out_s[lo:hi] = np.sign(x)
    return True


# --------------------------------------------------------------------------
# forcing alignment
# --------------------------------------------------------------------------

def _aligned_forcing(forcing, horizon, xi=0.0, log_domain=False):
    """Check a solve's inputs; return (horizon, H on 0..horizon with H(0) := 0).

    The horizon must be an integer >= 1, ``xi`` finite, and the forcing must
    cover indices 1..horizon; a nonzero value at index 0 is ignored with a
    logged warning.  Only the window 1..horizon changes domain, so a
    log-form forcing may run past the horizon, and past double range there.
    H is a float array, or a (log|H|, sign H) pair when ``log_domain``.
    """
    if int(horizon) != horizon or horizon < 1:
        raise InputError(f"horizon must be an integer >= 1, got {horizon!r}")
    if not math.isfinite(xi):
        raise InputError("initial value must be finite")
    horizon = int(horizon)
    if forcing.start > 1:
        raise InputError(f"forcing must cover index 1, starts at {forcing.start}")
    if forcing.end < horizon:
        raise InputError(
            f"forcing ends at {forcing.end}, shorter than horizon {horizon}"
        )
    if forcing.start == 0 and forcing.window(0, 0).to_log().sign[0] != 0.0:
        logger.warning(
            "forcing value at index 0 is ignored; the recursion consumes H "
            "from index 1"
        )
    win = forcing.window(1, horizon)
    if log_domain:
        win = win.to_log()
        return horizon, (np.concatenate(([-np.inf], win.log_abs)),
                         np.concatenate(([0.0], win.sign)))
    return horizon, np.concatenate(([0.0], win.to_plain().values))


# --------------------------------------------------------------------------
# solvers
# --------------------------------------------------------------------------

def solve_linear(kernel: Kernel, forcing, xi: float, horizon: int, log_domain: bool = False):
    """Advance the forced linear recursion to ``horizon``.

    Returns a Trajectory on indices 0..horizon (a LogTrajectory when
    ``log_domain`` is set).  The forcing must cover indices 1..horizon;
    a nonzero value at index 0 is ignored with a logged warning.
    """
    if log_domain or isinstance(forcing, LogTrajectory):
        horizon, (lh, sh) = _aligned_forcing(forcing, horizon, xi, log_domain=True)
        out_l, out_s = _blocked_log_linear(kernel.coefficients, lh, sh, float(xi))
        return LogTrajectory(out_l, out_s, start=0)
    horizon, h = _aligned_forcing(forcing, horizon, xi)
    return Trajectory(_blocked_linear(kernel.coefficients, h, float(xi)), start=0)


def _kernel_log(k):
    with np.errstate(divide="ignore"):
        lk = np.log(np.abs(k))
    return lk, np.sign(k)


def resolvent(kernel: Kernel, horizon: int) -> Trajectory:
    """Unforced solution r with r(0) = 1 on indices 0..horizon."""
    if int(horizon) != horizon or horizon < 0:
        raise InputError(f"horizon must be an integer >= 0, got {horizon!r}")
    zero = np.zeros(int(horizon) + 1)
    return Trajectory(_reference_linear(kernel.coefficients, zero, 1.0), start=0)


def solve_by_representation(kernel: Kernel, forcing, xi: float, horizon: int) -> Trajectory:
    """Solve through the resolvent: x(n) = r(n) xi + sum_{j=1}^n r(n-j) H(j).

    An O(horizon^2) route independent of the forward recursion; plain
    domain only.  On well-scaled inputs it agrees with :func:`solve_linear`
    to 1e-10 relative per index, and the test suite enforces that.
    """
    horizon, h = _aligned_forcing(forcing, horizon, xi)
    r = resolvent(kernel, horizon).values
    with np.errstate(over="ignore", invalid="ignore"):
        conv = np.convolve(r, h)[: horizon + 1]
        out = r * float(xi) + conv
    if not np.all(np.isfinite(out)):
        raise TrajectoryOverflowError(int(np.flatnonzero(~np.isfinite(out))[0]))
    return Trajectory(out, start=0)


def recover_forcing(kernel: Kernel, solution: Trajectory) -> Trajectory:
    """Invert the recursion: H(n+1) = x(n+1) - sum_{j=0}^n k(n-j) x(j).

    Round-trips with :func:`solve_linear` to floating-point accuracy.
    The returned trajectory starts at index 1.
    """
    solution = solution.to_plain()
    if solution.start != 0:
        raise InputError("solution must start at index 0")
    if len(solution) < 2:
        raise InputError("solution must contain at least indices 0 and 1")
    x = solution.values
    n = len(x) - 1
    if kernel.size:
        conv = np.convolve(kernel.coefficients, x)[:n]
    else:
        conv = np.zeros(n)
    return Trajectory(x[1:] - conv, start=1)


def solve_nonlinear(kernel: Kernel, f: Nonlinearity, forcing, xi: float, horizon: int) -> Trajectory:
    """Advance x(n+1) = sum k(n-j) f(x(j)) + H(n+1) with x(0) = xi."""
    horizon, h = _aligned_forcing(forcing, horizon, xi)
    k = kernel.coefficients
    m = len(k)
    x = np.empty(horizon + 1)
    fx = np.empty(horizon + 1)
    x[0] = xi
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(horizon):
            y = f(float(x[n]))
            if not math.isfinite(y):
                raise NonlinearityError(
                    f"nonlinearity {f.name!r} returned non-finite value at input {x[n]!r}"
                )
            fx[n] = y
            w = min(n + 1, m)
            acc = 0.0
            for l in range(w):
                acc += k[l] * fx[n - l]
            val = acc + h[n + 1]
            if not math.isfinite(val):
                raise TrajectoryOverflowError(n + 1)
            x[n + 1] = val
    return Trajectory(x, start=0)
