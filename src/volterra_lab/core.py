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

Which engine runs where (B = 256 for a kernel of any length M):

* ``solve_linear`` in plain doubles runs the blocked engine: the first
  block of B indices by the per-term reference recursion, every later
  block [t, t+L) as the Toeplitz solve x = r[:L] * (H + history) in two
  matrix products, ``f[:, :min(B, M)] += prev @ Hk.T`` for the history
  prev = x[max(0, t-M):t] and ``x = f @ R[:L, :L].T`` for the block,
  O(horizon * (B + M)) in all.  R is the lower-triangular Toeplitz matrix
  of r[:B] and the min(B, M) x M matrix Hk maps the history to its part of
  the block's first min(B, M) forcings.
* ``stochastic.ensemble_verify`` runs the same engine on many plain-domain
  paths at once: their forcings are the rows of one (P, N) array, solved
  in place, so each block step is one pair of products for all P rows.
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
  sums are ever scaled, so no cancellation is hidden.  The block's forcing
  maximum comes from the running maximum that sized it, and its sign test
  is the largest and smallest sign of its forcing and history, so a block
  costs a handful of array calls; the output is bitwise that of taking
  both from the block's values directly, which the tests keep as the
  reference.
* ``resolvent`` and ``solve_by_representation`` run the per-term reference
  recursion, O(horizon * min(horizon, M)); ``solve_by_representation``
  adds the only O(horizon^2) step, the direct convolution of the
  resolvent with the forcing.

Accuracy contract of the plain blocked engine: below index 256 its output
is bitwise equal to the reference recursion, for every kernel; beyond
that, its scaled gap to the reference, max |x - x_ref| / max(|x_ref|, 1),
is at most 1e-12 on summable, marginal (sum k = 1) and growing kernels at
horizons up to a few thousand, and about 1e-15 on summable kernels at any
horizon.  On marginal kernels both engines drift from exact arithmetic by
rounding that grows with the horizon, by about 1e-12 at 2e5 steps each
against extended precision.  On the growing kernels tested, both engines
raise on the same first non-finite index.

Batch contract: every row of a P-row solve is bitwise equal to the
reference recursion below B, and within the same 1e-12 scaled gap of the
same path solved alone beyond it.  A row that overflows fails alone, at
the reference's first non-finite index.  Bit for bit, a row depends on the
shape of its batch: BLAS rounds a P-row product differently from a
one-row one, and may round a row differently at another position in the
batch or under another BLAS thread count.  The same rows in the same
order under the same BLAS give the same bits.

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

Every per-term loop (the plain and log recursions and the nonlinear
solve) runs on Python floats, reading its inputs with ``tolist`` and
writing its results back into the numpy arrays one chunk of ``_CHUNK``
steps at a time.  Python floats perform the same IEEE-754 double
operations as numpy float64 scalars, and the loops keep their order, so
the outputs are bitwise those of the numpy-scalar loops; the tests keep
the latter as the reference.  The block resolvent prefix r[:B] and the
block matrices R and Hk are computed once per ``Kernel``, on the first
blocked solve that needs them, and shared by every later solve with that
kernel; R and Hk take 8 (B^2 + min(B, M) M) bytes, 0.5 MB for M = 40 and
4.6 MB for M = 2000.

The forward recursion and the resolvent representation stay
algorithmically independent on purpose; their agreement is a mandatory
cross-check, not an assumption.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    defined with finite support.  ``coefficients`` is a read-only copy of
    the weights given, so the block state cached below cannot go stale.
    Kernels compare and hash by value: equal coefficients (0.0 and -0.0
    alike) and equal tail bounds; the cached state takes no part.
    """

    coefficients: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=np.float64)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)
        if coeffs.ndim != 1:
            raise InputError("kernel coefficients must be one-dimensional")
        if coeffs.size and not np.all(np.isfinite(coeffs)):
            raise InputError("kernel coefficients must be finite")
        if self.tail_bound < 0 or not np.isfinite(self.tail_bound):
            raise InputError("tail bound must be finite and nonnegative")

    def __eq__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        return (self.tail_bound == other.tail_bound
                and np.array_equal(self.coefficients, other.coefficients))

    def __hash__(self):
        return hash((tuple(self.coefficients.tolist()), self.tail_bound))

    @property
    def size(self) -> int:
        return len(self.coefficients)

    @property
    def l1_norm(self) -> float:
        return float(np.sum(np.abs(self.coefficients)))

    @cached_property
    def _block_state(self):
        """(r[:B], R, Hk) of the blocked engines, shared by every blocked
        solve with this kernel; None if r[:B] overflows.  R and Hk of
        ``_toeplitz_matrices`` take 8 (B^2 + min(B, M) M) bytes."""
        try:
            r = _reference_linear(self.coefficients, np.zeros(_BLOCK), 1.0)
        except TrajectoryOverflowError:
            return None
        r.flags.writeable = False
        return (r, *_toeplitz_matrices(self.coefficients, r))

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

    __hash__ = None  # compares by value, but ``params`` is a dict

    def __call__(self, x: float) -> float:
        return self.fn(x)

    def validate(self) -> None:
        """Check finite outputs on a symmetric sampled grid of [-1e6, 1e6]."""
        grid = np.linspace(-1e6, 1e6, 201)
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


def _solow(delta=0.1, s=0.2):
    delta, s = float(delta), float(s)
    if not 0 <= delta < 1:
        raise ParameterError("solow depreciation delta must lie in [0, 1)")
    if not 0 < s < 1:
        raise ParameterError("solow savings rate s must lie in (0, 1)")

    def fn(x):
        return (1.0 - delta) * x + s * math.sqrt(abs(x))

    return Nonlinearity(
        "solow",
        fn,
        linear_at_infinity=(delta == 0.0),
        ratio_limit=1.0 - delta,
        params={"delta": delta, "s": s},
    )


# name -> builder; a builder's keyword arguments are the member's parameters
_NONLINEARITIES = {
    "identity": lambda: Nonlinearity("identity", _identity),
    "bounded_offset": lambda: Nonlinearity("bounded_offset", _bounded_offset),
    "sqrt_offset": lambda: Nonlinearity("sqrt_offset", _sqrt_offset),
    "solow": _solow,
}


def make_nonlinearity(name: str, **params) -> Nonlinearity:
    if name not in _NONLINEARITIES:
        raise ParameterError(f"unknown nonlinearity {name!r}")
    return _NONLINEARITIES[name](**params)


NONLINEARITY_CATALOGUE = tuple(_NONLINEARITIES)


# --------------------------------------------------------------------------
# per-term reference recursions: O(horizon * M) in the interpreter.  Each is
# the reference its domain's blocked engine below is held to, and runs that
# engine's first block and fallbacks; the plain one is the whole of resolvent().
# --------------------------------------------------------------------------

# steps per chunk of the per-term loops: each chunk reads its inputs and the M
# values before it as Python floats, so a loop holds O(_CHUNK + M) of them
_CHUNK = 4096


def _chunks(lo, hi, m):
    """(start, stop, base) for the chunks [start, stop) of [lo, hi); base is
    max(start - m, 0), the first of the m history indices before the chunk."""
    for start in range(lo, hi, _CHUNK):
        yield start, min(start + _CHUNK, hi), max(start - m, 0)


def _linear_recursion(k, h, xi, out):
    m = len(k)
    k = k.tolist()
    out[0] = xi
    for lo, hi, base in _chunks(1, len(out), m):
        x = out[base:lo].tolist()
        hh = h[lo:hi].tolist()
        for n in range(lo - 1, hi - 1):
            w = n + 1 if n + 1 < m else m
            i = n - base
            acc = 0.0
            for l in range(w):
                acc += k[l] * x[i - l]
            val = acc + hh[n + 1 - lo]
            x.append(val)
            if not math.isfinite(val):
                out[lo : n + 2] = x[lo - base :]
                return n + 1
        out[lo:hi] = x[lo - base :]
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
    lk, sk = lk.tolist(), sk.tolist()
    lossy = None
    for start, stop, base in _chunks(lo, len(out_l) if hi is None else hi, m):
        xl = out_l[base:start].tolist()
        xs = out_s[base:start].tolist()
        hl = lh[start:stop].tolist()
        hs = sh[start:stop].tolist()
        for n in range(start - 1, stop - 1):
            w = n + 1 if n + 1 < m else m
            i = n - base
            j = n + 1 - start
            peak = -math.inf
            if hs[j] != 0.0 and hl[j] > peak:
                peak = hl[j]
            for l in range(w):
                if sk[l] != 0.0 and xs[i - l] != 0.0:
                    t = lk[l] + xl[i - l]
                    if t > peak:
                        peak = t
            if peak == -math.inf:
                xl.append(-math.inf)
                xs.append(0.0)
                continue
            acc = 0.0
            mag = 0.0
            for l in range(w):
                if sk[l] != 0.0 and xs[i - l] != 0.0:
                    t = sk[l] * xs[i - l] * math.exp(lk[l] + xl[i - l] - peak)
                    acc += t
                    mag += abs(t)
            if hs[j] != 0.0:
                t = hs[j] * math.exp(hl[j] - peak)
                acc += t
                mag += abs(t)
            if acc == 0.0:
                xl.append(-math.inf)
                xs.append(0.0)
            else:
                xl.append(peak + math.log(abs(acc)))
                xs.append(1.0 if acc > 0.0 else -1.0)
                if lossy is None and mag > _CANCELLATION * abs(acc):
                    lossy = (n + 1, mag / abs(acc))
            if not math.isfinite(xl[-1]) and xs[-1] != 0.0:
                out_l[start : n + 2] = xl[start - base :]
                out_s[start : n + 2] = xs[start - base :]
                return n + 1, lossy
        out_l[start:stop] = xl[start - base :]
        out_s[start:stop] = xs[start - base :]
    return -1, lossy


# --------------------------------------------------------------------------
# plain-domain engine, and the Toeplitz block step both domains share
# --------------------------------------------------------------------------

# block length of both blocked engines, for a kernel of any length
_BLOCK = 256


def _reference_linear(k, h, xi):
    """x(0..len(h)-1) by the per-term recursion; raises on the first non-finite value."""
    out = np.empty(len(h))
    bad = _linear_recursion(k, h, xi, out)
    if bad >= 0:
        raise TrajectoryOverflowError(bad)
    return out


def _blocked_linear(kernel, x, xi):
    """Solve each row of a (P, N) array x in place, as a blocked unit
    lower-triangular Toeplitz solve; return each row's first non-finite index.

    On entry row p of x holds a forcing on 0..N-1 (index 0 is not read), on
    return its solution x(0..N-1) from the start ``xi``.  The returned
    bad[p] is -1, or the first non-finite index of row p; past it the row
    holds no meaningful values.  Each row's first block [0, B) runs the
    reference recursion, so it is bitwise equal to it.  Every later block
    [t, t+L) solves all rows at once with ``_toeplitz_block``, from the
    history x[max(0, t - M):t].  If r[:B] overflows, every row runs the
    reference recursion throughout.
    """
    k = kernel.coefficients
    n = x.shape[1]
    state = kernel._block_state if n > _BLOCK else None
    head = n if state is None else _BLOCK
    bad = np.array([_linear_recursion(k, row, xi, row[:head]) for row in x])
    if head == n or bad.min() >= 0:
        return bad
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(_BLOCK, n, _BLOCK):
            block = _toeplitz_block(state, x[:, t : t + _BLOCK].copy(), x[:, max(0, t - len(k)) : t])
            x[:, t : t + block.shape[1]] = block
            finite = np.isfinite(block)
            if not finite.all():
                new = (bad < 0) & ~finite.all(axis=1)
                bad[new] = t + np.argmin(finite[new], axis=1)
                if bad.min() >= 0:
                    break
    return bad


def _toeplitz(z, rows, n):
    """The read-only rows x n matrix T[i, j] = z[n - 1 + i - j] of a length
    rows + n - 1 array z, copied from one strided view of z."""
    t = np.ascontiguousarray(sliding_window_view(z, n)[:rows, ::-1])
    t.flags.writeable = False
    return t


def _toeplitz_matrices(k, r):
    """(R, Hk) for the block step of kernel k with resolvent prefix r = r[:B].

    R[i, j] = r(i - j) for j <= i is the B x B lower-triangular Toeplitz
    matrix of r, so x = R f solves a block.  Hk[i, j] = k(M - 1 + i - j) for
    j >= i, min(B, M) x M, maps the M values before a block to their part
    of its first min(B, M) forcings.
    """
    b, m = len(r), len(k)
    return (_toeplitz(np.concatenate((np.zeros(b - 1), r)), b, b),
            _toeplitz(np.concatenate((k, np.zeros(b - 1))), min(b, m), m))


def _toeplitz_block(state, f, prev):
    """One block of the Toeplitz solve per row: x = r[:L] * (f + history).

    ``state`` is a kernel's ``(r[:B], R, Hk)``; f is one row of L forcings
    or P such rows, and ``prev`` holds, row by row, the solution values
    x[max(0, t - M):t] before the block [t, t+L), whose part of
    sum_l k(l) x(n-l) is the history; before index M they are fewer than
    M and meet Hk's trailing columns.  ``f`` is updated in place.
    """
    _, r, hk = state
    size = f.shape[-1]
    f[..., : len(hk)] += prev @ hk[:size, hk.shape[1] - prev.shape[-1] :].T
    return f @ r[:size, :size].T


# --------------------------------------------------------------------------
# log-domain engine
# --------------------------------------------------------------------------

# most a block's forcing log-range plus log sum|r[:B]| may span, so that its
# scaled values stay normal doubles (exp(-600) ~ 1e-261) and |x| stays finite
_SPAN = 600.0
# smallest |x| / exp(ref) a scaled block may return, per unit of
# max|r[:B]| * (1 + sum|k|): inputs that underflow move x by less than 1e-25 of it
_FLOOR = 1e-280


def _blocked_log_linear(kernel, lh, sh, xi):
    """(log|x|, sign x) on 0..len(lh)-1 as blocks of plain doubles times exp(ref).

    The first block [0, B), a signed kernel and every block that cannot be
    scaled (see the module docstring) run the per-step recursion, which
    logs its first cancellation beyond ``_CANCELLATION`` once per solve.
    Every other block [t, t+L) runs the plain Toeplitz step on its inputs
    times exp(-ref); L <= B keeps the forcing's log-range plus
    log sum r[:B] within ``_SPAN``.  The running maximum of log|H| that
    sizes a block also gives its forcing maximum, and the block is sign
    coherent unless its forcing and history hold both a +1 and a -1; the
    output is bitwise that of reading both off the block's own values.
    """
    k = kernel.coefficients
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

    per_step(1, min(_BLOCK, n))
    state = kernel._block_state if n > _BLOCK and np.all(k >= 0.0) else None
    if state is None:
        per_step(_BLOCK, n)
        return out_l, out_s
    r = state[0]
    room = _SPAN - math.log(np.sum(r))
    floor = _FLOOR * np.max(r) * (1.0 + np.sum(k))
    t = _BLOCK
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        while t < n:
            # longest run [t, t+L) whose nonzero forcing stays within ``room`` in log|H|
            live = sh[t : t + _BLOCK] != 0.0
            seg = lh[t : t + _BLOCK]
            top = np.maximum.accumulate(np.where(live, seg, -np.inf))
            spread = top - np.minimum.accumulate(np.where(live, seg, np.inf))
            size = max(1, int(np.argmax(spread > room)) if spread[-1] > room else len(seg))
            if size == 1 or not _scaled_block(k, state, lh, sh, out_l, out_s, t, t + size,
                                              floor, top[size - 1]):
                per_step(t, t + size)
            t += size
    return out_l, out_s


def _scaled_block(k, state, lh, sh, out_l, out_s, lo, hi, floor, top):
    """Solve [lo, hi) as plain doubles times exp(ref); False if it must run per step.

    ``top`` is max log|H| over [lo, hi), from the pass that sized the block:
    sign 0 exactly where log|H| = -inf, so the zeros it skips change nothing.
    The caller silences numpy's floating-point warnings.
    """
    past = max(0, lo - len(k))
    hs, ps, pl = sh[lo:hi], out_s[past:lo], out_l[past:lo]
    s_max, s_min = max(hs.max(), ps.max(initial=0.0)), min(hs.min(), ps.min(initial=0.0))
    ref = max(top, pl.max(initial=-np.inf))
    # signs are -1, 0 or +1: a nonzero forcing or history value of each sign
    if s_max > 0.0 and s_min < 0.0:
        return False
    # an all-zero block gives ref = -inf and NaN below, so it runs per step
    f = hs * np.exp(lh[lo:hi] - ref)
    prev = ps * np.exp(pl - ref)
    x = _toeplitz_block(state, f, prev)
    mag = np.abs(x)
    if not (mag.min() >= floor and mag.max() < np.inf):
        return False
    out_l[lo:hi] = np.log(mag) + ref
    out_s[lo:hi] = np.sign(x)
    return True


# --------------------------------------------------------------------------
# forcing alignment
# --------------------------------------------------------------------------

def _solve_horizon(horizon, xi=0.0) -> int:
    """A solve's horizon as an int, once it is an integer >= 1 and ``xi`` is finite."""
    if int(horizon) != horizon or horizon < 1:
        raise InputError(f"horizon must be an integer >= 1, got {horizon!r}")
    if not math.isfinite(xi):
        raise InputError("initial value must be finite")
    return int(horizon)


def _aligned_forcing(forcing, horizon, xi=0.0, log_domain=False):
    """Check a solve's inputs; return (horizon, H on 0..horizon with H(0) := 0).

    The horizon and ``xi`` must pass :func:`_solve_horizon`, and the forcing
    must cover indices 1..horizon; a nonzero value at index 0 is ignored
    with a logged warning.  Only the window 1..horizon changes domain, so a
    log-form forcing may run past the horizon, and past double range there.
    H is a float array, or a (log|H|, sign H) pair when ``log_domain``.
    """
    horizon = _solve_horizon(horizon, xi)
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
        out_l, out_s = _blocked_log_linear(kernel, lh, sh, float(xi))
        return LogTrajectory(out_l, out_s, start=0)
    horizon, x = _aligned_forcing(forcing, horizon, xi)
    bad = _blocked_linear(kernel, x[None], float(xi))
    if bad[0] >= 0:
        raise TrajectoryOverflowError(int(bad[0]))
    return Trajectory(x, start=0)


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
    k = kernel.coefficients.tolist()
    m = len(k)
    x = np.empty(horizon + 1)
    fx = np.empty(horizon + 1)
    x[0] = xi
    xn = float(x[0])
    for lo, hi, base in _chunks(0, horizon, m):
        fxs = fx[base:lo].tolist()
        hh = h[lo + 1 : hi + 1].tolist()
        xs = []
        for n in range(lo, hi):
            y = f(xn)
            if not math.isfinite(y):
                raise NonlinearityError(
                    f"nonlinearity {f.name!r} returned non-finite value at input {xn!r}"
                )
            fxs.append(float(y))
            w = min(n + 1, m)
            i = n - base
            acc = 0.0
            for l in range(w):
                acc += k[l] * fxs[i - l]
            val = acc + hh[n - lo]
            if not math.isfinite(val):
                raise TrajectoryOverflowError(n + 1)
            xs.append(val)
            xn = val
        x[lo + 1 : hi + 1] = xs
        fx[lo:hi] = fxs[lo - base :]
    return Trajectory(x, start=0)
