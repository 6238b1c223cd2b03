"""Exact finite-horizon solvers for the forced convolution recursion.

The linear equation advances as

    x(n+1) = sum_{j=0}^{n} k(n-j) x(j) + H(n+1),    x(0) = xi,

with a finitely supported kernel k.  This module provides the forward
recursion, the unforced (resolvent) solution r with r(0) = 1, the
closed-form solution through the resolvent x(n) = r(n) xi + sum r(n-j)H(j),
the inverse map recovering H from a solution, and the nonlinear variant
with f applied inside the convolution.

Two evaluation domains are supported.  The default is plain doubles with a
hard failure on the first non-finite value.  When the forcing is a
``LogTrajectory`` the solution is carried as (sign, log|x|) pairs so that
genuinely growing solutions (for example geometric or factorial forcing)
can be followed far past double-precision overflow.  Signed sums suffer
catastrophic cancellation when terms of opposite sign nearly cancel, so
the log domain is intended for the sign-coherent growth regimes it exists
for; its per-term blocks log one warning per solve, with the index and
the digits lost, where sum|terms| / |sum| first exceeds 1e8.

Which engine runs where (B = 256 for a kernel of any length M):

* ``solve_linear`` in plain doubles runs the blocked engine: from
  x(0) = xi, every block [t, t+L), t = 1, 1 + B, ..., is the Toeplitz solve
  x = r[:L] * (H + history) in two matrix products,
  ``f[:, :min(B, M)] += prev @ Hk.T`` for the history
  prev = x[max(0, t-M):t] and ``x = f @ R[:L, :L].T`` for the block,
  O(horizon * (B + M)) in all.  R is the lower-triangular Toeplitz matrix
  of r[:B] and the min(B, M) x M matrix Hk maps the history to its part of
  the block's first min(B, M) forcings; the first block's history is
  x(0) alone.  One decision per row, made before any block runs, picks
  its engine: a row either provably cannot overflow and runs blocks, or
  runs the per-term recursion throughout.  It runs blocks when the
  kernel has sum |k| <= 1, signed or not, which keeps |r(n)| <= 1, the
  solve has more than B values in all (paths times indices), and
  B (N + 2) max(|xi|, max |H|) < 2^1000 for a row of N values.  Since
  x = r xi + r * H, that bounds every value, product and partial sum of
  its blocks.  Every other row, one holding a NaN or inf forcing
  included, runs the per-term recursion.
* A lone row (one path: every plain ``solve_linear``,
  ``Kernel.resolvent_l1``, ``predict_x_over_a``, and an ensemble group of
  one path) of a kernel of one term, M = 1, with at least ``_GROUP_MIN``
  = 48 whole blocks after its first, solves those blocks in groups of at
  most ``_GROUP`` = 512, in place, with one matrix-vector product and
  vector steps.  Only a block's last value reaches the next: one product
  gives the part c_i = (R f_i)[-1] that each block's forcing makes of it,
  and a loop carries e_(i+1) = c_i + r(B - 1) k0 e_i, one multiply-add
  per block.  With every block's last value in place, one pass of B - 1
  steps runs the recursion in all blocks of the group at once, so a block
  costs O(B) in place of the B^2 of its product with R.  For M > 1 the
  same scheme carries M values and was slower than the block step at 48
  blocks once M >= 10, so longer kernels run the block step.  The first
  block, whose history is x(0) alone, the last, partial one, and the
  blocks of shorter rows run the block step.
* ``stochastic.ensemble_verify`` runs the same engine on many plain-domain
  paths at once: their forcings are the rows of one (P, N) array, solved
  in place, so each block step is one pair of products for all P rows.
  The rows that run blocks are solved as a batch of their own, and
  groups follow from their number: two or more such rows run no groups,
  since they already fill the products, and a lone one runs its groups
  as a lone row does.
* ``solve_linear`` in the log domain runs the block-scaled engine: every
  block [t, t+L) from t = 1 on is solved on plain doubles times exp(ref),
  ref the largest log|.| among its forcing and the M values before it.
  One sizing loop serves every kernel and horizon: L <= B is chosen from
  the forcing's log-range so that nothing overflows or underflows, up to
  room ~ 600 below the largest value and up to about 700 more above 1,
  used by lowering ref by the part of the range beyond room, so that
  scaled |x| stays below exp(700).  That is about 130 steps for factorial
  forcing near n = 2e4, and all of B for geometric, whose blocks fit room
  and keep their ref.  A block of more than one step with a nonnegative
  kernel, a finite r[:B] and forcing and history of one sign is the same
  Toeplitz step as in plain doubles, unless a scaled |x| falls below a
  floor where underflowed inputs could show.  Every other block is a
  per-term block: the plain per-term loop on the block's scaled forcing
  and history, with the same ref.  A per-term block whose scaled output
  overflows, falls below the floor, or is zero where an input underflowed
  splits in half, down to one step, which is kept as it comes out.  So a
  signed kernel and mixed signs run per-term blocks, and an r[:B] that
  overflows, whose sum and maximum count as inf, runs one-step blocks.
  Only same-signed sums are ever solved by Toeplitz, so no cancellation
  is hidden there and the plain engine's sum |k| <= 1 is not needed: a
  nonnegative kernel with sum k > 1 runs Toeplitz blocks too.  The
  outputs start as copies of the forcing, so a block's history and its
  forcing are one slice of them, and a Toeplitz block costs a handful of
  array calls on it; the output is bitwise that of the reference the
  tests keep, which reads the two apart.
* ``resolvent``, ``solve_by_representation`` and ``solve_nonlinear`` run
  the per-term reference recursion, O(horizon * min(horizon, M)); the
  nonlinear solve convolves over f(x) in place of x, and
  ``solve_by_representation`` adds the only O(horizon^2) step, the direct
  convolution of the resolvent with the forcing.
* ``Kernel.at_scale(lam)``, with resolvent r(j) lam^j, carries the
  representations at scale: ``predict_x_over_a`` is its ``solve_linear``
  and ``predict_H_over_a`` its ``recover_forcing``.
* ``Kernel.resolvent_l1(horizon)``, the one owner of sum |r(n)|, runs
  the plain blocked engine on one zero-forcing row from r(0) = 1, so its
  sum carries that engine's accuracy contract below; ``resolvent`` stays
  the per-term oracle the representation is built on.

Accuracy contract of the plain blocked engine: a row that runs the
per-term recursion (sum |k| > 1, a solve of at most B values in all, or
a row at or above the bound) is bitwise the reference, its first
non-finite index included, and only such a row can fail.  A row that
runs blocks, for a kernel signed or not, has a scaled gap to the
reference, max |x - x_ref| / max(|x_ref|, 1) for a forcing of order one
(the floor is the forcing's scale), of at most 1e-12 from index 0 at
horizons up to a few thousand, and about 1e-15 on summable kernels at
any horizon: with |r| <= 1 no product r(i - j) f(j) exceeds its input,
so a block's sum cannot cancel far below its terms.  On marginal
kernels (sum k = 1) both engines drift from exact arithmetic by rounding
that grows with the horizon, by about 1e-12 at 2e5 steps each against
extended precision.  A lone row's values differ from the block step's
by rounding alone, and keep the gap.

Batch contract: every row of a P-row solve keeps that contract, and is
within the gap of the same path solved alone, not bitwise: groups run
only where one row runs blocks.  A row that overflows fails alone,
and a row that runs the per-term recursion is bitwise the reference in
any batch.  Bit for bit, a row that runs blocks depends on the shape of
the batch of rows that run blocks with it: BLAS rounds a P-row product
differently from a one-row one, and may round a row differently at
another position in the batch or under another BLAS thread count.  The
same rows in the same order under the same BLAS give the same bits.

Accuracy contract of the log engine: on Toeplitz blocks, the first
included, the signs equal the exact solution's, and log|x| is within
1e-12 + 1e-15 |log|x|| of the exact value, the second term being the
rounding of log|x| itself as one double; the tests hold that against
extended precision on the growth catalogue and on growth, ergodic and
random-walk configurations.  A per-term block carries doubles from step
to step, so within it the error is the plain recursion's from its
history, and each block edge reads the history back from log|x|, which
adds up to 2^-53 |log|x|| of relative error.  A step that cancels,
sum|terms| / |x| = c, can multiply the errors before it by up to c; the
engine logs the first c beyond 1e8.  On mixed-sign forcing with random
signs (log|H(n)| = 0.05 n + N(0, 1), N = 4000) the tests bound the error
by 1e-11 on [0.5, 0.3] and 5e-11 on [1.9, -0.95] against 40-digit
arithmetic, with every sign right, and a chain of one-step blocks by
twice the Toeplitz bound.  A block whose forcing fits room keeps ref, so
a solve whose blocks all fit it (geometric forcing, for one) is bitwise
that of sizing blocks by room alone, which the tests keep as a
reference.  Repeated calls of either engine are bitwise identical.

Every per-term loop (the plain recursion, with or without f, which the
log engine's per-term blocks run too) runs on Python floats, reading its
inputs with ``tolist`` and writing its results back into the numpy arrays
one chunk of ``_CHUNK`` steps at a time.  Python floats perform the same
IEEE-754 double operations as numpy float64 scalars, and the loops keep
their order, so the outputs are bitwise those of the numpy-scalar loops;
the tests keep the latter as the reference.  The block resolvent prefix
r[:B] and the block matrices R and Hk are each computed once per
``Kernel``, on the first solve that needs them, and
shared by every later solve with that kernel.  Every log-domain solve
reads r[:B] to size its blocks, but only a nonnegative kernel, whose
blocks the Toeplitz step may take, builds R and Hk there.  R and Hk take
8 (B^2 + min(B, M) M) bytes, 0.5 MB for M = 40 and 4.6 MB for M = 2000.
A lone-row group works in the row itself: beyond the row it holds one
value per block.  A batch whose rows do not all run blocks copies those
that do into one array, solves it and writes it back.

The forward recursion and the resolvent representation stay
algorithmically independent on purpose; their agreement is a mandatory
cross-check, not an assumption.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
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

    def resolvent_l1(self, horizon: int) -> float:
        """sum |r(n)| over n = 0..horizon, on the plain blocked engine.

        The engine solves for r from r(0) = 1 with zero forcing: r(n) is
        bitwise the per-term :func:`resolvent` where the per-term loop runs
        (a horizon below 256, or sum |k| > 1), and within the engine's
        scaled gap of it elsewhere (see the module docstring).  Only the
        per-term loop can overflow, since blocks keep |r| <= 1, so an
        overflow raises at the resolvent's own first non-finite index.
        """
        r = np.zeros((1, _solve_horizon(horizon, least=0) + 1))
        bad = _blocked_linear(self, r, 1.0)
        if bad[0] >= 0:
            raise TrajectoryOverflowError(int(bad[0]))
        return float(np.sum(np.abs(r[0])))

    @cached_property
    def _prefix(self):
        """The resolvent prefix r[:B] that sizes log-domain blocks; None if
        it overflows, which needs sum k > 1."""
        r = np.zeros(_BLOCK)
        if _linear_recursion(self.coefficients, r, 1.0, r) >= 0:
            return None
        r.flags.writeable = False
        return r

    @cached_property
    def _block_state(self):
        """(r[:B], R, Hk) of the Toeplitz block step, shared by every solve
        with this kernel that runs it; None if r[:B] overflows.  R and Hk
        take 8 (B^2 + min(B, M) M) bytes."""
        r = self._prefix
        return None if r is None else (r, *_toeplitz_matrices(self.coefficients, r))

    def at_scale(self, lam: float) -> "Kernel":
        """k(l) lam^(l+1) for lam in [0, 1]: its resolvent is r(j) lam^j, and
        its weights are at most |k(l)|, so the tail bound carries over."""
        if not 0.0 <= lam <= 1.0:
            raise InputError(f"lambda must lie in [0, 1], got {lam!r}")
        powers = float(lam) ** (np.arange(self.size) + 1)
        return Kernel(self.coefficients * powers, tail_bound=self.tail_bound)

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

    ``ratio_limit`` is the limit beta of f(x)/x as |x| -> infinity: 1 for
    every catalogue member but ``solow`` with delta > 0, whose limit is
    1 - delta; the equation linearises to the linear one on beta * k.
    """

    name: str
    fn: callable
    ratio_limit: float = 1.0

    def __call__(self, x: float) -> float:
        return self.fn(x)


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

    return Nonlinearity("solow", fn, ratio_limit=1.0 - delta)


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


# --------------------------------------------------------------------------
# per-term reference recursions: O(horizon * M) in the interpreter.  Each is
# the reference its domain's blocked engine below is held to, and runs that
# engine's short solves and fallbacks; the plain one is the whole of resolvent().
# --------------------------------------------------------------------------

# steps per chunk of the per-term loops: each chunk reads its inputs and the M
# values before it as Python floats, so a loop holds O(_CHUNK + M) of them
_CHUNK = 4096


def _chunks(lo, hi, m):
    """(start, stop, base) for the chunks [start, stop) of [lo, hi); base is
    max(start - m, 0), the first of the m history indices before the chunk."""
    for start in range(lo, hi, _CHUNK):
        yield start, min(start + _CHUNK, hi), max(start - m, 0)


def _linear_recursion(k, h, xi, out, f=None, lo=1, hi=None):
    """Set out[0] = xi and fill indices [lo, hi) of out from the values it
    holds before lo; return the first non-finite index, or -1.  With f, step
    n convolves over f(x(0..n)), evaluating f(x(n)) once if M >= 1; the
    window is for the linear loop, and with f the loop starts at index 1."""
    m = len(k)
    k = k.tolist()
    apply = f is not None and m > 0
    fn = f.fn if apply else None
    out[0] = xi
    y = []
    for start, stop, base in _chunks(lo, len(out) if hi is None else hi, m):
        x = out[base:start].tolist()
        # y[i] is what the convolution reads at x[i]: x[i], or f(x[i]) once step i ran
        y = y[len(y) - (start - 1 - base) :] if apply else x
        hh = h[start:stop].tolist()
        for n in range(start - 1, stop - 1):
            w = n + 1 if n + 1 < m else m
            i = n - base
            if apply:
                v = fn(x[i])
                if not math.isfinite(v):
                    raise NonlinearityError(
                        f"nonlinearity {f.name!r} returned non-finite value at input {x[i]!r}"
                    )
                y.append(float(v))
            acc = 0.0
            for l in range(w):
                acc += k[l] * y[i - l]
            val = acc + hh[n + 1 - start]
            x.append(val)
            if not math.isfinite(val):
                out[start : n + 2] = x[start - base :]
                return n + 1
        out[start:stop] = x[start - base :]
    return -1


# --------------------------------------------------------------------------
# plain-domain engine, and the Toeplitz block step both domains share
# --------------------------------------------------------------------------

# block length of both blocked engines, for a kernel of any length
_BLOCK = 256
# most and fewest whole blocks a lone plain row of a kernel of one term
# solves as one group.  A group costs one pass of B - 1 vector steps, 0.5 to
# 0.9 ms, and each block in it a few scalar steps in place of a B x B
# matrix-vector product of about 26 us, so fewer blocks than 24 to 32 run
# slower as a group; 48 runs 1.4x faster (BENCH_lone_rows.json).  A vector
# step reads one value per block at a stride of B doubles, which a group of
# more than about 1000 blocks no longer keeps in cache.  Carrying M > 1
# values the same way measured slower than the block step at 48 whole
# blocks from M = 10 on, and at every count tried for M = 100.  Lone rows
# use matrix-vector products only: a process's first matrix-matrix product
# maps about 0.25 MB of OpenBLAS code, and one of more than 4 rows a 0.4 MB
# packing buffer, which peak RSS then carries for the rest of the run
_GROUP = 512
_GROUP_MIN = 48
# a plain row of N values runs blocks only if B (N + 2) times its largest
# |input| is below this, which then bounds every value, product and partial
# sum of its solve, with a factor 2^24 to spare for rounding
_PLAIN_ROOM = 2.0**1000


def _reference_linear(k, h, xi, f=None):
    """x(0..len(h)-1) by the per-term recursion; raises on the first non-finite value."""
    out = np.empty(len(h))
    bad = _linear_recursion(k, h, xi, out, f)
    if bad >= 0:
        raise TrajectoryOverflowError(bad)
    return out


def _blocked_linear(kernel, x, xi):
    """Solve each row of a (P, N) array x in place, as a blocked unit
    lower-triangular Toeplitz solve; return each row's first non-finite index.

    On entry row p of x holds a forcing on 0..N-1 (index 0 is not read), on
    return its solution x(0..N-1) from the start ``xi``.  The returned
    bad[p] is -1, or the first non-finite index of row p; past it the row
    holds no meaningful values.  A row either provably cannot overflow and
    runs blocks, or runs the per-term loop throughout.  It runs blocks when
    sum |k| <= 1, which keeps |r(n)| <= 1 (r(n+1) = sum k(l) r(n-l) from
    r(0) = 1), P N > B, and B (N + 2) max(|xi|, max |H|) < ``_PLAIN_ROOM``:
    no value, product or partial sum of the solve exceeds that, since
    x = r xi + r * H.  The rows that run blocks solve every block
    [t, t+L), t = 1, 1 + B, ..., at once with ``_toeplitz_block``, from the
    history x[max(0, t - M):t], except the groups of whole blocks that a
    lone such row runs with ``_lone_row_blocks`` (see ``_lone_row_groups``).
    They are solved as a batch of their own, a copy if some rows do not
    run blocks, so the groups follow from their number, not from P.
    """
    k = kernel.coefficients
    x[:, 0] = xi
    fit = np.zeros(len(x), dtype=bool)
    if x.size > _BLOCK and kernel.l1_norm <= 1.0:
        # two reductions, and no full-size abs; a NaN or inf fails the test
        top = np.maximum(x.max(axis=1), -x.min(axis=1))
        fit = top < _PLAIN_ROOM / (_BLOCK * (x.shape[1] + 2))
    bad = np.array([-1 if ok else _linear_recursion(k, row, xi, row) for row, ok in zip(x, fit)])
    if not fit.any():
        return bad
    rows = x if fit.all() else x[fit]
    groups = _lone_row_groups(len(rows), len(k), rows.shape[1])
    t = 1
    while t < rows.shape[1]:
        if t in groups:
            _lone_row_blocks(kernel, rows[0], t, groups[t])
            t = groups[t]
            continue
        h = rows[:, t : t + _BLOCK]
        h[:] = _toeplitz_block(kernel._block_state, h, rows[:, max(0, t - len(k)) : t])
        t += _BLOCK
    if rows is not x:
        x[fit] = rows
    return bad


def _lone_row_groups(paths, m, n):
    """{lo: hi} for the groups [lo, hi) of whole blocks that a lone row of
    n values solves with ``_lone_row_blocks``: every whole block after the
    first, in groups of at most ``_GROUP`` blocks and of near-equal size,
    once a kernel of one term has at least ``_GROUP_MIN`` such blocks.
    The first block, whose history is x(0) alone, and the last, partial
    one run the block step."""
    whole = (n - 1) // _BLOCK - 1 if paths == 1 and m == 1 else 0
    if whole < _GROUP_MIN:
        return {}
    count = -(-whole // _GROUP)
    cuts = [1 + _BLOCK * (1 + whole * i // count) for i in range(count + 1)]
    return dict(zip(cuts, cuts[1:]))


def _lone_row_blocks(kernel, row, lo, hi):
    """Solve the whole blocks [lo, hi) of one row of the kernel [k0] in
    place from the value before lo.

    Only the last value of each block reaches the next.  Block i's last
    value is c_i + a e_i, with c_i = (R f_i)[-1] the part its forcing f_i
    makes, e_i the value before the block, and a = r(B - 1) k0.  One
    matrix-vector product gives c_i for every block and a loop carries
    them; then one pass over the other indices of a block runs the
    recursion x(n+1) = k0 x(n) + f(n+1) in all blocks at once.  The row
    runs blocks only once ``_blocked_linear`` has shown it cannot overflow.
    """
    f = row[lo:hi].reshape(-1, _BLOCK)
    k0 = kernel.coefficients[0]
    prefix, r, _ = kernel._block_state
    a, e = prefix[-1] * k0, row[lo - 1]
    last = f @ r[-1]
    for i in range(len(last)):
        e = last[i] = last[i] + a * e
    f[:, -1] = last
    # column j of block i is x(lo - 1 + i B + j): the value before the
    # block, then its first B - 1 values
    blocks = row[lo - 1 : hi - 1].reshape(-1, _BLOCK)
    for j in range(1, _BLOCK):
        blocks[:, j] += k0 * blocks[:, j - 1]


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

# most a block's scaled forcing may span below 1 in log, plus log sum|r[:B]|,
# so that its smallest scaled values stay normal doubles (exp(-600) ~ 1e-261);
# a block whose log|H| spans more than this room lowers its ref by the excess
_SPAN = 600.0
# largest log of a scaled |x| that a lowered ref may allow: exp(700) ~ 1e304
# stays a factor e^9.7 below overflow
_CEILING = 700.0
# smallest |x| / exp(ref) a block may hold, per unit of max|r[:B]| * (1 + sum|k|):
# inputs that underflow move x by less than 1e-25 of it
_FLOOR = 1e-280
# sum|terms| / |sum| of one log-domain step beyond which digits are reported lost
_CANCELLATION = 1e8


def _blocked_log_linear(kernel, lh, sh, xi):
    """(log|x|, sign x) on 0..len(lh)-1 as blocks of plain doubles times exp(ref).

    Every block [t, t+L), from t = 1 and the history x(0) = xi on, keeps
    the forcing's log-range within room + up: room = ``_SPAN`` -
    log sum|r[:B]| below 1 and up = ``_CEILING`` - log(sum|r[:B]| (1 +
    sum|k|)) above it, so an r[:B] that overflows gives one-step blocks.
    A block of more than one step with a nonnegative kernel, a finite
    r[:B] and sign-coherent inputs runs the plain Toeplitz step on its
    inputs times exp(-ref); a block whose spread s exceeds room lowers its
    ref by s - room <= up, so its scaled |x| stays at most
    exp(``_CEILING``), and every other block keeps ref, the largest
    log|.| among its forcing and history.  The outputs start as the
    forcing, so a block's M history values and its forcing are one slice,
    which each block overwrites with its solution from index t on.  A
    block the Toeplitz step does not take runs ``_per_term_block`` with
    the same ref, and the first cancellation beyond ``_CANCELLATION`` in
    those blocks is logged once per solve.
    """
    k = kernel.coefficients
    n = len(lh)
    out_l, out_s = lh.copy(), sh.copy()
    out_l[0], out_s[0] = ((math.log(abs(xi)), math.copysign(1.0, xi)) if xi != 0.0
                          else (-np.inf, 0.0))
    prefix = kernel._prefix
    # an r[:B] that overflows leaves no prefix, and its sum and maximum are inf
    r = np.abs(prefix) if prefix is not None else np.array([np.inf])
    toeplitz = kernel._block_state if np.all(k >= 0.0) else None
    room = _SPAN - math.log(np.sum(r))
    up = max(0.0, _CEILING - math.log(np.sum(r) * (1.0 + np.sum(np.abs(k)))))
    floor = _FLOOR * np.max(r) * (1.0 + np.sum(np.abs(k)))
    # sign 0 exactly where log|H| = -inf, so lh is its own maximum over the
    # nonzero forcing, and ``low`` its minimum
    low = np.where(sh != 0.0, lh, np.inf)
    lossy = None
    t = 1
    with np.errstate(under="ignore", over="ignore", invalid="ignore", divide="ignore"):
        while t < n:
            # longest run [t, t+L) whose nonzero forcing stays within room + up
            # in log|H|; the spread never decreases along the run
            spread = (np.maximum.accumulate(lh[t : t + _BLOCK])
                      - np.minimum.accumulate(low[t : t + _BLOCK]))
            size = max(1, int(spread.searchsorted(room + up, "right")))
            shift = max(0.0, spread[size - 1] - room)
            if size == 1 or toeplitz is None or not _scaled_block(
                    toeplitz, out_l, out_s, t, t + size, max(0, t - len(k)), floor, shift):
                # capped at up: an r[:B] that overflows makes room -inf and shift inf
                found = _per_term_block(k, out_l, out_s, t, t + size, floor, min(shift, up))
                if found and not lossy:
                    lossy = found
                    logger.warning(
                        "log-domain cancellation at index %d: sum|terms|/|sum| = %.3g, "
                        "about %.1f digits lost", lossy[0], lossy[1], math.log10(lossy[1])
                    )
            t += size
    return out_l, out_s


def _per_term_block(k, out_l, out_s, lo, hi, floor, shift):
    """Solve [lo, hi) by the per-term loop on plain doubles times exp(ref).

    On entry [lo, hi) of ``out_l`` and ``out_s`` holds the forcing, and the
    M values before lo the solution.  ref is the largest log|.| among them,
    less ``shift`` >= 0, as for a Toeplitz block.  A block of more than one
    step solves its two halves in turn instead, with the same shift, when a
    scaled output is non-finite, nonzero below ``floor``, or zero while a
    nonzero input fell below the floor: an output at or above it moves by
    less than 1e-25 of itself with the inputs that underflow, and a zero
    output is exact.  A one-step block is kept as it comes out, and raises
    on a non-finite value.  Returns (index, sum|terms| / |sum|) at the
    block's first step whose ratio exceeds ``_CANCELLATION``, or None; a
    sum that cancels to exactly zero is not counted.  The caller silences
    numpy's floating-point warnings.
    """
    past = max(0, lo - len(k))
    logs, signs = out_l[past:hi], out_s[past:hi]
    ref = logs.max() - shift
    if ref == -np.inf:
        return None  # zero history and forcing: the block stays zero
    # h holds the scaled history, then the forcing; the loop overwrites x from lo - past on
    h = signs * np.exp(logs - ref)
    x = h.copy()
    bad = _linear_recursion(k, h, x[0], x, lo=lo - past)
    y = x[lo - past :]
    mag = np.abs(y)
    if hi - lo > 1 and (bad >= 0 or np.any((mag < floor) & (y != 0.0)) or (
            not mag.all() and np.any((np.abs(h) < floor) & (signs != 0.0)))):
        mid = (lo + hi) // 2
        first = _per_term_block(k, out_l, out_s, lo, mid, floor, shift)
        second = _per_term_block(k, out_l, out_s, mid, hi, floor, shift)
        return first or second
    if bad >= 0:
        raise TrajectoryOverflowError(past + bad)
    out_l[lo:hi] = np.log(mag) + ref
    out_s[lo:hi] = np.sign(y)
    terms = np.abs(h[lo - past :])
    if len(k):
        terms += np.convolve(np.abs(k), np.abs(x))[lo - past - 1 : hi - past - 1]
    lossy = np.flatnonzero((terms > _CANCELLATION * mag) & (mag > 0.0))
    return (lo + int(lossy[0]), terms[lossy[0]] / mag[lossy[0]]) if lossy.size else None


def _scaled_block(state, out_l, out_s, lo, hi, past, floor, shift):
    """Solve [lo, hi) as plain doubles times exp(ref); False if it must run per term.

    ``out_l[past:hi]`` and ``out_s[past:hi]`` hold the block's history, the
    solution on [past, lo), then its forcing; a solved block overwrites
    the forcing.  ref is the largest log|.| among them, less ``shift`` >= 0.
    The caller silences numpy's floating-point warnings.
    """
    l, s = out_l[past:hi], out_s[past:hi]
    # signs are -1, 0 or +1: a nonzero forcing or history value of each sign
    if s.max() - s.min() == 2.0:
        return False
    # an all-zero block gives ref = -inf and NaN below, so it runs per term
    ref = l.max() - shift
    v = np.exp(l - ref)
    v *= s
    x = _toeplitz_block(state, v[lo - past :], v[: lo - past])
    mag = np.abs(x)
    if not (mag.min() >= floor and mag.max() < np.inf):
        return False
    np.log(mag, out=l[lo - past :])
    l[lo - past :] += ref
    np.sign(x, out=s[lo - past :])
    return True


# --------------------------------------------------------------------------
# forcing alignment
# --------------------------------------------------------------------------

def _solve_horizon(horizon, xi=0.0, least=1) -> int:
    """A solve's horizon as an int, once it is an integer >= ``least`` and
    ``xi`` is finite: a forced solve needs index 1, a resolvent only index 0."""
    if int(horizon) != horizon or horizon < least:
        raise InputError(f"horizon must be an integer >= {least}, got {horizon!r}")
    if not math.isfinite(xi):
        raise InputError("initial value must be finite")
    return int(horizon)


def _placeholder_forcing(h, log_domain):
    """H on 1..N as arrays on 0..N, with the placeholder H(0) = 0 the
    recursion never reads: a float array, or (log|H|, sign H) when ``log_domain``."""
    if log_domain:
        h = h.to_log()
        return np.concatenate(([-np.inf], h.log_abs)), np.concatenate(([0.0], h.sign))
    return np.concatenate(([0.0], h.to_plain().values))


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
    return horizon, _placeholder_forcing(forcing.window(1, horizon), log_domain)


# --------------------------------------------------------------------------
# solvers
# --------------------------------------------------------------------------

def solve_linear(kernel: Kernel, forcing, xi: float, horizon: int):
    """Advance the forced linear recursion to ``horizon``.

    Returns a Trajectory on indices 0..horizon, or a LogTrajectory, solved
    in log form, when the forcing is one.  The forcing must cover indices
    1..horizon; a nonzero value at index 0 is ignored with a logged warning.
    """
    if isinstance(forcing, LogTrajectory):
        horizon, (lh, sh) = _aligned_forcing(forcing, horizon, xi, log_domain=True)
        out_l, out_s = _blocked_log_linear(kernel, lh, sh, float(xi))
        return LogTrajectory(out_l, out_s, start=0)
    horizon, x = _aligned_forcing(forcing, horizon, xi)
    bad = _blocked_linear(kernel, x[None], float(xi))
    if bad[0] >= 0:
        raise TrajectoryOverflowError(int(bad[0]))
    return Trajectory(x, start=0)


def resolvent(kernel: Kernel, horizon: int) -> Trajectory:
    """Unforced solution r with r(0) = 1 on indices 0..horizon."""
    zero = np.zeros(_solve_horizon(horizon, least=0) + 1)
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
    # (k * x)(n) for the indices n of x, by direct convolution
    conv = np.convolve(kernel.coefficients, x)[: len(x)] if kernel.size else np.zeros(len(x))
    return Trajectory(x[1:] - conv[:-1], start=1)


def solve_nonlinear(kernel: Kernel, f: Nonlinearity, forcing, xi: float, horizon: int) -> Trajectory:
    """Advance x(n+1) = sum k(n-j) f(x(j)) + H(n+1) with x(0) = xi.

    The per-term reference recursion with f applied to the values its
    convolution reads: f sees x(0..horizon-1), never x(horizon), and with
    M = 0 nothing at all.  Repeated calls give bitwise-identical output.
    """
    horizon, h = _aligned_forcing(forcing, horizon, xi)
    return Trajectory(_reference_linear(kernel.coefficients, h, float(xi), f), start=0)
