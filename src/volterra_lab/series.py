"""Finite indexed real sequences, in plain and signed log-magnitude form.

A :class:`Trajectory` stores value(n) contiguously for start <= n <= end.
Solutions that grow past double range are carried as a :class:`LogTrajectory`,
which keeps sign(n) in {-1, 0, +1} and log|value(n)| instead (log magnitude
``-inf`` encodes an exact zero).  Both forms are treated as immutable once
constructed; every operation returns a new object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import InputError, UndefinedRatioError

__all__ = [
    "Trajectory",
    "LogTrajectory",
    "overlap_range",
    "tail",
    "median",
    "percentile",
    "ratio_series",
    "consecutive_ratios",
    "burn_in_start",
    "abs_log_series",
    "dyadic_blocks",
]

_LOG_DOUBLE_MAX = 709.0  # largest log|value| of a plain double: e^709 < DBL_MAX ~ e^709.78


class _Indexed:
    """The index range start..end of len(self) values that both forms store."""

    @classmethod
    def _from_valid(cls, *parts, start=0):
        """The form of ``parts`` and ``start`` with no check: for parts already
        known to be valid, as the result of an operation on a checked form is
        (float64 arrays of one dimension, an integer start >= 0)."""
        self = object.__new__(cls)
        for name, value in zip(cls.__dataclass_fields__, (*parts, start)):
            object.__setattr__(self, name, value)
        return self

    def _check_start(self):
        if self.start < 0 or int(self.start) != self.start:
            raise InputError(f"start index must be a nonnegative integer, got {self.start}")
        object.__setattr__(self, "start", int(self.start))

    @property
    def end(self) -> int:
        return self.start + len(self) - 1

    def indices(self) -> np.ndarray:
        return np.arange(self.start, self.end + 1)

    def _window_slice(self, lo: int, hi: int) -> slice:
        """The stored positions of [lo, hi] inclusive; bounds must lie in the stored range."""
        if lo < self.start or hi > self.end or lo > hi:
            raise InputError(f"window [{lo}, {hi}] outside stored range [{self.start}, {self.end}]")
        return slice(lo - self.start, hi - self.start + 1)


@dataclass(frozen=True)
class Trajectory(_Indexed):
    """A finite real sequence value(n) for ``start <= n <= start + len - 1``.

    All stored values must be finite; a NaN or infinity is an error state
    and is rejected at construction, naming the offending index.  The check
    runs where values enter: the constructor and ``dataclasses.replace``.  A
    window, ``LogTrajectory.to_plain`` and the package's own results built
    from checked values are not checked again.
    """

    values: np.ndarray
    start: int = 0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise InputError("trajectory values must be one-dimensional")
        self._check_start()
        if not np.isfinite(vals).all():
            bad = np.flatnonzero(~np.isfinite(vals))
            raise InputError(f"non-finite value at index {self.start + int(bad[0])}")

    def __len__(self):
        return len(self.values)

    def value(self, n: int) -> float:
        if not self.start <= n <= self.end:
            raise InputError(f"index {n} outside stored range [{self.start}, {self.end}]")
        return float(self.values[n - self.start])

    def window(self, lo: int, hi: int) -> "Trajectory":
        """Values on [lo, hi] inclusive; bounds must lie in the stored range."""
        return Trajectory._from_valid(self.values[self._window_slice(lo, hi)], start=int(lo))

    def to_plain(self) -> "Trajectory":
        return self

    def to_log(self) -> "LogTrajectory":
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(self.values))
        return LogTrajectory._from_valid(log_abs, np.sign(self.values), start=self.start)


@dataclass(frozen=True)
class LogTrajectory(_Indexed):
    """Signed log-magnitude form: value(n) = sign(n) * exp(log_abs(n)).

    ``log_abs`` entries may be finite or -inf (exact zero, sign 0); +inf and
    NaN are rejected.  Signs are stored as floats in {-1.0, 0.0, +1.0}.  As
    for :class:`Trajectory`, the constructor and ``dataclasses.replace``
    check; a window and ``Trajectory.to_log`` of checked values do not.
    """

    log_abs: np.ndarray
    sign: np.ndarray
    start: int = 0

    def __post_init__(self):
        la = np.asarray(self.log_abs, dtype=np.float64)
        sg = np.asarray(self.sign, dtype=np.float64)
        object.__setattr__(self, "log_abs", la)
        object.__setattr__(self, "sign", sg)
        if la.shape != sg.shape or la.ndim != 1:
            raise InputError("log_abs and sign must be one-dimensional with equal length")
        self._check_start()
        bad = np.flatnonzero(np.isnan(la) | (la == np.inf))
        if bad.size:
            raise InputError(f"invalid log magnitude at index {self.start + int(bad[0])}")
        if not np.all(np.isin(sg, (-1.0, 0.0, 1.0))):
            raise InputError("signs must be -1, 0, or +1")
        zero_mismatch = (sg == 0.0) != (la == -np.inf)
        if np.any(zero_mismatch):
            idx = self.start + int(np.flatnonzero(zero_mismatch)[0])
            raise InputError(f"sign/zero mismatch at index {idx}")

    @classmethod
    def from_log(cls, log_abs, start: int = 0) -> "LogTrajectory":
        """The nonnegative sequence exp(log_abs): sign 0 where log_abs is -inf, else +1."""
        la = np.asarray(log_abs, dtype=np.float64)
        return cls(log_abs=la, sign=np.where(la == -np.inf, 0.0, 1.0), start=start)

    def __len__(self):
        return len(self.log_abs)

    def window(self, lo: int, hi: int) -> "LogTrajectory":
        sl = self._window_slice(lo, hi)
        return LogTrajectory._from_valid(self.log_abs[sl], self.sign[sl], start=int(lo))

    def to_log(self) -> "LogTrajectory":
        return self

    def to_plain(self) -> Trajectory:
        """Materialise plain values.

        This is the package's one double-range rule: a magnitude above
        e^709 (``_LOG_DOUBLE_MAX``) is refused, whatever the sequence is.
        """
        if np.any(self.log_abs > _LOG_DOUBLE_MAX):
            idx = self.start + int(np.flatnonzero(self.log_abs > _LOG_DOUBLE_MAX)[0])
            raise InputError(
                f"log magnitude at index {idx} too large for plain representation; "
                "run with log_domain=True"
            )
        return Trajectory._from_valid(self.sign * np.exp(self.log_abs), start=self.start)


def tail(g, least: int = 1):
    """The tail window of g, plain or log: the package's stand-in for n -> infinity.

    It is the final quarter of g's indices, rounded, and at least ``least``
    of them where g has that many.
    """
    count = max(least, int(round(0.25 * len(g))))
    return g.window(max(g.start, g.end - count + 1), g.end)


def median(values) -> float:
    """np.median of a 1-d float array, bitwise, by one np.partition.

    np.median and np.percentile import numpy.ma (about 11 ms) at their
    first call; these two helpers leave it out of every run.
    """
    n = values.size
    h = n // 2
    part = np.partition(values, [h - 1, h, -1] if n % 2 == 0 else [h, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    # np.median takes the mean of the middle one or two: a sum from +0.0, over the count
    if n % 2:
        return float(part[h] + 0.0)
    return float((part[h - 1] + part[h] + 0.0) / 2)


def percentile(values, q) -> float:
    """np.percentile(values, q) of a 1-d float array with the default linear method, bitwise."""
    n = values.size
    v = (n - 1) * (q / 100)
    # numpy's indices: floor(v) and the next one, both the last past n - 1
    lo = hi = -1
    if v < n - 1:
        lo = math.floor(v)
        hi = lo + 1
    # numpy's kth set: which of two equal values, say 0.0 and -0.0, lands where depends on it
    part = np.partition(values, sorted({0, n - 1, lo % n, hi % n}))
    if np.isnan(part[-1]):
        return float(part[-1])
    a, b, t = part[lo], part[hi], v - lo
    diff = b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


def overlap_range(a, b) -> tuple:
    """Common index range of two series; raises if empty."""
    lo = max(a.start, b.start)
    hi = min(a.end, b.end)
    if lo > hi:
        raise InputError("series index ranges do not overlap")
    return lo, hi


def _log_parts(series, lo, hi):
    w = series.window(lo, hi).to_log()
    return w.log_abs, w.sign


def ratio_series(num, den) -> Trajectory:
    """Pointwise num(n)/den(n) over the common index range.

    Works for any mix of plain and log-form inputs; the division is carried
    out in log space so that two astronomically large sequences with a
    moderate ratio divide cleanly.  A zero denominator raises, and so does
    a ratio beyond double range.
    """
    lo, hi = overlap_range(num, den)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if isinstance(num, Trajectory) and isinstance(den, Trajectory):
            d = den.window(lo, hi).values
            vals = num.window(lo, hi).values / d
        else:
            nl, ns = _log_parts(num, lo, hi)
            dl, d = _log_parts(den, lo, hi)
            vals = ns * d * np.exp(nl - dl)
    if np.any(d == 0.0):
        idx = lo + int(np.flatnonzero(d == 0.0)[0])
        raise UndefinedRatioError(f"zero denominator at index {idx}")
    if np.any(~np.isfinite(vals)):
        idx = lo + int(np.flatnonzero(~np.isfinite(vals))[0])
        raise InputError(f"ratio overflows plain representation at index {idx}")
    return Trajectory(vals, start=lo)


def consecutive_ratios(g) -> Trajectory:
    """g(n-1)/g(n) for n in [start+1, end], in g's own form.

    The ratio series of g shifted one index on against g itself, over
    their common range; a zero or a ratio beyond double range raises as in
    :func:`ratio_series`.
    """
    if len(g) < 2:
        raise InputError("need at least two points for consecutive ratios")
    return ratio_series(replace(g, start=g.start + 1), g)


def burn_in_start(lo: int, hi: int) -> int:
    """First index after the burn-in of [lo, hi]: its first quarter, rounded up, clipped to hi."""
    return min(lo + -(-(hi - lo + 1) // 4), hi)


def abs_log_series(series) -> Trajectory:
    """log|value(n)| as a plain trajectory (entries may be very negative).

    Exact zeros are mapped to -745 (below any attainable double log) so the
    result stays a finite-valued trajectory.
    """
    la = series.to_log().log_abs
    return Trajectory._from_valid(np.where(la == -np.inf, -745.0, la), start=series.start)


def dyadic_blocks(start: int, end: int) -> list:
    """Dyadic index blocks ending at ``end``, newest last.

    Returns [(lo_m, hi_m), ...] with hi_0 = end, hi_{m+1} = end // 2**(m+1),
    lo_m = hi_{m+1} + 1, clipped to ``start``.  Blocks shorter than one point
    are dropped.
    """
    if end < start:
        raise InputError("empty index range")
    blocks = []
    hi = end
    while hi >= start:
        lo = min(max(hi // 2 + 1, start), hi)
        blocks.append((lo, hi))
        if lo <= start:
            break
        hi = lo - 1
    blocks.reverse()
    return blocks
