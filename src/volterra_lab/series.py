"""Finite indexed real sequences, in plain and signed log-magnitude form.

A :class:`Trajectory` stores value(n) contiguously for start <= n <= end.
Solutions that grow past double range are carried as a :class:`LogTrajectory`,
which keeps sign(n) in {-1, 0, +1} and log|value(n)| instead (log magnitude
``-inf`` encodes an exact zero).  Both forms are treated as immutable once
constructed; every operation returns a new object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InputError, UndefinedRatioError

__all__ = [
    "Trajectory",
    "LogTrajectory",
    "overlap_range",
    "tail_count",
    "ratio_series",
    "consecutive_ratios",
    "abs_log_series",
    "dyadic_blocks",
]


@dataclass(frozen=True)
class Trajectory:
    """A finite real sequence value(n) for ``start <= n <= start + len - 1``.

    All stored values must be finite; a NaN or infinity is an error state
    and is rejected at construction, naming the offending index.
    """

    values: np.ndarray
    start: int = 0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise InputError("trajectory values must be one-dimensional")
        if self.start < 0 or int(self.start) != self.start:
            raise InputError(f"start index must be a nonnegative integer, got {self.start}")
        object.__setattr__(self, "start", int(self.start))
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise InputError(
                f"non-finite value at index {self.start + int(bad[0])}"
            )

    def __len__(self):
        return len(self.values)

    @property
    def end(self) -> int:
        return self.start + len(self.values) - 1

    def indices(self) -> np.ndarray:
        return np.arange(self.start, self.end + 1)

    def value(self, n: int) -> float:
        if not self.start <= n <= self.end:
            raise InputError(f"index {n} outside stored range [{self.start}, {self.end}]")
        return float(self.values[n - self.start])

    def window(self, lo: int, hi: int) -> "Trajectory":
        """Values on [lo, hi] inclusive; bounds must lie in the stored range."""
        if lo < self.start or hi > self.end or lo > hi:
            raise InputError(f"window [{lo}, {hi}] outside stored range [{self.start}, {self.end}]")
        return Trajectory(self.values[lo - self.start : hi - self.start + 1], start=lo)

    def tail_window(self, fraction: float = 0.25) -> "Trajectory":
        """The final ``fraction`` of stored indices (at least one point)."""
        count = tail_count(len(self.values), fraction)
        return Trajectory(self.values[-count:], start=self.end - count + 1)

    def to_plain(self) -> "Trajectory":
        return self

    def to_log(self) -> "LogTrajectory":
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(self.values))
        return LogTrajectory(log_abs=log_abs, sign=np.sign(self.values), start=self.start)


@dataclass(frozen=True)
class LogTrajectory:
    """Signed log-magnitude form: value(n) = sign(n) * exp(log_abs(n)).

    ``log_abs`` entries may be finite or -inf (exact zero, sign 0); +inf and
    NaN are rejected.  Signs are stored as floats in {-1.0, 0.0, +1.0}.
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
        if self.start < 0 or int(self.start) != self.start:
            raise InputError(f"start index must be a nonnegative integer, got {self.start}")
        object.__setattr__(self, "start", int(self.start))
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
    def from_log(cls, log_abs, sign=None, start: int = 0) -> "LogTrajectory":
        la = np.asarray(log_abs, dtype=np.float64)
        if sign is None:
            sign = np.where(la == -np.inf, 0.0, 1.0)
        return cls(log_abs=la, sign=np.asarray(sign, dtype=np.float64), start=start)

    def __len__(self):
        return len(self.log_abs)

    @property
    def end(self) -> int:
        return self.start + len(self.log_abs) - 1

    def indices(self) -> np.ndarray:
        return np.arange(self.start, self.end + 1)

    def window(self, lo: int, hi: int) -> "LogTrajectory":
        if lo < self.start or hi > self.end or lo > hi:
            raise InputError(f"window [{lo}, {hi}] outside stored range [{self.start}, {self.end}]")
        sl = slice(lo - self.start, hi - self.start + 1)
        return LogTrajectory(self.log_abs[sl], self.sign[sl], start=lo)

    def to_log(self) -> "LogTrajectory":
        return self

    def to_plain(self) -> Trajectory:
        """Materialise plain values.

        This is the package's one double-range rule: a magnitude above
        e^709 is refused, whatever the sequence is.
        """
        if np.any(self.log_abs > 709.0):
            idx = self.start + int(np.flatnonzero(self.log_abs > 709.0)[0])
            raise InputError(
                f"log magnitude at index {idx} too large for plain representation; "
                "run with log_domain=True"
            )
        return Trajectory(self.sign * np.exp(self.log_abs), start=self.start)


def tail_count(length: int, fraction: float) -> int:
    """How many of ``length`` points make up the final ``fraction``: at least one."""
    return max(1, int(round(fraction * length)))


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
    moderate ratio divide cleanly.  A zero denominator raises.
    """
    lo, hi = overlap_range(num, den)
    if isinstance(num, Trajectory) and isinstance(den, Trajectory):
        d = den.window(lo, hi).values
        if np.any(d == 0.0):
            idx = lo + int(np.flatnonzero(d == 0.0)[0])
            raise UndefinedRatioError(f"zero denominator at index {idx}")
        return Trajectory(num.window(lo, hi).values / d, start=lo)
    nl, ns = _log_parts(num, lo, hi)
    dl, ds = _log_parts(den, lo, hi)
    if np.any(ds == 0.0):
        idx = lo + int(np.flatnonzero(ds == 0.0)[0])
        raise UndefinedRatioError(f"zero denominator at index {idx}")
    vals = ns * ds * np.exp(nl - dl)
    if np.any(~np.isfinite(vals)):
        idx = lo + int(np.flatnonzero(~np.isfinite(vals))[0])
        raise InputError(f"ratio overflows plain representation at index {idx}")
    return Trajectory(vals, start=lo)


def consecutive_ratios(g) -> Trajectory:
    """g(n-1)/g(n) for n in [start+1, end].

    Plain trajectories divide directly (exact for exact powers); log-form
    inputs go through log differences so astronomically large magnitudes
    never overflow.
    """
    lo, hi = g.start, g.end
    if hi - lo < 1:
        raise InputError("need at least two points for consecutive ratios")
    if isinstance(g, Trajectory):
        denom = g.values[1:]
        if np.any(denom == 0.0):
            idx = lo + 1 + int(np.flatnonzero(denom == 0.0)[0])
            raise UndefinedRatioError(f"zero value at index {idx}")
        return Trajectory(g.values[:-1] / denom, start=lo + 1)
    gl, gs = _log_parts(g, lo, hi)
    if np.any(gs[1:] == 0.0):
        idx = lo + 1 + int(np.flatnonzero(gs[1:] == 0.0)[0])
        raise UndefinedRatioError(f"zero value at index {idx}")
    vals = gs[:-1] * gs[1:] * np.exp(gl[:-1] - gl[1:])
    if np.any(~np.isfinite(vals)):
        idx = lo + 1 + int(np.flatnonzero(~np.isfinite(vals))[0])
        raise InputError(f"ratio overflows plain representation at index {idx}")
    return Trajectory(vals, start=lo + 1)


def abs_log_series(series) -> Trajectory:
    """log|value(n)| as a plain trajectory (entries may be very negative).

    Exact zeros are mapped to -745 (below any attainable double log) so the
    result stays a finite-valued trajectory.
    """
    la = series.to_log().log_abs
    return Trajectory(np.where(la == -np.inf, -745.0, la), start=series.start)


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
