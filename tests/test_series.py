import math

import numpy as np
import pytest

from volterra_lab.exceptions import InputError, UndefinedRatioError
from volterra_lab.series import (
    LogTrajectory,
    Trajectory,
    consecutive_ratios,
    dyadic_blocks,
    ratio_series,
)


def test_trajectory_basic_indexing():
    t = Trajectory([1.0, 2.0, 3.0], start=5)
    assert len(t) == 3
    assert t.end == 7
    assert t.value(6) == 2.0
    assert list(t.indices()) == [5, 6, 7]


def test_trajectory_rejects_non_finite():
    with pytest.raises(InputError, match="index 2"):
        Trajectory([1.0, 2.0, np.nan])
    with pytest.raises(InputError, match="index 4"):
        Trajectory([1.0, np.inf], start=3)


def test_trajectory_window_and_tail():
    t = Trajectory(np.arange(8.0))
    assert list(t.window(2, 4).values) == [2.0, 3.0, 4.0]
    tail = t.tail_window(0.25)
    assert tail.start == 6 and list(tail.values) == [6.0, 7.0]
    with pytest.raises(InputError):
        t.window(0, 99)


def test_log_round_trip():
    t = Trajectory([-2.0, 0.0, 3.5])
    lt = t.to_log()
    assert lt.sign[1] == 0.0 and lt.log_abs[1] == -np.inf
    back = lt.to_plain()
    assert np.allclose(back.values, t.values)


def test_log_trajectory_rejects_mismatched_zero():
    with pytest.raises(InputError, match="sign/zero"):
        LogTrajectory(np.array([0.0]), np.array([0.0]))


def test_log_trajectory_overflow_guard():
    lt = LogTrajectory.from_log(np.array([800.0]))
    with pytest.raises(InputError, match="too large"):
        lt.to_plain()


def test_ratio_series_plain_and_log():
    num = Trajectory([2.0, 4.0, 8.0])
    den = Trajectory([1.0, 2.0, 2.0])
    assert list(ratio_series(num, den).values) == [2.0, 2.0, 4.0]
    # huge magnitudes divide cleanly in log form
    big = LogTrajectory.from_log(np.array([1000.0, 1001.0]))
    ref = LogTrajectory.from_log(np.array([999.0, 1000.0]))
    vals = ratio_series(big, ref).values
    assert np.allclose(vals, math.e)


def test_ratio_series_zero_denominator():
    with pytest.raises(UndefinedRatioError, match="index 1"):
        ratio_series(Trajectory([1.0, 1.0]), Trajectory([1.0, 0.0]))


def test_consecutive_ratios_geometric():
    g = Trajectory(2.0 ** np.arange(10))
    r = consecutive_ratios(g)
    assert r.start == 1
    assert np.allclose(r.values, 0.5)


def test_consecutive_ratios_zero_error():
    with pytest.raises(UndefinedRatioError):
        consecutive_ratios(Trajectory([1.0, 0.0, 2.0]))


def test_dyadic_blocks_cover_range():
    blocks = dyadic_blocks(0, 100)
    assert blocks[-1] == (51, 100)
    assert blocks[-2] == (26, 50)
    flat = [n for lo, hi in blocks for n in range(lo, hi + 1)]
    assert flat == list(range(0, 101))


def test_dyadic_blocks_respect_start():
    blocks = dyadic_blocks(30, 100)
    assert blocks[0][0] == 30
    assert blocks[-1] == (51, 100)
