import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_lab.exceptions import InputError, UndefinedRatioError
from volterra_lab.series import (
    LogTrajectory,
    Trajectory,
    burn_in_start,
    consecutive_ratios,
    dyadic_blocks,
    median,
    percentile,
    ratio_series,
    tail,
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
    late = tail(t)
    assert late.start == 6 and list(late.values) == [6.0, 7.0]
    late = tail(t.to_log(), least=3)
    assert late.start == 5 and np.array_equal(late.log_abs, np.log([5.0, 6.0, 7.0]))
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


@pytest.mark.parametrize("form", [Trajectory.to_plain, Trajectory.to_log], ids=["plain", "log"])
def test_ratio_overflow_is_one_input_error_in_both_forms(form):
    # index 2 of each ratio is 1e300 / 1e-10, past double range; with
    # RuntimeWarning an error, a leaked numpy warning fails this test first
    num = form(Trajectory([1.0, 1.0, 1e300]))
    den = form(Trajectory([1.0, 1.0, 1e-10]))
    with pytest.raises(InputError, match="ratio overflows plain representation at index 2"):
        ratio_series(num, den)
    with pytest.raises(InputError, match="ratio overflows plain representation at index 2"):
        consecutive_ratios(form(Trajectory([1.0, 1e300, 1e-10])))


def test_consecutive_ratios_geometric():
    g = Trajectory(2.0 ** np.arange(10))
    r = consecutive_ratios(g)
    assert r.start == 1
    assert np.allclose(r.values, 0.5)


def test_consecutive_ratios_zero_error():
    with pytest.raises(UndefinedRatioError, match="zero denominator at index 2"):
        consecutive_ratios(Trajectory([1.0, 0.0, 2.0], start=1))


@pytest.mark.parametrize("seed", range(20))
def test_consecutive_ratios_match_direct_division(seed):
    # direct slice division, in plain and in log form, is the bitwise reference
    rng = np.random.default_rng(seed)
    g = Trajectory(rng.standard_normal(50) * np.exp(rng.uniform(-5, 5, 50)), start=seed)
    log = g.to_log()
    assert np.array_equal(consecutive_ratios(g).values, g.values[:-1] / g.values[1:])
    reference = log.sign[:-1] * log.sign[1:] * np.exp(log.log_abs[:-1] - log.log_abs[1:])
    ratios = consecutive_ratios(log)
    assert ratios.start == seed + 1 and np.array_equal(ratios.values, reference)


@pytest.mark.parametrize("lo_base", [0, 10**6 - 20])
def test_burn_in_start_is_the_first_quarter_rounded_up(lo_base):
    for lo in range(lo_base, lo_base + 40):
        for hi in range(lo, lo_base + 40):
            assert burn_in_start(lo, hi) == min(lo + math.ceil((hi - lo + 1) / 4), hi)


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


# few distinct values make ties; signed zeros, infinities and NaN are the
# values where a sum from +0.0 or a lerp could part from numpy's
_order_values = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]),
              st.floats(allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=24,
)


def _bitwise(got, expected):
    return np.array(got).tobytes() == np.array(expected).tobytes() or (
        np.isnan(got) and np.isnan(expected))


@settings(max_examples=300, deadline=None)
@given(_order_values)
def test_median_is_bitwise_np_median(values):
    a = np.array(values)
    with np.errstate(invalid="ignore", over="ignore"):
        for part in (a, a[1:]):  # odd and even sizes of the same data
            if part.size:
                assert _bitwise(median(part), np.median(part))


@settings(max_examples=300, deadline=None)
@given(_order_values, st.sampled_from([0, 10, 25, 50, 75, 90, 100]))
def test_percentile_is_bitwise_np_percentile(values, q):
    a = np.array(values)
    with np.errstate(invalid="ignore", over="ignore"):
        assert _bitwise(percentile(a, q), np.percentile(a, q))
