import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_lab import core, stochastic
from volterra_lab.asymptotics import ScalingModel, make_phi
from volterra_lab.core import (
    _BLOCK,
    _FLOOR,
    _SPAN,
    Kernel,
    _kernel_log,
    _linear_recursion,
    _log_linear_recursion,
    _toeplitz_block,
    make_nonlinearity,
    recover_forcing,
    resolvent,
    solve_by_representation,
    solve_linear,
    solve_nonlinear,
)
from volterra_lab.exceptions import (
    InputError,
    NonlinearityError,
    ParameterError,
    TrajectoryOverflowError,
    UndefinedRatioError,
)
from volterra_lab.series import LogTrajectory, Trajectory
from volterra_lab.stochastic import (
    EnsembleSpec,
    ForcingGenerator,
    StatisticSpec,
    ensemble_verify,
    generate,
    make_tail_model,
)


def traj(values, start=0):
    return Trajectory(np.asarray(values, dtype=float), start=start)


def ramp(n):
    # H(n) = n on indices 0..n
    return traj(np.arange(n + 1, dtype=float))


class TestKernel:
    def test_l1_and_size(self):
        k = Kernel([0.5, -0.25])
        assert k.size == 2
        assert k.l1_norm == 0.75
        assert not np.all(k.coefficients >= 0.0)

    def test_zero_kernel_is_empty(self):
        assert Kernel.zero().size == 0
        assert Kernel.zero().l1_norm == 0.0

    def test_geometric_tail_bound(self):
        k = Kernel.geometric(0.3, 0.5, 40)
        assert np.isclose(k.coefficients[3], 0.3 * 0.5 ** 3)
        assert 0 < k.tail_bound < 1e-11

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            Kernel([1.0, np.nan])

    def test_equality_and_hash_by_value(self):
        a, b = Kernel([0.5, 0.25]), Kernel(np.array([0.5, 0.25]))
        assert a == b and hash(a) == hash(b)
        assert a != Kernel([0.5, 0.25], tail_bound=1e-3)
        assert a != Kernel([0.5, 0.25, 0.0]) and a != Kernel([0.5])
        assert Kernel([0.0]) == Kernel([-0.0])
        assert hash(Kernel([0.0])) == hash(Kernel([-0.0]))
        assert Kernel.geometric(0.3, 0.5, 40) == Kernel.geometric(0.3, 0.5, 40)
        assert Kernel.zero() == Kernel([]) and a != [0.5, 0.25]
        assert {a: "first"}[b] == "first"

    def test_equality_ignores_the_cached_prefix(self):
        a, b = Kernel([0.5, 0.25]), Kernel([0.5, 0.25])
        before = hash(a)
        assert a._block_state is not None
        assert a == b and hash(a) == before == hash(b)

    def test_ensemble_specs_compare(self):
        def spec(kernel):
            return EnsembleSpec(kernel=kernel, forcing=ForcingGenerator(kind="iid", seed=3),
                                horizon=100)

        assert spec(Kernel([0.5, 0.25])) == spec(Kernel([0.5, 0.25]))
        assert spec(Kernel([0.5, 0.25])) != spec(Kernel([0.5, 0.2]))
        # both compare by value but hold dicts, so they are declared unhashable
        for value in (spec(Kernel([0.5])), ForcingGenerator(kind="iid", seed=3)):
            with pytest.raises(TypeError, match=f"unhashable type: '{type(value).__name__}'"):
                hash(value)


@pytest.mark.parametrize("value, other", [
    (make_tail_model("normal", sigma=1.0), make_tail_model("normal", sigma=2.0)),
    (make_nonlinearity("solow"), make_nonlinearity("identity")),
    (make_phi("power", p=2.0), make_phi("power", p=3.0)),
    (StatisticSpec(name="phi_average", band=(0.0, 1.0), phi=make_phi("power", p=2.0)),
     StatisticSpec(name="phi_average", band=(0.0, 2.0))),
], ids=["tail-model", "nonlinearity", "convex-functional", "statistic-spec"])
def test_dataclasses_holding_dicts_are_unhashable(value, other):
    # they compare by value (their functions by identity) but hold dicts
    with pytest.raises(TypeError, match=f"unhashable type: '{type(value).__name__}'"):
        hash(value)
    copy = dataclasses.replace(value)
    assert copy is not value and copy == value and value != other


class TestSolveLinear:
    def test_zero_kernel_passes_forcing_through(self):
        x = solve_linear(Kernel.zero(), ramp(5), 7.0, 5)
        assert list(x.values) == [7.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_two_lag_hand_expansion(self):
        # x(3) = k(2)... = 0 + 0.25*0.5 + 0.5*0.5 with H == 0
        x = solve_linear(Kernel([0.5, 0.25]), traj(np.zeros(4)), 1.0, 3)
        assert np.allclose(x.values, [1.0, 0.5, 0.5, 0.375])

    def test_single_lag_geometric(self):
        c = 0.8
        x = solve_linear(Kernel([c]), traj(np.zeros(11)), 1.0, 10)
        assert np.allclose(x.values, c ** np.arange(11))

    def test_forcing_shorter_than_horizon(self):
        with pytest.raises(InputError, match="shorter"):
            solve_linear(Kernel.zero(), ramp(3), 0.0, 10)

    def test_nonzero_index0_forcing_warns(self, caplog):
        forcing = traj([5.0, 1.0, 1.0])
        with caplog.at_level(logging.WARNING, logger="volterra_lab.core"):
            solve_linear(Kernel.zero(), forcing, 0.0, 2)
        assert any("ignored" in rec.message for rec in caplog.records)

    def test_zero_index0_forcing_is_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger="volterra_lab.core"):
            solve_linear(Kernel.zero(), ramp(3), 0.0, 3)
        assert not caplog.records

    def test_overflow_names_first_bad_index(self):
        k = Kernel([1e300])
        forcing = traj([0.0, 1e300, 0.0, 0.0])
        with pytest.raises(TrajectoryOverflowError) as err:
            solve_linear(k, forcing, 1.0, 3)
        assert err.value.index == 2

    def test_positivity_and_forcing_domination(self):
        # nonnegative kernel with k(0) > 0, positive forcing, positive start
        rng = np.random.Generator(np.random.Philox(7))
        k = Kernel(rng.uniform(0.01, 0.2, size=4))
        H = traj(np.concatenate(([0.0], rng.uniform(0.1, 1.0, 50))))
        x = solve_linear(k, H, 0.5, 50)
        assert np.all(x.values > 0)
        assert np.all(x.values[1:] > H.values[1:])

    def test_log_domain_matches_plain(self):
        rng = np.random.Generator(np.random.Philox(8))
        k = Kernel(rng.uniform(-0.3, 0.3, size=3))
        H = traj(np.concatenate(([0.0], rng.normal(size=100))))
        plain = solve_linear(k, H, 1.3, 100)
        logged = solve_linear(k, H, 1.3, 100, log_domain=True)
        assert isinstance(logged, LogTrajectory)
        back = logged.to_plain()
        assert np.allclose(back.values, plain.values, rtol=1e-12, atol=1e-300)

    def test_log_domain_follows_growth_past_overflow(self):
        # H(n) = 2^n up to n = 2000 cannot be represented in doubles
        n = np.arange(2001, dtype=float)
        H = LogTrajectory.from_log(n * math.log(2.0))
        x = solve_linear(Kernel.zero(), H, 0.0, 2000, log_domain=True)
        assert np.allclose(x.log_abs[1:], n[1:] * math.log(2.0))


class TestResolvent:
    def test_matches_unforced_solve(self):
        r = resolvent(Kernel([0.5, 0.25]), 3)
        assert np.allclose(r.values, [1.0, 0.5, 0.5, 0.375])

    def test_zero_kernel(self):
        r = resolvent(Kernel.zero(), 4)
        assert list(r.values) == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_single_lag(self):
        r = resolvent(Kernel([0.3]), 6)
        assert np.allclose(r.values, 0.3 ** np.arange(7))

    def test_recursion_holds_exactly(self):
        rng = np.random.Generator(np.random.Philox(9))
        k = Kernel(rng.uniform(-0.4, 0.4, size=5))
        r = resolvent(k, 60)
        for n in range(60):
            w = min(n + 1, k.size)
            acc = 0.0
            for l in range(w):
                acc += k.coefficients[l] * r.values[n - l]
            assert r.values[n + 1] == acc + 0.0


class TestRepresentation:
    def test_zero_kernel_matches_recursion(self):
        x1 = solve_linear(Kernel.zero(), ramp(6), 2.0, 6)
        x2 = solve_by_representation(Kernel.zero(), ramp(6), 2.0, 6)
        assert np.array_equal(x1.values, x2.values)

    def test_constant_forcing_hand_value(self):
        # x(3) = r(2) + r(1) + r(0) = 0.5 + 0.5 + 1 = 2 with xi = 0
        H = traj(np.ones(4))
        x = solve_by_representation(Kernel([0.5, 0.25]), H, 0.0, 3)
        assert np.isclose(x.values[3], 2.0)

    def test_agrees_with_recursion_at_scale(self):
        rng = np.random.Generator(np.random.Philox(10))
        k = Kernel(rng.dirichlet(np.ones(3)) * 0.9 * rng.choice([-1, 1], 3))
        H = traj(np.concatenate(([0.0], rng.uniform(-1, 1, 2000))))
        x1 = solve_linear(k, H, 0.7, 2000)
        x2 = solve_by_representation(k, H, 0.7, 2000)
        gap = np.max(np.abs(x1.values - x2.values) / np.maximum(np.abs(x1.values), 1.0))
        assert gap < 1e-10


class TestRecoverForcing:
    def test_round_trip_exponential_forcing(self):
        H = traj(2.0 ** np.arange(31))
        x = solve_linear(Kernel([0.5, 0.25]), H, 1.0, 30)
        rec = recover_forcing(Kernel([0.5, 0.25]), x)
        assert rec.start == 1
        assert np.allclose(rec.values, H.values[1:], rtol=1e-12)

    def test_zero_kernel_recovers_solution(self):
        x = traj([3.0, 1.0, 4.0, 1.0])
        rec = recover_forcing(Kernel.zero(), x)
        assert list(rec.values) == [1.0, 4.0, 1.0]

    def test_zero_solution_gives_zero_forcing(self):
        rec = recover_forcing(Kernel([0.5]), traj(np.zeros(5)))
        assert np.all(rec.values == 0.0)


class TestNonlinear:
    def test_identity_matches_linear_bitwise(self):
        rng = np.random.Generator(np.random.Philox(11))
        k = Kernel(rng.uniform(-0.3, 0.3, 4))
        H = traj(np.concatenate(([0.0], rng.normal(size=200))))
        lin = solve_linear(k, H, 0.4, 200)
        non = solve_nonlinear(k, make_nonlinearity("identity"), H, 0.4, 200)
        assert np.array_equal(lin.values, non.values)

    def test_bounded_offset_one_step(self):
        # x(1) = 0.5 * f(1) with f(1) = 1 + 1/2
        H = traj(np.zeros(2))
        x = solve_nonlinear(Kernel([0.5]), make_nonlinearity("bounded_offset"), H, 1.0, 1)
        assert x.values[1] == 0.75

    def test_zero_kernel_ignores_nonlinearity(self):
        x = solve_nonlinear(Kernel.zero(), make_nonlinearity("sqrt_offset"), ramp(5), 9.0, 5)
        assert list(x.values) == [9.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_solow_flags_sublinear_limit(self):
        f = make_nonlinearity("solow", delta=0.1, s=0.2)
        assert not f.linear_at_infinity
        assert np.isclose(f.ratio_limit, 0.9)
        assert make_nonlinearity("solow", delta=0.0, s=0.2).linear_at_infinity

    def test_nonlinearity_error_names_input(self):
        bad = make_nonlinearity("identity")
        object.__setattr__(bad, "fn", lambda x: float("nan"))
        with pytest.raises(NonlinearityError):
            solve_nonlinear(Kernel([0.5]), bad, ramp(3), 1.0, 3)

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError):
            make_nonlinearity("does_not_exist")


@pytest.mark.parametrize("solve", [
    lambda H: solve_by_representation(Kernel([0.5]), H, 1.0, 100),
    lambda H: solve_nonlinear(Kernel([0.5]), make_nonlinearity("identity"), H, 1.0, 100),
], ids=["representation", "nonlinear"])
def test_log_forcing_past_double_range_beyond_the_horizon(solve):
    # H(n) = 2^n to n = 2000 leaves double range only after the horizon 100
    la = np.arange(2001) * math.log(2.0)
    la[0] = -np.inf
    H = LogTrajectory.from_log(la)
    x = solve(H)
    assert np.array_equal(x.values, solve(H.window(0, 100)).values)
    assert np.isclose(x.values[100], 2.0 ** 100 * 4.0 / 3.0, rtol=1e-12)


small_kernels = st.lists(
    st.floats(min_value=-0.2, max_value=0.2, allow_nan=False), min_size=0, max_size=4
)
forcings = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=2, max_size=40
)


@settings(max_examples=60, deadline=None)
@given(small_kernels, forcings, forcings,
       st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_linearity_property(kc, h1, h2, c1, c2, xi1, xi2):
    n = min(len(h1), len(h2)) - 1
    k = Kernel(np.array(kc))
    H1 = traj([0.0] + h1[: n])
    H2 = traj([0.0] + h2[: n])
    combo = traj([0.0] + [c1 * a + c2 * b for a, b in zip(h1[:n], h2[:n])])
    xa = solve_linear(k, H1, xi1, n)
    xb = solve_linear(k, H2, xi2, n)
    xc = solve_linear(k, combo, c1 * xi1 + c2 * xi2, n)
    expect = c1 * xa.values + c2 * xb.values
    assert np.allclose(xc.values, expect, rtol=1e-12, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=0, max_size=4),
    st.lists(st.floats(min_value=1e-3, max_value=10), min_size=1, max_size=40),
    st.floats(1e-3, 3),
)
def test_log_domain_matches_plain_on_sign_coherent_inputs(kc, h, xi):
    # nonnegative kernel, positive forcing and xi: nothing cancels in log space
    n = len(h)
    k = Kernel(np.array(kc))
    H = traj([0.0] + h)
    plain = solve_linear(k, H, xi, n).values
    # plain forcing aligned into the log domain
    logged = solve_linear(k, H, xi, n, log_domain=True).to_plain().values
    # log forcing aligned into the plain domain
    identity = make_nonlinearity("identity")
    from_log = solve_nonlinear(k, identity, H.to_log(), xi, n).values
    assert np.allclose(logged, plain, rtol=1e-12, atol=0.0)
    assert np.allclose(from_log, plain, rtol=1e-12, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(small_kernels, forcings, st.floats(-3, 3))
def test_recover_forcing_round_trip(kc, h, xi):
    n = len(h) - 1
    k = Kernel(np.array(kc))
    H = traj([0.0] + h[: n])
    x = solve_linear(k, H, xi, n)
    rec = recover_forcing(k, x)
    assert np.allclose(rec.values, H.values[1:], rtol=1e-12, atol=1e-10)


# --------------------------------------------------------------------------
# blocked plain-domain engine against the per-term reference recursion
# --------------------------------------------------------------------------

def reference_solve(k, h, xi):
    """(x, first non-finite index or -1) from the per-term loop."""
    out = np.empty(len(h))
    with np.errstate(over="ignore", invalid="ignore"):
        bad = _linear_recursion(np.asarray(k, dtype=float), h, xi, out)
    return out, bad


def scaled_gap(x, ref):
    # the criterion-01 metric: relative above one, absolute below
    return float(np.max(np.abs(x - ref) / np.maximum(np.abs(ref), 1.0)))


def random_forcing(seed, horizon):
    rng = np.random.Generator(np.random.Philox(seed))
    return np.concatenate(([0.0], rng.uniform(-1.0, 1.0, horizon)))


class TestBlockedEngine:
    KERNEL = Kernel.geometric(0.3, 0.5, 40)

    def test_below_one_block_is_bitwise_reference(self):
        for k in (self.KERNEL, Kernel([1.0]), Kernel([1.9, -0.95])):
            h = random_forcing(1, _BLOCK - 1)
            x = solve_linear(k, traj(h), 0.7, _BLOCK - 1)
            assert np.array_equal(x.values, reference_solve(k.coefficients, h, 0.7)[0])

    @pytest.mark.parametrize("horizon", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
    def test_block_edges_within_tolerance(self, horizon):
        h = random_forcing(2, horizon)
        x = solve_linear(self.KERNEL, traj(h), -1.2, horizon)
        ref = reference_solve(self.KERNEL.coefficients, h, -1.2)[0]
        assert len(x.values) == horizon + 1
        assert scaled_gap(x.values, ref) <= 1e-12

    def test_kernel_longer_than_block(self):
        rng = np.random.Generator(np.random.Philox(3))
        k = Kernel(rng.dirichlet(np.ones(300)) * 0.9)
        horizon = 4 * 300 + 11
        h = random_forcing(4, horizon)
        x = solve_linear(k, traj(h), 0.5, horizon)
        assert scaled_gap(x.values, reference_solve(k.coefficients, h, 0.5)[0]) <= 1e-12

    def test_zero_kernel_is_exact(self):
        h = random_forcing(5, 3 * _BLOCK + 7)
        x = solve_linear(Kernel.zero(), traj(h), 2.0, 3 * _BLOCK + 7)
        assert x.values[0] == 2.0
        assert np.array_equal(x.values[1:], h[1:])

    @pytest.mark.parametrize("kernel", [Kernel([1.5]), Kernel.geometric(0.55, 0.5, 40)])
    def test_overflow_index_matches_reference(self, kernel):
        horizon = 20_000
        h = random_forcing(6, horizon)
        bad = reference_solve(kernel.coefficients, h, 1.0)[1]
        assert bad > _BLOCK
        with pytest.raises(TrajectoryOverflowError) as err:
            solve_linear(kernel, traj(h), 1.0, horizon)
        assert err.value.index == bad

    def test_resolvent_overflow_inside_block_falls_back(self):
        # r(n) = 100^n overflows inside the first block; x stays exactly zero
        x = solve_linear(Kernel([100.0]), traj(np.zeros(2 * _BLOCK + 1)), 0.0, 2 * _BLOCK)
        assert np.array_equal(x.values, np.zeros(2 * _BLOCK + 1))

    def test_repeated_calls_are_bitwise_identical(self):
        h = random_forcing(7, 5 * _BLOCK)
        first = solve_linear(self.KERNEL, traj(h), 0.3, 5 * _BLOCK).values
        again = solve_linear(self.KERNEL, traj(h), 0.3, 5 * _BLOCK).values
        assert np.array_equal(first, again)

    def test_resolvent_and_representation_stay_on_reference(self, monkeypatch):
        import volterra_lab.core as core

        def refuse(*args):
            raise AssertionError("blocked engine called")

        monkeypatch.setattr(core, "_blocked_linear", refuse)
        horizon = 3 * _BLOCK
        r = resolvent(self.KERNEL, horizon)
        assert np.array_equal(
            r.values, reference_solve(self.KERNEL.coefficients, np.zeros(horizon + 1), 1.0)[0]
        )
        solve_by_representation(self.KERNEL, traj(random_forcing(8, horizon)), 0.4, horizon)
        with pytest.raises(AssertionError, match="blocked engine"):
            solve_linear(self.KERNEL, traj(random_forcing(8, horizon)), 0.4, horizon)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["summable", "marginal", "growing"]),
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=_BLOCK + 1, max_value=4 * _BLOCK),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(-2, 2),
)
def test_blocked_engine_matches_reference(kind, weights, level, horizon, seed, xi):
    # summable: sum|k| <= 0.95 with mixed signs; marginal: k >= 0, sum k = 1;
    # growing: k >= 0, sum k in [1.02, 1.5]
    w = np.array(weights) / np.sum(weights)
    if kind == "summable":
        signs = np.where(np.arange(len(w)) % 2 == seed % 2, 1.0, -1.0)
        k = w * 0.95 * level * signs
    elif kind == "marginal":
        k = w
    else:
        k = w * (1.02 + 0.48 * level)
    h = random_forcing(seed, horizon)
    x = solve_linear(Kernel(k), traj(h), xi, horizon)
    assert scaled_gap(x.values, reference_solve(k, h, xi)[0]) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    small_kernels,
    st.integers(min_value=_BLOCK + 1, max_value=3 * _BLOCK),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(-3, 3),
)
def test_recover_forcing_round_trip_past_one_block(kc, horizon, seed, xi):
    # the round trip above stops below one block; this one runs the blocked engine
    k = Kernel(np.array(kc))
    H = traj(10.0 * random_forcing(seed, horizon))
    rec = recover_forcing(k, solve_linear(k, H, xi, horizon))
    assert np.allclose(rec.values, H.values[1:], rtol=1e-12, atol=1e-10)


# --------------------------------------------------------------------------
# the plain engine on many paths at once: the rows of one (P, N) array
# --------------------------------------------------------------------------

def batch_forcing(seed, paths, horizon):
    return np.stack([random_forcing(seed + p, horizon) for p in range(paths)])


def batch_solve(kernel, h, xi):
    """(x, bad) from one call of the batched engine on a copy of h."""
    x = h.copy()
    bad = core._blocked_linear(kernel, x, xi)
    return x, bad


class TestBatchedEngine:
    KERNEL = Kernel.geometric(0.3, 0.5, 40)

    @pytest.mark.parametrize("kernel", [KERNEL, Kernel([1.0]), Kernel([1.9, -0.95])])
    def test_first_block_of_every_row_is_bitwise_reference(self, kernel):
        h = batch_forcing(20, 20, 3 * _BLOCK + 7)
        x, bad = batch_solve(kernel, h, 0.7)
        assert np.all(bad == -1)
        for row, hp in zip(x, h):
            ref = reference_solve(kernel.coefficients, hp, 0.7)[0]
            assert np.array_equal(row[:_BLOCK], ref[:_BLOCK])
            assert scaled_gap(row, ref) <= 1e-12

    @pytest.mark.parametrize("paths", [2, 3, 16, 17])
    @pytest.mark.parametrize("tail", [1, 41, _BLOCK])
    def test_permuting_rows_permutes_the_output(self, paths, tail):
        # BLAS may round a row differently at another position of the batch,
        # so the rows agree to the engine's tolerance, not bit for bit
        h = batch_forcing(30, paths, 3 * _BLOCK + tail - 1)
        perm = np.random.Generator(np.random.Philox(paths)).permutation(paths)
        x = batch_solve(self.KERNEL, h, -0.4)[0]
        y = batch_solve(self.KERNEL, h[perm], -0.4)[0]
        assert scaled_gap(y, x[perm]) <= 1e-12

    def test_repeated_calls_are_bitwise_identical(self):
        h = batch_forcing(40, 17, 5 * _BLOCK)
        assert np.array_equal(batch_solve(self.KERNEL, h, 0.3)[0],
                              batch_solve(self.KERNEL, h, 0.3)[0])

    def test_overflowing_row_fails_alone(self):
        # row 2 overflows inside a later block, row 4 inside the first one
        h = batch_forcing(50, 6, 4 * _BLOCK)
        h[2, 700:710] = 1.7e308
        h[4, 100:110] = 1.7e308
        x, bad = batch_solve(self.KERNEL, h, 1.0)
        for p in range(6):
            ref, ref_bad = reference_solve(self.KERNEL.coefficients, h[p], 1.0)
            assert bad[p] == ref_bad
            if ref_bad < 0:
                assert scaled_gap(x[p], ref) <= 1e-12
                alone = solve_linear(self.KERNEL, traj(h[p]), 1.0, 4 * _BLOCK).values
                assert scaled_gap(x[p], alone) <= 1e-12
        assert bad[2] == 701 and 100 < bad[4] < _BLOCK

    def test_prefix_overflow_runs_every_row_on_the_reference(self):
        h = batch_forcing(60, 3, 3 * _BLOCK)
        h[:, : _BLOCK + 5] = 0.0
        x, bad = batch_solve(Kernel([100.0]), h, 0.0)
        for p in range(3):
            assert bad[p] == reference_solve([100.0], h[p], 0.0)[1] > _BLOCK


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["summable", "marginal", "growing"]),
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=_BLOCK + 1, max_value=4 * _BLOCK),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(-2, 2),
)
def test_batched_rows_match_paths_solved_alone(kind, weights, level, paths, horizon, seed, xi):
    # the kernels of test_blocked_engine_matches_reference
    w = np.array(weights) / np.sum(weights)
    if kind == "summable":
        signs = np.where(np.arange(len(w)) % 2 == seed % 2, 1.0, -1.0)
        k = w * 0.95 * level * signs
    elif kind == "marginal":
        k = w
    else:
        k = w * (1.02 + 0.48 * level)
    kernel = Kernel(k)
    h = batch_forcing(seed % 2**31, paths, horizon)
    x, bad = batch_solve(kernel, h, xi)
    assert np.all(bad == -1)
    for row, hp in zip(x, h):
        assert scaled_gap(row, solve_linear(kernel, traj(hp), xi, horizon).values) <= 1e-12


def per_path_ensemble(system, paths, statistic):
    """(failures, pass fraction, median) as ensemble_verify computed them
    before it batched paths: each path generated, solved and scored alone."""
    values = []
    for child in np.random.SeedSequence(system.forcing.seed).spawn(paths):
        rng = np.random.Generator(np.random.Philox(child))
        try:
            forcing = generate(system.forcing, system.horizon,
                               log_domain=system.log_domain, rng=rng)
            x = solve_linear(system.kernel, forcing, system.xi, system.horizon,
                             log_domain=system.log_domain)
            series = x if statistic.series == "solution" else forcing
            values.append(float(stochastic._path_statistic(statistic, series, system)))
        except (TrajectoryOverflowError, UndefinedRatioError, InputError):
            values.append(None)
    finite = np.array([v for v in values if v is not None and math.isfinite(v)])
    lo, hi = statistic.band
    in_band = int(np.count_nonzero((finite >= lo) & (finite <= hi)))
    median = float(np.median(finite)) if finite.size else float("nan")
    return values.count(None), in_band / paths, median


POWER_TAIL = make_tail_model("symmetric_power", alpha=2.0, c1=0.5, c2=0.5)
NORMAL_TAIL = make_tail_model("normal", sigma=1.0)


class TestBatchedEnsemble:
    @pytest.mark.parametrize("system, paths, statistic", [
        # the ensemble_plain benchmark workload at a fifth of its horizon
        (EnsembleSpec(kernel=Kernel.geometric(0.3, 0.5, 40), horizon=2500,
                      forcing=ForcingGenerator(kind="iid", seed=11, tail=POWER_TAIL)),
         16, StatisticSpec(name="log_log_exponent", band=(0.4, 0.6))),
        # a forcing statistic, in groups of two paths
        (EnsembleSpec(kernel=Kernel([0.5]), horizon=100_000,
                      forcing=ForcingGenerator(kind="iid", seed=12, tail=NORMAL_TAIL),
                      scaling=ScalingModel.from_catalogue("sqrt_log", 100_000)),
         5, StatisticSpec(name="limsup_ratio", band=(0.8, 1.1), series="forcing")),
        # x(n) ~ C 1.05^n: most paths overflow before the horizon, not all
        (EnsembleSpec(kernel=Kernel([1.05]), horizon=14_552,
                      forcing=ForcingGenerator(kind="iid", seed=13, tail=NORMAL_TAIL)),
         12, StatisticSpec(name="log_growth_rate", band=(0.04, 0.05))),
        # a plain geometric walk past e^709 fails in generation, on some paths
        (EnsembleSpec(kernel=Kernel([0.5]), horizon=7000,
                      forcing=ForcingGenerator(kind="geometric_random_walk", seed=17, drift=0.1,
                                               noise=make_tail_model("normal", sigma=0.5))),
         12, StatisticSpec(name="log_growth_rate", band=(0.09, 0.11))),
    ])
    def test_matches_the_per_path_loop(self, system, paths, statistic):
        res = ensemble_verify(system, paths, statistic)
        failures, pass_fraction, median = per_path_ensemble(system, paths, statistic)
        assert (res.failures, res.pass_fraction) == (failures, pass_fraction)
        assert res.median == pytest.approx(median, rel=1e-12, nan_ok=True)

    @pytest.mark.parametrize("log_domain", [False, True])
    @pytest.mark.parametrize("horizon, xi",
                             [(300, math.inf), (300, math.nan), (0, 1.0), (2.5, 1.0)])
    def test_a_bad_start_or_horizon_raises_before_any_path(self, monkeypatch, log_domain,
                                                           horizon, xi):
        monkeypatch.setattr(stochastic, "_forcing_body", None)  # no path may start
        system = EnsembleSpec(kernel=Kernel([0.5]), horizon=horizon, xi=xi,
                              log_domain=log_domain,
                              forcing=ForcingGenerator(kind="iid", seed=14, tail=NORMAL_TAIL))
        with pytest.raises(InputError):
            ensemble_verify(system, 3, StatisticSpec(name="phi_average", band=(0.0, 10.0)))

    def test_mixed_failures_are_mixed(self):
        system = EnsembleSpec(kernel=Kernel([1.05]), horizon=14_552,
                              forcing=ForcingGenerator(kind="iid", seed=13, tail=NORMAL_TAIL))
        res = ensemble_verify(system, 12, StatisticSpec(name="log_growth_rate", band=(0.04, 0.05)))
        assert 0 < res.failures < 12

    @pytest.mark.parametrize("horizon, groups", [(4 * _BLOCK, 1), (2**16 - 1, 4)])
    def test_one_block_product_per_block_per_group(self, monkeypatch, horizon, groups):
        # 2^18 doubles per group: 16 paths of 1025 steps are one group, of 2^16 four
        calls = []

        def counted(mats, f, prev):
            calls.append(f.shape[0])
            return toeplitz_block(mats, f, prev)

        toeplitz_block = core._toeplitz_block
        monkeypatch.setattr(core, "_toeplitz_block", counted)
        system = EnsembleSpec(kernel=Kernel.geometric(0.3, 0.5, 40), horizon=horizon,
                              forcing=ForcingGenerator(kind="iid", seed=16, tail=NORMAL_TAIL))
        res = ensemble_verify(system, 16, StatisticSpec(name="phi_average", band=(0.0, 10.0)))
        assert res.failures == 0
        blocks = -(-(horizon + 1 - _BLOCK) // _BLOCK)
        assert len(calls) == groups * blocks
        assert set(calls) == {16 // groups}


# --------------------------------------------------------------------------
# block-scaled log-domain engine against the per-step log recursion
# --------------------------------------------------------------------------

GROWTH_KERNEL = Kernel.geometric(0.3, 0.5, 40)


def log_forcing(name, horizon, **params):
    gen = ForcingGenerator(kind="deterministic", name=name, params=params)
    return generate(gen, horizon, log_domain=True)


def per_step_log_solve(kernel, forcing, xi, horizon):
    """(log|x|, sign x, first overflow index or -1) from the per-step loop."""
    _, (lh, sh) = core._aligned_forcing(forcing, horizon, xi, log_domain=True)
    out_l = np.full(horizon + 1, -np.inf)
    out_s = np.zeros(horizon + 1)
    if xi != 0.0:
        out_l[0], out_s[0] = math.log(abs(xi)), math.copysign(1.0, xi)
    lk, sk = _kernel_log(kernel.coefficients)
    bad, _ = _log_linear_recursion(lk, sk, lh, sh, out_l, out_s)
    return out_l, out_s, bad


def extended_log_solve(k, log_h, xi):
    """log x for a nonnegative kernel, positive forcing and xi > 0, in np.longdouble."""
    lk = [(l, np.log(np.longdouble(c))) for l, c in enumerate(k) if c > 0.0]
    out = np.empty(len(log_h), dtype=np.longdouble)
    out[0] = np.log(np.longdouble(xi))
    for n in range(len(log_h) - 1):
        terms = np.array([c + out[n - l] for l, c in lk if l <= n] + [log_h[n + 1]],
                         dtype=np.longdouble)
        peak = terms.max()
        out[n + 1] = peak + np.log(np.sum(np.exp(terms - peak)))
    return out


def assert_log_contract(x, ref_l, ref_s, exact_l=None):
    # bitwise below one block and equal signs throughout; log|x| within the
    # tolerance of the exact value, or of the per-step recursion without one
    assert np.array_equal(x.log_abs[:_BLOCK], ref_l[:_BLOCK])
    assert np.array_equal(x.sign, ref_s)
    live = ref_s != 0.0
    target = ref_l if exact_l is None else exact_l
    gap = np.abs(x.log_abs[live] - target[live])
    assert np.all(gap <= 1e-12 + 1e-15 * np.abs(ref_l[live]))


class TestBlockedLogEngine:
    @pytest.mark.parametrize("name", [f"H{i}" for i in range(1, 10)])
    def test_growth_catalogue_matches_per_step(self, name):
        horizon = 6 * _BLOCK + 5
        H = log_forcing(name, horizon)
        x = solve_linear(GROWTH_KERNEL, H, 1.1, horizon, log_domain=True)
        ref_l, ref_s, bad = per_step_log_solve(GROWTH_KERNEL, H, 1.1, horizon)
        assert bad == -1
        assert_log_contract(x, ref_l, ref_s)

    def test_iterated_exponential_runs_per_step_to_its_last_index(self):
        # log H(n) = e^n leaves double range after n = 709: generation refuses
        # it, and up to there each step spans more than one block may, so the
        # whole solve is the per-step recursion and nothing overflows
        with pytest.raises(InputError, match="overflowed in log space"):
            log_forcing("H10", 710)
        H = log_forcing("H10", 709)
        x = solve_linear(GROWTH_KERNEL, H, 1.0, 709, log_domain=True)
        ref_l, ref_s, bad = per_step_log_solve(GROWTH_KERNEL, H, 1.0, 709)
        assert bad == -1
        assert np.array_equal(x.log_abs, ref_l)
        assert np.array_equal(x.sign, ref_s)

    @pytest.mark.parametrize("kernel, signs", [
        (Kernel([0.5, -0.2, 0.1]), "positive"),
        (GROWTH_KERNEL, "random"),
    ], ids=["signed-kernel", "mixed-sign-forcing"])
    def test_sign_incoherent_inputs_are_bitwise_per_step(self, kernel, signs):
        horizon = 4 * _BLOCK
        rng = np.random.Generator(np.random.Philox(12))
        la = np.concatenate(([-np.inf], 0.7 * np.arange(1, horizon + 1)))
        sg = np.ones(horizon + 1) if signs == "positive" else rng.choice([-1.0, 1.0], horizon + 1)
        sg[0] = 0.0
        H = LogTrajectory(la, sg)
        x = solve_linear(kernel, H, 0.8, horizon, log_domain=True)
        ref_l, ref_s, _ = per_step_log_solve(kernel, H, 0.8, horizon)
        assert np.array_equal(x.log_abs, ref_l)
        assert np.array_equal(x.sign, ref_s)

    def test_underflow_guard_falls_back_to_per_step(self):
        # one spike after the first block; log|x| then falls by log(1e3) a step
        horizon = 3 * _BLOCK
        la = np.full(horizon + 1, -np.inf)
        la[_BLOCK + 40] = 0.0
        H = LogTrajectory.from_log(la)
        x = solve_linear(Kernel([1e-3]), H, 0.0, horizon, log_domain=True)
        ref_l, ref_s, _ = per_step_log_solve(Kernel([1e-3]), H, 0.0, horizon)
        assert x.log_abs[-1] < -1000.0
        assert np.array_equal(x.log_abs, ref_l)
        assert np.array_equal(x.sign, ref_s)

    def test_zero_forcing_and_start_give_zeros(self):
        horizon = 3 * _BLOCK
        H = LogTrajectory.from_log(np.full(horizon + 1, -np.inf))
        x = solve_linear(GROWTH_KERNEL, H, 0.0, horizon, log_domain=True)
        assert np.all(x.sign == 0.0)
        assert np.all(x.log_abs == -np.inf)

    def test_repeated_calls_are_bitwise_identical(self):
        H = log_forcing("factorial", 8 * _BLOCK)
        first = solve_linear(GROWTH_KERNEL, H, 0.9, 8 * _BLOCK, log_domain=True)
        again = solve_linear(GROWTH_KERNEL, H, 0.9, 8 * _BLOCK, log_domain=True)
        assert np.array_equal(first.log_abs, again.log_abs)
        assert np.array_equal(first.sign, again.sign)

    @pytest.mark.parametrize("name, horizon, params", [
        ("factorial", 20_000, {}),
        ("geometric", 10_000, {"lam": 0.5}),
    ])
    def test_only_the_first_block_runs_per_step(self, monkeypatch, caplog, name, horizon, params):
        # the log_growth benchmark configs: past the first block every block is scaled
        steps = []

        def counted(lk, sk, lh, sh, out_l, out_s, lo=1, hi=None):
            steps.append((hi if hi is not None else len(out_l)) - lo)
            return _log_linear_recursion(lk, sk, lh, sh, out_l, out_s, lo, hi)

        monkeypatch.setattr(core, "_log_linear_recursion", counted)
        H = log_forcing(name, horizon, **params)
        with caplog.at_level(logging.WARNING, logger="volterra_lab.core"):
            x = solve_linear(GROWTH_KERNEL, H, 1.25, horizon, log_domain=True)
        assert sum(steps) == _BLOCK - 1
        assert np.all(x.sign == 1.0)
        assert not caplog.records

    def test_cancellation_is_reported(self, caplog):
        # exact x(3) = (1e300 + 1) - 1e300 + 1 = 2; the log domain gets 1
        H = traj([0.0, 1e300, 1.0, 1.0])
        with caplog.at_level(logging.WARNING, logger="volterra_lab.core"):
            x = solve_linear(Kernel([1.0, -1.0]), H, 0.0, 3, log_domain=True)
        assert x.to_plain().values[3] == 1.0
        [record] = caplog.records
        assert "cancellation at index 3" in record.message
        assert "300.3 digits lost" in record.message

    def test_exact_zero_sum_is_not_reported(self, caplog):
        # x(3) = x(2) - x(1) + 0 = 0 exactly: no digits are lost
        with caplog.at_level(logging.WARNING, logger="volterra_lab.core"):
            x = solve_linear(Kernel([1.0, -1.0]), traj([0.0, 1.0, 0.0, 0.0]), 0.0, 3,
                             log_domain=True)
        assert list(x.sign) == [0.0, 1.0, 1.0, 0.0]
        assert not caplog.records


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=-1.0, max_value=12.0),
    st.integers(min_value=_BLOCK + 1, max_value=4 * _BLOCK),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=1e-3, max_value=3.0),
)
def test_blocked_log_engine_on_sign_coherent_inputs(weights, mass, drift, horizon, seed, xi):
    # nonnegative kernel of total mass 0..1.5, positive forcing whose log
    # moves by ``drift`` a step plus noise: every block is sign coherent.
    # The tolerance is held against extended precision: with decaying forcing
    # the per-step recursion itself drifts from it by more (2.7e-12 at log|x| = -508)
    w = np.array(weights)
    k = Kernel(w / np.sum(w) * mass if np.sum(w) > 0 else w)
    rng = np.random.Generator(np.random.Philox(seed))
    la = drift * np.arange(horizon + 1) + rng.normal(scale=2.0, size=horizon + 1)
    la[0] = -np.inf
    H = LogTrajectory.from_log(la)
    x = solve_linear(k, H, xi, horizon, log_domain=True)
    ref_l, ref_s, _ = per_step_log_solve(k, H, xi, horizon)
    assert_log_contract(x, ref_l, ref_s, extended_log_solve(k.coefficients, la, xi))


# --------------------------------------------------------------------------
# per-term loops on Python floats against the numpy-scalar loops they replaced
# --------------------------------------------------------------------------

def numpy_linear_recursion(k, h, xi, out):
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


def numpy_log_linear_recursion(lk, sk, lh, sh, out_l, out_s, lo=1, hi=None):
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
            if lossy is None and mag > core._CANCELLATION * abs(acc):
                lossy = (n + 1, mag / abs(acc))
        if not math.isfinite(out_l[n + 1]) and out_s[n + 1] != 0.0:
            return n + 1, lossy
    return -1, lossy


def numpy_nonlinear_loop(k, f, h, xi, horizon):
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
    return x


def assert_same_bits(a, b):
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


CHUNK = core._CHUNK
LOOP_HORIZONS = [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]


def loop_kernel(m, seed):
    # mixed signs, one exact zero, sum|k| = 0.9
    rng = np.random.Generator(np.random.Philox(seed))
    k = rng.uniform(-1.0, 1.0, m)
    k[m // 2 :: 7] = 0.0
    return 0.9 * k / max(np.sum(np.abs(k)), 1.0)


def loop_forcing(horizon, seed):
    # normal draws with about a fifth of them exact zeros, H(0) = 0
    rng = np.random.Generator(np.random.Philox(seed))
    h = rng.normal(size=horizon + 1)
    h[rng.random(horizon + 1) < 0.2] = 0.0
    h[0] = 0.0
    return h


def both_linear(k, h, xi):
    ref = np.empty(len(h))
    with np.errstate(all="ignore"):
        ref_bad = numpy_linear_recursion(k, h, xi, ref)
    out = np.empty(len(h))
    bad = _linear_recursion(k, h, xi, out)
    stop = len(h) if bad < 0 else bad + 1
    assert bad == ref_bad
    assert_same_bits(out[:stop], ref[:stop])
    return bad


def both_log(k, h, xi, windows=((1, None),)):
    lk, sk = _kernel_log(np.asarray(k, dtype=float))
    lh, sh = _kernel_log(h)
    results = []
    for recursion in (numpy_log_linear_recursion, _log_linear_recursion):
        out_l = np.full(len(h), -np.inf)
        out_s = np.zeros(len(h))
        if xi != 0.0:
            out_l[0], out_s[0] = math.log(abs(xi)), math.copysign(1.0, xi)
        with np.errstate(all="ignore"):
            returned = [recursion(lk, sk, lh, sh, out_l, out_s, lo, hi) for lo, hi in windows]
        results.append((out_l, out_s, returned))
    (ref_l, ref_s, ref_ret), (out_l, out_s, ret) = results
    assert ret == ref_ret
    bad = next((b for b, _ in ret if b >= 0), -1)
    stop = len(h) if bad < 0 else bad + 1
    assert_same_bits(out_l[:stop], ref_l[:stop])
    assert_same_bits(out_s[:stop], ref_s[:stop])
    return ret


class TestPythonFloatLoops:
    @pytest.mark.parametrize("m", [0, 1, 40])
    @pytest.mark.parametrize("horizon", LOOP_HORIZONS)
    def test_linear_is_bitwise_numpy(self, m, horizon):
        assert both_linear(loop_kernel(m, m), loop_forcing(horizon, horizon), 0.7) == -1

    @pytest.mark.parametrize("m, horizon", [(40, 10), (300, 100), (5, 1)])
    def test_kernel_longer_than_horizon(self, m, horizon):
        assert both_linear(loop_kernel(m, 1), loop_forcing(horizon, 2), -1.3) == -1

    def test_negative_zero_start(self):
        # zero forcing: every x(n) is a sum of signed zeros, so sign bits matter
        assert both_linear(np.array([-0.5, 0.0, 0.25]), np.zeros(CHUNK + 3), -0.0) == -1
        assert both_linear(loop_kernel(40, 3), loop_forcing(CHUNK + 3, 4), -0.0) == -1

    @pytest.mark.parametrize("k", [[1.125], list(1.2 * 0.5 ** np.arange(1, 41))],
                             ids=["M=1", "M=40"])
    def test_overflow_in_second_chunk(self, k):
        bad = both_linear(np.array(k), loop_forcing(3 * CHUNK, 5), 1.0)
        assert CHUNK < bad < 2 * CHUNK

    @pytest.mark.parametrize("m", [0, 1, 40])
    @pytest.mark.parametrize("horizon", LOOP_HORIZONS)
    def test_log_is_bitwise_numpy(self, m, horizon):
        [(bad, _)] = both_log(loop_kernel(m, m + 1), loop_forcing(horizon, horizon + 1), 0.7)
        assert bad == -1

    def test_log_kernel_longer_than_horizon(self):
        both_log(loop_kernel(40, 6), loop_forcing(10, 7), 1.1)

    @pytest.mark.parametrize("cuts", [(1, 2, 3), (100, CHUNK + 50), (CHUNK - 1, CHUNK + 1),
                                      (7, 2 * CHUNK, 2 * CHUNK + 1)])
    def test_log_windows(self, cuts):
        edges = (1,) + cuts + (None,)
        windows = list(zip(edges[:-1], edges[1:]))
        both_log(loop_kernel(40, 8), loop_forcing(3 * CHUNK + 7, 9), -0.4, windows)

    def test_log_overflow_in_second_chunk(self):
        h = loop_forcing(3 * CHUNK, 10)
        h[CHUNK + 100] = np.inf
        [(bad, _)] = both_log(loop_kernel(40, 11), h, 0.7)
        assert bad == CHUNK + 100

    def test_log_lossy_in_second_chunk(self):
        # x(n+1) = x(n) - x(n-1) + 1: a spike of 1e300 cancels two steps later
        h = np.ones(2 * CHUNK)
        h[0] = 0.0
        h[CHUNK + 10] = 1e300
        [(bad, lossy)] = both_log([1.0, -1.0], h, 1.0)
        assert bad == -1
        assert lossy[0] == CHUNK + 12

    def test_log_negative_zero_start_and_zero_forcing(self):
        both_log(loop_kernel(40, 12), np.zeros(CHUNK + 3), -0.0)
        both_log(loop_kernel(40, 12), loop_forcing(CHUNK + 3, 13), -0.0)

    @pytest.mark.parametrize("m", [0, 1, 40])
    @pytest.mark.parametrize("horizon", LOOP_HORIZONS)
    def test_nonlinear_is_bitwise_numpy(self, m, horizon):
        k = loop_kernel(m, m + 2)
        h = loop_forcing(horizon, horizon + 2)
        f = make_nonlinearity("bounded_offset")
        ref = numpy_nonlinear_loop(k, f, h, 0.7, horizon)
        assert_same_bits(solve_nonlinear(Kernel(k), f, traj(h), 0.7, horizon).values, ref)

    @pytest.mark.parametrize("m, horizon", [(40, 10), (300, 100)])
    def test_nonlinear_kernel_longer_than_horizon(self, m, horizon):
        k, h = loop_kernel(m, 14), loop_forcing(horizon, 15)
        f = make_nonlinearity("bounded_offset")
        ref = numpy_nonlinear_loop(k, f, h, -0.0, horizon)
        assert_same_bits(solve_nonlinear(Kernel(k), f, traj(h), -0.0, horizon).values, ref)

    def test_nonlinear_overflow_in_second_chunk(self):
        h = loop_forcing(3 * CHUNK, 16)
        f = make_nonlinearity("bounded_offset")
        with pytest.raises(TrajectoryOverflowError) as ref:
            numpy_nonlinear_loop(np.array([1.125]), f, h, 1.0, 3 * CHUNK)
        with pytest.raises(TrajectoryOverflowError) as err:
            solve_nonlinear(Kernel([1.125]), f, traj(h), 1.0, 3 * CHUNK)
        assert err.value.index == ref.value.index
        assert CHUNK < err.value.index < 2 * CHUNK


# --------------------------------------------------------------------------
# the resolvent prefix r[:B] a kernel computes once for all its blocked solves
# --------------------------------------------------------------------------

class TestResolventPrefix:
    def count_prefixes(self, monkeypatch):
        calls = []

        def counted(k, r):
            calls.append(len(r))
            return toeplitz_matrices(k, r)

        toeplitz_matrices = core._toeplitz_matrices
        monkeypatch.setattr(core, "_toeplitz_matrices", counted)
        return calls

    def test_ensemble_computes_it_once(self, monkeypatch):
        calls = self.count_prefixes(monkeypatch)
        spec = EnsembleSpec(
            kernel=Kernel.geometric(0.3, 0.5, 40),
            forcing=ForcingGenerator(kind="iid", seed=3, tail=make_tail_model("normal", sigma=1.0)),
            horizon=4 * _BLOCK,
        )
        res = ensemble_verify(spec, 16, StatisticSpec(name="phi_average", band=(0.0, 10.0)))
        assert res.failures == 0
        assert calls == [_BLOCK]

    def test_coefficients_are_a_read_only_copy(self):
        source = np.array([0.5, 0.25])
        k = Kernel(source)
        with pytest.raises(ValueError):
            k.coefficients[0] = 1.0
        source[0] = 9.0
        assert list(k.coefficients) == [0.5, 0.25]
        assert np.array_equal(k._block_state[0], resolvent(Kernel([0.5, 0.25]), _BLOCK - 1).values)

    def test_overflowing_prefix_keeps_the_reference_overflow_index(self):
        # r(n) = 100^n overflows in r[:B]; x is zero through the first block,
        # then the whole solve runs the reference recursion
        horizon = 3 * _BLOCK
        h = random_forcing(17, horizon)
        h[: _BLOCK + 5] = 0.0
        bad = reference_solve([100.0], h, 0.0)[1]
        assert bad > _BLOCK
        k = Kernel([100.0])
        with pytest.raises(TrajectoryOverflowError) as err:
            solve_linear(k, traj(h), 0.0, horizon)
        assert err.value.index == bad
        assert k._block_state is None

    def test_signed_kernel_in_log_domain_stays_per_step(self, monkeypatch):
        calls = self.count_prefixes(monkeypatch)
        steps = []

        def counted(lk, sk, lh, sh, out_l, out_s, lo=1, hi=None):
            steps.append((hi if hi is not None else len(out_l)) - lo)
            return _log_linear_recursion(lk, sk, lh, sh, out_l, out_s, lo, hi)

        monkeypatch.setattr(core, "_log_linear_recursion", counted)
        horizon = 4 * _BLOCK
        x = solve_linear(Kernel([0.5, -0.2, 0.1]), log_forcing("factorial", horizon), 1.0,
                         horizon, log_domain=True)
        assert sum(steps) == horizon
        assert calls == []
        assert np.all(x.sign == 1.0)


# --------------------------------------------------------------------------
# the block-scaled log engine against the version it replaced, which took
# each block's forcing maximum and sign test from the block itself
# --------------------------------------------------------------------------

logger = logging.getLogger("volterra_lab.core")


def reference_blocked_log_linear(kernel, lh, sh, xi):
    """(log|x|, sign x) on 0..len(lh)-1 as blocks of plain doubles times exp(ref).

    The first block [0, B), a signed kernel and every block that cannot be
    scaled (see the module docstring) run the per-step recursion, which
    logs its first cancellation beyond ``_CANCELLATION`` once per solve.
    Every other block [t, t+L) runs the plain Toeplitz step on its inputs
    times exp(-ref); L <= B keeps the forcing's log-range plus
    log sum r[:B] within ``_SPAN``.
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

    b = _BLOCK
    per_step(1, min(b, n))
    state = kernel._block_state if n > b and np.all(k >= 0.0) else None
    if state is None:
        per_step(b, n)
        return out_l, out_s
    r = state[0]
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
        if size == 1 or not reference_scaled_block(k, r, lh, sh, out_l, out_s, t, t + size, floor):
            per_step(t, t + size)
        t += size
    return out_l, out_s


def reference_scaled_block(k, r, lh, sh, out_l, out_s, lo, hi, floor):
    """Solve [lo, hi) as plain doubles times exp(ref); False if it must run per step."""
    m = len(k)
    signs = np.concatenate((sh[lo:hi], out_s[max(0, lo - m) : lo]))
    signs = signs[signs != 0.0]
    if signs.size and np.any(signs != signs[0]):
        return False
    # an all-zero block gives ref = -inf and NaN below, so it runs per step
    ref = max(np.max(lh[lo:hi]), np.max(out_l[max(0, lo - m) : lo], initial=-np.inf))
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        f = sh[lo:hi] * np.exp(lh[lo:hi] - ref)
        prev = out_s[max(0, lo - m) : lo] * np.exp(out_l[max(0, lo - m) : lo] - ref)
        x = _toeplitz_block((r, *core._toeplitz_matrices(k, r)), f, prev)
        mag = np.abs(x)
        if not (np.min(mag) >= floor and np.max(mag) < np.inf):
            return False
        out_l[lo:hi] = np.log(mag) + ref
    out_s[lo:hi] = np.sign(x)
    return True


def run_blocked_log(engine, kernel, forcing, xi, horizon):
    """(log|x|, sign x, overflow index or -1, warnings logged) from one engine."""
    _, (lh, sh) = core._aligned_forcing(forcing, horizon, xi, log_domain=True)
    records = []
    handler = logging.Handler()
    handler.emit = lambda record: records.append(
        (record.name, record.levelno, record.getMessage()))
    logger.addHandler(handler)
    try:
        out_l, out_s = engine(kernel, lh, sh, float(xi))
        bad = -1
    except TrajectoryOverflowError as exc:
        out_l = out_s = None
        bad = exc.index
    finally:
        logger.removeHandler(handler)
    return out_l, out_s, bad, records


def assert_blocked_log_is_reference(kernel, forcing, xi, horizon):
    expected = run_blocked_log(reference_blocked_log_linear, kernel, forcing, xi, horizon)
    got = run_blocked_log(core._blocked_log_linear, kernel, forcing, xi, horizon)
    assert got[2:] == expected[2:]
    if expected[2] < 0:
        assert_same_bits(got[0], expected[0])
        assert_same_bits(got[1], expected[1])
    return got


def log_traj(la, sg=None):
    la = np.asarray(la, dtype=float)
    return LogTrajectory.from_log(la, None if sg is None else np.where(la == -np.inf, 0.0, sg))


class TestBlockedLogOracle:
    @pytest.mark.parametrize("name", [f"H{i}" for i in range(1, 10)])
    def test_growth_catalogue(self, name):
        horizon = 6 * _BLOCK + 5
        assert_blocked_log_is_reference(GROWTH_KERNEL, log_forcing(name, horizon), 1.1, horizon)

    @pytest.mark.parametrize("name, horizon, params", [
        ("factorial", 20_000, {}),
        ("geometric", 10_000, {"lam": 0.5}),
    ])
    def test_log_growth_configs(self, name, horizon, params):
        out_l, out_s, bad, records = assert_blocked_log_is_reference(
            GROWTH_KERNEL, log_forcing(name, horizon, **params), 1.25, horizon)
        assert bad == -1 and not records and np.all(out_s == 1.0)

    def test_exact_zeros_inside_scaled_blocks(self):
        horizon = 6 * _BLOCK
        rng = np.random.Generator(np.random.Philox(41))
        la = 0.3 * np.arange(horizon + 1) + rng.normal(scale=1.0, size=horizon + 1)
        la[rng.random(horizon + 1) < 0.3] = -np.inf
        la[0] = -np.inf
        for sign in (1.0, -1.0):
            assert_blocked_log_is_reference(GROWTH_KERNEL, log_traj(la, sign), sign * 0.5, horizon)

    def test_all_zero_blocks(self):
        # zero start and forcing up to past 2B: whole blocks with ref = -inf,
        # then forcing that starts, stops and leaves only a decaying history
        horizon = 6 * _BLOCK
        la = np.full(horizon + 1, -np.inf)
        la[2 * _BLOCK + 17 : 3 * _BLOCK] = 0.5
        out_l, out_s, _, _ = assert_blocked_log_is_reference(
            GROWTH_KERNEL, log_traj(la), 0.0, horizon)
        assert np.all(out_s[: 2 * _BLOCK + 17] == 0.0)
        assert np.all(out_s[2 * _BLOCK + 17 :] == 1.0)

    def test_mixed_sign_forcing(self):
        horizon = 4 * _BLOCK
        rng = np.random.Generator(np.random.Philox(42))
        la = 0.7 * np.arange(horizon + 1)
        la[0] = -np.inf
        sg = np.ones(horizon + 1)
        sg[rng.random(horizon + 1) < 0.01] = -1.0
        assert_blocked_log_is_reference(GROWTH_KERNEL, log_traj(la, sg), 0.8, horizon)

    def test_mixed_sign_history(self):
        # alternating signs through the first block, positive forcing after:
        # the history of the first scaled block carries both signs
        horizon = 4 * _BLOCK
        la = np.concatenate(([-np.inf], np.full(horizon, 2.0)))
        sg = np.ones(horizon + 1)
        sg[1:_BLOCK:2] = -1.0
        for kernel in (GROWTH_KERNEL, Kernel([0.0, 0.5])):
            assert_blocked_log_is_reference(kernel, log_traj(la, sg), -1.0, horizon)

    def test_underflow_floor(self):
        horizon = 3 * _BLOCK
        la = np.full(horizon + 1, -np.inf)
        la[_BLOCK + 40] = 0.0
        out_l, _, _, _ = assert_blocked_log_is_reference(Kernel([1e-3]), log_traj(la), 0.0, horizon)
        assert out_l[-1] < -1000.0

    def test_zero_kernel(self):
        # no history: blocks scale without zeros, and run per step with
        # zeros (x = 0 is below the floor), mixed signs or nothing at all
        horizon = 4 * _BLOCK
        rng = np.random.Generator(np.random.Philox(43))
        la = rng.normal(scale=50.0, size=horizon + 1)
        la[0] = -np.inf
        assert_blocked_log_is_reference(Kernel.zero(), log_traj(la), 2.0, horizon)
        la[rng.random(horizon + 1) < 0.2] = -np.inf
        assert_blocked_log_is_reference(Kernel.zero(), log_traj(la), 2.0, horizon)
        sg = rng.choice([-1.0, 1.0], horizon + 1)
        assert_blocked_log_is_reference(Kernel.zero(), log_traj(la, sg), 2.0, horizon)
        assert_blocked_log_is_reference(Kernel.zero(), log_traj(np.full(horizon + 1, -np.inf)),
                                        0.0, horizon)

    def test_cancellation_warning_is_the_same(self):
        # a signed kernel warns in its first block; with k = [1], a block of
        # mixed signs after it runs per step and loses 10 digits at B + 12
        H = traj([0.0, 1e300, 1.0, 1.0] + [1.0] * 300)
        _, _, _, records = assert_blocked_log_is_reference(Kernel([1.0, -1.0]), H, 0.0, 303)
        assert len(records) == 1
        h = np.zeros(3 * _BLOCK + 1)
        h[_BLOCK + 10 : _BLOCK + 13] = [1e300, 1.0, -1e300 * (1.0 - 1e-10)]
        _, _, _, records = assert_blocked_log_is_reference(Kernel([1.0]), traj(h), 0.0, 3 * _BLOCK)
        [(_, _, message)] = records
        assert f"cancellation at index {_BLOCK + 12}" in message


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=-1.0, max_value=12.0),
    st.integers(min_value=_BLOCK + 1, max_value=4 * _BLOCK),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=1e-3, max_value=3.0),
    st.sampled_from([1.0, -1.0]),
    st.floats(min_value=0.0, max_value=0.5),
)
def test_blocked_log_engine_is_bitwise_reference(weights, mass, drift, horizon, seed, xi,
                                                  sign, zeros):
    # nonnegative kernel of total mass 0..1.5; forcing of one sign with a
    # fraction ``zeros`` of exact zeros, whose log moves by ``drift`` a step
    w = np.array(weights)
    k = Kernel(w / np.sum(w) * mass if np.sum(w) > 0 else w)
    rng = np.random.Generator(np.random.Philox(seed))
    la = drift * np.arange(horizon + 1) + rng.normal(scale=2.0, size=horizon + 1)
    la[rng.random(horizon + 1) < zeros] = -np.inf
    la[0] = -np.inf
    assert_blocked_log_is_reference(k, log_traj(la, sign), sign * xi, horizon)


# --------------------------------------------------------------------------
# kernels longer than one block: until index M, a block's history
# x[max(0, t - M):t] is shorter than M and meets Hk's trailing columns
# --------------------------------------------------------------------------

def long_kernel(m):
    rng = np.random.Generator(np.random.Philox(m))
    return Kernel(rng.dirichlet(np.ones(m)) * 0.9)


class TestLongKernels:
    @pytest.mark.parametrize("m, horizon", [(257, 3 * _BLOCK + 7), (300, 4 * 300 + 11),
                                            (2000, 2500)])
    def test_plain_single_path_and_batch(self, m, horizon):
        k = long_kernel(m)
        h = batch_forcing(70, 3, horizon)
        x, bad = batch_solve(k, h, 0.5)
        assert np.all(bad == -1)
        for row, hp in zip(x, h):
            ref = reference_solve(k.coefficients, hp, 0.5)[0]
            for got in (solve_linear(k, traj(hp), 0.5, horizon).values, row):
                assert np.array_equal(got[:_BLOCK], ref[:_BLOCK])
                assert scaled_gap(got, ref) <= 1e-12

    @pytest.mark.parametrize("m, horizon", [(257, 4 * _BLOCK), (300, 4 * _BLOCK),
                                            (2000, 4 * _BLOCK + 5)])
    def test_log_domain(self, monkeypatch, m, horizon):
        # every block past the first is scaled, so each one reads a history
        # shorter than M if t < M
        steps = []

        def counted(lk, sk, lh, sh, out_l, out_s, lo=1, hi=None):
            steps.append((hi if hi is not None else len(out_l)) - lo)
            return _log_linear_recursion(lk, sk, lh, sh, out_l, out_s, lo, hi)

        k = long_kernel(m)
        H = log_forcing("factorial", horizon)
        monkeypatch.setattr(core, "_log_linear_recursion", counted)
        x = solve_linear(k, H, 1.25, horizon, log_domain=True)
        assert sum(steps) == _BLOCK - 1
        ref_l, ref_s, bad = per_step_log_solve(k, H, 1.25, horizon)
        assert bad == -1
        assert_log_contract(x, ref_l, ref_s)
        assert_blocked_log_is_reference(k, H, 1.25, horizon)

    @pytest.mark.parametrize("m", [0, 40, 256, 2000])
    def test_block_cache_is_rectangular(self, m):
        r, R, hk = (long_kernel(m) if m else Kernel.zero())._block_state
        rows = min(_BLOCK, m)
        assert r.shape == (_BLOCK,) and R.shape == (_BLOCK, _BLOCK) and hk.shape == (rows, m)
        assert R.nbytes + hk.nbytes == 8 * (_BLOCK**2 + rows * m) <= 8 * (_BLOCK**2 + _BLOCK * 2000)
