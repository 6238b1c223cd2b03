import dataclasses
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volterra_lab import core, stochastic
from volterra_lab.asymptotics import ScalingModel, make_phi
from volterra_lab.core import (
    _BLOCK,
    _CEILING,
    _FLOOR,
    _SPAN,
    Kernel,
    _linear_recursion,
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
from volterra_lab.growth_catalogue import catalogue_entry
from volterra_lab.series import LogTrajectory, Trajectory
from volterra_lab.stochastic import (
    EnsembleSpec,
    ForcingGenerator,
    StatisticSpec,
    ensemble_verify,
    forcing_entry,
    generate,
    make_factor,
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

    @pytest.mark.parametrize("kernel", [
        Kernel.geometric(0.3, 0.5, 40), Kernel([0.5, 0.5]), Kernel([0.9, -0.3, 0.2]),
        Kernel.geometric(0.004, 0.99, 300),
    ], ids=["geometric-M40", "marginal", "signed", "geometric-M300"])
    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.7, 1.0])
    def test_at_scale_resolvent_is_the_weighted_resolvent(self, kernel, lam):
        weighted = resolvent(kernel, 600).values * lam ** np.arange(601)
        scaled = kernel.at_scale(lam)
        assert scaled.tail_bound == kernel.tail_bound
        assert scaled_gap(resolvent(scaled, 600).values, weighted) <= 1e-15

    @pytest.mark.parametrize("lam", [-0.1, 1 + 1e-15, math.nan])
    def test_at_scale_rejects_lambda_outside_unit_interval(self, lam):
        with pytest.raises(InputError, match=r"lambda must lie in \[0, 1\]"):
            Kernel([0.5]).at_scale(lam)

    @pytest.mark.parametrize("kernel", [
        Kernel.geometric(0.3, 0.5, 40), Kernel([0.5, 0.5]), Kernel([0.9, -0.3, 0.2]),
    ], ids=["summable", "marginal", "signed"])
    @pytest.mark.parametrize("horizon", [0, 1, 255, 256, 3000])
    def test_resolvent_l1_is_the_sum_of_the_resolvent(self, kernel, horizon):
        # bitwise while one row of at most B values runs the per-term loop,
        # within the engine's gap once it runs blocks
        expected = np.sum(np.abs(resolvent(kernel, horizon).values))
        l1 = kernel.resolvent_l1(horizon)
        assert type(l1) is float
        if horizon < _BLOCK:
            assert l1.hex() == float(expected).hex()
        assert abs(l1 - expected) <= 1e-12 * expected

    def test_resolvent_l1_on_a_long_horizon_is_bitwise_the_per_term_sum(self, monkeypatch):
        kernel = Kernel([0.5])
        expected = float(np.sum(np.abs(resolvent(kernel, 50000).values)))
        # the sum runs on the blocked engine, not on the per-term resolvent
        monkeypatch.setattr(core, "resolvent", None)
        assert kernel.resolvent_l1(50000).hex() == expected.hex()

    @pytest.mark.parametrize("kernel, horizon", [
        (Kernel([1.1]), 1000), (Kernel([0.6, 0.5]), 5000), (Kernel([1.0, 0.5]), 1500),
    ], ids=["1.1", "0.6,0.5", "1.0,0.5"])
    def test_resolvent_l1_of_a_growing_kernel_is_within_the_engine_gap(self, kernel, horizon):
        expected = np.sum(np.abs(resolvent(kernel, horizon).values))
        assert abs(kernel.resolvent_l1(horizon) - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("kernel, horizon", [(Kernel([2.0]), 2000), (Kernel([1.1]), 10000)],
                             ids=["2.0", "1.1"])
    def test_resolvent_l1_overflows_where_the_resolvent_does(self, kernel, horizon):
        with pytest.raises(TrajectoryOverflowError) as ref:
            resolvent(kernel, horizon)
        with pytest.raises(TrajectoryOverflowError) as err:
            kernel.resolvent_l1(horizon)
        assert err.value.index == ref.value.index > _BLOCK

    @pytest.mark.parametrize("horizon", [-1, 2.5])
    def test_resolvent_l1_rejects_a_bad_horizon(self, horizon):
        with pytest.raises(InputError, match=r"horizon must be an integer >= 0"):
            Kernel([0.5]).resolvent_l1(horizon)

    def test_ensemble_specs_compare(self):
        def spec(kernel):
            return EnsembleSpec(kernel=kernel, forcing=ForcingGenerator(kind="iid", seed=3),
                                horizon=100)

        assert spec(Kernel([0.5, 0.25])) == spec(Kernel([0.5, 0.25]))
        assert spec(Kernel([0.5, 0.25])) != spec(Kernel([0.5, 0.2]))
        # a spec's scaling model holds arrays, so specs are declared unhashable;
        # a generator holds only built parts and hashes by value
        with pytest.raises(TypeError, match="unhashable type: 'EnsembleSpec'"):
            hash(spec(Kernel([0.5])))
        assert {ForcingGenerator(kind="iid", seed=3): 1}[ForcingGenerator(kind="iid", seed=3)] == 1

    def test_statistic_specs_hash_by_value(self):
        # a spec holds a name, a band and a series name, so equal specs share a hash
        a = StatisticSpec(name="phi_average", band=(0.0, 1.0))
        b = StatisticSpec(name="phi_average", band=(0.0, 1.0))
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert a != StatisticSpec(name="phi_average", band=(0.0, 2.0))
        assert a != StatisticSpec(name="phi_average", band=(0.0, 1.0), series="forcing")


@pytest.mark.parametrize("value, other", [
    (make_phi("power", p=2.0), make_phi("power", p=3.0)),
], ids=["convex-functional"])
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
        logged = solve_linear(k, H.to_log(), 1.3, 100)
        assert isinstance(logged, LogTrajectory)
        back = logged.to_plain()
        assert np.allclose(back.values, plain.values, rtol=1e-12, atol=1e-300)

    def test_log_domain_follows_growth_past_overflow(self):
        # H(n) = 2^n up to n = 2000 cannot be represented in doubles
        n = np.arange(2001, dtype=float)
        H = LogTrajectory.from_log(n * math.log(2.0))
        x = solve_linear(Kernel.zero(), H.to_log(), 0.0, 2000)
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
        assert np.isclose(f.ratio_limit, 0.9)
        assert make_nonlinearity("solow", delta=0.0, s=0.2).ratio_limit == 1.0
        for name in ("identity", "bounded_offset", "sqrt_offset"):
            assert make_nonlinearity(name).ratio_limit == 1.0

    def test_nonlinearity_error_names_input(self):
        bad = make_nonlinearity("identity")
        object.__setattr__(bad, "fn", lambda x: float("nan"))
        with pytest.raises(NonlinearityError):
            solve_nonlinear(Kernel([0.5]), bad, ramp(3), 1.0, 3)

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError):
            make_nonlinearity("does_not_exist")

    def test_catalogue_members_are_finite(self):
        # every member, at its builder's defaults, on a symmetric grid of [-1e6, 1e6]
        grid = np.linspace(-1e6, 1e6, 201).tolist()
        for name in core._NONLINEARITIES:
            f = make_nonlinearity(name)
            assert all(math.isfinite(f(x)) for x in grid), name


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
    logged = solve_linear(k, H.to_log(), xi, n).to_plain().values
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
        # sum|k| = 100 > 1 runs the per-term loop, where r(n) = 100^n would
        # overflow inside the first block; x stays exactly zero
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


def bits(a):
    """The raw bits of a float array: signed zeros differ here, not under ==."""
    return np.asarray(a, dtype=np.float64).view(np.int64)


def rows_match_reference(kernel, h, xi, x, bad):
    """Each row of x bitwise the per-term loop's, through its first
    non-finite index, which bad must name."""
    for row, hp, b in zip(x, h, bad):
        ref, ref_bad = reference_solve(kernel.coefficients, hp, xi)
        assert b == ref_bad
        end = ref_bad + 1 if ref_bad >= 0 else None
        assert np.array_equal(bits(row[:end]), bits(ref[:end]))


class TestBatchedEngine:
    KERNEL = Kernel.geometric(0.3, 0.5, 40)
    LONG = Kernel(np.random.Generator(np.random.Philox(3)).dirichlet(np.ones(300)) * 0.9)

    @pytest.mark.parametrize("kernel, paths, xi", [
        (KERNEL, 20, 0.7), (Kernel([1.0]), 20, 0.7), (Kernel([1.9, -0.95]), 20, 0.7),
        (Kernel([0.4, -0.3, 0.2]), 20, 0.7), (Kernel.zero(), 20, 0.7),
        # M = 300 > B: the first blocks read a history shorter than M
        (LONG, 20, 0.7),
        # forcings with signed zeros, from xi = -0.0, and all-zero rows
        (KERNEL, 16, -0.0), (Kernel([1.9, -0.95]), 16, -0.0), (Kernel([0.4, -0.3, 0.2]), 16, -0.0),
        # the smallest batch
        (Kernel.geometric(0.3, 0.5, 12), 2, 0.7),
    ], ids=["kernel0", "kernel1", "kernel2", "signed", "zero", "M300", "zeros", "zeros-signed",
            "zeros-signed-summable", "P2"])
    def test_every_row_from_index_0_is_within_the_gap(self, kernel, paths, xi):
        # a kernel with sum|k| <= 1, signed or not, runs every block on all
        # rows at once from index 1; any other runs the per-term loop on each row
        h = batch_forcing(20, paths, 3 * _BLOCK + 7)
        if math.copysign(1.0, xi) < 0:
            h[:, ::3] = -0.0
            h[::2] = -0.0
        x, bad = batch_solve(kernel, h, xi)
        assert np.all(bad == -1)
        for row, hp in zip(x, h):
            assert scaled_gap(row, reference_solve(kernel.coefficients, hp, xi)[0]) <= 1e-12
        if kernel.l1_norm > 1.0:
            rows_match_reference(kernel, h, xi, x, bad)
        assert bits(x[:, 0]).tolist() == bits(np.full(paths, xi)).tolist()
        if math.copysign(1.0, xi) < 0:
            assert np.all(x[::2] == 0.0)

    @pytest.mark.parametrize("kernel, paths, horizon, per_term", [
        # every row of a solve of at most B values in all runs the per-term
        # loop; larger solves run blocks, at any kernel length, when sum|k| <= 1
        (Kernel.geometric(0.3, 0.5, 300), 1, _BLOCK - 1, True),
        (Kernel.geometric(0.3, 0.5, 300), 1, _BLOCK, False),
        (Kernel.geometric(0.3, 0.5, 1), 2, _BLOCK // 2 - 1, True),
        (Kernel.geometric(0.3, 0.5, 1), 2, _BLOCK // 2, False),
        (Kernel.geometric(0.3, 0.5, 300), 2, 2 * _BLOCK, False),
        # the kernel's sign takes no part; sum|k| > 1 runs every row per term,
        # though its r[:B] is finite and the log engine runs blocks with it
        (Kernel([0.4, -0.3, 0.2]), 2, 2 * _BLOCK, False),
        (Kernel([0.6, 0.5]), 2, 2 * _BLOCK, True),
    ], ids=["one-short-row", "one-row", "two-short-rows", "two-rows-past-B-values",
            "two-rows", "signed", "growing"])
    def test_dispatch_rule(self, monkeypatch, kernel, paths, horizon, per_term):
        assert kernel._block_state is not None  # r[:B] by the per-term loop, before counting
        calls = []
        linear_recursion = core._linear_recursion
        monkeypatch.setattr(core, "_linear_recursion",
                            lambda *args: calls.append(args) or linear_recursion(*args))
        h = batch_forcing(22, paths, horizon)
        x, bad = batch_solve(kernel, h, 0.7)
        assert len(calls) == (paths if per_term else 0)
        if per_term:
            rows_match_reference(kernel, h, 0.7, x, bad)
        for row, hp in zip(x, h):
            assert scaled_gap(row, reference_solve(kernel.coefficients, hp, 0.7)[0]) <= 1e-12

    def test_short_batch_is_within_the_gap(self):
        # N <= B: the whole solve is one block
        h = batch_forcing(23, 8, _BLOCK - 1)
        x, bad = batch_solve(self.KERNEL, h, 0.7)
        assert np.all(bad == -1)
        for row, hp in zip(x, h):
            assert scaled_gap(row, reference_solve(self.KERNEL.coefficients, hp, 0.7)[0]) <= 1e-12

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

    @pytest.mark.parametrize("delay", [0, _BLOCK + 40], ids=["first-block", "later-block"])
    def test_rows_of_steps_near_overflow_are_the_per_term_loop(self, delay):
        # x(n+1) = 0.999 x(n) + H(n+1), a random walk of steps 1e307 that
        # reaches DBL_MAX.  With |r| <= 1 no product overflows, but a block's
        # sums, in the order BLAS adds them, could (on one BLAS, rows 0 and 1
        # at 205 and 218 in the first block, and row 2 at 747 in a later one,
        # against 289, 384 and 819).  Steps of 1e307 are far above the bound
        # B (N + 2) max|H| < 2^1000, so every row runs the per-term loop
        # throughout and fails where it does, bit for bit
        kernel = Kernel([0.999])
        h = np.random.Generator(np.random.Philox(71)).normal(size=(3, 4 * _BLOCK)) * 1e307
        h[:, :delay] = 0.0
        x, bad = batch_solve(kernel, h, 0.0)
        assert np.all(bad > delay)
        rows_match_reference(kernel, h, 0.0, x, bad)

    @pytest.mark.parametrize("kernel, spikes", [
        # x(B + 2) = 0.999 x(B) + 1e308 overflows, x(B + 1) = 0 does not
        (Kernel([0.0, 0.999]), [1.7e308, 0.0, 1e308]),
        # x(B..B+2) = 1.7e308, 0.85e308, 1.425e308, and then it decays
        (Kernel([-0.5, 0.5]), [1.7e308, 1.7e308, 1e308]),
    ], ids=["fails-at-B+2", "never-fails"])
    def test_a_row_of_spikes_near_overflow_is_the_per_term_loop(self, kernel, spikes):
        # spikes at B, B + 1 and B + 2: a block from B + 1 would add the
        # history k(1) x(B) to H(B + 2) = 1e308, which overflows, and inf
        # times the zero R[0, 1] would make x(B + 1) NaN.  The spiked row is
        # above the bound, so it runs the per-term loop throughout, bit for
        # bit; the zero row beside it runs blocks
        h = np.zeros((2, 3 * _BLOCK))
        h[0, _BLOCK : _BLOCK + 3] = spikes
        x, bad = batch_solve(kernel, h, 0.0)
        rows_match_reference(kernel, h[:1], 0.0, x[:1], bad[:1])
        assert bad[1] == -1 and np.all(x[1] == 0.0)

    def test_growing_kernel_runs_every_row_on_the_reference(self):
        # sum|k| > 1: every row runs the per-term loop, one or several
        for paths in (1, 3):
            h = batch_forcing(60, paths, 3 * _BLOCK)
            h[:, : _BLOCK + 5] = 0.0
            x, bad = batch_solve(Kernel([100.0]), h, 0.0)
            rows_match_reference(Kernel([100.0]), h, 0.0, x, bad)
            assert np.all(bad > _BLOCK)

    def test_growing_kernel_runs_per_term_over_several_chunks(self):
        # sum|k| = 800 > 1, so every row runs the per-term loop to the end,
        # each chunk past the first from M values of history: a zero row, two
        # that reach 1e264 and one that overflows soon after its forcing starts
        kernel = Kernel(np.full(40, 20.0))
        assert kernel._block_state is None
        h = batch_forcing(61, 4, core._CHUNK + 300)
        h[:, : core._CHUNK + 100] = 0.0
        h[0] = 0.0
        h[3] *= 1e300
        x, bad = batch_solve(kernel, h, 0.0)
        rows_match_reference(kernel, h, 0.0, x, bad)
        assert bad[:3].tolist() == [-1, -1, -1] and bad[3] > core._CHUNK + 100


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
# growing kernels, sum k = 1.4625 and 1.157, on which blocks of all rows
# once left a row 4.8e-12 and 2.4e-12 from the same path solved alone
@example("growing", [0.5, 0.5, 0.375, 0.375], 0.921875, 2, 257, 8287137, 0.0)
@example("growing", [0.8125, 0.3125, 0.875, 0.9375], 0.28515625, 2, 257, 1588, 0.80859375)
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


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([0, 1, 2, 5, 40, 300]),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=2, max_value=600),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0.7, 0.0, -0.0]),
)
def test_rows_fail_where_the_per_term_loop_does(m, paths, n, seed, xi):
    # signed kernels and forcings with signed zeros; a 1e300 scale makes rows
    # overflow.  A kernel with sum|k| > 1 runs the per-term loop on every
    # row, and so does a row above the bound, so each such row is bitwise
    # that loop's through its first non-finite index.  The other rows of a
    # kernel with sum|k| <= 1, signed or not, run blocks from index 1 and
    # keep the scaled gap from index 0
    rng = np.random.Generator(np.random.Philox(seed))
    k = rng.normal(size=m) * rng.choice([0.3, 1.0, 3.0])
    k[rng.random(m) < 0.2] = -0.0
    kernel = Kernel(k)
    h = rng.normal(size=(paths, n))
    scale = rng.choice([1.0, 1e300], size=(paths, 1))
    h *= scale
    h[rng.random(h.shape) < 0.2] = -0.0
    x, bad = batch_solve(kernel, h, xi)
    # 1e300-scale rows are far above the bound B (N + 2) max|H| < 2^1000 at
    # every n >= 2, so they run the per-term loop throughout
    per_term = (scale[:, 0] > 1.0) | (kernel.l1_norm > 1.0)
    rows_match_reference(kernel, h[per_term], xi, x[per_term], bad[per_term])
    for row, hp, b in zip(x[~per_term], h[~per_term], bad[~per_term]):
        ref, ref_bad = reference_solve(k, hp, xi)
        assert b == ref_bad
        end = ref_bad if ref_bad >= 0 else n
        assert scaled_gap(row[:end], ref[:end]) <= 1e-12


# --------------------------------------------------------------------------
# a lone plain row: groups of whole blocks, with only M values between blocks
# --------------------------------------------------------------------------

def extended_solve(k, h, xi):
    """x(0..len(h)-1) by the per-term recursion in np.longdouble, rounded to doubles."""
    k = np.asarray(k, dtype=np.longdouble)
    out = np.empty(len(h), dtype=np.longdouble)
    out[0] = xi
    for n in range(len(h) - 1):
        w = min(n + 1, len(k))
        out[n + 1] = np.dot(k[:w], out[n - w + 1 : n + 1][::-1]) + np.longdouble(h[n + 1])
    return out.astype(float)


def record_groups(monkeypatch):
    """Every (lo, hi) of ``_lone_row_blocks``, in order."""
    groups = []
    lone_row_blocks = core._lone_row_blocks

    def recorded(kernel, row, lo, hi):
        groups.append((lo, hi))
        return lone_row_blocks(kernel, row, lo, hi)

    monkeypatch.setattr(core, "_lone_row_blocks", recorded)
    return groups


# groups run for kernels of one term alone; the last keeps 0.999^256 = 0.77
# of its carried value per block
LONE_KERNELS = [Kernel([0.5]), Kernel([1.0]), Kernel([-0.999])]
LONE_IDS = ["summable", "marginal", "signed"]


class TestLoneRow:
    @pytest.mark.parametrize("kernel", LONE_KERNELS, ids=LONE_IDS)
    @pytest.mark.parametrize("horizon", [core._GROUP * _BLOCK - 1, core._GROUP * _BLOCK + 1,
                                         2 * core._GROUP * _BLOCK + 7])
    def test_within_the_gap_across_group_edges(self, monkeypatch, kernel, horizon):
        groups = record_groups(monkeypatch)
        h = random_forcing(80, horizon)
        x = solve_linear(kernel, traj(h), -0.6, horizon).values
        ref = reference_solve(kernel.coefficients, h, -0.6)[0]
        if np.sum(kernel.coefficients) == 1.0:
            # on a marginal kernel the per-term loop drifts by 1.8e-12 from
            # exact arithmetic over these horizons: the row must be no farther
            exact = extended_solve(kernel.coefficients, h, -0.6)
            assert scaled_gap(x, exact) <= scaled_gap(ref, exact)
        else:
            assert scaled_gap(x, ref) <= 1e-12
        # every whole block after the first, in adjoining groups of near-equal size
        whole = horizon // _BLOCK - 1
        assert len(groups) == -(-whole // core._GROUP)
        cuts = [lo for lo, _ in groups] + [groups[-1][1]]
        assert cuts[0] == 1 + _BLOCK and cuts[-1] == 1 + _BLOCK * (1 + whole)
        assert [hi for _, hi in groups] == cuts[1:]
        sizes = np.diff(cuts) // _BLOCK
        assert sizes.max() <= core._GROUP and sizes.max() - sizes.min() <= 1

    @pytest.mark.parametrize("kernel, paths, whole, grouped", [
        (Kernel([0.5]), 1, core._GROUP_MIN - 1, False),
        (Kernel([0.5]), 1, core._GROUP_MIN, True),
        (Kernel([-0.9]), 1, 2 * core._GROUP, True),
        # M > 1, M = 0, a batch, and sum|k| > 1 run no group
        (Kernel([0.5, 0.25]), 1, core._GROUP_MIN, False),
        (Kernel.geometric(0.3, 0.5, _BLOCK), 1, core._GROUP_MIN, False),
        (Kernel.zero(), 1, core._GROUP_MIN, False),
        (Kernel([0.5]), 2, core._GROUP_MIN, False),
        (Kernel([1.001]), 1, core._GROUP_MIN, False),
    ], ids=["too-few-blocks", "fewest-blocks", "two-groups", "M=2", "M=B", "zero", "batch",
            "growing"])
    def test_dispatch_rule(self, monkeypatch, kernel, paths, whole, grouped):
        groups = record_groups(monkeypatch)
        # the first block, ``whole`` blocks after it, and a partial one
        horizon = _BLOCK * (1 + whole) + 17
        h = batch_forcing(83, paths, horizon)
        x, bad = batch_solve(kernel, h, 0.7)
        assert np.all(bad == -1)
        assert bool(groups) == grouped
        if grouped:
            assert groups[0][0] == 1 + _BLOCK and groups[-1][1] == 1 + _BLOCK * (1 + whole)
        for row, hp in zip(x, h):
            assert scaled_gap(row, reference_solve(kernel.coefficients, hp, 0.7)[0]) <= 1e-12

    def test_a_long_row_runs_one_group_between_two_block_steps(self, monkeypatch):
        # the shape of criterion 11's paths, at 50001 steps: M = 1 and 195
        # whole blocks and a partial one.  The first block and the partial
        # one run the block step, the 194 whole blocks between them one group
        shapes = []
        toeplitz_block = core._toeplitz_block
        monkeypatch.setattr(core, "_toeplitz_block",
                            lambda state, f, prev: shapes.append(f.shape)
                            or toeplitz_block(state, f, prev))
        groups = record_groups(monkeypatch)
        h = random_forcing(82, 50001)
        x = solve_linear(Kernel([0.5]), traj(h), 0.7, 50001).values
        assert shapes == [(1, _BLOCK), (1, 50001 - 195 * _BLOCK)]
        assert groups == [(1 + _BLOCK, 1 + 195 * _BLOCK)]
        assert scaled_gap(x, reference_solve([0.5], h, 0.7)[0]) <= 1e-12

    @pytest.mark.parametrize("kernel", LONE_KERNELS, ids=LONE_IDS)
    def test_a_lone_row_is_within_the_gap_of_the_row_in_a_batch(self, kernel):
        horizon = _BLOCK * (core._GROUP_MIN + 9) + 100
        h = batch_forcing(81, 3, horizon)
        x, bad = batch_solve(kernel, h, 0.3)
        alone, alone_bad = batch_solve(kernel, h[1:2], 0.3)
        assert bad.tolist() == [-1, -1, -1] and alone_bad.tolist() == [-1]
        assert scaled_gap(alone[0], x[1]) <= 1e-12
        assert np.array_equal(bits(batch_solve(kernel, h[1:2], 0.3)[0]), bits(alone))

    def test_a_row_that_overflows_in_a_later_group_is_the_per_term_loop(self, monkeypatch):
        # x(n+1) = 0.999 x(n) + H(n+1) with steps of 1e307 from three blocks
        # into what would be the second group: the row is above the bound, so
        # it runs no group and no block, and is the per-term loop bit for bit
        kernel = Kernel([0.999])
        horizon = 2 * core._GROUP * _BLOCK + 7
        start = (core._GROUP + 4) * _BLOCK
        h = np.zeros((1, horizon + 1))
        h[0, start:] = np.random.Generator(np.random.Philox(72)).normal(
            size=horizon + 1 - start) * 1e307
        groups = record_groups(monkeypatch)
        x, bad = batch_solve(kernel, h, 0.0)
        assert groups == [] and bad[0] > start
        rows_match_reference(kernel, h, 0.0, x, bad)
        with pytest.raises(TrajectoryOverflowError) as err:
            solve_linear(kernel, traj(h[0]), 0.0, horizon)
        assert err.value.index == bad[0]

    def test_repeated_calls_are_bitwise_identical(self):
        h = random_forcing(84, 100 * _BLOCK)
        first = solve_linear(Kernel([-0.7]), traj(h), 0.3, 100 * _BLOCK).values
        again = solve_linear(Kernel([-0.7]), traj(h), 0.3, 100 * _BLOCK).values
        assert np.array_equal(bits(first), bits(again))


# --------------------------------------------------------------------------
# one overflow decision per row: blocks below the bound, the per-term loop above
# --------------------------------------------------------------------------

def overflow_bound(n):
    """The |input| below which a row of n values of a kernel with sum|k| <= 1
    runs blocks: B (n + 2) times it stays below 2^1000."""
    return 2.0**1000 / (_BLOCK * (n + 2))


class TestOverflowBound:
    # the first block, 48 whole blocks after it and a partial one: a lone
    # row of a kernel of one term runs them as one group
    N = 1 + _BLOCK * (1 + core._GROUP_MIN) + 17

    def test_a_row_just_below_runs_blocks_and_one_just_above_is_the_loop(self, monkeypatch):
        # on [1.0] with x(0) = H = c, x(n) = (n + 1) c: the largest a kernel
        # with sum|k| <= 1 makes of inputs no larger than c
        kernel = Kernel([1.0])
        top = overflow_bound(self.N)
        below = np.nextafter(top, 0.0)
        h = np.array([np.full(self.N, below), np.full(self.N, top)])
        groups = record_groups(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x, bad = batch_solve(kernel, h, below)
        assert bad.tolist() == [-1, -1]
        assert scaled_gap(x[0], reference_solve([1.0], h[0], below)[0]) <= 1e-12
        rows_match_reference(kernel, h[1:], below, x[1:], bad[1:])
        # the row below runs as a lone row, its groups included, bit for bit
        alone, alone_bad = batch_solve(kernel, h[:1], below)
        assert alone_bad.tolist() == [-1]
        assert np.array_equal(bits(alone[0]), bits(x[0]))
        assert groups == [(1 + _BLOCK, 1 + _BLOCK * (1 + core._GROUP_MIN))] * 2

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_a_non_finite_forcing_fails_at_the_loops_index(self, monkeypatch, value):
        # the row holding it runs the per-term loop; the other two keep
        # their blocks, as a batch of the two
        kernel = Kernel.geometric(0.3, 0.5, 40)
        h = batch_forcing(90, 3, 4 * _BLOCK - 1)
        h[1, 300] = value
        rows_per_block = []
        toeplitz_block = core._toeplitz_block
        monkeypatch.setattr(core, "_toeplitz_block",
                            lambda state, f, prev: rows_per_block.append(len(f))
                            or toeplitz_block(state, f, prev))
        x, bad = batch_solve(kernel, h, 0.7)
        assert bad.tolist() == [-1, 300, -1]
        rows_match_reference(kernel, h[1:2], 0.7, x[1:2], bad[1:2])
        assert rows_per_block == [2] * 4
        assert np.array_equal(bits(x[[0, 2]]), bits(batch_solve(kernel, h[[0, 2]], 0.7)[0]))

    @pytest.mark.parametrize("above, grouped", [
        ([False, True], True), ([True, False, True], True), ([False, True, False], False),
    ], ids=["one-of-two-fits", "one-of-three-fits", "two-of-three-fit"])
    def test_groups_come_from_the_rows_that_fit(self, monkeypatch, above, grouped):
        # the rows that fit are solved as a batch of their own: one such row
        # runs groups, as a lone row does, and is bitwise that row solved alone
        kernel = Kernel([0.5])
        above = np.array(above)
        h = batch_forcing(91, len(above), self.N - 1)
        h[above] *= 1e300
        groups = record_groups(monkeypatch)
        x, bad = batch_solve(kernel, h, 0.3)
        assert np.all(bad == -1)
        assert bool(groups) == grouped
        rows_match_reference(kernel, h[above], 0.3, x[above], bad[above])
        assert np.array_equal(bits(x[~above]), bits(batch_solve(kernel, h[~above], 0.3)[0]))
        for row, hp in zip(x[~above], h[~above]):
            assert scaled_gap(row, reference_solve([0.5], hp, 0.3)[0]) <= 1e-12


def per_path_ensemble(system, paths, statistic):
    """(failures, pass fraction, median, per_path) as ensemble_verify computed
    them before it batched paths: each path generated, solved and scored alone."""
    values = []
    for child in np.random.SeedSequence(system.forcing.seed).spawn(paths):
        rng = np.random.Generator(np.random.Philox(child))
        try:
            forcing = generate(system.forcing, system.horizon,
                               log_domain=system.log_domain, rng=rng)
            x = solve_linear(system.kernel, forcing, system.xi, system.horizon)
            series = x if statistic.series == "solution" else forcing
            values.append(float(stochastic._path_statistic(statistic, series, system)))
        except (TrajectoryOverflowError, UndefinedRatioError, InputError):
            values.append(None)
    finite = np.array([v for v in values if v is not None and math.isfinite(v)])
    lo, hi = statistic.band
    in_band = int(np.count_nonzero((finite >= lo) & (finite <= hi)))
    median = float(np.median(finite)) if finite.size else float("nan")
    per_path = tuple(sorted(finite)) + (float("nan"),) * (paths - finite.size)
    return values.count(None), in_band / paths, median, per_path


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
                      scaling=ScalingModel.from_entry(catalogue_entry("sqrt_log"), 100_000)),
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
        # log-domain paths, each solved alone: a modulated geometric forcing
        # that underflows doubles past n = 1074, and a geometric walk scored on itself
        (EnsembleSpec(kernel=Kernel([0.5]), horizon=3000, log_domain=True,
                      forcing=ForcingGenerator(kind="modulated", seed=3,
                                               entry=forcing_entry("geometric", lam=0.5),
                                               factor=make_factor("iid_uniform")),
                      scaling=ScalingModel.from_entry(catalogue_entry("geometric", lam=0.5),
                                                      3000, log_domain=True)),
         6, StatisticSpec(name="cesaro_limit", band=(0.6, 0.7))),
        (EnsembleSpec(kernel=Kernel([0.5]), horizon=8000, log_domain=True,
                      forcing=ForcingGenerator(kind="geometric_random_walk", seed=17, drift=0.1,
                                               noise=make_tail_model("normal", sigma=0.5))),
         12, StatisticSpec(name="log_growth_rate", band=(0.09, 0.11), series="forcing")),
    ])
    def test_matches_the_per_path_loop(self, system, paths, statistic):
        res = ensemble_verify(system, paths, statistic)
        failures, pass_fraction, median, per_path = per_path_ensemble(system, paths, statistic)
        assert (res.failures, res.pass_fraction) == (failures, pass_fraction)
        assert res.median == pytest.approx(median, rel=1e-12, nan_ok=True)
        if system.log_domain:
            np.testing.assert_array_equal(res.per_path, per_path)

    @pytest.mark.parametrize("log_domain", [False, True])
    @pytest.mark.parametrize("horizon, xi",
                             [(300, math.inf), (300, math.nan), (0, 1.0), (2.5, 1.0)])
    def test_a_bad_start_or_horizon_raises_before_any_path(self, monkeypatch, log_domain,
                                                           horizon, xi):
        monkeypatch.setattr(stochastic, "generate", None)  # no path may start
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
        # blocks of B from index 1 cover the horizon indices 1..N
        blocks = -(-horizon // _BLOCK)
        assert len(calls) == groups * blocks
        assert set(calls) == {16 // groups}


# --------------------------------------------------------------------------
# block-scaled log-domain engine against extended precision
# --------------------------------------------------------------------------

GROWTH_KERNEL = Kernel.geometric(0.3, 0.5, 40)


def log_forcing(name, horizon, **params):
    gen = ForcingGenerator(kind="deterministic", entry=forcing_entry(name, **params))
    return generate(gen, horizon, log_domain=True)


def aligned_log(forcing, horizon):
    """(log|H|, sign H) on 0..horizon, as the log engine reads them."""
    _, (lh, sh) = core._aligned_forcing(forcing, horizon, log_domain=True)
    return lh, sh


def extended_log_solve(k, lh, xi, sh=None):
    """(log|x|, sign x) by the per-step signed log-sum-exp in np.longdouble;
    a forcing without ``sh`` is positive where log|H| > -inf."""
    k = np.asarray(k, dtype=float)
    sh = np.where(lh == -np.inf, 0.0, 1.0) if sh is None else sh
    lags = np.flatnonzero(k != 0.0)
    lk, sk = np.log(np.abs(k[lags]).astype(np.longdouble)), np.sign(k[lags])
    out = np.full(len(lh), -np.inf, dtype=np.longdouble)
    sign = np.zeros(len(lh))
    if xi != 0.0:
        out[0], sign[0] = np.log(np.longdouble(abs(xi))), math.copysign(1.0, xi)
    for n in range(len(lh) - 1):
        back = n - lags[lags <= n]
        signs = np.append(sk[: len(back)] * sign[back], sh[n + 1])
        live = signs != 0.0
        if live.any():
            terms = np.append(lk[: len(back)] + out[back], np.longdouble(lh[n + 1]))[live]
            peak = terms.max()
            acc = np.sum(signs[live] * np.exp(terms - peak))
            if acc != 0.0:
                out[n + 1], sign[n + 1] = peak + np.log(abs(acc)), np.sign(acc)
    return out.astype(float), sign


def exact_log_solve(kernel, forcing, xi, horizon):
    """:func:`extended_log_solve` of a log-domain solve's inputs."""
    lh, sh = aligned_log(forcing, horizon)
    return extended_log_solve(kernel.coefficients, lh, xi, sh)


def mpmath_log_solve(k, lh, xi, sh=None):
    """(log|x|, sign x) in 40-digit arithmetic; a forcing without ``sh`` is
    positive where log|H| > -inf."""
    mpmath = pytest.importorskip("mpmath")
    sh = np.where(lh == -np.inf, 0.0, 1.0) if sh is None else sh
    with mpmath.workdps(40):
        weights = [mpmath.mpf(c) for c in k]
        x = [mpmath.mpf(xi)]
        for n in range(len(lh) - 1):
            acc = float(sh[n + 1]) * mpmath.exp(mpmath.mpf(lh[n + 1]))
            for l in range(min(n + 1, len(weights))):
                acc += weights[l] * x[n - l]
            x.append(acc)
        return (np.array([float(mpmath.log(abs(v))) for v in x]),
                np.array([float(mpmath.sign(v)) for v in x]))


def record_per_term(monkeypatch):
    """Every [lo, hi) the log engine runs ``_per_term_block`` on, in order: a
    block that splits is followed by its halves, the left one first."""
    windows = []
    per_term = core._per_term_block

    def recorded(k, out_l, out_s, lo, hi, floor, shift):
        windows.append((lo, hi))
        return per_term(k, out_l, out_s, lo, hi, floor, shift)

    monkeypatch.setattr(core, "_per_term_block", recorded)
    return windows


def kept(windows):
    """The windows of :func:`record_per_term` that did not split."""
    return [w for w, after in zip(windows, windows[1:] + [None])
            if after != (w[0], (w[0] + w[1]) // 2)]


def assert_log_contract(x, ref_l, ref_s):
    # equal signs throughout, the first block included; log|x| within the
    # tolerance of the exact value
    assert np.array_equal(x.sign, ref_s)
    live = ref_s != 0.0
    gap = np.abs(x.log_abs[live] - ref_l[live])
    assert np.all(gap <= 1e-12 + 1e-15 * np.abs(ref_l[live]))


class TestBlockedLogEngine:
    @pytest.mark.parametrize("name", [f"H{i}" for i in range(1, 10)])
    def test_growth_catalogue_keeps_the_contract(self, name):
        horizon = 6 * _BLOCK + 5
        H = log_forcing(name, horizon)
        x = solve_linear(GROWTH_KERNEL, H.to_log(), 1.1, horizon)
        assert_log_contract(x, *exact_log_solve(GROWTH_KERNEL, H, 1.1, horizon))

    def test_iterated_exponential_runs_one_step_blocks_past_its_first_block(self, monkeypatch):
        # log H(n) = e^n leaves double range after n = 709: generation refuses
        # it.  Up to there, from n = 8 on, each step spans more than one block
        # may, so all but the scaled block [1, 8) is a one-step per-term
        # block, and nothing overflows
        with pytest.raises(InputError, match="overflowed in log space"):
            log_forcing("H10", 710)
        H = log_forcing("H10", 709)
        windows = record_per_term(monkeypatch)
        x = solve_linear(GROWTH_KERNEL, H.to_log(), 1.0, 709)
        assert windows == [(n, n + 1) for n in range(8, 710)]
        assert_log_contract(x, *exact_log_solve(GROWTH_KERNEL, H, 1.0, 709))

    @pytest.mark.parametrize("kernel, signs", [
        (Kernel([0.5, -0.2, 0.1]), "positive"),
        (GROWTH_KERNEL, "random"),
    ], ids=["signed-kernel", "mixed-sign-forcing"])
    def test_sign_incoherent_inputs_run_per_term_blocks(self, monkeypatch, kernel, signs):
        horizon = 4 * _BLOCK
        rng = np.random.Generator(np.random.Philox(12))
        la = np.concatenate(([-np.inf], 0.7 * np.arange(1, horizon + 1)))
        sg = np.ones(horizon + 1) if signs == "positive" else rng.choice([-1.0, 1.0], horizon + 1)
        sg[0] = 0.0
        H = LogTrajectory(la, sg)
        windows = record_per_term(monkeypatch)
        x = solve_linear(kernel, H.to_log(), 0.8, horizon)
        assert windows == [(t, t + _BLOCK) for t in range(1, horizon + 1, _BLOCK)]
        assert_log_contract(x, *exact_log_solve(kernel, H, 0.8, horizon))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_sign_forcing_against_mpmath(self, seed):
        # log|H(n)| = 0.05 n + N(0, 1) with random signs: every block runs
        # per term.  A step can cancel: on seed 0, sum|terms| / |x| reaches
        # 3.4e4, and the plain double recursion alone is 4e-12 off there on
        # [0.5, 0.3], so the bound is wider than the Toeplitz contract
        horizon = 4000
        rng = np.random.Generator(np.random.Philox(seed))
        la = 0.05 * np.arange(horizon + 1) + rng.normal(size=horizon + 1)
        sg = rng.choice([-1.0, 1.0], horizon + 1)
        la[0], sg[0] = -np.inf, 0.0
        for k, tol in (([0.5, 0.3], 1e-11), ([1.9, -0.95], 5e-11)):
            x = solve_linear(Kernel(k), LogTrajectory(la, sg), 0.8, horizon)
            ref_l, ref_s = mpmath_log_solve(k, la, 0.8, sg)
            assert np.array_equal(x.sign, ref_s)
            assert np.max(np.abs(x.log_abs - ref_l)) <= tol

    def test_underflow_spike_splits_per_term_blocks(self, monkeypatch):
        # x(n) = 1e-3^(n - s) from one unit of forcing at s = B + 40.  The
        # per-term floor is 1e-280 max|r[:B]| (1 + sum|k|) = 1.001e-280 in
        # units of exp(ref), so a block holds at most 93 steps of the decay
        # from its first value: [B + 1, 2B + 1) and every block after it
        # splits in half until its values stay above the floor
        horizon, s = 3 * _BLOCK, _BLOCK + 40
        la = np.full(horizon + 1, -np.inf)
        la[s] = 0.0
        windows = record_per_term(monkeypatch)
        x = solve_linear(Kernel([1e-3]), LogTrajectory.from_log(la), 0.0, horizon)
        assert kept(windows) == [(1, 257), (257, 385), (385, 449), (449, 513),
                                 (513, 577), (577, 641), (641, 705), (705, 769)]
        n = np.arange(horizon + 1)
        assert x.log_abs[-1] < -3000.0
        assert_log_contract(x, np.where(n >= s, (n - s) * math.log(1e-3), -np.inf),
                            np.where(n >= s, 1.0, 0.0))

    def test_an_underflowing_input_splits_the_block(self, monkeypatch):
        # x(0) = 1 and forcing e^1000 from index 101: the forcing has no
        # spread, so ref = 1000 and the start underflows to zero once scaled.
        # Kept whole, the block would read exact zeros on 1..100
        horizon = _BLOCK
        H = LogTrajectory.from_log(np.concatenate(([-np.inf], np.full(100, -np.inf),
                                                   np.full(horizon - 100, 1000.0))))
        kernel = Kernel([0.5, -0.2])
        windows = record_per_term(monkeypatch)
        x = solve_linear(kernel, H, 1.0, horizon)
        assert windows[0] == (1, horizon + 1) and kept(windows)[0] == (1, 65)
        assert np.all(x.sign != 0.0)
        assert_log_contract(x, *exact_log_solve(kernel, H, 1.0, horizon))

    def test_zero_forcing_and_start_give_zeros(self):
        horizon = 3 * _BLOCK
        H = LogTrajectory.from_log(np.full(horizon + 1, -np.inf))
        x = solve_linear(GROWTH_KERNEL, H.to_log(), 0.0, horizon)
        assert np.all(x.sign == 0.0)
        assert np.all(x.log_abs == -np.inf)

    def test_repeated_calls_are_bitwise_identical(self):
        H = log_forcing("factorial", 8 * _BLOCK)
        first = solve_linear(GROWTH_KERNEL, H.to_log(), 0.9, 8 * _BLOCK)
        again = solve_linear(GROWTH_KERNEL, H.to_log(), 0.9, 8 * _BLOCK)
        assert np.array_equal(first.log_abs, again.log_abs)
        assert np.array_equal(first.sign, again.sign)

    @pytest.mark.parametrize("name, horizon, params", [
        ("factorial", 20_000, {}),
        ("geometric", 10_000, {"lam": 0.5}),
    ])
    def test_no_block_runs_per_term(self, monkeypatch, caplog, name, horizon, params):
        # the log_growth benchmark configs: every block is scaled, the first
        # included, and within the contract
        H = log_forcing(name, horizon, **params)
        windows = record_per_term(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="volterra_lab.core"):
            x = solve_linear(GROWTH_KERNEL, H.to_log(), 1.25, horizon)
        assert windows == []
        assert np.all(x.sign == 1.0)
        assert not caplog.records
        assert_log_contract(x, *exact_log_solve(GROWTH_KERNEL, H, 1.25, horizon))

    def test_cancellation_is_reported(self, caplog):
        # exact x(3) = (1e300 + 1) - 1e300 + 1 = 2; the log domain gets 1
        H = traj([0.0, 1e300, 1.0, 1.0])
        with caplog.at_level(logging.WARNING, logger="volterra_lab.core"):
            x = solve_linear(Kernel([1.0, -1.0]), H.to_log(), 0.0, 3)
        assert x.to_plain().values[3] == 1.0
        [record] = caplog.records
        assert "cancellation at index 3" in record.message
        assert "300.3 digits lost" in record.message

    def test_exact_zero_sum_is_not_reported(self, caplog):
        # x(3) = x(2) - x(1) + 0 = 0 exactly: no digits are lost
        with caplog.at_level(logging.WARNING, logger="volterra_lab.core"):
            x = solve_linear(Kernel([1.0, -1.0]), traj([0.0, 1.0, 0.0, 0.0]).to_log(), 0.0, 3)
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
    # The tolerance is held against extended precision
    w = np.array(weights)
    k = Kernel(w / np.sum(w) * mass if np.sum(w) > 0 else w)
    rng = np.random.Generator(np.random.Philox(seed))
    la = drift * np.arange(horizon + 1) + rng.normal(scale=2.0, size=horizon + 1)
    la[0] = -np.inf
    x = solve_linear(k, LogTrajectory.from_log(la), xi, horizon)
    assert_log_contract(x, *extended_log_solve(k.coefficients, la, xi))


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


def both_linear(k, h, xi, windows=((1, None),)):
    # the numpy-scalar loop in one run, the Python-float loop window by window
    ref = np.empty(len(h))
    with np.errstate(all="ignore"):
        ref_bad = numpy_linear_recursion(k, h, xi, ref)
    out = np.empty(len(h))
    returned = [_linear_recursion(k, h, xi, out, lo=lo, hi=hi) for lo, hi in windows]
    bad = next((b for b in returned if b >= 0), -1)
    stop = len(h) if bad < 0 else bad + 1
    assert bad == ref_bad
    assert_same_bits(out[:stop], ref[:stop])
    return bad


# indices that split [1, N) into consecutive windows [lo, hi)
WINDOW_CUTS = [(1, 2, 3), (100, CHUNK + 50), (CHUNK - 1, CHUNK + 1), (7, 2 * CHUNK, 2 * CHUNK + 1)]


def split_at(cuts):
    edges = (1,) + cuts + (None,)
    return list(zip(edges[:-1], edges[1:]))


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

    @pytest.mark.parametrize("cuts", WINDOW_CUTS)
    def test_linear_windows(self, cuts):
        assert both_linear(loop_kernel(40, 8), loop_forcing(3 * CHUNK + 7, 9), -0.4,
                           split_at(cuts)) == -1

    # the log domain runs the same loop on scaled doubles in per-term blocks

    @pytest.mark.parametrize("m", [0, 1, 40])
    @pytest.mark.parametrize("horizon", LOOP_HORIZONS)
    def test_log_matches_the_plain_domain(self, m, horizon):
        # mixed signs and exact zeros: every log block runs per term
        k = Kernel(loop_kernel(m, m + 1))
        H = traj(loop_forcing(horizon, horizon + 1))
        x = solve_linear(k, H.to_log(), 0.7, horizon).to_plain().values
        assert scaled_gap(x, solve_linear(k, H, 0.7, horizon).values) <= 1e-12

    @pytest.mark.parametrize("cuts", WINDOW_CUTS)
    def test_log_windows(self, cuts):
        # per-term blocks window by window, each across chunk edges, read the
        # history that the blocks before them left in (log|x|, sign x)
        k = loop_kernel(40, 8)
        H = traj(loop_forcing(3 * CHUNK + 7, 9))
        # the outputs start as the forcing, which each window overwrites
        out_l, out_s = aligned_log(H.to_log(), 3 * CHUNK + 7)
        out_l[0], out_s[0] = math.log(0.4), -1.0
        with np.errstate(all="ignore"):
            for lo, hi in split_at(cuts):
                core._per_term_block(k, out_l, out_s, lo, hi or len(out_l), _FLOOR, 0.0)
        ref = solve_linear(Kernel(k), H, -0.4, 3 * CHUNK + 7).values
        assert scaled_gap(out_s * np.exp(out_l), ref) <= 1e-12

    def test_log_kernel_longer_than_horizon(self):
        k = Kernel(loop_kernel(40, 6))
        H = traj(loop_forcing(10, 7))
        x = solve_linear(k, H.to_log(), 1.1, 10)
        assert_log_contract(x, *exact_log_solve(k, H, 1.1, 10))

    def test_log_lossy_in_second_chunk(self, caplog):
        # x(n+1) = x(n) - x(n-1) + 1: a spike of 1e300 cancels two steps later
        h = np.ones(2 * CHUNK)
        h[0] = 0.0
        h[CHUNK + 10] = 1e300
        with caplog.at_level(logging.WARNING, logger="volterra_lab.core"):
            solve_linear(Kernel([1.0, -1.0]), traj(h).to_log(), 1.0, 2 * CHUNK - 1)
        [record] = caplog.records
        assert f"cancellation at index {CHUNK + 12}:" in record.message

    def test_log_negative_zero_start_and_zero_forcing(self):
        # -0.0 is a zero start: zero forcing gives zeros, and any forcing the
        # solve from +0.0
        k = Kernel(loop_kernel(40, 12))
        x = solve_linear(k, traj(np.zeros(CHUNK + 3)).to_log(), -0.0, CHUNK + 2)
        assert np.all(x.sign == 0.0) and np.all(x.log_abs == -np.inf)
        H = traj(loop_forcing(CHUNK + 3, 13)).to_log()
        x, y = (solve_linear(k, H, xi, CHUNK + 3) for xi in (-0.0, 0.0))
        assert_same_bits(x.log_abs, y.log_abs)
        assert_same_bits(x.sign, y.sign)

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


def recording(fn, name="recording"):
    """A nonlinearity that keeps every input it is evaluated on."""
    seen = []

    def record(x):
        seen.append(x)
        return fn(x)

    return core.Nonlinearity(name, record), seen


class TestNonlinearOnReferenceRecursion:
    # solve_nonlinear is the plain per-term recursion with f applied to its history

    @pytest.mark.parametrize("m", [1, 40, 300])
    def test_identity_is_bitwise_the_reference(self, m):
        k = loop_kernel(m, m + 20)
        h = loop_forcing(3 * CHUNK, m + 21)
        ref = core._reference_linear(k, h, 0.7)
        x = solve_nonlinear(Kernel(k), make_nonlinearity("identity"), traj(h), 0.7, 3 * CHUNK)
        assert_same_bits(x.values, ref)

    @pytest.mark.parametrize("m", [1, 40, 300])
    def test_identity_matches_solve_linear(self, m):
        # bitwise while solve_linear runs the per-term loop (N <= B), within
        # its gap once it runs blocks
        k = Kernel(loop_kernel(m, m + 22))
        h = traj(loop_forcing(3 * _BLOCK, m + 23))
        identity = make_nonlinearity("identity")
        for horizon in (_BLOCK - 1, 3 * _BLOCK):
            lin = solve_linear(k, h, -0.3, horizon).values
            x = solve_nonlinear(k, identity, h, -0.3, horizon).values
            if horizon < _BLOCK:
                assert_same_bits(x, lin)
            assert scaled_gap(x, lin) <= 1e-12

    def test_f_sees_every_value_but_the_last_once_in_order(self):
        f, seen = recording(core._bounded_offset)
        x = solve_nonlinear(Kernel(loop_kernel(40, 24)), f, traj(loop_forcing(CHUNK + 9, 25)),
                            0.7, CHUNK + 9).values
        assert_same_bits(np.array(seen), x[:-1])

    def test_zero_kernel_never_evaluates_f(self):
        # the convolution reads nothing, so a nonlinearity that is never finite is never asked
        f, seen = recording(lambda x: math.nan)
        h = loop_forcing(CHUNK + 3, 26)
        x = solve_nonlinear(Kernel.zero(), f, traj(h), 2.5, CHUNK + 3).values
        assert seen == []
        assert x[0] == 2.5
        assert_same_bits(x[1:], h[1:])

    def test_nonlinearity_error_in_second_chunk(self):
        # x(n) = n + 0.5 under k = [1], H = 1; f fails on its first input above CHUNK + 100
        f, seen = recording(lambda x: math.nan if x > CHUNK + 100 else x, name="cutoff")
        h = np.ones(3 * CHUNK + 1)
        with pytest.raises(NonlinearityError):
            numpy_nonlinear_loop([1.0], f, h, 0.5, 3 * CHUNK)
        ref = list(seen)
        seen.clear()
        with pytest.raises(NonlinearityError) as err:
            solve_nonlinear(Kernel([1.0]), f, traj(h), 0.5, 3 * CHUNK)
        assert seen == ref == [n + 0.5 for n in range(CHUNK + 101)]
        assert str(err.value) == (
            f"nonlinearity 'cutoff' returned non-finite value at input {CHUNK + 100.5!r}"
        )


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
        # sum|k| = 100 > 1, so the whole solve runs the reference recursion,
        # and r(n) = 100^n overflows in r[:B], which leaves no block state;
        # x is zero through the first block
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

    @pytest.mark.parametrize("kernel, blocks", [
        # a negative coefficient: every index runs in a per-term block
        (Kernel([0.5, -0.2, 0.1]), "per-term"),
        # sum k = 100 > 1 and r(n) = 100^n overflows in r[:B]: no block state,
        # so max|r[:B]| = inf, and every block is one step, per term
        (Kernel([100.0]), "one-step"),
        # sum k = 1.1 > 1 with a finite r[:B]: only same-signed sums are
        # scaled, so the log engine needs no sum |k| <= 1 and runs blocks
        (Kernel([0.6, 0.5]), "scaled"),
    ], ids=["signed", "overflowing-prefix", "growing"])
    def test_log_domain_dispatch_rule(self, monkeypatch, kernel, blocks):
        calls = self.count_prefixes(monkeypatch)
        windows = record_per_term(monkeypatch)
        horizon = 4 * _BLOCK
        H = log_forcing("factorial", horizon)
        x = solve_linear(kernel, H, 1.0, horizon)
        assert np.all(x.sign == 1.0)
        ref_l, ref_s = exact_log_solve(kernel, H, 1.0, horizon)
        if blocks == "one-step":
            # each step reads its history back from log|x|, and so the
            # roundings of log|x| add up over the steps that still weigh:
            # 1.6 times the contract here, and 1.7 times for the per-step
            # log recursion this replaced
            gap = np.abs(x.log_abs - ref_l)
            assert np.all(gap <= 2 * (1e-12 + 1e-15 * np.abs(ref_l)))
        else:
            assert_log_contract(x, ref_l, ref_s)
        # R and Hk are built only for a nonnegative kernel with a finite
        # r[:B], whose blocks the Toeplitz step may take
        assert calls == ([_BLOCK] if blocks == "scaled" else [])
        if blocks == "scaled":
            assert windows == []
        elif blocks == "one-step":
            assert windows == [(n, n + 1) for n in range(1, horizon + 1)]
        else:
            edges = [edge for window in kept(windows) for edge in window]
            assert edges[0] == 1 and edges[-1] == horizon + 1
            assert edges[1:-1:2] == edges[2:-1:2]


# --------------------------------------------------------------------------
# the block-scaled log engine against the version it replaced, which took
# each block's forcing maximum and sign test from the block itself
# --------------------------------------------------------------------------

logger = logging.getLogger("volterra_lab.core")


def reference_blocked_log_linear(kernel, lh, sh, xi, headroom=True):
    """(log|x|, sign x) on 0..len(lh)-1 as blocks of plain doubles times exp(ref).

    Every block [t, t+L), from t = 1 on, keeps the forcing's log-range
    within room + up.  A block of more than one step with a nonnegative
    kernel, a finite r[:B] and inputs of one sign runs the plain Toeplitz
    step on its inputs times exp(-ref), the first one from the history
    x(0) = xi, and a block whose range exceeds room lowers its ref by the
    excess.  Every other block runs the engine's ``_per_term_block``, whose
    first cancellation beyond ``_CANCELLATION`` is logged once per solve.
    ``headroom=False`` sets up = 0: L <= B keeps the forcing's log-range
    plus log sum r[:B] within ``_SPAN``, and no block lowers its ref.
    """
    k = kernel.coefficients
    n = len(lh)
    # the outputs start as the forcing, which each block overwrites
    out_l, out_s = lh.copy(), sh.copy()
    out_l[0], out_s[0] = -np.inf, 0.0
    if xi != 0.0:
        out_l[0] = math.log(abs(xi))
        out_s[0] = math.copysign(1.0, xi)
    r = kernel._prefix
    r = np.abs(r) if r is not None else np.array([np.inf])
    scaled = kernel._prefix is not None and np.all(k >= 0.0)
    room = _SPAN - math.log(np.sum(r))
    up = (max(0.0, _CEILING - math.log(np.sum(r) * (1.0 + np.sum(np.abs(k)))))
          if headroom else 0.0)
    floor = _FLOOR * np.max(r) * (1.0 + np.sum(np.abs(k)))
    warned = False
    b = _BLOCK
    t = 1
    with np.errstate(all="ignore"):
        while t < n:
            # longest run [t, t+L) whose nonzero forcing stays within room + up in log|H|
            live = sh[t : t + b] != 0.0
            seg = lh[t : t + b]
            spread = (np.maximum.accumulate(np.where(live, seg, -np.inf))
                      - np.minimum.accumulate(np.where(live, seg, np.inf)))
            size = max(1, int(np.argmax(spread > room + up))
                       if spread[-1] > room + up else len(seg))
            shift = max(0.0, spread[size - 1] - room)
            if size == 1 or not scaled or not reference_scaled_block(
                    k, kernel._prefix, lh, sh, out_l, out_s, t, t + size, floor, shift):
                lossy = core._per_term_block(k, out_l, out_s, t, t + size, floor,
                                             min(shift, up))
                if lossy and not warned:
                    warned = True
                    logger.warning(
                        "log-domain cancellation at index %d: sum|terms|/|sum| = %.3g, "
                        "about %.1f digits lost", lossy[0], lossy[1], math.log10(lossy[1])
                    )
            t += size
    return out_l, out_s


def reference_scaled_block(k, r, lh, sh, out_l, out_s, lo, hi, floor, shift):
    """Solve [lo, hi) as plain doubles times exp(ref); False if it must run per term."""
    m = len(k)
    signs = np.concatenate((sh[lo:hi], out_s[max(0, lo - m) : lo]))
    signs = signs[signs != 0.0]
    if signs.size and np.any(signs != signs[0]):
        return False
    # an all-zero block gives ref = -inf and NaN below, so it runs per term
    ref = max(np.max(lh[lo:hi]), np.max(out_l[max(0, lo - m) : lo], initial=-np.inf)) - shift
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


def assert_exact(kernel, forcing, xi, horizon, out_l, out_s):
    assert_log_contract(LogTrajectory(out_l, out_s), *exact_log_solve(kernel, forcing, xi, horizon))


def log_traj(la, sg=None):
    la = np.asarray(la, dtype=float)
    if sg is None:
        return LogTrajectory.from_log(la)
    return LogTrajectory(la, np.where(la == -np.inf, 0.0, sg))


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
        assert_exact(GROWTH_KERNEL, log_traj(la), 0.0, horizon, out_l, out_s)

    def test_mixed_sign_forcing(self):
        horizon = 4 * _BLOCK
        rng = np.random.Generator(np.random.Philox(42))
        la = 0.7 * np.arange(horizon + 1)
        la[0] = -np.inf
        sg = np.ones(horizon + 1)
        sg[rng.random(horizon + 1) < 0.01] = -1.0
        out_l, out_s, _, _ = assert_blocked_log_is_reference(
            GROWTH_KERNEL, log_traj(la, sg), 0.8, horizon)
        assert_exact(GROWTH_KERNEL, log_traj(la, sg), 0.8, horizon, out_l, out_s)

    def test_mixed_sign_history(self):
        # alternating signs through the first block, positive forcing after:
        # the first block runs per term on its mixed forcing, and the history
        # of the block after it carries both signs.  On [0, 0.5], x(B + 1)
        # cancels to e^-87 from terms of e^2, which no double sum resolves
        horizon = 4 * _BLOCK
        la = np.concatenate(([-np.inf], np.full(horizon, 2.0)))
        sg = np.ones(horizon + 1)
        sg[1:_BLOCK:2] = -1.0
        out_l, out_s, _, _ = assert_blocked_log_is_reference(
            GROWTH_KERNEL, log_traj(la, sg), -1.0, horizon)
        assert_exact(GROWTH_KERNEL, log_traj(la, sg), -1.0, horizon, out_l, out_s)
        _, _, _, records = assert_blocked_log_is_reference(
            Kernel([0.0, 0.5]), log_traj(la, sg), -1.0, horizon)
        [(_, _, message)] = records
        assert f"cancellation at index {_BLOCK + 1}:" in message

    def test_underflow_floor(self):
        horizon = 3 * _BLOCK
        la = np.full(horizon + 1, -np.inf)
        la[_BLOCK + 40] = 0.0
        out_l, out_s, _, _ = assert_blocked_log_is_reference(
            Kernel([1e-3]), log_traj(la), 0.0, horizon)
        assert out_l[-1] < -1000.0
        assert_exact(Kernel([1e-3]), log_traj(la), 0.0, horizon, out_l, out_s)

    def test_zero_kernel(self):
        # no history, so x = H: blocks scale without zeros, and run per term
        # with zeros (x = 0 is below the floor), mixed signs or nothing at all
        horizon = 4 * _BLOCK
        rng = np.random.Generator(np.random.Philox(43))
        la = rng.normal(scale=50.0, size=horizon + 1)
        la[0] = -np.inf
        forcings = [log_traj(la.copy())]
        la[rng.random(horizon + 1) < 0.2] = -np.inf
        forcings += [log_traj(la), log_traj(la, rng.choice([-1.0, 1.0], horizon + 1)),
                     log_traj(np.full(horizon + 1, -np.inf))]
        for H, xi in zip(forcings, (2.0, 2.0, 2.0, 0.0)):
            out_l, out_s, _, _ = assert_blocked_log_is_reference(Kernel.zero(), H, xi, horizon)
            assert_log_contract(LogTrajectory(out_l[1:], out_s[1:]), H.log_abs[1:], H.sign[1:])

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
# headroom above 1: a block whose log|H| spread exceeds room lowers its ref
# --------------------------------------------------------------------------

def record_shifts(monkeypatch):
    """The ``shift`` of every block the log engine scales, in order."""
    shifts = []
    scaled_block = core._scaled_block

    def recorded(*args):
        shifts.append(args[-1])
        return scaled_block(*args)

    monkeypatch.setattr(core, "_scaled_block", recorded)
    return shifts


class TestLogHeadroom:
    def test_factorial_benchmark_config_runs_half_the_blocks(self, monkeypatch):
        # log_growth's factorial config: 294 scaled blocks under room alone
        shifts = record_shifts(monkeypatch)
        x = solve_linear(GROWTH_KERNEL, log_forcing("factorial", 20_000), 1.25, 20_000)
        assert len(shifts) <= 140
        assert np.all(x.sign == 1.0)

    def test_shifted_blocks_keep_the_contract_against_mpmath(self, monkeypatch):
        horizon = 1500
        shifts = record_shifts(monkeypatch)
        H = log_forcing("factorial", horizon)
        x = solve_linear(GROWTH_KERNEL, H, 1.25, horizon)
        assert len(shifts) == 8 and sum(s > 0.0 for s in shifts) == 7
        lh, _ = aligned_log(H, horizon)
        assert_log_contract(x, *mpmath_log_solve(GROWTH_KERNEL.coefficients, lh, 1.25))

    def test_geometric_forcing_is_bitwise_the_unshifted_rule(self, monkeypatch):
        shifts = record_shifts(monkeypatch)
        _, (lh, sh) = core._aligned_forcing(log_forcing("geometric", 10_000, lam=0.5), 10_000,
                                            1.25, log_domain=True)
        got = core._blocked_log_linear(GROWTH_KERNEL, lh, sh, 1.25)
        want = reference_blocked_log_linear(GROWTH_KERNEL, lh, sh, 1.25, headroom=False)
        assert shifts and not any(shifts)
        for a, b in zip(got, want):
            assert_same_bits(a, b)


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
                assert scaled_gap(got, ref) <= 1e-12

    @pytest.mark.parametrize("m, horizon", [(257, 4 * _BLOCK), (300, 4 * _BLOCK),
                                            (2000, 4 * _BLOCK + 5)])
    def test_log_domain(self, monkeypatch, m, horizon):
        # every block is scaled, so each one reads a history shorter than M
        # if t < M, the first one from x(0) alone
        k = long_kernel(m)
        H = log_forcing("factorial", horizon)
        windows = record_per_term(monkeypatch)
        x = solve_linear(k, H.to_log(), 1.25, horizon)
        assert windows == []
        assert_log_contract(x, *exact_log_solve(k, H, 1.25, horizon))
        assert_blocked_log_is_reference(k, H, 1.25, horizon)

    @pytest.mark.parametrize("m", [0, 40, 256, 2000])
    def test_block_cache_is_rectangular(self, m):
        r, R, hk = (long_kernel(m) if m else Kernel.zero())._block_state
        rows = min(_BLOCK, m)
        assert r.shape == (_BLOCK,) and R.shape == (_BLOCK, _BLOCK) and hk.shape == (rows, m)
        assert R.nbytes + hk.nbytes == 8 * (_BLOCK**2 + rows * m) <= 8 * (_BLOCK**2 + _BLOCK * 2000)
