import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_lab import core
from volterra_lab.core import (
    _BLOCK,
    Kernel,
    _kernel_log,
    _linear_recursion,
    _log_linear_recursion,
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
)
from volterra_lab.series import LogTrajectory, Trajectory
from volterra_lab.stochastic import ForcingGenerator, generate


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
        assert not k.is_nonnegative

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
        with np.errstate(over="ignore"), pytest.raises(InputError, match="overflowed in log space"):
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
