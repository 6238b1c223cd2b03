import dataclasses
import math
import time

import numpy as np
import pytest

from volterra_lab.asymptotics import (
    _PHIS,
    ScalingModel,
    estimate_lambda,
    estimate_limsup,
    extract_almost_periodic,
    make_phi,
    phi_average_bounds,
    predict_H_over_a,
    predict_x_over_a,
    residual_tail_sup,
    time_average,
    verify_growth2,
    _fold_profile,
    _logsumexp,
)
from volterra_lab.core import Kernel, resolvent, solve_linear
from volterra_lab.exceptions import (
    InputError,
    ParameterError,
    TrajectoryOverflowError,
    UndefinedRatioError,
)
from volterra_lab.growth_catalogue import _log_factorial, catalogue_entry
from volterra_lab.series import LogTrajectory, Trajectory, dyadic_blocks, ratio_series, tail
from volterra_lab.stochastic import ForcingGenerator, forcing_entry, generate


def traj(values, start=0):
    return Trajectory(np.asarray(values, dtype=float), start=start)


class TestCatalogue:
    def test_geometric_values_exact(self):
        gen = ForcingGenerator(kind="deterministic", entry=forcing_entry("geometric", lam=0.5))
        H = generate(gen, 3)
        assert list(H.values) == [0.0, 2.0, 4.0, 8.0]

    def test_aliases_resolve(self):
        assert catalogue_entry("H9").name == "factorial"
        assert catalogue_entry("H6", lam=0.25).ratio_limit == 0.25
        assert catalogue_entry("H3", theta=2.0).name == "power"

    def test_factorial_matches_small_values(self):
        entry = catalogue_entry("factorial")
        logs = entry.log_fn(np.arange(1, 8))
        assert np.allclose(np.exp(logs), [math.factorial(n) for n in range(1, 8)])

    def test_log_factorial_matches_scipy_gammaln(self):
        # SciPy is a test-only oracle: the package computes log(n!) itself
        from scipy.special import gammaln

        n = np.arange(0, 1_000_001, dtype=np.float64)
        got, want = _log_factorial(n), gammaln(n + 1.0)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
        # below the Stirling switch-over at n + 1 = 16 it is math.lgamma itself
        assert list(got[:15]) == [math.lgamma(k + 1.0) for k in range(15)]

    @pytest.mark.parametrize("n", [
        np.arange(0.0, 20_001.0),
        np.arange(15.0, 20_001.0),
        np.array([1e6, 3.0, 14.0, 15.0, 2.0]),
        np.array([7.0]),
        np.array(4.0),
        np.array(100.0),
    ], ids=["from-zero", "stirling-only", "unsorted", "lgamma-only", "scalar-lgamma",
            "scalar-stirling"])
    def test_log_factorial_is_bitwise_the_array_formula(self, n):
        # the in-place evaluation against the expression it replaced
        x = n + 1.0
        want = np.empty_like(x)
        small = x < 16.0
        want[small] = [math.lgamma(v) for v in x[small]]
        big = x[~small]
        p = 1.0 / (big * big)
        series = ((((p / 1188.0 - 1.0 / 1680.0) * p + 1.0 / 1260.0) * p - 1.0 / 360.0) * p
                  + 1.0 / 12.0) / big
        want[~small] = (big - 0.5) * np.log(big) - big + 0.5 * math.log(2.0 * math.pi) + series
        assert _log_factorial(n).tobytes() == want.tobytes()

    def test_iterated_exponential_log(self):
        entry = catalogue_entry("iterated_exponential", depth=2)
        assert np.allclose(entry.log_fn(np.array([3.0])), [math.exp(3.0)])
        # an integral float is an integer depth
        entry = catalogue_entry("iterated_exponential", depth=3.0)
        assert np.allclose(entry.log_fn(np.array([1.0])), [math.exp(math.e)])

    def test_iterated_exponential_stops_its_passes_at_inf(self):
        # exp(inf) = inf, so the passes stop once every value is inf: a depth
        # of 1e12 refuses at once, and every depth gives the bits of all its passes
        n = np.arange(0.0, 50.0)
        for depth in (2, 3, 4, 5, 6, 9):
            want = n
            with np.errstate(over="ignore"):
                for _ in range(depth - 1):
                    want = np.exp(want)
                got = catalogue_entry("iterated_exponential", depth=depth).log_fn(n)
            assert got.tobytes() == want.tobytes()
        entry = catalogue_entry("iterated_exponential", depth=10**12)
        start = time.perf_counter()
        with pytest.raises(InputError, match="overflowed in log space"):
            entry.sequence(1, 800, log_domain=True)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("depth", [2.5, math.inf, math.nan])
    def test_iterated_exponential_refuses_a_fractional_depth(self, depth):
        with pytest.raises(ParameterError, match=f"depth must be an integer, got {depth}"):
            catalogue_entry("iterated_exponential", depth=depth)

    # the iterated logs go three deep, and H1, H2 and H5 share the exponent list
    @pytest.mark.parametrize("name, params", [
        ("H1", {}), ("H2", {"theta": 1.0}), ("H5", {}),
    ])
    def test_betas_hold_at_most_three_exponents(self, name, params):
        with pytest.raises(ParameterError, match="at most 3 exponents"):
            catalogue_entry(name, betas=[1.0, 0.0, 0.0, 1.0], **params)
        entry = catalogue_entry(name, betas=[1.0, 0.0, 1.0], **params)
        assert np.all(np.isfinite(entry.log_fn(np.arange(1.0, 5.0))))

    def test_sqrt_log_starts_at_two(self):
        entry = catalogue_entry("sqrt_log")
        assert entry.min_index == 2
        assert np.allclose(np.exp(entry.log_fn(np.array([4.0]))), math.sqrt(2 * math.log(4)))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ParameterError):
            catalogue_entry("power", theta=-1.0)
        with pytest.raises(ParameterError):
            catalogue_entry("geometric", lam=1.5)
        with pytest.raises(ParameterError):
            catalogue_entry("log_power_product", betas=[-1.0, 2.0])

    @pytest.mark.parametrize(
        "name,params,horizon,tol",
        [
            ("power", {"theta": 1.5}, 4000, 0.01),
            ("power_log_product", {"theta": 1.0, "betas": [1.0]}, 20000, 0.01),
            ("geometric", {"lam": 0.5}, 200, 1e-12),
            ("geometric_mixture", {"lam": 0.5, "alpha": 0.5, "theta2": 0.5, "theta1": 1.0},
             20000, 0.01),
            ("factorial", {}, 4000, 0.01),
            ("stretched_exponential", {"alpha": 1.0, "theta": 0.5}, 40000, 0.02),
            ("stretched_exponential_power",
             {"alpha": 1.0, "theta2": 0.5, "theta1": 1.0}, 40000, 0.02),
            ("super_exponential", {"alpha": 0.1, "theta": 1.5}, 4000, 0.02),
            ("iterated_exponential", {"depth": 2}, 6, 1e-6),
            ("log_power_product", {"betas": [1.0]}, 20000, 0.01),
            ("sqrt_log", {}, 20000, 0.01),
        ],
    )
    def test_empirical_ratio_converges_to_declared_limit(self, name, params, horizon, tol):
        scale = ScalingModel.from_entry(catalogue_entry(name, **params), horizon, log_domain=True)
        lam_hat, _ = estimate_lambda(scale.a)
        assert abs(lam_hat - scale.lam) < tol


def _ref_log_sum(n, betas):
    """sum_d beta_d log L_d(n), each L_d the depth-d log at n + {1: 1, 2: 2, 3: 16}[d]."""
    out = np.zeros(len(n))
    for depth, beta in enumerate(betas, start=1):
        if beta:
            v = n + {1: 1, 2: 2, 3: 16}[depth]
            for _ in range(depth):
                v = np.log(v)
            out += beta * np.log(v)
    return out


# H1-H8 as closed forms, each summed in the order the entry first wrote it:
# (name, params, log a(n), exact plain a(n) or None, ratio limit, first index)
_PRODUCT_REFERENCE = [
    ("H1", {}, lambda n: _ref_log_sum(n, [1.0]) + math.log(1.0), None, 1.0, 1),
    ("H1", {"betas": [1.0, 0.0, -0.5], "scale": 3.0},
     lambda n: _ref_log_sum(n, [1.0, 0.0, -0.5]) + math.log(3.0), None, 1.0, 1),
    ("H1", {"betas": [0.0, 1.5, 2.0], "scale": 0.25},
     lambda n: _ref_log_sum(n, [0.0, 1.5, 2.0]) + math.log(0.25), None, 1.0, 1),
    ("H2", {}, lambda n: 1.0 * np.log(n) + math.log(1.0), None, 1.0, 1),
    ("H2", {"theta": 2.5, "scale": 7.0}, lambda n: 2.5 * np.log(n) + math.log(7.0), None, 1.0, 1),
    ("H2", {"theta": 0.5, "betas": [1.0, 0.0, -2.0], "scale": 3.0},
     lambda n: 0.5 * np.log(n) + math.log(3.0) + _ref_log_sum(n, [1.0, 0.0, -2.0]), None, 1.0, 1),
    ("H3", {}, lambda n: 1.0 * np.log(n) + math.log(1.0), lambda n: 1.0 * n ** 1.0, 1.0, 1),
    ("H3", {"theta": 1.5, "scale": 0.3}, lambda n: 1.5 * np.log(n) + math.log(0.3),
     lambda n: 0.3 * n ** 1.5, 1.0, 1),
    ("H4", {}, lambda n: 1.0 * n ** 0.5, None, 1.0, 0),
    ("H4", {"alpha": 2.5, "theta": 0.25}, lambda n: 2.5 * n ** 0.25, None, 1.0, 0),
    ("H5", {}, lambda n: 1.0 * n ** 0.5 + 1.0 * np.log(n), None, 1.0, 1),
    ("H5", {"alpha": 0.5, "theta2": 0.75, "theta1": 0.0},
     lambda n: 0.5 * n ** 0.75 + 0.0 * np.log(n), None, 1.0, 1),
    ("H5", {"alpha": 1.5, "theta2": 0.3, "theta1": -1.0, "betas": [0.0, 2.0, 1.0]},
     lambda n: 1.5 * n ** 0.3 + -1.0 * np.log(n) + _ref_log_sum(n, [0.0, 2.0, 1.0]), None, 1.0, 1),
    ("H6", {}, lambda n: -n * math.log(0.5) + math.log(1.0), lambda n: 1.0 * (1.0 / 0.5) ** n,
     0.5, 0),
    ("H6", {"lam": 0.9, "scale": 5.0}, lambda n: -n * math.log(0.9) + math.log(5.0),
     lambda n: 5.0 * (1.0 / 0.9) ** n, 0.9, 0),
    # the exact form overflows from n = 155, where exp(log) stands in
    ("H6", {"lam": 0.01, "scale": 1e-200}, lambda n: -n * math.log(0.01) + math.log(1e-200),
     lambda n: 1e-200 * (1.0 / 0.01) ** n, 0.01, 0),
    ("H7", {}, lambda n: -n * math.log(0.5) + 1.0 * n ** 0.5 + 1.0 * np.log(n), None, 0.5, 1),
    ("H7", {"lam": 0.3, "alpha": 2.0, "theta2": 0.6, "theta1": 0.0},
     lambda n: -n * math.log(0.3) + 2.0 * n ** 0.6 + 0.0 * np.log(n), None, 0.3, 1),
    ("H8", {}, lambda n: 1.0 * n ** 2.0, None, 0.0, 0),
    ("H8", {"alpha": 0.5, "theta": 1.5}, lambda n: 0.5 * n ** 1.5, None, 0.0, 0),
]

_NONZERO = "log_power_product needs a nonzero exponent list"
_AT_MOST = "log_power_product takes at most 3 exponents, one per iterated-log depth, got 4"
_LEADING = "leading nonzero exponent must be positive for growth"
_SCALE = "scale must be positive and finite"
_THETA = "power exponent theta must be positive"
_ALPHA = "alpha must be positive"
_THETA2 = "stretched exponent theta2 must lie in (0, 1)"
_LAM = "geometric ratio lam must lie in (0, 1)"

_PRODUCT_ERRORS = [
    ("H1", {"betas": []}, _NONZERO),
    ("H1", {"betas": [0.0, 0.0]}, _NONZERO),
    ("H1", {"betas": [1, 0, 0, 1]}, _AT_MOST),
    ("H1", {"betas": [-1.0, 2.0]}, _LEADING),
    ("H1", {"betas": [0.0, -1.0]}, _LEADING),
    ("H1", {"scale": 0.0}, _SCALE),
    ("H1", {"scale": math.inf}, _SCALE),
    ("H1", {"scale": math.nan}, _SCALE),
    ("H2", {"theta": 0.0}, _THETA),
    ("H2", {"scale": -1.0}, _SCALE),
    ("H2", {"betas": [0.0, 0.0, 0.0]}, _NONZERO),
    ("H2", {"betas": [1, 1, 1, 1]}, _AT_MOST),
    ("H2", {"betas": [-1.0]}, _LEADING),
    ("H3", {"theta": -1.0}, _THETA),
    ("H3", {"scale": math.inf}, _SCALE),
    ("H4", {"alpha": 0.0}, _ALPHA),
    ("H4", {"theta": 1.0}, "stretched exponent theta must lie in (0, 1)"),
    ("H5", {"alpha": -1.0}, _ALPHA),
    ("H5", {"theta2": 0.0}, _THETA2),
    ("H5", {"betas": [0.0]}, _NONZERO),
    ("H5", {"betas": [-1.0, 1.0]}, _LEADING),
    ("H5", {"betas": [1, 1, 1, 1]}, _AT_MOST),
    ("H6", {"lam": 1.0}, _LAM),
    ("H6", {"lam": 0.0}, _LAM),
    ("H6", {"scale": -2.0}, _SCALE),
    ("H7", {"lam": 1.5}, _LAM),
    ("H7", {"alpha": 0.0}, _ALPHA),
    ("H7", {"theta2": 1.0}, _THETA2),
    ("H8", {"alpha": 0.0}, _ALPHA),
    ("H8", {"theta": 1.0}, "super-exponential exponent theta must exceed 1"),
    # two wrong parameters: the first one checked is named
    ("H2", {"theta": 0.0, "scale": 0.0}, _THETA),
    ("H4", {"alpha": -1.0, "theta": 2.0}, _ALPHA),
    ("H5", {"alpha": 0.0, "theta2": 2.0, "betas": [0.0]}, _ALPHA),
    ("H6", {"lam": 2.0, "scale": -2.0}, _LAM),
    ("H7", {"lam": 0.0, "alpha": 0.0}, _LAM),
    ("H7", {"alpha": -1.0, "theta2": 5.0}, _ALPHA),
]


def _case_id(name, params):
    return name + "".join(f"-{k}={v}" for k, v in params.items())


class TestProductReference:
    """H1-H8 are bitwise the closed forms they were first written as."""

    @pytest.mark.parametrize("name, params, log_a, plain_a, ratio, first", _PRODUCT_REFERENCE,
                             ids=[_case_id(*row[:2]) for row in _PRODUCT_REFERENCE])
    def test_bitwise_the_closed_form(self, name, params, log_a, plain_a, ratio, first):
        entry = catalogue_entry(name, **params)
        assert (entry.ratio_limit, entry.min_index) == (ratio, first)
        # log 0 = -inf makes -inf or NaN at n = 0; those bits are compared too
        n = np.arange(0.0, 50_001.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert entry.log_fn(n).tobytes() == log_a(n).tobytes()
        # a 0-d index is one value of the same form
        assert entry.log_fn(np.array(5.0)).tobytes() == log_a(np.array([5.0])).tobytes()
        n = np.arange(float(first), 5001.0)
        seq = entry.sequence(first, 5000, log_domain=True)
        assert seq.start == first and np.all(seq.sign == 1.0)
        assert seq.log_abs.tobytes() == log_a(n).tobytes()
        # the plain form up to index 250 or the first log past double range
        n = np.arange(float(first), 251.0)
        n = n[: np.argmax(np.append(log_a(n) > 709.0, True))]
        want = np.exp(log_a(n))
        if plain_a is not None:
            with np.errstate(over="ignore"):
                exact = plain_a(n)
            want = np.where(np.isfinite(exact), exact, want)
        seq = entry.sequence(first, int(n[-1]), log_domain=False)
        assert seq.start == first and seq.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name, params, message", _PRODUCT_ERRORS,
                             ids=[_case_id(*row[:2]) for row in _PRODUCT_ERRORS])
    def test_error_message(self, name, params, message):
        with pytest.raises(ParameterError) as info:
            catalogue_entry(name, **params)
        assert str(info.value) == message


class TestScalingModel:
    def test_positivity_enforced(self):
        with pytest.raises(ParameterError):
            ScalingModel(a=traj([1.0, -1.0]), lam=1.0)

    def test_plain_overflow_advises_log_domain(self):
        with pytest.raises(InputError, match="log_domain"):
            ScalingModel.from_entry(catalogue_entry("factorial"), 400, log_domain=False)


class TestEstimateLambda:
    def test_geometric_exact(self):
        lam, converged = estimate_lambda(traj(2.0 ** np.arange(64)))
        assert lam == 0.5 and converged

    def test_polynomial_tends_to_one(self):
        lam, converged = estimate_lambda(traj(np.arange(1.0, 4001.0) ** 2, start=1))
        assert abs(lam - 1.0) < 1e-3 and converged

    def test_factorial_tends_to_zero(self):
        scale = ScalingModel.from_entry(catalogue_entry("factorial"), 2000, log_domain=True)
        lam, converged = estimate_lambda(scale.a)
        assert lam < 1e-3 and converged

    def test_zero_in_tail_raises(self):
        with pytest.raises(UndefinedRatioError):
            estimate_lambda(traj([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 0.0]))


class TestEstimateLimsup:
    def test_alternating_scale_hits_one(self):
        n = np.arange(1, 20001, dtype=float)
        scale = ScalingModel.from_entry(catalogue_entry("power", theta=1.0), 20000)
        g = traj(((-1.0) ** n) * n, start=1)
        est = estimate_limsup(g, scale)
        assert np.isclose(est.value, 1.0)
        assert est.classification == "finite-positive"

    def test_log_over_linear_classifies_zero(self):
        n = np.arange(1, 100001, dtype=float)
        scale = ScalingModel.from_entry(catalogue_entry("power", theta=1.0), 100000)
        est = estimate_limsup(traj(np.log(n + 1.0), start=1), scale)
        assert est.classification == "zero"

    def test_quadratic_classifies_infinite(self):
        n = np.arange(1, 20001, dtype=float)
        scale = ScalingModel.from_entry(catalogue_entry("power", theta=1.0), 20000)
        est = estimate_limsup(traj(n ** 2, start=1), scale)
        assert est.classification == "infinite"

    def test_range_mismatch_raises(self):
        scale = ScalingModel.from_entry(catalogue_entry("power", theta=1.0), 100)
        with pytest.raises(InputError):
            estimate_limsup(traj([1.0, 2.0], start=500), scale)

    def test_identically_zero_series_classifies_zero(self):
        scale = ScalingModel.from_entry(catalogue_entry("power", theta=1.0), 100)
        est = estimate_limsup(traj(np.zeros(100), start=1), scale)
        assert est.value == 0.0
        assert est.classification == "zero"

    def test_solution_bounded_by_resolvent_mass(self):
        # alternating ramp forcing through a single-lag kernel
        n_max = 20000
        k = Kernel([0.5])
        vals = np.zeros(n_max + 1)
        idx = np.arange(1, n_max + 1, dtype=float)
        vals[1:] = ((-1.0) ** idx) * idx
        x = solve_linear(k, traj(vals), 1.0, n_max)
        scale = ScalingModel.from_entry(catalogue_entry("power", theta=1.0), n_max)
        est = estimate_limsup(x, scale)
        assert est.classification == "finite-positive"
        assert est.value <= 2.0 * 1.05  # resolvent l1 mass = 2


class TestVerifyGrowth2:
    def test_geometric_forcing_multiplier(self):
        k = Kernel.geometric(0.3, 0.5, 40)
        gen = ForcingGenerator(kind="deterministic", entry=forcing_entry("geometric", lam=0.5))
        H = generate(gen, 200, log_domain=True)
        res = verify_growth2(k, solve_linear(k, H, 1.0, 200), H)
        assert abs(res.L_theory - 1.25) < 1e-12
        assert res.residual < 1e-6
        assert res.lambda_converged

    def test_zero_kernel_ratio_is_exactly_one(self):
        gen = ForcingGenerator(kind="deterministic", entry=forcing_entry("power", theta=1.0))
        H = generate(gen, 100)
        res = verify_growth2(Kernel.zero(), solve_linear(Kernel.zero(), H, 1.0, 100), H)
        assert res.L_theory == 1.0
        assert np.all(res.ratio.values == 1.0)

    def test_vanishing_forcing_raises(self):
        H = traj(np.zeros(64))
        x = solve_linear(Kernel([0.5]), H, 1.0, 63)
        with pytest.raises(UndefinedRatioError):
            verify_growth2(Kernel([0.5]), x, H)

    def test_prefixes_of_one_solve_match_fresh_solves(self):
        # criterion 03's factorial case on a horizon ladder: one solve at
        # 2^14, then each prefix checked as if it had been solved alone
        k = Kernel.geometric(0.3, 0.5, 40)
        gen = ForcingGenerator(kind="deterministic", entry=forcing_entry("factorial"))
        H = generate(gen, 2 ** 14, log_domain=True)
        x = solve_linear(k, H, 1.0, 2 ** 14)
        residuals = []
        for n in 2 ** np.arange(8, 15):
            res = verify_growth2(k, x.window(0, n), H.window(0, n))
            Hn = generate(gen, n, log_domain=True)
            fresh = verify_growth2(k, solve_linear(k, Hn, 1.0, n), Hn)
            assert res.ratio.end == n
            assert abs(res.L_empirical - fresh.L_empirical) < 1e-12
            residuals.append(res.residual)
        # x/H - 1 decays like 1/n, so doubling the horizon halves the residual
        steps = np.array(residuals[1:]) / np.array(residuals[:-1])
        assert np.all((0.4 <= steps) & (steps <= 0.55)), steps


def convolution_x_over_a(kernel, lam, g):
    """The representation by its defining O(N^2) convolution with r(j) lam^j."""
    n = len(g)
    weights = resolvent(kernel, n - 1).values * lam ** np.arange(n)
    return np.convolve(weights, g.values)[:n]


def convolution_H_over_a(kernel, lam, g):
    """The recovery by its defining convolution with 1, -k(j) lam^(j+1)."""
    n = len(g)
    weights = np.zeros(min(kernel.size + 1, n))
    weights[0] = 1.0
    m = len(weights) - 1
    weights[1:] = -kernel.coefficients[:m] * lam ** (np.arange(m) + 1)
    return np.convolve(weights, g.values)[:n]


def scaled_gap(x, ref):
    return float(np.max(np.abs(x - ref)) / max(np.max(np.abs(ref)), 1.0))


# (kernel, lam): summable, marginal (sum k = 1 at lam = 1), signed and long
REPRESENTATION_CASES = {
    "geometric-M40": (Kernel.geometric(0.3, 0.5, 40), 0.5),
    "marginal": (Kernel([0.5, 0.5]), 1.0),
    "signed": (Kernel([0.9, -0.3, 0.2]), 0.8),
    "geometric-M300": (Kernel.geometric(0.004, 0.99, 300), 0.9),
}


def bounded_factor(horizon, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    n = np.arange(horizon + 1, dtype=float)
    return traj(1.0 + 0.5 * np.sin(2 * np.pi * n / 13.0) + 0.1 * rng.standard_normal(len(n)),
                start=1)


class TestPredictions:
    @pytest.mark.parametrize("kernel,lam", REPRESENTATION_CASES.values(),
                             ids=REPRESENTATION_CASES.keys())
    @pytest.mark.parametrize("horizon", [300, 700])
    def test_solve_matches_convolution_formula(self, kernel, lam, horizon):
        # both cross the 256-step block boundary, 700 also the second one
        g = bounded_factor(horizon, seed=horizon)
        out = predict_x_over_a(kernel, lam, g)
        assert out.start == g.start
        assert scaled_gap(out.values, convolution_x_over_a(kernel, lam, g)) <= 1e-14
        rec = predict_H_over_a(kernel, lam, g)
        assert rec.start == g.start
        assert scaled_gap(rec.values, convolution_H_over_a(kernel, lam, g)) <= 1e-14

    def test_lambda_zero_returns_input(self):
        lam_H = traj(np.sin(np.arange(700.0)), start=3)
        for kernel, _ in REPRESENTATION_CASES.values():
            out = predict_x_over_a(kernel, 0.0, lam_H)
            assert out.start == 3 and np.array_equal(out.values, lam_H.values)

    def test_non_summable_kernel_at_lambda_one_overflows(self):
        with pytest.raises(TrajectoryOverflowError):
            predict_x_over_a(Kernel([2.0]), 1.0, traj(np.ones(2000)))

    def test_constant_factor_partial_sums(self):
        k = Kernel([0.5])
        out = predict_x_over_a(k, 1.0, traj(np.ones(100)))
        assert np.allclose(out.values, np.cumsum(0.5 ** np.arange(100)))
        assert abs(out.values[-1] - 2.0) < 1e-12

    def test_recovery_with_zero_kernel_is_identity(self):
        lam_x = traj(np.cos(np.arange(30.0)))
        out = predict_H_over_a(Kernel.zero(), 0.7, lam_x)
        assert np.allclose(out.values, lam_x.values)

    def test_recovery_at_lambda_zero_is_identity(self):
        # every weighted summand carries a factor lambda^(j+1)
        lam_x = traj(np.cos(np.arange(30.0)))
        out = predict_H_over_a(Kernel([0.5, 0.25]), 0.0, lam_x)
        assert np.array_equal(out.values, lam_x.values)

    def test_round_trip_consistency(self):
        # feed the forward prediction into the recovery and compare tails
        k = Kernel.geometric(0.3, 0.5, 30)
        n_max = 2000
        lam_H = traj(1.0 + 0.5 * np.sin(2 * np.pi * np.arange(n_max + 1) / 13.0))
        lam = 0.5
        lam_x = predict_x_over_a(k, lam, lam_H)
        recovered = predict_H_over_a(k, lam, lam_x)
        late = slice(-500, None)
        assert np.max(np.abs(recovered.values[late] - lam_H.values[late])) < 1e-4


class TestGrowth3ResidualDecay:
    @pytest.mark.parametrize(
        "name,params,horizon",
        [
            ("power", {"theta": 1.5}, 4000),
            ("stretched_exponential", {"alpha": 1.0, "theta": 0.5}, 4000),
            ("geometric", {"lam": 0.5}, 800),
        ],
    )
    def test_representation_residual_decays_over_blocks(self, name, params, horizon):
        k = Kernel.geometric(0.3, 0.5, 20)
        scale = ScalingModel.from_entry(catalogue_entry(name, **params), horizon)
        idx = scale.a.indices().astype(float)
        factor = 1.0 + 0.5 * np.sin(2 * np.pi * idx / 13.0)
        H = Trajectory(factor * scale.a.values, start=scale.a.start)
        if H.start > 1:
            H = traj(np.concatenate([np.zeros(H.start - 1), H.values]), start=1)
        x = solve_linear(k, H, 1.0, horizon)
        lam_x = ratio_series(x, scale.a)
        lam_H = ratio_series(H, scale.a)
        pred = predict_x_over_a(k, scale.lam, lam_H)
        lo = max(lam_x.start, pred.start)
        diff = np.abs(lam_x.window(lo, lam_x.end).values - pred.window(lo, pred.end).values)
        blocks = dyadic_blocks(lo, lam_x.end)
        sups = [max(np.max(diff[blo - lo : bhi - lo + 1]), 1e-13) for blo, bhi in blocks]
        assert sups[-1] <= sups[-2] <= sups[-3]

    def test_representation_residual_at_a_million_steps(self):
        # the blocked solve takes the representation to 1e6 steps in well
        # under a second; its tail residual falls about 10x from 1e5
        k = Kernel.geometric(0.3, 0.5, 20)

        def tail_residual(horizon):
            scale = ScalingModel.from_entry(catalogue_entry("power", theta=1.5), horizon)
            idx = scale.a.indices().astype(float)
            H = Trajectory((1.0 + 0.5 * np.sin(2 * np.pi * idx / 13.0)) * scale.a.values,
                           start=scale.a.start)
            x = solve_linear(k, H, 1.0, horizon)
            pred = predict_x_over_a(k, scale.lam, ratio_series(H, scale.a))
            return residual_tail_sup(ratio_series(x, scale.a), pred)

        big = tail_residual(10**6)
        assert big < 1e-4
        assert big <= tail_residual(10**5) / 5


class TestConvolutionBound:
    def test_scaled_convolution_respects_l1_mass(self):
        rng = np.random.Generator(np.random.Philox(31))
        n_max = 20000
        scale = ScalingModel.from_entry(catalogue_entry("power", theta=1.0), n_max)
        idx = np.arange(1, n_max + 1, dtype=float)
        for _ in range(5):
            m = int(rng.integers(1, 5))
            k = Kernel(rng.dirichlet(np.ones(m)) * rng.uniform(0.1, 0.9)
                       * rng.choice([-1.0, 1.0], size=m))
            vals = np.zeros(n_max + 1)
            vals[1:] = ((-1.0) ** idx) * idx
            H = traj(vals)
            # (k * H)(n) / a(n), with H(0) = 0
            conv = ratio_series(traj(np.convolve(k.coefficients, vals)[: n_max + 1]), scale.a)
            est_H = estimate_limsup(H, scale)
            assert np.max(np.abs(tail(conv).values)) <= k.l1_norm * est_H.value * 1.05


class TestExtraction:
    def test_sinusoid_plus_decay(self):
        n = np.arange(1, 4001, dtype=float)
        g = traj(np.sin(2 * np.pi * n / 7.0) + 1.0 / n, start=1)
        ext = extract_almost_periodic(g)
        assert ext.period == 7 and ext.verdict == "periodic"
        assert ext.residual_tail_sup < 5e-4
        # the verdict is read off the period, whatever it is
        assert dataclasses.replace(ext, period=0).verdict == "aperiodic"
        late = ext.pi.window(3601, 4000)
        expected = np.sin(2 * np.pi * late.indices() / 7.0)
        assert np.max(np.abs(late.values - expected)) < 5e-4

    def test_constant_series(self):
        g = traj(np.full(512, 3.25))
        ext = extract_almost_periodic(g)
        assert ext.verdict == "aperiodic"
        assert np.all(ext.pi.values == 3.25)
        assert np.all(ext.residual.values == 0.0)

    def test_constant_with_an_inexact_mean_is_aperiodic(self):
        # the mean of 1000 copies of 1/3 is not 1/3 in doubles, so the
        # centred window is rounding noise, which some fold leaves nothing of
        ext = extract_almost_periodic(traj(np.full(4000, 1.0 / 3.0)))
        assert ext.verdict == "aperiodic"
        assert ext.period == 0

    @pytest.mark.parametrize("n", [256, 2000, 20000])
    def test_noise_yields_aperiodic_verdict(self, n):
        # white noise still has a largest spectral bin, so it has candidate
        # periods, but no fold explains the window: the best one leaves
        # nearly all of the window's variance
        rng = np.random.Generator(np.random.Philox(32))
        g = traj(rng.normal(size=n))
        ext = extract_almost_periodic(g)
        assert ext.verdict == "aperiodic"
        assert ext.period == 0

    def test_quasi_periodic_series_is_aperiodic(self):
        # sin(sqrt(2) n) has no integer period: the best fold near its
        # spectral peak leaves almost all of the window's variance
        n = np.arange(20001, dtype=float)
        ext = extract_almost_periodic(traj(1.3 + np.sin(np.sqrt(2.0) * n)))
        assert ext.verdict == "aperiodic"
        assert ext.period == 0

    @pytest.mark.parametrize("n", [512, 600, 1001])
    def test_exact_period_beats_its_multiple(self, n):
        # 2 and 4 both fold an exact period-2 series to rounding, and on these
        # lengths 4's score comes out the smaller
        g = traj(np.resize([1.1, 0.9], n), start=1)
        ext = extract_almost_periodic(g)
        assert ext.period == 2 and ext.verdict == "periodic"
        assert ext.residual_tail_sup < 1e-12

    # profiles whose strongest harmonic is not the fundamental: the peak of
    # the period-7 one is its second harmonic (period 3.5), that of the
    # period-12 one its third (period 4)
    @pytest.mark.parametrize("profile, period", [
        ([1.0, 2.0, 3.0, 1.0, 0.5, 2.0, 1.0], 7),
        ([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 2.0], 12),
    ], ids=["period7", "period12"])
    @pytest.mark.parametrize("n", [600, 2000, 20000])
    @pytest.mark.parametrize("transient", [False, True], ids=["exact", "decay"])
    def test_fundamental_beats_its_strongest_harmonic(self, profile, period, n, transient):
        idx = np.arange(1, n + 1)
        values = np.resize(profile, n + 1)[idx] + (1.0 / idx if transient else 0.0)
        ext = extract_almost_periodic(traj(values, start=1))
        assert ext.period == period
        assert np.allclose(ext.profile, profile, atol=5e-3 if transient else 1e-12)

    @pytest.mark.parametrize("period", [2, 7, 12, 31])
    def test_fold_profile_is_the_mean_of_each_residue_class(self, period):
        # np.bincount sums a class in index order and np.mean pairwise: the
        # two agree to n eps max|value|
        rng = np.random.Generator(np.random.Philox(34))
        window = traj(rng.normal(size=997), start=1003)
        idx = window.indices() % period
        expected = [np.mean(window.values[idx == m]) for m in range(period)]
        bound = window.values.size * np.finfo(float).eps * np.max(np.abs(window.values))
        assert np.allclose(_fold_profile(window, period), expected, rtol=0.0, atol=bound)

    def test_fold_profile_refuses_an_empty_residue_class(self):
        with pytest.raises(InputError, match="empty residue class"):
            _fold_profile(traj(np.ones(5), start=3), 7)

    # the fold scores square the window: unscaled, they overflow past about
    # 1e154 and underflow below about 1e-154, and any fold then reads as a period
    _SCALES = [1e-300, 1e-160, 1.0, 1e160, 1e300]

    @pytest.mark.parametrize("scale", _SCALES)
    def test_period_does_not_depend_on_scale(self, scale):
        profile = np.array([1.0, 2.0, 3.0, 1.0, 0.5, 2.0, 1.0])
        ext = extract_almost_periodic(traj(scale * np.resize(profile, 2001)))
        assert ext.period == 7
        # the profile is folded from the window as given, not the scaled one
        assert np.allclose(ext.profile, scale * profile, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("scale", _SCALES)
    def test_noise_is_aperiodic_at_every_scale(self, scale):
        rng = np.random.Generator(np.random.Philox(35))
        ext = extract_almost_periodic(traj(scale * (1.0 + rng.random(2001))))
        assert ext.period == 0


class TestTimeAverage:
    def test_constant(self):
        mu = time_average(traj(np.full(100, 2.5), start=1))
        assert np.allclose(mu.values, 2.5)

    def test_alternating_tends_to_zero(self):
        n = np.arange(1, 10001, dtype=float)
        mu = time_average(traj((-1.0) ** n, start=1))
        assert abs(mu.values[-1]) < 1e-3

    def test_convergent_input_converges_to_same_limit(self):
        n = np.arange(1, 50001, dtype=float)
        mu = time_average(traj(4.0 + 1.0 / np.sqrt(n), start=1))
        assert abs(mu.values[-1] - 4.0) < 0.01

    def test_index_zero_dropped(self):
        mu = time_average(traj([99.0, 1.0, 1.0]))
        assert mu.start == 1 and np.allclose(mu.values, 1.0)

    def test_late_start_rejected(self):
        with pytest.raises(InputError):
            time_average(traj([1.0], start=5))


class TestPhiBounds:
    def test_zero_kernel_gives_equality(self):
        rng = np.random.Generator(np.random.Philox(33))
        vals = np.concatenate(([0.0], rng.normal(size=500)))
        H = traj(vals)
        x = solve_linear(Kernel.zero(), H, 0.0, 500)
        rep = phi_average_bounds(Kernel.zero(), x, H, make_phi("power", p=2))
        assert rep.holds and rep.dual_holds
        assert np.isclose(rep.lhs, rep.rhs)

    def test_single_lag_normal_forcing_gap(self):
        rng = np.random.Generator(np.random.Philox(34))
        n_max = 40000
        H = traj(np.concatenate(([0.0], rng.normal(size=n_max))))
        x = solve_linear(Kernel([0.5]), H, 0.0, n_max)
        rep = phi_average_bounds(Kernel([0.5]), x, H, make_phi("power", p=2))
        assert rep.holds and rep.dual_holds
        assert abs(rep.lhs - 4.0 / 3.0) < 0.1   # sigma^2 * sum r(j)^2
        assert abs(rep.rhs - 4.0) < 0.3         # sigma^2 * (sum |r(j)|)^2
        assert rep.lhs < rep.rhs                # strict gap

    def test_log_domain_fallback_for_power(self):
        n = np.arange(2001, dtype=float)
        H = LogTrajectory.from_log(n * math.log(2.0))
        x = solve_linear(Kernel([0.5]), H.to_log(), 1.0, 2000)
        rep = phi_average_bounds(Kernel([0.5]), x, H, make_phi("power", p=2))
        assert rep.log_domain
        assert rep.holds

    def test_exp_phi_overflow_raises(self):
        n = np.arange(2001, dtype=float)
        H = LogTrajectory.from_log(n * math.log(2.0))
        x = solve_linear(Kernel([0.5]), H.to_log(), 1.0, 2000)
        with pytest.raises(InputError, match="power"):
            phi_average_bounds(Kernel([0.5]), x, H, make_phi("exp"))


class TestLogSumExp:
    # SciPy is a test-only oracle: the package sums exponentials itself
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scipy_on_random_data(self, seed):
        from scipy.special import logsumexp

        rng = np.random.Generator(np.random.Philox(seed))
        for size in (1, 2, 7, 1000):
            for scale, shift in ((1e-3, 0.0), (1.0, -700.0), (50.0, 700.0), (1e4, 1e5)):
                a = rng.normal(shift, scale, size)
                a[rng.random(size) < 0.2] = -np.inf
                if size > 2:
                    a[:size // 3] = np.max(a)  # tied maxima
                np.testing.assert_allclose(_logsumexp(a), logsumexp(a), rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("a", [[1.5], [-745.0], [-np.inf], [-np.inf, -np.inf],
                                   [-np.inf, 2.0, -np.inf], [0.0, 0.0], [np.inf, 1.0]])
    def test_matches_scipy_on_edge_cases(self, a):
        from scipy.special import logsumexp

        assert _logsumexp(np.array(a)) == logsumexp(np.array(a))


class TestConvexFunctional:
    def test_catalogue_members_are_increasing_and_convex(self):
        # every member on [0, 100]: finite, nondecreasing and convex, to 1e-12
        # of its largest value there
        members = (make_phi("power", p=1.0), make_phi("power", p=3.0),
                   make_phi("power", p=150.0), make_phi("exp"), make_phi("hinge", c=2.0))
        assert {phi.name for phi in members} == set(_PHIS)
        grid = np.linspace(0.0, 100.0, 401)
        for phi in members:
            vals = phi(grid)
            assert np.all(np.isfinite(vals)), phi.name
            scale = max(1.0, float(np.max(np.abs(vals))))
            assert np.all(np.diff(vals) >= -1e-12 * scale), phi.name
            assert np.all(np.diff(vals, 2) >= -1e-12 * scale), phi.name

    def test_orv_flags(self):
        assert make_phi("power", p=2).o_regularly_varying
        assert make_phi("hinge", c=1).o_regularly_varying
        assert not make_phi("exp").o_regularly_varying

    def test_power_below_one_rejected(self):
        with pytest.raises(ParameterError):
            make_phi("power", p=0.5)
