import json
import math
import statistics
import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator, Philox, SeedSequence

from volterra_lab import cli, stochastic
from volterra_lab.asymptotics import ScalingModel
from volterra_lab.config import ExperimentConfig
from volterra_lab.core import _CHUNK, Kernel
from volterra_lab.exceptions import InputError, ParameterError
from volterra_lab.growth_catalogue import catalogue_entry
from volterra_lab.series import LogTrajectory, Trajectory, abs_log_series
from volterra_lab.stochastic import (
    EnsembleSpec,
    ForcingGenerator,
    StatisticSpec,
    TailClassification,
    TailModel,
    classify_tail,
    ensemble_verify,
    envelope_sums,
    forcing_entry,
    generate,
    make_factor,
    make_tail_model,
)


def select_power_quantile(alpha, c1, c2, u):
    """The symmetric_power quantile as it was: both tails over every draw,
    chosen by np.select."""
    mid = max(1.0 - c1 - c2, 0.0)
    u = np.asarray(u, dtype=np.float64)
    with np.errstate(divide="ignore"):
        lower = -((c1 / np.maximum(u, 1e-300)) ** (1.0 / alpha))
        upper = (c2 / np.maximum(1.0 - u, 1e-300)) ** (1.0 / alpha)
    if mid > 0:
        middle = -1.0 + 2.0 * (u - c1) / mid
    else:
        middle = np.ones_like(u)
    return np.select([u <= c1, u >= 1.0 - c2], [lower, upper], default=middle)


def two_sided_tail_oracle(family, **params):
    """The four tail builders as they were, with G, the upper quantile and
    P[|X| > t] written out per family beside F and the quantile."""
    if family == "normal":
        sigma = float(params.get("sigma", 1.0))

        def sf(x):
            return stochastic._ndtr(-(np.asarray(x, dtype=np.float64) / sigma))

        return {
            "cdf": lambda x: stochastic._ndtr(np.asarray(x, dtype=np.float64) / sigma),
            "sf": sf,
            "quantile": lambda u: stochastic._ndtri(u) * sigma + 0.0,
            "upper_quantile": lambda p: -stochastic._ndtri(p) * sigma + 0.0,
            "tail_probability": lambda t: 2.0 * sf(t),
        }
    if family == "symmetric_power":
        alpha, c1, c2 = (float(params[k]) for k in ("alpha", "c1", "c2"))
        mid = max(1.0 - c1 - c2, 0.0)

        def cdf(x):
            x = np.asarray(x, dtype=np.float64)
            return np.select(
                [x <= -1.0, x >= 1.0],
                [c1 * np.abs(x) ** -alpha, 1.0 - c2 * np.where(x >= 1.0, x, 1.0) ** -alpha],
                default=c1 + mid * (x + 1.0) / 2.0,
            )

        def sf(x):
            x = np.asarray(x, dtype=np.float64)
            return np.select(
                [x >= 1.0, x <= -1.0],
                [c2 * np.where(x >= 1.0, x, 1.0) ** -alpha, 1.0 - c1 * np.abs(x) ** -alpha],
                default=c2 + mid * (1.0 - x) / 2.0,
            )

        def quantile(u):
            u = np.asarray(u, dtype=np.float64)
            lo = u <= c1
            tail = (np.where(lo, c1, c2) / np.maximum(np.where(lo, u, 1.0 - u), 1e-300)) ** (1.0 / alpha)
            tail = np.where(lo, -tail, tail)
            middle = -1.0 + 2.0 * (u - c1) / mid if mid > 0 else np.ones_like(u)
            return np.where(lo | (u >= 1.0 - c2), tail, middle)

        def upper_quantile(p):
            p = np.asarray(p, dtype=np.float64)
            upper = (c2 / np.maximum(p, 1e-300)) ** (1.0 / alpha)
            middle = 1.0 - 2.0 * (p - c2) / mid if mid > 0 else np.ones_like(p)
            lower = -((c1 / np.maximum(1.0 - p, 1e-300)) ** (1.0 / alpha))
            return np.select([p <= c2, p >= 1.0 - c1], [upper, lower], default=middle)

    elif family == "weibull_symmetric":
        lam, k = float(params["scale"]), float(params["shape"])

        def one_sided_sf(x):
            return np.exp(-((np.maximum(x, 0.0) / lam) ** k))

        def cdf(x):
            x = np.asarray(x, dtype=np.float64)
            return np.where(x < 0, 0.5 * one_sided_sf(-x), 1.0 - 0.5 * one_sided_sf(x))

        def sf(x):
            x = np.asarray(x, dtype=np.float64)
            return np.where(x >= 0, 0.5 * one_sided_sf(x), 1.0 - 0.5 * one_sided_sf(-x))

        def quantile(u):
            u = np.asarray(u, dtype=np.float64)
            up = lam * (-np.log(np.maximum(2.0 * (1.0 - u), 1e-300))) ** (1.0 / k)
            down = -lam * (-np.log(np.maximum(2.0 * u, 1e-300))) ** (1.0 / k)
            return np.where(u >= 0.5, np.maximum(up, 0.0), np.minimum(down, 0.0))

        def upper_quantile(p):
            p = np.asarray(p, dtype=np.float64)
            up = lam * (-np.log(np.maximum(2.0 * p, 1e-300))) ** (1.0 / k)
            return np.where(p <= 0.5, np.maximum(up, 0.0), quantile(1.0 - p))

    else:
        low, high = float(params["low"]), float(params["high"])
        span = high - low

        def cdf(x):
            return np.clip((np.asarray(x, dtype=np.float64) - low) / span, 0.0, 1.0)

        def sf(x):
            return np.clip((high - np.asarray(x, dtype=np.float64)) / span, 0.0, 1.0)

        def quantile(u):
            return low + span * np.asarray(u, dtype=np.float64)

        def upper_quantile(p):
            return high - span * np.asarray(p, dtype=np.float64)

    return {
        "cdf": cdf,
        "sf": sf,
        "quantile": quantile,
        "upper_quantile": upper_quantile,
        "tail_probability": lambda t: sf(t) + cdf(-np.asarray(t, dtype=np.float64)),
    }


def assert_tail_invariants(t, symmetric):
    """The cdf is nondecreasing and spans (0, 1), upper_quantile(sf(x)) round-trips
    to 1e-8 relative, and a symmetric model has cdf(-x) == sf(x) to 1e-12."""
    lo, hi = float(t.quantile(np.asarray(1e-8))), float(t.quantile(np.asarray(1.0 - 1e-8)))
    f = t.cdf(np.linspace(lo, hi, 512))
    assert np.all(np.diff(f) >= -1e-12)
    assert f[0] < 1e-6 and f[-1] > 1 - 1e-6
    xs = t.upper_quantile(np.logspace(-8, -2, 25))
    back = t.upper_quantile(t.sf(xs))
    assert np.all(np.abs(back - xs) <= 1e-8 * np.maximum(np.abs(xs), 1e-30))
    if symmetric:
        probe = t.upper_quantile(np.logspace(-6, -1, 12))
        assert np.all(np.abs(t.cdf(-probe) - t.sf(probe)) <= 1e-12)


class TestTailModels:
    @pytest.mark.parametrize(
        "family,params",
        [
            ("normal", {"sigma": 1.0}),
            ("normal", {"sigma": 2.5}),
            ("symmetric_power", {"alpha": 2.0, "c1": 0.5, "c2": 0.5}),
            ("symmetric_power", {"alpha": 1.5, "c1": 0.2, "c2": 0.3}),
            ("weibull_symmetric", {"scale": 1.0, "shape": 1.0}),
            ("weibull_symmetric", {"scale": 2.0, "shape": 2.0}),
            ("uniform", {}),
        ],
    )
    def test_model_invariants(self, family, params):
        # every parametrisation here is symmetric but symmetric_power's with c1 != c2
        symmetric = params.get("c1") == params.get("c2")
        assert_tail_invariants(make_tail_model(family, **params), symmetric)

    @pytest.mark.parametrize("sigma", [1.0, 2.5, 0.3])
    def test_normal_model_equals_scipy_norm(self, sigma):
        """The numpy normal model against its oracles, on fixed grids.

        cdf and sf are Cody's ANORM: within 2.5e-13 relative of
        scipy.special.ndtr, whose erfc loses digits in the tails, and within
        1e-15 of mpmath wherever the value is a normal double.  The quantiles
        are AS241: bitwise statistics.NormalDist on its central branch, within
        2 ulp beyond it, where numpy's SIMD log may differ from libm's.
        """
        from scipy.special import ndtr

        mpmath = pytest.importorskip("mpmath")
        t = make_tail_model("normal", sigma=sigma)
        xs = np.concatenate(([0.0, -0.0, 1.0, -1.0, 1e-300, 1e3, -1e3, np.inf, -np.inf],
                             np.linspace(-40.0, 40.0, 801)))
        ps = np.concatenate(([0.0, 1.0, 0.5, 5e-324], np.logspace(-300, -1, 300),
                             1.0 - np.logspace(-16, -1, 40)))

        def same(got, expected):
            return (np.array_equal(got, expected)
                    and np.array_equal(np.signbit(got), np.signbit(expected)))

        # special points, sign bits included
        specials = np.array([0.0, -0.0, np.inf, -np.inf, 1e-300])
        assert same(t.cdf(specials), np.array([0.5, 0.5, 1.0, 0.0, 0.5]))
        assert same(t.sf(specials), np.array([0.5, 0.5, 0.0, 1.0, 0.5]))
        edges = np.array([0.0, 0.5, 1.0])
        assert same(t.quantile(edges), np.array([-np.inf, 0.0, np.inf]))
        assert same(t.upper_quantile(edges), np.array([np.inf, 0.0, -np.inf]))
        lowest = float(t.quantile(5e-324))
        assert math.isfinite(lowest) and lowest == -float(t.upper_quantile(5e-324))

        # quantiles against the stdlib's AS241
        inner = ps[(ps > 0.0) & (ps < 1.0)]
        dist = statistics.NormalDist(0.0, sigma)
        expected = np.array([dist.inv_cdf(float(p)) for p in inner])
        central = np.abs(inner - 0.5) <= 0.425
        for got, want in ((t.quantile(inner), expected),
                          (t.upper_quantile(inner), -expected + 0.0)):
            assert same(got[central], want[central])
            ulps = np.abs(got - want) / np.spacing(np.abs(want))
            assert np.all(ulps <= 2.0)

        # cdf and sf against SciPy, and against mpmath where the value is normal
        for mine, z in ((t.cdf, xs / sigma), (t.sf, -(xs / sigma))):
            got = mine(xs)
            np.testing.assert_allclose(got, ndtr(z), rtol=2.5e-13, atol=2.3e-308)
            with mpmath.workdps(40):
                exact = np.array([float(mpmath.ncdf(v)) for v in z])
            normal = exact >= 2.3e-308
            assert np.all(np.abs(got[normal] - exact[normal]) <= 1e-15 * exact[normal])
        assert_tail_invariants(t, symmetric=True)

    @pytest.mark.parametrize("family,params", [
        ("normal", {"sigma": 1.0}), ("normal", {"sigma": 2.5}), ("normal", {"sigma": 0.3}),
        *(("symmetric_power", {"alpha": a, "c1": c1, "c2": c2}) for a, c1, c2 in (
            (2.0, 0.5, 0.5), (1.0, 0.3, 0.2), (3.5, 0.1, 0.4), (1.5, 0.2, 0.8),
            (1.5, 0.2, 0.3), (1.5, 0.2, 0.6), (0.5, 0.25, 0.25), (10.0, 0.05, 0.05),
            (0.1, 0.4, 0.1), (2.0, 0.3, 0.7), (1.0, 0.01, 0.99), (4.0, 0.6, 0.4 + 5e-13),
            (2.0, 0.1, 0.1), (0.75, 0.45, 0.05), (6.0, 1e-3, 0.5))),
        *(("weibull_symmetric", {"scale": lam, "shape": k}) for lam, k in (
            (1.0, 1.0), (2.0, 2.0), (1.0, 0.5), (0.5, 3.0), (3.0, 0.7), (1e-3, 1.5),
            (10.0, 0.25), (1.0, 10.0))),
        *(("uniform", {"low": lo, "high": hi}) for lo, hi in (
            (-1.0, 1.0), (0.0, 1.0), (-3.0, 0.5), (2.0, 7.25))),
    ])
    def test_reflected_law_is_bitwise_the_two_sided_oracle(self, family, params):
        """G, the upper quantile and P[|X| > t], read off the law of -X, equal
        the hand-written two-sided versions bitwise, sign bits included; F and
        the quantile are unchanged.  A NaN output matches any NaN.  The one
        change: with c1 + c2 = 1, the power upper quantile of NaN is -1.0, the
        reflection of quantile(NaN) = 1.0, where it was 1.0."""
        t = make_tail_model(family, **params)
        oracle = two_sided_tail_oracle(family, **params)
        breaks = np.array([v for p in params.values() for v in (p, -p, 1.0 - p)]
                          + [1.0, -1.0, 0.5, -0.5, 0.0])
        near = np.concatenate((breaks, np.nextafter(breaks, np.inf),
                               np.nextafter(breaks, -np.inf)))
        specials = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e300, -1e300,
                    1e-300, -1e-300, np.nan]
        magnitudes = np.logspace(-300, 300, 2401)
        xs = np.concatenate((specials, near, magnitudes, -magnitudes,
                             np.linspace(-40.0, 40.0, 4001)))
        small = np.logspace(-300, -1, 2000)
        ps = np.concatenate((specials, near, small, 1.0 - small, np.linspace(0.0, 1.0, 4001),
                             np.random.Generator(np.random.Philox(24)).random(2000),
                             [2.0, 1.0 + 2**-52, -1e-300]))
        mid_is_zero = family == "symmetric_power" and 1.0 - params["c1"] - params["c2"] <= 0.0
        with np.errstate(all="ignore"):
            for name, grid in (("cdf", xs), ("sf", xs), ("tail_probability", xs),
                               ("quantile", ps), ("upper_quantile", ps)):
                got = np.asarray(getattr(t, name)(grid), dtype=np.float64)
                want = np.asarray(oracle[name](grid), dtype=np.float64)
                if name == "upper_quantile" and mid_is_zero:
                    nan_in = np.isnan(grid)
                    assert np.all(got[nan_in] == -1.0) and np.all(want[nan_in] == 1.0)
                    got, want = got[~nan_in], want[~nan_in]
                nan_out = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan_out), name
                assert np.array_equal(got[~nan_out].view(np.uint64),
                                      want[~nan_out].view(np.uint64)), name

    def test_normal_inverse_outside_unit_interval_is_nan(self):
        t = make_tail_model("normal", sigma=1.0)
        p = np.array([-1e-300, -0.5, 1.0 + 2**-52, 2.0, np.nan, -np.inf, np.inf])
        assert np.all(np.isnan(t.quantile(p)))
        assert np.all(np.isnan(t.upper_quantile(p)))
        assert np.isnan(t.cdf(np.nan)) and np.isnan(t.sf(np.nan))

    @pytest.mark.parametrize("sigma", [1.0, 2.5, 0.3])
    def test_normal_tail_probability_is_twice_sf(self, sigma):
        # (-t)/sigma == -(t/sigma), so F(-t) == G(t) and the sum is exactly 2 G(t)
        t = make_tail_model("normal", sigma=sigma)
        xs = np.concatenate(([0.0, -0.0, 1e-300, -1e-300, np.inf, -np.inf, 5e-324, 1e300],
                             np.linspace(-40.0, 40.0, 801), np.logspace(-300, 300, 601)))
        got = t.tail_probability(xs)
        assert np.array_equal(got, t.sf(xs) + t.cdf(-xs))
        assert np.array_equal(got, 2.0 * t.sf(xs))

    # pyproject makes a numpy warning an error, and np.select evaluates every
    # branch at every x: the power law's lower branch meets |x|^-alpha at 0,
    # its middle one 0 * inf at +-inf, and Weibull's (x / lam)^k overflows far out
    @pytest.mark.parametrize("family,params", [
        ("normal", {"sigma": 1.0}),
        ("symmetric_power", {"alpha": 2.0, "c1": 0.5, "c2": 0.5}),
        ("symmetric_power", {"alpha": 1.5, "c1": 0.2, "c2": 0.3}),
        ("weibull_symmetric", {"scale": 1.0, "shape": 2.0}),
        ("uniform", {}),
    ])
    def test_whole_line_raises_no_warning(self, family, params):
        t = make_tail_model(family, **params)
        xs = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 1e300, -1e300, np.inf, -np.inf])
        got = {name: getattr(t, name)(xs) for name in ("cdf", "sf", "tail_probability")}
        far = slice(6, None)  # 1e300, -1e300, inf, -inf
        assert np.array_equal(got["cdf"][far], [1.0, 0.0, 1.0, 0.0])
        assert np.array_equal(got["sf"][far], [0.0, 1.0, 0.0, 1.0])
        assert np.array_equal(got["tail_probability"][[6, 8]], [0.0, 0.0])

    def test_symmetric_families_mirror(self):
        t = make_tail_model("normal", sigma=1.3)
        xs = np.linspace(0.5, 5.0, 7)
        assert np.allclose(t.cdf(-xs), t.sf(xs))

    def test_power_tail_probabilities_exact(self):
        t = make_tail_model("symmetric_power", alpha=2.0, c1=0.5, c2=0.5)
        assert np.isclose(t.sf(10.0), 0.5 * 10.0 ** -2)
        assert np.isclose(t.cdf(-10.0), 0.5 * 10.0 ** -2)
        assert np.isclose(float(t.tail_probability(10.0)), 1e-2)

    def test_weibull_exponential_quantile(self):
        # symmetrized exponential: G^{-1}(1/x) = log(x/2)
        t = make_tail_model("weibull_symmetric", scale=1.0, shape=1.0)
        assert np.isclose(float(t.upper_quantile(np.asarray(1e-3))), math.log(500.0))

    def test_normal_envelope_matches_sqrt_log(self):
        t = make_tail_model("normal", sigma=2.0)
        x = 1e6
        envelope = float(t.upper_quantile(np.asarray(1.0 / x)))
        assert abs(envelope / math.sqrt(2 * 4.0 * math.log(x)) - 1.0) < 0.1

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            make_tail_model("normal", sigma=-1.0)
        with pytest.raises(ParameterError):
            make_tail_model("symmetric_power", alpha=0.0)
        with pytest.raises(ParameterError):
            make_tail_model("symmetric_power", alpha=2.0, c1=0.8, c2=0.8)
        with pytest.raises(ParameterError):
            make_tail_model("nope")

    @pytest.mark.parametrize("alpha, c1, c2", [(2.0, 0.5, 0.5), (1.0, 0.3, 0.2),
                                                (3.5, 0.1, 0.4), (1.5, 0.2, 0.8)])
    def test_power_quantile_is_bitwise_the_select_version(self, alpha, c1, c2):
        t = make_tail_model("symmetric_power", alpha=alpha, c1=c1, c2=c2)
        edges = [0.0, 1e-300, 5e-324, c1, 1.0 - c2, 1.0]
        u = np.concatenate((
            edges,
            np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)[1:],
            np.random.Generator(np.random.Philox(103)).random(100_000),
        ))
        u = u[(u >= 0.0) & (u <= 1.0)]
        expected = select_power_quantile(alpha, c1, c2, u)
        got = t.quantile(u)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        for v in edges:
            assert float(t.quantile(np.asarray(v))) == float(
                select_power_quantile(alpha, c1, c2, np.asarray(v)))

    def test_sampling_matches_tails(self):
        t = make_tail_model("symmetric_power", alpha=2.0, c1=0.5, c2=0.5)
        rng = np.random.Generator(np.random.Philox(101))
        draws = t.sample(rng, 200_000)
        assert np.all(np.abs(draws) >= 1.0)  # no interior mass with c1+c2=1
        frac = np.mean(np.abs(draws) > 10.0)
        assert abs(frac - 0.01) < 0.002

    def test_normal_sampling_matches_analytic_exceedance(self):
        # empirical exceedance frequency against the analytic tail mass
        t = make_tail_model("normal", sigma=1.5)
        rng = np.random.Generator(np.random.Philox(102))
        draws = t.sample(rng, 200_000)
        for threshold in (1.5, 3.0, 4.5):
            expected = float(t.tail_probability(threshold))
            observed = float(np.mean(np.abs(draws) > threshold))
            assert abs(observed - expected) < 4.0 * math.sqrt(expected / 200_000) + 1e-4


# sizes around the piece length of the chunked elementwise passes
CHUNK_SIZES = (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5)


def normal_law_inputs(size, seed):
    """size values for _ndtr and _ndtri, specials first: signed zeros,
    infinities, NaN, both sides of every edge, p = 0 and 1, subnormal p."""
    edges = [0.67448975, 38.5, math.sqrt(32.0), 0.075, 0.925, 0.5, 1.0]
    edges += list(np.nextafter(edges, np.inf)) + list(np.nextafter(edges, -np.inf))
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-310, 1e-300, 2.2e-308]
    specials += edges + [-e for e in edges]
    rng = np.random.Generator(np.random.Philox(seed))
    draws = np.concatenate((rng.normal(scale=6.0, size=size), rng.random(size)))
    rng.shuffle(draws)
    return np.concatenate((specials, draws))[:size]


class TestChunkedPasses:
    """Evaluation in pieces of _CHUNK values changes no bit."""

    @pytest.mark.parametrize("law", ["ndtr", "ndtri"])
    def test_normal_law_keeps_shape_and_scalars(self, law):
        fn = getattr(stochastic, f"_{law}")
        x = normal_law_inputs(3 * _CHUNK, 7)
        with np.errstate(all="ignore"):
            got, expected = fn(x.reshape(3, _CHUNK)), fn(x)
        assert got.shape == (3, _CHUNK)
        assert np.array_equal(got.ravel().view(np.uint64), expected.view(np.uint64))
        for v in (0.3, -0.0, 38.5, np.nan):
            with np.errstate(all="ignore"):
                scalar = fn(np.asarray(v))
            assert not isinstance(scalar, np.ndarray) and np.ndim(scalar) == 0
            assert np.asarray(scalar).view(np.uint64) == fn(np.array([v])).view(np.uint64)[0]

    @pytest.mark.parametrize("size", CHUNK_SIZES)
    @pytest.mark.parametrize("family, params", [
        ("normal", {"sigma": 1.5}),
        ("symmetric_power", {"alpha": 2.0, "c1": 0.3, "c2": 0.4}),
        ("weibull_symmetric", {"scale": 2.0, "shape": 0.7}),
        ("uniform", {"low": -1.0, "high": 3.0}),
    ])
    def test_sample_is_bitwise_whole_array(self, family, params, size):
        t = make_tail_model(family, **params)
        chunked_rng, whole_rng = (np.random.Generator(np.random.Philox(size)) for _ in range(2))
        got = t.sample(chunked_rng, size)
        expected = t.quantile(np.maximum(whole_rng.random(size), 1e-300))
        assert got.shape == (size,)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        # the stream runs on from the same point
        assert chunked_rng.random() == whole_rng.random()


class TestForcingGenerators:
    def test_seed_determinism_bitwise(self):
        gen = ForcingGenerator(kind="iid", seed=99, tail=make_tail_model("normal", sigma=1.0))
        a = generate(gen, 500)
        b = generate(gen, 500)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        t = make_tail_model("normal", sigma=1.0)
        a = generate(ForcingGenerator(kind="iid", seed=1, tail=t), 100)
        b = generate(ForcingGenerator(kind="iid", seed=2, tail=t), 100)
        assert not np.array_equal(a.values, b.values)

    def test_index_zero_is_placeholder(self):
        gen = ForcingGenerator(kind="deterministic", entry=forcing_entry("power", theta=1.0))
        H = generate(gen, 10)
        assert H.values[0] == 0.0
        assert list(H.values[1:4]) == [1.0, 2.0, 3.0]

    def test_geometric_catalogue_values(self):
        gen = ForcingGenerator(kind="deterministic", entry=forcing_entry("geometric", lam=0.5))
        assert list(generate(gen, 3).values) == [0.0, 2.0, 4.0, 8.0]

    def test_degenerate_geometric_walk_is_pure_exponential(self):
        gen = ForcingGenerator(kind="geometric_random_walk", drift=0.1, noise=None)
        H = generate(gen, 50)
        assert np.allclose(H.values[1:], np.exp(0.1 * np.arange(1, 51)))
        H_log = generate(gen, 50, log_domain=True)
        assert np.allclose(H_log.log_abs[1:], 0.1 * np.arange(1, 51))

    def test_geometric_walk_requires_log_domain_when_large(self):
        gen = ForcingGenerator(kind="geometric_random_walk", drift=0.1, noise=None)
        with pytest.raises(InputError, match="log_domain"):
            generate(gen, 10_000)
        H = generate(gen, 10_000, log_domain=True)
        assert isinstance(H, LogTrajectory)

    def test_drifted_walk_strong_law(self):
        noise = make_tail_model("normal", sigma=1.0)
        hits = 0
        for seed in range(10):
            gen = ForcingGenerator(kind="random_walk_drift", seed=seed, drift=1.0, noise=noise)
            H = generate(gen, 100_000)
            if abs(H.values[-1] / 100_000 - 1.0) < 0.02:
                hits += 1
        assert hits >= 9

    def test_drifted_walk_keeps_decreasing_somewhere(self):
        # every tail window of length 100 contains at least one decrease
        noise = make_tail_model("normal", sigma=1.0)
        for seed in range(5):
            gen = ForcingGenerator(kind="random_walk_drift", seed=seed, drift=1.0, noise=noise)
            H = generate(gen, 20_000)
            diffs = np.diff(H.values[1:])
            decrease_positions = np.flatnonzero(diffs < 0)
            assert decrease_positions.size > 0
            gaps = np.diff(np.concatenate(([0], decrease_positions, [diffs.size])))
            assert np.max(gaps) <= 100

    def test_geometric_walk_ratios_stay_dispersed(self):
        # consecutive ratios never settle: tail IQR bounded away from zero
        drift, sigma = 0.1, 0.5
        gen = ForcingGenerator(
            kind="geometric_random_walk", seed=7, drift=drift,
            noise=make_tail_model("normal", sigma=sigma),
        )
        H = generate(gen, 20_000, log_domain=True)
        tail = H.window(15_000, 20_000)
        ratios = np.exp(tail.log_abs[:-1] - tail.log_abs[1:])
        iqr = np.percentile(ratios, 75) - np.percentile(ratios, 25)
        assert iqr > math.exp(-drift) * (math.exp(sigma / 2) - 1.0) / 2.0

    def test_modulated_periodic_factor(self):
        gen = ForcingGenerator(
            kind="modulated",
            entry=forcing_entry("geometric", lam=0.5),
            factor=make_factor("periodic", profile=[1.25, 0.75]),
        )
        H = generate(gen, 4)
        assert list(H.values) == [0.0, 0.75 * 2, 1.25 * 4, 0.75 * 8, 1.25 * 16]

    def test_modulated_sinusoid_factor(self):
        amps, freqs, offset = (1.0, 0.5), (0.3, 2.0), 1.5
        gen = ForcingGenerator(
            kind="modulated",
            entry=forcing_entry("power", theta=1.0),
            factor=make_factor("sinusoid", amplitudes=amps, frequencies=freqs, offset=offset),
        )
        n = np.arange(1, 101)
        factor = offset + amps[0] * np.sin(freqs[0] * n) + amps[1] * np.sin(freqs[1] * n)
        H = generate(gen, 100)
        assert H.values[0] == 0.0
        assert np.array_equal(H.values[1:], n * factor)
        default = ForcingGenerator(kind="modulated", entry=forcing_entry("power", theta=1.0),
                                   factor=make_factor("sinusoid"))
        assert np.array_equal(generate(default, 100).values[1:], n * (0.0 + np.sin(1.0 * n)))

    @pytest.mark.parametrize("kind, params, reason", [
        ("iid_uniform", {"low": 1.0, "high": 1.0}, "low < high"),
        ("iid_uniform", {"low": -math.inf}, "finite"),
        ("periodic", {"profile": []}, "nonempty profile"),
        ("periodic", {"profile": [1.0, math.nan]}, "finite"),
        ("sinusoid", {"amplitudes": [1.0, 0.5]}, "pair up"),
        ("sinusoid", {"offset": math.inf}, "finite"),
        ("square", {}, "unknown modulation factor kind"),
    ])
    def test_factor_builders_check_their_rules(self, kind, params, reason):
        with pytest.raises(ParameterError, match=reason):
            make_factor(kind, **params)

    def test_sqrt_log_cannot_serve_as_forcing(self):
        with pytest.raises(InputError, match="cannot serve"):
            forcing_entry("sqrt_log")


def _uniform_draws(rng, size):
    """What TailModel.sample reads from rng: one uniform per draw, floored at 1e-300."""
    return np.maximum(rng.random(size), 1e-300)


def _stream_state(rng):
    """A generator's bit_generator.state, its arrays as lists, as one string."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


# forcings that read no stream
_DRAWS_NOTHING = {
    "deterministic": ForcingGenerator(kind="deterministic", entry=forcing_entry("factorial")),
    "noiseless-walk": ForcingGenerator(kind="geometric_random_walk", seed=3, drift=0.1),
    "periodic": ForcingGenerator(kind="modulated", seed=4, entry=forcing_entry("power", theta=1.0),
                                 factor=make_factor("periodic", profile=[1.25, 0.75])),
    "sinusoid": ForcingGenerator(kind="modulated", seed=5, entry=forcing_entry("power", theta=1.0),
                                 factor=make_factor("sinusoid", amplitudes=[0.5], offset=1.0)),
}


class TestStreams:
    """Opening streams only where a forcing draws changes no stream."""

    @pytest.mark.parametrize("name", sorted(_DRAWS_NOTHING))
    def test_a_forcing_that_draws_nothing_opens_no_stream(self, name, monkeypatch):
        gen = _DRAWS_NOTHING[name]
        assert not gen.draws
        rng = Generator(Philox(SeedSequence(9)))
        state = _stream_state(rng)
        supplied = generate(gen, 300, log_domain=True, rng=rng)
        assert _stream_state(rng) == state
        monkeypatch.setattr(stochastic, "_philox", None)  # any stream opened now raises
        own = generate(gen, 300, log_domain=True)
        assert np.array_equal(own.log_abs, supplied.log_abs)
        assert np.array_equal(own.sign, supplied.sign)
        spec = EnsembleSpec(kernel=Kernel([0.5]), forcing=gen, horizon=300, log_domain=True)
        result = ensemble_verify(spec, 3, StatisticSpec(name="log_growth_rate", band=(0.0, 9.0)))
        assert result.failures == 0 and len(set(result.per_path)) == 1

    def test_each_factor_states_whether_it_draws(self):
        assert make_factor("iid_uniform").draws
        assert not make_factor("periodic", profile=[1.0]).draws
        assert not make_factor("sinusoid").draws
        # a factor that does not say is given a stream
        gen = ForcingGenerator(kind="modulated", seed=6, entry=forcing_entry("power", theta=1.0),
                               factor=lambda n, rng: rng.uniform(0.5, 1.5, len(n)))
        assert gen.draws
        expected = Generator(Philox(SeedSequence(6))).uniform(0.5, 1.5, 50) * np.arange(1, 51)
        assert np.array_equal(generate(gen, 50).values[1:], expected)

    @pytest.mark.parametrize("seed", [0, 1, 2**40 + 7])
    def test_seeded_draws_are_the_hand_built_stream(self, seed):
        horizon = 2 * _CHUNK + 5  # the draws run over three _CHUNK pieces
        tail = make_tail_model("normal", sigma=1.5)
        iid = generate(ForcingGenerator(kind="iid", seed=seed, tail=tail), horizon)
        rng = Generator(Philox(SeedSequence(seed)))
        assert np.array_equal(iid.values[1:], tail.quantile(_uniform_draws(rng, horizon)))

        walk = ForcingGenerator(kind="geometric_random_walk", seed=seed, drift=0.01, noise=tail)
        rng = Generator(Philox(SeedSequence(seed)))
        log_walk = 0.01 * np.arange(1, horizon + 1) + np.cumsum(
            tail.quantile(_uniform_draws(rng, horizon)))
        assert np.array_equal(generate(walk, horizon, log_domain=True).log_abs[1:], log_walk)

        base = forcing_entry("power", theta=1.0)
        modulated = ForcingGenerator(kind="modulated", seed=seed, entry=base,
                                     factor=make_factor("iid_uniform", low=0.5, high=1.5))
        rng = Generator(Philox(SeedSequence(seed)))
        expected = rng.uniform(0.5, 1.5, horizon) * base.sequence(1, horizon, False).values
        assert np.array_equal(generate(modulated, horizon).values[1:], expected)

    def test_ensemble_paths_read_their_spawned_streams(self):
        # a statistic of the forcing solves nothing, so each path's value is
        # the mean square of its own spawned stream's draws
        tail = make_tail_model("symmetric_power", alpha=3.0)
        spec = EnsembleSpec(kernel=Kernel([0.5]), horizon=700,
                            forcing=ForcingGenerator(kind="iid", seed=21, tail=tail))
        stat = StatisticSpec(name="phi_average", band=(0.0, 99.0), series="forcing")
        expected = sorted(
            float(np.mean(np.square(tail.quantile(_uniform_draws(Generator(Philox(child)), 700)))))
            for child in SeedSequence(21).spawn(6))
        assert ensemble_verify(spec, 6, stat).per_path == tuple(expected)

    def test_a_drawing_generator_checks_its_seed_when_built(self):
        tail = make_tail_model("normal")
        with pytest.raises(ValueError):
            ForcingGenerator(kind="iid", seed=-1, tail=tail)
        assert not ForcingGenerator(kind="deterministic", seed=-1,
                                    entry=forcing_entry("factorial")).draws


_GEOMETRIC_HALF = ForcingGenerator(kind="deterministic", entry=forcing_entry("geometric", lam=0.5))


# one double-range rule: max log|value| just below 709 converts to plain
# doubles, just above it every route refuses and names the log domain
@pytest.mark.parametrize("build, below, above", [
    (lambda n: ScalingModel.from_entry(catalogue_entry("geometric", lam=0.5), n), 1022, 1023),
    # 1e-10 * 2**n: the exact form overflows from n = 1024, the value at 1057
    (lambda n: ScalingModel.from_entry(catalogue_entry("geometric", lam=0.5, scale=1e-10), n),
     1056, 1057),
    (lambda n: generate(_GEOMETRIC_HALF, n), 1022, 1023),
    (lambda n: generate(ForcingGenerator(kind="geometric_random_walk", drift=1.0), n), 708, 710),
    (lambda v: LogTrajectory.from_log([0.0, v]).to_plain(), 708.9, 709.1),
], ids=["scale", "scale_small_factor", "deterministic_forcing", "geometric_random_walk", "to_plain"])
def test_plain_form_refused_just_past_double_range(build, below, above):
    build(below)
    with pytest.raises(InputError, match="log_domain"):
        build(above)


def whole_array_envelope_sums(tail, a, k_grid):
    """envelope_sums as whole-array passes: each K's summand and its
    cumulative sum as new arrays, and the regression over a boolean gather
    of the last decade."""
    a = a.to_plain()
    idx = a.indices().astype(np.float64)
    k_grid = np.asarray(sorted(float(k) for k in k_grid))
    sums = np.empty((k_grid.size, len(a)))
    verdicts, slopes = [], []
    reg_mask = idx >= max(a.start, a.end // 10)
    for i, k in enumerate(k_grid):
        summand = np.asarray(tail.tail_probability(k * a.values), dtype=np.float64)
        sums[i] = np.cumsum(summand)
        indices, summands = idx[reg_mask], summand[reg_mask]
        pos = summands > 0.0
        if not np.any(pos):
            verdict, slope = "convergent", float("-inf")
        elif np.count_nonzero(pos) < 8:
            verdict, slope = "undecided", float("nan")
        else:
            x, y = np.log(indices[pos]), np.log(summands[pos])
            xc = x - x.mean()
            slope = float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
            verdict = "convergent" if slope < -1.0 else "divergent"
        verdicts.append(verdict)
        slopes.append(slope)
    divergent = [k for k, v in zip(k_grid, verdicts) if v == "divergent"]
    convergent = [k for k, v in zip(k_grid, verdicts) if v == "convergent"]
    bracket = None
    if divergent and convergent and max(divergent) < min(convergent):
        bracket = (max(divergent), min(convergent))
    return sums, tuple(verdicts), tuple(slopes), bracket


_ENVELOPE_N = 100_000
_ENVELOPE_K = (0.5, 0.8, 1.0, 1.2, 2.0)
_ENVELOPE_CASES = {
    "normal_sqrt_log": lambda: (
        make_tail_model("normal", sigma=1.0),
        ScalingModel.from_entry(catalogue_entry("sqrt_log"), _ENVELOPE_N).a),
    # exactly critical: P[|X| > K sqrt(n)] = K^-2 / n, a slope of -1 up to rounding
    "power_critical_sqrt": lambda: (
        make_tail_model("symmetric_power", alpha=2.0),
        Trajectory(np.sqrt(np.arange(1, _ENVELOPE_N + 1, dtype=float)), start=1)),
    "weibull_sqrt_log": lambda: (
        make_tail_model("weibull_symmetric", scale=1.0, shape=1.5),
        ScalingModel.from_entry(catalogue_entry("sqrt_log"), _ENVELOPE_N).a),
}


class TestEnvelopeSums:
    def test_normal_verdicts_bracket_sigma(self):
        scale = ScalingModel.from_entry(catalogue_entry("sqrt_log"), 50_000)
        tail = make_tail_model("normal", sigma=1.0)
        rep = envelope_sums(tail, scale.a, [0.8, 1.2])
        assert rep.verdicts == ("divergent", "convergent")
        assert rep.crossing == 1.0

    def test_power_tails_dichotomy(self):
        tail = make_tail_model("symmetric_power", alpha=2.0, c1=0.5, c2=0.5)
        n = np.arange(1, 50_001, dtype=float)
        wide = Trajectory(n ** 0.6, start=1)
        narrow = Trajectory(n ** 0.4, start=1)
        for k in (0.5, 1.0, 2.0):
            assert envelope_sums(tail, wide, [k]).verdicts == ("convergent",)
            assert envelope_sums(tail, narrow, [k]).verdicts == ("divergent",)

    def test_bounded_support_terminates(self):
        tail = make_tail_model("uniform")
        n = np.arange(1, 2001, dtype=float)
        rep = envelope_sums(tail, Trajectory(n, start=1), [1.0])
        assert rep.verdicts == ("convergent",)
        final = rep.partial_sums[0, -1]
        assert np.all(rep.partial_sums[0, 5:] == final)

    def test_partial_sums_monotone_in_n_and_k(self):
        scale = ScalingModel.from_entry(catalogue_entry("sqrt_log"), 5000)
        tail = make_tail_model("normal", sigma=1.0)
        rep = envelope_sums(tail, scale.a, [0.5, 1.0, 1.5])
        for row in rep.partial_sums:
            assert np.all(np.diff(row) >= 0.0)
        # pointwise nonincreasing in K at every truncation point
        assert np.all(np.diff(rep.partial_sums, axis=0) <= 0.0)

    def test_rejects_non_monotone_scale(self):
        tail = make_tail_model("normal", sigma=1.0)
        with pytest.raises(InputError):
            envelope_sums(tail, Trajectory([2.0, 1.0], start=1), [1.0])

    @pytest.mark.parametrize("case", sorted(_ENVELOPE_CASES))
    def test_chunked_is_bitwise_whole_array(self, case):
        tail, a = _ENVELOPE_CASES[case]()
        rep = envelope_sums(tail, a, _ENVELOPE_K)
        sums, verdicts, slopes, bracket = whole_array_envelope_sums(tail, a, _ENVELOPE_K)
        assert np.array_equal(rep.partial_sums.view(np.uint64), sums.view(np.uint64))
        assert np.array_equal(np.array(rep.slopes).view(np.uint64), np.array(slopes).view(np.uint64))
        assert rep.verdicts == verdicts and rep.bracket == bracket

    @pytest.mark.parametrize("case", sorted(_ENVELOPE_CASES))
    def test_peak_memory_is_output_plus_four_rows(self, case):
        tail, a = _ENVELOPE_CASES[case]()
        envelope_sums(tail, a, _ENVELOPE_K[:1])  # first-call set-up is not the pass
        tracemalloc.start()
        try:
            rep = envelope_sums(tail, a, _ENVELOPE_K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rep.partial_sums.nbytes + 4 * _ENVELOPE_N * 8


    @pytest.mark.parametrize("seed", range(4))
    def test_closed_form_slope_matches_polyfit(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 20_000))
        x = rng.normal(size=n) * 50.0
        random = (x, 0.3 * x + rng.normal(size=n))
        # a summand's last decade on log scales, as _decay_regression fits it
        idx = np.log(np.arange(n, 10 * n + 1, dtype=float))
        log_scale = (idx, -1.3 * idx - 40.0 + 0.1 * rng.normal(size=idx.size))
        for x, y in (random, log_scale):
            expected = np.polyfit(x, y, 1)[0]
            assert abs(stochastic._ls_slope(x, y) - expected) <= 1e-12 * abs(expected)


class TestClassifyTail:
    def test_normal_is_rapid(self):
        assert classify_tail(make_tail_model("normal", sigma=1.0)).verdict == "rapid"
        assert classify_tail(make_tail_model("normal", sigma=3.0)).verdict == "rapid"

    def test_symmetric_power_is_rv_case_iii(self):
        c = classify_tail(make_tail_model("symmetric_power", alpha=2.0, c1=0.5, c2=0.5))
        assert c.verdict == "regularly-varying"
        assert c.case == "iii"
        assert abs(c.alpha - 2.0) < 0.1
        assert abs(c.ratio_limit - 1.0) < 0.1

    def test_asymmetric_power_ratio_limit(self):
        c = classify_tail(make_tail_model("symmetric_power", alpha=1.5, c1=0.2, c2=0.6))
        assert c.verdict == "regularly-varying"
        assert c.case == "iii"
        assert abs(c.ratio_limit - 3.0) < 0.2  # c2 / c1

    def test_symmetrized_exponential_is_rapid(self):
        c = classify_tail(make_tail_model("weibull_symmetric", scale=1.0, shape=1.0))
        assert c.verdict == "rapid"

    def test_tail_passing_both_tests_is_undecided(self):
        # at alpha = 20 the quantile barely moves under the rescaling, and
        # the log-log slope is stable too
        t = make_tail_model("symmetric_power", alpha=20.0, c1=0.5, c2=0.5)
        assert stochastic._ssv_certificate(t) and stochastic._rv_fit(t) is not None
        assert classify_tail(t) == TailClassification("undecided")

    def test_tail_passing_neither_test_is_undecided(self):
        # a stretched exponential of shape 0.3 is too heavy for the quantile
        # test, and its log-log slope drifts
        t = make_tail_model("weibull_symmetric", scale=1.0, shape=0.3)
        assert not stochastic._ssv_certificate(t) and stochastic._rv_fit(t) is None
        assert classify_tail(t) == TailClassification("undecided")

    def test_right_dominant_power_is_case_i(self):
        # right tail power decay, left tail exponential
        alpha = 2.0

        def cdf(x):
            x = np.asarray(x, dtype=np.float64)
            return np.where(x < 0, 0.25 * np.exp(np.minimum(x, 0.0)),
                            1.0 - 0.75 * np.maximum(1.0 + x, 1.0) ** -alpha)

        def sf(x):
            x = np.asarray(x, dtype=np.float64)
            return np.where(x < 0, 1.0 - 0.25 * np.exp(np.minimum(x, 0.0)),
                            0.75 * np.maximum(1.0 + x, 1.0) ** -alpha)

        def quantile(u):
            u = np.asarray(u, dtype=np.float64)
            return np.where(
                u < 0.25,
                np.log(np.maximum(u, 1e-300) / 0.25),
                (0.75 / np.maximum(1.0 - u, 1e-300)) ** (1.0 / alpha) - 1.0,
            )

        def upper_quantile(p):
            return quantile(1.0 - np.asarray(p, dtype=np.float64))

        t = TailModel(family="custom_quantile", cdf=cdf, quantile=quantile,
                      reflected=(lambda y: sf(-y), lambda u: -upper_quantile(u)))
        c = classify_tail(t)
        assert c.verdict == "regularly-varying"
        assert c.case == "i"


# the ensemble_plain benchmark config; the test's seeds are the ones its
# workload seeds 0 and 1 draw
_ENSEMBLE_PLAIN = {
    "horizon": 12500, "paths": 16,
    "kernel": {"name": "geometric", "c": 0.3, "ratio": 0.5, "size": 40},
    "forcing": {"kind": "iid",
                "tail": {"family": "symmetric_power", "alpha": 2.0, "c1": 0.5, "c2": 0.5}},
    "statistic": {"name": "log_log_exponent", "band": [0.4, 0.6]},
}


@pytest.mark.parametrize("seed", [1396378717, 39312862])
def test_log_log_exponent_burn_in_keeps_its_values(seed, monkeypatch):
    """The statistic's window starts at series.burn_in_start, the first
    quarter rounded up; per path the value is bitwise the one a window with
    the quarter rounded down gives."""
    def int_rounded(series):
        la = abs_log_series(series)
        lo = max(series.start, 2, series.start + int(0.25 * len(la)))
        win = la.window(lo, la.end)
        return float(np.max(win.values / np.log(win.indices())))

    pairs = []
    path_statistic = stochastic._path_statistic

    def both(spec, series, system):
        pairs.append((path_statistic(spec, series, system), int_rounded(series)))
        return pairs[-1][0]

    monkeypatch.setattr(stochastic, "_path_statistic", both)
    config = ExperimentConfig.from_dict(dict(_ENSEMBLE_PLAIN, mode="ensemble", seed=seed))
    cli.run_experiment(config)
    assert len(pairs) == 16
    for value, reference in pairs:
        assert value == reference


class TestEnsembles:
    def _spec(self, seed=5, horizon=2000):
        return EnsembleSpec(
            kernel=Kernel(np.array([0.5])),
            forcing=ForcingGenerator(kind="iid", seed=seed,
                                     tail=make_tail_model("normal", sigma=1.0)),
            horizon=horizon,
        )

    def test_repeat_runs_identical(self):
        stat = StatisticSpec(name="phi_average", band=(0.0, 10.0))
        a = ensemble_verify(self._spec(), 8, stat)
        b = ensemble_verify(self._spec(), 8, stat)
        assert a.per_path == b.per_path
        assert a.pass_fraction == b.pass_fraction

    def test_paths_are_mutually_distinct(self):
        stat = StatisticSpec(name="phi_average", band=(0.0, 10.0))
        res = ensemble_verify(self._spec(), 8, stat)
        assert len(set(res.per_path)) == 8

    def test_per_path_sorted(self):
        stat = StatisticSpec(name="phi_average", band=(0.0, 10.0))
        res = ensemble_verify(self._spec(), 8, stat)
        assert list(res.per_path) == sorted(res.per_path)

    def test_degenerate_noise_all_paths_identical(self):
        spec = EnsembleSpec(
            kernel=Kernel(np.array([0.3])),
            forcing=ForcingGenerator(kind="geometric_random_walk", seed=1,
                                     drift=0.05, noise=None),
            horizon=500, log_domain=True,
        )
        stat = StatisticSpec(name="log_growth_rate", band=(0.04, 0.06))
        res = ensemble_verify(spec, 10, stat)
        assert len(set(res.per_path)) == 1
        assert res.pass_fraction in (0.0, 1.0)

    def test_overflowing_path_recorded_not_fatal(self):
        spec = EnsembleSpec(
            kernel=Kernel(np.array([0.3])),
            forcing=ForcingGenerator(kind="geometric_random_walk", seed=1,
                                     drift=0.1, noise=None),
            horizon=10_000, log_domain=False,
        )
        stat = StatisticSpec(name="log_growth_rate", band=(0.09, 0.11))
        res = ensemble_verify(spec, 3, stat)
        assert res.failures == 3
        assert res.pass_fraction == 0.0
        assert all(math.isnan(v) for v in res.per_path)

    @pytest.mark.parametrize("forcing", [
        ForcingGenerator(kind="deterministic", entry=forcing_entry("geometric", lam=0.5)),
        ForcingGenerator(kind="modulated", entry=forcing_entry("geometric", lam=0.5),
                         factor=make_factor("iid_uniform", low=0.5, high=1.5)),
    ], ids=["deterministic", "modulated"])
    def test_deterministic_part_past_double_range_is_an_input_error(self, forcing):
        # 2^n leaves double range before n = 1100 on every path alike: the
        # spec is the mistake, not a path, so no path runs
        spec = EnsembleSpec(kernel=Kernel([0.5]), forcing=forcing, horizon=1100)
        stat = StatisticSpec(name="log_growth_rate", band=(0.6, 0.8))
        with pytest.raises(InputError, match="run with log_domain=True"):
            ensemble_verify(spec, 4, stat)
        logged = ensemble_verify(EnsembleSpec(kernel=Kernel([0.5]), forcing=forcing,
                                              horizon=1100, log_domain=True), 4, stat)
        assert logged.failures == 0 and logged.pass_fraction == 1.0

    def test_phi_average_past_double_range_fails_the_path(self):
        # |x| stays below e^709 on every path, but x^2 leaves double range on
        # two of them: each fails once, silently, and is not scored
        spec = EnsembleSpec(kernel=Kernel([0.5]), horizon=3000, log_domain=True,
                            forcing=ForcingGenerator(kind="geometric_random_walk", seed=3,
                                                     drift=0.1,
                                                     noise=make_tail_model("normal", sigma=1.0)))
        res = ensemble_verify(spec, 6, StatisticSpec(name="phi_average", band=(0.0, 1.0)))
        assert res.failures == 2 and res.pass_fraction == 0.0
        assert np.all(np.isfinite(res.per_path[:4])) and np.all(np.isnan(res.per_path[4:]))
        assert math.isfinite(res.median)

    def test_band_validation(self):
        with pytest.raises(ParameterError):
            StatisticSpec(name="phi_average", band=(2.0, 1.0))
        with pytest.raises(ParameterError):
            StatisticSpec(name="unknown", band=(0.0, 1.0))

    @pytest.mark.parametrize("log_domain", [False, True], ids=["plain", "log"])
    def test_forcing_phi_average_skips_the_index_0_placeholder(self, log_domain):
        # the mean of H^2 over indices 1..4, not over the placeholder H(0) = 0 too
        gen = ForcingGenerator(kind="iid", seed=5,
                               tail=make_tail_model("uniform", low=1.0, high=2.0))
        spec = EnsembleSpec(kernel=Kernel(np.array([0.5])), forcing=gen, horizon=4,
                            log_domain=log_domain)
        stat = StatisticSpec(name="phi_average", band=(0.0, 10.0), series="forcing")
        [value] = ensemble_verify(spec, 1, stat).per_path
        rng = Generator(Philox(SeedSequence(5).spawn(1)[0]))
        h = gen.tail.sample(rng, 4)
        assert np.all((h >= 1.0) & (h <= 2.0))
        assert value == pytest.approx(np.mean(h**2), rel=1e-12)

    def test_solution_phi_average_keeps_the_start(self):
        # x(0) = xi is data: with k = 0 the path is xi, H(1), ..., H(4)
        gen = ForcingGenerator(kind="deterministic", entry=forcing_entry("geometric", lam=0.5))
        spec = EnsembleSpec(kernel=Kernel.zero(), forcing=gen, horizon=4, xi=3.0)
        stat = StatisticSpec(name="phi_average", band=(0.0, 1000.0))
        [value] = ensemble_verify(spec, 1, stat).per_path
        h = generate(gen, 4).values[1:]
        assert value == pytest.approx((9.0 + np.sum(h**2)) / 5, rel=1e-12)

    def test_forcing_statistic_solves_nothing(self):
        # kernel [2.0] sends every solution past double range by n = 1100;
        # a statistic of the forcing reads no solution, so the kernel is moot
        scale = ScalingModel.from_entry(catalogue_entry("sqrt_log"), 2000)
        stat = StatisticSpec(name="limsup_ratio", band=(0.5, 2.0), series="forcing")
        results = [
            ensemble_verify(EnsembleSpec(kernel=Kernel([k]), forcing=self._spec(seed=7).forcing,
                                         horizon=2000, scaling=scale), 4, stat)
            for k in (0.5, 2.0)
        ]
        assert results[0].failures == results[1].failures == 0
        assert results[1].per_path == results[0].per_path
