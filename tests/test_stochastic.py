import math

import numpy as np
import pytest

from volterra_lab.asymptotics import ScalingModel
from volterra_lab.core import Kernel
from volterra_lab.exceptions import InputError, ParameterError
from volterra_lab.series import LogTrajectory, Trajectory
from volterra_lab.stochastic import (
    EnsembleSpec,
    ForcingGenerator,
    StatisticSpec,
    classify_tail,
    ensemble_verify,
    envelope_sums,
    generate,
    make_tail_model,
)


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
        make_tail_model(family, **params).validate()

    @pytest.mark.parametrize("sigma", [1.0, 2.5, 0.3])
    def test_normal_model_equals_scipy_norm(self, sigma):
        from scipy import stats

        dist = stats.norm(scale=sigma)
        t = make_tail_model("normal", sigma=sigma)
        xs = np.concatenate(([0.0, -0.0, 1.0, -1.0, 1e-300, 1e3, -1e3, np.inf, -np.inf],
                             np.linspace(-40.0, 40.0, 801)))
        ps = np.concatenate(([0.0, 1.0, 0.5, 5e-324], np.logspace(-300, -1, 300),
                             1.0 - np.logspace(-16, -1, 40)))
        for mine, theirs, grid in ((t.cdf, dist.cdf, xs), (t.sf, dist.sf, xs),
                                   (t.quantile, dist.ppf, ps),
                                   (t.upper_quantile, dist.isf, ps)):
            expected = theirs(grid)
            got = mine(grid)
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))
        t.validate()

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
        gen = ForcingGenerator(kind="deterministic", name="power", params={"theta": 1.0})
        H = generate(gen, 10)
        assert H.values[0] == 0.0
        assert list(H.values[1:4]) == [1.0, 2.0, 3.0]

    def test_geometric_catalogue_values(self):
        gen = ForcingGenerator(kind="deterministic", name="geometric", params={"lam": 0.5})
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
            base={"name": "geometric", "params": {"lam": 0.5}},
            factor={"kind": "periodic", "profile": [1.25, 0.75]},
        )
        H = generate(gen, 4)
        assert list(H.values) == [0.0, 0.75 * 2, 1.25 * 4, 0.75 * 8, 1.25 * 16]

    def test_sqrt_log_cannot_serve_as_forcing(self):
        gen = ForcingGenerator(kind="deterministic", name="sqrt_log")
        with pytest.raises(InputError, match="cannot serve"):
            generate(gen, 100)


_GEOMETRIC_HALF = ForcingGenerator(kind="deterministic", name="geometric", params={"lam": 0.5})


# one double-range rule: max log|value| just below 709 converts to plain
# doubles, just above it every route refuses and names the log domain
@pytest.mark.parametrize("build, below, above", [
    (lambda n: ScalingModel.from_catalogue("geometric", n, lam=0.5), 1022, 1023),
    # 1e-10 * 2**n: the exact form overflows from n = 1024, the value at 1057
    (lambda n: ScalingModel.from_catalogue("geometric", n, lam=0.5, scale=1e-10), 1056, 1057),
    (lambda n: generate(_GEOMETRIC_HALF, n), 1022, 1023),
    (lambda n: generate(ForcingGenerator(kind="geometric_random_walk", drift=1.0), n), 708, 710),
    (lambda v: LogTrajectory.from_log([0.0, v]).to_plain(), 708.9, 709.1),
], ids=["scale", "scale_small_factor", "deterministic_forcing", "geometric_random_walk", "to_plain"])
def test_plain_form_refused_just_past_double_range(build, below, above):
    build(below)
    with pytest.raises(InputError, match="log_domain"):
        build(above)


class TestEnvelopeSums:
    def test_normal_verdicts_bracket_sigma(self):
        scale = ScalingModel.from_catalogue("sqrt_log", 50_000)
        tail = make_tail_model("normal", sigma=1.0)
        rep = envelope_sums(tail, scale.a, [0.8, 1.2], horizon=50_000)
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
        scale = ScalingModel.from_catalogue("sqrt_log", 5000)
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

        t = make_tail_model(
            "custom_quantile", cdf=cdf, sf=sf, quantile=quantile, upper_quantile=upper_quantile
        )
        c = classify_tail(t)
        assert c.verdict == "regularly-varying"
        assert c.case == "i"


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

    def test_band_validation(self):
        with pytest.raises(ParameterError):
            StatisticSpec(name="phi_average", band=(2.0, 1.0))
        with pytest.raises(ParameterError):
            StatisticSpec(name="unknown", band=(0.0, 1.0))
