import copy
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from volterra_lab import asymptotics, cli, config, core, stochastic
from volterra_lab.cli import main, run_experiment
from volterra_lab.config import MODES, ExperimentConfig
from volterra_lab.exceptions import ConfigError
from volterra_lab.series import LogTrajectory


def cfg(**kwargs):
    return ExperimentConfig.from_dict(kwargs)


def load_series(path):
    """One evidence file, checked against the documented record layout."""
    rows = np.load(path, allow_pickle=False)
    assert rows.dtype == np.dtype([("n", "<i8"), ("value", "<f8")])
    assert rows.ndim == 1
    return rows


_ENSEMBLE = {
    "horizon": 50, "paths": 2,
    "kernel": {"coefficients": [0.5]},
    "forcing": {"kind": "iid", "tail": {"family": "normal", "sigma": 1.0}},
    "statistic": {"name": "phi_average", "band": [0.0, 99.0]},
}

_SQRT_LOG = {"name": "sqrt_log", "params": {}}

def _modulated(factor):
    return {"kind": "modulated", "base": {"name": "power", "params": {"theta": 1.0}},
            "factor": factor}


# (dotted field, malformed value, path the error must name)
_MALFORMED = [
    ("horizon", "abc", "config.horizon"),
    ("horizon", 10.7, "config.horizon"),
    ("kernel.coefficients", "ab", "config.kernel.coefficients"),
    ("kernel.coefficients", [0.5, "x"], "config.kernel.coefficients.1"),
    ("paths", None, "config.paths"),
    ("forcing.tail.sigma", "x", "config.forcing.tail.sigma"),
    ("forcing.tail", [1.0], "config.forcing.tail"),
    # phi_average is the mean of x^2: the statistic takes no functional
    ("statistic.phi", {"name": "power", "params": {"p": 2.0}}, "config.statistic.phi"),
    ("seed", -1, "config.seed"),
    ("log_domain", "false", "config.log_domain"),
    ("forcing", _modulated({"kind": "iid_uniform", "low": 2.0, "high": 1.0}),
     "config.forcing.factor"),
    ("forcing", _modulated({"kind": "iid_uniform", "low": 1.0, "high": 1.0}),
     "config.forcing.factor"),
    ("forcing", _modulated({"kind": "periodic", "profile": []}),
     "config.forcing.factor"),
    ("forcing", _modulated({"kind": "periodic", "profile": [1.0, math.nan]}),
     "config.forcing.factor.profile.1"),
    ("forcing", _modulated({"kind": "sinusoid", "amplitudes": [1.0, 0.5], "frequencies": [1.0]}),
     "config.forcing.factor"),
    ("forcing", _modulated({"kind": "iid_uniform", "low": -math.inf, "high": 1.0}),
     "config.forcing.factor.low"),
    ("forcing", _modulated({"kind": "sinusoid", "amplitudes": [math.nan]}),
     "config.forcing.factor.amplitudes.0"),
    ("out_dir", 5, "config.out_dir"),
    ("out_dir", {"a": 1}, "config.out_dir"),
    pytest.param(("mode", "lambda_grid"), ("spectrum", [0.5, 1.5]), "config.lambda_grid.1",
                 id="lambda_grid-above-1"),
    pytest.param(("mode", "k_grid"), ("envelope", [-1, 1]), "config.k_grid.0",
                 id="k_grid-negative"),
    ("xi", math.inf, "config.xi"),
    ("xi", math.nan, "config.xi"),
    # every number is finite, whichever field it fills
    ("forcing.tail.sigma", math.inf, "config.forcing.tail.sigma"),
    pytest.param("forcing.tail.sigma", 10**400, "config.forcing.tail.sigma", id="sigma-1e400-int"),
    ("forcing", {"kind": "random_walk_drift", "drift": math.inf}, "config.forcing.drift"),
    ("tolerances", {"min_pass_fraction": math.nan}, "config.tolerances.min_pass_fraction"),
    pytest.param(("mode", "expected_crossing"), ("envelope", math.nan),
                 "config.expected_crossing", id="crossing-nan"),
    # verdicts decided before the run: no series has period 1, and a period
    # of 0 would read an aperiodic series as a match; a crossing outside
    # the K grid is never bracketed
    pytest.param(("mode", "expected_period"), ("verify-periodic", 1), "config.expected_period",
                 id="period-1"),
    pytest.param(("mode", "expected_period"), ("verify-periodic", 0), "config.expected_period",
                 id="period-0"),
    pytest.param(("mode", "k_grid", "expected_crossing"), ("envelope", [0.8, 1.2], 1.5),
                 "config.expected_crossing", id="crossing-above-k_grid"),
    pytest.param(("mode", "k_grid", "expected_crossing"), ("envelope", [0.8, 1.2], 0.5),
                 "config.expected_crossing", id="crossing-below-k_grid"),
    # a family takes only the parameters its builder names
    ("forcing.tail", {"family": "normal", "sigam": 2.0}, "config.forcing.tail"),
    pytest.param(("mode", "nonlinearity"),
                 ("verify-nonlinear", {"name": "solow", "params": {"detla": 0.5}}),
                 "config.nonlinearity", id="solow-detla"),
    pytest.param(("mode", "phi"), ("verify-phi", {"name": "power", "params": {"q": 3.0}}),
                 "config.phi", id="phi-power-q"),
    # sqrt(2 log n) starts at index 2, after a forcing's first index
    ("forcing", {"kind": "deterministic", "name": "sqrt_log"}, "config.forcing"),
    ("forcing", dict(_modulated({"kind": "periodic", "profile": [1.0]}),
                     base={"name": "sqrt_log"}), "config.forcing.base"),
    # fixed estimator settings and a second seed are no config keys, whatever
    # the value, even the fixed one: one row per removed setting
    ("statistic.burn_in_fraction", 1.5, "config.statistic.burn_in_fraction"),
    ("thresholds", {"burn_in_fraction": 0.25}, "config.thresholds"),
    ("thresholds", {"zero_peak_ratio": 1e-3}, "config.thresholds"),
    ("thresholds", {"growth_factor": 2.0}, "config.thresholds"),
    ("forcing.seed", 11, "config.forcing.seed"),
    ("out_dir", "elsewhere", "config.out_dir"),
    ("period_hint", 2, "config.period_hint"),
    ("kernel.tail_bound", 0.0, "config.kernel.tail_bound"),
    # each kernel form takes only the fields it reads
    ("kernel", {"coefficients": [0.5], "name": "geometric", "c": 0.3, "ratio": 0.5, "size": 4},
     "config.kernel.name"),
    ("kernel", {"name": "zero", "size": 5, "c": 2.0}, "config.kernel.size"),
    # the iterated logs go three deep, so betas hold at most three exponents
    ("forcing", {"kind": "deterministic", "name": "H1", "params": {"betas": [1, 0, 0, 1]}},
     "config.forcing"),
    ("scaling", {"name": "H2", "params": {"betas": [1, 0, 0, 1]}}, "config.scaling"),
    # a named family's parameter is a finite number or a list of them: no
    # string, boolean or non-finite value
    pytest.param(("mode", "phi"), ("verify-phi", {"name": "power", "params": {"p": "x"}}),
                 "config.phi.params.p", id="phi-p-x"),
    pytest.param(("mode", "phi"), ("verify-phi", {"name": "power", "params": {"p": "2"}}),
                 "config.phi.params.p", id="phi-p-string-2"),
    ("scaling", {"name": "H3", "params": {"theta": True}}, "config.scaling.params.theta"),
    ("scaling", {"name": "H1", "params": {"betas": "12"}}, "config.scaling.params.betas"),
    ("scaling", {"name": "H3", "params": {"theta": math.nan}}, "config.scaling.params.theta"),
    ("forcing", {"kind": "deterministic", "name": "power", "params": {"theta": math.inf}},
     "config.forcing.params.theta"),
    ("forcing", dict(_modulated({"kind": "periodic", "profile": [1.0, 2.0]}),
                     base={"name": "H1", "params": {"betas": [1.0, math.nan]}}),
     "config.forcing.base.params.betas.1"),
    pytest.param(("mode", "nonlinearity"),
                 ("verify-nonlinear", {"name": "solow", "params": {"delta": "0.1"}}),
                 "config.nonlinearity.params.delta", id="solow-delta-string"),
    # a scale's first index fixes what a run can read: sqrt(2 log n) starts
    # at index 2, so a representation needs horizon 3, a scale horizon 2,
    # and a time average, which starts at index 1, none
    pytest.param(("mode", "horizon", "scaling"), ("verify-growth3", 2, _SQRT_LOG),
                 "config.horizon", id="growth3-sqrt_log-horizon-2"),
    pytest.param(("mode", "horizon", "scaling"), ("verify-periodic", 2, _SQRT_LOG),
                 "config.horizon", id="periodic-sqrt_log-horizon-2"),
    pytest.param(("mode", "horizon", "scaling", "nonlinearity"),
                 ("verify-nonlinear", 2, _SQRT_LOG, {"name": "identity"}),
                 "config.horizon", id="nonlinear-sqrt_log-horizon-2"),
    pytest.param(("horizon", "scaling"), (1, _SQRT_LOG), "config.horizon",
                 id="ensemble-sqrt_log-horizon-1"),
    pytest.param(("mode", "scaling"), ("verify-ergodic", _SQRT_LOG), "config.scaling",
                 id="ergodic-sqrt_log"),
    pytest.param(("statistic.name", "scaling"), ("cesaro_limit", _SQRT_LOG), "config.scaling",
                 id="cesaro-sqrt_log"),
    # extraction reads periods up to max(2, int(101 / 8)) = 12 at horizon 100
    pytest.param(("mode", "horizon", "scaling", "expected_period"),
                 ("verify-periodic", 100, {"name": "geometric", "params": {"lam": 0.5}}, 13),
                 "config.expected_period", id="period-13-at-horizon-100"),
    # a required field left out is named by its own path
    ("kernel", {"name": "geometric", "ratio": 0.5, "size": 4}, "config.kernel.c"),
    ("forcing", {"tail": {"family": "normal", "sigma": 1.0}}, "config.forcing.kind"),
    ("forcing.tail", {"sigma": 1.0}, "config.forcing.tail.family"),
    ("statistic", {"name": "phi_average"}, "config.statistic.band"),
    ("scaling", {"params": {}}, "config.scaling.name"),
    pytest.param(("mode", "k_grid"), ("envelope", []), "config.k_grid", id="k_grid-empty"),
    ("statistic.series", "bogus", "config.statistic"),
]


# top-level keys no mode reads: their rows check that they stay refused
_REMOVED = ("out_dir", "thresholds", "period_hint")


def _malformed(field, value):
    """A config of the row's mode with value at a dotted field, or each value
    at its field of a tuple.  A ``mode`` field picks the mode and its base in
    MODE_CONFIGS; otherwise the mode is ``ensemble`` on _ENSEMBLE.  Each field
    is one the mode reads, so a row fails by its own rule, not as a foreign
    field."""
    fields, values = (field, value) if isinstance(field, tuple) else ((field,), (value,))
    mode = dict(zip(fields, values)).get("mode", "ensemble")
    required, optional, _ = config._MODES[mode]
    for field in fields:
        top = field.split(".")[0]
        assert top in _REMOVED or top in config._SETTINGS + required + optional, (mode, field)
    raw = copy.deepcopy(_ENSEMBLE if mode == "ensemble"
                        else TestReportSerialization.MODE_CONFIGS[mode])
    for field, value in zip(fields, values):
        *parents, leaf = field.split(".")
        section = raw
        for key in parents:
            section = section[key]
        section[leaf] = value
    return raw


class TestValidation:
    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="config.bogus"):
            ExperimentConfig.from_dict({"mode": "solve", "bogus": 1})

    def test_unknown_nested_field_names_path(self):
        with pytest.raises(ConfigError, match="forcing.wat"):
            ExperimentConfig.from_dict({
                "mode": "solve", "horizon": 5,
                "kernel": {"name": "zero"},
                "forcing": {"kind": "iid", "wat": 1,
                            "tail": {"family": "normal", "sigma": 1.0}},
            })

    def test_missing_required_field(self):
        with pytest.raises(ConfigError, match="config.kernel"):
            ExperimentConfig.from_dict({"mode": "solve", "horizon": 5,
                                        "forcing": {"kind": "iid",
                                                    "tail": {"family": "normal"}}})

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="config.mode"):
            ExperimentConfig.from_dict({"mode": "fly"})

    def test_bad_tail_parameter_points_at_section(self):
        with pytest.raises(ConfigError, match="tail"):
            ExperimentConfig.from_dict({
                "mode": "solve", "horizon": 5,
                "kernel": {"name": "zero"},
                "forcing": {"kind": "iid", "tail": {"family": "normal", "sigma": -2}},
            })

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="tolerances.nope"):
            ExperimentConfig.from_dict({
                "mode": "verify-growth2", "horizon": 10,
                "kernel": {"name": "zero"},
                "forcing": {"kind": "deterministic", "name": "power",
                            "params": {"theta": 1.0}},
                "tolerances": {"nope": 1.0},
            })

    @pytest.mark.parametrize("field,value,path", _MALFORMED)
    def test_malformed_value_names_its_path(self, field, value, path):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict({"mode": "ensemble", **_malformed(field, value)})
        assert info.value.path == path

    def test_sections_come_back_as_built_objects(self):
        config = cfg(mode="ensemble", **_ENSEMBLE)
        assert config.kernel.coefficients.tolist() == [0.5]
        assert config.forcing.tail.family == "normal"
        assert config.forcing.seed == config["seed"] == 0
        assert config.statistic.name == "phi_average"
        assert config.scaling is None and config.nonlinearity is None

    def test_random_walk_with_noise_and_its_own_seed(self):
        forcing = {"kind": "random_walk_drift", "drift": 0.5,
                   "noise": {"family": "normal", "sigma": 2.0}}
        built = cfg(mode="solve", horizon=50, seed=11, kernel={"name": "zero"}, forcing=forcing)
        assert built["forcing"] == forcing and built["seed"] == 11
        assert built.forcing.seed == 11 and built.forcing.noise.family == "normal"
        same = stochastic.ForcingGenerator(
            kind="random_walk_drift", seed=11, drift=0.5,
            noise=stochastic.make_tail_model("normal", sigma=2.0))
        assert np.array_equal(stochastic.generate(built.forcing, 50).values,
                              stochastic.generate(same, 50).values)

    def test_defaults_recorded(self):
        data = ExperimentConfig.from_dict({
            "mode": "verify-growth2", "horizon": 10,
            "kernel": {"name": "zero"},
            "forcing": {"kind": "deterministic", "name": "power",
                        "params": {"theta": 1.0}},
        }).data
        assert data["xi"] == 1.0
        assert data["log_domain"] is False
        assert data["tolerances"]["residual"] == 1e-6
        assert data["seed"] == 0


class TestModes:
    def test_solve_zero_kernel_writes_shifted_forcing(self, tmp_path):
        config = cfg(
            mode="solve", horizon=5, xi=7.0,
            kernel={"name": "zero"},
            forcing={"kind": "deterministic", "name": "power", "params": {"theta": 1.0}},
        )
        report = run_experiment(config, out_dir=tmp_path)
        assert report.passed
        rows = load_series(tmp_path / "x.npy")
        assert rows["n"].tolist() == [0, 1, 2, 3, 4, 5]
        assert rows["value"].tolist() == [7.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_solve_log_domain_splits_series_files(self, tmp_path):
        config = cfg(
            mode="solve", horizon=5000, log_domain=True,
            kernel={"coefficients": [0.5]},
            forcing={"kind": "deterministic", "name": "geometric", "params": {"lam": 0.5}},
        )
        report = run_experiment(config, out_dir=tmp_path)
        assert (tmp_path / "x_sign.npy").exists()
        assert (tmp_path / "x_logabs.npy").exists()
        # doubling forcing: log|x(N)| grows like N log 2
        assert abs(report.statistics["final_log_abs"] / 5000 - math.log(2.0)) < 1e-3
        assert report.statistics["final_sign"] == 1.0

    def test_spectrum_expanding_kernel(self):
        report = run_experiment(cfg(mode="spectrum", kernel={"coefficients": [2.0]}))
        assert report.statistics["summable"] is False
        assert np.isclose(report.statistics["max_modulus"], 2.0)
        assert report.statistics["multiplier"][0] == 1.0  # lambda = 0
        # g(lambda) = 1 - 2 lambda vanishes at lambda = 0.5, where L is null
        assert report.statistics["multiplier"][2] is None
        assert report.statistics["verdict"] == "nonsummable"

    def test_classify_reports_lambda_and_limsup(self):
        report = run_experiment(cfg(
            mode="classify", horizon=2000, log_domain=True,
            forcing={"kind": "deterministic", "name": "geometric", "params": {"lam": 0.5}},
            scaling={"name": "geometric", "params": {"lam": 0.5}},
        ))
        assert abs(report.statistics["lambda_hat"] - 0.5) < 1e-12
        assert report.statistics["forcing_classification"] == "finite-positive"

    def test_classify_with_a_kernel_classifies_the_solution_too(self, tmp_path):
        report = run_experiment(cfg(
            mode="classify", horizon=2000, log_domain=True,
            kernel={"name": "geometric", "c": 0.3, "ratio": 0.5, "size": 40},
            forcing={"kind": "deterministic", "name": "geometric", "params": {"lam": 0.5}},
            scaling={"name": "geometric", "params": {"lam": 0.5}},
        ), out_dir=tmp_path)
        stats = report.statistics
        assert stats["solution_classification"] == stats["forcing_classification"]
        assert stats["solution_classification"] == "finite-positive"
        # x/a tends to the growth-transfer constant 1/(1 - sum k(l) lam^l) > 1
        assert stats["solution_limsup"] > stats["forcing_limsup"]
        assert {"forcing_sign", "x_sign", "x_logabs"} <= set(report.series)

    @staticmethod
    def _geometric_run(mode, coefficients, lam, horizon=100):
        return run_experiment(cfg(
            mode=mode, horizon=horizon, kernel={"coefficients": coefficients},
            forcing={"kind": "deterministic", "name": "geometric", "params": {"lam": lam}},
            scaling={"name": "geometric", "params": {"lam": lam}},
        ))

    # g(z) = 1 - 1.5 z vanishes at z = 2/3, inside the disc |z| <= 0.8:
    # r(j) 0.8^j = 1.2^j
    @pytest.mark.parametrize("mode", ["verify-growth2", "verify-ergodic"])
    def test_nonsummable_kernel_warns_once(self, mode, caplog):
        with caplog.at_level(logging.WARNING):
            report = self._geometric_run(mode, [1.5], 0.8)
        [record] = caplog.records
        assert record.name == "volterra_lab.spectral"
        assert record.getMessage() == ("kernel resolvent verdict at lambda = 0.8 is nonsummable; "
                                       "the limit stated with L(lambda) may not exist")
        if mode == "verify-growth2":
            assert report.statistics["summable"] is False

    # the caveat is decided on the disc |z| <= lambda, not on the unit disc:
    # g's zeros 2/3 and 1/1.0348 lie outside |z| <= 0.5, so r(j) 0.5^j is
    # summable though r is not
    @pytest.mark.parametrize("mode", ["verify-growth2", "verify-ergodic"])
    @pytest.mark.parametrize("coefficients", [[1.5], [0.6, 0.45]])
    def test_kernel_summable_at_lambda_does_not_warn(self, mode, coefficients, caplog):
        with caplog.at_level(logging.WARNING):
            report = self._geometric_run(mode, coefficients, 0.5, horizon=400)
        assert caplog.records == []
        if mode == "verify-growth2":
            assert report.statistics["summable"] is True
            assert report.verdicts["residual_within_tolerance"]

    # with no scaling section lambda is estimated, and H(n) = n at N = 400
    # reads as lambda_hat = 0.99715 < 1; r(n) = 1.002^n is summable there but
    # not at the limit 1, so the caveat is decided at lambda = 1
    def test_estimated_lambda_decides_the_caveat_at_one(self, caplog):
        with caplog.at_level(logging.WARNING):
            report = run_experiment(cfg(
                mode="verify-growth2", horizon=400, kernel={"coefficients": [1.002]},
                forcing={"kind": "deterministic", "name": "power", "params": {"theta": 1.0}},
            ))
        assert report.statistics["lambda_used"] < 1.0
        [record] = caplog.records
        assert record.getMessage() == ("kernel resolvent verdict at lambda = 1 is nonsummable; "
                                       "the limit stated with L(lambda) may not exist")
        assert report.statistics["summable"] is False

    def test_verify_growth2_geometric_system(self, tmp_path):
        report = run_experiment(cfg(
            mode="verify-growth2", horizon=200, log_domain=True,
            kernel={"name": "geometric", "c": 0.3, "ratio": 0.5, "size": 40},
            forcing={"kind": "deterministic", "name": "geometric", "params": {"lam": 0.5}},
        ), out_dir=tmp_path)
        assert report.verdicts["residual_within_tolerance"]
        assert abs(report.statistics["L_theory"] - 1.25) < 1e-12
        assert (tmp_path / "ratio_x_over_H.npy").exists()

    def test_verify_growth3_modulated_exponential(self):
        report = run_experiment(cfg(
            mode="verify-growth3", horizon=300,
            kernel={"name": "geometric", "c": 0.3, "ratio": 0.5, "size": 40},
            forcing={"kind": "modulated",
                     "base": {"name": "geometric", "params": {"lam": 0.5}},
                     "factor": {"kind": "periodic", "profile": [1.25, 0.75]}},
            scaling={"name": "geometric", "params": {"lam": 0.5}},
        ))
        assert report.passed
        assert report.statistics["representation_residual_sup"] < 1e-4

    def test_verify_nonlinear_identity_trivial(self):
        report = run_experiment(cfg(
            mode="verify-nonlinear", horizon=200,
            kernel={"coefficients": [0.5]},
            forcing={"kind": "deterministic", "name": "power", "params": {"theta": 1.0}},
            scaling={"name": "power", "params": {"theta": 1.0}},
            nonlinearity={"name": "identity"},
        ))
        assert report.verdicts["classification_agreement"]
        assert report.statistics["final_block_max"] == 0.0

    def test_verify_periodic_mode(self):
        profile = [1.0 + 0.3 * math.sin(2 * math.pi * m / 7.0) for m in range(7)]
        lam = math.exp(-0.3)
        report = run_experiment(cfg(
            mode="verify-periodic", horizon=600, expected_period=7,
            kernel={"coefficients": [0.4]},
            forcing={"kind": "modulated",
                     "base": {"name": "geometric", "params": {"lam": lam}},
                     "factor": {"kind": "periodic", "profile": profile}},
            scaling={"name": "geometric", "params": {"lam": lam}},
        ))
        assert report.passed
        assert report.statistics["detected_period_x"] == 7

    def test_verify_ergodic_mode(self):
        report = run_experiment(cfg(
            mode="verify-ergodic", horizon=50_000, log_domain=True, seed=99,
            kernel={"coefficients": [0.5]},
            forcing={"kind": "modulated",
                     "base": {"name": "geometric", "params": {"lam": 0.5}},
                     "factor": {"kind": "iid_uniform", "low": 0.0, "high": 1.0}},
            scaling={"name": "geometric", "params": {"lam": 0.5}},
            tolerances={"limit_abs_error": 0.02},
        ))
        assert report.passed
        assert abs(report.statistics["mu_x_final"] - 2.0 / 3.0) < 0.05

    def test_verify_fluct_mode(self):
        report = run_experiment(cfg(
            mode="verify-fluct", horizon=20_000, seed=5,
            kernel={"coefficients": [0.5]},
            forcing={"kind": "iid", "tail": {"family": "normal", "sigma": 1.0}},
            scaling={"name": "sqrt_log", "params": {}},
        ))
        assert report.passed
        assert report.statistics["classification_x"] == "finite-positive"

    def test_verify_phi_mode(self):
        report = run_experiment(cfg(
            mode="verify-phi", horizon=20_000, seed=6,
            kernel={"coefficients": [0.5]},
            forcing={"kind": "iid", "tail": {"family": "normal", "sigma": 1.0}},
            phi={"name": "power", "params": {"p": 2.0}},
        ))
        assert report.passed
        assert report.statistics["lhs"] < report.statistics["rhs"]

    def test_envelope_mode(self, tmp_path):
        report = run_experiment(cfg(
            mode="envelope", horizon=50_000, expected_crossing=1.0,
            tail={"family": "normal", "sigma": 1.0},
            scaling={"name": "sqrt_log", "params": {}},
            k_grid=[0.8, 0.9, 1.0, 1.1, 1.2],
        ), out_dir=tmp_path)
        assert report.passed
        assert report.statistics["crossing"] is not None
        assert (tmp_path / "partial_sums_K_0.8.npy").exists()

    _NONLINEAR_VERDICTS = {"classification_agreement", "difference_decay", "final_block_bound",
                           "representation_residual"}

    def test_verify_nonlinear_sublinear_map_is_checked_at_its_slope(self):
        # depreciation makes f(x)/x -> 0.9: against the linear path on 0.9 k
        # the gap |x - y|/a vanishes, and every check applies
        report = run_experiment(cfg(
            mode="verify-nonlinear", horizon=500,
            kernel={"coefficients": [0.5]},
            forcing={"kind": "deterministic", "name": "geometric",
                     "params": {"lam": 1 / 1.05}},
            scaling={"name": "geometric", "params": {"lam": 1 / 1.05}},
            nonlinearity={"name": "solow", "params": {"delta": 0.1, "s": 0.2}},
        ))
        assert set(report.verdicts) == self._NONLINEAR_VERDICTS
        assert report.passed
        assert report.statistics["classification_x"] == "finite-positive"
        assert report.statistics["classification_H"] == "finite-positive"
        assert report.statistics["ratio_limit"] == 0.9
        assert report.statistics["linear_at_infinity"] is False
        assert report.statistics["final_block_max"] < 1e-3

    @pytest.mark.parametrize("delta,s", [(0.1, 0.2), (0.5, 0.5)])
    def test_verify_nonlinear_solow_gap_falls_by_root_half(self, delta, s):
        # the correction s sqrt|x| leaves a gap to the path on (1 - delta) k
        # that falls like N^-1/2, by about 1/sqrt(2) per dyadic block; too
        # slowly for the fixed 1e-3 bounds at N = 4096, so the run fails
        report = run_experiment(cfg(
            mode="verify-nonlinear", horizon=4096,
            kernel={"coefficients": [0.5]},
            forcing={"kind": "deterministic", "name": "power", "params": {"theta": 1.0}},
            scaling={"name": "power", "params": {"theta": 1.0}},
            nonlinearity={"name": "solow", "params": {"delta": delta, "s": s}},
        ))
        assert set(report.verdicts) == self._NONLINEAR_VERDICTS
        assert report.verdicts["difference_decay"]
        m = report.statistics["difference_block_maxima"]
        assert 0.6 < m[-2] / m[-3] < 0.8 and 0.6 < m[-1] / m[-2] < 0.8

    def test_verify_nonlinear_compares_every_member_at_its_slope(self, monkeypatch):
        # both linear solves, the path and its representation's prediction,
        # run on beta k; at beta = 1 that is bitwise k, so bounded_offset
        # keeps the numbers it had when the comparison was always on k
        kernels = []

        def counted(fn):
            def wrapper(kernel, *args, **kwargs):
                kernels.append(kernel.coefficients.tolist())
                return fn(kernel, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "solve_linear", counted(cli.solve_linear))
        monkeypatch.setattr(asymptotics, "solve_linear", counted(asymptotics.solve_linear))
        power = {"name": "power", "params": {"theta": 1.0}}
        reports = {}
        for name, params in (("identity", {}), ("bounded_offset", {}), ("sqrt_offset", {}),
                             ("solow", {"delta": 0.1})):
            kernels.clear()
            report = run_experiment(cfg(
                mode="verify-nonlinear", horizon=4000, kernel={"coefficients": [0.5]},
                forcing={"kind": "deterministic", **power}, scaling=power,
                nonlinearity={"name": name, "params": params},
            ))
            assert set(report.verdicts) == self._NONLINEAR_VERDICTS
            assert kernels == [[0.5 * report.statistics["ratio_limit"]]] * 2
            reports[name] = report
        assert reports["solow"].statistics["ratio_limit"] == 0.9
        bounded = reports["bounded_offset"]
        assert bounded.passed
        assert bounded.statistics["difference_block_maxima"][-3:] == pytest.approx(
            [0.0019940079578536136, 0.0009985009973704974, 0.0004996251248356721], rel=1e-12)
        assert bounded.statistics["representation_residual_sup"] == pytest.approx(
            0.00033327781482239693, rel=1e-12)

    def test_verify_nonlinear_bounded_offset_decays(self):
        report = run_experiment(cfg(
            mode="verify-nonlinear", horizon=4000,
            kernel={"coefficients": [0.5]},
            forcing={"kind": "deterministic", "name": "power", "params": {"theta": 1.0}},
            scaling={"name": "power", "params": {"theta": 1.0}},
            nonlinearity={"name": "bounded_offset"},
        ))
        assert report.passed
        assert report.verdicts["difference_decay"]
        assert report.verdicts["representation_residual"]
        assert report.statistics["final_block_max"] < 5.5e-4

    def test_ensemble_mode_round_trip(self):
        config = cfg(
            mode="ensemble", horizon=500, paths=5, seed=11,
            kernel={"coefficients": [0.5]},
            forcing={"kind": "iid", "tail": {"family": "normal", "sigma": 1.0}},
            statistic={"name": "phi_average", "band": [0.5, 3.0]},
        )
        report = run_experiment(config)
        assert report.statistics["pass_fraction"] == 1.0

    def test_bitwise_reproducibility_from_echo(self):
        config = cfg(
            mode="ensemble", horizon=400, paths=4, seed=31415,
            kernel={"coefficients": [0.4]},
            forcing={"kind": "iid", "tail": {"family": "normal", "sigma": 1.0}},
            statistic={"name": "phi_average", "band": [0.0, 9.0]},
        )
        first = run_experiment(config)
        echoed = ExperimentConfig.from_dict(json.loads(json.dumps(first.config)))
        second = run_experiment(echoed)
        assert first.statistics == second.statistics
        assert first.verdicts == second.verdicts


class TestCommandLine:
    def _write_config(self, tmp_path, data):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(data))
        return path

    def test_exit_zero_on_pass(self, tmp_path, capsys):
        path = self._write_config(tmp_path, {
            "horizon": 64,
            "kernel": {"name": "zero"},
            "forcing": {"kind": "deterministic", "name": "power", "params": {"theta": 1.0}},
        })
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert (tmp_path / "out" / "report.json").exists()

    def test_periodic_factor_with_a_dominant_second_harmonic(self, tmp_path, capsys):
        # the profile's second harmonic outweighs its fundamental: both H/a
        # and x/a must fold at period 7, or x/a is predicted from a wrong fold
        path = self._write_config(tmp_path, {
            "horizon": 20000,
            "kernel": {"coefficients": [0.5]},
            "forcing": _modulated({"kind": "periodic", "profile": [1, 2, 3, 1, 0.5, 2, 1]}),
            "scaling": {"name": "power", "params": {"theta": 1.0}},
        })
        code = main(["verify-periodic", "--config", str(path), "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert code == 0
        stats = json.loads((tmp_path / "out" / "report.json").read_text())["statistics"]
        assert stats["detected_period_H"] == stats["detected_period_x"] == 7

    @pytest.mark.parametrize("factor", [
        {"kind": "sinusoid", "frequencies": [math.sqrt(2.0)], "offset": 1.3},
        {"kind": "iid_uniform", "low": 0.5, "high": 1.5},
    ], ids=["quasi_periodic", "noise"])
    def test_aperiodic_factor_fails_period_detected(self, factor, tmp_path, capsys):
        # sin(sqrt(2) n) has no integer period and uniform noise none at all:
        # no fold explains x/a, so a run with no expected period fails
        path = self._write_config(tmp_path, {
            "horizon": 20000,
            "kernel": {"coefficients": [0.5]},
            "forcing": _modulated(factor),
            "scaling": {"name": "power", "params": {"theta": 1.0}},
        })
        code = main(["verify-periodic", "--config", str(path), "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert code == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdicts"]["period_detected"] is False
        assert report["statistics"]["detected_period_x"] == 0

    def test_exit_two_on_failed_check(self, tmp_path, capsys):
        # impossible tolerance forces a failed verdict, not a crash
        path = self._write_config(tmp_path, {
            "horizon": 64, "log_domain": True,
            "kernel": {"name": "geometric", "c": 0.3, "ratio": 0.5, "size": 10},
            "forcing": {"kind": "deterministic", "name": "geometric",
                        "params": {"lam": 0.5}},
            "tolerances": {"residual": 1e-300},
        })
        code = main(["verify-growth2", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_exit_one_on_unwritable_output_directory(self, tmp_path, capsys):
        path = self._write_config(tmp_path, {
            "horizon": 64,
            "kernel": {"name": "zero"},
            "forcing": {"kind": "deterministic", "name": "power", "params": {"theta": 1.0}},
        })
        blocker = tmp_path / "afile"
        blocker.write_text("")
        code = main(["solve", "--config", str(path), "--out", str(blocker / "sub")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cannot write output: ")

    def test_exit_one_on_deterministic_ensemble_forcing_past_double_range(self, tmp_path,
                                                                          capsys):
        data = dict(_ENSEMBLE, horizon=1100, paths=4,
                    forcing={"kind": "deterministic", "name": "geometric",
                             "params": {"lam": 0.5}})
        code = main(["ensemble", "--config", str(self._write_config(tmp_path, data)),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "run with log_domain=True" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["verify-growth3", "verify-periodic", "verify-nonlinear"])
    def test_representation_modes_need_two_indices(self, mode, tmp_path, capsys):
        # a power scale has a(0) = 0, so x/a starts at n = 1
        data = {"kernel": {"coefficients": [0.5]},
                "forcing": {"kind": "deterministic", "name": "power", "params": {"theta": 1.0}},
                "scaling": {"name": "power", "params": {"theta": 1.0}}}
        if mode == "verify-nonlinear":
            data["nonlinearity"] = {"name": "bounded_offset"}
        config = self._write_config(tmp_path, dict(data, horizon=1))
        assert main([mode, "--config", str(config), "--out", str(tmp_path / "one")]) == 1
        assert capsys.readouterr().err.startswith("config error: config.horizon: must be >= 2")
        config = self._write_config(tmp_path, dict(data, horizon=2))
        assert main([mode, "--config", str(config), "--out", str(tmp_path / "two")]) in (0, 2)
        report = json.loads((tmp_path / "two" / "report.json").read_text())
        for fname in report["series"].values():
            assert len(load_series(tmp_path / "two" / fname)) >= 1

    @pytest.mark.parametrize("mode", ["spectrum", "envelope", "verify-nonlinear"])
    def test_plain_only_modes_refuse_log_domain(self, mode, tmp_path, capsys):
        # no log-form path: a run in plain doubles must not echo log_domain true
        data = dict(TestReportSerialization.MODE_CONFIGS[mode], log_domain=True)
        out = tmp_path / "out"
        code = main([mode, "--config", str(self._write_config(tmp_path, data)),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: config.log_domain:")
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("mode,key,value", [
        ("verify-growth2", "residual", -1.0),
        ("verify-growth2", "residual", 0.0),
        ("ensemble", "min_pass_fraction", 2.0),
        ("ensemble", "min_pass_fraction", 0.0),
    ])
    def test_exit_one_on_out_of_range_tolerance(self, mode, key, value, tmp_path, capsys):
        # a verdict fixed before the run is a config error; every path of
        # _ENSEMBLE lands in its band, so there only the fraction decides
        growth2 = {"horizon": 64,
                   "kernel": {"name": "geometric", "c": 0.3, "ratio": 0.5, "size": 10},
                   "forcing": {"kind": "deterministic", "name": "geometric",
                               "params": {"lam": 0.5}}}
        data = dict(growth2 if mode == "verify-growth2" else _ENSEMBLE, tolerances={key: value})
        out = tmp_path / "out"
        code = main([mode, "--config", str(self._write_config(tmp_path, data)), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"config error: config.tolerances.{key}:")
        assert not (out / "report.json").exists()

    def test_exit_one_on_config_error(self, tmp_path, capsys):
        path = self._write_config(tmp_path, {"horizon": 5})
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value,path", _MALFORMED)
    def test_exit_one_on_malformed_value(self, field, value, path, tmp_path, capsys):
        raw = _malformed(field, value)
        config = self._write_config(tmp_path, raw)
        code = main([raw.get("mode", "ensemble"), "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"config error: {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("statistic", ["limsup_ratio", "cesaro_limit"])
    def test_exit_one_on_ensemble_statistic_without_scaling(self, statistic, tmp_path, capsys):
        # a spec error, not a band miss: it must not come back as "every path failed"
        data = dict(_ENSEMBLE, statistic={"name": statistic, "band": [0.0, 9.0]})
        out = tmp_path / "out"
        code = main(["ensemble", "--config", str(self._write_config(tmp_path, data)),
                     "--out", str(out)])
        assert code == 1
        assert "needs a scaling model" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_exit_one_on_infinite_tail_scale(self, tmp_path, capsys):
        # JSON's Infinity parses to a float, so only the finite-number rule stops it
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(dict(_ENSEMBLE, horizon=100, paths=4))
                        .replace('"sigma": 1.0', '"sigma": Infinity'))
        code = main(["ensemble", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config error: config.forcing.tail.sigma:" in capsys.readouterr().err

    def test_exit_one_on_late_starting_forcing_in_solve(self, tmp_path, capsys):
        path = self._write_config(tmp_path, {
            "horizon": 16, "kernel": {"name": "zero"},
            "forcing": {"kind": "deterministic", "name": "sqrt_log"},
        })
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config error: config.forcing: catalogue entry 'sqrt_log' starts at index 2" \
            in capsys.readouterr().err

    def test_every_mode_has_a_handler(self):
        assert set(cli._HANDLERS) == set(MODES)

    @pytest.mark.parametrize("content,prefix", [
        (None, "error: cannot read config: "),
        (b'{"horizon": ', "error: cannot read config: "),
        (b"\xff\xfe{bad", "error: cannot read config: "),
        (b"[1, 2]", "error: config must be a JSON object"),
    ], ids=["missing", "invalid_json", "not_utf8", "json_array"])
    def test_config_file_faults_exit_one_with_a_message(self, content, prefix, tmp_path,
                                                        capsys):
        path = tmp_path / "exp.json"
        if content is not None:
            path.write_bytes(content)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        assert "Traceback" not in err

    # argparse exits 2 on its own errors, the code of a failed check
    @pytest.mark.parametrize("argv", [
        ["solve"],
        ["--bogus"],
        ["fly", "--config", "x.json"],
        ["solve", "--config", "x.json", "--seed", "abc"],
        # the seed is read from the config only
        ["solve", "--config", "x.json", "--seed", "5"],
    ], ids=["no-config", "unknown-flag", "unknown-mode", "seed-abc", "seed-5"])
    def test_usage_errors_exit_one(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        assert "usage:" in capsys.readouterr().err

    def test_list_catalogue(self, capsys):
        assert main(["--list-catalogue"]) == 0
        out = capsys.readouterr().out
        # every catalogue entry and the envelope scale, each as a whole word
        assert {f"H{i}" for i in range(1, 11)} | {"sqrt_log"} <= set(re.findall(r"\w+", out))
        assert "geometric" in out and "factorial" in out
        # every key of every builder table, in table order
        lines = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        for label, table in (
            ("forcing kinds", config._FORCING_KEYS),
            ("modulation factors", stochastic._FACTORS),
            ("tail families", stochastic._TAIL_FAMILIES),
            ("nonlinearities", core._NONLINEARITIES),
            ("phi functionals", asymptotics._PHIS),
            ("ensemble statistics", stochastic.STATISTICS),
            ("modes", MODES),
        ):
            assert lines[label].split(" | ") == list(table), label
        # a config holds no functions, so it has no custom quantile family to name
        assert "custom_quantile" not in out

    @pytest.mark.parametrize("p, log_domain", [(200.0, False), (2000.0, True)])
    def test_verify_phi_with_a_large_power_runs(self, p, log_domain, tmp_path, capsys):
        # p = 200 stays in doubles on this path, p = 2000 needs the log-form
        # fallback; neither may leak a numpy warning (pyproject makes it an error)
        path = self._write_config(tmp_path, {
            "horizon": 2000, "seed": 6,
            "kernel": {"coefficients": [0.5]},
            "forcing": {"kind": "iid", "tail": {"family": "normal", "sigma": 1.0}},
            "phi": {"name": "power", "params": {"p": p}},
        })
        out = tmp_path / "out"
        assert main(["verify-phi", "--config", str(path), "--out", str(out)]) == 0
        stats = json.loads((out / "report.json").read_text())["statistics"]
        assert stats["log_domain"] is log_domain

    _PHI_LOG = {
        "horizon": 2000, "seed": 6,
        "kernel": {"coefficients": [0.5]},
        "forcing": {"kind": "iid", "tail": {"family": "normal", "sigma": 1.0}},
        "phi": {"name": "power", "params": {"p": 2000.0}},
    }

    def test_verify_phi_log_fallback_reports_the_logs_it_decided_on(self):
        # phi(x) = x^2000 leaves double range, so the averages themselves are
        # inf; the log statistics carry the margins the verdicts came from
        report = run_experiment(cfg(mode="verify-phi", **self._PHI_LOG))
        stats, slack = report.statistics, report.config["tolerances"]["bound_slack"]
        assert stats["log_domain"] is True
        assert math.isinf(stats["lhs"]) and math.isinf(stats["rhs"])
        logs = ("lhs_log", "rhs_log", "dual_lhs_log", "dual_rhs_log")
        assert all(math.isfinite(stats[key]) for key in logs)
        assert report.verdicts["primal_bound"] == (
            stats["lhs_log"] <= stats["rhs_log"] + math.log1p(slack))
        assert report.verdicts["dual_bound"] == (
            stats["dual_lhs_log"] <= stats["dual_rhs_log"] + math.log1p(slack))

    def test_verify_phi_plain_branch_has_no_log_statistics(self):
        report = run_experiment(cfg(mode="verify-phi",
                                    **dict(self._PHI_LOG, phi={"name": "power"})))
        assert report.statistics["log_domain"] is False
        for key in ("lhs_log", "rhs_log", "dual_lhs_log", "dual_rhs_log"):
            assert report.statistics[key] is None

    def test_fluct_and_phi_report_one_resolvent_norm(self):
        system = dict(horizon=3000, seed=2, kernel={"coefficients": [0.6, 0.3]},
                      forcing={"kind": "iid", "tail": {"family": "normal", "sigma": 1.0}})
        fluct = run_experiment(cfg(mode="verify-fluct", scaling={"name": "sqrt_log"}, **system))
        phi = run_experiment(cfg(mode="verify-phi", **system))
        assert fluct.statistics["r_l1"] == phi.statistics["r_l1"]
        assert fluct.statistics["r_l1"] == core.Kernel([0.6, 0.3]).resolvent_l1(3000)

    # spectrum reads no horizon, scaling or forcing, so a config that holds
    # them is refused, though sqrt_log has no value at index 1 and factorial
    # forcing leaves plain doubles by 171
    _SPECTRUM = {"kernel": {"coefficients": [0.5, -0.25]}}
    _UNREAD = {
        "scaling_at_horizon_1": {"horizon": 1, "scaling": {"name": "sqrt_log", "params": {}}},
        "plain_factorial_forcing": {"horizon": 400,
                                    "forcing": {"kind": "deterministic", "name": "factorial"}},
    }

    @pytest.mark.parametrize("unread", sorted(_UNREAD))
    def test_spectrum_refuses_sections_it_does_not_read(self, unread, tmp_path, capsys):
        path = self._write_config(tmp_path, dict(self._SPECTRUM, **self._UNREAD[unread]))
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: config.horizon: not a field of mode 'spectrum'")
        assert not (out / "report.json").exists()

    def test_solve_refuses_a_nonlinearity(self, tmp_path, capsys):
        data = dict(TestReportSerialization.MODE_CONFIGS["solve"],
                    nonlinearity={"name": "solow", "params": {"delta": 0.5}})
        out = tmp_path / "out"
        assert main(["solve", "--config", str(self._write_config(tmp_path, data)),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: config.nonlinearity:")
        assert not (out / "report.json").exists()

    # 1e18 doubles are 6.9 EiB: numpy refuses the request at once, before
    # it allocates anything, in the draws, the catalogue's indices and the
    # ensemble's paths
    @pytest.mark.parametrize("mode,data", [
        ("solve", {"kernel": {"coefficients": [0.5]},
                   "forcing": {"kind": "iid", "tail": {"family": "normal", "sigma": 1.0}}}),
        ("solve", {"kernel": {"coefficients": [0.5]},
                   "forcing": {"kind": "deterministic", "name": "power",
                               "params": {"theta": 1.0}}}),
        ("ensemble", _ENSEMBLE),
    ], ids=["iid", "deterministic", "ensemble"])
    def test_horizon_past_memory_exits_one(self, mode, data, tmp_path, capsys):
        path = self._write_config(tmp_path, dict(data, horizon=1e18))
        assert main([mode, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error (") and "Traceback" not in err

    def test_out_defaults_to_volterra_lab_out(self, tmp_path, monkeypatch):
        # --out is the output directory's one source: the environment does not move it
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("VOLTERRA_LAB_OUT", str(tmp_path / "envout"))
        path = self._write_config(tmp_path, {
            "horizon": 16,
            "kernel": {"name": "zero"},
            "forcing": {"kind": "deterministic", "name": "power", "params": {"theta": 1.0}},
        })
        assert main(["solve", "--config", str(path)]) == 0
        assert (tmp_path / "volterra_lab_out" / "report.json").exists()
        assert not (tmp_path / "envout").exists()

    def test_diverging_periodic_run_detects_no_period(self, tmp_path):
        # x/a reaches 1.5e216 on this path: squared, the fold scores would
        # overflow, and any fold would then read as a period
        path = self._write_config(tmp_path, {
            "horizon": 600, "seed": 797, "xi": -2.5,
            "kernel": {"coefficients": [-0.512, -0.527]},
            "forcing": {"kind": "geometric_random_walk", "drift": 0.1,
                        "noise": {"family": "normal", "sigma": 50.0}},
            "scaling": {"name": "power", "params": {"theta": 1.0}},
        })
        out = tmp_path / "out"
        assert main(["verify-periodic", "--config", str(path), "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["statistics"]["detected_period_x"] == 0
        assert report["verdicts"]["period_detected"] is False

    # End-to-end runs through cli.main, one row per claim checked at a scale
    # no other test runs: name -> (mode, config, exit code, statistics, or
    # top-level report keys such as verdicts, the report must hold exactly).
    # A new end-to-end check is one more row.
    _RUNS = {
        # ensembles through the one path loop: log-domain paths solved one
        # at a time, plain geometric-walk paths that fail in generation
        # (e^(0.1 n) leaves double range), and plain paths of x(n) ~ C 1.05^n
        # that fail in the solve
        "ens_log": ("ensemble", {
            "horizon": 3000, "paths": 6, "seed": 3, "log_domain": True,
            "kernel": {"coefficients": [0.5]},
            "forcing": {"kind": "modulated",
                        "base": {"name": "geometric", "params": {"lam": 0.5}},
                        "factor": {"kind": "iid_uniform", "low": 0.0, "high": 1.0}},
            "scaling": {"name": "geometric", "params": {"lam": 0.5}},
            "statistic": {"name": "cesaro_limit", "band": [0.6, 0.7]},
        }, 0, {"failures": 0}),
        "ens_walk": ("ensemble", {
            "horizon": 8000, "paths": 12, "seed": 17,
            "kernel": {"coefficients": [0.5]},
            "forcing": {"kind": "geometric_random_walk", "drift": 0.1,
                        "noise": {"family": "normal", "sigma": 0.5}},
            "statistic": {"name": "log_growth_rate", "band": [0.09, 0.11]},
        }, 2, {"failures": 10}),
        "ens_overflow": ("ensemble", {
            "horizon": 14552, "paths": 12, "seed": 13,
            "kernel": {"coefficients": [1.05]},
            "forcing": {"kind": "iid", "tail": {"family": "normal", "sigma": 1.0}},
            "statistic": {"name": "log_growth_rate", "band": [0.04, 0.05]},
        }, 2, {"failures": 9, "pass_fraction": 0.25}),
        # criterion 10's shape at a fifth of its horizon: every block of
        # every log-domain path is scaled, the first one from x(0) alone
        "ens_log_walk": ("ensemble", {
            "horizon": 2000, "paths": 8, "seed": 31337, "log_domain": True,
            "kernel": {"name": "geometric", "c": 0.3, "ratio": 0.5, "size": 40},
            "forcing": {"kind": "geometric_random_walk", "drift": 0.1,
                        "noise": {"family": "normal", "sigma": 0.05}},
            "statistic": {"name": "log_growth_rate", "band": [0.09, 0.11]},
        }, 0, {"failures": 0, "pass_fraction": 1.0}),
        # x^2 leaves double range on two log-domain paths whose |x| stays
        # inside it: each counts once in failures
        "ens_phi": ("ensemble", {
            "horizon": 3000, "paths": 6, "seed": 3, "log_domain": True,
            "kernel": {"coefficients": [0.5]},
            "forcing": {"kind": "geometric_random_walk", "drift": 0.1,
                        "noise": {"family": "normal", "sigma": 1.0}},
            "statistic": {"name": "phi_average", "band": [0.0, 1.0]},
        }, 2, {"failures": 2, "pass_fraction": 0.0}),
        # an ensemble limsup_ratio on the forcing against sqrt(2 log n)
        "limsup": ("ensemble", {
            "horizon": 2000, "paths": 8, "seed": 7,
            "kernel": {"coefficients": [0.5]},
            "forcing": {"kind": "iid", "tail": {"family": "normal", "sigma": 1.0}},
            "scaling": {"name": "sqrt_log", "params": {}},
            "statistic": {"name": "limsup_ratio", "band": [0.5, 2.0], "series": "forcing"},
        }, 0, {}),
        # the same forcings under a kernel whose solutions leave double range
        # by n = 1100: a statistic of the forcing solves nothing, so no path fails
        "ens_forcing_growing": ("ensemble", {
            "horizon": 2000, "paths": 4, "seed": 7,
            "kernel": {"coefficients": [2.0]},
            "forcing": {"kind": "iid", "tail": {"family": "normal", "sigma": 1.0}},
            "scaling": {"name": "sqrt_log", "params": {}},
            "statistic": {"name": "limsup_ratio", "band": [0.5, 2.0], "series": "forcing"},
        }, 0, {"failures": 0}),
        # cli_sweep's fluctuation config (workload seed 0): r_l1 is sum |r|
        # over 50000 steps of kernel [0.5], 2.0 in doubles
        "fluct": ("verify-fluct", {
            "horizon": 50000, "seed": 2076458226,
            "kernel": {"coefficients": [0.5]},
            "forcing": {"kind": "iid", "tail": {"family": "normal", "sigma": 1.0}},
            "scaling": {"name": "sqrt_log", "params": {}},
        }, 0, {"r_l1": 2.0}),
        # a symmetrised exponential tail against a(n) = log(n + 1):
        # P[|X| > K a(n)] = (n + 1)^-K, so the series diverges below K = 1
        # and converges above it
        "envelope": ("envelope", {
            "horizon": 20000, "expected_crossing": 1.0,
            "tail": {"family": "weibull_symmetric", "scale": 1.0, "shape": 1.0},
            "scaling": {"name": "log_power_product", "params": {"betas": [1.0]}},
            "k_grid": [0.8, 0.9, 1.1, 1.2],
        }, 0, {"verdicts_per_k": ["divergent", "divergent", "convergent", "convergent"],
               "crossing": 1.0}),
        # a shape-2 Weibull tail's (x / scale)^2 overflows past |x| = 1.3e154,
        # where its survival function is exactly 0: no warning may leak
        "envelope_weibull": ("envelope", {
            "horizon": 600,
            "tail": {"family": "weibull_symmetric", "scale": 1.0, "shape": 2.0},
            "scaling": {"name": "H7"},
            "k_grid": [0.8, 0.9, 1.1, 1.2],
        }, 2, {}),
        # log_growth's factorial config: its blocks past index 256 span more
        # than 600 in log|H| and scale into the double range above 1
        "growth2_long": ("verify-growth2", {
            "horizon": 20000, "log_domain": True, "xi": 1.25,
            "kernel": {"name": "geometric", "c": 0.3, "ratio": 0.5, "size": 40},
            "forcing": {"kind": "deterministic", "name": "factorial"},
        }, 0, {}),
        # the nonlinear solve on bounded_offset over several loop chunks
        "nonlinear": ("verify-nonlinear", {
            "horizon": 20000,
            "kernel": {"coefficients": [0.5]},
            "forcing": {"kind": "deterministic", "name": "power", "params": {"theta": 1.0}},
            "scaling": {"name": "power", "params": {"theta": 1.0}},
            "nonlinearity": {"name": "bounded_offset"},
        }, 0, {}),
        # solow's f(x)/x -> 0.9: all four checks, against the path on 0.9 k
        "nonlinear_solow": ("verify-nonlinear", {
            "horizon": 500,
            "kernel": {"coefficients": [0.5]},
            "forcing": {"kind": "deterministic", "name": "geometric", "params": {"lam": 1 / 1.05}},
            "scaling": {"name": "geometric", "params": {"lam": 1 / 1.05}},
            "nonlinearity": {"name": "solow", "params": {"delta": 0.1, "s": 0.2}},
        }, 0, {"ratio_limit": 0.9,
               "verdicts": {"classification_agreement": True, "difference_decay": True,
                            "final_block_bound": True, "representation_residual": True}}),
        # steps of scale 1e298 are above the plain engine's bound for blocks,
        # 256 (N + 2) max|H| < 2^1000, and |x| stays below 5e298: the row
        # runs the per-term loop and never overflows
        "solve_above_bound": ("solve", {
            "horizon": 2000, "seed": 5,
            "kernel": {"coefficients": [0.5]},
            "forcing": {"kind": "iid", "tail": {"family": "normal", "sigma": 1e298}},
        }, 0, {"horizon": 2000}),
    }

    @pytest.mark.parametrize("name", list(_RUNS))
    def test_end_to_end_run(self, name, tmp_path, capsys, caplog):
        # nothing on stderr and no logged caveat; pyproject turns a numpy
        # warning into an error, so none can leak either
        mode, data, code, statistics = self._RUNS[name]
        out = tmp_path / "out"
        assert main([mode, "--config", str(self._write_config(tmp_path, data)),
                     "--out", str(out)]) == code
        assert capsys.readouterr().err == ""
        assert caplog.records == []
        report = json.loads((out / "report.json").read_text())
        found = {**report, **report["statistics"]}
        assert {key: found[key] for key in statistics} == statistics

    # steps of scale 1e307 leave double range at index 582.  They are far
    # above the plain engine's bound for blocks, so the row runs the per-term
    # loop from x(0), which fails there
    _HUGE_STEPS = {"horizon": 2000, "seed": 5, "xi": 0.0, "kernel": {"coefficients": [0.999]},
                   "forcing": {"kind": "iid", "tail": {"family": "normal", "sigma": 1e307}}}

    def test_huge_steps_overflow_where_the_per_term_loop_does(self):
        config = cfg(mode="solve", **self._HUGE_STEPS)
        x = stochastic.generate(config.forcing, config["horizon"]).values.copy()
        assert core._linear_recursion(config.kernel.coefficients, x, config["xi"], x) == 582

    def test_a_solve_above_the_bound_is_the_per_term_loop(self, tmp_path):
        mode, data, code, _ = self._RUNS["solve_above_bound"]
        out = tmp_path / "out"
        assert main([mode, "--config", str(self._write_config(tmp_path, data)),
                     "--out", str(out)]) == code
        forcing, x = (np.load(out / f"{name}.npy")["value"] for name in ("forcing", "x"))
        assert np.max(np.abs(forcing)) * 256 * (len(x) + 2) >= 2.0**1000
        ref = np.empty_like(x)
        assert core._linear_recursion(np.array([0.5]), forcing, 1.0, ref) == -1
        assert np.array_equal(x.view(np.int64), ref.view(np.int64))

    _OVERFLOWS = [
        # H10 = exp(exp(n)) leaves double range even in log form past n = 709
        ("solve", {"horizon": 800, "log_domain": True, "kernel": {"name": "zero"},
                   "forcing": {"kind": "deterministic", "name": "H10"}},
         "overflowed in log space"),
        # 2^n / (1e-20 n) leaves double range at n = 968
        ("classify", {"horizon": 1000,
                      "forcing": {"kind": "deterministic", "name": "geometric",
                                  "params": {"lam": 0.5}},
                      "scaling": {"name": "power", "params": {"theta": 1.0, "scale": 1e-20}}},
         "ratio overflows plain representation at index 968"),
        # an iterated exponential of depth 1e12 overflows in log space and
        # exits 1 at once: its exp passes stop when every value is inf
        ("solve", {"horizon": 50, "log_domain": True, "kernel": {"coefficients": [0.5]},
                   "forcing": {"kind": "deterministic", "name": "iterated_exponential",
                               "params": {"depth": 1e12}}},
         "overflowed in log space"),
        ("solve", _HUGE_STEPS, "non-finite value first produced at index 582\n"),
    ]

    def test_log_space_overflow_exits_one_without_numpy_warning(self, tmp_path):
        # a fresh process shows on stderr whatever numpy would warn there
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        for mode, data, message in self._OVERFLOWS:
            path = self._write_config(tmp_path, data)
            run = subprocess.run(
                [sys.executable, "-m", "volterra_lab.cli", mode, "--config", str(path),
                 "--out", str(tmp_path / "out")],
                capture_output=True, text=True, env=env, check=False, timeout=60,
            )
            assert run.returncode == 1, mode
            assert message in run.stderr
            assert "overflow encountered" not in run.stderr


# Runs in a fresh interpreter: imports the CLI, parses every (mode, config)
# of argv[1], then runs each through cli.main into argv[2]; prints the exit
# codes and the modules each of the three stages added to sys.modules.  A
# fork taken after the import stage imports numpy.random alone, and reports
# as "numpy.random" the modules that adds to the same sys.modules; one BLAS
# thread keeps the process single-threaded, so the fork is safe.
_STAGES = """
import contextlib, io, json, os, sys
from pathlib import Path
before = set(sys.modules)
from volterra_lab import cli
from volterra_lab.config import ExperimentConfig
experiments, out = json.loads(sys.argv[1]), Path(sys.argv[2])
added = {"import": set(sys.modules) - before}
mark = set(sys.modules)
read, write = os.pipe()
child = os.fork()
if child == 0:
    import numpy.random
    os.write(write, json.dumps(sorted(set(sys.modules) - mark)).encode())
    os._exit(0)
os.close(write)
with os.fdopen(read) as pipe:
    bare = json.load(pipe)
os.waitpid(child, 0)
for mode, data in experiments:
    ExperimentConfig.from_dict(dict(data, mode=mode))
added["parse"] = set(sys.modules) - mark
mark = set(sys.modules)
codes = []
for i, (mode, data) in enumerate(experiments):
    path = out / f"{i}.json"
    path.write_text(json.dumps(data))
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main([mode, "--config", str(path), "--out", str(out / str(i))]))
added["run"] = set(sys.modules) - mark
print(json.dumps({"codes": codes, "numpy.random": bare,
                  **{k: sorted(v) for k, v in added.items()}}))
"""


def _scipy_or_ma(modules):
    return [m for m in modules
            if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"]]


def _numpy_random(modules):
    return [m for m in modules if m.split(".")[:2] == ["numpy", "random"]]


class TestImportHygiene:
    """No stage imports SciPy or numpy.ma, and running adds no module.

    The normal tail model is numpy arithmetic, and medians and percentiles
    are np.partition helpers.  Importing the CLI loads no numpy.random
    either: a config whose forcing draws loads it while it is parsed, and
    adds nothing else; a config that draws nothing adds no module at parse
    or at run.
    """

    _POWER_ENSEMBLE = {
        "horizon": 400, "paths": 4,
        "kernel": {"name": "geometric", "c": 0.3, "ratio": 0.5, "size": 40},
        "forcing": {"kind": "iid", "tail": {"family": "symmetric_power", "alpha": 2.0}},
        "statistic": {"name": "log_log_exponent", "band": [0.4, 0.6]},
    }
    _FACTORIAL_GROWTH2 = {
        "horizon": 300, "log_domain": True,
        "kernel": {"name": "geometric", "c": 0.3, "ratio": 0.5, "size": 40},
        "forcing": {"kind": "deterministic", "name": "factorial"},
        "tolerances": {"residual": 1e-4},
    }
    _SINUSOID_SOLVE = {
        "horizon": 64, "kernel": {"coefficients": [0.5]},
        "forcing": _modulated({"kind": "sinusoid", "amplitudes": [0.5], "frequencies": [0.3],
                               "offset": 1.0}),
    }

    def _stages(self, experiments, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                  "VECLIB_MAXIMUM_THREADS"), "1"))
        run = subprocess.run([sys.executable, "-c", _STAGES, json.dumps(experiments),
                              str(tmp_path)],
                             capture_output=True, text=True, env=env, check=True)
        return json.loads(run.stdout.splitlines()[-1])

    def test_cli_import_leaves_scipy_out(self, tmp_path):
        stages = self._stages([], tmp_path)
        assert "volterra_lab.cli" in stages["import"]
        assert _scipy_or_ma(stages["import"]) == []
        assert _numpy_random(stages["import"]) == []
        assert "numpy.random" in stages["numpy.random"]

    def test_power_tail_and_factorial_runs_import_nothing(self, tmp_path):
        stages = self._stages([["ensemble", self._POWER_ENSEMBLE],
                               ["verify-growth2", self._FACTORIAL_GROWTH2]], tmp_path)
        assert stages["codes"][0] in (0, 2) and stages["codes"][1] == 0
        assert "numpy.random" in stages["parse"]
        assert stages["parse"] == stages["numpy.random"]
        assert stages["run"] == []

    def test_normal_tail_ensemble_imports_nothing(self, tmp_path):
        stages = self._stages([["ensemble", _ENSEMBLE],
                               ["classify", TestReportSerialization.MODE_CONFIGS["classify"]]],
                              tmp_path)
        assert stages["codes"] == [0, 0]
        assert _scipy_or_ma(stages["import"]) == []
        assert "numpy.random" in stages["parse"]
        assert stages["parse"] == stages["numpy.random"]
        assert stages["run"] == []

    # configs that draw nothing: deterministic forcing, no forcing, a tail
    # read only through its law, and periodic and sinusoid modulation factors
    @pytest.mark.parametrize("mode", ["verify-growth2", "spectrum", "envelope",
                                      "verify-periodic", "solve"])
    def test_runs_that_draw_nothing_import_nothing(self, mode, tmp_path):
        data = {"verify-growth2": self._FACTORIAL_GROWTH2,
                "solve": self._SINUSOID_SOLVE}.get(mode) or TestReportSerialization.MODE_CONFIGS[mode]
        stages = self._stages([[mode, data]], tmp_path)
        assert stages["codes"] == [0]
        assert stages["parse"] == []
        assert stages["run"] == []


class TestReportSerialization:
    def test_stable_key_order_and_round_trip(self):
        config = cfg(
            mode="spectrum", kernel={"coefficients": [0.5, 0.25]},
        )
        report = run_experiment(config)
        text = report.to_json()
        parsed = json.loads(text)
        assert list(parsed.keys()) == sorted(parsed.keys())
        assert parsed["statistics"]["summable"] is True

    MODE_CONFIGS = {
        "solve": dict(horizon=16, kernel={"name": "zero"},
                      forcing={"kind": "deterministic", "name": "power",
                               "params": {"theta": 1.0}}),
        "spectrum": dict(kernel={"coefficients": [0.5, -0.25]}),
        "classify": dict(horizon=512, seed=1,
                         forcing={"kind": "iid", "tail": {"family": "normal", "sigma": 1.0}},
                         scaling={"name": "sqrt_log", "params": {}}),
        "verify-growth2": dict(horizon=64,
                               kernel={"name": "geometric", "c": 0.3, "ratio": 0.5, "size": 10},
                               forcing={"kind": "deterministic", "name": "geometric",
                                        "params": {"lam": 0.5}}),
        "verify-growth3": dict(horizon=300,
                               kernel={"name": "geometric", "c": 0.3, "ratio": 0.5, "size": 10},
                               forcing={"kind": "modulated",
                                        "base": {"name": "geometric", "params": {"lam": 0.5}},
                                        "factor": {"kind": "periodic", "profile": [1.25, 0.75]}},
                               scaling={"name": "geometric", "params": {"lam": 0.5}}),
        "verify-periodic": dict(horizon=600, expected_period=2,
                                kernel={"coefficients": [0.4]},
                                forcing={"kind": "modulated",
                                         "base": {"name": "geometric", "params": {"lam": 0.5}},
                                         "factor": {"kind": "periodic", "profile": [1.25, 0.75]}},
                                scaling={"name": "geometric", "params": {"lam": 0.5}}),
        "verify-ergodic": dict(horizon=5000, log_domain=True, seed=2,
                               kernel={"coefficients": [0.5]},
                               forcing={"kind": "modulated",
                                        "base": {"name": "geometric", "params": {"lam": 0.5}},
                                        "factor": {"kind": "iid_uniform", "low": 0.0, "high": 1.0}},
                               scaling={"name": "geometric", "params": {"lam": 0.5}},
                               tolerances={"limit_abs_error": 0.05}),
        "verify-fluct": dict(horizon=4096, seed=3,
                             kernel={"coefficients": [0.5]},
                             forcing={"kind": "iid", "tail": {"family": "normal", "sigma": 1.0}},
                             scaling={"name": "sqrt_log", "params": {}}),
        "verify-phi": dict(horizon=4096, seed=4,
                           kernel={"coefficients": [0.5]},
                           forcing={"kind": "iid", "tail": {"family": "normal", "sigma": 1.0}}),
        "envelope": dict(horizon=2000, tail={"family": "normal", "sigma": 1.0},
                         scaling={"name": "sqrt_log", "params": {}},
                         k_grid=[0.8, 1.2]),
        "ensemble": dict(horizon=128, paths=3, seed=5,
                         kernel={"coefficients": [0.5]},
                         forcing={"kind": "iid", "tail": {"family": "normal", "sigma": 1.0}},
                         statistic={"name": "phi_average", "band": [0.0, 99.0]}),
        # the nonlinear path's gaps to the linear one and to its representation,
        # over a(n) = n, fall off as 1/n and pass their 1e-3 tolerances from
        # about 2048 steps on
        "verify-nonlinear": dict(horizon=4096,
                                 kernel={"coefficients": [0.5]},
                                 forcing={"kind": "deterministic", "name": "power",
                                          "params": {"theta": 1.0}},
                                 scaling={"name": "power", "params": {"theta": 1.0}},
                                 nonlinearity={"name": "bounded_offset"}),
    }

    @pytest.mark.parametrize("mode", sorted(MODE_CONFIGS))
    def test_echo_is_a_fixed_point(self, mode):
        echo = ExperimentConfig.from_dict(dict(self.MODE_CONFIGS[mode], mode=mode)).data
        assert ExperimentConfig.from_dict(json.loads(json.dumps(echo))).data == echo

    @pytest.mark.parametrize("mode", sorted(MODE_CONFIGS))
    def test_every_mode_emits_serializable_report(self, mode, tmp_path):
        report = run_experiment(cfg(mode=mode, **self.MODE_CONFIGS[mode]),
                                out_dir=tmp_path)
        parsed = json.loads(report.to_json())
        assert parsed["mode"] == mode
        assert parsed["verdicts"], "every mode must declare at least one verdict"
        for name, value in parsed["verdicts"].items():
            assert isinstance(value, bool), name
        assert report.passed, parsed["verdicts"]
        for fname in parsed["series"].values():
            load_series(tmp_path / fname)

    @pytest.mark.parametrize("mode", sorted(MODE_CONFIGS))
    def test_one_run_builds_each_part_once(self, mode, monkeypatch):
        calls = {"generate": 0, "solve_linear": 0, "from_entry": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("generate", "solve_linear"):
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        from_entry = asymptotics.ScalingModel.from_entry.__func__
        monkeypatch.setattr(asymptotics.ScalingModel, "from_entry",
                            classmethod(counted("from_entry", from_entry)))
        data = self.MODE_CONFIGS[mode]
        run_experiment(cfg(mode=mode, **data))
        single_path = mode not in ("spectrum", "envelope", "ensemble")
        assert calls["generate"] == int(single_path)
        assert calls["solve_linear"] == int(single_path and "kernel" in data)
        assert calls["from_entry"] == int("scaling" in data)

    @pytest.mark.parametrize("mode", sorted(MODE_CONFIGS))
    def test_every_mode_is_bitwise_reproducible(self, mode, tmp_path, capsys):
        # two runs of one config and seed write the same bytes; only the
        # report's wall-clock time may differ
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(self.MODE_CONFIGS[mode]))
        runs = []
        for name in ("first", "second"):
            code = main([mode, "--config", str(config), "--out", str(tmp_path / name)])
            text = (tmp_path / name / "report.json").read_text()
            report = json.loads(text)
            wall = f'"wall_clock_s": {json.dumps(report["wall_clock_s"])}'
            assert text.count(wall) == 1
            files = sorted((tmp_path / name).glob("*.npy"))
            assert [f.name for f in files] == sorted(report["series"].values())
            runs.append((code, text.replace(wall, ""), {f.name: f.read_bytes() for f in files}))
        capsys.readouterr()
        assert runs[0][0] in (0, 2)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("log_domain", [False, True], ids=["plain", "log"])
    def test_periodic_fixture_detects_period_2_in_both_domains(self, log_domain, tmp_path,
                                                               capsys):
        # in the log domain x/a folds onto period 4 as well as onto 2, to rounding
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(dict(self.MODE_CONFIGS["verify-periodic"],
                                          log_domain=log_domain)))
        code = main(["verify-periodic", "--config", str(config), "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["statistics"]["detected_period_x"] == 2


def _foreign_fields(configs):
    """(mode, field, a well-formed value of it) for each mode of configs and
    each top-level field that another mode reads and this one does not."""
    values = {key: value for data in configs.values() for key, value in data.items()}
    values.update(lambda_grid=[0.5], expected_crossing=1.0, phi={"name": "power"})
    read = {key for required, optional, _ in config._MODES.values() for key in required + optional}
    rows = []
    for mode in sorted(configs):
        required, optional, _ = config._MODES[mode]
        rows += [pytest.param(mode, key, values[key], id=f"{mode}-{key}")
                 for key in sorted(read - {*required, *optional})]
    return rows


class TestModeSchema:
    """A mode's fields are its schema: a config holds the fields its mode
    reads and the settings every mode takes, and nothing else."""

    @pytest.mark.parametrize("mode,key,value",
                             _foreign_fields(TestReportSerialization.MODE_CONFIGS))
    def test_a_field_the_mode_does_not_read_is_refused(self, mode, key, value):
        raw = dict(TestReportSerialization.MODE_CONFIGS[mode], mode=mode, **{key: value})
        with pytest.raises(ConfigError, match=f"mode {mode!r}") as info:
            ExperimentConfig.from_dict(raw)
        assert info.value.path == f"config.{key}"


# --------------------------------------------------------------------------
# evidence files: np.load gives back the written series bit for bit
# --------------------------------------------------------------------------

class RawSeries:
    """A plain series with any float values; ``Trajectory`` refuses non-finite ones."""

    def __init__(self, values, start=3):
        self.values = np.array(values, dtype=float)
        self.start = start

    def indices(self):
        return np.arange(self.start, self.start + len(self.values))


# signed zero, subnormal, non-finite and a NaN with a payload and sign bit
SPECIALS = np.concatenate((
    [-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, np.inf, -np.inf, np.nan, 0.1],
    np.array([0xFFF8_0000_0000_0001], dtype=np.uint64).view(np.float64),
))


def assert_bitwise_series(path, indices, values):
    rows = load_series(path)
    assert np.array_equal(rows["n"], indices)
    assert np.array_equal(rows["value"].view(np.int64),
                          np.asarray(values, dtype=np.float64).view(np.int64))


class TestSeriesFiles:
    @pytest.mark.parametrize("values", [SPECIALS, [], [0.1], np.resize(SPECIALS, 10_001)],
                             ids=["specials", "empty", "one-row", "long"])
    def test_round_trip_is_bitwise(self, tmp_path, values):
        series = RawSeries(values)
        assert cli._write_series(tmp_path, "x", series) == {"x": "x.npy"}
        assert_bitwise_series(tmp_path / "x.npy", series.indices(), series.values)

    @pytest.mark.parametrize("size", [1, core._CHUNK - 1, core._CHUNK, core._CHUNK + 1, 100_001])
    @pytest.mark.parametrize("form", ["plain", "log"])
    def test_bytes_are_np_save_of_whole_array(self, tmp_path, form, size):
        rng = np.random.Generator(np.random.Philox(size))
        values = np.resize(SPECIALS, size) * rng.choice([-1.0, 1.0], size)
        if form == "plain":
            series, columns = RawSeries(values), {"x": values}
        else:
            # log magnitudes -inf (exact zero), -0.0 (magnitude 1) and finite
            la = np.where(np.isfinite(values), values, -np.inf)
            la[::3] = -0.0
            series = LogTrajectory(la, np.where(la == -np.inf, 0.0, np.where(values < 0.0, -1.0, 1.0)))
            columns = {"x_sign": series.sign, "x_logabs": series.log_abs}
        assert cli._write_series(tmp_path, "x", series) == {k: f"{k}.npy" for k in columns}
        for key, column in columns.items():
            rows = np.empty(size, dtype=cli._SERIES_DTYPE)
            rows["n"] = series.indices()
            rows["value"] = column
            whole = io.BytesIO()
            np.save(whole, rows, allow_pickle=False)
            assert (tmp_path / f"{key}.npy").read_bytes() == whole.getvalue()

    def test_log_form_series(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(18))
        la = np.concatenate(([-np.inf], rng.normal(scale=300.0, size=5000)))
        sg = np.concatenate(([0.0], rng.choice([-1.0, 1.0], 5000)))
        series = LogTrajectory(la, sg, start=5)
        written = cli._write_series(tmp_path, "x", series)
        assert written == {"x_sign": "x_sign.npy", "x_logabs": "x_logabs.npy"}
        assert_bitwise_series(tmp_path / "x_sign.npy", series.indices(), series.sign)
        assert_bitwise_series(tmp_path / "x_logabs.npy", series.indices(), series.log_abs)
