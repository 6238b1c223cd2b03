import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from volterra_lab import cli
from volterra_lab.cli import main, run_experiment
from volterra_lab.config import MODES, ExperimentConfig
from volterra_lab.exceptions import ConfigError
from volterra_lab.series import LogTrajectory


def cfg(**kwargs):
    return ExperimentConfig.from_dict(kwargs)


_ENSEMBLE = {
    "horizon": 50, "paths": 2,
    "kernel": {"coefficients": [0.5]},
    "forcing": {"kind": "iid", "tail": {"family": "normal", "sigma": 1.0}},
    "statistic": {"name": "phi_average", "band": [0.0, 99.0]},
}

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
    ("statistic.phi", {"name": "power", "params": {"p": "x"}}, "config.statistic.phi"),
    ("seed", -1, "config.seed"),
    ("log_domain", "false", "config.log_domain"),
    ("forcing", _modulated({"kind": "iid_uniform", "low": 2.0, "high": 1.0}),
     "config.forcing.factor.high"),
    ("forcing", _modulated({"kind": "iid_uniform", "low": 1.0, "high": 1.0}),
     "config.forcing.factor.high"),
    ("forcing", _modulated({"kind": "periodic", "profile": []}),
     "config.forcing.factor.profile"),
    ("forcing", _modulated({"kind": "periodic", "profile": [1.0, math.nan]}),
     "config.forcing.factor.profile.1"),
    ("forcing", _modulated({"kind": "sinusoid", "amplitudes": [1.0, 0.5], "frequencies": [1.0]}),
     "config.forcing.factor.frequencies"),
    ("forcing", _modulated({"kind": "iid_uniform", "low": -math.inf, "high": 1.0}),
     "config.forcing.factor.low"),
    ("forcing", _modulated({"kind": "sinusoid", "amplitudes": [math.nan]}),
     "config.forcing.factor.amplitudes.0"),
    ("out_dir", 5, "config.out_dir"),
    ("out_dir", {"a": 1}, "config.out_dir"),
    ("lambda_grid", [0.5, 1.5], "config.lambda_grid.1"),
    ("k_grid", [-1, 1], "config.k_grid.0"),
    ("xi", math.inf, "config.xi"),
    ("xi", math.nan, "config.xi"),
    # every number is finite, whichever field it fills
    ("forcing.tail.sigma", math.inf, "config.forcing.tail.sigma"),
    pytest.param("forcing.tail.sigma", 10**400, "config.forcing.tail.sigma", id="sigma-1e400-int"),
    ("forcing", {"kind": "random_walk_drift", "drift": math.inf}, "config.forcing.drift"),
    ("tolerances", {"min_pass_fraction": math.nan}, "config.tolerances.min_pass_fraction"),
    ("expected_crossing", math.nan, "config.expected_crossing"),
    # a family takes only the parameters its builder names
    ("forcing.tail", {"family": "normal", "sigam": 2.0}, "config.forcing.tail"),
    ("nonlinearity", {"name": "solow", "params": {"detla": 0.5}}, "config.nonlinearity"),
    ("statistic.phi", {"name": "power", "params": {"q": 3.0}}, "config.statistic.phi"),
    # sqrt(2 log n) starts at index 2, after a forcing's first index
    ("forcing", {"kind": "deterministic", "name": "sqrt_log"}, "config.forcing"),
    ("forcing", dict(_modulated({"kind": "periodic", "profile": [1.0]}),
                     base={"name": "sqrt_log"}), "config.forcing.base"),
    ("statistic.burn_in_fraction", 1.5, "config.statistic"),
]


def _malformed(field, value):
    raw = copy.deepcopy(_ENSEMBLE)
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
            ExperimentConfig.from_dict(dict(_malformed(field, value), mode="ensemble"))
        assert info.value.path == path

    def test_sections_come_back_as_built_objects(self):
        config = cfg(mode="ensemble", **_ENSEMBLE)
        assert config.kernel.coefficients.tolist() == [0.5]
        assert config.forcing.tail.family == "normal"
        assert config.forcing.seed == config["seed"] == 0
        assert config.statistic.name == "phi_average"
        assert config.thresholds.burn_in_fraction == 0.25
        assert config.scaling is None and config.nonlinearity is None

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
        rows = (tmp_path / "x.csv").read_text().strip().splitlines()
        assert rows[0] == "n,value"
        values = [float(r.split(",")[1]) for r in rows[1:]]
        assert values == [7.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_solve_log_domain_splits_series_files(self, tmp_path):
        config = cfg(
            mode="solve", horizon=5000, log_domain=True,
            kernel={"coefficients": [0.5]},
            forcing={"kind": "deterministic", "name": "geometric", "params": {"lam": 0.5}},
        )
        report = run_experiment(config, out_dir=tmp_path)
        assert (tmp_path / "x_sign.csv").exists()
        assert (tmp_path / "x_logabs.csv").exists()
        # doubling forcing: log|x(N)| grows like N log 2
        assert abs(report.statistics["final_log_abs"] / 5000 - math.log(2.0)) < 1e-3
        assert report.statistics["final_sign"] == 1.0

    def test_spectrum_expanding_kernel(self):
        report = run_experiment(cfg(mode="spectrum", kernel={"coefficients": [2.0]}))
        assert report.statistics["summable"] is False
        assert np.isclose(report.statistics["max_modulus"], 2.0)
        assert report.statistics["multiplier"][0] == 1.0  # lambda = 0

    def test_classify_reports_lambda_and_limsup(self):
        report = run_experiment(cfg(
            mode="classify", horizon=2000, log_domain=True,
            forcing={"kind": "deterministic", "name": "geometric", "params": {"lam": 0.5}},
            scaling={"name": "geometric", "params": {"lam": 0.5}},
        ))
        assert abs(report.statistics["lambda_hat"] - 0.5) < 1e-12
        assert report.statistics["forcing_classification"] == "finite-positive"

    def test_verify_growth2_geometric_system(self, tmp_path):
        report = run_experiment(cfg(
            mode="verify-growth2", horizon=200, log_domain=True,
            kernel={"name": "geometric", "c": 0.3, "ratio": 0.5, "size": 40},
            forcing={"kind": "deterministic", "name": "geometric", "params": {"lam": 0.5}},
        ), out_dir=tmp_path)
        assert report.verdicts["residual_within_tolerance"]
        assert abs(report.statistics["L_theory"] - 1.25) < 1e-12
        assert (tmp_path / "ratio_x_over_H.csv").exists()

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
        assert (tmp_path / "partial_sums_K_0.8.csv").exists()

    def test_verify_nonlinear_sublinear_map_skips_decay_checks(self):
        # depreciation makes f(x)/x -> 0.9, so |x-y|/a does not vanish and
        # only the classification check applies
        report = run_experiment(cfg(
            mode="verify-nonlinear", horizon=500,
            kernel={"coefficients": [0.5]},
            forcing={"kind": "deterministic", "name": "geometric",
                     "params": {"lam": 1 / 1.05}},
            scaling={"name": "geometric", "params": {"lam": 1 / 1.05}},
            nonlinearity={"name": "solow", "params": {"delta": 0.1, "s": 0.2}},
        ))
        assert set(report.verdicts) == {"classification_agreement"}
        assert report.passed
        assert report.statistics["classification_x"] == "finite-positive"
        assert report.statistics["classification_H"] == "finite-positive"
        assert report.statistics["ratio_limit"] == 0.9

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

    def test_exit_one_on_config_error(self, tmp_path, capsys):
        path = self._write_config(tmp_path, {"horizon": 5})
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value,path", _MALFORMED)
    def test_exit_one_on_malformed_value(self, field, value, path, tmp_path, capsys):
        config = self._write_config(tmp_path, _malformed(field, value))
        code = main(["ensemble", "--config", str(config), "--out", str(tmp_path / "out")])
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

    def test_exit_one_on_unreadable_config(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "missing.json")])
        assert code == 1

    def test_seed_override_changes_echo(self, tmp_path):
        path = self._write_config(tmp_path, {
            "horizon": 50, "paths": 2, "seed": 1,
            "kernel": {"coefficients": [0.5]},
            "forcing": {"kind": "iid", "tail": {"family": "normal", "sigma": 1.0}},
            "statistic": {"name": "phi_average", "band": [0.0, 99.0]},
        })
        out = tmp_path / "out"
        code = main(["ensemble", "--config", str(path), "--seed", "777",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 777

    def test_list_catalogue(self, capsys):
        assert main(["--list-catalogue"]) == 0
        out = capsys.readouterr().out
        for tag in ("H1", "H6", "H9", "H10"):
            assert tag in out
        assert "geometric" in out and "factorial" in out

    def test_env_var_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("VOLTERRA_LAB_OUT", str(tmp_path / "envout"))
        path = self._write_config(tmp_path, {
            "horizon": 16,
            "kernel": {"name": "zero"},
            "forcing": {"kind": "deterministic", "name": "power", "params": {"theta": 1.0}},
        })
        assert main(["solve", "--config", str(path)]) == 0
        assert (tmp_path / "envout" / "report.json").exists()

    def test_out_dir_from_config_without_out_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("VOLTERRA_LAB_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        data = {
            "horizon": 16,
            "kernel": {"name": "zero"},
            "forcing": {"kind": "deterministic", "name": "power", "params": {"theta": 1.0}},
        }
        path = self._write_config(tmp_path, dict(data, out_dir=5))
        assert main(["solve", "--config", str(path)]) == 1
        assert "config error: config.out_dir:" in capsys.readouterr().err
        assert not (tmp_path / "volterra_lab_out").exists()
        path = self._write_config(tmp_path, dict(data, out_dir="from_config"))
        assert main(["solve", "--config", str(path)]) == 0
        assert (tmp_path / "from_config" / "report.json").exists()

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
                capture_output=True, text=True, env=env, check=False,
            )
            assert run.returncode == 1, mode
            assert message in run.stderr
            assert "overflow encountered" not in run.stderr


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
        "verify-nonlinear": dict(horizon=512,
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
        for fname in parsed["series"].values():
            assert (tmp_path / fname).exists()

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
            files = sorted((tmp_path / name).glob("*.csv"))
            assert [f.name for f in files] == sorted(report["series"].values())
            runs.append((code, text.replace(wall, ""), {f.name: f.read_bytes() for f in files}))
        capsys.readouterr()
        assert runs[0][0] in (0, 2)
        assert runs[0] == runs[1]


# --------------------------------------------------------------------------
# chunked CSV writer against the row-at-a-time writer it replaced
# --------------------------------------------------------------------------

def row_at_a_time_csv(path, indices, values):
    with open(path, "w") as fh:
        fh.write("n,value\n")
        for n, v in zip(indices, values):
            fh.write(f"{int(n)},{float(v)!r}\n")


CSV_SPECIALS = [-0.0, 5e-324, 1e-5, 1e16, np.inf, -np.inf, np.nan, 0.1]
CSV_ROWS = cli._CSV_ROWS


class TestCsvWriter:
    @pytest.mark.parametrize("values", [
        CSV_SPECIALS, [], [0.1],
        np.resize(CSV_SPECIALS, CSV_ROWS - 1),
        np.resize(CSV_SPECIALS, CSV_ROWS),
        np.resize(CSV_SPECIALS, CSV_ROWS + 1),
    ], ids=["specials", "empty", "one-row", "chunk-1", "chunk", "chunk+1"])
    def test_bytes_equal_row_at_a_time(self, tmp_path, values):
        # Trajectory refuses non-finite values, so this writes the CSV directly
        values = np.array(values, dtype=float)
        indices = np.arange(3, 3 + len(values))
        cli._dump_csv(tmp_path / "x.csv", indices, values)
        row_at_a_time_csv(tmp_path / "ref.csv", indices, values)
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_log_form_series(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(18))
        la = np.concatenate(([-np.inf], rng.normal(scale=300.0, size=CSV_ROWS + 5)))
        sg = np.concatenate(([0.0], rng.choice([-1.0, 1.0], CSV_ROWS + 5)))
        series = LogTrajectory(la, sg)
        written = cli._write_series(tmp_path, "x", series)
        assert written == {"x_sign": "x_sign.csv", "x_logabs": "x_logabs.csv"}
        for suffix, values in (("sign", series.sign), ("logabs", series.log_abs)):
            row_at_a_time_csv(tmp_path / "ref.csv", series.indices(), values)
            assert (tmp_path / f"x_{suffix}.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
