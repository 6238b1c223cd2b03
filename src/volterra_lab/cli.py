"""Experiment orchestration: config in, verdicts plus ``.npy`` evidence out.

Usage:

    volterra-lab <mode> --config experiment.json [--out DIR]
    volterra-lab --list-catalogue

A run builds one system, once: ``_solve_system`` generates the forcing,
solves and builds the scale from the sections the config holds, which
are only those its mode reads, and each mode is a check on that system
(``verify-nonlinear`` adds its nonlinear solve on k to the linear one on
beta * k, f(x)/x -> beta; ``ensemble`` draws its own paths).

Exit codes: 0 when the run completed and every declared check passed,
2 when the run completed but some check failed (the report says which),
1 on execution or configuration errors, and on command-line mistakes.
A failed verification is data, not a crash.
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  argparse's gettext imports it at the first parse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import (
    _PHIS,
    ScalingModel,
    estimate_lambda,
    estimate_limsup,
    extract_almost_periodic,
    phi_average_bounds,
    predict_H_over_a,
    predict_x_over_a,
    residual_tail_sup,
    time_average,
    verify_growth2,
)
from .config import _FORCING_KEYS, MODES, ExperimentConfig, Report
from .core import _CHUNK, _NONLINEARITIES, Kernel, solve_linear, solve_nonlinear
from .exceptions import ConfigError, VolterraLabError
from .growth_catalogue import catalogue_names
from .series import LogTrajectory, Trajectory, overlap_range, ratio_series
from .spectral import (_inverse_symbol, _summability_caveat, characteristic_roots,
                       multiplier_L, symbol)
from .stochastic import (
    _FACTORS,
    _TAIL_FAMILIES,
    STATISTICS,
    EnsembleSpec,
    ensemble_verify,
    envelope_sums,
    generate,
)


# --------------------------------------------------------------------------
# the solved system and the helpers the checks share
# --------------------------------------------------------------------------

def _solve_system(cfg: ExperimentConfig):
    """The run's system ``(kernel, forcing, x, scale)``, each part built once.

    The one place a run generates forcing, solves or builds a scale.  It
    builds whatever the config holds, since a section is there only for a
    mode that reads it: a single path for a forcing without ``paths``
    (solved when there is a kernel), a scale for a ``scaling``; None
    otherwise.  ``x`` solves on ``kernel``: k, or beta * k under a
    ``nonlinearity`` f with f(x)/x -> beta.  Under ``log_domain`` the
    forcing, and so ``x``, is a LogTrajectory.
    """
    horizon, kernel = cfg.get("horizon"), cfg.kernel
    if cfg.nonlinearity is not None:
        kernel = Kernel(kernel.coefficients * cfg.nonlinearity.ratio_limit, kernel.tail_bound)
    forcing = x = scale = None
    if cfg.forcing is not None and cfg.get("paths") is None:
        forcing = generate(cfg.forcing, horizon, log_domain=cfg["log_domain"])
        if kernel is not None:
            x = solve_linear(kernel, forcing, cfg["xi"], horizon)
    if cfg.scaling is not None:
        scale = ScalingModel.from_entry(cfg.scaling, horizon, log_domain=cfg["log_domain"])
    return kernel, forcing, x, scale


def _fields(result, *names) -> dict:
    """Statistics named after fields of a result dataclass, copied from it."""
    return {name: getattr(result, name) for name in names}


def _limsups(scale, *paths):
    """limsup |g|/a of each path; None for no path."""
    return [None if g is None else estimate_limsup(g, scale) for g in paths]


def _representation(kernel, scale, x, g_H):
    """x/a, its representation from g_H, a bounded factor of H at the same
    scale, and the sup of their gap over the tail window."""
    x_over_a = ratio_series(x, scale.a)
    predicted = predict_x_over_a(kernel, scale.lam, g_H)
    return x_over_a, predicted, residual_tail_sup(x_over_a, predicted)


# --------------------------------------------------------------------------
# mode checks: (cfg, kernel, forcing, x, scale) -> (verdicts, statistics, series)
# --------------------------------------------------------------------------

def _mode_solve(cfg, kernel, forcing, x, scale):
    stats = {"horizon": cfg["horizon"], "l1_norm": kernel.l1_norm}
    if isinstance(x, LogTrajectory):
        stats.update(final_log_abs=float(x.log_abs[-1]), final_sign=float(x.sign[-1]))
    else:
        stats["final_value"] = float(x.values[-1])
    return {"completed": True}, stats, {"x": x, "forcing": forcing}


def _mode_spectrum(cfg, kernel, forcing, x, scale):
    report = characteristic_roots(kernel)
    grid = cfg["lambda_grid"]
    g = symbol(kernel, grid).tolist()
    stats = {
        **_fields(report, "max_modulus", "verdict", "summable"),
        "tail_caveat": kernel.tail_bound,
        "roots": [[float(z.real), float(z.imag)] for z in report.roots],
        "lambda_grid": list(grid),
        "kappa": [1.0 - v for v in g],
        "multiplier": [_inverse_symbol(v) for v in g],
    }
    return {"completed": True}, stats, {}


def _mode_classify(cfg, kernel, forcing, x, scale):
    lam_hat, converged = estimate_lambda(forcing)
    est, est_x = _limsups(scale, forcing, x)
    stats = {
        "lambda_hat": lam_hat,
        "lambda_converged": converged,
        "forcing_limsup": est.value,
        "forcing_classification": est.classification,
        "block_maxima": [float(v) for v in est.block_maxima],
    }
    series = {"forcing": forcing}
    if x is not None:
        stats.update(solution_limsup=est_x.value, solution_classification=est_x.classification)
        series["x"] = x
    return {"completed": True}, stats, series


def _mode_verify_growth2(cfg, kernel, forcing, x, scale):
    result = verify_growth2(kernel, x, forcing, scale)
    tol = cfg["tolerances"]["residual"]
    verdicts = {"residual_within_tolerance": bool(result.residual < tol)}
    stats = {
        **_fields(result, "L_empirical", "L_theory", "residual", "lambda_hat",
                  "lambda_used", "lambda_converged", "summable"),
        "tolerance": tol,
    }
    return verdicts, stats, {"ratio_x_over_H": result.ratio}


def _mode_verify_growth3(cfg, kernel, forcing, x, scale):
    lam_H = ratio_series(forcing, scale.a)
    lam_x, predicted_x, rep_residual = _representation(kernel, scale, x, lam_H)
    predicted_H = predict_H_over_a(kernel, scale.lam, lam_x)
    rec_residual = residual_tail_sup(lam_H, predicted_H)
    tol = cfg["tolerances"]
    verdicts = {
        "representation_residual": bool(rep_residual < tol["representation_residual"]),
        "recovery_residual": bool(rec_residual < tol["recovery_residual"]),
    }
    stats = {
        "representation_residual_sup": rep_residual,
        "recovery_residual_sup": rec_residual,
        "lambda": scale.lam,
        "tolerances": tol,
    }
    lo, hi = overlap_range(lam_x, predicted_x)
    residual = Trajectory(lam_x.window(lo, hi).values - predicted_x.window(lo, hi).values,
                          start=lo)
    series = {
        "x_over_a": lam_x,
        "x_over_a_predicted": predicted_x,
        "representation_residual": residual,
        "H_over_a": lam_H,
        "H_over_a_predicted": predicted_H,
    }
    return verdicts, stats, series


def _mode_verify_periodic(cfg, kernel, forcing, x, scale):
    extraction_H = extract_almost_periodic(ratio_series(forcing, scale.a))
    lam_x, predicted, rep_residual = _representation(kernel, scale, x, extraction_H.pi)
    extraction_x = extract_almost_periodic(lam_x)
    tol = cfg["tolerances"]["representation_residual"]
    expected = cfg.get("expected_period")
    period_ok = (extraction_x.period == expected if expected is not None
                 else extraction_x.verdict == "periodic")
    verdicts = {
        "period_detected": bool(period_ok),
        "representation_residual": bool(rep_residual < tol),
    }
    stats = {
        "detected_period_x": extraction_x.period,
        "detected_period_H": extraction_H.period,
        "expected_period": expected,
        "representation_residual_sup": rep_residual,
        "extraction_residual_sup": extraction_x.residual_tail_sup,
        "tolerance": tol,
    }
    series = {
        "x_over_a": lam_x,
        "periodic_part_x": extraction_x.pi,
        "periodic_part_H": extraction_H.pi,
        "x_over_a_predicted": predicted,
        "extraction_residual": extraction_x.residual,
    }
    return verdicts, stats, series


def _mode_verify_ergodic(cfg, kernel, forcing, x, scale):
    _summability_caveat(kernel, scale.lam)
    mu_x = time_average(ratio_series(x, scale.a))
    mu_H = time_average(ratio_series(forcing, scale.a))
    multiplier = multiplier_L(kernel, scale.lam)
    predicted = float(mu_H.values[-1]) * multiplier
    err = abs(float(mu_x.values[-1]) - predicted)
    tol = cfg["tolerances"]["limit_abs_error"]
    verdicts = {"time_average_within_tolerance": bool(err < tol)}
    stats = {
        "mu_x_final": float(mu_x.values[-1]),
        "mu_H_final": float(mu_H.values[-1]),
        "multiplier": multiplier,
        "predicted_limit": predicted,
        "abs_error": err,
        "tolerance": tol,
    }
    return verdicts, stats, {"time_average_x": mu_x, "time_average_H": mu_H}


def _mode_verify_fluct(cfg, kernel, forcing, x, scale):
    est_H, est_x = _limsups(scale, forcing, x)
    r_l1 = kernel.resolvent_l1(x.end)
    k_l1 = kernel.l1_norm
    slack = cfg["tolerances"]["bound_slack"]
    verdicts = {
        "solution_bounded_by_forcing": bool(est_x.value <= (1.0 + slack) * r_l1 * est_H.value),
        "forcing_bounded_by_solution":
            bool(est_H.value <= (1.0 + slack) * (1.0 + k_l1) * est_x.value),
        "classification_agreement": est_x.classification == est_H.classification,
    }
    stats = {
        "limsup_x": est_x.value,
        "limsup_H": est_H.value,
        "classification_x": est_x.classification,
        "classification_H": est_H.classification,
        "r_l1": r_l1,
        "k_l1": k_l1,
        "slack": slack,
        "block_maxima_x": [float(v) for v in est_x.block_maxima],
        "block_maxima_H": [float(v) for v in est_H.block_maxima],
    }
    return verdicts, stats, {}


def _mode_verify_phi(cfg, kernel, forcing, x, scale):
    phi = cfg.phi
    report = phi_average_bounds(kernel, x, forcing, phi, slack=cfg["tolerances"]["bound_slack"])
    verdicts = {"primal_bound": report.holds, "dual_bound": report.dual_holds}
    stats = {
        **_fields(report, "lhs", "rhs", "dual_lhs", "dual_rhs", "lhs_log", "rhs_log",
                  "dual_lhs_log", "dual_rhs_log", "r_l1", "k_l1", "log_domain"),
        "o_regularly_varying": phi.o_regularly_varying,
    }
    return verdicts, stats, {}


def _mode_envelope(cfg, kernel, forcing, x, scale):
    report = envelope_sums(cfg.tail, scale.a, cfg["k_grid"])
    verdicts = {"crossing_bracketed": report.crossing is not None}
    expected = cfg.get("expected_crossing")
    if expected is not None:
        bracket = report.bracket
        verdicts["expected_crossing_bracketed"] = bool(
            bracket is not None and bracket[0] <= expected <= bracket[1]
        )
    stats = {
        "k_grid": [float(k) for k in report.k_grid],
        "verdicts_per_k": list(report.verdicts),
        "slopes": [float(s) for s in report.slopes],
        "crossing": report.crossing,
        "final_partial_sums": [float(v) for v in report.partial_sums[:, -1]],
    }
    series = {
        f"partial_sums_K_{k:g}": Trajectory(report.partial_sums[i], start=report.start_index)
        for i, k in enumerate(report.k_grid)
    }
    return verdicts, stats, series


def _mode_ensemble(cfg, kernel, forcing, x, scale):
    system = EnsembleSpec(kernel, cfg.forcing, cfg["horizon"], xi=cfg["xi"],
                          log_domain=cfg["log_domain"], scaling=scale)
    statistic = cfg.statistic
    result = ensemble_verify(system, cfg["paths"], statistic)
    min_fraction = cfg["tolerances"]["min_pass_fraction"]
    verdicts = {"pass_fraction_met": bool(result.pass_fraction >= min_fraction)}
    stats = {
        **_fields(result, "pass_fraction", "median", "failures"),
        "statistic": statistic.name,
        "series": statistic.series,
        "band": list(statistic.band),
        "paths": cfg["paths"],
        "min_pass_fraction": min_fraction,
    }
    finite = [v for v in result.per_path if np.isfinite(v)]
    series = {}
    if finite:
        # ranked statistics of the surviving paths; failures are counted above
        series["per_path_sorted"] = Trajectory(np.asarray(finite), start=0)
    return verdicts, stats, series


def _mode_verify_nonlinear(cfg, kernel, forcing, y, scale):
    f = cfg.nonlinearity
    x_nl = solve_nonlinear(cfg.kernel, f, forcing, cfg["xi"], y.end)
    diff = Trajectory(np.abs(x_nl.values - y.values), start=0)
    est_diff, est_H, est_x = _limsups(scale, diff, forcing, x_nl)
    maxima = [float(v) for v in est_diff.block_maxima]
    floor = 1e-13
    clamped = [max(v, floor) for v in maxima[-3:]]
    lam_x, predicted, rep_residual = _representation(kernel, scale, x_nl,
                                                     ratio_series(forcing, scale.a))
    verdicts = {
        "classification_agreement": est_x.classification == est_H.classification,
        "difference_decay": len(clamped) == 3 and clamped[0] >= clamped[1] >= clamped[2],
        "final_block_bound": maxima[-1] < cfg["tolerances"]["final_block_max"],
        "representation_residual":
            bool(rep_residual < cfg["tolerances"]["representation_residual"]),
    }
    stats = {
        "nonlinearity": f.name,
        "linear_at_infinity": f.ratio_limit == 1.0,
        "ratio_limit": f.ratio_limit,
        "difference_block_maxima": maxima,
        "final_block_max": maxima[-1],
        "representation_residual_sup": rep_residual,
        "classification_x": est_x.classification,
        "classification_H": est_H.classification,
        "tolerances": cfg["tolerances"],
    }
    series = {
        "difference_over_a": ratio_series(diff, scale.a),
        "x_over_a": lam_x,
        "x_over_a_predicted": predicted,
    }
    return verdicts, stats, series


# each mode's check is the function _mode_<mode>, "-" spelt "_"
_HANDLERS = {mode: globals()["_mode_" + mode.replace("-", "_")] for mode in MODES}


# --------------------------------------------------------------------------
# runner
# --------------------------------------------------------------------------

# one evidence file: the documented ``n,value`` layout as field names
_SERIES_DTYPE = np.dtype([("n", "<i8"), ("value", "<f8")])


def _write_series(out_dir: Path, name: str, series) -> dict:
    """One ``.npy`` file per named series, a ``_SERIES_DTYPE`` array.

    Log-form trajectories are exported as two named series, sign and log
    magnitude, so the ``n,value`` contract holds for every file.  Values
    are stored bit for bit, signed zeros and non-finite values included.
    A file is its header and then its rows, filled ``_CHUNK`` at a time
    in one reused buffer: its bytes are those ``np.save`` writes for the
    whole array.
    """
    if isinstance(series, LogTrajectory):
        columns = {f"{name}_sign": series.sign, f"{name}_logabs": series.log_abs}
    else:
        columns = {name: series.values}
    n = series.indices()
    header = {"descr": np.lib.format.dtype_to_descr(_SERIES_DTYPE),
              "fortran_order": False, "shape": (len(n),)}
    rows = np.empty(min(len(n), _CHUNK), dtype=_SERIES_DTYPE)
    written = {}
    for key, values in columns.items():
        written[key] = f"{key}.npy"
        with open(out_dir / written[key], "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, header)
            for lo in range(0, len(n), _CHUNK):
                piece = rows[: min(_CHUNK, len(n) - lo)]
                piece["n"] = n[lo : lo + _CHUNK]
                piece["value"] = values[lo : lo + _CHUNK]
                fh.write(piece)
    return written


def run_experiment(config: ExperimentConfig, out_dir=None) -> Report:
    """Dispatch one validated config and assemble its report.

    Evidence series are written as ``.npy`` files only when ``out_dir`` is
    given; the report's ``series`` section maps series names to the files
    written.
    """
    started = time.perf_counter()
    verdicts, statistics, series = _HANDLERS[config.mode](config, *_solve_system(config))
    series_index = {}
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, obj in series.items():
            series_index.update(_write_series(out_dir, name, obj))
    return Report(
        mode=config.mode,
        config=config.data,
        verdicts=verdicts,
        statistics=statistics,
        series=series_index,
        wall_clock_s=time.perf_counter() - started,
        version=__version__,
    )


# --------------------------------------------------------------------------
# command line front end
# --------------------------------------------------------------------------

def _print_catalogue():
    print("kernels:")
    print("  zero                         {'name': 'zero'}")
    print("  geometric                    {'name': 'geometric', 'c': .., 'ratio': .., 'size': ..}")
    print("  explicit                     {'coefficients': [..]}")
    print("growth catalogue (scaling models and deterministic forcing):")
    for name, alias in catalogue_names():
        print(f"  {alias:<6} {name}")
    for label, names in (
        ("forcing kinds", _FORCING_KEYS),
        ("modulation factors", _FACTORS),
        ("tail families", _TAIL_FAMILIES),
        ("nonlinearities", _NONLINEARITIES),
        ("phi functionals", _PHIS),
        ("ensemble statistics", STATISTICS),
        ("modes", MODES),
    ):
        print(f"{label}: " + " | ".join(names))


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1: exit code 2 means a check failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="volterra-lab",
        description="numerical laboratory for forced convolution recursions",
    )
    parser.add_argument("mode", nargs="?", choices=MODES, help="experiment mode")
    parser.add_argument("--config", type=Path, help="path to the experiment JSON")
    parser.add_argument("--out", type=Path, default=Path("volterra_lab_out"),
                        help="output directory (default: %(default)s)")
    parser.add_argument(
        "--list-catalogue", action="store_true",
        help="print built-in kernels, growth sequences, tails, and modes",
    )
    args = parser.parse_args(argv)

    if args.list_catalogue:
        _print_catalogue()
        return 0
    if not args.mode or not args.config:
        parser.error("mode and --config are required (or use --list-catalogue)")

    try:
        raw = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as err:  # ValueError: invalid JSON or not UTF-8
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 1
    if not isinstance(raw, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return 1

    raw["mode"] = args.mode
    try:
        config = ExperimentConfig.from_dict(raw)
        report = run_experiment(config, out_dir=args.out)
        report_path = args.out / "report.json"
        report_path.write_text(report.to_json())
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (VolterraLabError, MemoryError) as err:  # MemoryError: a horizon past memory
        print(f"error ({type(err).__name__}): {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return 1
    for name, ok in report.verdicts.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    print(f"report: {report_path}")
    return 0 if report.passed else 2


if __name__ == "__main__":
    sys.exit(main())
