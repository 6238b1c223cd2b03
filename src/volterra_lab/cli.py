"""Experiment orchestration: config in, verdicts plus plot-ready CSVs out.

Usage:

    volterra-lab <mode> --config experiment.json [--seed N] [--out DIR]
    volterra-lab --list-catalogue

Exit codes: 0 when the run completed and every declared check passed,
2 when the run completed but some check failed (the report says which),
1 on execution or configuration errors.  A failed verification is data,
not a crash.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import (
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
from .config import MODES, ExperimentConfig, Report
from .core import resolvent, solve_linear, solve_nonlinear
from .exceptions import ConfigError, VolterraLabError
from .growth_catalogue import catalogue_names
from .series import LogTrajectory, Trajectory, overlap_range, ratio_series
from .spectral import (
    SingularMultiplierError,
    characteristic_roots,
    kappa,
    multiplier_L,
)
from .stochastic import EnsembleSpec, STATISTICS, ensemble_verify, envelope_sums, generate

OUT_DIR_ENV = "VOLTERRA_LAB_OUT"

logger = logging.getLogger(__name__)


# --------------------------------------------------------------------------
# shared pieces
# --------------------------------------------------------------------------

def _solve_system(cfg: ExperimentConfig):
    horizon = cfg["horizon"]
    log_domain = cfg["log_domain"]
    forcing = generate(cfg.forcing, horizon, log_domain=log_domain)
    x = solve_linear(cfg.kernel, forcing, cfg["xi"], horizon, log_domain=log_domain)
    return cfg.kernel, forcing, x


def _scale(cfg: ExperimentConfig, log_domain: bool) -> ScalingModel:
    return ScalingModel.from_entry(cfg.scaling, cfg["horizon"], log_domain=log_domain)


# --------------------------------------------------------------------------
# mode handlers: each returns (verdicts, statistics, series)
# --------------------------------------------------------------------------

def _mode_solve(cfg):
    kernel, forcing, x = _solve_system(cfg)
    stats = {"horizon": cfg["horizon"], "l1_norm": kernel.l1_norm}
    if isinstance(x, LogTrajectory):
        stats["final_log_abs"] = float(x.log_abs[-1])
        stats["final_sign"] = float(x.sign[-1])
    else:
        stats["final_value"] = float(x.values[-1])
    return {"completed": True}, stats, {"x": x, "forcing": forcing}


def _mode_spectrum(cfg):
    kernel = cfg.kernel
    report = characteristic_roots(kernel)
    grid = cfg["lambda_grid"]
    kappas, multipliers = [], []
    for lam in grid:
        kappas.append(kappa(kernel, lam))
        try:
            multipliers.append(multiplier_L(kernel, lam))
        except SingularMultiplierError:
            multipliers.append(None)
    stats = {
        "max_modulus": report.max_modulus,
        "verdict": report.verdict,
        "summable": report.summable,
        "tail_caveat": report.tail_caveat,
        "roots": [[float(z.real), float(z.imag)] for z in report.roots],
        "lambda_grid": list(grid),
        "kappa": kappas,
        "multiplier": multipliers,
    }
    return {"completed": True}, stats, {}


def _mode_classify(cfg):
    horizon = cfg["horizon"]
    log_domain = cfg["log_domain"]
    forcing = generate(cfg.forcing, horizon, log_domain=log_domain)
    scale = _scale(cfg, log_domain)
    lam_hat, converged = estimate_lambda(forcing)
    est = estimate_limsup(forcing, scale, cfg.thresholds)
    stats = {
        "lambda_hat": lam_hat,
        "lambda_converged": converged,
        "forcing_limsup": est.value,
        "forcing_classification": est.classification,
        "block_maxima": [float(v) for v in est.block_maxima],
    }
    series = {"forcing": forcing}
    if cfg.kernel is not None:
        x = solve_linear(cfg.kernel, forcing, cfg["xi"], horizon, log_domain=log_domain)
        est_x = estimate_limsup(x, scale, cfg.thresholds)
        stats["solution_limsup"] = est_x.value
        stats["solution_classification"] = est_x.classification
        series["x"] = x
    return {"completed": True}, stats, series


def _mode_verify_growth2(cfg):
    horizon = cfg["horizon"]
    log_domain = cfg["log_domain"]
    forcing = generate(cfg.forcing, horizon, log_domain=log_domain)
    scale = _scale(cfg, log_domain) if cfg.scaling is not None else None
    result = verify_growth2(
        cfg.kernel, forcing, xi=cfg["xi"], horizon=horizon, scale=scale, log_domain=log_domain
    )
    tol = cfg["tolerances"]["residual"]
    verdicts = {"residual_within_tolerance": bool(result.residual < tol)}
    stats = {
        "L_empirical": result.L_empirical,
        "L_theory": result.L_theory,
        "residual": result.residual,
        "tolerance": tol,
        "lambda_hat": result.lambda_hat,
        "lambda_used": result.lambda_used,
        "lambda_converged": result.lambda_converged,
        "summable": result.summable,
    }
    return verdicts, stats, {"ratio_x_over_H": result.ratio}


def _mode_verify_growth3(cfg):
    kernel, forcing, x = _solve_system(cfg)
    scale = _scale(cfg, cfg["log_domain"])
    lam_H = ratio_series(forcing, scale.a)
    lam_x = ratio_series(x, scale.a)
    predicted_x = predict_x_over_a(kernel, scale.lam, lam_H)
    predicted_H = predict_H_over_a(kernel, scale.lam, lam_x)
    rep_residual = residual_tail_sup(lam_x, predicted_x)
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
    residual = Trajectory(
        lam_x.window(lo, hi).values - predicted_x.window(lo, hi).values, start=lo
    )
    series = {
        "x_over_a": lam_x,
        "x_over_a_predicted": predicted_x,
        "representation_residual": residual,
        "H_over_a": lam_H,
        "H_over_a_predicted": predicted_H,
    }
    return verdicts, stats, series


def _mode_verify_periodic(cfg):
    kernel, forcing, x = _solve_system(cfg)
    scale = _scale(cfg, cfg["log_domain"])
    lam_H = ratio_series(forcing, scale.a)
    lam_x = ratio_series(x, scale.a)
    hint = cfg.get("period_hint")
    extraction_H = extract_almost_periodic(lam_H, period_hint=hint)
    extraction_x = extract_almost_periodic(lam_x)
    predicted = predict_x_over_a(kernel, scale.lam, extraction_H.pi)
    rep_residual = residual_tail_sup(lam_x, predicted)
    tol = cfg["tolerances"]["representation_residual"]
    expected = cfg.get("expected_period")
    if expected is not None:
        period_ok = extraction_x.period == expected
    else:
        period_ok = extraction_x.period > 0
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


def _mode_verify_ergodic(cfg):
    kernel, forcing, x = _solve_system(cfg)
    scale = _scale(cfg, cfg["log_domain"])
    spectrum = characteristic_roots(kernel)
    if not spectrum.summable:
        logger.warning("kernel resolvent verdict is %s; the time-average limit may not exist",
                       spectrum.verdict)
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


def _mode_verify_fluct(cfg):
    kernel, forcing, x = _solve_system(cfg)
    scale = _scale(cfg, cfg["log_domain"])
    est_H = estimate_limsup(forcing, scale, cfg.thresholds)
    est_x = estimate_limsup(x, scale, cfg.thresholds)
    r = resolvent(kernel, cfg["horizon"])
    r_l1 = float(np.sum(np.abs(r.values)))
    k_l1 = kernel.l1_norm
    slack = cfg["tolerances"]["bound_slack"]
    verdicts = {
        "solution_bounded_by_forcing": bool(
            est_x.value <= (1.0 + slack) * r_l1 * est_H.value
        ),
        "forcing_bounded_by_solution": bool(
            est_H.value <= (1.0 + slack) * (1.0 + k_l1) * est_x.value
        ),
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


def _mode_verify_phi(cfg):
    kernel, forcing, x = _solve_system(cfg)
    phi = cfg.phi
    phi.validate()
    report = phi_average_bounds(
        kernel, x, forcing, phi, slack=cfg["tolerances"]["bound_slack"]
    )
    verdicts = {"primal_bound": report.holds, "dual_bound": report.dual_holds}
    stats = {
        "lhs": report.lhs,
        "rhs": report.rhs,
        "dual_lhs": report.dual_lhs,
        "dual_rhs": report.dual_rhs,
        "r_l1": report.r_l1,
        "k_l1": report.k_l1,
        "log_domain": report.log_domain,
        "o_regularly_varying": phi.o_regularly_varying,
    }
    return verdicts, stats, {}


def _mode_envelope(cfg):
    scale = _scale(cfg, log_domain=False)
    report = envelope_sums(cfg.tail, scale.a, cfg["k_grid"])
    verdicts = {"crossing_bracketed": report.crossing is not None}
    expected = cfg.get("expected_crossing")
    if expected is not None:
        divergent = [k for k, v in zip(report.k_grid, report.verdicts) if v == "divergent"]
        convergent = [k for k, v in zip(report.k_grid, report.verdicts) if v == "convergent"]
        ok = bool(
            divergent
            and convergent
            and max(divergent) <= expected <= min(convergent)
        )
        verdicts["expected_crossing_bracketed"] = ok
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


def _mode_ensemble(cfg):
    system = EnsembleSpec(
        kernel=cfg.kernel,
        forcing=cfg.forcing,
        horizon=cfg["horizon"],
        xi=cfg["xi"],
        log_domain=cfg["log_domain"],
        scaling=_scale(cfg, cfg["log_domain"]) if cfg.scaling is not None else None,
        thresholds=cfg.thresholds,
    )
    statistic = cfg.statistic
    result = ensemble_verify(system, cfg["paths"], statistic)
    min_fraction = cfg["tolerances"]["min_pass_fraction"]
    verdicts = {"pass_fraction_met": bool(result.pass_fraction >= min_fraction)}
    stats = {
        "statistic": statistic.name,
        "series": statistic.series,
        "band": list(statistic.band),
        "paths": cfg["paths"],
        "pass_fraction": result.pass_fraction,
        "median": result.median,
        "failures": result.failures,
        "min_pass_fraction": min_fraction,
    }
    finite = [v for v in result.per_path if np.isfinite(v)]
    series = {}
    if finite:
        # ranked statistics of the surviving paths; failures are counted above
        series["per_path_sorted"] = Trajectory(np.asarray(finite), start=0)
    return verdicts, stats, series


def _mode_verify_nonlinear(cfg):
    kernel = cfg.kernel
    horizon = cfg["horizon"]
    forcing = generate(cfg.forcing, horizon, log_domain=False)
    f = cfg.nonlinearity
    f.validate()
    scale = _scale(cfg, log_domain=False)
    x_nl = solve_nonlinear(kernel, f, forcing, cfg["xi"], horizon)
    y = solve_linear(kernel, forcing, cfg["xi"], horizon)
    diff = Trajectory(np.abs(x_nl.values - y.values), start=0)
    diff_ratio = ratio_series(diff, scale.a)
    maxima = [float(v) for v in estimate_limsup(diff, scale, cfg.thresholds).block_maxima]
    floor = 1e-13
    clamped = [max(v, floor) for v in maxima[-3:]]
    decay_ok = len(clamped) == 3 and clamped[0] >= clamped[1] >= clamped[2]
    final_ok = maxima[-1] < cfg["tolerances"]["final_block_max"]
    lam_H = ratio_series(forcing, scale.a)
    lam_x = ratio_series(x_nl, scale.a)
    predicted = predict_x_over_a(kernel, scale.lam, lam_H)
    rep_residual = residual_tail_sup(lam_x, predicted)
    rep_ok = rep_residual < cfg["tolerances"]["representation_residual"]
    est_H = estimate_limsup(forcing, scale, cfg.thresholds)
    est_x = estimate_limsup(x_nl, scale, cfg.thresholds)
    verdicts = {"classification_agreement": est_x.classification == est_H.classification}
    if f.linear_at_infinity:
        verdicts["difference_decay"] = bool(decay_ok)
        verdicts["final_block_bound"] = bool(final_ok)
        verdicts["representation_residual"] = bool(rep_ok)
    stats = {
        "nonlinearity": f.name,
        "linear_at_infinity": f.linear_at_infinity,
        "ratio_limit": f.ratio_limit,
        "difference_block_maxima": maxima,
        "final_block_max": maxima[-1],
        "representation_residual_sup": rep_residual,
        "classification_x": est_x.classification,
        "classification_H": est_H.classification,
        "tolerances": cfg["tolerances"],
    }
    series = {
        "difference_over_a": diff_ratio,
        "x_over_a": lam_x,
        "x_over_a_predicted": predicted,
    }
    return verdicts, stats, series


_HANDLERS = {
    "solve": _mode_solve,
    "spectrum": _mode_spectrum,
    "classify": _mode_classify,
    "verify-growth2": _mode_verify_growth2,
    "verify-growth3": _mode_verify_growth3,
    "verify-periodic": _mode_verify_periodic,
    "verify-ergodic": _mode_verify_ergodic,
    "verify-fluct": _mode_verify_fluct,
    "verify-phi": _mode_verify_phi,
    "envelope": _mode_envelope,
    "ensemble": _mode_ensemble,
    "verify-nonlinear": _mode_verify_nonlinear,
}


# --------------------------------------------------------------------------
# runner
# --------------------------------------------------------------------------

def _write_series(out_dir: Path, name: str, series) -> dict:
    """One CSV per named series, header ``n,value``.

    Log-form trajectories are exported as two named series, sign and log
    magnitude, so the ``n,value`` contract holds for every file.
    """
    written = {}
    if isinstance(series, LogTrajectory):
        for suffix, values in (("sign", series.sign), ("logabs", series.log_abs)):
            fname = f"{name}_{suffix}.csv"
            _dump_csv(out_dir / fname, series.indices(), values)
            written[f"{name}_{suffix}"] = fname
        return written
    fname = f"{name}.csv"
    _dump_csv(out_dir / fname, series.indices(), series.values)
    written[name] = fname
    return written


# rows formatted and written per call; whole files at once would cost memory
_CSV_ROWS = 4096


def _dump_csv(path: Path, indices, values) -> None:
    """Rows ``n,repr(float(value))`` under the header ``n,value``."""
    indices = np.asarray(indices)
    values = np.asarray(values, dtype=np.float64)
    with open(path, "w") as fh:
        fh.write("n,value\n")
        for lo in range(0, len(values), _CSV_ROWS):
            rows = zip(indices[lo : lo + _CSV_ROWS].tolist(),
                       values[lo : lo + _CSV_ROWS].tolist())
            fh.write("".join([f"{n},{v!r}\n" for n, v in rows]))


def run_experiment(config: ExperimentConfig, out_dir=None) -> Report:
    """Dispatch one validated config and assemble its report.

    CSV series are written only when ``out_dir`` is given; the report's
    ``series`` section maps series names to the files written.
    """
    started = time.perf_counter()
    verdicts, statistics, series = _HANDLERS[config.mode](config)
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
    print("  explicit                     {'coefficients': [..], 'tail_bound': 0.0}")
    print("growth catalogue (scaling models and deterministic forcing):")
    for name, alias in catalogue_names():
        print(f"  {alias:<6} {name}")
    print("forcing kinds: iid | random_walk_drift | geometric_random_walk | "
          "deterministic | modulated")
    print("modulation factors: iid_uniform | periodic | sinusoid")
    print("tail families: normal | symmetric_power | weibull_symmetric | "
          "uniform | custom_quantile (library only)")
    print("nonlinearities: identity | bounded_offset | sqrt_offset | solow")
    print("phi functionals: power | exp | hinge")
    print("ensemble statistics: " + " | ".join(STATISTICS))
    print("modes: " + " | ".join(MODES))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="volterra-lab",
        description="numerical laboratory for forced convolution recursions",
    )
    parser.add_argument("mode", nargs="?", choices=MODES, help="experiment mode")
    parser.add_argument("--config", type=Path, help="path to the experiment JSON")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
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
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 1
    if not isinstance(raw, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return 1

    raw["mode"] = args.mode
    if args.seed is not None:
        raw["seed"] = args.seed

    try:
        config = ExperimentConfig.from_dict(raw)
        out_dir = (args.out or os.environ.get(OUT_DIR_ENV) or config.get("out_dir")
                   or "volterra_lab_out")
        report = run_experiment(config, out_dir=out_dir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except VolterraLabError as err:
        print(f"error ({type(err).__name__}): {err}", file=sys.stderr)
        return 1

    report_path = Path(out_dir) / "report.json"
    report_path.write_text(report.to_json())
    for name, ok in report.verdicts.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    print(f"report: {report_path}")
    return 0 if report.passed else 2


if __name__ == "__main__":
    sys.exit(main())
