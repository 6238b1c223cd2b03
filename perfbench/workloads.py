"""Workload definitions: experiment configs generated from a workload seed.

A workload is a list of experiments, each a CLI mode plus the JSON config
the CLI reads.  The program under test only ever sees these configs; the
workload seed lives here and reaches the program as per-config ``seed``
fields (and, for deterministic forcing, as the initial value ``xi``).

``scale`` shrinks every horizon and path count for the harness self-test;
the benchmark itself always runs at ``scale=1``.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("ensemble_plain", "log_growth", "cli_sweep")

# Command-line seeds map onto this many workload seeds, each with recorded
# reference outputs.  Seed 0 is the default, seed 1 the held-out one.
RECORDED_SEEDS = 8

_GEOMETRIC_M40 = {"name": "geometric", "c": 0.3, "ratio": 0.5, "size": 40}
_GEOMETRIC_HALF = {"name": "geometric", "params": {"lam": 0.5}}
_M1 = {"coefficients": [0.5]}
_NORMAL = {"family": "normal", "sigma": 1.0}


def _sized(n, scale, floor):
    return max(floor, int(round(n * scale)))


def _ensemble_plain(rng, scale):
    return [("ensemble", {
        "horizon": _sized(12_500, scale, 200),
        "paths": _sized(16, scale, 2),
        "seed": rng.randrange(2**31),
        "kernel": dict(_GEOMETRIC_M40),
        "forcing": {"kind": "iid",
                    "tail": {"family": "symmetric_power", "alpha": 2.0,
                             "c1": 0.5, "c2": 0.5}},
        "statistic": {"name": "log_log_exponent", "band": [0.4, 0.6]},
    })]


def _log_growth(rng, scale):
    xi = round(rng.uniform(0.5, 2.0), 6)
    return [
        ("verify-growth2", {
            "horizon": _sized(20_000, scale, 200), "log_domain": True, "xi": xi,
            "kernel": dict(_GEOMETRIC_M40),
            "forcing": {"kind": "deterministic", "name": "factorial", "params": {}},
        }),
        ("verify-growth2", {
            "horizon": _sized(10_000, scale, 200), "log_domain": True, "xi": xi,
            "kernel": dict(_GEOMETRIC_M40),
            "forcing": {"kind": "deterministic", "name": "geometric",
                        "params": {"lam": 0.5}},
        }),
    ]


def _cli_sweep(rng, scale):
    def seed():
        return rng.randrange(2**31)

    profile = [1.0 + 0.3 * math.sin(2 * math.pi * m / 7.0) for m in range(7)]
    lam = math.exp(-0.3)
    return [
        ("spectrum", {
            "kernel": dict(_GEOMETRIC_M40),
            "lambda_grid": [i / 20 for i in range(21)],
        }),
        ("classify", {
            "horizon": _sized(5_000, scale, 200), "log_domain": True, "seed": seed(),
            "kernel": dict(_M1),
            "forcing": {"kind": "modulated", "base": dict(_GEOMETRIC_HALF),
                        "factor": {"kind": "iid_uniform", "low": 0.5, "high": 1.5}},
            "scaling": dict(_GEOMETRIC_HALF),
        }),
        ("verify-growth2", {
            "horizon": _sized(2_000, scale, 200), "log_domain": True,
            "kernel": dict(_GEOMETRIC_M40),
            "forcing": {"kind": "deterministic", "name": "geometric",
                        "params": {"lam": 0.5}},
        }),
        ("verify-growth3", {
            "horizon": _sized(1_000, scale, 200), "seed": seed(),
            "kernel": {"name": "geometric", "c": 0.3, "ratio": 0.5, "size": 10},
            "forcing": {"kind": "modulated", "base": dict(_GEOMETRIC_HALF),
                        "factor": {"kind": "iid_uniform", "low": 0.5, "high": 1.5}},
            "scaling": dict(_GEOMETRIC_HALF),
        }),
        ("verify-periodic", {
            "horizon": _sized(2_000, scale, 600), "expected_period": 7,
            "kernel": {"coefficients": [0.4]},
            "forcing": {"kind": "modulated",
                        "base": {"name": "geometric", "params": {"lam": lam}},
                        "factor": {"kind": "periodic", "profile": profile}},
            "scaling": {"name": "geometric", "params": {"lam": lam}},
        }),
        ("verify-ergodic", {
            "horizon": _sized(50_000, scale, 500), "log_domain": True, "seed": seed(),
            "kernel": dict(_M1),
            "forcing": {"kind": "modulated", "base": dict(_GEOMETRIC_HALF),
                        "factor": {"kind": "iid_uniform", "low": 0.0, "high": 1.0}},
            "scaling": dict(_GEOMETRIC_HALF),
            "tolerances": {"limit_abs_error": 0.02},
        }),
        ("verify-fluct", {
            "horizon": _sized(50_000, scale, 500), "seed": seed(),
            "kernel": dict(_M1),
            "forcing": {"kind": "iid", "tail": dict(_NORMAL)},
            "scaling": {"name": "sqrt_log", "params": {}},
        }),
        ("verify-phi", {
            "horizon": _sized(50_000, scale, 500), "seed": seed(),
            "kernel": dict(_M1),
            "forcing": {"kind": "iid", "tail": dict(_NORMAL)},
            "phi": {"name": "power", "params": {"p": 2.0}},
        }),
        ("envelope", {
            "horizon": _sized(100_000, scale, 500), "expected_crossing": 1.0,
            "tail": dict(_NORMAL),
            "scaling": {"name": "sqrt_log", "params": {}},
            "k_grid": [0.8, 0.9, 1.0, 1.1, 1.2],
        }),
        ("verify-nonlinear", {
            "horizon": _sized(20_000, scale, 500),
            "kernel": dict(_M1),
            "forcing": {"kind": "deterministic", "name": "power", "params": {"theta": 1.0}},
            "scaling": {"name": "power", "params": {"theta": 1.0}},
            "nonlinearity": {"name": "bounded_offset"},
        }),
        ("ensemble", {
            "horizon": _sized(5_000, scale, 200), "paths": _sized(20, scale, 2),
            "seed": seed(),
            "kernel": dict(_M1),
            "forcing": {"kind": "iid", "tail": dict(_NORMAL)},
            "statistic": {"name": "phi_average", "band": [0.5, 3.0]},
        }),
    ]


_BUILDERS = {
    "ensemble_plain": _ensemble_plain,
    "log_growth": _log_growth,
    "cli_sweep": _cli_sweep,
}


def workload_seed(seed: int) -> int:
    """The recorded workload seed that ``--seed`` selects."""
    return seed % RECORDED_SEEDS


def build(workload: str, seed: int, scale: float = 1.0) -> list:
    """Experiments of ``workload`` for workload seed ``seed``.

    Returns a list of ``{"mode", "config", "steps"}`` where ``steps`` is
    horizon times paths, the stated input size behind ``steps_per_s``.
    """
    rng = random.Random(f"{workload}/{seed}")
    experiments = []
    for mode, config in _BUILDERS[workload](rng, scale):
        steps = config.get("horizon", 0) * config.get("paths", 1)
        experiments.append({"mode": mode, "config": config, "steps": steps})
    return experiments
