"""Acceptance criteria, one test per criterion, tolerances pinned here.

Each test prints a single pass/fail line (visible under ``pytest -s``)
before asserting, so a full run doubles as a human-readable scorecard.
Stochastic criteria run on pre-registered master seeds; identical seeds
reproduce identical numbers, so these are deterministic checks.
"""

import math
import time

import numpy as np

from volterra_lab.asymptotics import (
    ScalingModel,
    estimate_limsup,
    extract_almost_periodic,
    predict_H_over_a,
    predict_x_over_a,
    verify_growth2,
)
from volterra_lab.core import (
    Kernel,
    make_nonlinearity,
    resolvent,
    solve_by_representation,
    solve_linear,
    solve_nonlinear,
)
from volterra_lab.growth_catalogue import catalogue_entry
from volterra_lab.series import Trajectory, dyadic_blocks, ratio_series
from volterra_lab.spectral import multiplier_L
from volterra_lab.stochastic import (
    EnsembleSpec,
    ForcingGenerator,
    StatisticSpec,
    classify_tail,
    ensemble_verify,
    envelope_sums,
    forcing_entry,
    generate,
    make_factor,
    make_tail_model,
)


def _report(num, name, ok, detail):
    print(f"[acceptance] criterion {num:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _random_summable_kernel(rng):
    # small support keeps the resolvent decay fast enough that 2000-term
    # partial sums settle below the pinned tolerances
    m = int(rng.integers(1, 5))
    weights = rng.dirichlet(np.ones(m)) * rng.uniform(0.05, 0.94)
    return Kernel(weights * rng.choice([-1.0, 1.0], size=m))


def test_criterion_01_solver_equivalence():
    rng = np.random.Generator(np.random.Philox(20268101))
    horizon = 2000
    worst = 0.0
    started = time.perf_counter()
    for _ in range(200):
        k = _random_summable_kernel(rng)
        H = Trajectory(np.concatenate(([0.0], rng.uniform(-1.0, 1.0, horizon))))
        xi = float(rng.uniform(-2.0, 2.0))
        x1 = solve_linear(k, H, xi, horizon)
        x2 = solve_by_representation(k, H, xi, horizon)
        # scale-aware relative gap: values of order one or larger compare
        # relatively, values below one compare absolutely
        gap = np.max(np.abs(x1.values - x2.values) / np.maximum(np.abs(x1.values), 1.0))
        worst = max(worst, float(gap))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 30.0
    _report(1, "solver equivalence", ok,
            f"worst relative gap {worst:.3e} (tol 1e-10), runtime {elapsed:.2f}s (cap 30s)")


def test_criterion_02_resolvent_identity():
    rng = np.random.Generator(np.random.Philox(20268102))
    horizon = 2000
    powers = np.arange(horizon + 1)
    worst = 0.0
    for _ in range(200):
        k = _random_summable_kernel(rng)
        r = resolvent(k, horizon)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            weighted = float(np.sum(r.values * lam ** powers))
            worst = max(worst, abs(weighted - multiplier_L(k, lam)))
    ok = worst < 1e-8
    _report(2, "resolvent identity", ok, f"worst gap {worst:.3e} (tol 1e-8)")


def test_criterion_03_ratio_limit_constants():
    kernel = Kernel.geometric(0.3, 0.5, 40)
    # geometric forcing: limit 1.25 by n = 200
    H = generate(ForcingGenerator(kind="deterministic",
                                  entry=forcing_entry("geometric", lam=0.5)),
                 200, log_domain=True)
    res = verify_growth2(kernel, solve_linear(kernel, H, 1.0, 200), H)
    final_ratio_gap = abs(res.ratio.value(200) - 1.25)
    geo_ok = res.residual < 1e-6 and abs(res.L_empirical - 1.25) < 1e-6 and final_ratio_gap < 1e-6
    # factorial forcing: ratio limit collapses to 1
    Hf = generate(ForcingGenerator(kind="deterministic", entry=forcing_entry("factorial")),
                  800_000, log_domain=True)
    resf = verify_growth2(kernel, solve_linear(kernel, Hf, 1.0, 800_000), Hf)
    fac_ok = resf.residual < 1e-6 and abs(resf.L_empirical - 1.0) < 1e-6
    ok = geo_ok and fac_ok
    _report(3, "ratio limit constants", ok,
            f"geometric residual {res.residual:.2e}, ratio(200) gap {final_ratio_gap:.2e}; "
            f"factorial |L-1| {abs(resf.L_empirical - 1.0):.2e} (tol 1e-6)")


def test_criterion_04_representation_at_scale():
    horizon = 300
    kernel = Kernel.geometric(0.3, 0.5, 40)
    gen = ForcingGenerator(kind="modulated",
                           entry=forcing_entry("geometric", lam=0.5),
                           factor=make_factor("periodic", profile=[1.25, 0.75]))
    H = generate(gen, horizon)
    scale = ScalingModel.from_entry(catalogue_entry("geometric", lam=0.5), horizon)
    x = solve_linear(kernel, H, 1.0, horizon)
    lam_H = ratio_series(H, scale.a)
    lam_x = ratio_series(x, scale.a)
    predicted = predict_x_over_a(kernel, 0.5, lam_H)
    rep_sup = float(np.max(np.abs(
        (lam_x.values - predicted.values)[-(horizon // 4):]
    )))
    recovered = predict_H_over_a(kernel, 0.5, lam_x)
    rec_sup = float(np.max(np.abs(
        (lam_H.values - recovered.values)[-(horizon // 4):]
    )))
    ok = rep_sup < 1e-4 and rec_sup < 1e-4
    _report(4, "representation at scale", ok,
            f"representation sup {rep_sup:.2e}, recovery sup {rec_sup:.2e} (tol 1e-4)")


def test_criterion_05_periodic_modulation():
    horizon = 600
    alpha = 0.3
    lam = math.exp(-alpha)
    profile = [1.0 + 0.3 * math.sin(2 * math.pi * m / 7.0) for m in range(7)]
    kernel = Kernel([0.4])
    gen = ForcingGenerator(kind="modulated",
                           entry=forcing_entry("geometric", lam=lam),
                           factor=make_factor("periodic", profile=profile))
    H = generate(gen, horizon)
    scale = ScalingModel.from_entry(catalogue_entry("geometric", lam=lam), horizon)
    x = solve_linear(kernel, H, 1.0, horizon)
    lam_x = ratio_series(x, scale.a)
    lam_H = ratio_series(H, scale.a)
    extraction = extract_almost_periodic(lam_x)
    pi_H = extract_almost_periodic(lam_H).pi
    predicted = predict_x_over_a(kernel, lam, pi_H)
    tail = slice(-(horizon // 4), None)
    rep_sup = float(np.max(np.abs(lam_x.values[tail] - predicted.values[tail])))
    ok = extraction.period == 7 and rep_sup < 1e-3
    _report(5, "periodic modulation", ok,
            f"extracted period {extraction.period} (want 7), residual {rep_sup:.2e} (tol 1e-3)")


def test_criterion_06_stationary_time_average():
    scale = ScalingModel.from_entry(catalogue_entry("geometric", lam=0.5), 100_000, log_domain=True)
    system = EnsembleSpec(
        kernel=Kernel([0.5]),
        forcing=ForcingGenerator(kind="modulated", seed=424242,
                                 entry=forcing_entry("geometric", lam=0.5),
                                 factor=make_factor("iid_uniform", low=0.0, high=1.0)),
        horizon=100_000, log_domain=True, scaling=scale,
    )
    target = 2.0 / 3.0
    stat = StatisticSpec(name="cesaro_limit", band=(target - 0.01, target + 0.01))
    result = ensemble_verify(system, 20, stat)
    ok = result.pass_fraction >= 0.9
    _report(6, "stationary time average", ok,
            f"pass fraction {result.pass_fraction:.2f} (need 0.90), "
            f"median {result.median:.5f} (target {target:.5f})")


def test_criterion_07_fluctuation_dichotomy():
    horizon = 100_000
    kernel = Kernel([0.5])
    scale = ScalingModel.from_entry(catalogue_entry("power", theta=1.0), horizon)
    idx = np.arange(1, horizon + 1, dtype=float)
    families = {
        "zero": np.log(np.arange(horizon + 1, dtype=float) + 1.0),
        "finite": np.concatenate(([0.0], ((-1.0) ** idx) * idx)),
        "infinite": np.arange(horizon + 1, dtype=float) ** 2,
        "finite-ap": np.concatenate(
            ([0.0], (1.3 + np.sin(2 * np.pi * idx / 13.0) + np.sin(np.sqrt(2.0) * idx)) * idx)
        ),
    }
    r = resolvent(kernel, horizon)
    r_l1 = float(np.sum(np.abs(r.values)))
    k_l1 = kernel.l1_norm
    all_ok = True
    details = []
    for name, values in families.items():
        H = Trajectory(values)
        x = solve_linear(kernel, H, 1.0, horizon)
        est_H = estimate_limsup(H, scale)
        est_x = estimate_limsup(x, scale)
        bound1 = est_x.value <= 1.05 * r_l1 * est_H.value
        bound2 = est_H.value <= 1.05 * (1.0 + k_l1) * est_x.value
        agree = est_x.classification == est_H.classification
        all_ok = all_ok and bound1 and bound2 and agree
        details.append(f"{name}:{est_x.classification}{'=' if agree else '!='}{est_H.classification}")
    _report(7, "fluctuation dichotomy", all_ok, ", ".join(details))


def test_criterion_08_quadratic_time_average():
    system = EnsembleSpec(
        kernel=Kernel([0.5]),
        forcing=ForcingGenerator(kind="iid", seed=88008,
                                 tail=make_tail_model("normal", sigma=1.0)),
        horizon=100_000,
    )
    stat = StatisticSpec(name="phi_average", band=(1.25, 1.42))
    result = ensemble_verify(system, 20, stat)
    theorem_bound = 4.0  # sigma^2 * (resolvent l1 mass)^2
    ok = 1.25 <= result.median <= 1.42 and result.median < theorem_bound
    _report(8, "quadratic time average", ok,
            f"median {result.median:.4f} in [1.25, 1.42], target 4/3, bound {theorem_bound}")


def test_criterion_09_normal_envelope():
    horizon = 100_000
    sigma = 1.0
    scale = ScalingModel.from_entry(catalogue_entry("sqrt_log"), horizon)
    tail = make_tail_model("normal", sigma=sigma)
    grid = [round(0.5 + 0.1 * i, 10) for i in range(11)]
    report = envelope_sums(tail, scale.a, grid)
    divergent = [k for k, v in zip(report.k_grid, report.verdicts) if v == "divergent"]
    convergent = [k for k, v in zip(report.k_grid, report.verdicts) if v == "convergent"]
    bracket_ok = (
        bool(divergent) and bool(convergent)
        and max(divergent) <= sigma <= min(convergent)
        and min(convergent) - max(divergent) <= 0.1 + 1e-12
    )
    system = EnsembleSpec(
        kernel=Kernel([0.5]),
        forcing=ForcingGenerator(kind="iid", seed=20260810,
                                 tail=make_tail_model("normal", sigma=sigma)),
        horizon=horizon, scaling=scale,
    )
    stat = StatisticSpec(name="limsup_ratio", band=(0.8 * sigma, 1.1 * sigma),
                         series="forcing")
    result = ensemble_verify(system, 50, stat)
    median_ok = 0.8 * sigma <= result.median <= 1.1 * sigma
    ok = bracket_ok and median_ok
    _report(9, "normal envelope", ok,
            f"bracket [{max(divergent) if divergent else None}, "
            f"{min(convergent) if convergent else None}] around sigma={sigma}, "
            f"ensemble median {result.median:.4f} in [0.8, 1.1]")


def test_criterion_10_geometric_walk_rate():
    system = EnsembleSpec(
        kernel=Kernel.geometric(0.3, 0.5, 40),  # nonnegative, total mass 0.6
        forcing=ForcingGenerator(kind="geometric_random_walk", seed=31337,
                                 drift=0.1,
                                 noise=make_tail_model("normal", sigma=0.05)),
        horizon=10_000, log_domain=True,
    )
    stat = StatisticSpec(name="log_growth_rate", band=(0.09, 0.11))
    result = ensemble_verify(system, 50, stat)
    ok = result.pass_fraction >= 0.9
    _report(10, "geometric walk rate", ok,
            f"pass fraction {result.pass_fraction:.2f} (need 0.90), median {result.median:.5f}")


def test_criterion_11_power_tail_exponent():
    system = EnsembleSpec(
        kernel=Kernel([0.5]),
        forcing=ForcingGenerator(kind="iid", seed=777001,
                                 tail=make_tail_model("symmetric_power", alpha=2.0,
                                                      c1=0.5, c2=0.5)),
        horizon=1_000_000,
    )
    stat = StatisticSpec(name="log_log_exponent", band=(0.4, 0.6))
    result = ensemble_verify(system, 20, stat)
    ok = result.pass_fraction >= 0.8
    _report(11, "power tail exponent", ok,
            f"pass fraction {result.pass_fraction:.2f} (need 0.80), median {result.median:.4f}")


def _nonlinear_decay(kernel, nonlinearity, forcing_gen, scale_name, scale_params, horizon):
    H = generate(forcing_gen, horizon)
    scale = ScalingModel.from_entry(catalogue_entry(scale_name, **scale_params), horizon)
    x = solve_nonlinear(kernel, nonlinearity, H, 1.0, horizon)
    y = solve_linear(kernel, H, 1.0, horizon)
    diff = ratio_series(Trajectory(np.abs(x.values - y.values)), scale.a)
    blocks = dyadic_blocks(diff.start, diff.end)
    maxima = [float(np.max(np.abs(diff.window(lo, hi).values))) for lo, hi in blocks]
    clamped = [max(v, 1e-13) for v in maxima[-3:]]
    decreasing = clamped[0] >= clamped[1] >= clamped[2]
    return maxima, decreasing


def test_criterion_12_linearisation_at_infinity():
    sys_a = _nonlinear_decay(
        Kernel([0.5]), make_nonlinearity("bounded_offset"),
        ForcingGenerator(kind="deterministic", entry=forcing_entry("power", theta=1.0)),
        "power", {"theta": 1.0}, 10_000,
    )
    sys_b = _nonlinear_decay(
        Kernel([0.5]), make_nonlinearity("sqrt_offset"),
        ForcingGenerator(kind="deterministic",
                         entry=forcing_entry("geometric", lam=1.0 / 1.05)),
        "geometric", {"lam": 1.0 / 1.05}, 800,
    )
    ok = True
    details = []
    for label, (maxima, decreasing) in (("bounded_offset", sys_a), ("sqrt_offset", sys_b)):
        final_ok = maxima[-1] < 1e-3
        ok = ok and decreasing and final_ok
        details.append(f"{label}: final {maxima[-1]:.2e} decreasing={decreasing}")
    _report(12, "linearisation at infinity", ok, "; ".join(details) + " (tol 1e-3)")


def test_criterion_13_tail_classifier():
    verdicts = {
        "normal": classify_tail(make_tail_model("normal", sigma=1.0)),
        "symmetric_power": classify_tail(
            make_tail_model("symmetric_power", alpha=2.0, c1=0.5, c2=0.5)
        ),
        "weibull_symmetric": classify_tail(
            make_tail_model("weibull_symmetric", scale=1.0, shape=1.0)
        ),
    }
    ok = (
        verdicts["normal"].verdict == "rapid"
        and verdicts["symmetric_power"].verdict == "regularly-varying"
        and verdicts["symmetric_power"].case == "iii"
        and verdicts["weibull_symmetric"].verdict == "rapid"
    )
    summary = ", ".join(
        f"{k}:{v.verdict}{'/' + v.case if v.case else ''}" for k, v in verdicts.items()
    )
    _report(13, "tail classifier", ok, summary)
