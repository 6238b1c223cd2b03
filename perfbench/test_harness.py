"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench

Checks that every workload runs traced, that an untraced run samples the
machine speed and scales its times by it, that spans nest, that self times
fit inside the wall time, that the work counters match their formulas,
that the reference check catches a changed statistic, and that
``BENCHMARK.json`` names exactly the metrics and workloads the code makes.
"""

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from calibrate import NOMINAL_S, trimmed_mean  # noqa: E402
from tracer import PER_LAYER, Tracer, kernel_terms, layer_metrics  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

TINY = 0.02


@pytest.mark.parametrize("horizon", [1, 2, 3, 7, 40, 41, 100])
@pytest.mark.parametrize("m", [0, 1, 3, 40])
def test_kernel_terms_matches_brute_force(horizon, m):
    visited = sum(1 for n in range(horizon) for _ in range(min(n + 1, m)))
    assert kernel_terms(horizon, m) == visited


@pytest.fixture(scope="module", params=WORKLOADS)
def traced_rep(request, tmp_path_factory):
    experiments = build(request.param, seed=0, scale=TINY)
    workdir = tmp_path_factory.mktemp(request.param)
    run.prepare(workdir, experiments)
    result = run.run_rep(workdir, trace=True)
    spans = json.loads((workdir / "spans.json").read_text())
    reports = [json.loads((workdir / "out" / str(i) / "report.json").read_text())
               for i in range(len(experiments))]
    result["out"] = workdir / "out"
    return request.param, experiments, result, spans, reports


def test_workload_runs(traced_rep):
    _, experiments, result, _, _ = traced_rep
    assert len(result["codes"]) == len(experiments)
    assert 1 not in result["codes"]
    assert result["setup_s"] > 0 and result["wall_s"] > 0


def test_untraced_rep_samples_speed(tmp_path):
    experiments = build("log_growth", seed=0, scale=TINY)
    run.prepare(tmp_path, experiments)
    result = run.run_rep(tmp_path, trace=False)
    assert 1 not in result["codes"]
    assert result["setup_probes"] and result["run_probes"]
    assert result["setup_s"] > 0 and result["wall_s"] > 0
    assert result["run_speed"] == pytest.approx(NOMINAL_S / trimmed_mean(result["run_probes"]))
    metrics = run.end_to_end([result], steps=1)
    assert metrics["wall_s"] == pytest.approx(result["wall_s"] * result["run_speed"])
    assert metrics["setup_s"] == pytest.approx(result["setup_s"] * result["setup_speed"])


def test_trimmed_mean_drops_slowest_tenth():
    assert trimmed_mean([2.0]) == 2.0
    assert trimmed_mean([1.0] * 9 + [50.0]) == 1.0
    assert trimmed_mean([1.0] * 18 + [50.0, 60.0]) == 1.0
    assert trimmed_mean([3.0, 1.0, 2.0, 9.0] * 5) == statistics.mean([1.0] * 5 + [2.0] * 5 + [3.0] * 5 + [9.0] * 3)


def test_spans_nest(traced_rep):
    _, experiments, _, spans, _ = traced_rep
    assert spans
    for span in spans:
        assert span["start"] <= span["end"]
        assert span["experiment"] in range(len(experiments))
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert parent["experiment"] == span["experiment"]
    top = [s for s in spans if s["parent"] is None]
    assert {s["name"] for s in top} == {"cli.main"}
    assert len(top) == len(experiments)


def test_resolvent_solve_nests_under_resolvent(traced_rep):
    name, _, _, spans, _ = traced_rep
    resolvents = [i for i, s in enumerate(spans) if s["name"] == "core.resolvent"]
    assert bool(resolvents) == (name == "cli_sweep")
    for i in resolvents:
        children = [s["name"] for s in spans if s["parent"] == i]
        assert children == ["core.solve_linear.plain"]


def test_self_times_fit_in_wall(traced_rep):
    _, _, result, spans, _ = traced_rep
    rows = [[s[k] for k in ("name", "start", "end", "parent", "experiment", "terms")]
            for s in spans]
    layers, top_s = layer_metrics(rows)
    self_times = sum(entry["self_s"] for entry in layers.values())
    assert self_times == pytest.approx(top_s)
    assert top_s <= result["wall_s"]
    assert result["layers"]["other_s"] == pytest.approx(result["wall_s"] - top_s)


def test_counters_match_formulas(traced_rep):
    name, experiments, result, _, reports = traced_rep
    layers = result["layers"]
    assert layers["cli.write.files"] == sum(1 + len(r["series"]) for r in reports)
    written = 0
    for i, report in enumerate(reports):
        for fname in list(report["series"].values()) + ["report.json"]:
            written += (result["out"] / str(i) / fname).stat().st_size
    assert layers["cli.write.bytes"] == written
    if name == "ensemble_plain":
        (exp,) = experiments
        c = exp["config"]
        assert layers["core.solve_linear.plain.calls"] == c["paths"]
        assert layers["core.solve_linear.plain.terms"] == c["paths"] * kernel_terms(c["horizon"], 40)
        assert layers["core.solve_linear.log.calls"] == 0
    if name == "log_growth":
        assert layers["core.solve_linear.log.calls"] == len(experiments)
        assert layers["core.solve_linear.log.terms"] == sum(
            kernel_terms(e["config"]["horizon"], 40) for e in experiments)
        assert layers["core.solve_linear.plain.calls"] == 0


def test_reference_check_catches_changes():
    reference = [{"exit_code": 2, "verdicts": {"ok": False},
                  "statistics": {"value": 1.5, "label": "finite-positive", "n": 3},
                  "series": ["x"]}]

    def observed(**statistics):
        out = json.loads(json.dumps(reference))
        out[0]["statistics"].update(statistics)
        return out

    assert run.mismatches(reference, observed()) == 0
    assert run.mismatches(reference, observed(value=1.5 * (1 + 1e-9))) == 0
    assert run.mismatches(reference, observed(extra=1.0)) == 0
    assert run.mismatches(reference, observed(value=1.5 * (1 + 1e-4))) == 1
    assert run.mismatches(reference, observed(label="infinite")) == 1
    assert run.mismatches(reference, observed(n=4)) == 1
    assert run.mismatches(reference, [{"exit_code": 1}]) == 1


def test_tracer_restores_bindings():
    sys.path.insert(0, str(run.ROOT / "src"))
    from volterra_lab import cli, core, stochastic

    original = core.solve_linear
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.solve_linear is not original
        assert stochastic.solve_linear is cli.solve_linear is core.solve_linear
    finally:
        tracer.uninstall()
    assert cli.solve_linear is stochastic.solve_linear is core.solve_linear is original


def test_benchmark_json_matches_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
