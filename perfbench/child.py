"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py WORKDIR [--trace]

Reads ``WORKDIR/plan.json`` and the configs it names, imports the CLI and
validates every config (the set-up a CLI invocation pays), prints
``ready``, then runs each experiment in-process through
``volterra_lab.cli.main`` into ``WORKDIR/out/<i>``.  The last stdout line
is one JSON object with the timings, exit codes, report observables and
(with ``--trace``) the per-layer metrics.

Without ``--trace`` the machine-speed sampler of ``calibrate.py`` runs
from just after ``import numpy`` to the end of the last experiment.
``wall_s`` is then the run's time minus the probe time, and the result
carries the probe durations of the set-up and of the run.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def observe(report: dict, code: int) -> dict:
    """The parts of a report the reference check compares."""
    return {
        "exit_code": code,
        "verdicts": report["verdicts"],
        "statistics": report["statistics"],
        "series": sorted(report["series"]),
    }


def _tree_size(path: Path):
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def main(argv):
    workdir = Path(argv[0])
    trace = "--trace" in argv[1:]
    plan = json.loads((workdir / "plan.json").read_text())

    sampler = None
    if not trace:
        sys.path.insert(0, str(HERE))
        from calibrate import Sampler, probe

        sampler = Sampler()
        sampler.start()

    import volterra_lab
    from volterra_lab import cli
    from volterra_lab.config import ExperimentConfig

    src = Path(plan["src"]).resolve()
    if Path(volterra_lab.__file__).resolve().parent != src / "volterra_lab":
        print(f"volterra_lab imported from {volterra_lab.__file__}, not {src}",
              file=sys.stderr)
        return 3
    argvs = []
    for i, mode in enumerate(plan["modes"]):
        config_path = workdir / "configs" / f"{i}.json"
        raw = json.loads(config_path.read_text())
        ExperimentConfig.from_dict(dict(raw, mode=mode))
        argvs.append([mode, "--config", str(config_path),
                      "--out", str(workdir / "out" / str(i))])
    # a phase too short for the timer still gets one probe, inside it
    setup_probes = (sampler.take() or [probe()]) if sampler is not None else []
    print("ready", flush=True)

    tracer = None
    if trace:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    codes = []
    sink = io.StringIO()
    started = time.perf_counter()
    for i, args in enumerate(argvs):
        if tracer is not None:
            tracer.experiment = i
        try:
            with contextlib.redirect_stdout(sink):
                codes.append(cli.main(args))
        except Exception:  # a crash is a failed experiment, not a failed run
            traceback.print_exc()
            codes.append(1)
    run_probes = []
    if sampler is not None:
        sampler.stop()
        run_probes = sampler.take() or [probe()]
    wall_s = time.perf_counter() - started - sum(run_probes)
    if tracer is not None:
        tracer.uninstall()

    observed = []
    for i, code in enumerate(codes):
        report_path = workdir / "out" / str(i) / "report.json"
        report = json.loads(report_path.read_text()) if code != 1 else None
        observed.append(observe(report, code) if report is not None else {"exit_code": code})
    files, size = _tree_size(workdir / "out")
    result = {
        "wall_s": wall_s,
        "codes": codes,
        "observed": observed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "write_files": files,
        "write_bytes": size,
        "setup_probes": setup_probes,
        "run_probes": run_probes,
    }
    if tracer is not None:
        from tracer import layer_values

        result["layers"] = layer_values(tracer.spans, wall_s, files, size)
        tracer.dump(workdir / "spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
