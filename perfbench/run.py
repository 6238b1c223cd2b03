"""volterra-lab benchmark: timed and traced runs of named CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition is a fresh single-threaded child process (``child.py``)
that imports the CLI, validates its configs, then runs the workload's
experiments in-process through ``volterra_lab.cli.main``, writing
``report.json`` and CSVs into a scratch directory under ``.perfbench/``.
Repetitions continue until ``--seconds`` have passed (at least
``MIN_REPS``).  Every report is checked against ``reference.json``.

With ``--trace 0`` the result carries the end-to-end metrics (medians over
repetitions, times adjusted to the machine speed the child sampled; see
``calibrate.py``); with ``--trace 1`` untraced and traced repetitions alternate
and the result carries the per-layer metrics (medians over the traced
ones) plus the tracing overhead.  The last stdout line is the JSON result;
the lines before it restate every metric with unit and sample count, the
failure fraction and the run metadata.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import speed  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, build, workload_seed  # noqa: E402

MIN_REPS = 3
CHILD_TIMEOUT_S = 150
# Float statistics match the reference when
# |a - b| <= RTOL * max(|a|, |b|) + ATOL; everything else must be equal.
RTOL = 1e-6
ATOL = 1e-12
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("steps_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
MEASURED_UNITS = {"measured_setup_s": "s", "measured_wall_s": "s",
                  "measured_steps_per_s": "1/s", "speed": "1"}


class BenchmarkError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# reference check
# --------------------------------------------------------------------------

def _same(expected, actual) -> bool:
    if isinstance(expected, bool) or isinstance(actual, bool):
        return expected is actual
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(actual, (int, float)) or not isinstance(expected, (int, float)):
            return False
        if math.isnan(expected) or math.isnan(actual):
            return math.isnan(expected) and math.isnan(actual)
        return abs(expected - actual) <= RTOL * max(abs(expected), abs(actual)) + ATOL
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and set(expected) <= set(actual)
                and all(_same(v, actual[k]) for k, v in expected.items()))
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(expected) == len(actual)
                and all(_same(e, a) for e, a in zip(expected, actual)))
    return expected == actual


def mismatches(reference: list, observed: list) -> int:
    """Experiments that exited 1 or differ from their recorded observables.

    Keys missing from the reference (a statistic added later) are ignored;
    keys missing from the output count as a difference.
    """
    return sum(1 for exp, got in zip(reference, observed)
               if got["exit_code"] == 1 or not _same(exp, got))


# --------------------------------------------------------------------------
# one repetition
# --------------------------------------------------------------------------

def prepare(workdir: Path, experiments: list) -> None:
    (workdir / "configs").mkdir(parents=True)
    (workdir / "tmp").mkdir()
    for i, exp in enumerate(experiments):
        (workdir / "configs" / f"{i}.json").write_text(json.dumps(exp["config"]))
    plan = {"src": str(ROOT / "src"), "modes": [e["mode"] for e in experiments]}
    (workdir / "plan.json").write_text(json.dumps(plan))


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    # Cache bytecode as an installed package would, so that set-up does not
    # depend on the caller's environment; only the first child compiles.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(workdir / "tmp")
    return env


def run_rep(workdir: Path, trace: bool) -> dict:
    """Run one child; return its result plus the measured ``setup_s``.

    An untraced child samples the machine speed while it runs.  Its
    ``setup_s`` and ``wall_s`` then exclude the probe time, and
    ``setup_speed`` and ``run_speed`` are the factors that turn them into
    times at the probe's nominal speed.
    """
    shutil.rmtree(workdir / "out", ignore_errors=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(workdir)] + (["--trace"] if trace else [])
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(workdir), cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError("benchmark child timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchmarkError(f"benchmark child failed with exit code {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup_s - sum(result["setup_probes"])
    if not trace:
        result["setup_speed"] = speed(result["setup_probes"])
        result["run_speed"] = speed(result["run_probes"])
    return result


# --------------------------------------------------------------------------
# metadata
# --------------------------------------------------------------------------

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(module):
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def metadata(args, seed, experiments, reps) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "thread_env_parent": {k: os.environ.get(k) for k in THREAD_ENV},
        "thread_env_child": {k: "1" for k in THREAD_ENV},
        "git_commit": _git_commit(),
        "seed": args.seed,
        "workload_seed": seed,
        "experiments": len(experiments),
        "paths": sum(e["config"].get("paths", 1) for e in experiments
                     if "horizon" in e["config"]),
        "steps": sum(e["steps"] for e in experiments),
        "reps": reps,
    }


# --------------------------------------------------------------------------
# command line
# --------------------------------------------------------------------------

def _repeat(workdir, seconds, min_reps, kinds):
    """Run the repetition kinds in turn until time is up; results per kind."""
    out = {kind: [] for kind in kinds}
    started = time.perf_counter()
    while (min(len(v) for v in out.values()) < min_reps
           or time.perf_counter() - started < seconds):
        for kind in kinds:
            out[kind].append(run_rep(workdir, trace=(kind == "traced")))
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    experiments = build(workload, seed)
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        prepare(workdir, experiments)
        if trace:
            reps = _repeat(workdir, seconds, 2, ("untraced", "traced"))
            shutil.copyfile(workdir / "spans.json", scratch / f"spans-{workload}.json")
        else:
            reps = _repeat(workdir, seconds, MIN_REPS, ("untraced",))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"experiments": experiments, "reps": reps}


def end_to_end(reps: list, steps: int) -> dict:
    """Medians over repetitions; times are adjusted to the nominal speed."""
    wall = statistics.median(r["wall_s"] * r["run_speed"] for r in reps)
    return {
        "setup_s": statistics.median(r["setup_s"] * r["setup_speed"] for r in reps),
        "wall_s": wall,
        "steps_per_s": steps / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def measured(reps: list, steps: int) -> dict:
    """The unadjusted medians and the machine speed, printed for reference."""
    wall = statistics.median(r["wall_s"] for r in reps)
    return {
        "measured_setup_s": statistics.median(r["setup_s"] for r in reps),
        "measured_wall_s": wall,
        "measured_steps_per_s": steps / wall,
        "speed": statistics.median(r["run_speed"] for r in reps),
    }


def per_layer(untraced: list, traced: list) -> dict:
    out = {}
    for metric, _ in PER_LAYER:
        if metric == "trace.overhead_s":
            out[metric] = (statistics.median(r["wall_s"] for r in traced)
                           - statistics.median(r["wall_s"] for r in untraced))
        else:
            values = [r["layers"][metric] for r in traced]
            exact = all(isinstance(v, int) for v in values)
            out[metric] = (statistics.median_low if exact else statistics.median)(values)
    return out


def _summary_lines(metrics: dict, units: dict, samples: int, attempted: int, failed: int):
    for name, value in metrics.items():
        yield f"{name:<45} {value:>16.6g} {units[name]:<6} (median of {samples})"
    yield f"{'fail_frac':<45} {failed / attempted:>16.6g} {'1':<6} ({failed} of {attempted} experiments)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "volterra_lab" / "__init__.py").is_file():
        print(f"error: no volterra_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = workload_seed(args.seed)
    try:
        reference = json.loads((HERE / "reference.json").read_text())[args.workload][str(seed)]
    except (OSError, KeyError) as err:
        print(f"error: no reference for {args.workload} seed {seed}: {err}", file=sys.stderr)
        return 2
    if len(reference) != len(build(args.workload, seed)):
        print(f"error: reference for {args.workload} does not match its experiments",
              file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, seed, args.seconds, bool(args.trace), ROOT / ".perfbench")
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    experiments, reps = run["experiments"], run["reps"]
    every = [r for kind in reps.values() for r in kind]
    attempted = len(experiments) * len(every)
    failed = sum(mismatches(reference, r["observed"]) for r in every)
    if args.trace:
        metrics = per_layer(reps["untraced"], reps["traced"])
        units = dict(PER_LAYER)
        samples = len(reps["traced"])
    else:
        steps = sum(e["steps"] for e in experiments)
        metrics = end_to_end(reps["untraced"], steps)
        units = dict(END_TO_END)
        samples = len(reps["untraced"])
        for name, value in measured(reps["untraced"], steps).items():
            print(f"{name:<45} {value:>16.6g} {MEASURED_UNITS[name]:<6} (median of {samples}, not adjusted)")
    for line in _summary_lines(metrics, units, samples, attempted, failed):
        print(line)
    meta = metadata(args, seed, experiments, {k: len(v) for k, v in reps.items()})
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
