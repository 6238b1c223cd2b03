"""Record the observables every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs each workload once per recorded workload seed (untraced) and writes
``perfbench/reference.json``: per workload and seed, one entry per
experiment with its exit code, verdicts, statistics and series names.
Run it only on a commit whose outputs are trusted; the committed file was
recorded on the commit that introduced the benchmark.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import RECORDED_SEEDS, WORKLOADS, build


def main() -> int:
    scratch = run.ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    reference = {}
    for workload in WORKLOADS:
        reference[workload] = {}
        for seed in range(RECORDED_SEEDS):
            workdir = Path(tempfile.mkdtemp(prefix="record-", dir=scratch))
            try:
                run.prepare(workdir, build(workload, seed))
                result = run.run_rep(workdir, trace=False)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if 1 in result["codes"]:
                print(f"{workload} seed {seed}: an experiment exited 1", file=sys.stderr)
                return 1
            reference[workload][str(seed)] = result["observed"]
            print(f"{workload} seed {seed}: exit codes {result['codes']}")
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
