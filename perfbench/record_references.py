"""Record the reference output of every pool input of every workload.

    python3 perfbench/record_references.py

Run from the root of a checkout at the commit whose outputs are the
reference; it rewrites perfbench/references.json.
"""

from __future__ import annotations

import json
import sys
import time

import run
from workloads import POOL, WORKLOADS, csv_argv, sim_argv, write_csv


def main():
    run.WORK.mkdir(exist_ok=True)
    outputs = {}
    for workload in WORKLOADS.values():
        outputs[workload.name] = {}
        for seed in range(POOL):
            if workload.design is None:
                path = run.WORK / "test_csv.csv"
                write_csv(seed, path)
                argv = csv_argv(path)
            else:
                argv = sim_argv(workload, seed)
            result = run.invoke(argv, timeout=600.0)
            if result.returncode != 0:
                sys.exit(f"{workload.name} input {seed}: exit {result.returncode}")
            outputs[workload.name][str(seed)] = result.stdout
            print(f"{workload.name} {seed} {result.wall_s:.2f}s "
                  f"failed={run.outcheck.failed_reps(result.stdout)}", flush=True)
    (run.WORK / "test_csv.csv").unlink(missing_ok=True)
    record = {"recorded_with": run.provenance(),
              "recorded_at": time.strftime("%Y-%m-%d"), "outputs": outputs}
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
