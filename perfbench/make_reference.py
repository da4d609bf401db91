"""Regenerate reference.json: the verdict of every job for every input variant.

    python3 perfbench/make_reference.py [workload ...]

Run it from the root of a checkout of the commit whose verdicts are the
reference (the benchmark's parent commit); it takes about ten minutes for
all workloads.  Naming workloads regenerates only those.
Each job's output is also checked the way a benchmark run checks it, so a
reference is never taken from a wrong output.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from jobs import VARIANTS, WORKLOADS


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    path = os.path.join(run.HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        workloads = json.load(fh)["workloads"]
    for workload in sys.argv[1:] or WORKLOADS:
        workloads[workload] = {}
        for variant in range(VARIANTS):
            shutil.rmtree(run.work_dir(workload), ignore_errors=True)
            jobs = run.set_up(workload, variant)
            p = run.run_pass(workload, jobs, 0)
            j = run.Judgement()
            for e in p.executions:
                problems = run.witness_problems(workload, e, j)
                if problems:
                    print(f"{workload} {variant} {e.job.name}: {problems}", file=sys.stderr)
                    return 1
            workloads[workload][str(variant)] = {
                "inputs": run.inputs_digest(workload),
                "jobs": {e.job.name: e.verdict for e in p.executions},
            }
            print(workload, variant, f"{p.seconds:.2f}s", flush=True)
    shutil.rmtree(run.OUT_DIR, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"variants": VARIANTS, "workloads": workloads}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
