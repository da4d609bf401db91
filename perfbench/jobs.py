"""Workload definitions: the jobs of one pass and the input files they read.

The run's seed picks one of `VARIANTS` input sets (variant = seed mod
VARIANTS), each with a stored reference verdict in reference.json.  All paths handed to the program are
relative to the checkout root, so certificate bytes do not depend on where
the checkout lives.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

VARIANTS = 20
WORKLOADS = ("battery", "detect-walls", "treewidth-exact")

SUITE_NAMES = (
    "anchors",
    "bag-algebra",
    "bag-audit",
    "conditional-bags",
    "constructions",
    "creatures",
    "detectors",
    "forcer-claw",
    "forcer-theta",
    "harvey-wood",
    "pipeline",
    "strip-assembly",
)
# The suites build their own corpora from their seed, and the cost of a pass
# varies 1.5x across suite seeds (3.7-5.8 s for seeds 1-8), which would hide
# any change in the code.  So the suites always run with the default seed,
# as `twcert verify all` does in CI; the run seed varies the centralbag
# weights.
SUITE_SEED = 7
CENTRALBAG_WALLS = ((3, 3), (4, 4), (5, 5), (6, 6))
CENTRALBAG_PATHS = (2, 3, 4)  # P_k: the path on k vertices
DETECT_JOBS = (  # (pattern, t, wall rows, wall columns)
    ("theta", 2, 3, 4),
    ("theta", 2, 4, 4),
    ("theta", 2, 4, 5),
    ("theta", 3, 3, 4),
    ("theta", 3, 4, 4),
    ("pyramid", 1, 3, 4),
    ("pyramid", 1, 4, 4),
)
TW_RANDOM = tuple((n, p) for n in (12, 14, 16) for p in (0.2, 0.35))
# Walls cost the same under any relabeling, so the three n = 12 walls keep the
# median job of a pass steady across seeds; 4x4 and up take the bounds path.
TW_WALLS = ((3, 3), (2, 6), (4, 2), (3, 4), (4, 4), (5, 5), (6, 6))
TW_CAP = 16

# Typical wall seconds of one untraced pass at the parent commit on a shared
# 2-vCPU, 2.0 GHz Xeon host.  They only fix the pass count of a run
# (--seconds / nominal), so that both sides of a comparison time the same
# number of jobs and the tail percentile means the same thing.
NOMINAL_PASS_S = {"battery": 5.0, "detect-walls": 6.0, "treewidth-exact": 10.0}

# The cheapest job of each workload, run once during set-up to warm caches
# and lazy imports.
WARMUP_JOB = {
    "battery": "verify-creatures",
    "detect-walls": "theta-t2-wall3x4",
    "treewidth-exact": "tw-wall3x3",
}


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # verify | centralbag | detect | tw
    argv: tuple[str, ...]  # arguments to twcert.cli.main; OUT marks the output path
    output: str  # output file name inside the pass directory
    td: bool = False  # the job also writes a .td witness next to its output


OUT = "{out}"


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _rng(workload: str, variant: int, *tags: object) -> random.Random:
    return random.Random("/".join(str(x) for x in (workload, variant, *tags)))


def _relabel(n: int, edges, rng: random.Random) -> dict:
    perm = list(range(n))
    rng.shuffle(perm)
    return {"n": n, "edges": sorted(sorted((perm[u], perm[v])) for u, v in edges)}


def _random_connected(n: int, p: float, rng: random.Random) -> dict:
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        adj = {v: set() for v in range(n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        seen, todo = {0}, [0]
        while todo:
            for x in adj[todo.pop()] - seen:
                seen.add(x)
                todo.append(x)
        if len(seen) == n:
            return {"n": n, "edges": edges}


def _wall_edges(rows: int, cols: int) -> tuple[int, list[tuple[int, int]]]:
    """Walls from twcert's own generator, as `twcert gen wall` makes them; the
    reference stores a digest of the inputs, so a change there shows."""
    from twcert.generators import wall

    g = wall(rows, cols)
    return g.n, list(g.edges)


def _write(path: str, payload: object) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
    return path


def build_inputs(workload: str, seed: int, in_dir: str) -> list[Job]:
    """Write the workload's input files under in_dir; return one pass of jobs."""
    os.makedirs(in_dir, exist_ok=True)
    v = variant_of(seed)
    jobs: list[Job] = []
    if workload == "battery":
        for suite in SUITE_NAMES:
            argv = ("--seed", str(SUITE_SEED), "verify", suite, "-o", OUT)
            jobs.append(Job(f"verify-{suite}", "verify", argv, f"verify-{suite}.json"))
        for k in CENTRALBAG_PATHS:
            _write(os.path.join(in_dir, f"P{k}.json"),
                   {"n": k, "edges": [(i, i + 1) for i in range(k - 1)]})
        for rows, cols in CENTRALBAG_WALLS:
            n, edges = _wall_edges(rows, cols)
            host = _write(os.path.join(in_dir, f"wall{rows}x{cols}.json"), {"n": n, "edges": edges})
            rng = _rng(workload, v, rows, cols)
            nums = [rng.randint(1, 9) for _ in range(n)]
            total = sum(nums)
            weights = _write(
                os.path.join(in_dir, f"weights{rows}x{cols}.json"),
                {str(x): str(Fraction(a, total)) for x, a in enumerate(nums)},
            )
            for k in CENTRALBAG_PATHS:
                name = f"centralbag-wall{rows}x{cols}-P{k}"
                argv = ("centralbag", "-i", host, "--pattern", os.path.join(in_dir, f"P{k}.json"),
                        "--weights", weights, "-o", OUT)
                jobs.append(Job(name, "centralbag", argv, f"{name}.json"))
    elif workload == "detect-walls":
        hosts: dict[tuple[int, int], str] = {}
        for pattern, t, rows, cols in DETECT_JOBS:
            if (rows, cols) not in hosts:
                n, edges = _wall_edges(rows, cols)
                hosts[rows, cols] = _write(
                    os.path.join(in_dir, f"wall{rows}x{cols}.json"),
                    _relabel(n, edges, _rng(workload, v, rows, cols)),
                )
            name = f"{pattern}-t{t}-wall{rows}x{cols}"
            argv = ("detect", "--pattern", pattern, "--t", str(t), "-i", hosts[rows, cols], "-o", OUT)
            jobs.append(Job(name, "detect", argv, f"{name}.json"))
    elif workload == "treewidth-exact":
        config = os.path.join(in_dir, "tw.conf")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(f"max_tw_n={TW_CAP}\n")
        graphs: list[tuple[str, dict]] = []
        for n, p in TW_RANDOM:
            density = "sparse" if p < 0.3 else "dense"
            graphs.append((f"rand-n{n}-{density}", _random_connected(n, p, _rng(workload, v, n, p))))
        for rows, cols in TW_WALLS:
            n, edges = _wall_edges(rows, cols)
            graphs.append((f"wall{rows}x{cols}", _relabel(n, edges, _rng(workload, v, rows, cols))))
        for label, g in graphs:
            path = _write(os.path.join(in_dir, f"{label}.json"), g)
            name = f"tw-{label}"
            argv = ("--config", config, "tw", "-i", path, "--td", OUT + ".td", "-o", OUT)
            jobs.append(Job(name, "tw", argv, f"{name}.json", td=True))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def job_argv(job: Job, out_dir: str) -> list[str]:
    out = os.path.join(out_dir, job.output)
    return [a.replace(OUT, out) for a in job.argv]
