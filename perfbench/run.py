"""Benchmark for twcert: closed-loop passes over one workload, in process.

    python3 perfbench/run.py --workload battery --seed 3 --seconds 30 --trace 0

Run from the root of a checkout.  One client runs the jobs of a pass one
after another, each through `twcert.cli.main([...])` exactly as a user would
run the command, on inputs generated from --seed; a run times a fixed number
of passes derived from --seconds.  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of one traced pass (see tracing.py).  Every run checks
its outputs: verdicts against reference.json, witnesses independently of
twcert, certificates with `twcert recheck`, and byte identity across passes.
Job times are normalized to a nominal host speed measured around and during
each job (hostspeed.py).  Lines before the last one name every metric with
its unit, the failed jobs, and the run metadata.  NOTES.md explains the
choices.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".perfbench_out"  # relative to the checkout root; ignored by git

from jobs import (  # noqa: E402
    NOMINAL_PASS_S, SUITE_NAMES, WARMUP_JOB, WORKLOADS, Job, build_inputs, job_argv, variant_of,
)
import hostspeed  # noqa: E402
from verdicts import certificate_of, check_detect, check_tw, digest, file_sha256, verdict  # noqa: E402

SETUP_PROBES = 5
TRACE_UNTRACED_PASSES = {"battery": 2, "detect-walls": 1, "treewidth-exact": 1}

# name, unit, better, bound
END_TO_END = [
    ("pass_s", "s", "lower", 0.25),
    ("job_p50_ms", "ms", "lower", 0.25),
    ("job_tail_ms", "ms", "lower", 0.25),
    ("verdict_share", "share", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# name, unit, better, the end-to-end metric @ workload it should move
PER_LAYER = [
    ("detect.s", "s", "lower", "job_p50_ms @ detect-walls"),
    ("detect.budget_ticks", "count", "lower", "job_p50_ms @ detect-walls"),
    ("detect.ticks_absent", "count", "lower", "job_tail_ms @ detect-walls"),
    ("detect.copies", "count", "lower", "pass_s @ battery"),
    ("graphs.reach_mask.calls", "count", "lower", "job_tail_ms @ treewidth-exact"),
    ("graphs.component_masks.calls", "count", "lower", "pass_s @ battery"),
    ("weights.s", "s", "lower", "pass_s @ battery"),
    ("weights.of_mask.calls", "count", "lower", "pass_s @ battery"),
    ("weights.of.calls", "count", "lower", "pass_s @ battery"),
    ("separators.exact_treewidth.s", "s", "lower", "job_tail_ms @ treewidth-exact"),
    ("separators.treewidth_bounds.s", "s", "lower", "job_p50_ms @ treewidth-exact"),
    ("separators.min_balanced_separator.s", "s", "lower", "pass_s @ battery"),
    ("separators.subsets_tested", "count", "lower", "pass_s @ battery"),
    ("separators.separation_number.s", "s", "lower", "pass_s @ battery"),
    ("centralbag.covering_sequence.s", "s", "lower", "pass_s @ battery"),
    ("centralbag.dimension_partition.s", "s", "lower", "pass_s @ battery"),
    ("centralbag.central_bag.s", "s", "lower", "pass_s @ battery"),
    ("centralbag.audit.s", "s", "lower", "pass_s @ battery"),
    ("centralbag.transfer.s", "s", "lower", "pass_s @ battery"),
    ("centralbag.forcer.s", "s", "lower", "pass_s @ battery"),
    ("centralbag.separations", "count", "lower", "pass_s @ battery"),
    ("centralbag.kept_ratio", "ratio", "lower", "pass_s @ battery"),
    ("decompose.validate_td.s", "s", "lower", "job_p50_ms @ treewidth-exact"),
    ("decompose.chordal_td.s", "s", "lower", "pass_s @ battery"),
    ("decompose.fuzzy_lci_td.s", "s", "lower", "pass_s @ battery"),
    ("certify.emit_s", "s", "lower", "job_p50_ms @ battery"),
    ("certify.bytes", "B", "lower", "job_p50_ms @ battery"),
    ("certify.recheck_s", "s", "lower", "none (untimed correctness step)"),
    ("certify.revalidated_ratio", "ratio", "higher", "none (ROADMAP item 4 moves it)"),
    *((f"suites.{s}.s", "s", "lower", "pass_s @ battery") for s in SUITE_NAMES),
    ("io.s", "s", "lower", "job_p50_ms @ battery"),
    ("cli.s", "s", "lower", "job_p50_ms @ battery"),
    ("generators.s", "s", "lower", "setup_s @ all"),
    ("trace.overhead_ratio", "ratio", "lower", "none (tracing cost)"),
]


@dataclass
class Execution:
    job: Job
    pass_no: int
    seconds: float  # at the nominal host speed (hostspeed.py)
    raw_seconds: float
    verdict: dict
    outputs: tuple  # sha256 of the output file and of the .td witness
    failed: Optional[str] = None  # reason, when the execution failed


@dataclass
class Pass:
    executions: list[Execution] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """Time to all verdicts of the pass, at the nominal host speed."""
        return sum(e.seconds for e in self.executions)

    @property
    def raw_seconds(self) -> float:
        return sum(e.raw_seconds for e in self.executions)


def work_dir(workload: str) -> str:
    return os.path.join(OUT_DIR, workload)


def set_up(workload: str, seed: int) -> list[Job]:
    """Imports, input generation and one warm-up job: what a run pays before
    its first timed pass."""
    from twcert import cli

    jobs = build_inputs(workload, seed, os.path.join(work_dir(workload), "in"))
    warm_dir = os.path.join(work_dir(workload), "warm")
    os.makedirs(warm_dir, exist_ok=True)
    job = next(j for j in jobs if j.name == WARMUP_JOB[workload])
    cli.main(job_argv(job, warm_dir))
    return jobs


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(normalized, raw) wall time of fresh interpreters that only set up,
    from spawn to exit.  Each reports the host-speed samples it took."""
    times = []
    probe = hostspeed.Probe()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            check=True,
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        during = hostspeed.Sampling(**json.loads(child.stdout.splitlines()[-1]))
        raw = time.perf_counter() - start - during.paused
        times.append((raw / probe.speed(during), raw))
    return times


def run_pass(workload: str, jobs: list[Job], pass_no: int, tracer=None) -> Pass:
    from twcert import cli

    out_dir = os.path.join(work_dir(workload), f"pass{pass_no}")
    os.makedirs(out_dir, exist_ok=True)
    gc.collect()
    raw = []
    probe = hostspeed.Probe()
    for job in jobs:
        argv = job_argv(job, out_dir)
        if tracer is not None:
            tracer.job = job.name
        with hostspeed.sampling(tracer.pause if tracer is not None else None) as during:
            t0 = time.perf_counter()
            try:
                rc, raised = cli.main(argv), None
            except Exception as exc:  # a crash is the job's outcome: record it, go on
                rc, raised = None, type(exc).__name__
            seconds = time.perf_counter() - t0 - during.paused
        raw.append((job, seconds / probe.speed(during), seconds, rc, raised))
    p = Pass()
    for job, seconds, raw_seconds, rc, raised in raw:
        out = os.path.join(out_dir, job.output)
        p.executions.append(Execution(
            job, pass_no, seconds, raw_seconds, verdict(job, rc, raised, out),
            (file_sha256(out), file_sha256(out + ".td") if job.td else None),
        ))
    return p


def output_path(workload: str, e: Execution) -> str:
    return os.path.join(work_dir(workload), f"pass{e.pass_no}", e.job.output)


def inputs_digest(workload: str) -> str:
    in_dir = os.path.join(work_dir(workload), "in")
    return digest({name: file_sha256(os.path.join(in_dir, name)) for name in sorted(os.listdir(in_dir))})


# -- correctness ---------------------------------------------------------------------


@dataclass
class Judgement:
    wrong: list[str] = field(default_factory=list)  # any entry makes "correct" false
    recheck_s: float = 0.0
    assertions: int = 0
    revalidated: int = 0


def witness_problems(workload: str, e: Execution, judgement: Judgement) -> list[str]:
    """Independent witness checks and `twcert recheck` on one output."""
    from twcert import cli

    out = output_path(workload, e)
    if not os.path.exists(out):
        return []
    with open(out, encoding="utf-8") as fh:
        data = json.load(fh)
    host = e.job.argv[e.job.argv.index("-i") + 1] if "-i" in e.job.argv else None
    problems = []
    if e.job.kind == "detect":
        problems += check_detect(e.job, data, host)
    elif e.job.kind == "tw":
        problems += check_tw(host, out + ".td", data)
    cert = certificate_of(e.job, data)
    if cert is not None:
        for a in cert.get("assertions", []):
            judgement.assertions += 1
            kind = a.get("witness", {}).get("kind")
            judgement.revalidated += kind is not None and kind != "equal"
        report = out + ".recheck"
        start = time.perf_counter()
        rc = cli.main(["recheck", "-i", out, "-o", report])
        judgement.recheck_s += time.perf_counter() - start
        with open(report, encoding="utf-8") as fh:
            found = json.load(fh)["problems"]
        if rc != 0 or found:
            problems.append(f"recheck: {found or 'exit code ' + str(rc)}")
    return problems


def judge(workload: str, seed: int, passes: list[Pass]) -> Judgement:
    """Mark failed executions and collect reasons the outputs are wrong.

    A job whose reference verdict is a crash counts as failed while it keeps
    crashing that way, without making the run incorrect: that is a known
    defect kept visible.  Every other failure also makes the run incorrect.
    """
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"][workload].get(str(variant_of(seed)))
    j = Judgement()
    if reference is None:
        j.wrong.append(f"no reference for variant {variant_of(seed)}")
        reference = {"inputs": None, "jobs": {}}
    if reference["inputs"] != inputs_digest(workload):
        j.wrong.append("generated inputs differ from the reference inputs")
    first = {e.job.name: e for e in passes[0].executions}
    problems = {name: witness_problems(workload, e, j) for name, e in first.items()}
    for p in passes:
        for e in p.executions:
            ref = reference["jobs"].get(e.job.name)
            if (e.verdict, e.outputs) != (first[e.job.name].verdict, first[e.job.name].outputs):
                e.failed = "output differs from the first pass"
            elif problems[e.job.name]:
                e.failed = "; ".join(problems[e.job.name])
            elif ref is not None and "raises" in ref and e.verdict == ref:
                e.failed = f"raises {ref['raises']} (known defect, as at the reference)"
                continue
            elif "raises" in e.verdict:
                e.failed = f"raises {e.verdict['raises']}"
            elif ref is not None and "raises" not in ref and e.verdict != ref:
                e.failed = f"verdict {e.verdict} differs from reference {ref}"
            elif ref is None:
                e.failed = "no reference verdict"
            if e.failed:
                j.wrong.append(f"{e.job.name} (pass {e.pass_no}): {e.failed}")
    return j


# -- metrics -----------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its rank."""
    ordered = sorted(samples)
    i = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(passes: list[Pass], setup_times: list[tuple[float, float]], rss_mb: float) -> tuple[dict, dict]:
    samples = [e.seconds for p in passes for e in p.executions]
    raw_samples = [e.raw_seconds for p in passes for e in p.executions]
    failed = sum(1 for p in passes for e in p.executions if e.failed)
    tail_s, pct = tail(samples)
    values = {
        "pass_s": statistics.median(p.seconds for p in passes),
        "job_p50_ms": 1000 * statistics.median(samples),
        "job_tail_ms": 1000 * tail_s,
        "verdict_share": (len(samples) - failed) / len(samples),
        "setup_s": statistics.median(t for t, _ in setup_times),
        "peak_rss_mb": rss_mb,
    }
    extra = {
        "job_tail_percentile": round(pct, 1),
        "job_samples": len(samples),
        "failed_share": failed / len(samples),
        "raw": {
            "pass_s": statistics.median(p.raw_seconds for p in passes),
            "job_p50_ms": 1000 * statistics.median(raw_samples),
            "job_tail_ms": 1000 * tail(raw_samples)[0],
            "setup_s": statistics.median(raw for _, raw in setup_times),
        },
    }
    return values, extra


def per_layer(tracer, traced: Pass, untraced: list[Pass], j: Judgement, workload: str) -> dict:
    values: dict[str, float] = {}
    for name, _, _, _ in PER_LAYER:
        if name.startswith("suites."):
            values[name] = tracer.incl_s.get(name, 0.0)
        elif name.endswith(".s") or name.endswith("_s"):
            values[name] = tracer.self_s.get(name, 0.0)
        else:
            values[name] = tracer.counts.get(name, 0)
    values["detect.budget_ticks"] = tracer.ticks()
    values["detect.ticks_absent"] = sum(
        tracer.ticks(e.job.name) for e in traced.executions if e.verdict.get("status") == "absent"
    )
    members = tracer.counts["centralbag.members"]
    values["centralbag.kept_ratio"] = tracer.counts["centralbag.kept"] / members if members else 0.0
    values["certify.bytes"] = sum(
        os.path.getsize(path)
        for e in traced.executions
        for path in (output_path(workload, e), output_path(workload, e) + ".td")
        if os.path.exists(path)
    )
    values["certify.recheck_s"] = j.recheck_s
    values["certify.revalidated_ratio"] = j.revalidated / j.assertions if j.assertions else 0.0
    values["trace.overhead_ratio"] = traced.seconds / statistics.median(p.seconds for p in untraced)
    return values


def metadata(workload: str, seed: int, passes: list[Pass]) -> dict:
    sources = sorted(glob.glob(os.path.join("src", "twcert", "*.py")))
    lines = 0
    tree = hashlib.sha256()
    for path in sources:
        with open(path, "rb") as fh:
            data = fh.read()
        lines += data.count(b"\n")
        tree.update(path.encode() + b"\0" + hashlib.sha256(data).digest())
    commit = None
    if os.path.isdir(".git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "variant": variant_of(seed),
        "passes": len(passes),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": tree.hexdigest(),
        "src_twcert_lines": lines,
    }


# -- main --------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: int) -> tuple[list[Pass], float]:
    """Untraced passes: a count fixed by --seconds, cut short only when the
    host is so slow that the next pass would end after 1.5 x --seconds."""
    count = max(2, round(seconds / NOMINAL_PASS_S[workload]))
    jobs = set_up(workload, seed)
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < count:
        elapsed = time.perf_counter() - start
        if passes and elapsed + elapsed / len(passes) > 1.5 * seconds:
            break
        passes.append(run_pass(workload, jobs, len(passes)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return passes, rss_mb


def traced_run(workload: str, seed: int) -> tuple[list[Pass], object]:
    from tracing import Tracer

    jobs = set_up(workload, seed)
    untraced = [run_pass(workload, jobs, k) for k in range(TRACE_UNTRACED_PASSES[workload])]
    tracer = Tracer()
    tracer.install()
    try:
        # the same files again, so input generation shows in generators.s
        build_inputs(workload, seed, os.path.join(work_dir(workload), "in"))
        traced = run_pass(workload, jobs, len(untraced), tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl"))
    return untraced + [traced], tracer


def report(workload: str, seed: int, passes: list[Pass], j: Judgement, metrics: dict,
           units: dict, notes: dict, extra: dict) -> str:
    attempted = sum(len(p.executions) for p in passes)
    failed = [e for p in passes for e in p.executions if e.failed]
    print(f"workload {workload}  seed {seed}  passes {len(passes)}  jobs {attempted}  failed {len(failed)}")
    for name in sorted({e.job.name for e in failed}):
        reasons = sorted({e.failed for e in failed if e.job.name == name})
        print(f"failed job {name}: {'; '.join(reasons)}")
    for reason in j.wrong:
        print(f"incorrect: {reason}")
    for name in (e.job.name for e in passes[0].executions):
        times = [e.seconds for p in passes for e in p.executions if e.job.name == name]
        print(f"job {name}: median {1000 * statistics.median(times):.1f} ms over {len(times)} runs")
    for name, value in metrics.items():
        note = f"   (moves {notes[name]})" if name in notes else ""
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"metric {name} = {shown} {units[name]}{note}")
    print("meta " + json.dumps({**metadata(workload, seed, passes), **extra}, sort_keys=True))
    return json.dumps({
        "correct": not j.wrong,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "twcert", "__init__.py")):
        print(f"no twcert sources under {ROOT}/src: run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.setup_only:
        with hostspeed.sampling() as during:
            set_up(args.workload, args.seed)
        print(json.dumps({"samples": during.samples, "paused": during.paused}))
        return 0
    shutil.rmtree(work_dir(args.workload), ignore_errors=True)
    try:
        if args.trace:
            passes, tracer = traced_run(args.workload, args.seed)
            j = judge(args.workload, args.seed, passes)
            metrics = per_layer(tracer, passes[-1], passes[:-1], j, args.workload)
            units = {name: unit for name, unit, _, _ in PER_LAYER}
            notes = {name: moves for name, _, _, moves in PER_LAYER}
            extra: dict = {}
        else:
            setup_times = measure_setup(args.workload, args.seed)
            passes, rss_mb = measure(args.workload, args.seed, args.seconds)
            j = judge(args.workload, args.seed, passes)
            metrics, extra = end_to_end(passes, setup_times, rss_mb)
            units = {name: unit for name, unit, _, _ in END_TO_END}
            notes = {}
        result = report(args.workload, args.seed, passes, j, metrics, units, notes, extra)
    finally:
        shutil.rmtree(work_dir(args.workload), ignore_errors=True)
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
