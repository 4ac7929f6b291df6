"""Repository benchmark: runs the `missingdigits` CLI the way users do.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace {0|1}

Run from the root of a source checkout.  The package is imported from
its `src/` tree.  The load is a closed loop with one client: the jobs of
a pass run one after another, one process each, and a job starts only
when the previous one has exited.  Jobs pass no `--workers`, so they
measure the CLI default (`os.cpu_count()`).  Each job is timed from
spawn to exit, CPU and peak RSS come from its `os.wait4` rusage, and its
output is checked (checks.py); a job fails on an unexpected exit code,
stdout that is not one JSON document, or a failed check.

--trace 0 repeats passes over the workload's jobs while one more pass
would still end within S seconds (at least one pass runs), and reports
the end-to-end metrics: pass_s, cpu_s, peak_rss_mb (medians over passes)
and setup_s (median cold `import missingdigits.cli`).

--trace 1 runs every job of every workload twice through
trace_entry.py, untraced and then traced, for as many passes as fit in S
seconds, and reports the per-layer metrics of layers.py, the per-job
wall times of the untraced pass and the tracing overhead.  It covers
all workloads so that every per-layer metric is measured in each traced
run; the result file breaks them down by workload.  One such pass takes
45-60 s on two cores, so with S below that a traced run makes
exactly one pass, runs past S, and each per-layer value is one sample.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it and the result file under
.bench_out/results/ hold the full report with the run's context.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
OUT_DIR = ".bench_out"


class BenchError(Exception):
    """The benchmark cannot run here (no package source, a broken setup)."""


class Runner:
    """Spawns jobs from the checkout root with `src` on PYTHONPATH."""

    def __init__(self, root: Path, refs: dict):
        self.root = root
        self.refs = refs
        self.out = root / OUT_DIR
        (self.out / "jobs").mkdir(parents=True, exist_ok=True)
        (self.out / "results").mkdir(parents=True, exist_ok=True)
        path = [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

    def spawn(self, argv: list, stdout_path: Path) -> dict:
        """Run argv to exit; wall from spawn to exit, rusage of the child."""
        err_path = stdout_path.with_suffix(".err")
        with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.root,
                                    env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"code": proc.returncode, "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mib": usage.ru_maxrss / 1024.0}

    def setup_time(self) -> float:
        """Cold start: a fresh interpreter through `import missingdigits.cli`."""
        run = self.spawn([sys.executable, "-c", "import missingdigits.cli"],
                         self.out / "jobs" / "setup.out")
        if run["code"] != 0:
            err = (self.out / "jobs" / "setup.err").read_text(errors="replace")
            raise BenchError(f"cannot import the package from src/: {err.strip()[-400:]}")
        return run["wall_s"]

    def run_job(self, job, entry: str | None = None, traced: bool = False) -> dict:
        """One job as a user runs it, or through trace_entry.py when
        entry is the path its record should go to."""
        stdout_path = self.out / "jobs" / f"{job.id}.out"
        if entry is None:
            argv = [sys.executable, "-m", "missingdigits", *job.argv]
        else:
            argv = [sys.executable, str(HERE / "trace_entry.py"), entry, job.id,
                    "1" if traced else "0", "--", *job.argv]
        run = self.spawn(argv, stdout_path)
        run["problems"] = checks.check(job, run["code"], stdout_path.read_bytes(), self.refs)
        if run["problems"]:
            err = stdout_path.with_suffix(".err").read_text(errors="replace").strip()
            if err:
                run["problems"].append("stderr: " + err[-400:])
        run["job"] = job.id
        return run


# ------------------------------------------------------------ statistics


def summary(values: list) -> dict:
    values = sorted(values)
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def metric(unit: str, values: list) -> dict:
    s = summary(values)
    return {"value": s["median"], "unit": unit, **s}


# ------------------------------------------------------------ modes


def another_pass_overruns(t0: float, done: int, seconds: float) -> bool:
    """Whether one more pass, as long as the average so far, would end
    after `seconds`; at least one pass always runs."""
    elapsed = time.monotonic() - t0
    return elapsed * (done + 1) / done > seconds


def untraced(runner: Runner, workload: str, seed: int, seconds: float, report: dict):
    """Passes over the workload's jobs as users run them."""
    jobs = workloads.jobs(workload, seed)
    passes, t0 = [], time.monotonic()
    while True:
        passes.append([runner.run_job(job) for job in jobs])
        if another_pass_overruns(t0, len(passes), seconds):
            break
    walls = [sum(r["wall_s"] for r in p) for p in passes]
    runs = [r for p in passes for r in p]
    report["passes"] = [{r["job"]: [r["wall_s"], r["cpu_s"], r["rss_mib"]] for r in p}
                        for p in passes]
    report["metrics"].update({
        "pass_s": metric("s", walls),
        "cpu_s": metric("s", [sum(r["cpu_s"] for r in p) for p in passes]),
        "peak_rss_mb": metric("MiB", [max(r["rss_mib"] for r in p) for p in passes]),
    })
    report["jobs"] = {job.id: {key: summary([r[key] for r in runs if r["job"] == job.id])
                               for key in ("wall_s", "cpu_s", "rss_mib")}
                      for job in jobs}
    return runs


NO_RECORD = {"inproc_s": 0.0, "spans": [],
             "counters": {"budget.charge.calls": 0, "graham.digits_ok.calls": 0,
                          "budget.spent_ratio_max": 0.0}}


def traced(runner: Runner, seed: int, seconds: float, report: dict):
    """Passes over every workload's jobs, each job untraced and then traced."""
    by_workload = {w: workloads.jobs(w, seed) for w in workloads.WORKLOADS}
    jobs = [job for js in by_workload.values() for job in js]
    rec_dir = runner.out / "trace"
    rec_dir.mkdir(exist_ok=True)
    runs, passes, t0 = [], [], time.monotonic()

    def entry_run(job, traced_: bool):
        path = rec_dir / f"{job.id}.{'traced' if traced_ else 'plain'}.json"
        path.unlink(missing_ok=True)
        run = runner.run_job(job, str(path), traced_)
        runs.append(run)
        if path.exists():
            return run, json.loads(path.read_text())
        run["problems"].append("the job wrote no trace record")
        return run, NO_RECORD

    while True:
        walls, plain, records = {}, {}, {}
        # Each job runs untraced and then traced, back to back, so that
        # drift in the machine's speed hits both sides of the overhead.
        for job in jobs:
            run, plain[job.id] = entry_run(job, False)
            walls[job.id] = run["wall_s"]
            records[job.id] = entry_run(job, True)[1]
        passes.append((walls, plain, records))
        if another_pass_overruns(t0, len(passes), seconds):
            break

    def pass_metrics(plain, records, ids):
        out = layers.layer_metrics([records[i] for i in ids])
        inproc_plain = sum(plain[i]["inproc_s"] for i in ids)
        inproc_traced = sum(records[i]["inproc_s"] for i in ids)
        out["trace.overhead_ratio"] = layers.ratio(inproc_traced, inproc_plain) - 1.0
        return out

    def combine(per_pass: list) -> dict:
        return {k: metric(layers.UNITS[k], [m[k] for m in per_pass]) for k in per_pass[0]}

    every = [pass_metrics(p, r, [job.id for job in jobs]) for _, p, r in passes]
    report["metrics"].update(combine(every))
    for job in jobs:
        report["metrics"][f"job.{job.id}.wall_s"] = metric("s", [w[job.id] for w, _, _ in passes])
    report["per_workload"] = {
        w: {k: v["value"] for k, v in combine(
            [pass_metrics(p, r, [j.id for j in js]) for _, p, r in passes]).items()}
        for w, js in by_workload.items()}
    report["exact_counts"] = [{k: m[k] for k in layers.EXACT} for m in every]
    return runs


# ------------------------------------------------------------ context


def context(root: Path, args) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": commit, "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)), "os_cpu_count": os.cpu_count(),
        "cli_default_workers": os.cpu_count() or 1,
        "python": platform.python_version(), "numpy": np.__version__,
        "load_model": "closed loop, one client, one process per job",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "missingdigits" / "cli.py").is_file():
        print("run.py: no package source at src/missingdigits; run from the root of a "
              "missingdigits checkout", file=sys.stderr)
        return 2
    refs = json.loads((HERE / "references.json").read_text())
    runner = Runner(root, refs)
    report = {"context": context(root, args), "metrics": {}}
    try:
        # Traced runs report no setup_s; their one cold import only makes
        # a broken src/ fail before any job runs.
        setup = [runner.setup_time() for _ in range(1 if args.trace else SETUP_SAMPLES)]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        runs = traced(runner, args.seed, args.seconds, report)
    else:
        runs = untraced(runner, args.workload, args.seed, args.seconds, report)
        report["metrics"]["setup_s"] = metric("s", setup)

    failures = [{"job": r["job"], "problems": r["problems"]} for r in runs if r["problems"]]
    report["attempted"], report["failed"] = len(runs), len(failures)
    report["failed_ratio"] = {"value": len(failures) / len(runs), "unit": "1"}
    report["failures"] = failures
    report["sample_counts"] = {k: v["n"] for k, v in report["metrics"].items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (runner.out / "results" / name).write_text(json.dumps(report, indent=1, sort_keys=True))
    for f in failures:
        print(f"FAILED {f['job']}: {'; '.join(f['problems'])}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failures, "attempted": len(runs), "failed": len(failures),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
