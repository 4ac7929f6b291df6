"""Time the benchmark's CLI jobs on several source trees, alternated run
by run, and check that the trees print the same output.

    python bench/run.py --tree NAME=SRC [--tree NAME=SRC ...] --out BENCH_N.json [--repeat R]

The jobs are the 22 of `benchmark/workloads.py` at seed 1; SRC holds a
tree's `missingdigits` package (a checkout's `src/`).  Before the first
round every SRC is copied, without bytecode caches, to a directory of
its own under one temporary parent, so that all trees are timed from
equivalent places, and each copy is byte-compiled, so that every run
imports cached bytecode as it would from an installed package; the
copies are removed at the end.  Each of R rounds
(default 10, so that medians and quartiles rest on ten alternated runs)
runs every tree once per job, back to back, in an order reversed every
round, so drift of the host's speed falls on all trees alike.  Each run
is a child process that imports `missingdigits.cli` from its tree and
times `cli.main(argv)` (the in-process seconds), with numpy not yet
imported, so that the run loads it as the CLI does (with one BLAS
thread unless the environment sets a count); the child then starts
`python -m missingdigits ARGV` from the same tree, timed from spawn to
exit with its CPU seconds from `os.wait4` (the spawn-to-exit seconds,
start-up and imports included), whose exit code and printed JSON must
equal those of `cli.main`.  Per tree and job OUT records the
in-process seconds, the peak RSS (import included) and the
spawn-to-exit seconds and CPU seconds of each run, each with its
median and quartiles (linear interpolation, as `numpy.percentile`),
the exit code, the budget cells spent by label, as the printed
manifest's `cost.cells` gives them, a SHA-256 of the JSON printed,
without `manifest.wall_time_s`, and whether `cli.main` left numpy
loaded.  A tree's runs must agree on the last four, with the exit code
`workloads.py` expects.  Jobs on which trees differ in exit code, cells
or digest are listed under `differ`, and then the command exits 1.
Cells and digests are exact checks; seconds and peak RSS only show the
trend.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))

import workloads  # noqa: E402

JOBS = {job.id: job for job in workloads.all_jobs(1)}
OUTCOME = ("exit_code", "cells", "sha256")  # what every run of a job must repeat


def outcome(record: dict, keys: tuple = OUTCOME) -> str:
    """A record's values at keys as sorted JSON, in which cells by label compare whole."""
    return json.dumps([record[k] for k in keys], sort_keys=True)


def digest(stdout: str) -> str:
    """SHA-256 of a CLI JSON document without its wall time."""
    doc = json.loads(stdout)
    del doc["manifest"]["wall_time_s"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def run_once(job_id: str) -> dict:
    """One timed run of a job through `cli.main` in this process."""
    from missingdigits import cli

    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            exit_code = cli.main(list(JOBS[job_id].argv))
        except SystemExit as exc:
            exit_code = exc.code
    seconds = time.perf_counter() - start
    stdout = out.getvalue()
    return {"seconds": seconds, "exit_code": exit_code, "module": cli.__file__,
            "cells": json.loads(stdout)["manifest"]["cost"]["cells"], "sha256": digest(stdout),
            "numpy_loaded": "numpy" in sys.modules,
            # kibibytes on Linux
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def run_spawned(job_id: str) -> dict:
    """One run of a job as a user runs it, `python -m missingdigits ARGV`
    in this process's environment: the seconds from spawn to exit, the
    CPU seconds of its rusage, its exit code and the digest of its
    output."""
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "missingdigits", *JOBS[job_id].argv],
                                stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode()
    return {"spawn_s": seconds, "spawn_cpu_s": usage.ru_utime + usage.ru_stime,
            "spawn_exit_code": proc.returncode, "spawn_sha256": digest(stdout)}


def agreed(job_id: str, run: dict) -> dict:
    """A child's run without its spawned run's exit code and digest,
    which must equal those of its `cli.main` run."""
    run = dict(run)
    for key in ("exit_code", "sha256"):
        if run.pop(f"spawn_{key}") != run[key]:
            raise RuntimeError(f"{job_id}: `python -m missingdigits` and cli.main differ "
                               f"in {key}")
    return run


def run_child(job_id: str, src: str) -> dict:
    """One run of a job in a fresh child process that imports from `src`:
    a `run_once` run, then a `run_spawned` one that must print the same.
    The child, not this process, reads the spawned run's output, so that
    this process's peak RSS, which every child it starts inherits, stays
    below the jobs'."""
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    child = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", job_id],
                           capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    if child.returncode != 0:
        raise RuntimeError(f"{job_id}: child failed:\n{child.stderr}")
    run = json.loads(child.stdout)
    if not Path(run.pop("module")).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"{job_id}: the child did not import missingdigits from {src}")
    return agreed(job_id, run)


def copy_trees(trees: dict, parent: Path) -> dict:
    """Copy each tree's SRC to parent/<i> without its `__pycache__`
    directories; returns the copies by tree name."""
    return {name: str(shutil.copytree(src, parent / str(i),
                                      ignore=shutil.ignore_patterns("__pycache__")))
            for i, (name, src) in enumerate(trees.items())}


def compile_trees(copies: dict) -> None:
    """Byte-compile every copy for this interpreter, so that its runs read
    bytecode (PYTHONDONTWRITEBYTECODE stops only the writing)."""
    for name, copy in copies.items():
        if not compileall.compile_dir(copy, quiet=1):
            raise RuntimeError(f"{name}: cannot byte-compile {copy}")


def schedule(trees: list, repeat: int) -> list:
    """The tree order of each round: every tree once, reversed every round."""
    return [trees if r % 2 == 0 else trees[::-1] for r in range(repeat)]


def summarize(job_id: str, runs: list) -> dict:
    """The record of one tree's runs of a job, which must agree exactly."""
    import numpy as np

    exact = {outcome(r, (*OUTCOME, "numpy_loaded")) for r in runs}
    if len(exact) != 1 or runs[0]["exit_code"] != JOBS[job_id].exit_code:
        raise RuntimeError(f"{job_id}: runs give (exit code, cells, digest, numpy loaded) "
                           f"{sorted(exact)}; expected one, with exit code "
                           f"{JOBS[job_id].exit_code}")

    def quartiles(key: str, digits: int) -> list:
        return [round(q, digits) for q in
                np.percentile([r[key] for r in runs], (25, 50, 75)).tolist()]

    q1, median, q3 = quartiles("seconds", 4)
    rss_q1, rss_median, rss_q3 = quartiles("peak_rss_mib", 1)
    spawn_q1, spawn_median, spawn_q3 = quartiles("spawn_s", 4)
    cpu_q1, cpu_median, cpu_q3 = quartiles("spawn_cpu_s", 4)
    return {"seconds": [round(r["seconds"], 4) for r in runs],
            "q1_s": q1, "median_s": median, "q3_s": q3,
            "peak_rss_mib_runs": [round(r["peak_rss_mib"], 1) for r in runs],
            "q1_rss_mib": rss_q1, "peak_rss_mib": rss_median, "q3_rss_mib": rss_q3,
            "spawn_s": [round(r["spawn_s"], 4) for r in runs],
            "q1_spawn_s": spawn_q1, "median_spawn_s": spawn_median, "q3_spawn_s": spawn_q3,
            "spawn_cpu_s": [round(r["spawn_cpu_s"], 4) for r in runs],
            "q1_spawn_cpu_s": cpu_q1, "median_spawn_cpu_s": cpu_median,
            "q3_spawn_cpu_s": cpu_q3,
            **{k: runs[0][k] for k in (*OUTCOME, "numpy_loaded")}}


def machine() -> dict:
    import numpy as np

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            model = next(line.split(":", 1)[1].strip() for line in info
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": model, "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", metavar="NAME=SRC")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--repeat", type=int, default=10)
    parser.add_argument("--child", choices=sorted(JOBS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        # the peak RSS of run_once is read before run_spawned reads an output
        print(json.dumps({**run_once(args.child), **run_spawned(args.child)}))
        return 0
    if not args.tree or args.out is None:
        parser.error("--tree and --out are required")
    trees = dict(t.partition("=")[::2] for t in args.tree)
    if len(trees) != len(args.tree) or not all(name and src for name, src in trees.items()):
        parser.error("each --tree needs a NAME=SRC of its own")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    records = {name: {} for name in trees}
    with tempfile.TemporaryDirectory(prefix="bench-trees-") as parent:
        copies = copy_trees(trees, Path(parent))
        compile_trees(copies)
        for job_id in JOBS:
            runs = {name: [] for name in trees}
            for order in schedule(list(trees), args.repeat):
                for name in order:
                    runs[name].append(run_child(job_id, copies[name]))
            for name in trees:
                records[name][job_id] = summarize(job_id, runs[name])
                print(job_id, name, records[name][job_id], file=sys.stderr)
    differ = [job_id for job_id in JOBS
              if len({outcome(records[name][job_id]) for name in trees}) != 1]
    doc = {"machine": machine(), "seed": 1, "repeat": args.repeat, "trees": records,
           "differ": differ}
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if differ:
        print("exit code, cells or output differ between trees:", *differ, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
