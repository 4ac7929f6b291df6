"""Time the benchmark's CLI jobs on several source trees, alternated run
by run, and check that the trees print the same output.

    python bench/run.py --tree NAME=SRC [--tree NAME=SRC ...] --out BENCH_N.json [--repeat R]

The jobs are the 22 of `benchmark/workloads.py` at seed 1; SRC holds a
tree's `missingdigits` package (a checkout's `src/`).  Before the first
round every SRC is copied, without bytecode caches, to a directory of
its own under one temporary parent, so that all trees are timed from
equivalent places, and each copy is byte-compiled, so that every run
imports cached bytecode as it would from an installed package; a
process given a copy on PYTHONPATH must import `missingdigits` from it.
The copies are removed at the end.  Each of R rounds (default 10, so
that medians and quartiles rest on ten alternated runs) runs every tree
once per job, back to back, in an order reversed every round, so drift
of the host's speed falls on all trees alike.  A run is the job as a
user runs it, `python -m missingdigits ARGV` from the tree's copy,
started by `SPAWNER`, which reports the run's seconds from spawn to
exit (start-up and imports included), and from `os.wait4` its CPU
seconds, exit code and peak RSS.  Per tree and job OUT records these
seconds, CPU seconds and peak RSS of each run, and the CLI's own
seconds (the printed `manifest.wall_time_s`, whose span the
`missingdigits.cli` module docstring states), each with its median and
quartiles (linear interpolation, as `numpy.percentile`); and the exit
code, the budget cells spent by label, as the printed manifest's
`cost.cells` gives them, and a SHA-256 of the JSON printed, without
`manifest.wall_time_s`.  A tree's runs must agree on these last three,
with the exit code `workloads.py` expects.  Jobs on which trees differ
in exit code, cells or digest are listed under `differ`, and then the
command exits 1.  Cells and digests are exact checks; seconds and peak
RSS only show the trend.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))

import workloads  # noqa: E402

JOBS = {job.id: job for job in workloads.all_jobs(1)}
OUTCOME = ("exit_code", "cells", "sha256")  # what every run of a job must repeat

# Run as `python -S -c SPAWNER ARGV`: spawns `python -m missingdigits
# ARGV` before it imports anything, and after the run's own output
# prints, one a line, its seconds from spawn to exit, CPU seconds, exit
# code and peak RSS in KiB.  A process inherits at exec the memory
# high-water mark of the process that spawned it, so a run's `ru_maxrss`
# reads no less than its spawner's.  A fresh `python -S` peaks at about
# 8 MiB (13 MiB with `site`), whatever the harness holds: from a harness
# at 157 MiB, runs so spawned read gr-scaled 14.5 MiB, dim-e48 14.3,
# feval-1d 33.6, ld-generic 39.8 and mc-radial 37.2, each its own peak.
SPAWNER = """
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "missingdigits", *sys.argv[1:]],
                     os.environ)
_, status, usage = os.wait4(pid, 0)
print("", time.perf_counter() - start, usage.ru_utime + usage.ru_stime,
      os.waitstatus_to_exitcode(status), usage.ru_maxrss, sep="\\n")
"""


def outcome(record: dict) -> str:
    """A record's exit code, cells and digest as sorted JSON, in which cells
    by label compare whole."""
    return json.dumps([record[k] for k in OUTCOME], sort_keys=True)


def digest(doc: dict) -> str:
    """SHA-256 of a CLI JSON document without its wall time."""
    manifest = {k: v for k, v in doc["manifest"].items() if k != "wall_time_s"}
    return hashlib.sha256(json.dumps({**doc, "manifest": manifest},
                                     sort_keys=True).encode()).hexdigest()


def tree_env(src: str) -> dict:
    """This process's environment with src first on PYTHONPATH."""
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def run_spawned(job_id: str, src: str) -> dict:
    """One run of a job from the tree at src, as a user runs it."""
    spawner = subprocess.run([sys.executable, "-S", "-c", SPAWNER, *JOBS[job_id].argv],
                             capture_output=True, text=True, env=tree_env(src))
    if spawner.returncode != 0:
        raise RuntimeError(f"{job_id}: the spawner failed:\n{spawner.stderr}")
    stdout, seconds, cpu_s, exit_code, rss_kib = spawner.stdout.rsplit("\n", 5)[:5]
    try:
        manifest = (doc := json.loads(stdout))["manifest"]
    except ValueError:
        raise RuntimeError(f"{job_id}: exit {exit_code} without a JSON document:\n"
                           f"{spawner.stderr}") from None
    return {"spawn_s": float(seconds), "spawn_cpu_s": float(cpu_s),
            "peak_rss_mib": int(rss_kib) / 1024, "wall_time_s": manifest["wall_time_s"],
            "exit_code": int(exit_code), "cells": manifest["cost"]["cells"],
            "sha256": digest(doc)}


def copy_trees(trees: dict, parent: Path) -> dict:
    """Copy each tree's SRC to parent/<i> without its `__pycache__`
    directories; returns the copies by tree name."""
    return {name: str(shutil.copytree(src, parent / str(i),
                                      ignore=shutil.ignore_patterns("__pycache__")))
            for i, (name, src) in enumerate(trees.items())}


def compile_trees(copies: dict) -> None:
    """Byte-compile every copy for this interpreter, so that its runs read
    bytecode (PYTHONDONTWRITEBYTECODE stops only the writing), and check
    that a process given the copy imports `missingdigits` from it."""
    for name, copy in copies.items():
        if not compileall.compile_dir(copy, quiet=1):
            raise RuntimeError(f"{name}: cannot byte-compile {copy}")
        module = subprocess.run(
            [sys.executable, "-c", "import missingdigits; print(missingdigits.__file__)"],
            capture_output=True, text=True, env=tree_env(copy)).stdout.strip()
        if not module or not Path(module).resolve().is_relative_to(Path(copy).resolve()):
            raise RuntimeError(f"{name}: a run would not import missingdigits from {copy}")


def schedule(trees: list, repeat: int) -> list:
    """The tree order of each round: every tree once, reversed every round."""
    return [trees if r % 2 == 0 else trees[::-1] for r in range(repeat)]


def summarize(job_id: str, runs: list) -> dict:
    """The record of one tree's runs of a job, which must agree exactly."""
    exact = {outcome(r) for r in runs}
    if len(exact) != 1 or runs[0]["exit_code"] != JOBS[job_id].exit_code:
        raise RuntimeError(f"{job_id}: runs give (exit code, cells, digest) {sorted(exact)}; "
                           f"expected one, with exit code {JOBS[job_id].exit_code}")

    def quartiles(key: str, digits: int) -> list:
        return [round(q, digits) for q in
                np.percentile([r[key] for r in runs], (25, 50, 75)).tolist()]

    q1, median, q3 = quartiles("wall_time_s", 4)
    rss_q1, rss_median, rss_q3 = quartiles("peak_rss_mib", 1)
    spawn_q1, spawn_median, spawn_q3 = quartiles("spawn_s", 4)
    cpu_q1, cpu_median, cpu_q3 = quartiles("spawn_cpu_s", 4)
    return {"wall_time_s": [round(r["wall_time_s"], 4) for r in runs],
            "q1_wall_time_s": q1, "median_wall_time_s": median, "q3_wall_time_s": q3,
            "peak_rss_mib_runs": [round(r["peak_rss_mib"], 1) for r in runs],
            "q1_rss_mib": rss_q1, "peak_rss_mib": rss_median, "q3_rss_mib": rss_q3,
            "spawn_s": [round(r["spawn_s"], 4) for r in runs],
            "q1_spawn_s": spawn_q1, "median_spawn_s": spawn_median, "q3_spawn_s": spawn_q3,
            "spawn_cpu_s": [round(r["spawn_cpu_s"], 4) for r in runs],
            "q1_spawn_cpu_s": cpu_q1, "median_spawn_cpu_s": cpu_median,
            "q3_spawn_cpu_s": cpu_q3,
            **{k: runs[0][k] for k in OUTCOME}}


def machine() -> dict:
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
    args = parser.parse_args(argv)
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
                    runs[name].append(run_spawned(job_id, copies[name]))
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
