"""bench/run.py: its jobs, its child runs and its round schedule."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench()


def test_jobs_are_the_benchmark_workloads_at_seed_1():
    assert Path(bench.workloads.__file__).resolve() == ROOT / "benchmark" / "workloads.py"
    assert list(bench.JOBS.values()) == bench.workloads.all_jobs(1)
    assert len(bench.JOBS) == 22


def test_child_runs_agree_and_digest_the_cli_document_without_wall_time():
    job = bench.JOBS["gr-scaled"]
    runs = [bench.run_child(job.id, str(ROOT / "src")) for _ in range(2)]
    record = bench.summarize(job.id, runs)  # refuses runs that disagree
    assert (record["exit_code"], record["cells"]) == (job.exit_code, runs[1]["cells"])
    assert record["cells"] > 0 and record["sha256"] == runs[1]["sha256"]

    # the child's digest is that of the document the CLI prints, whatever its wall time
    stdout = subprocess.run([sys.executable, "-m", "missingdigits", *job.argv],
                            capture_output=True, text=True, check=True).stdout
    assert bench.digest(stdout) == record["sha256"]
    doc = json.loads(stdout)
    doc["manifest"]["wall_time_s"] += 123.0
    assert bench.digest(json.dumps(doc)) == record["sha256"]
    doc["result"]["count"] += 1
    assert bench.digest(json.dumps(doc)) != record["sha256"]


def test_child_runs_time_the_cli_from_spawn_to_exit():
    job = bench.JOBS["gr-scaled"]
    run = bench.run_child(job.id, str(ROOT / "src"))
    # agreed() checked the spawned run's exit code and digest against cli.main's
    assert "spawn_exit_code" not in run and "spawn_sha256" not in run
    assert run["spawn_s"] > 0 and run["spawn_cpu_s"] > 0
    assert run["spawn_s"] > run["seconds"]  # start-up and imports included
    spawned = bench.run_spawned(job.id)
    assert (spawned["spawn_exit_code"], spawned["spawn_sha256"]) == (
        job.exit_code, run["sha256"])


def test_a_spawned_run_that_prints_otherwise_is_refused():
    run = {"seconds": 0.1, "peak_rss_mib": 40.0, "spawn_s": 0.2, "spawn_cpu_s": 0.1,
           "exit_code": 0, "cells": 526, "sha256": "a",
           "spawn_exit_code": 0, "spawn_sha256": "a"}
    assert bench.agreed("gr-scaled", run) == {k: v for k, v in run.items()
                                              if k not in ("spawn_exit_code", "spawn_sha256")}
    with pytest.raises(RuntimeError, match="gr-scaled: `python -m missingdigits` and "
                                           "cli.main differ in sha256"):
        bench.agreed("gr-scaled", dict(run, spawn_sha256="b"))
    with pytest.raises(RuntimeError, match="differ in exit_code"):
        bench.agreed("gr-scaled", dict(run, spawn_exit_code=3))


def test_runs_that_disagree_or_exit_unexpectedly_are_refused():
    run = {"seconds": 0.1, "peak_rss_mib": 40.0, "spawn_s": 0.2, "spawn_cpu_s": 0.1,
           "exit_code": 0, "cells": 526, "sha256": "a"}
    with pytest.raises(RuntimeError, match="gr-scaled"):
        bench.summarize("gr-scaled", [run, dict(run, cells=527)])
    with pytest.raises(RuntimeError, match="expected one, with exit code 2"):
        bench.summarize("cert-l1", [run])


def test_records_give_the_median_and_quartiles_of_the_seconds():
    run = {"seconds": 0.1, "peak_rss_mib": 40.0, "spawn_s": 0.2, "spawn_cpu_s": 0.1,
           "exit_code": 0, "cells": 526, "sha256": "a"}
    runs = [dict(run, seconds=s) for s in (0.5, 0.1, 0.4, 0.2, 0.3)]
    record = bench.summarize("gr-scaled", runs)
    assert record["seconds"] == [0.5, 0.1, 0.4, 0.2, 0.3]
    assert (record["q1_s"], record["median_s"], record["q3_s"]) == (0.2, 0.3, 0.4)
    # between two runs, linear interpolation
    record = bench.summarize("gr-scaled", [dict(run, seconds=1.0), dict(run, seconds=2.0)])
    assert (record["q1_s"], record["median_s"], record["q3_s"]) == (1.25, 1.5, 1.75)
    record = bench.summarize("gr-scaled", [run])
    assert record["q1_s"] == record["median_s"] == record["q3_s"] == 0.1


def test_records_give_the_spawn_to_exit_seconds_with_their_quartiles():
    run = {"seconds": 0.1, "peak_rss_mib": 40.0, "spawn_s": 0.2, "spawn_cpu_s": 0.1,
           "exit_code": 0, "cells": 526, "sha256": "a"}
    runs = [dict(run, spawn_s=s, spawn_cpu_s=c)
            for s, c in ((0.35, 0.3), (0.15, 0.1), (0.3, 0.25), (0.2, 0.15), (0.25, 0.2))]
    record = bench.summarize("gr-scaled", runs)
    assert record["spawn_s"] == [0.35, 0.15, 0.3, 0.2, 0.25]
    assert (record["q1_spawn_s"], record["median_spawn_s"], record["q3_spawn_s"]) == (
        0.2, 0.25, 0.3)
    assert record["spawn_cpu_s"] == [0.3, 0.1, 0.25, 0.15, 0.2]
    assert (record["q1_spawn_cpu_s"], record["median_spawn_cpu_s"],
            record["q3_spawn_cpu_s"]) == (0.15, 0.2, 0.25)
    assert record["median_s"] == 0.1  # the in-process seconds stay apart


def test_records_give_the_median_peak_rss_of_the_runs():
    run = {"seconds": 0.1, "peak_rss_mib": 40.0, "spawn_s": 0.2, "spawn_cpu_s": 0.1,
           "exit_code": 0, "cells": 526, "sha256": "a"}
    runs = [dict(run, peak_rss_mib=m) for m in (77.5, 82.7, 77.6)]
    assert bench.summarize("gr-scaled", runs)["peak_rss_mib"] == 77.6  # not the outlier
    runs = [dict(run, peak_rss_mib=m) for m in (40.0, 41.0)]
    assert bench.summarize("gr-scaled", runs)["peak_rss_mib"] == 40.5


def test_records_keep_every_run_peak_rss_with_its_quartiles():
    run = {"seconds": 0.1, "peak_rss_mib": 40.0, "spawn_s": 0.2, "spawn_cpu_s": 0.1,
           "exit_code": 0, "cells": 526, "sha256": "a"}
    runs = [dict(run, peak_rss_mib=m) for m in (82.44, 77.2, 77.5, 82.7, 77.6)]
    record = bench.summarize("gr-scaled", runs)
    assert record["peak_rss_mib_runs"] == [82.4, 77.2, 77.5, 82.7, 77.6]
    assert (record["q1_rss_mib"], record["peak_rss_mib"], record["q3_rss_mib"]) == (
        77.5, 77.6, 82.4)


def test_round_schedule_reverses_the_tree_order_every_round():
    assert bench.schedule(["A", "B"], 2) == [["A", "B"], ["B", "A"]]
    assert bench.schedule(["A", "B", "C"], 3) == [["A", "B", "C"], ["C", "B", "A"],
                                                  ["A", "B", "C"]]


def test_trees_are_copied_to_equivalent_places_without_bytecode(tmp_path):
    src = ROOT / "src"
    trees = {"parent": str(src), "change": str(src)}
    copies = bench.copy_trees(trees, tmp_path)
    assert list(copies) == ["parent", "change"]
    paths = [Path(c) for c in copies.values()]
    assert paths[0] != paths[1]
    assert [p.parent for p in paths] == [tmp_path, tmp_path]
    assert len(str(paths[0])) == len(str(paths[1]))
    for path in paths:
        assert not list(path.rglob("__pycache__"))
        for module in (src / "missingdigits").glob("*.py"):
            assert (path / "missingdigits" / module.name).read_bytes() == module.read_bytes()
    # a child imports from the copy it is given, which run_child checks
    run = bench.run_child("gr-scaled", copies["change"])
    assert run["exit_code"] == bench.JOBS["gr-scaled"].exit_code


def test_copies_are_compiled_and_their_runs_import_the_bytecode(tmp_path):
    copies = bench.copy_trees({"change": str(ROOT / "src")}, tmp_path)
    bench.compile_trees(copies)
    package = Path(copies["change"]) / "missingdigits"
    for module in package.glob("*.py"):
        assert list((package / "__pycache__").glob(f"{module.stem}.*.pyc")), module.name
    # a run loads its modules from that bytecode, with or without
    # PYTHONDONTWRITEBYTECODE, rather than compiling their sources
    verbose = subprocess.run([sys.executable, "-v", "-c", "import missingdigits.cli"],
                             capture_output=True, text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=copies["change"],
                                      PYTHONDONTWRITEBYTECODE="1")).stderr
    for module in ("__init__", "cli", "budget", "errors"):
        assert f"code object from '{package / '__pycache__' / module}." in verbose, module
