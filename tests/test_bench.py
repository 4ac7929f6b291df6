"""bench/run.py: its jobs, its spawned runs and its round schedule."""

import importlib.util
import json
import os
import platform
import resource
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
    runs = [bench.run_spawned(job.id, str(ROOT / "src")) for _ in range(2)]
    record = bench.summarize(job.id, runs)  # refuses runs that disagree
    assert (record["exit_code"], record["cells"]) == (job.exit_code, runs[1]["cells"])
    assert record["cells"] == {"scaled scan": 526} and record["sha256"] == runs[1]["sha256"]

    # the digest is that of the document the CLI prints, whatever its wall time
    stdout = subprocess.run([sys.executable, "-m", "missingdigits", *job.argv],
                            capture_output=True, text=True, check=True).stdout
    doc = json.loads(stdout)
    assert bench.digest(doc) == record["sha256"]
    doc["manifest"]["wall_time_s"] += 123.0
    assert bench.digest(doc) == record["sha256"]
    doc["result"]["count"] += 1
    assert bench.digest(doc) != record["sha256"]


def test_child_runs_time_the_cli_from_spawn_to_exit():
    job = bench.JOBS["gr-scaled"]
    run = bench.run_spawned(job.id, str(ROOT / "src"))
    assert run["spawn_s"] > 0 and run["spawn_cpu_s"] > 0
    assert run["spawn_s"] > run["wall_time_s"] > 0  # start-up and imports included
    assert run["exit_code"] == job.exit_code


def test_a_run_reads_its_own_peak_rss_not_that_of_the_harness():
    held = b"\1" * (100 << 20)  # every page written, so this process peaks past 100 MiB
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss >= 100 << 10
    run = bench.run_spawned("gr-scaled", str(ROOT / "src"))
    assert len(held) == 100 << 20 and 0 < run["peak_rss_mib"] < 25


RUN = {"wall_time_s": 0.1, "peak_rss_mib": 40.0, "spawn_s": 0.2, "spawn_cpu_s": 0.1,
       "exit_code": 0, "cells": {"scaled scan": 526}, "sha256": "a"}


def test_runs_that_disagree_or_exit_unexpectedly_are_refused():
    with pytest.raises(RuntimeError, match="gr-scaled"):
        bench.summarize("gr-scaled", [RUN, dict(RUN, cells={"scaled scan": 527})])
    with pytest.raises(RuntimeError, match="gr-scaled"):
        bench.summarize("gr-scaled", [RUN, dict(RUN, sha256="b")])
    two = dict(RUN, cells={"a": 1, "b": 2})  # labels agree in any order
    bench.summarize("gr-scaled", [two, dict(two, cells={"b": 2, "a": 1})])
    with pytest.raises(RuntimeError, match="expected one, with exit code 2"):
        bench.summarize("cert-l1", [RUN])


def test_records_give_the_median_and_quartiles_of_the_seconds():
    runs = [dict(RUN, wall_time_s=s) for s in (0.5, 0.1, 0.4, 0.2, 0.3)]
    record = bench.summarize("gr-scaled", runs)
    assert record["wall_time_s"] == [0.5, 0.1, 0.4, 0.2, 0.3]
    assert (record["q1_wall_time_s"], record["median_wall_time_s"],
            record["q3_wall_time_s"]) == (0.2, 0.3, 0.4)
    # between two runs, linear interpolation
    record = bench.summarize("gr-scaled", [dict(RUN, wall_time_s=1.0),
                                           dict(RUN, wall_time_s=2.0)])
    assert (record["q1_wall_time_s"], record["median_wall_time_s"],
            record["q3_wall_time_s"]) == (1.25, 1.5, 1.75)
    record = bench.summarize("gr-scaled", [RUN])
    assert (record["q1_wall_time_s"] == record["median_wall_time_s"]
            == record["q3_wall_time_s"] == 0.1)


def test_records_give_the_spawn_to_exit_seconds_with_their_quartiles():
    runs = [dict(RUN, spawn_s=s, spawn_cpu_s=c)
            for s, c in ((0.35, 0.3), (0.15, 0.1), (0.3, 0.25), (0.2, 0.15), (0.25, 0.2))]
    record = bench.summarize("gr-scaled", runs)
    assert record["spawn_s"] == [0.35, 0.15, 0.3, 0.2, 0.25]
    assert (record["q1_spawn_s"], record["median_spawn_s"], record["q3_spawn_s"]) == (
        0.2, 0.25, 0.3)
    assert record["spawn_cpu_s"] == [0.3, 0.1, 0.25, 0.15, 0.2]
    assert (record["q1_spawn_cpu_s"], record["median_spawn_cpu_s"],
            record["q3_spawn_cpu_s"]) == (0.15, 0.2, 0.25)
    assert record["median_wall_time_s"] == 0.1  # the CLI's own seconds stay apart


def test_records_give_the_median_peak_rss_of_the_runs():
    runs = [dict(RUN, peak_rss_mib=m) for m in (77.5, 82.7, 77.6)]
    assert bench.summarize("gr-scaled", runs)["peak_rss_mib"] == 77.6  # not the outlier
    runs = [dict(RUN, peak_rss_mib=m) for m in (40.0, 41.0)]
    assert bench.summarize("gr-scaled", runs)["peak_rss_mib"] == 40.5


def test_records_keep_every_run_peak_rss_with_its_quartiles():
    runs = [dict(RUN, peak_rss_mib=m) for m in (82.44, 77.2, 77.5, 82.7, 77.6)]
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
    # a tree from which a process would not import missingdigits is refused
    (tmp_path / "empty").mkdir()
    with pytest.raises(RuntimeError, match="empty: a run would not import missingdigits"):
        bench.compile_trees({"empty": str(tmp_path / "empty")})


# The gate: every job's exit code, cells and digest as REFERENCE records
# them for TREE.  A change that moves a job records a new BENCH_*.json
# with bench/run.py, whose differ list names the jobs it meant to move.
REFERENCE = ROOT / "BENCH_37.json"
TREE = "head"
recorded = json.loads(REFERENCE.read_text())


@pytest.fixture(scope="module")
def job_runs():
    """Every job's spawned run, with the manifest that the job printed."""
    printed, digest = [], bench.digest
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bench, "digest", lambda doc: printed.append(doc) or digest(doc))
        return {job_id: dict(bench.run_spawned(job_id, str(ROOT / "src")),
                             manifest=printed.pop()["manifest"]) for job_id in bench.JOBS}


def test_reference_holds_every_job_at_seed_1_and_differs_on_none():
    assert recorded["seed"] == 1
    exit_codes = {job_id: record["exit_code"] for job_id, record in recorded["trees"][TREE].items()}
    assert exit_codes == {job_id: job.exit_code for job_id, job in bench.JOBS.items()}
    assert recorded["differ"] == []


@pytest.mark.parametrize("job_id", bench.JOBS)
def test_jobs_keep_their_exit_code_and_cells(job_runs, job_id):
    record = recorded["trees"][TREE][job_id]
    assert (job_runs[job_id]["exit_code"], job_runs[job_id]["cells"]) == (
        record["exit_code"], record["cells"])
    cost = job_runs[job_id]["manifest"]["cost"]
    assert cost["spent"] == sum(record["cells"].values()) <= job_runs[job_id]["manifest"]["budget"]


@pytest.mark.parametrize("job_id", bench.JOBS)
def test_jobs_keep_their_document(job_runs, job_id):
    import numpy as np

    made_on = (recorded["machine"]["python"], recorded["machine"]["numpy"])
    if (platform.python_version(), np.__version__) != made_on:
        pytest.skip(f"digests were recorded on Python {made_on[0]} and numpy {made_on[1]}; "
                    f"this is Python {platform.python_version()} and numpy {np.__version__}")
    assert job_runs[job_id]["sha256"] == recorded["trees"][TREE][job_id]["sha256"]
