"""Per-layer timing of the radial tube profile, recorded as BENCH_*.json.

    PYTHONPATH=src python bench/run.py --label NAME --out BENCH_N.json [--repeat R]

Times `radial_tube_profile` in process on the three tube cases of the
`counting` benchmark workload (`benchmark/workloads.py`) and records, per
case, the wall seconds of each of R runs, their median, the budget cells
one run spends and a SHA-256 of its lower/upper enclosure arrays.  The
package under test is whatever `missingdigits` PYTHONPATH imports, so
pointing it at the `src/` of another checkout records that commit.  Each
call merges one entry under LABEL into OUT, so one file holds several
commits side by side.

Cells and digests are deterministic: equal cells and equal digests across
entries are an exact check.  Seconds depend on the machine and its load
and only show the trend.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import missingdigits
from missingdigits import EvalBudget, parse_spec, radial_tube_profile

C3 = "factor { base = 3; digits = {0,2}; }"
L10 = "factor { base = 10; digits = 0..9; }"
CARPET = ("factor { base = 3; n = 2; digits = "
          "{(0,0),(1,0),(2,0),(0,1),(2,1),(0,2),(1,2),(2,2)}; }")

# name -> (spec, viewpoint, half-width, angles), as in the counting workload
CASES = {
    "tube-carpet": (CARPET, (-1.0, -1.0), 0.002, 400),
    "tube-c3sq": (f"{C3} {C3}", (-1.0, -1.0), 0.001, 800),
    "tube-leb10": (f"{L10} {L10}", (-1.0, -1.0), 0.01, 800),
}


def run_case(spec, viewpoint, delta, angles, repeat) -> dict:
    spec = parse_spec(spec)
    seconds = []
    for _ in range(repeat):
        budget = EvalBudget()
        start = time.perf_counter()
        profile = radial_tube_profile(spec, viewpoint, delta, angles, budget=budget)
        seconds.append(time.perf_counter() - start)
    digest = hashlib.sha256(profile.metadata["lower"].tobytes()
                            + profile.metadata["upper"].tobytes()).hexdigest()
    return {"seconds": [round(s, 4) for s in seconds],
            "median_s": round(statistics.median(seconds), 4),
            "cells": budget.spent,
            "enclosure_sha256": digest}


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
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    doc = json.loads(args.out.read_text()) if args.out.exists() else {"entries": {}}
    entry = {"package_version": missingdigits.__version__, "machine": machine(),
             "cases": {}}
    for name, case in CASES.items():
        entry["cases"][name] = run_case(*case, args.repeat)
        print(name, entry["cases"][name], file=sys.stderr)
    doc["entries"][args.label] = entry
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
