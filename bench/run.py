"""Per-layer timing of the tube profile and the lattice sums, recorded
as BENCH_*.json.

    PYTHONPATH=src python bench/run.py --label NAME --out BENCH_N.json [--repeat R]

Times, in process, `radial_tube_profile` on the three tube cases of the
`counting` benchmark workload and the lattice sums of its
`fourier-lattice` jobs lp-256, stripe-81 and slab-2048
(`benchmark/workloads.py`), plus `partial_sum_S_k` on C3 x C3 and
`sup_f` on the interval factor I512.  Per case it records the wall
seconds of each of R runs, their median, the budget cells one run
spends and a SHA-256 of its result: the lower/upper enclosure arrays of
a tube profile, the pickled result of the others.  The package under
test is whatever `missingdigits` PYTHONPATH imports, so pointing it at
the `src/` of another checkout records that commit.  Each call merges
one entry under LABEL into OUT, so one file holds several commits side
by side.

Cells and digests are deterministic: equal cells and equal digests across
entries are an exact check.  Seconds depend on the machine and its load
and only show the trend.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import missingdigits
from missingdigits import (EvalBudget, lp_criterion_integral, parse_spec, partial_sum_S_k,
                           radial_tube_profile, slab_integral, stripe_scan, sup_f)

C3 = "factor { base = 3; digits = {0,2}; }"
C3_SQ = parse_spec(f"{C3} {C3}")
L10 = "factor { base = 10; digits = 0..9; }"
CARPET = ("factor { base = 3; n = 2; digits = "
          "{(0,0),(1,0),(2,0),(0,1),(2,1),(0,2),(1,2),(2,2)}; }")
I512 = parse_spec("factor { base = 512; digits = 0..499; }")


def tube(spec, viewpoint, delta, angles):
    """The tube profile of a counting job; its result is the enclosure."""
    spec = parse_spec(spec)

    def run(budget):
        profile = radial_tube_profile(spec, viewpoint, delta, angles, budget=budget)
        return profile.metadata["lower"].tobytes() + profile.metadata["upper"].tobytes()
    return run


def pickled(compute):
    return lambda budget: pickle.dumps(compute(budget), protocol=4)


# name -> run(budget), returning the bytes the digest is taken of
CASES = {
    "tube-carpet": tube(CARPET, (-1.0, -1.0), 0.002, 400),
    "tube-c3sq": tube(f"{C3} {C3}", (-1.0, -1.0), 0.001, 800),
    "tube-leb10": tube(f"{L10} {L10}", (-1.0, -1.0), 0.01, 800),
    "lp-256": pickled(lambda b: lp_criterion_integral(C3_SQ, 2, 256, budget=b)),
    "stripe-81": pickled(lambda b: stripe_scan(C3_SQ, 81.0, 256, budget=b)),
    "slab-2048": pickled(lambda b: slab_integral(C3_SQ, (1.0, 0.0), 2048.0, budget=b)),
    "s_k-c3sq": pickled(lambda b: partial_sum_S_k(C3_SQ, (0.3, 0.1), 4, budget=b)),
    "sup_f-i512": pickled(lambda b: sup_f(I512, budget=b)),
}


def run_case(run, repeat) -> dict:
    seconds = []
    for _ in range(repeat):
        budget = EvalBudget()
        start = time.perf_counter()
        result = run(budget)
        seconds.append(time.perf_counter() - start)
    return {"seconds": [round(s, 4) for s in seconds],
            "median_s": round(statistics.median(seconds), 4),
            "cells": budget.spent,
            "result_sha256": hashlib.sha256(result).hexdigest()}


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
    for name, run in CASES.items():
        entry["cases"][name] = run_case(run, args.repeat)
        print(name, entry["cases"][name], file=sys.stderr)
    doc["entries"][args.label] = entry
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
