"""Per-layer timing of the tube profile, the Monte-Carlo estimators and
the lattice sums, recorded as BENCH_*.json.

    PYTHONPATH=src python bench/run.py --label NAME --out BENCH_N.json [--repeat R]

Times `radial_tube_profile` on the three tube cases of the `counting`
benchmark workload, its Monte-Carlo jobs mc-linear and mc-radial as
library calls at a fixed seed, and the lattice sums of the
`fourier-lattice` jobs lp-256, stripe-81 and slab-2048
(`benchmark/workloads.py`), plus `partial_sum_S_k` on C3 x C3 and
`sup_f` on the interval factor I512.  Each of the R runs of a case is
timed in a child process of its own, after the import, so no case
inherits what another left behind.  Per case it records the wall
seconds of each run, their median, the largest peak RSS of its children
(import included), the budget cells one run spends and a SHA-256 of its
result: the lower/upper enclosure arrays of a tube profile, the values
of a Monte-Carlo profile, the pickled result of the others.  The
package under test is whatever `missingdigits` PYTHONPATH imports, so
pointing it at the `src/` of another checkout records that commit.
Each call merges one entry under LABEL into OUT, so one file holds
several commits side by side.

Cells and digests are deterministic: equal cells and equal digests across
entries are an exact check.  Seconds and peak RSS depend on the machine
and its load and only show the trend.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import missingdigits
from missingdigits import (EvalBudget, linear_density_mc, lp_criterion_integral, parse_spec,
                           partial_sum_S_k, radial_density_mc, radial_tube_profile,
                           slab_integral, stripe_scan, sup_f)

C3 = "factor { base = 3; digits = {0,2}; }"
C3_SQ = parse_spec(f"{C3} {C3}")
L10 = "factor { base = 10; digits = 0..9; }"
CARPET = ("factor { base = 3; n = 2; digits = "
          "{(0,0),(1,0),(2,0),(0,1),(2,1),(0,2),(1,2),(2,2)}; }")
I512 = parse_spec("factor { base = 512; digits = 0..499; }")
MC_DIRECTION = (math.cos(1.0), math.sin(1.0))  # a generic angle of mc-linear


def tube(spec, viewpoint, delta, angles):
    """The tube profile of a counting job; its result is the enclosure."""
    spec = parse_spec(spec)

    def run(budget):
        profile = radial_tube_profile(spec, viewpoint, delta, angles, budget=budget)
        return profile.metadata["lower"].tobytes() + profile.metadata["upper"].tobytes()
    return run


def monte_carlo(estimate, spec, where):
    """A Monte-Carlo job of the counting workload: 4M draws at bandwidth
    0.002 and seed 1; its result is the profile's values."""
    spec = parse_spec(spec)
    return lambda budget: estimate(spec, where, 4_000_000, 0.002, seed=1,
                                   budget=budget).values.tobytes()


def pickled(compute):
    return lambda budget: pickle.dumps(compute(budget), protocol=4)


# name -> run(budget), returning the bytes the digest is taken of
CASES = {
    "tube-carpet": tube(CARPET, (-1.0, -1.0), 0.002, 400),
    "tube-c3sq": tube(f"{C3} {C3}", (-1.0, -1.0), 0.001, 800),
    "tube-leb10": tube(f"{L10} {L10}", (-1.0, -1.0), 0.01, 800),
    "mc-linear": monte_carlo(linear_density_mc, f"{C3} {C3}", MC_DIRECTION),
    "mc-radial": monte_carlo(radial_density_mc, CARPET, (2.0, 0.5)),
    "lp-256": pickled(lambda b: lp_criterion_integral(C3_SQ, 2, 256, budget=b)),
    "stripe-81": pickled(lambda b: stripe_scan(C3_SQ, 81.0, 256, budget=b)),
    "slab-2048": pickled(lambda b: slab_integral(C3_SQ, (1.0, 0.0), 2048.0, budget=b)),
    "s_k-c3sq": pickled(lambda b: partial_sum_S_k(C3_SQ, (0.3, 0.1), 4, budget=b)),
    "sup_f-i512": pickled(lambda b: sup_f(I512, budget=b)),
}


def run_once(name: str) -> dict:
    """One timed run of case `name` in this process."""
    budget = EvalBudget()
    start = time.perf_counter()
    result = CASES[name](budget)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "cells": budget.spent,
            "result_sha256": hashlib.sha256(result).hexdigest(),
            # kibibytes on Linux
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def run_case(name: str, repeat: int) -> dict:
    """`repeat` runs of case `name`, each in a fresh child process."""
    child = [sys.executable, str(Path(__file__).resolve()), "--child", name]
    runs = [json.loads(subprocess.run(child, check=True, capture_output=True, text=True).stdout)
            for _ in range(repeat)]
    exact = {(r["cells"], r["result_sha256"]) for r in runs}
    if len(exact) != 1:
        raise RuntimeError(f"{name}: runs disagree on cells or result: {sorted(exact)}")
    seconds = [r["seconds"] for r in runs]
    return {"seconds": [round(s, 4) for s in seconds],
            "median_s": round(statistics.median(seconds), 4),
            "peak_rss_mib": round(max(r["peak_rss_mib"] for r in runs), 1),
            "cells": runs[0]["cells"],
            "result_sha256": runs[0]["result_sha256"]}


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
    parser.add_argument("--label")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--child", choices=sorted(CASES), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(run_once(args.child)))
        return 0
    if args.label is None or args.out is None:
        parser.error("--label and --out are required")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    doc = json.loads(args.out.read_text()) if args.out.exists() else {"entries": {}}
    entry = {"package_version": missingdigits.__version__, "machine": machine(),
             "cases": {}}
    for name in CASES:
        entry["cases"][name] = run_case(name, args.repeat)
        print(name, entry["cases"][name], file=sys.stderr)
    doc["entries"][args.label] = entry
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
