"""Regenerate benchmark/references.json from the checked-out package.

    python3 benchmark/make_references.py

Run from the repository root, only at a commit whose outputs are known
good: the checks of checks.py treat what this stores as the seed
commit's answers.  It stores, per job, the fields checks.extract picks;
the Fourier-inversion profile of every generic direction in
workloads.GENERIC_ANGLES (the reference for both `ld-generic` and
`mc-linear`), after checking that the direction's `stripe-81` sum stays
below the exceptional threshold; for `mc-radial`, the exact angular
histogram of the depth-8 cylinder centres; the Hausdorff
dimensions the bound checks are capped by; and the Monte-Carlo L1
bounds, each CALIBRATION_FACTOR times the largest L1 distance seen over
CALIBRATION_SEEDS seeds (for `mc-linear`, that many seeds per angle).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import Runner  # noqa: E402

CALIBRATION_FACTOR = 1.25
CALIBRATION_SEEDS = 16
# Cylinders of depth 8 are 3^-8 = 1.5e-4 wide, so from the viewpoint
# (at least 1 away) each spans under a tenth of a 0.002-rad bin.
RADIAL_DEPTH = 8


def angle_histogram(digits: np.ndarray, base: int, depth: int, viewpoint, grid, width):
    """Exact angular histogram, seen from viewpoint, of the measure with
    every depth-`depth` cylinder's mass placed at its centre; values are
    mass per radian on the bins centred at `grid`."""
    offsets = np.zeros((1, 2))
    for level in range(2, depth + 1):
        offsets = (offsets[:, None, :] + digits[None, :, :] * float(base) ** -level).reshape(-1, 2)
    offsets += 0.5 * float(base) ** -depth
    lo = grid[0] - width / 2
    counts = np.zeros(len(grid))
    for top in digits:
        pts = offsets + top / base - np.asarray(viewpoint)
        ang = np.arctan2(pts[:, 1], pts[:, 0])
        if grid[-1] > math.pi:  # the window was unwrapped across the cut
            ang = np.where(ang < 0, ang + 2 * math.pi, ang)
        idx = np.floor((ang - lo) / width).astype(np.int64)
        counts += np.bincount(idx, minlength=len(grid))[:len(grid)]
    return counts / (len(digits) ** depth * width)


def output(runner: Runner, argv, expect_code: int = 0) -> dict:
    path = runner.out / "jobs" / "reference.out"
    run = runner.spawn([sys.executable, "-m", "missingdigits", *argv], path)
    if run["code"] != expect_code:
        raise SystemExit(f"{argv[0]} exited {run['code']}: "
                         + path.with_suffix(".err").read_text())
    return json.loads(path.read_bytes())


def main() -> int:
    runner = Runner(Path.cwd(), {})
    sys.path.insert(0, str(Path.cwd() / "src"))
    from missingdigits import hausdorff_dim, parse_spec, preset
    from missingdigits.measure import as_product

    refs = {"ld-generic": {}, "hausdorff_dim": {}}
    for job in workloads.all_jobs(0):
        if checks.KIND[job.id] in ("mc", "feval") or job.id == "ld-generic":
            continue
        refs[job.id] = checks.extract(job, output(runner, job.argv, job.exit_code))
        print(f"reference {job.id}", flush=True)
        if checks.KIND[job.id] == "certify":
            refs["hausdorff_dim"][job.id] = hausdorff_dim(parse_spec(job.argv[-1]))
    for name in ("theorem-a", "theorem-b", "theorem-b-homogeneous"):
        refs["hausdorff_dim"][name] = hausdorff_dim(preset(name)[0])

    generic = next(j for j in workloads.fourier_lattice(workloads.seed_inputs(0))
                   if j.id == "ld-generic")
    for angle in workloads.GENERIC_ANGLES:
        argv = list(generic.argv)
        argv[argv.index("--direction") + 1] = workloads.direction(angle)
        stripe = refs["stripe-81"]
        step = math.pi / len(stripe["integrals"])
        if stripe["integrals"][round(angle / step)] >= stripe["threshold"]:
            raise SystemExit(f"direction angle {angle} is exceptional at R = 81")
        refs["ld-generic"][repr(angle)] = checks.extract(generic, output(runner, argv))
        print(f"reference ld-generic at angle {angle}", flush=True)
    mc_radial = next(j for j in workloads.counting(workloads.seed_inputs(0))
                     if j.id == "mc-radial")
    prof = output(runner, mc_radial.argv)["result"]["profile"]
    grid = np.asarray(checks.floats(prof["grid"]))
    factor = as_product(parse_spec(workloads.CARPET)).factors[0]
    values = angle_histogram(factor.digit_matrix().astype(float), factor.p_int(),
                             RADIAL_DEPTH, (2.0, 0.5), grid, prof["metadata"]["bin_width"])
    refs["mc-radial"] = {"grid": grid.tolist(), "values": values.tolist()}

    # Calibrate the Monte-Carlo bounds (one per generic angle for
    # mc-linear): measure the L1 distances with no bound, then keep a
    # margin over the worst one seen.
    def counting_job(inputs, job_id):
        return next(j for j in workloads.counting(inputs) if j.id == job_id)

    calibration = []
    for seed in range(CALIBRATION_SEEDS):
        inputs = workloads.seed_inputs(seed)
        calibration.append((seed, counting_job(inputs, "mc-radial")))
        calibration += [(seed, counting_job(dict(inputs, angle=angle), "mc-linear"))
                        for angle in workloads.GENERIC_ANGLES]
    worst = {}
    refs["mc_l1_bound"] = {}
    for seed, job in calibration:
        key = checks.mc_bound_key(job)
        doc = output(runner, job.argv)
        l1 = checks.mc_l1(doc["result"]["profile"], checks.reference_for(job, refs))
        worst[key] = max(worst.get(key, 0.0), l1)
        print(f"calibration seed {seed} {key} L1 {l1:.5f}", flush=True)
        refs["mc_l1_bound"][key] = math.inf
        if checks.check(job, 0, json.dumps(doc).encode(), refs):
            raise SystemExit(f"{job.id} fails its other checks at seed {seed}")
    refs["mc_l1_bound"] = {k: CALIBRATION_FACTOR * v for k, v in worst.items()}
    refs["mc_l1_worst_seen"] = worst
    (HERE / "references.json").write_text(json.dumps(refs, sort_keys=True) + "\n")
    print(json.dumps({"mc_l1_worst_seen": worst}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
