"""The benchmark's workloads: which CLI jobs each one runs, and how the
workload seed turns into their inputs.

Every job is a `missingdigits` argv.  The seed picks the Monte-Carlo
`--seed` values, the `feval-1d` grid radius and the generic direction of
`ld-generic`/`mc-linear`; every other input is fixed.  README.md says
why each job is here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

C3 = "factor { base = 3; digits = {0,2}; }"
C3_SQ = f"{C3} {C3}"
I512 = "factor { base = 512; digits = 0..499; }"
I729 = "factor { base = 729; digits = 0..700; }"
E48 = "factor { base = 48; digits = {" + ",".join(str(d) for d in range(0, 48, 2)) + "}; }"
L10 = "factor { base = 10; digits = 0..9; }"
CARPET = ("factor { base = 3; n = 2; digits = "
          "{(0,0),(1,0),(2,0),(0,1),(2,1),(0,2),(1,2),(2,2)}; }")
LINEAR_PAIR = ("factor { base = 5; digits = {0,1,2,3}; } "
               "factor { base = 7; digits = {0,2,3,5,6}; }")

# Angles (radians) of the generic directions for C3 x C3.  Each is
# non-exceptional (its stripe sum at R = 81 stays below the threshold)
# and its Fourier-inversion profile matches the Monte-Carlo estimator;
# the stored references cover exactly these angles.  The ray integral
# still grows at T = 6561 (shell slopes about 0.2), so these profiles
# are flagged NonConvergent at the seed commit, like the coordinate one.
GENERIC_ANGLES = (1.0, 0.9, 1.1, 0.8, 1.2, 0.7, 1.3, 0.6)

FEVAL_POINTS = 20001


@dataclass(frozen=True)
class Job:
    """One CLI run: its id, argv, and the exit code the seed commit gives."""

    id: str
    argv: tuple
    exit_code: int = 0
    inputs: tuple = ()  # seed-chosen values the output checks need


def direction(angle: float) -> str:
    return f"{math.cos(angle)!r},{math.sin(angle)!r}"


def seed_inputs(seed: int) -> dict:
    """The seed-chosen inputs, one draw each from a PRNG seeded by `seed`."""
    rng = random.Random(seed)
    return {
        "angle": GENERIC_ANGLES[rng.randrange(len(GENERIC_ANGLES))],
        "feval_rmax": 990.0 + rng.randrange(1000) / 100.0,
        "mc_linear_seed": rng.randrange(2 ** 32),
        "mc_radial_seed": rng.randrange(2 ** 32),
    }


def fourier_lattice(s: dict) -> list:
    generic = direction(s["angle"])
    return [
        Job("ld-generic", ("linear-density", "--spec", C3_SQ, "--direction", generic,
                           "--grid=-0.15,1.55,851", "--tmax", "6561"), inputs=(s["angle"],)),
        Job("ld-coord", ("linear-density", "--spec", C3_SQ, "--direction", "1,0",
                         "--grid=-0.1,1.1,601", "--tmax", "2187")),
        Job("stripe-81", ("stripe-scan", "--spec", C3_SQ, "--radius", "81",
                          "--angles", "256", "--s1", "0.7376", "--eps", "0.05")),
        Job("lp-256", ("lp-integral", "--spec", C3_SQ, "--p", "2", "--rmax", "256")),
        Job("slab-2048", ("slab-integral", "--spec", C3_SQ, "--direction", "1,0",
                          "--tmax", "2048")),
        Job("feval-1d", ("fourier-eval", "--spec", C3,
                         "--grid", f"{s['feval_rmax']!r},{FEVAL_POINTS}"),
            inputs=(s["feval_rmax"],)),
    ]


def dimension_certify(s: dict) -> list:
    return [
        Job("preset-a", ("preset", "theorem-a")),
        Job("preset-b", ("preset", "theorem-b")),
        Job("dim-c3sq", ("dim-bound", "--spec", C3_SQ)),
        Job("dim-512sq", ("dim-bound", "--spec", f"{I512} {I512}")),
        Job("cert-mixed", ("certify", "--radial-lp", "2", "--spec", f"{I512} {I729}")),
        Job("cert-l1", ("certify", "--radial-lp", "1", "--spec", C3_SQ), exit_code=2),
        Job("dim-e48", ("dim-bound", "--spec", E48)),
        Job("cert-linear", ("certify", "--linear", "--spec", LINEAR_PAIR)),
    ]


def counting(s: dict) -> list:
    return [
        Job("tube-carpet", ("radial-density", "--spec", CARPET, "--viewpoint=-1,-1",
                            "--delta", "0.002", "--angles", "400")),
        Job("tube-c3sq", ("radial-density", "--spec", C3_SQ, "--viewpoint=-1,-1",
                          "--delta", "0.001", "--angles", "800")),
        Job("tube-leb10", ("radial-density", "--spec", f"{L10} {L10}", "--viewpoint=-1,-1",
                           "--delta", "0.01", "--angles", "800")),
        Job("mc-linear", ("linear-density", "--spec", C3_SQ, "--direction",
                          direction(s["angle"]), "--mc", "4000000", "--bandwidth", "0.002",
                          "--seed", str(s["mc_linear_seed"])), inputs=(s["angle"],)),
        Job("mc-radial", ("radial-density", "--spec", CARPET, "--viewpoint=2,0.5",
                          "--mc", "4000000", "--bandwidth", "0.002",
                          "--seed", str(s["mc_radial_seed"]))),
        Job("gr-1e9", ("graham", "--system", "3:{0,1};5:{0,1,2}", "--limit", "1000000000")),
        Job("gr-3base", ("graham", "--system", "3:{0,1};4:{0,1};5:{0,1,2}",
                         "--limit", "10000000000")),
        Job("gr-scaled", ("graham", "--system", "3:{0,1};5:{0,1,2}", "--scales", "1,1/2",
                          "--limit", "1000000")),
    ]


WORKLOADS = {
    "fourier-lattice": fourier_lattice,
    "dimension-certify": dimension_certify,
    "counting": counting,
}


def jobs(workload: str, seed: int) -> list:
    return WORKLOADS[workload](seed_inputs(seed))


def all_jobs(seed: int) -> list:
    s = seed_inputs(seed)
    return [job for make in WORKLOADS.values() for job in make(s)]
