"""Self-checks of the benchmark: traced counts repeat exactly, and the
output checks refuse wrong answers.

    python3 -m pytest benchmark/tests

Run from the repository root.  The determinism test spawns two traced
passes over every job (about 90 s on two cores).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmark"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REFS = json.loads((ROOT / "benchmark" / "references.json").read_text())


def _traced_once(seed: int) -> dict:
    report = {"metrics": {}}
    runs = run.traced(run.Runner(ROOT, REFS), seed, 0.0, report)
    assert [r["problems"] for r in runs if r["problems"]] == []
    return report


def test_two_traced_passes_count_exactly_the_same():
    first, second = _traced_once(5), _traced_once(5)
    assert first["exact_counts"] == second["exact_counts"]
    assert set(layers.EXACT) <= set(first["exact_counts"][0])
    for w in workloads.WORKLOADS:
        for key in layers.EXACT:
            assert first["per_workload"][w][key] == second["per_workload"][w][key], (w, key)
    # dim-512sq evaluates one grid four times: most f_theta cells repeat.
    assert first["per_workload"]["dimension-certify"]["dimension.f_theta.dup_cells_ratio"] > 0.45


def _job(job_id: str, seed: int = 0):
    return next(j for j in workloads.all_jobs(seed) if j.id == job_id)


def _doc(result: dict) -> bytes:
    return json.dumps({"manifest": {}, "result": result}).encode()


def test_dimension_bounds_are_checked_one_sided():
    job, ref = _job("dim-c3sq"), REFS["dim-c3sq"]

    def result(best, grid):
        return {"hausdorff_dim": ref["hausdorff_dim"],
                "best": {"value": best, "rigorous": True, "kind": "ProductSum"},
                "per_factor_candidates": [
                    {"grid": {"value": grid, "rigorous": True}, "crude": None,
                     "rectangle": None}] * 2}

    seed_grid = ref["grid"][0]
    assert checks.check(job, 0, _doc(result(ref["best"], seed_grid)), REFS) == []
    assert checks.check(job, 0, _doc(result(ref["best"] + 0.01, seed_grid + 0.005)), REFS) == []
    assert checks.check(job, 0, _doc(result(ref["best"] - 1e-6, seed_grid)), REFS)
    assert checks.check(job, 0, _doc(result(ref["hausdorff_dim"] + 0.01, seed_grid)), REFS)
    assert checks.check(job, 1, _doc(result(ref["best"], seed_grid)), REFS)


def test_tube_enclosures_are_checked_one_sided():
    job, ref = _job("tube-c3sq"), REFS["tube-c3sq"]
    lower, upper = np.asarray(ref["lower"]), np.asarray(ref["upper"])

    def doc(lo, hi, values=None):
        values = (lo + hi) / 2 if values is None else values
        return _doc({"profile": {"grid": ref["grid"], "values": values.tolist(),
                                 "metadata": {"lower": lo.tolist(), "upper": hi.tolist()}}})

    width = upper - lower
    assert checks.check(job, 0, doc(lower, upper), REFS) == []
    assert checks.check(job, 0, doc(lower + width / 4, upper - width / 4), REFS) == []
    assert checks.check(job, 0, doc(lower, upper + 0.01), REFS)
    assert checks.check(job, 0, doc(lower - 0.01, upper), REFS)
    assert checks.check(job, 0, doc(lower, upper, upper + 0.01), REFS)


def test_member_lists_and_outputs_must_match():
    job = _job("gr-3base")
    assert checks.check(job, 0, b"not json", REFS)
    count = REFS["gr-3base"]["count"]
    assert checks.check(job, 0, _doc({"count": count, "members": list(range(count))}), REFS)


def test_feval_reference_agrees_with_the_package():
    sys.path.insert(0, str(ROOT / "src"))
    from missingdigits import fourier_transform_batch, parse_spec

    xi = np.linspace(-1000.0, 1000.0, 2001)
    values, errs = fourier_transform_batch(parse_spec(workloads.C3), xi[:, None])
    ref, ref_err = checks.c3_transform(xi)
    assert np.all(np.abs(values - ref) <= errs + ref_err)
    assert not np.all(np.abs(values * np.exp(1e-6j) - ref) <= errs + ref_err)
