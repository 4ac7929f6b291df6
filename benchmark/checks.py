"""Per-job output checks.

Every check accepts a legitimate improvement and refuses a wrong answer:

- dimension bounds are one-sided: rigorous, at most the Hausdorff
  dimension, and at least the stored seed value minus BOUND_SLACK;
- verdicts, exit codes, NonConvergent/ImagResidue flags, the stripe
  exceptional-direction list and the graham member lists must equal the
  seed's exactly (lists by count plus SHA-256);
- deterministic profiles and lattice sums must match the stored seed
  references within PROFILE_RTOL / SUM_RTOL, except tube enclosures,
  which must lie inside the seed's (a tighter one passes);
- `feval-1d` must agree with an independent closed-form evaluation
  within the sum of both certified error bounds;
- Monte-Carlo profiles need coverage 1 and an L1 distance to the stored
  deterministic profile within the calibrated bound stored with the
  references.

The manifest's `wall_time_s` is never compared.

`extract(job, doc)` gives what the references store for one job;
`check(job, code, doc, refs)` lists the problems with one run (an empty
list means the run is correct).
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from workloads import FEVAL_POINTS

BOUND_SLACK = 1e-9
# Relative to the largest reference value: a reordered sum or an FFT
# replacing a direct sum moves values by ~1e-10 of the peak.
PROFILE_RTOL = 1e-7
SUM_RTOL = 1e-9
EPS = np.finfo(np.float64).eps


def sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def floats(values) -> list:
    return [float(v) for v in values]


def _profile(doc) -> dict:
    return doc["result"]["profile"]


def _round_dirs(dirs) -> list:
    return [[round(float(c), 12) for c in d] for d in dirs]


# ------------------------------------------------------------ references


def extract(job, doc: dict) -> dict:
    """The fields of a seed-commit output that later runs are checked
    against."""
    res = doc["result"]
    kind = KIND[job.id]
    if kind == "fourier-profile":
        prof = _profile(doc)
        return {"flags": prof["flags"], "grid": floats(prof["grid"]),
                "values": floats(prof["values"])}
    if kind == "tube-profile":
        prof = _profile(doc)
        return {"grid": floats(prof["grid"]), "lower": floats(prof["metadata"]["lower"]),
                "upper": floats(prof["metadata"]["upper"])}
    if kind == "stripe":
        return {"threshold": res["threshold"], "integrals": floats(res["integrals"]),
                "exceptional_count": res["exceptional_count"],
                "exceptional_sha256": sha256(_round_dirs(res["exceptional_directions"]))}
    if kind == "lattice":
        return {"partial": res["partial"], "shell_totals": floats(res["shell_totals"]),
                "non_convergent": res["non_convergent"]}
    if kind == "dim-bound":
        return {"best": res["best"]["value"], "hausdorff_dim": res["hausdorff_dim"],
                "grid": [c["grid"]["value"] if c["grid"] else None
                         for c in res["per_factor_candidates"]],
                "closed_form": [{k: c[k] is not None for k in ("crude", "rectangle")}
                                for c in res["per_factor_candidates"]]}
    if kind == "certify":
        return _report_ref(res)
    if kind == "preset":
        return {e["preset"]: _report_ref(e["report"]) for e in res["reports"]}
    if kind == "graham":
        return {"count": res["count"], "members_sha256": sha256(res["members"])}
    return {}


def _report_ref(report: dict) -> dict:
    return {k: report[k] for k in ("verdict", "bound", "margin", "threshold", "theorem")}


# ------------------------------------------------------------ checks


def check(job, code: int, stdout: bytes, refs: dict) -> list:
    """Problems with one run of `job`; empty when the output is correct."""
    if code != job.exit_code:
        return [f"exit code {code}, expected {job.exit_code}"]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not one JSON document: {exc}"]
    if not isinstance(doc, dict) or "result" not in doc:
        return ["stdout has no result"]
    try:
        return _CHECKS[KIND[job.id]](job, doc, refs)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]


def reference_for(job, refs):
    """The stored reference a job's output is compared with; both
    generic-direction jobs use the Fourier profile of their angle."""
    if job.id in ("ld-generic", "mc-linear"):
        return refs["ld-generic"][repr(job.inputs[0])]
    return refs[job.id]


def _close(values, ref_values, rtol, what) -> list:
    values = np.asarray(floats(values))
    ref = np.asarray(ref_values, dtype=float)
    if values.shape != ref.shape:
        return [f"{what}: {values.size} values, expected {ref.size}"]
    scale = float(np.max(np.abs(ref), initial=0.0))
    worst = float(np.max(np.abs(values - ref), initial=0.0))
    if not worst <= rtol * scale:
        return [f"{what}: off the reference by {worst:.3g} (> {rtol:g} x {scale:.3g})"]
    return []


def _check_fourier_profile(job, doc, refs) -> list:
    prof, ref = _profile(doc), reference_for(job, refs)
    problems = []
    if prof["flags"] != ref["flags"]:
        problems.append(f"flags {prof['flags']}, expected {ref['flags']}")
    problems += _close(prof["grid"], ref["grid"], SUM_RTOL, "grid")
    problems += _close(prof["values"], ref["values"], PROFILE_RTOL, "profile")
    return problems


def _check_tube_profile(job, doc, refs) -> list:
    """The enclosure must lie inside the seed's, up to SUM_RTOL of the
    seed's largest upper value: a tighter enclosure passes, one that
    leaves the seed's (which holds the true density) fails."""
    prof, ref = _profile(doc), reference_for(job, refs)
    problems = _close(prof["grid"], ref["grid"], SUM_RTOL, "grid")
    lower = np.asarray(floats(prof["metadata"]["lower"]))
    upper = np.asarray(floats(prof["metadata"]["upper"]))
    values = np.asarray(floats(prof["values"]))
    ref_lower, ref_upper = np.asarray(ref["lower"]), np.asarray(ref["upper"])
    if not lower.shape == upper.shape == values.shape == ref_lower.shape:
        return problems + [f"{values.size} profile values, expected {ref_lower.size}"]
    tol = SUM_RTOL * float(np.max(np.abs(ref_upper), initial=0.0))
    if not np.all(lower <= upper):
        problems.append("tube enclosure has lower > upper")
    if not np.all((lower <= values + tol) & (values <= upper + tol)):
        problems.append("tube profile value outside its own enclosure")
    if not np.all(lower >= ref_lower - tol):
        problems.append("tube lower curve fell below the seed's")
    if not np.all(upper <= ref_upper + tol):
        problems.append("tube upper curve rose above the seed's")
    return problems


def _check_mc(job, doc, refs) -> list:
    prof = _profile(doc)
    ref = reference_for(job, refs)
    bound = refs["mc_l1_bound"][mc_bound_key(job)]
    problems = []
    if prof["metadata"]["coverage"] != 1.0:
        problems.append(f"coverage {prof['metadata']['coverage']}, expected 1")
    l1 = mc_l1(prof, ref)
    if not l1 <= bound:
        problems.append(f"L1 distance {l1:.4g} to the deterministic profile > {bound:.4g}")
    return problems


def mc_bound_key(job) -> str:
    """Monte-Carlo bounds are calibrated per job, and per angle for the
    generic direction."""
    return f"{job.id}@{job.inputs[0]!r}" if job.inputs else job.id


def mc_l1(prof: dict, ref: dict) -> float:
    """L1 distance of a profile to a reference profile on the profile's
    grid (the reference interpolated, zero outside its own grid)."""
    grid = np.asarray(floats(prof["grid"]))
    other = np.interp(grid, ref["grid"], ref["values"], left=0.0, right=0.0)
    return float(np.trapezoid(np.abs(np.asarray(floats(prof["values"])) - other), grid))


def _check_stripe(job, doc, refs) -> list:
    res, ref = doc["result"], refs[job.id]
    problems = []
    if res["exceptional_count"] != ref["exceptional_count"]:
        problems.append(f"{res['exceptional_count']} exceptional directions, "
                        f"expected {ref['exceptional_count']}")
    if sha256(_round_dirs(res["exceptional_directions"])) != ref["exceptional_sha256"]:
        problems.append("exceptional-direction list differs from the seed's")
    problems += _close([res["threshold"]], [ref["threshold"]], SUM_RTOL, "threshold")
    problems += _close(res["integrals"], ref["integrals"], SUM_RTOL, "stripe sums")
    return problems


def _check_lattice(job, doc, refs) -> list:
    res, ref = doc["result"], refs[job.id]
    problems = []
    if res["non_convergent"] != ref["non_convergent"]:
        problems.append(f"non_convergent {res['non_convergent']}, "
                        f"expected {ref['non_convergent']}")
    problems += _close([res["partial"]], [ref["partial"]], SUM_RTOL, "partial sum")
    problems += _close(res["shell_totals"], ref["shell_totals"], SUM_RTOL, "shell totals")
    return problems


def _bound_problems(what, value, rigorous, seed_value, ceiling) -> list:
    if not rigorous:
        return [f"{what} is not rigorous"]
    if not value >= seed_value - BOUND_SLACK:
        return [f"{what} {value!r} fell below the seed's {seed_value!r}"]
    if not value <= ceiling + BOUND_SLACK:
        return [f"{what} {value!r} exceeds the Hausdorff dimension {ceiling!r}"]
    return []


def _check_dim_bound(job, doc, refs) -> list:
    res, ref = doc["result"], refs[job.id]
    hdim = ref["hausdorff_dim"]
    problems = []
    if not math.isclose(res["hausdorff_dim"], hdim, rel_tol=1e-12):
        problems.append(f"hausdorff_dim {res['hausdorff_dim']!r}, expected {hdim!r}")
    best = res["best"]
    problems += _bound_problems("best bound", best["value"], best["rigorous"],
                                ref["best"], hdim)
    cands = res["per_factor_candidates"]
    if len(cands) != len(ref["grid"]):
        return problems + [f"{len(cands)} factors, expected {len(ref['grid'])}"]
    for i, (cand, seed_grid, forms) in enumerate(zip(cands, ref["grid"], ref["closed_form"])):
        if seed_grid is not None:
            grid = cand["grid"] or {"value": -math.inf, "rigorous": False}
            problems += _bound_problems(f"factor {i} grid bound", grid["value"],
                                        grid["rigorous"], seed_grid, hdim)
        for name, present in forms.items():
            if (cand[name] is not None) != present:
                problems.append(f"factor {i} {name} bound presence changed")
    return problems


def _report_problems(what, report, ref, hdim) -> list:
    problems = []
    for key in ("verdict", "theorem"):
        if report[key] != ref[key]:
            problems.append(f"{what} {key} {report[key]!r}, expected {ref[key]!r}")
    if report["threshold"] != ref["threshold"]:
        problems.append(f"{what} threshold {report['threshold']!r}, expected {ref['threshold']!r}")
    problems += _bound_problems(f"{what} bound", report["bound"], report["bound_rigorous"],
                                ref["bound"], hdim)
    if not report["margin"] >= ref["margin"] - BOUND_SLACK:
        problems.append(f"{what} margin {report['margin']!r} below the seed's {ref['margin']!r}")
    return problems


def _check_certify(job, doc, refs) -> list:
    return _report_problems("certificate", doc["result"], refs[job.id],
                            refs["hausdorff_dim"][job.id])


def _check_preset(job, doc, refs) -> list:
    reports = {e["preset"]: e["report"] for e in doc["result"]["reports"]}
    ref = refs[job.id]
    if sorted(reports) != sorted(ref):
        return [f"presets {sorted(reports)}, expected {sorted(ref)}"]
    problems = []
    for name, report in reports.items():
        problems += _report_problems(name, report, ref[name], refs["hausdorff_dim"][name])
    return problems


def _check_graham(job, doc, refs) -> list:
    res, ref = doc["result"], refs[job.id]
    if res["count"] != ref["count"] or len(res["members"]) != ref["count"]:
        return [f"{res['count']} members, expected {ref['count']}"]
    if sha256(res["members"]) != ref["members_sha256"]:
        return ["member list differs from the seed's"]
    return []


def c3_transform(xi: np.ndarray) -> tuple:
    """Independent evaluation of the middle-thirds transform,
    exp(-pi i xi) * prod_j cos(2 pi xi / 3^j), with its error bound.

    Forty levels leave factors cos(x) with x < 2e-16, which are 1 in
    double precision, so the truncation error is below 1e-31; the bound
    is the floating-point allowance for the phases of both this product
    and the program's (each level's argument is rounded, and those
    errors sum to at most a few eps * 2 pi |xi|), plus one rounding per
    multiplication."""
    levels = 40
    value = np.exp(-1j * math.pi * xi)
    for j in range(1, levels + 1):
        value = value * np.cos(2.0 * math.pi * xi / 3.0 ** j)
    err = 2.0 * (8.0 * math.pi * EPS * (np.abs(xi) + 1.0) + 4.0 * levels * EPS)
    return value, err


def _check_feval(job, doc, refs) -> list:
    res = doc["result"]
    rmax = job.inputs[0]
    rows = np.asarray(res["rows"], dtype=float)
    if rows.shape != (FEVAL_POINTS, 5):
        return [f"{rows.shape[0]} rows, expected {FEVAL_POINTS}"]
    xi = rows[:, 0]
    problems = _close(xi, np.linspace(-rmax, rmax, FEVAL_POINTS), SUM_RTOL, "frequency grid")
    value, err = c3_transform(xi)
    got = rows[:, 1] + 1j * rows[:, 2]
    excess = np.abs(got - value) - (rows[:, 4] + err)
    if not np.all(excess <= 0.0):
        i = int(np.argmax(excess))
        problems.append(f"transform at xi={xi[i]!r} off by {abs(got[i] - value[i]):.3g}, "
                        f"beyond the bounds {rows[i, 4]:.3g} + {err[i]:.3g}")
    if not np.all(np.abs(got) <= 1.0 + 1e-12):
        problems.append("transform exceeds 1 in modulus")
    return problems


KIND = {
    "ld-generic": "fourier-profile", "ld-coord": "fourier-profile",
    "stripe-81": "stripe", "lp-256": "lattice", "slab-2048": "lattice",
    "feval-1d": "feval",
    "preset-a": "preset", "preset-b": "preset",
    "dim-c3sq": "dim-bound", "dim-512sq": "dim-bound", "dim-e48": "dim-bound",
    "cert-mixed": "certify", "cert-l1": "certify", "cert-linear": "certify",
    "tube-carpet": "tube-profile", "tube-c3sq": "tube-profile", "tube-leb10": "tube-profile",
    "mc-linear": "mc", "mc-radial": "mc",
    "gr-1e9": "graham", "gr-3base": "graham", "gr-scaled": "graham",
}

_CHECKS = {
    "fourier-profile": _check_fourier_profile, "tube-profile": _check_tube_profile,
    "mc": _check_mc, "stripe": _check_stripe, "lattice": _check_lattice,
    "dim-bound": _check_dim_bound, "certify": _check_certify, "preset": _check_preset,
    "graham": _check_graham, "feval": _check_feval,
}
