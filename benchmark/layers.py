"""Per-layer metrics from the traced run's span files.

A span's self time is its duration minus the part of it covered by its
child spans (children on pool threads may overlap, so their intervals
are merged first).  Each metric below names the spans or budget labels
it is built from; README.md maps them to the kernel chains.
"""

from __future__ import annotations

SELF_S = {
    "cli.main.self_s": ("cli.main",),
    "fourier.digit_symbol.self_s": ("fourier.digit_symbol",),
    "fourier.transform_batch.self_s": ("fourier.transform_batch",),
    "projection.linear_density.self_s": ("projection.linear_density",),
    "projection.stripe_scan.self_s": ("projection.stripe_scan",),
    "projection.lattice_sums.self_s": ("projection.lp_criterion_integral",
                                       "projection.slab_integral"),
    "dimension.f_theta.self_s": ("dimension.f_theta",),
    "dimension.sup_f.self_s": ("dimension.sup_f",),
    "certify.self_s": ("certify.certify_radial_Lp", "certify.certify_linear",
                       "certify.preset"),
    "cylinders.cylinder_mass.self_s": ("cylinders.cylinder_mass",),
    "projection.radial_tube_profile.self_s": ("projection.radial_tube_profile",),
    "measure.sample.self_s": ("measure.sample",),
    "projection.mc.self_s": ("projection.linear_density_mc", "projection.radial_density_mc"),
    "graham.enumerate.self_s": ("graham.enumerate_restricted", "graham.enumerate_scaled"),
}

CALLS = {
    "projection.stripe_scan.calls": ("projection.stripe_scan",),
    "dimension.grid_lower_bound.calls": ("dimension.grid_lower_bound",),
    "certify.best_lower_bound.calls": ("dimension.best_lower_bound",),
    "cylinders.cylinder_mass.calls": ("cylinders.cylinder_mass",),
}

# metric -> (span name, budget label charged inside that span)
CELLS = {
    "fourier.transform_batch.cells": ("fourier.transform_batch", "transform levels"),
    "dimension.f_theta.cells": ("dimension.f_theta", "f(theta) residues"),
    "cylinders.cylinder_mass.classify_cells": ("cylinders.cylinder_mass",
                                               "cylinder classifications"),
    "cylinders.cylinder_mass.expand_cells": ("cylinders.cylinder_mass",
                                             "cylinder expansions"),
    "measure.sample.cells": ("measure.sample", "digit draws"),
    "graham.tree_cells": ("graham.enumerate_restricted", "digit tree"),
    "graham.scan_cells": ("graham.enumerate_scaled", "scaled scan"),
}

POINTS = {
    "fourier.digit_symbol.points": "fourier.digit_symbol",
    "fourier.transform_batch.points": "fourier.transform_batch",
}

RATIOS = ("dimension.f_theta.dup_cells_ratio", "cylinders.expand_per_classify",
          "graham.yield_ratio")

UNITS = {**{k: "s" for k in SELF_S}, **{k: "calls" for k in CALLS},
         **{k: "cells" for k in CELLS}, **{k: "points" for k in POINTS},
         **{k: "1" for k in RATIOS}, "graham.digits_ok.calls": "calls",
         "budget.charge.calls": "calls", "budget.spent_ratio_max": "1",
         "trace.overhead_ratio": "1"}

# Exact counts: two traced passes of one commit and seed must agree on these.
EXACT = tuple(CALLS) + tuple(CELLS) + tuple(POINTS) + RATIOS + (
    "graham.digits_ok.calls", "budget.charge.calls")


def _covered(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def self_times(spans) -> list:
    """Self time of each span record [name, start, end, parent, ...]."""
    children = [[] for _ in spans]
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [(s[2] - s[1]) - _covered(kids) for s, kids in zip(spans, children)]


def layer_metrics(records: list) -> dict:
    """Per-layer metrics summed over the traced job records given (one
    record per job process, as written by trace_entry.py)."""
    out = {k: 0.0 for k in SELF_S}
    out.update({k: 0 for k in (*CALLS, *CELLS, *POINTS, "graham.digits_ok.calls",
                               "budget.charge.calls")})
    out["budget.spent_ratio_max"] = 0.0
    repeat_cells = members = 0
    self_of = {name: metric for metric, names in SELF_S.items() for name in names}
    calls_of = {}
    for metric, names in CALLS.items():
        for name in names:
            calls_of.setdefault(name, []).append(metric)
    for rec in records:
        spans = rec["spans"]
        for span, own in zip(spans, self_times(spans)):
            name, cells, extra = span[0], span[5], span[6]
            if name in self_of:
                out[self_of[name]] += own
            for metric in calls_of.get(name, ()):
                out[metric] += 1
            for metric, (span_name, label) in CELLS.items():
                if name == span_name:
                    out[metric] += cells.get(label, 0)
            for metric, span_name in POINTS.items():
                if name == span_name:
                    out[metric] += extra.get("points", 0)
            if extra.get("repeat"):
                repeat_cells += cells.get("f(theta) residues", 0)
            members += extra.get("members", 0)
        counters = rec["counters"]
        out["graham.digits_ok.calls"] += counters["graham.digits_ok.calls"]
        out["budget.charge.calls"] += counters["budget.charge.calls"]
        out["budget.spent_ratio_max"] = max(out["budget.spent_ratio_max"],
                                            counters["budget.spent_ratio_max"])
    out["dimension.f_theta.dup_cells_ratio"] = ratio(repeat_cells,
                                                      out["dimension.f_theta.cells"])
    out["cylinders.expand_per_classify"] = ratio(
        out["cylinders.cylinder_mass.expand_cells"],
        out["cylinders.cylinder_mass.classify_cells"])
    out["graham.yield_ratio"] = ratio(members, out["graham.digits_ok.calls"])
    return out


def ratio(num, den) -> float:
    return num / den if den else 0.0
