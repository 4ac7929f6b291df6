"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line with the measured quantities, so a full run doubles as a
scoreboard.  Three criteria are checked on exactly the window, range
and oracle depth that their bound covers:

* criterion 3: the per-period bound (sup f)^k, with factor 1, on the
  two pieces [-p^k+1, 0] and [1, p^k-1] of the symmetric window that
  partial_sum_S_k sums over (the whole window only obeys
  2 (sup f)^k), and the two pieces add up to partial_sum_S_k;
* criterion 4 (second clause): the crude bound tends to the ambient
  dimension only like 1 - log(2 log p)/log p (0.757 at p = 1e6, 0.99
  near p = 1e321, beyond any exact base), so it is checked against the
  closed form, evaluated in 50-digit decimal arithmetic, for one
  missing digit at p = 10^k, k = 1..18, and must increase strictly;
* criterion 5: the cylinder oracle's documented error
  2 pi |xi| p^-m must sit well below the 1e-5 target, so the base-3
  oracle runs at depth 20; depth 14 (error up to 1.3e-4 at |xi| = 100)
  is checked against its own bound in tests/test_fourier.py.
"""

import decimal
import math
import time

import numpy as np
import pytest

from missingdigits import (best_lower_bound, crude_bound, digits_ok,
                           enumerate_restricted, exceptional_directions,
                           explicit_spec, fourier_transform_batch, grid_lower_bound,
                           hausdorff_dim, interval_spec, lebesgue_spec,
                           linear_density, linear_density_mc, preset, square,
                           stripe_scan, sup_f, system)
from oracles import (fourier_oracle, fourier_transform, partial_sum_S_k, radial_l2_norm,
                     stripe_integral)

C3 = explicit_spec(3, [0, 2])
C5 = interval_spec(5, 0, 3)
C32_SQ = square(C3)
C52_SQ = square(C5)
LEB_SQ = lebesgue_spec(10, 2)

SEED = 20260821


def _verdict(num, label, ok, detail):
    print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


# -------------------------------------------------------------- criterion 1


def test_acceptance_01_interval_square_radial_preset():
    t0 = time.monotonic()
    _, report = preset("theorem-a")
    elapsed = time.monotonic() - t0
    bound = report.bound_used.value
    ok = (abs(bound - 1.59907) <= 1e-4
          and bound > 1.5
          and report.verdict.value == "Certified"
          and elapsed < 1.0)
    assert _verdict(1, "radial preset certificate", ok,
                    f"bound={bound:.7f} verdict={report.verdict.value} "
                    f"elapsed={elapsed:.3f}s")


# -------------------------------------------------------------- criterion 2


def test_acceptance_02_two_base_linear_presets():
    t0 = time.monotonic()
    _, rep_pair = preset("theorem-b")
    _, rep_homog = preset("theorem-b-homogeneous")
    elapsed = time.monotonic() - t0
    b_pair = rep_pair.bound_used.value
    b_homog = rep_homog.bound_used.value
    ok = (abs(b_pair - 1.000084) <= 2e-5 and b_pair > 1.0
          and abs(b_homog - 1.000067) <= 2e-5
          and rep_pair.verdict.value == "Certified"
          and rep_homog.verdict.value == "Certified"
          and elapsed < 1.0)
    assert _verdict(2, "linear preset certificates", ok,
                    f"pair={b_pair:.7f} homogeneous={b_homog:.7f} "
                    f"elapsed={elapsed:.3f}s")


# -------------------------------------------------------------- criterion 3


def test_acceptance_03_partial_sums_under_symbol_power():
    # The bound (sup f)^k holds on any window inside one period of p^k
    # lattice residues.  The symmetric window |xi| < p^k of
    # partial_sum_S_k splits into the full period [-p^k+1, 0] and
    # [1, p^k-1]; each piece is checked against the bare power.
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst = {"lower": 0.0, "upper": 0.0}
    violations = 0
    mismatches = 0
    checked = 0
    for factor in (C3, C5):
        cert = sup_f(factor).certified_upper
        p = factor.p_int()
        for theta in rng.uniform(0.0, 1.0, size=100):
            for k in range(1, 6):
                checked += 1
                xi = np.arange(-p ** k + 1, p ** k, dtype=np.float64)
                values, _ = fourier_transform_batch(factor, xi[:, None] + theta)
                mags = np.abs(values)
                pieces = {"lower": float(mags[xi <= 0].sum()),
                          "upper": float(mags[xi > 0].sum())}
                for name, piece in pieces.items():
                    ratio = piece / cert ** k
                    worst[name] = max(worst[name], ratio)
                    violations += ratio > 1.0
                total = pieces["lower"] + pieces["upper"]
                mismatches += not math.isclose(
                    total, partial_sum_S_k(factor, theta, k), rel_tol=1e-12)
    elapsed = time.monotonic() - t0
    ok = violations == 0 and mismatches == 0 and elapsed < 300.0
    assert _verdict(3, "partial sums under symbol power", ok,
                    f"violations={violations}/{2 * checked} "
                    f"worst_ratio={{lower: {worst['lower']:.4f}, "
                    f"upper: {worst['upper']:.4f}}} "
                    f"S_k_mismatches={mismatches} elapsed={elapsed:.1f}s")


# -------------------------------------------------------------- criterion 4


def _one_missing_digit_closed_form(p):
    # the crude bound's closed form at n = 1, t = 1, to 50 digits:
    # 1 - log[(p + 2 p log p) / (p - 1)] / log p
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        big_p = decimal.Decimal(p)
        log_p = big_p.ln()
        return float(1 - ((big_p + 2 * big_p * log_p)
                          / (big_p - 1)).ln() / log_p)


def test_acceptance_04_crude_bound_spot_and_limit():
    # One missing digit (t = 1) at p = 10^k.  The bound tends to n = 1
    # only like 1 - log(2 log p)/log p, so the limit clause follows the
    # closed form up the exact bases and asks it to grow strictly.
    small = crude_bound(interval_spec(10, 0, 8)).value
    exponents = range(1, 19)
    values = [crude_bound(interval_spec(10 ** k, 0, 10 ** k - 2)).value
              for k in exponents]
    gap = max(abs(v - _one_missing_digit_closed_form(10 ** k))
              for k, v in zip(exponents, values))
    increasing = all(b > a for a, b in zip(values, values[1:]))
    ok = abs(small - 0.2056) <= 1e-3 and gap <= 1e-12 and increasing
    assert _verdict(4, "crude bound spot value and limit", ok,
                    f"value(p=10,t=1)={small:.6f} "
                    f"value(p=1e18,t=1)={values[-1]:.6f} "
                    f"max_gap_to_closed_form={gap:.1e} "
                    f"increasing={increasing}")


# -------------------------------------------------------------- criterion 5


def test_acceptance_05_transform_matches_cylinder_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst = {"base3": 0.0, "base5-square": 0.0}
    # The oracle's own error is sum_f 2 pi |xi_f| p_f^-m: 1.8e-7 for
    # base 3 at depth 20 and 2.1e-7 for the base-5 square at depth 14
    # when |xi_f| <= 100, both well below the 1e-5 target.
    for xi in rng.uniform(-100.0, 100.0, size=200):
        err = abs(fourier_transform(C3, [xi], tol=1e-9).value
                  - fourier_oracle(C3, [xi], depth=20))
        worst["base3"] = max(worst["base3"], err)
    for xi in rng.uniform(-100.0, 100.0, size=(200, 2)):
        err = abs(fourier_transform(C52_SQ, xi, tol=1e-9).value
                  - fourier_oracle(C52_SQ, xi, depth=14))
        worst["base5-square"] = max(worst["base5-square"], err)
    elapsed = time.monotonic() - t0
    ok = max(worst.values()) <= 1e-5 and elapsed < 60.0
    assert _verdict(5, "transform vs cylinder oracle (base 3 at depth 20, "
                    "base-5 square at depth 14)", ok,
                    f"worst_abs_err={worst} elapsed={elapsed:.1f}s")


# -------------------------------------------------------------- criterion 6


def test_acceptance_06_bound_consistency():
    grid_c3 = grid_lower_bound(C3).value
    basket = [C3, C5, C32_SQ, C52_SQ, LEB_SQ, lebesgue_spec(10),
              explicit_spec(7, [1, 3, 5]), interval_spec(11, 2, 7)]
    slack = [best_lower_bound(s).value - hausdorff_dim(s) for s in basket]
    single = best_lower_bound(square(explicit_spec(5, [0]))).value
    ok = (max(slack) <= 1e-9
          and abs(grid_c3 - 0.36907) <= 1e-3
          and single == 0.0)
    assert _verdict(6, "lower bounds consistent", ok,
                    f"grid={grid_c3:.6f} max_excess={max(slack):.2e} "
                    f"single_digit={single}")


# -------------------------------------------------------------- criterion 7


def _boxcar(values, grid, width):
    step = grid[1] - grid[0]
    half = max(1, int(round(width / step / 2)))
    kernel = np.ones(2 * half + 1) / (2 * half + 1)
    return np.convolve(values, kernel, mode="same")


def test_acceptance_07_linear_projection_reference_suite():
    t0 = time.monotonic()
    diag = np.array([1.0, 1.0]) / math.sqrt(2)

    u = np.arange(-0.1, math.sqrt(2) + 0.1 + 1e-12, 0.005)
    triangle = np.clip(np.where(u < math.sqrt(2) / 2, u, math.sqrt(2) - u),
                       0.0, None) * 2.0
    prof_fourier = linear_density(LEB_SQ, diag, u, T_max=81.0)
    l1_fourier = float(np.trapezoid(np.abs(prof_fourier.values - triangle), u))

    prof_mc = linear_density_mc(LEB_SQ, diag, samples=10 ** 6,
                                bandwidth=0.01, seed=SEED)
    tri_mc = np.clip(np.where(prof_mc.grid < math.sqrt(2) / 2, prof_mc.grid,
                              math.sqrt(2) - prof_mc.grid), 0.0, None) * 2.0
    l1_mc = float(np.trapezoid(np.abs(prof_mc.values - tri_mc), prof_mc.grid))

    generic = np.array([math.cos(1.0), math.sin(1.0)])
    u2 = np.arange(-0.15, 1.55 + 1e-12, 0.002)
    prof_gen = linear_density(C32_SQ, generic, u2, T_max=729.0)
    prof_gen_mc = linear_density_mc(C32_SQ, generic, samples=10 ** 6,
                                    bandwidth=0.002, seed=SEED)
    smooth_fourier = _boxcar(prof_gen.values, u2, 0.02)
    mc_on_grid = np.interp(u2, prof_gen_mc.grid, prof_gen_mc.values,
                           left=0.0, right=0.0)
    smooth_mc = _boxcar(mc_on_grid, u2, 0.02)
    l1_generic = float(np.trapezoid(np.abs(smooth_fourier - smooth_mc), u2))

    coord = linear_density(C32_SQ, [1.0, 0.0],
                           np.arange(-0.1, 1.1 + 1e-12, 0.002), T_max=243.0)
    elapsed = time.monotonic() - t0
    ok = (l1_fourier <= 0.03 and l1_mc <= 0.03 and l1_generic <= 0.05
          and "NonConvergent" in coord.flags and elapsed < 300.0)
    assert _verdict(7, "linear projection reference suite", ok,
                    f"triangle_fourier_L1={l1_fourier:.4f} "
                    f"triangle_mc_L1={l1_mc:.4f} generic_L1={l1_generic:.4f} "
                    f"coord_flags={coord.flags} elapsed={elapsed:.1f}s")


# -------------------------------------------------------------- criterion 8


def test_acceptance_08_radial_l2_stability_bracket():
    t0 = time.monotonic()
    corner = np.array([-1.0, -1.0])
    side = np.array([-1.0, 0.5])

    leb_coarse = radial_l2_norm(LEB_SQ, corner, 3.0 ** -3, 250)
    leb_fine = radial_l2_norm(LEB_SQ, corner, 3.0 ** -4, 250)
    drift_leb = abs(leb_fine / leb_coarse - 1.0)

    atom = square(explicit_spec(5, [0]))
    atom_coarse = radial_l2_norm(atom, side, 5.0 ** -3, 800)
    atom_fine = radial_l2_norm(atom, side, 5.0 ** -4, 800)
    growth = atom_fine / atom_coarse

    c52_coarse = radial_l2_norm(C52_SQ, side, 5.0 ** -3, 500)
    c52_fine = radial_l2_norm(C52_SQ, side, 5.0 ** -4, 1600)
    drift_c52 = abs(c52_fine / c52_coarse - 1.0)

    elapsed = time.monotonic() - t0
    ok = (drift_leb <= 0.10 and growth >= 2.0 and drift_c52 <= 0.25
          and elapsed < 600.0)
    assert _verdict(8, "radial L2 stability bracket", ok,
                    f"uniform_drift={drift_leb:.4f} atom_growth={growth:.2f}x "
                    f"sparse_drift={drift_c52:.4f} elapsed={elapsed:.1f}s")


# -------------------------------------------------------------- criterion 9


def test_acceptance_09_exceptional_direction_detector():
    t0 = time.monotonic()
    s1 = 2.0 * grid_lower_bound(C3).value
    angles, values = stripe_scan(C32_SQ, 81.0, 256)
    axis_low = min(values[np.argmin(np.abs(angles - 0.0))],
                   values[np.argmin(np.abs(angles - math.pi / 2))])
    generic_median = float(np.median(values))
    generic_point = stripe_integral(C32_SQ,
                                    (math.cos(1.0), math.sin(1.0)), 81.0)
    ratio = axis_low / max(generic_median, generic_point)

    q_r = np.asarray(exceptional_directions(C32_SQ, 81.0, 0.05, s1, 256)[3])
    has_axes = (
        bool(np.any(np.all(np.abs(q_r - np.array([1.0, 0.0])) < 1e-9, axis=1)))
        and bool(np.any(np.all(np.abs(q_r - np.array([0.0, 1.0])) < 1e-9,
                               axis=1))))
    elapsed = time.monotonic() - t0
    ok = ratio >= 5.0 and has_axes and elapsed < 120.0
    assert _verdict(9, "exceptional direction detector", ok,
                    f"axis_over_generic={ratio:.2f} axes_listed={has_axes} "
                    f"|Q_R|={len(q_r)} elapsed={elapsed:.1f}s")


# ------------------------------------------------------------- criterion 10


def test_acceptance_10_restricted_digit_enumeration():
    t0 = time.monotonic()
    reference = enumerate_restricted(system((3, {0, 1}), (5, {0, 1, 2})), 100)
    exact = reference == [1, 10, 12, 27, 30, 31, 36, 37]

    import random
    rng = random.Random(2026)
    agree = True
    for _ in range(50):
        parts = []
        for _ in range(rng.randint(1, 3)):
            base = rng.randint(3, 12)
            size = rng.randint(1, base - 1)
            parts.append((base, frozenset(rng.sample(range(base), size))))
        limit = rng.randint(10, 100_000)
        brute = [m for m in range(1, limit + 1)
                 if all(digits_ok(m, b, d) for b, d in parts)]
        if enumerate_restricted(system(*parts), limit) != brute:
            agree = False
            break

    counts = all(
        len(enumerate_restricted(system((3, {0, 1})), 3 ** k - 1))
        == 2 ** k - 1
        for k in (3, 5, 7))
    elapsed = time.monotonic() - t0
    ok = exact and agree and counts and elapsed < 60.0
    assert _verdict(10, "restricted digit enumeration", ok,
                    f"exact_set={exact} kernel_vs_brute={agree} "
                    f"power_counts={counts} elapsed={elapsed:.1f}s")
