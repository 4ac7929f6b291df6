import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import missingdigits.cli as cli
import missingdigits.projection as projection
from missingdigits import (EvalBudget, crude_bound, exceptional_directions,
                           fourier_transform_batch, grid_lower_bound, parse_spec,
                           rectangle_bound)
from missingdigits.cli import main
from oracles import radial_l2_norm

C3 = "factor { base = 3; digits = {0,2}; }"
C32_SQ = "factor { base = 3; digits = {0,2}; } factor { base = 3; digits = {0,2}; }"
LEB = "factor { base = 10; digits = 0..9; }"
CARPET = ("factor { base = 3; n = 2; digits = "
          "{(0,0),(1,0),(2,0),(0,1),(2,1),(0,2),(1,2),(2,2)}; }")


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse-reported usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """The document in text, refused if it holds NaN or Infinity."""
    return json.loads(text, parse_constant=_refuse_constant)


def run_json(argv):
    code, out, _ = run(argv)
    return code, strict_json(out)


# --------------------------------------------------------------- exit codes


def test_exit_0_on_certified_preset():
    code, doc = run_json(["preset", "theorem-a"])
    assert code == 0
    assert doc["result"]["reports"][0]["report"]["verdict"] == "Certified"


def test_exit_1_when_bound_misses_threshold():
    code, doc = run_json(["certify", "--spec", C32_SQ, "--linear"])
    assert code == 1
    assert doc["result"]["verdict"] == "NotCertified"


def test_exit_1_on_empty_enumeration():
    code, doc = run_json(["graham", "--system", "3:{2};5:{1}", "--limit", "50"])
    assert code == 1
    assert doc["result"]["count"] == 0


def test_exit_2_when_hypotheses_unverified():
    code, doc = run_json(["certify", "--spec", C32_SQ, "--radial-lp", "1"])
    assert code == 2
    assert doc["result"]["verdict"] == "Inconclusive"
    assert doc["result"]["side_conditions"]


def test_exit_64_usage_errors():
    assert run(["frobnicate"])[0] == 64
    assert run(["certify", "--spec", C32_SQ])[0] == 64  # no mode picked
    assert run(["dim-bound", "--spec", "factor { nope }"])[0] == 64
    assert run(["dim-bound"])[0] == 64  # no spec anywhere
    assert run(["dim-bound", "--spec", C3, "--workers", "2"])[0] == 64  # no such flag
    # eps is refused before the scan, which alone would exceed the budget
    assert run(["stripe-scan", "--spec", C32_SQ, "--radius", "2000", "--eps", "0"])[0] == 64
    # flag pairs of which one would be silently dropped
    for argv in (["radial-density", "--spec", C32_SQ, "--viewpoint=-1,0.5",
                  "--delta", "0.01", "--mc", "2000"],
                 ["fourier-eval", "--spec", C3, "--xi", "1", "--grid", "10,5"],
                 ["graham", "--system", "3:{0,1};5:{0,1,2}", "--limit", "100",
                  "--checkpoints", "1000"],
                 ["linear-density", "--spec", C32_SQ, "--direction", "1,1", "--mc", "2000",
                  "--grid", "0,1,5"]):
        code, out, err = run(argv)
        assert (code, out) == (64, ""), argv
        assert "choose one of" in err


def _parse(parser, argv):
    """What parsing argv gives: the parsed options, or the exit code,
    and the text written."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


# the options that each subcommand requires
REQUIRED = {"preset": ["theorem-a"], "radial-density": ["--viewpoint", "1,1"],
            "linear-density": ["--direction", "1,1"], "lp-integral": ["--p", "2"],
            "slab-integral": ["--direction", "1,0"], "graham": ["--system", "3:{0}"]}


@pytest.mark.parametrize("name", sorted(cli._SUBCOMMANDS))
def test_the_one_subparser_of_a_run_parses_as_the_full_parser_does(name):
    required = REQUIRED.get(name, [])
    for tail in ([], ["--help"], ["--no-such-flag"], ["--budget", "abc"], ["--budget"],
                 required, [*required, "--budget", "10", "--config", "c.json"],
                 [*required, "extra"], [*required, "--no-such-flag"]):
        argv = [name, *tail]
        assert _parse(cli.build_parser(name), argv) == _parse(cli.build_parser(), argv), argv


def test_argv_without_a_subcommand_first_gets_the_full_parser():
    for argv in ([], ["--help"], ["frobnicate"], ["--budget", "5", "dim-bound"]):
        assert _parse(cli.build_parser(argv[0] if argv else None), argv) \
            == _parse(cli.build_parser(), argv)
    assert set(cli.build_parser()._subparsers._group_actions[0].choices) == set(cli._SUBCOMMANDS)
    assert list(cli.build_parser("graham")._subparsers._group_actions[0].choices) == ["graham"]


@pytest.mark.parametrize("argv", [
    ["dim-bound", "--spec", C3, "--csv", "bounds.csv"],
    ["certify", "--spec", C32_SQ, "--linear", "--json"],
    ["preset", "theorem-a", "--spec", C3],
    ["lp-integral", "--spec", C32_SQ, "--p", "2", "--rmax", "4", "--csv", "sums.csv"],
    ["slab-integral", "--spec", C32_SQ, "--direction", "1,0", "--tmax", "8", "--json"],
    ["graham", "--system", "3:{0,1};5:{0,1,2}", "--limit", "100", "--spec", "garbage"],
])
def test_exit_64_on_an_option_the_subcommand_does_not_read(argv):
    # --csv and --json only where rows are written, --spec only where a
    # measure is parsed
    code, out, err = run(argv)
    assert (code, out) == (64, "")
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["fourier-eval", "--spec", C3, "--xi", "nan"],
    ["linear-density", "--spec", C32_SQ, "--direction", "1,1", "--tmax", "nan"],
    ["linear-density", "--spec", C32_SQ, "--direction", "nan,1"],
    ["stripe-scan", "--spec", C32_SQ, "--radius", "nan"],
    ["fourier-eval", "--spec", "factor { base = 10^100; digits = 0..9; }", "--xi", "1"],
    ["radial-density", "--spec", C32_SQ, "--viewpoint=0.5,0.5", "--delta", "0.01",
     "--angles", "50"],
    ["linear-density", "--spec", C32_SQ, "--direction", "1,1", "--grid", "0,1,1"],
    ["stripe-scan", "--spec", C32_SQ, "--radius", "27", "--angles", "8", "--eps", "0"],
    ["stripe-scan", "--spec", C3, "--radius", "0"],  # R^x with x < 0 would divide by 0
    ["stripe-scan", "--spec", C32_SQ, "--radius", "27", "--eps", "1e300"],  # R^x overflows
    # without --s1, eps and R are refused before the spec's bound is paid for
    ["stripe-scan", "--spec", CARPET, "--eps", "0", "--budget", "1000"],
    ["stripe-scan", "--spec", CARPET, "--radius", "0", "--budget", "1000"],
    ["graham", "--system", "3:{0,1};5:{0,1,2}", "--scales", "1,abc", "--limit", "100"],
    ["graham", "--system", "3:{0,1};5:{0,1,2}", "--scales", "1,1/0", "--limit", "100"],
    ["graham", "--system", "3:{0,1};5:{0,1,2}", "--checkpoints", "10,abc"],
    ["radial-density", "--spec", C32_SQ, "--viewpoint=-1,0.5", "--mc", "0"],
    ["linear-density", "--spec", C32_SQ, "--direction", "1,1", "--mc", "-5"],
    ["dim-bound", "--spec", "factor { base = 3; digits = {0,x}; }"],
    ["dim-bound", "--spec", "factor { base = 3; n = abc; digits = {0,2}; }"],
    ["lp-integral", "--spec", f"{C3} {C3} {C3}", "--p", "2", "--rmax", "4"],
    ["fourier-eval", "--spec", C3, "--xi", "1e300"],  # |xi| overflows
    # past Python's 4300-digit limit for int(str)
    ["dim-bound", "--spec", f"factor {{ base = 1{'0' * 5000}; digits = 0..9; }}"],
    ["dim-bound", "--spec", f"factor {{ base = 10; digits = 0..1{'0' * 5000}; }}"],
    ["dim-bound", "--spec", C3, "--budget", "150000.7"],  # refused, not truncated
    # subnormal scales: 4/scale overflows, so no cylinder depth resolves them
    ["radial-density", "--spec", C32_SQ, "--viewpoint=-1,-1", "--delta", "1e-320"],
    ["radial-density", "--spec", C32_SQ, "--viewpoint=-1,-1", "--mc", "10",
     "--bandwidth", "1e-320"],
    ["linear-density", "--spec", C32_SQ, "--direction", "1,1", "--mc", "10",
     "--bandwidth", "1e-320"],
    # the viewing sector is narrower than the float spacing of its angles
    ["radial-density", "--spec", C32_SQ, "--viewpoint=1e14,0.5", "--delta", "0.01"],
])
def test_exit_64_on_bad_numeric_input(argv):
    assert run(argv)[0] == 64


@pytest.mark.parametrize("spec", [
    f"{C3} factr {{ base = 5; digits = {{0,1}}; }}",  # a misspelled block is not dropped
    f"xyz {C3} junk",
    f"{C3} factor",
    f"{C3} }}",
])
def test_exit_64_on_text_outside_the_factor_blocks(spec):
    code, out, err = run(["dim-bound", "--spec", spec])
    assert (code, out) == (64, "")
    assert err.startswith("missingdigits: config error:")


TOL_READERS = [
    ["fourier-eval", "--spec", C3, "--xi", "1"],
    ["linear-density", "--spec", C32_SQ, "--direction", "1,2", "--tmax", "9"],
    ["stripe-scan", "--spec", C32_SQ, "--radius", "9", "--angles", "8"],
    ["lp-integral", "--spec", C32_SQ, "--p", "2", "--rmax", "4"],
    ["slab-integral", "--spec", C32_SQ, "--direction", "1,0", "--tmax", "8"],
]


@pytest.mark.parametrize("argv", TOL_READERS, ids=lambda argv: argv[0])
def test_a_tol_below_the_transform_floor_exits_64(argv):
    # the transform would floor it to 1e-12 while the result reported it
    for tol in ("0", "-1", "1e-13"):
        code, out, err = run(argv + ["--tol", tol])
        assert (code, out) == (64, ""), tol
        assert f"argument --tol: must be at least 1e-12, got '{tol}'" in err
    assert run(argv + ["--tol", "1e-12"])[0] == 0


@pytest.mark.parametrize("argv", [
    ["fourier-eval", "--spec", C3, "--grid", "1e308,3"],
    ["linear-density", "--spec", C32_SQ, "--direction", "1,1", "--grid=1e308,-1e308,3"],
])
def test_an_overflowing_grid_span_is_refused_before_numpy_warns(argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(argv)
    assert (code, out) == (64, "")
    assert not caught
    assert err.startswith("missingdigits: config error: --grid span must be finite")
    assert err.count("\n") == 1


def test_an_overflowing_frequency_norm_is_named_as_such():
    code, _, err = run(["fourier-eval", "--spec", C3, "--xi", "1e300"])
    assert code == 64
    assert "frequency norm |xi| is not finite (or overflows a float)" in err


HUGE = "100000000000000000000"


@pytest.mark.parametrize("argv", [
    ["linear-density", "--spec", C32_SQ, "--direction", "1,1", "--tmax", "1e300"],
    ["linear-density", "--spec", C32_SQ, "--direction", "1,1", "--grid", f"0,1,{HUGE}"],
    ["fourier-eval", "--spec", C3, "--grid", f"1,{HUGE}"],
    ["stripe-scan", "--spec", C32_SQ, "--radius", "1e300"],
    ["slab-integral", "--spec", C32_SQ, "--direction", "1,1", "--tmax", "1e300"],
    ["radial-density", "--spec", C32_SQ, "--viewpoint=-1,-1", "--delta", "0.5",
     "--angles", HUGE],
    ["radial-density", "--spec", C32_SQ, "--viewpoint=-1,0.5", "--mc", HUGE],
    ["radial-density", "--spec", C32_SQ, "--viewpoint=-1,0.5", "--mc", "3",
     "--bandwidth", "1e-300", "--budget", "100000"],
])
def test_exit_65_on_oversized_numeric_input(argv):
    code, out, err = run(argv)
    assert code == 65
    assert out == ""
    assert "budget exceeded" in err


def test_monte_carlo_bandwidth_wider_than_the_square_samples_at_depth_one():
    code, doc = run_json(["linear-density", "--spec", C32_SQ, "--direction", "1,1",
                          "--mc", "64", "--bandwidth", "1e300"])
    assert code == 0
    assert doc["result"]["profile"]["metadata"]["depth"] == 1


def test_tube_wider_than_the_square_counts_at_depth_zero():
    code, doc = run_json(["radial-density", "--spec", C32_SQ, "--viewpoint=-100,-100",
                          "--delta", "50", "--angles", "4"])
    assert code == 0
    assert doc["result"]["profile"]["metadata"]["depth"] == 0


def test_zero_direction_is_refused_without_a_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(["linear-density", "--spec", C32_SQ, "--direction", "0,0"])
    assert code == 64
    assert "direction must be nonzero" in err
    assert not caught


def test_exit_64_on_bad_config_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"spec": C3, "bogus": 1}))
    assert run(["dim-bound", "--config", str(bad)])[0] == 64
    notjson = tmp_path / "notjson.json"
    notjson.write_text("[1, 2, 3]")
    assert run(["dim-bound", "--config", str(notjson)])[0] == 64
    threads = tmp_path / "threads.json"
    threads.write_text(json.dumps({"spec": C3, "workers": 2}))  # no such key
    code, _, err = run(["dim-bound", "--config", str(threads)])
    assert code == 64
    assert "unknown config keys" in err
    fractional = tmp_path / "fractional.json"
    fractional.write_text(json.dumps({"spec": C3, "seed": 2.5}))  # refused, not truncated
    code, _, err = run(["dim-bound", "--config", str(fractional)])
    assert code == 64
    assert "seed must be an integer" in err


def test_exit_65_on_budget_exhaustion():
    code, out, err = run(["lp-integral", "--spec", C32_SQ, "--p", "2",
                          "--rmax", "256", "--budget", "10000"])
    assert code == 65
    assert "budget" in err.lower()
    assert out == ""  # no partial result document


def test_a_huge_cell_count_is_refused_in_scientific_form():
    # a 1e-300 bandwidth asks for some 6e299 histogram bins
    code, out, err = run(["radial-density", "--spec", C32_SQ, "--viewpoint=-1,-1",
                          "--mc", "10", "--bandwidth", "1e-300"])
    assert code == 65 and out == ""
    assert "histogram bins needs 6.435e+299 cells" in err
    assert err.count("\n") == 1 and len(err.encode()) < 200


# ----------------------------------------------------------------- manifest


def test_manifest_fields_present():
    _, doc = run_json(["radial-density", "--spec", C32_SQ,
                       "--viewpoint=-1,0.5", "--mc", "5000",
                       "--angles", "32", "--seed", "11", "--budget", "1e8"])
    man = doc["manifest"]
    assert sorted(man) == ["budget", "config", "cost", "outputs", "seed", "subcommand",
                           "versions", "wall_time_s"]
    assert man["subcommand"] == "radial-density"
    assert man["seed"] == 11
    assert man["budget"] == 100_000_000  # an integral float is a whole count
    assert man["config"]["argv"][0] == "radial-density"
    assert man["versions"]["rng"] == "PCG64"
    assert "numpy" in man["versions"] and "python" in man["versions"]
    assert man["wall_time_s"] >= 0.0


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": C32_SQ, "seed": 7}))
    base = ["radial-density", "--config", str(cfg),
            "--viewpoint=-1,0.5", "--mc", "2000", "--angles", "16"]
    _, doc = run_json(base)
    assert doc["manifest"]["seed"] == 7
    assert doc["manifest"]["config"]["spec"] == C32_SQ
    _, doc = run_json(base + ["--seed", "9"])
    assert doc["manifest"]["seed"] == 9
    # a subcommand that parses no measure leaves the file's spec unread
    _, doc = run_json(["graham", "--config", str(cfg), "--system", "3:{0,1};5:{0,1,2}",
                       "--limit", "10"])
    assert doc["manifest"]["config"]["spec"] is None


def test_repeat_runs_identical_outside_wall_time():
    for argv in (["stripe-scan", "--spec", C32_SQ, "--radius", "27", "--angles", "64", "--json"],
                 # three chunks of draws, each charged as it is drawn
                 ["radial-density", "--spec", C32_SQ, "--viewpoint=-1,0.5", "--mc", "300000",
                  "--angles", "32", "--seed", "5"]):
        _, doc_a = run_json(argv)
        _, doc_b = run_json(argv)
        doc_a["manifest"].pop("wall_time_s")
        doc_b["manifest"].pop("wall_time_s")
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)


# ------------------------------------------------------------------ results


def test_stripe_scan_scans_once(monkeypatch):
    calls = []
    scan = projection.stripe_scan

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(projection, "stripe_scan", counted)
    # A given --s1 is used as it is; without one, the spec's own
    # best_lower_bound.  C3^2's 0.7376 would give the carpet threshold
    # 4.92 and no exceptional direction.
    for spec, radius, angles, s1, flags, count in (
            (C32_SQ, 27, 64, 0.7376, ["--s1", "0.7376"], 14),
            (C32_SQ, 27, 64, 0.7377721729565001, [], 14),
            (CARPET, 81, 256, 0.999039718471642, [], 6)):
        calls.clear()
        code, doc = run_json(["stripe-scan", "--spec", spec, "--radius", str(radius),
                              "--angles", str(angles), "--eps", "0.05", *flags])
        assert code == 0
        assert len(calls) == 1
        assert doc["result"]["s1"] == s1
        *_, expected = exceptional_directions(parse_spec(spec), radius, 0.05, s1, angles)
        assert doc["result"]["exceptional_directions"] == [list(d) for d in expected]
        assert doc["result"]["exceptional_count"] == len(expected) == count


def test_dim_bound_reports_candidates():
    _, doc = run_json(["dim-bound", "--spec", LEB])
    res = doc["result"]
    assert res["hausdorff_dim"] == pytest.approx(1.0)
    kinds = res["per_factor_candidates"][0]
    assert kinds["grid"]["rigorous"] is True
    assert res["best"]["value"] <= res["hausdorff_dim"] + 1e-9


def test_dim_bound_runs_each_factor_grid_once():
    # both factors of I512 x I512 are equal, so one factor's grid cells
    # are the whole budget of the run
    factor = parse_spec("factor { base = 512; digits = 0..499; }")
    one_grid = EvalBudget()
    grid = grid_lower_bound(factor, budget=one_grid)
    spec = f"{factor.config_text()} {factor.config_text()}"
    code, doc = run_json(["dim-bound", "--spec", spec, "--budget", str(one_grid.spent)])
    assert code == 0
    res = doc["result"]
    expected = {"grid": grid.value, "crude": crude_bound(factor).value,
                "rectangle": rectangle_bound(factor).value}
    for per in res["per_factor_candidates"]:
        assert {name: b["value"] for name, b in per.items()} == expected
    assert res["best"]["value"] == 2 * max(expected.values())
    assert res["best"]["kind"] == "ProductSum"
    code, _, err = run(["dim-bound", "--spec", spec, "--budget", str(one_grid.spent - 1)])
    assert code == 65
    assert "f(theta) residues" in err


@pytest.mark.parametrize("count", [182, 700])
def test_dim_bound_charges_explicit_digit_terms(count):
    # sup_f's first level has 16 thetas; each residue of base 729 carries
    # count digit terms; that level costs one cell more than the budget
    first = 16 * 729 * count
    digits = ",".join(str(d) for d in range(count))
    code, out, err = run(["dim-bound", "--spec", f"factor {{ base = 729; digits = {{{digits}}}; }}",
                          "--budget", str(first - 1)])
    assert code == 65
    assert out == ""
    assert f"f(theta) residues needs {first} cells" in err


def test_dim_bound_certifies_the_carpet_at_the_default_budget():
    code, doc = run_json(["dim-bound", "--spec", CARPET])
    assert code == 0
    grid = doc["result"]["per_factor_candidates"][0]["grid"]
    assert grid["rigorous"] is True
    assert grid["value"] > 0.999
    assert doc["result"]["best"] == grid


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(resource is None, reason="needs the resource module")
@pytest.mark.parametrize("spec", [
    "factor { base = 2; n = 2; digits = {(0,0)}; }",
    "factor { base = 3; n = 2; digits = {(0,0),(1,0),(2,0),(0,1),(2,1),(0,2),(1,2),(2,2)}; }",
])
def test_dim_bound_refuses_an_over_budget_theta_grid_before_building_it(spec):
    # the 16^2 boxes of sup_f's first level cost more than 1000 cells
    # (1,024 and 18,432); the refusal comes before f_theta runs, in a
    # 1 GB address space
    proc = subprocess.run([sys.executable, "-m", "missingdigits", "dim-bound", "--spec", spec,
                           "--budget", "1000"],
                          capture_output=True, text=True, preexec_fn=_cap_address_space)
    assert proc.returncode == 65, proc.stderr
    assert "f(theta) residues" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(resource is None, reason="needs the resource module")
@pytest.mark.parametrize("argv, code, label", [
    # the half-annulus is walked a block at a time and charged what it
    # evaluates, 56.9M cells, so it runs in the 1 GB address space
    (["stripe-scan", "--radius", "2000"], 0, None),
    # these would build 300-600 MiB of frequency points before the
    # transform charged them; the refusal must come first
    (["linear-density", "--direction", "1,2", "--tmax", "5e6"], 65, "transform levels"),
    (["slab-integral", "--direction", "1,2", "--tmax", "2e7"], 65, "transform levels"),
    # its row tables alone would hold 2e12 entries
    (["stripe-scan", "--radius", "1e12"], 65, "lattice annulus"),
], ids=["argv0", "argv1", "argv2", "argv3"])
def test_fourier_chain_refuses_transform_levels_before_building_points(argv, code, label):
    proc = subprocess.run([sys.executable, "-m", "missingdigits", *argv, "--spec", C32_SQ],
                          capture_output=True, text=True, preexec_fn=_cap_address_space)
    assert proc.returncode == code, proc.stderr
    assert label is None or label in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(resource is None, reason="needs the resource module")
@pytest.mark.parametrize("spec, rmax, label", [
    # the half diamond inside the half-ball, 2^52 + 2^26 + 1 points
    (C32_SQ, 2 ** 26, "lattice ball needs 4.504e+15 cells"),
    # the half-axis 0..2^30, 8 GiB of points
    (C3, 2 ** 30, "lattice ball needs 1073741825 cells"),
    # a half-axis the budget admits, 256 MiB of points at 37 levels each
    (C3, 2 ** 25, "transform levels needs 1241514021 cells"),
])
def test_lp_integral_refuses_an_oversized_ball_before_building_it(spec, rmax, label):
    proc = subprocess.run([sys.executable, "-m", "missingdigits", "lp-integral", "--spec", spec,
                           "--p", "2", "--rmax", str(rmax)],
                          capture_output=True, text=True, preexec_fn=_cap_address_space)
    assert proc.returncode == 65, proc.stderr
    assert label in proc.stderr
    assert "Traceback" not in proc.stderr


STRIPE_81 = ["stripe-scan", "--spec", C32_SQ, "--radius", "81", "--angles", "256",
             "--s1", "0.7376", "--eps", "0.05"]


def test_a_mirrored_batch_runs_within_the_budget_it_is_charged():
    # the annulus is walked on its half, one point of each pair +-xi, and
    # charged what the walk evaluates and bins
    code, full = run_json(STRIPE_81)
    assert code == 0
    # the run spends 105,710 cells in all
    for budget in ("2000000", "105710"):
        code, doc = run_json(STRIPE_81 + ["--budget", budget])
        assert code == 0
        assert doc["result"] == full["result"]
    code, out, err = run(STRIPE_81 + ["--budget", "105709"])
    assert (code, out) == (65, "")
    assert "budget exhausted" in err


def test_exit_64_when_no_dimension_bound_applies():
    # 3^17 residues exceed the grid cap; crude and rectangle need p >= 4
    corners = "(" + ",".join(["0"] * 17) + "),(" + ",".join(["2"] * 17) + ")"
    spec = f"factor {{ base = 3; n = 17; digits = {{{corners}}}; }}"
    # stripe-scan without --s1 bounds the spec first, as dim-bound does
    for argv in (["dim-bound", "--spec", spec], ["stripe-scan", "--spec", spec]):
        code, out, err = run(argv)
        assert code == 64
        assert out == ""
        assert "no dimension bound applies" in err


def test_fourier_eval_point_values():
    _, doc = run_json(["fourier-eval", "--spec", C3, "--xi", "1",
                       "--tol", "1e-9"])
    res = doc["result"]
    assert res["columns"][0] == "xi_1"
    assert res["max_error_bound"] <= 1e-9
    row = dict(zip(res["columns"], (float(c) for c in res["rows"][0])))
    assert row["xi_1"] == 1.0
    _, doc2 = run_json(["fourier-eval", "--spec", C3, "--xi=-1",
                        "--tol", "1e-9"])
    row2 = dict(zip(doc2["result"]["columns"],
                    (float(c) for c in doc2["result"]["rows"][0])))
    assert row2["transform_re"] == pytest.approx(row["transform_re"], abs=1e-12)
    assert row2["transform_im"] == pytest.approx(-row["transform_im"], abs=1e-12)
    assert row2["transform_abs"] <= 1.0 + 1e-9


def test_graham_csv_golden_rows(tmp_path):
    out_csv = tmp_path / "members.csv"
    code, doc = run_json(["graham", "--system", "3:{0,1};5:{0,1,2}",
                          "--limit", "100", "--csv", str(out_csv)])
    assert code == 0
    assert doc["result"]["count"] == 8
    lines = out_csv.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert comments, "csv must carry explanatory comment headers"
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    assert body[0] == "qualifying_integer"
    assert [int(x) for x in body[1:]] == [1, 10, 12, 27, 30, 31, 36, 37]
    assert str(out_csv) in doc["manifest"]["outputs"]


def test_graham_checkpoints_without_members_print_strict_json(tmp_path):
    # log(0) has no exponent: null in the JSON, an empty cell in the CSV
    out_csv = tmp_path / "density.csv"
    code, doc = run_json(["graham", "--system", "3:{2};5:{3}", "--checkpoints", "2,10",
                          "--csv", str(out_csv)])
    assert code == 1
    assert doc["result"]["rows"] == [{"limit": 2, "count": 0, "exponent": None},
                                     {"limit": 10, "count": 0, "exponent": None}]
    body = [ln for ln in out_csv.read_text().splitlines() if not ln.startswith("#")]
    assert body[1:] == ["2,0,", "10,0,"]


def test_graham_inline_members_without_csv():
    code, doc = run_json(["graham", "--system", "3:{0,1};5:{0,1,2}",
                          "--limit", "100"])
    assert code == 0
    assert doc["result"]["members"] == [1, 10, 12, 27, 30, 31, 36, 37]


def test_radial_density_csv_names_units(tmp_path):
    out_csv = tmp_path / "profile.csv"
    code, _, _ = run(["radial-density", "--spec", C32_SQ,
                      "--viewpoint=-1,0.5", "--mc", "20000",
                      "--angles", "64", "--bandwidth", "0.05",
                      "--seed", "1", "--csv", str(out_csv)])
    assert code == 0
    text = out_csv.read_text()
    assert text.startswith("#")
    assert "radian" in text.lower() or "angle" in text.lower()


@pytest.mark.parametrize("argv", [
    ["fourier-eval", "--spec", C3, "--xi", "0.5", "--xi", "3"],
    ["radial-density", "--spec", C32_SQ, "--viewpoint=-1,0.5", "--delta", "0.04",
     "--angles", "8"],
    ["linear-density", "--spec", C32_SQ, "--direction", "1,2", "--tmax", "9",
     "--grid", "0,1,5"],
    ["stripe-scan", "--spec", C32_SQ, "--radius", "9", "--angles", "8"],
    ["graham", "--system", "3:{0,1};5:{0,1,2}", "--checkpoints", "10,100"],
], ids=lambda argv: argv[0])
def test_csv_data_cells_are_plain_numbers(tmp_path, argv):
    out_csv = tmp_path / "rows.csv"
    assert run(argv + ["--csv", str(out_csv)])[0] == 0
    header, *rows = [ln for ln in out_csv.read_text().splitlines() if not ln.startswith("#")]
    assert rows
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(header.split(","))
        for cell in cells:
            int(cell) if cell.lstrip("-").isdigit() else float(cell)


def _csv_comments(path) -> list:
    return [ln for ln in path.read_text().splitlines() if ln.startswith("#")]


def test_tube_csv_comments_give_the_half_width_the_mass_is_divided_by(tmp_path):
    out_csv = tmp_path / "tube.csv"
    code, _, _ = run(["radial-density", "--spec", C32_SQ, "--viewpoint=-1,0.5",
                      "--delta", "0.04", "--angles", "8", "--csv", str(out_csv)])
    assert code == 0
    assert _csv_comments(out_csv) == [
        "# radial density on the viewing circle: tube mass / half-width 0.04 "
        "(about 2/r times the mass per radian at distance r)",
        "# method: cylinder tube counts at half-width 0.04",
    ]


@pytest.mark.parametrize("direction, lo, hi", [
    ("1,2", "-0.05", "1.3916407864998739"),           # 0 and (1 + 2)/sqrt 5, 0.05 out
    ("-1,1", "-0.7571067811865475", "0.7571067811865475"),  # -+1/sqrt 2, 0.05 out
])
def test_linear_default_grid_spans_the_projected_unit_square(direction, lo, hi):
    code, doc = run_json(["linear-density", "--spec", C32_SQ, f"--direction={direction}",
                          "--tmax", "9"])
    assert code == 0
    grid = doc["result"]["profile"]["grid"]
    assert (grid[0], grid[-1], len(grid)) == (lo, hi, 501)


def test_linear_csv_comments_read_the_quadrature_step_of_the_profile(tmp_path, monkeypatch):
    monkeypatch.setattr(projection, "LINEAR_QUADRATURE_STEP", 0.125)
    out_csv = tmp_path / "linear.csv"
    code, _, _ = run(["linear-density", "--spec", C32_SQ, "--direction", "1,2",
                      "--tmax", "9", "--grid", "0,1,5", "--csv", str(out_csv)])
    assert code == 0
    assert _csv_comments(out_csv)[1] == (
        "# method: Fourier inversion, frequency cutoff 9.0, quadrature step 0.125")


def test_radial_l2_norm_squared_is_the_library_norm_bit_for_bit():
    code, doc = run_json(["radial-density", "--spec", C32_SQ, "--viewpoint=-1,0.5",
                          "--delta", "0.04"])
    assert code == 0
    expected = radial_l2_norm(parse_spec(C32_SQ), (-1.0, 0.5), 0.04, 400)
    assert doc["result"]["l2_norm_squared"] == expected


def test_radial_l2_norm_squared_of_monte_carlo_is_the_trapezoid_of_its_rows():
    code, doc = run_json(["radial-density", "--spec", C32_SQ, "--viewpoint=-1,0.5",
                          "--mc", "5000", "--bandwidth", "0.05", "--seed", "3"])
    assert code == 0
    profile = doc["result"]["profile"]
    grid = np.array([float(g) for g in profile["grid"]])
    values = np.array([float(v) for v in profile["values"]])
    assert doc["result"]["l2_norm_squared"] == float(np.trapezoid(values ** 2, grid))


def test_unwritable_csv_path_exits_64():
    code, out, err = run(["graham", "--system", "3:{0,1};5:{0,1,2}", "--limit", "100",
                          "--csv", "/nonexistent/x.csv"])
    assert (code, out) == (64, "")
    assert "cannot write --csv file" in err


def test_stdout_closed_by_the_reader_exits_74():
    proc = subprocess.Popen([sys.executable, "-m", "missingdigits", "fourier-eval",
                             "--spec", C3, "--grid", "1000,20001"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # the document is megabytes long, far past what the pipe buffers
    assert len(proc.stdout.read(300)) == 300
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 74, err
    assert "Traceback" not in err
    assert "stdout closed" in err


def _fourier_rows(spec, xis):
    """fourier-eval's rows from the library: the repr strings of each
    (xi, real part, imaginary part, modulus, error bound) at tol 1e-9."""
    values, errs = fourier_transform_batch(parse_spec(spec), xis, tol=1e-9)
    table = np.column_stack([xis, values.real, values.imag,
                             np.hypot(values.real, values.imag), errs])
    return [[repr(v) for v in row] for row in table.tolist()]


def _csv_as_written_whole(columns, rows, comments) -> str:
    """A CSV file as it was written from rows held whole as lists."""
    lines = [f"# {c}" for c in comments] + [",".join(columns)]
    lines += [",".join("" if v is None else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("count", [1, 4095, 4096, 4097])
def test_streamed_rows_print_the_json_dump_of_the_document(count):
    # the rows are written 4096 at a time; 4095 to 4097 end on either side
    # of a block's last row
    code, out, _ = run(["fourier-eval", "--spec", C3, "--grid", f"995.82,{count}"])
    doc = strict_json(out)
    assert code == 0 and out == json.dumps(doc, sort_keys=True) + "\n"
    assert doc["result"]["count"] == count
    assert doc["result"]["rows"] == _fourier_rows(C3, np.linspace(-995.82, 995.82, count)[:, None])


def test_streamed_xi_rows_print_the_json_dump_of_the_document():
    code, out, _ = run(["fourier-eval", "--spec", C32_SQ, "--xi", "1,2", "--xi=-3.5,0.25"])
    doc = strict_json(out)
    assert code == 0 and out == json.dumps(doc, sort_keys=True) + "\n"
    assert doc["result"]["rows"] == _fourier_rows(C32_SQ, np.array([[1.0, 2.0], [-3.5, 0.25]]))


@pytest.mark.parametrize("argv, inline", [
    (["fourier-eval", "--spec", C3, "--grid", "995.82,4097"], ("rows",)),
    (["radial-density", "--spec", CARPET, "--viewpoint=2,0.5", "--mc", "20000",
      "--bandwidth", "0.0002", "--seed", "3"], ("grid", "values")),
    (["linear-density", "--spec", C32_SQ, "--direction", "1,2", "--tmax", "9",
      "--grid", "0,1,5000"], ("grid", "values")),
    (["stripe-scan", "--spec", C32_SQ, "--radius", "9", "--angles", "4100"],
     ("angles", "integrals")),
], ids=lambda v: v[0] if isinstance(v[0], str) else None)
def test_streamed_json_and_csv_rows_are_the_rows_written_whole(tmp_path, argv, inline):
    out_csv = tmp_path / "rows.csv"
    code, out, _ = run(argv + ["--json", "--csv", str(out_csv)])
    doc = strict_json(out)
    assert code == 0 and out == json.dumps(doc, sort_keys=True) + "\n"
    result = doc["result"].get("profile", doc["result"])
    rows = result["rows"] if inline == ("rows",) else list(zip(*(result[k] for k in inline)))
    assert len(rows) > 4096
    header, *_ = [ln for ln in out_csv.read_text().splitlines() if not ln.startswith("#")]
    comments = [c[2:] for c in _csv_comments(out_csv)]
    # each repr string is the str of its float, as the CSV writes it
    assert out_csv.read_text() == _csv_as_written_whole(header.split(","), rows, comments)


def test_the_mark_text_in_user_paths_is_echoed_as_it_is(tmp_path):
    # a streamed array stands in the dump as the mark {"": i}; no spec that
    # parses holds a '"', so the marks' text goes where the manifest echoes
    # user text as it is: the config file's path and the CSV path in argv
    folder = tmp_path / '{"": 0}'
    folder.mkdir()
    cfg = folder / '{"": 1}.json'
    cfg.write_text(json.dumps({"spec": C3}))
    out_csv = folder / '{"": 0} {"": 2}.csv'
    argv = ["fourier-eval", "--config", str(cfg), "--grid", "10,5", "--json", "--csv", str(out_csv)]
    code, out, _ = run(argv)
    doc = strict_json(out)
    assert code == 0 and out == json.dumps(doc, sort_keys=True) + "\n"
    assert doc["manifest"]["config"]["argv"] == argv
    assert doc["manifest"]["outputs"] == [str(out_csv)]
    assert doc["result"]["rows"] == _fourier_rows(C3, np.linspace(-10.0, 10.0, 5)[:, None])


def test_fourier_eval_holds_its_rows_as_arrays_not_python_objects():
    # held as lists of Python floats and strings, 200,001 rows peaked at
    # 140 MiB (735 bytes a row); the table stays in numpy arrays and is
    # printed 4096 rows at a time: 15.3 MiB
    argv = ["fourier-eval", "--spec", C3, "--grid", "995.82,200001"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(argv[:-1] + ["995.82,5"]) == 0  # imports and caches first
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 96 * 200_001


def test_preset_theorem_b_emits_both_reports():
    code, doc = run_json(["preset", "theorem-b"])
    assert code == 0
    reports = doc["result"]["reports"]
    assert [r["preset"] for r in reports] == ["theorem-b",
                                              "theorem-b-homogeneous"]
    assert reports[0]["report"]["bound"] == pytest.approx(1.0000842, abs=2e-5)
    assert reports[1]["report"]["bound"] == pytest.approx(1.0000674, abs=2e-5)
    assert all(r["report"]["theorem"] == "TheoremB" for r in reports)


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "missingdigits", "preset", "theorem-a"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    report = doc["result"]["reports"][0]["report"]
    assert report["bound"] == pytest.approx(1.5990674, abs=1e-4)


def _script_target() -> str:
    """The `missingdigits` script's entry in pyproject.toml, as module:function."""
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    return re.search(r'^missingdigits = "([^"]+)"$', text, re.M).group(1)


def test_the_script_and_python_m_go_through_one_entry_function():
    module, function = _script_target().split(":")
    assert (module, function) == ("missingdigits.cli", "run")
    main_module = (Path(__file__).parents[1] / "src" / "missingdigits" / "__main__.py")
    assert "sys.exit(run(sys.argv[1:]))" in main_module.read_text()


@pytest.mark.parametrize("argv, code", [
    (["graham", "--system", "3:{0,1};5:{0,1,2}", "--limit", "1000"], 0),
    (["dim-bound", "--spec", C32_SQ], 0),
    (["dim-bound", "--spec", "factor { nope }"], 64),
    (["dim-bound", "--spec", C3, "--no-such-flag"], 64),  # refused by argparse
    (["dim-bound", "--spec", C32_SQ, "--budget", "100"], 65),
], ids=["graham", "dim-bound", "config-error", "usage-error", "budget"])
def test_the_script_entry_and_python_m_print_the_same_document(argv, code):
    module, function = _script_target().split(":")
    script = f"import sys; from {module} import {function}; sys.exit({function}())"
    runs = [subprocess.run([sys.executable, *launcher, *argv], capture_output=True, text=True)
            for launcher in (["-m", "missingdigits"], ["-c", script])]
    assert [r.returncode for r in runs] == [code, code]
    stdouts = [re.sub(r'"wall_time_s": [^,}]+', "", r.stdout) for r in runs]
    assert stdouts[0] == stdouts[1]
    assert (stdouts[0] != "") == (code == 0)
    assert runs[0].stderr == runs[1].stderr


# --------------------------------------------------------------- argv fuzz

FUZZ_SPECS = [C3, C32_SQ, LEB, CARPET, f"{C3} {C3} {C3}",
              "factor { base = 10^100; digits = 0..9; }",
              "factor { base = 10^200; digits = 10^100..5; }",
              "factor { base = 3; digits = {0,x}; }",
              "factor { base = 3; n = abc; digits = {0,2}; }",
              f"factor {{ base = 1{'0' * 5000}; digits = 0..9; }}",
              f"{C3} factr {{ base = 5; digits = {{0,1}}; }}"]
REALS = ["0", "-5", "1e-300", "1e-320", "1e-12", "0.5", "3", "1e300", "1e308", "-1e300",
         "nan", "abc"]
INTS = ["0", "-5", "1", "3", "64", HUGE, "1.5", "abc"]
PAIRS = ["1,1", "0,0", "-1,0.5", "2,0.5", "1e14,0.5", "1e300,1", "abc,1", "1"]
FUZZ_FLAGS = {
    "dim-bound": {},
    "certify": {"--radial-lp": INTS, "--linear": [None]},
    "fourier-eval": {"--xi": REALS, "--grid": REALS + PAIRS + [f"1,{HUGE}"],
                     "--tol": REALS},
    "radial-density": {"--viewpoint": PAIRS, "--delta": REALS, "--angles": INTS,
                       "--mc": INTS, "--bandwidth": REALS, "--seed": INTS},
    "linear-density": {"--direction": PAIRS,
                       "--grid": ["0,1,5", "0,1,0", "1,0,5", f"0,1,{HUGE}", "1e308,-1e308,3",
                                  "a,b,c"],
                       "--tmax": REALS, "--tol": REALS, "--mc": INTS, "--bandwidth": REALS},
    "stripe-scan": {"--radius": REALS, "--angles": INTS, "--s1": REALS, "--eps": REALS,
                    "--tol": REALS},
    "lp-integral": {"--p": INTS, "--rmax": INTS, "--tol": REALS},
    "slab-integral": {"--direction": PAIRS, "--tmax": REALS, "--tol": REALS},
    "graham": {"--system": ["3:{0,1};5:{0,1,2}", "3:{0,x}", "1:{0}"], "--limit": INTS,
               "--scales": ["1,1/2", "1,1/0", "1,abc"], "--checkpoints": INTS + ["10,abc"]},
}


@st.composite
def fuzz_argv(draw):
    sub = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = [sub, "--budget", draw(st.sampled_from(["1", "1000", "100000"]))]
    if sub != "graham":
        argv += ["--spec", draw(st.sampled_from(FUZZ_SPECS))]
    flags = FUZZ_FLAGS[sub]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)) if flags else []:
        value = draw(st.sampled_from(flags[flag]))
        argv += [flag] if value is None else [f"{flag}={value}"]
    return argv


def _negative_result(result: dict) -> bool:
    """Exit 1 is owed to a NotCertified verdict or an empty result."""
    if "verdict" in result:
        return result["verdict"] == "NotCertified"
    if "reports" in result:
        return any(r["report"]["verdict"] == "NotCertified" for r in result["reports"])
    if "rows" in result:
        return all(row["count"] == 0 for row in result["rows"])
    return result.get("count") == 0


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(fuzz_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    code, out, err = run(argv)  # any exception other than SystemExit fails here
    assert code in (0, 1, 2, 64, 65), (argv, code, err)
    assert "Traceback" not in err
    # every drawn flag exists, so argparse never refuses the argv whole
    assert "unrecognized arguments" not in err, argv
    if out:
        doc = strict_json(out)
        if code == 1:
            assert _negative_result(doc["result"]), argv


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_radial_density_refuses_a_level_of_the_tube_descent_before_building_it():
    # 2^30 depth-1 children would take 16 GiB; their count is checked
    # against the budget before any of them exists
    big = "factor { base = 32768; digits = 0..32767; }"
    proc = subprocess.run([sys.executable, "-m", "missingdigits", "radial-density",
                           "--spec", f"{big} {big}", "--viewpoint=-1,-1", "--delta", "0.01",
                           "--budget", "1000000"],
                          capture_output=True, text=True, preexec_fn=_cap_address_space)
    assert proc.returncode == 65, proc.stderr
    assert "cylinder classifications needs 1073741824 cells" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_radial_density_refuses_an_over_budget_angle_grid_before_building_it():
    # 2 * 10^7 angles fit the default budget one cell each, but the
    # grid, tube frames and per-level counts over them would take some
    # 7 GB; they are checked against the budget before any exists
    proc = subprocess.run([sys.executable, "-m", "missingdigits", "radial-density",
                           "--spec", C32_SQ, "--viewpoint=-1,-1", "--delta", "0.05",
                           "--angles", "20000000"],
                          capture_output=True, text=True, preexec_fn=_cap_address_space)
    assert proc.returncode == 65, proc.stderr
    assert "tube angles needs 940000000 cells" in proc.stderr
    assert "Traceback" not in proc.stderr
