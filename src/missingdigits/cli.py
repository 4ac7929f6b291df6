"""Command-line front end: one binary, subcommands for every operation.

Output discipline: each run prints exactly one JSON document to stdout
holding a run manifest (subcommand, resolved configuration, seed,
budget limit, cost, versions, wall time, output paths) plus the result.
The cost, `{"cells": {label: n}, "spent": N}`, gives the budget cells
the run charged by the label of each charge, and their total.  Where a
subcommand produces tabular rows, `--csv PATH` additionally writes them
to PATH with comment headers naming the method and units of every
column.  Rows whose number the user sets are held as numpy arrays and
written, inline and to PATH, 4096 rows at a time, so that a run holds
at most one such block as Python objects; the document is still the
bytes of json.dumps(doc, sort_keys=True).
Identical argv and seed produce identical bytes apart from the
wall-time field.

Exit codes: 0 success (or verdict Certified), 1 NotCertified or an
empty result set, 2 Inconclusive, 64 usage/config errors, 65 budget
exhaustion, 74 stdout closed before the document was written.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
import time

from . import __version__
from .budget import DEFAULT_BUDGET, PRESET_NAMES, TOL_FLOOR, EvalBudget
from .errors import BudgetExceededError, ConfigError, SymbolicBaseError

# Library modules are imported by the subcommands that call them, so a
# run loads only what it runs: `graham` and `preset` never load numpy.

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_BUDGET = 65
EXIT_IOERR = 74

# Variables that set the thread count of numpy's OpenBLAS
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# by certify.Verdict value
_VERDICT_EXIT = {
    "Certified": EXIT_OK,
    "NotCertified": EXIT_NEGATIVE,
    "Inconclusive": EXIT_INCONCLUSIVE,
}


class _Parser(argparse.ArgumentParser):
    """argparse that exits 64 on usage problems instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# -------------------------------------------------------------- plumbing


def real(text: str) -> float:
    """argparse type for a finite real (argparse names it in errors)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def tolerance(text: str) -> float:
    """argparse type for a transform tail bound: a finite real of at
    least TOL_FLOOR, below which the transform cannot honour it."""
    value = real(text)
    if value < TOL_FLOOR:
        raise argparse.ArgumentTypeError(f"must be at least {TOL_FLOOR:g}, got {text!r}")
    return value


# The options that subcommands share, by group: `common` for every
# subcommand, `spec` for those that parse a measure, `rows` for those
# that write tabular rows, `tol` for those that sum the transform and
# `mc` for the density profiles, which can sample.  Each option is a
# (flag, add_argument keywords) pair.
_SHARED = {
    "common": (
        ("--config", dict(metavar="FILE",
                          help="JSON file of defaults (spec text, seed, budget)")),
        ("--budget", dict(type=real, default=None, metavar="CELLS",
                          help=f"max lattice/cylinder evaluations (default {DEFAULT_BUDGET:g})")),
    ),
    "spec": (
        ("--spec", dict(metavar="TEXT", help="measure config, e.g. "
                        "\"factor { base = 3; digits = {0,2}; n = 2; }\"")),
    ),
    "rows": (
        ("--json", dict(action="store_true", help="force tabular rows inline in the JSON result")),
        ("--csv", dict(metavar="PATH", help="write tabular rows to PATH")),
    ),
    "tol": (
        ("--tol", dict(type=tolerance, default=1e-9,
                       help=f"transform tail bound, at least {TOL_FLOOR:g} (default 1e-9)")),
    ),
    "mc": (
        ("--seed", dict(type=int, default=None, metavar="U64")),
        ("--mc", dict(type=int, default=None, metavar="SAMPLES",
                      help="estimate by Monte Carlo from SAMPLES draws")),
        ("--bandwidth", dict(type=real, default=0.01)),
    ),
}


def _add_options(parser: argparse.ArgumentParser, options: tuple) -> argparse.ArgumentParser:
    for flag, keywords in options:
        parser.add_argument(flag, **keywords)
    return parser


_CONFIG_KEYS = {"spec", "seed", "budget"}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(loaded) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return loaded


class _Run:
    """Resolved common options plus manifest bookkeeping."""

    def __init__(self, args, argv: list):
        self.t0 = time.monotonic()
        self.args = args
        self.argv = argv
        file_cfg = _load_config(getattr(args, "config", None))
        # a subcommand without --spec reads no measure, from argv or file
        self.spec_text = getattr(args, "spec", None)
        if self.spec_text is None and "spec" in args:
            self.spec_text = file_cfg.get("spec")
        seed = getattr(args, "seed", None)
        if seed is None:
            seed = file_cfg.get("seed", 0)
        self.seed = _as_int(seed, "seed")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        budget_cells = args.budget if args.budget is not None else file_cfg.get("budget")
        self.budget_cells = (_as_int(budget_cells, "budget") if budget_cells is not None
                             else DEFAULT_BUDGET)
        if self.budget_cells < 1:
            raise ConfigError("budget must be at least one cell")
        self.budget = EvalBudget(self.budget_cells)
        self.outputs: list = []

    def spec(self):
        from .measure import parse_spec

        if self.spec_text is None:
            raise ConfigError("a measure is required: pass --spec or a --config with a spec entry")
        return parse_spec(self.spec_text)

    def want_rows_inline(self) -> bool:
        return self.args.json or self.args.csv is None

    def write_csv(self, columns: list, rows, comments: list):
        """Writes rows, a 2-D array or a list of lists, to the --csv file
        a block of rows at a time; a list's None cells are left empty."""
        if self.args.csv is None:
            return
        if isinstance(rows, list):
            def line(row):
                return ",".join("" if v is None else str(v) for v in row) + "\n"
        else:
            def line(row):  # Python floats, whose str is their repr
                return ",".join(map(repr, row)) + "\n"
        try:
            with open(self.args.csv, "w", encoding="utf-8") as fh:
                fh.writelines(f"# {c}\n" for c in comments)
                fh.write(",".join(columns) + "\n")
                for block in _blocks(rows):
                    fh.writelines(map(line, block))
        except OSError as exc:
            raise ConfigError(f"cannot write --csv file: {exc}") from exc
        self.outputs.append(self.args.csv)

    def finish(self, result: dict, exit_code: int) -> int:
        """Prints the document, byte for byte json.dumps(doc,
        sort_keys=True) and a newline.  It is dumped with the mark
        {"": i} in place of the result's i-th _Inline array, which is
        written where its mark stands.  User text (the spec, argv,
        paths) is only ever inside a JSON string, where every '"' is
        escaped, and no key of the document is empty, so no user text
        can produce a mark."""
        manifest = {
            "subcommand": self.args.subcommand,
            "config": {
                "argv": self.argv,
                "spec": self.spec_text,
            },
            "seed": self.seed,
            "budget": self.budget_cells,
            "cost": {"cells": self.budget.cells, "spent": self.budget.spent},
            "versions": {
                "package": __version__,
                "numpy": _numpy_version(),
                "python": ".".join(str(v) for v in sys.version_info[:3]),
                "rng": "PCG64",
            },
            "wall_time_s": round(time.monotonic() - self.t0, 6),
            "outputs": self.outputs,
        }
        arrays: list = []
        doc = {"manifest": manifest, "result": _marked(result, arrays)}
        parts = re.split(r'\{"": (\d+)\}', json.dumps(doc, sort_keys=True))
        out = sys.stdout
        out.write(parts[0])
        for i in range(1, len(parts), 2):
            out.writelines(arrays[int(parts[i])].chunks())
            out.write(parts[i + 1])
        out.write("\n")
        # flushed here, so that a closed stdout raises inside main()
        out.flush()
        return exit_code


class _Inline:
    """A float array of the result (1-D, or a 2-D table of rows) that
    the document holds as a JSON list of repr strings (a list of them
    per row), written from the array a block of rows at a time."""

    __slots__ = ("array",)

    def __init__(self, array):
        self.array = array

    def chunks(self):
        """The JSON text of the list, in pieces of at most 4096 rows."""
        yield "["
        for i, block in enumerate(_blocks(self.array)):
            if self.array.ndim == 1:
                text = '"' + '", "'.join(map(repr, block)) + '"'
            else:
                text = ", ".join('["' + '", "'.join(map(repr, row)) + '"]' for row in block)
            yield ", " + text if i else text
        yield "]"


def _blocks(rows):
    """rows, an array or a list, 4096 at a time as lists (of Python
    floats, for an array): no more of a long table is held as Python
    objects at once."""
    for lo in range(0, len(rows), 4096):
        block = rows[lo:lo + 4096]
        yield block if isinstance(block, list) else block.tolist()


def _marked(obj, arrays: list):
    """obj with each _Inline in its dicts replaced by {"": i}, its index
    in arrays, to which it is appended."""
    if isinstance(obj, _Inline):
        arrays.append(obj)
        return {"": len(arrays) - 1}
    if isinstance(obj, dict):
        return {key: _marked(value, arrays) for key, value in obj.items()}
    return obj


def _numpy_version() -> str:
    """numpy's version, read from numpy when this run imported it and
    otherwise, without importing it, from the name of the one
    numpy-VERSION.dist-info directory beside the numpy package, or from
    importlib.metadata (slow to import) when there is not exactly one."""
    numpy = sys.modules.get("numpy")
    if numpy is not None:
        return numpy.__version__
    from importlib.util import find_spec

    spec = find_spec("numpy")
    if spec is not None and spec.origin:
        site = os.path.dirname(os.path.dirname(spec.origin))
        try:
            found = [name for name in os.listdir(site)
                     if name.startswith("numpy-") and name.endswith(".dist-info")]
        except OSError:
            found = []
        if len(found) == 1:
            return found[0][len("numpy-"):-len(".dist-info")]
    from importlib.metadata import version

    return version("numpy")


def _as_int(value, what: str) -> int:
    """An integral value (1e8 is one, 2.5 is not), refused rather than
    truncated."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from exc
    if not isinstance(value, str) and number != value:
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return number


def _reals(text: str, what: str) -> list:
    """Comma-separated finite reals."""
    try:
        values = [float(c) for c in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{what} must be comma-separated reals: {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{what} must be finite: {text!r}")
    return values


def _count(value: float, what: str, budget: EvalBudget) -> int:
    """A positive whole point count; every point costs at least one
    cell, so a count past the budget is refused before the points exist."""
    if value != int(value) or value < 1:
        raise ConfigError(f"{what} needs a positive whole point count")
    budget.check(int(value), f"{what} points")
    return int(value)


def _parse_vector(text: str, what: str):
    import numpy as np

    vec = np.array(_reals(text, what), dtype=np.float64)
    if vec.size != 2:
        raise ConfigError(f"{what} must have exactly two components")
    return vec


def _grid(lo: float, hi: float, count: int):
    """COUNT evenly spaced points from LO to HI; a span past the float
    range is refused before numpy warns of it."""
    import numpy as np

    if not math.isfinite(hi - lo):
        raise ConfigError(f"--grid span must be finite: {lo!r} to {hi!r}")
    return np.linspace(lo, hi, count)


def _profile_result(run, profile, columns: list, comments: list) -> dict:
    """Writes a density profile's rows and returns its payload."""
    import numpy as np

    run.write_csv(columns, np.column_stack([profile.grid, profile.values]), comments)
    payload = {
        "axis": profile.axis.value,
        "method": profile.method.value,
        "mass": profile.mass,
        "flags": sorted(profile.flags),
        "metadata": _jsonable(profile.metadata),
    }
    if run.want_rows_inline():
        payload["grid"] = _Inline(profile.grid)
        payload["values"] = _Inline(profile.values)
    return {"profile": payload}


def _jsonable(obj):
    import numpy as np

    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _bound_payload(bound) -> dict:
    return {
        "value": bound.value,
        "kind": bound.kind.value,
        "rigorous": bound.rigorous,
    }


def _lattice_payload(diag) -> dict:
    return {
        "partial": diag.partial,
        "shell_totals": [repr(float(v)) for v in diag.shell_totals],
        "dyadic_slopes": [repr(float(v)) for v in diag.dyadic_slopes],
        "non_convergent": diag.non_convergent,
    }


# ---------------------------------------------------------- subcommands
# Each takes the run and the parsed arguments and returns (result, exit code).


def _cmd_dim_bound(run, args) -> tuple:
    from .dimension import best_of_candidates, factor_candidates
    from .measure import hausdorff_dim, total_dim

    spec = run.spec()
    candidates = factor_candidates(spec, budget=run.budget)
    result = {
        "hausdorff_dim": hausdorff_dim(spec),
        "ambient_dim": total_dim(spec),
        "best": _bound_payload(best_of_candidates(candidates)),
        "per_factor_candidates": [
            {name: None if bound is None else _bound_payload(bound)
             for name, bound in per.items()}
            for _, per in candidates
        ],
    }
    return result, EXIT_OK


def _cmd_certify(run, args) -> tuple:
    from .certify import certify_linear, certify_radial_Lp

    if (args.radial_lp is None) == (not args.linear):
        raise ConfigError("choose exactly one of --radial-lp P or --linear")
    spec = run.spec()
    if args.linear:
        report = certify_linear(spec, run.budget)
    else:
        report = certify_radial_Lp(spec, args.radial_lp, run.budget)
    return report.as_dict(), _VERDICT_EXIT[report.verdict.value]


def _cmd_preset(run, args) -> tuple:
    from .certify import preset

    names = [args.name]
    if args.name == "theorem-b":
        names.append("theorem-b-homogeneous")
    reports, codes = [], []
    for name in names:
        _, report = preset(name, run.budget)
        reports.append({"preset": name, "report": report.as_dict()})
        codes.append(_VERDICT_EXIT[report.verdict.value])
    exit_code = (EXIT_NEGATIVE if EXIT_NEGATIVE in codes
                 else EXIT_INCONCLUSIVE if EXIT_INCONCLUSIVE in codes else EXIT_OK)
    return {"reports": reports}, exit_code


def _cmd_fourier_eval(run, args) -> tuple:
    import numpy as np

    from .fourier import fourier_transform_batch
    from .measure import total_dim

    spec = run.spec()
    n = total_dim(spec)
    if (args.xi is None) == (args.grid is None):
        raise ConfigError("choose one of --xi (repeatable) or --grid RMAX,COUNT")
    if args.xi is not None:
        pts = []
        for text in args.xi:
            row = _reals(text, "--xi")
            if len(row) != n:
                raise ConfigError(f"xi {text!r} needs {n} components")
            pts.append(row)
        xis = np.array(pts, dtype=np.float64)
    else:
        if n != 1:
            raise ConfigError("--grid applies to one-dimensional measures; use --xi")
        parts = _reals(args.grid, "--grid")
        if len(parts) > 2:
            raise ConfigError("--grid takes RMAX[,COUNT]")
        count = _count(parts[1], "--grid", run.budget) if len(parts) == 2 else 201
        xis = _grid(-parts[0], parts[0], count)[:, None]
    values, errs = fourier_transform_batch(spec, xis, tol=args.tol, budget=run.budget)
    # np.abs of a complex array may differ in the last bit from the
    # scalar abs, which is hypot
    modulus = np.hypot(values.real, values.imag)
    columns = [f"xi_{i + 1}" for i in range(n)] + [
        "transform_re", "transform_im", "transform_abs", "truncation_error_bound"]
    rows = np.column_stack([xis, values.real, values.imag, modulus, errs])
    run.write_csv(columns, rows, [
        "fourier transform of the digit measure (dimensionless, |value| <= 1)",
        f"method: self-similar infinite product, tail bound <= {args.tol!r}",
    ])
    result = {"count": len(rows), "tol": args.tol,
              "max_abs": float(modulus.max()),
              "max_error_bound": float(errs.max())}
    if run.want_rows_inline():
        result["columns"] = columns
        result["rows"] = _Inline(rows)
    return result, EXIT_OK


def _cmd_radial_density(run, args) -> tuple:
    from .projection import radial_density_mc, radial_tube_profile

    spec = run.spec()
    x = _parse_vector(args.viewpoint, "--viewpoint")
    if (args.mc is None) == (args.delta is None):
        raise ConfigError("choose one of --delta W (tube counts) or --mc SAMPLES")
    if args.mc is not None:
        profile = radial_density_mc(spec, x, args.mc, args.bandwidth,
                                    seed=run.seed, budget=run.budget)
        comments = [
            "radial density on the viewing circle: mass per radian of direction",
            f"method: Monte Carlo histogram, {args.mc} samples, "
            f"bandwidth {args.bandwidth!r} rad, seed {run.seed}",
        ]
    else:
        profile = radial_tube_profile(spec, x, args.delta, args.angles, budget=run.budget)
        delta = profile.metadata["delta"]
        comments = [
            f"radial density on the viewing circle: tube mass / half-width {delta!r} "
            "(about 2/r times the mass per radian at distance r)",
            f"method: cylinder tube counts at half-width {delta!r}",
        ]
    result = _profile_result(run, profile, ["angle_rad", "density_mass_per_rad"], comments)
    result["l2_norm_squared"] = profile.l2_squared
    return result, EXIT_OK


def _cmd_linear_density(run, args) -> tuple:
    from .projection import (_UNIT_SQUARE_CORNERS, _unit_direction, linear_density,
                             linear_density_mc)

    spec = run.spec()
    theta = _parse_vector(args.direction, "--direction")
    unit = _unit_direction(theta)
    if args.mc is not None and args.grid is not None:
        raise ConfigError("choose one of --grid LO,HI,COUNT (Fourier inversion) or --mc SAMPLES")
    if args.mc is not None:
        profile = linear_density_mc(spec, theta, args.mc, args.bandwidth,
                                    seed=run.seed, budget=run.budget)
        comments = [
            "density of the projection onto the line through the origin with the given direction",
            f"method: Monte Carlo histogram, {args.mc} samples, "
            f"bandwidth {args.bandwidth!r}, seed {run.seed}",
        ]
    else:
        corners = _UNIT_SQUARE_CORNERS @ unit
        lo, hi, count = float(corners.min()) - 0.05, float(corners.max()) + 0.05, 501
        if args.grid is not None:
            parts = _reals(args.grid, "--grid")
            if len(parts) != 3:
                raise ConfigError("--grid takes LO,HI,COUNT")
            lo, hi, count = parts[0], parts[1], _count(parts[2], "--grid", run.budget)
        profile = linear_density(spec, theta, _grid(lo, hi, count), args.tmax,
                                 tol=args.tol, budget=run.budget)
        comments = [
            "density of the projection onto the line through the origin with the given direction",
            f"method: Fourier inversion, frequency cutoff {profile.metadata['T_max']!r}, "
            f"quadrature step {profile.metadata['quadrature_step']!r}",
        ]
    result = _profile_result(
        run, profile, ["offset_along_direction", "density_mass_per_unit_offset"], comments)
    result["direction"] = [float(unit[0]), float(unit[1])]
    return result, EXIT_OK


def _cmd_stripe_scan(run, args) -> tuple:
    import numpy as np

    from .projection import exceptional_directions

    spec = run.spec()
    threshold, angles, integrals, exceptional = exceptional_directions(
        spec, args.radius, args.eps, args.s1, args.angles, tol=args.tol, budget=run.budget)
    run.write_csv(
        ["direction_angle_rad", "stripe_weighted_l1_sum"],
        np.column_stack([angles, integrals]),
        ["stripe sums: |transform| summed over lattice points of the annulus "
         f"R <= |xi| <= 2R nearly orthogonal to the direction, R = {args.radius!r}",
         f"method: exact lattice scan; exceptional threshold R^(n-1-s1+2eps) = {threshold!r}"],
    )
    result = {
        "radius": args.radius,
        "threshold": threshold,
        "s1": args.s1,
        "eps": args.eps,
        "exceptional_count": len(exceptional),
        "exceptional_directions": [[float(c) for c in d] for d in exceptional],
    }
    if run.want_rows_inline():
        result["angles"] = _Inline(angles)
        result["integrals"] = _Inline(integrals)
    return result, EXIT_OK


def _cmd_graham(run, args) -> tuple:
    from .graham import density_report, enumerate_members, parse_system

    system_ = parse_system(args.system, args.scales)
    if (args.limit is None) == (args.checkpoints is None):
        raise ConfigError("choose one of --limit N or --checkpoints N1,N2,..")
    if args.checkpoints is not None:
        checkpoints = [_as_int(c, "checkpoints") for c in args.checkpoints.split(",")]
        rows = density_report(system_, checkpoints, run.budget)
        run.write_csv(["limit", "count", "exponent_log_count_over_log_limit"],
                      [[r["limit"], r["count"], r["exponent"]] for r in rows],
                      ["counts of qualifying integers up to each limit",
                       "method: exact jump-to-next-allowed enumeration, "
                       "exponent = log(count)/log(limit), dimensionless"])
        result = {"rows": rows}
        empty = all(r["count"] == 0 for r in rows)
    else:
        members = enumerate_members(system_, args.limit, run.budget)
        run.write_csv(["qualifying_integer"], [[m] for m in members],
                      ["positive integers whose scaled digit expansions "
                       "stay inside every digit set",
                       "method: exact jump-to-next-allowed enumeration "
                       "(dimensionless)"])
        result = {"count": len(members)}
        if run.want_rows_inline():
            result["members"] = members
        empty = not members
    return result, EXIT_NEGATIVE if empty else EXIT_OK


def _cmd_lp_integral(run, args) -> tuple:
    from .projection import lp_criterion_integral

    diag = lp_criterion_integral(run.spec(), args.p, args.rmax, tol=args.tol,
                                 budget=run.budget)
    return {"p_exp": args.p, "r_max": args.rmax, **_lattice_payload(diag)}, EXIT_OK


def _cmd_slab(run, args) -> tuple:
    from .projection import slab_integral

    spec = run.spec()
    theta = _parse_vector(args.direction, "--direction")
    diag = slab_integral(spec, theta, args.tmax, tol=args.tol, budget=run.budget)
    return {"t_max": args.tmax, **_lattice_payload(diag)}, EXIT_OK


# --------------------------------------------------------------- parser


# Each subcommand's help, handler, shared option groups (in the order
# that its --help lists them) and own options.
_SUBCOMMANDS = {
    "dim-bound": ("rigorous l1-dimension lower bounds", _cmd_dim_bound, ("common", "spec"), ()),
    "certify": ("certify a projection hypothesis", _cmd_certify, ("common", "spec"), (
        ("--radial-lp", dict(type=int, metavar="P", default=None,
                             help="radial L^p density hypothesis (threshold n - 1/P)")),
        ("--linear", dict(action="store_true", help="continuous linear-projection density "
                                                    "hypothesis (threshold n - 1)")),
    )),
    "preset": ("rebuild and certify a named flagship parameter set", _cmd_preset, ("common",), (
        ("name", dict(choices=PRESET_NAMES)),
    )),
    "fourier-eval": ("evaluate the measure's Fourier transform", _cmd_fourier_eval,
                     ("common", "spec", "rows", "tol"), (
        ("--xi", dict(action="append", metavar="C1,..", help="frequency point (repeatable)")),
        ("--grid", dict(metavar="RMAX,COUNT", help="symmetric 1-D grid")),
    )),
    "radial-density": ("density of directions seen from a viewpoint", _cmd_radial_density,
                       ("common", "spec", "rows", "mc"), (
        ("--viewpoint", dict(required=True, metavar="X,Y")),
        ("--delta", dict(type=real, default=None, metavar="W",
                         help="tube half-width (tube-count method)")),
        ("--angles", dict(type=int, default=400, metavar="K")),
    )),
    "linear-density": ("density of the projection onto a line", _cmd_linear_density,
                       ("common", "spec", "rows", "tol", "mc"), (
        ("--direction", dict(required=True, metavar="DX,DY")),
        ("--grid", dict(metavar="LO,HI,COUNT", default=None)),
        ("--tmax", dict(type=real, default=729.0,
                        help="frequency cutoff for Fourier inversion")),
    )),
    "stripe-scan": ("directional stripe sums over an annulus", _cmd_stripe_scan,
                    ("common", "spec", "rows", "tol"), (
        ("--radius", dict(type=real, default=81.0, metavar="R")),
        ("--angles", dict(type=int, default=256, metavar="K")),
        ("--s1", dict(type=real, default=0.7376)),
        ("--eps", dict(type=real, default=0.05)),
    )),
    "lp-integral": ("weighted transform sum deciding radial L^p", _cmd_lp_integral,
                    ("common", "spec", "tol"), (
        ("--p", dict(type=int, required=True)),
        ("--rmax", dict(type=int, default=1024)),
    )),
    "slab-integral": ("transform sum over a thin slab of frequencies", _cmd_slab,
                      ("common", "spec", "tol"), (
        ("--direction", dict(required=True, metavar="DX,DY")),
        ("--tmax", dict(type=real, default=2048.0)),
    )),
    "graham": ("integers with digit restrictions in several bases", _cmd_graham,
               ("common", "rows"), (
        ("--system", dict(required=True, metavar="B:{D};B:{D}")),
        ("--limit", dict(type=int, default=None, metavar="N")),
        ("--scales", dict(default=None, metavar="T1,T2,..")),
        ("--checkpoints", dict(default=None, metavar="N1,N2,..")),
    )),
}


def build_parser(name: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser: with only NAME's subparser when NAME is a
    subcommand, and with all of them otherwise.  A run parses with the
    one that its first argument names, which its help and its usage
    errors come from; the usage line lists every subcommand either way,
    so no text changes."""
    parser = _Parser(prog="missingdigits",
                     description="Digit-restricted measures: dimension bounds, "
                                 "Fourier decay, projection densities, digit "
                                 "enumeration.")
    only = name in _SUBCOMMANDS
    subs = parser.add_subparsers(dest="subcommand", required=True,
                                 metavar="{" + ",".join(_SUBCOMMANDS) + "}" if only else None)
    groups = {}
    for sub, (help_text, fn, shared, own) in _SUBCOMMANDS.items():
        if only and sub != name:
            continue
        for group in shared:
            if group not in groups:
                groups[group] = _add_options(argparse.ArgumentParser(add_help=False),
                                             _SHARED[group])
        p = subs.add_parser(sub, parents=[groups[g] for g in shared], help=help_text)
        _add_options(p, own).set_defaults(fn=fn)
    return parser


def _one_blas_thread() -> None:
    """Have numpy's OpenBLAS start no threads of its own, unless the
    user set a thread count.  It otherwise starts one per core when it
    loads, and they spin; no run can use them, since every BLAS product
    here has an inner dimension of at most a factor's ambient dimension.
    OpenBLAS reads the variable once, when numpy is first imported, so
    a process that has imported numpy keeps its environment as it is."""
    if "numpy" not in sys.modules and not any(
            name in os.environ for name in _BLAS_THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main(argv=None) -> int:
    _one_blas_thread()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        job = _Run(args, argv)
        return job.finish(*args.fn(job, args))
    except (ConfigError, SymbolicBaseError) as exc:
        print(f"missingdigits: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"missingdigits: budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush
        # at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("missingdigits: stdout closed before the result was written", file=sys.stderr)
        return EXIT_IOERR


def run(argv=None) -> int:
    """The process entry of `python -m missingdigits` and of the
    `missingdigits` script: main(argv) with the cyclic garbage collector
    off, and the heap frozen before the interpreter exits.

    No run leaves cyclic garbage that grows with its work (a few hundred
    objects each, argparse's parser among them), so the collector's
    passes only cost time: importing numpy alone sets off about 30 of
    them.  The collections that interpreter exit runs skip the frozen
    objects.  main leaves the collector as it is, for callers in a
    longer-lived process."""
    gc.disable()
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
