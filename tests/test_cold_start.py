"""What each subcommand imports: a run loads only the modules it calls,
so `graham`, the symbolic presets and the dimension bounds of small
residue grids never load numpy, no run loads numpy.ma or starts BLAS
threads, and the package resolves its public names lazily."""

import contextlib
import gc
import io
import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import missingdigits
from missingdigits.cli import main
from missingdigits.dimension import _logaddexp

C3 = "factor { base = 3; digits = {0,2}; }"
C3_SQ = f"{C3} {C3}"
I512 = "factor { base = 512; digits = 0..499; }"
I729 = "factor { base = 729; digits = 0..700; }"
E48 = "factor { base = 48; digits = {" + ",".join(str(d) for d in range(0, 48, 2)) + "}; }"
LINEAR_PAIR = ("factor { base = 5; digits = {0,1,2,3}; } "
               "factor { base = 7; digits = {0,2,3,5,6}; }")
# its sup_f search spends 360,448 f(theta) cells, past the list constant
I4096 = "factor { base = 4096; digits = 0..3999; }"
NUMPY_RUN = ("dim-bound", "--spec", I4096)

# runs cli.main on its argv in a fresh interpreter and prints the modules
# loaded, its thread count (None without /proc/self/task) and its
# OPENBLAS_NUM_THREADS
_LOADED = """
import contextlib, io, json, os, sys
from missingdigits.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
tasks = "/proc/self/task"
print(json.dumps({"code": code, "modules": sorted(sys.modules),
                  "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
                  "openblas": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _child(*argv, code: int = 0, env: dict | None = None) -> dict:
    child = subprocess.run([sys.executable, "-c", _LOADED, *argv],
                           capture_output=True, text=True, check=True, env=env)
    doc = json.loads(child.stdout)
    assert doc["code"] == code, child.stderr
    return doc


def _loaded(*argv, code: int = 0) -> set:
    return set(_child(*argv, code=code)["modules"])


def _environment(**variables) -> dict:
    """This process's environment without any BLAS thread count, plus
    the given variables."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    return dict(env, **variables)


def _python(code: str) -> str:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True).stdout


@pytest.mark.parametrize("argv", [
    ("graham", "--system", "3:{0,1};5:{0,1,2}", "--limit", "100000"),
    ("preset", "theorem-a"),
    ("preset", "theorem-b"),  # with theorem-b-homogeneous
])
def test_graham_and_the_presets_load_no_numpy(argv):
    modules = _loaded(*argv)
    assert "numpy" not in modules
    assert "missingdigits.fourier" not in modules
    assert "importlib.metadata" not in modules  # numpy's version comes from a directory name


@pytest.mark.parametrize("argv", [
    ("linear-density", "--direction", "0.6,0.8", "--grid=-0.1,1.1,61", "--tmax", "81"),
    ("stripe-scan", "--radius", "9", "--angles", "16", "--s1", "0.7376", "--eps", "0.05"),
    ("lp-integral", "--p", "2", "--rmax", "16"),
    ("slab-integral", "--direction", "1,0", "--tmax", "64"),
])
def test_fourier_runs_load_no_cylinders(argv):
    modules = _loaded(*argv, "--spec", C3_SQ)
    assert "missingdigits.projection" in modules
    assert "missingdigits.cylinders" not in modules
    assert "numpy.ma" not in modules


@pytest.mark.parametrize("argv", [
    ("lp-integral", "--p", "2", "--rmax", "16"),
    ("stripe-scan", "--radius", "9", "--angles", "16", "--s1", "0.7376", "--eps", "0.05"),
    ("slab-integral", "--direction", "1,0", "--tmax", "64"),
    ("linear-density", "--direction", "0.6,0.8", "--grid=-0.1,1.1,61", "--tmax", "81"),
    ("radial-density", "--viewpoint=-1,-1", "--delta", "0.05", "--angles", "50"),
])
def test_runs_without_monte_carlo_load_no_thread_pool(argv):
    # no run starts a thread pool, so none imports concurrent.futures
    # (with logging, queue and the like)
    modules = _loaded(*argv, "--spec", C3_SQ)
    assert "missingdigits.projection" in modules
    assert "concurrent.futures" not in modules


def test_a_monte_carlo_run_loads_no_thread_pool():
    # its 8 chunks of draws are binned on the calling thread
    modules = _loaded("linear-density", "--spec", C3_SQ, "--direction", "1,1",
                      "--mc", "1000000", "--bandwidth", "0.05")
    assert "concurrent.futures" not in modules


@pytest.mark.parametrize("argv, code", [
    (("dim-bound", "--spec", C3_SQ), 0),
    (("certify", "--radial-lp", "2", "--spec", C3_SQ), 1),  # NotCertified
])
def test_dimension_bounds_load_no_projection_cylinders_or_graham(argv, code):
    modules = _loaded(*argv, code=code)
    assert "missingdigits.dimension" in modules
    for name in ("projection", "cylinders", "graham"):
        assert f"missingdigits.{name}" not in modules
    assert "numpy.ma" not in modules  # np.unique would import it


# the six dimension-certify runs of small residue grids, by benchmark job
SMALL_GRID_RUNS = [
    (("dim-bound", "--spec", C3_SQ), 0),
    (("dim-bound", "--spec", f"{I512} {I512}"), 0),
    (("dim-bound", "--spec", E48), 0),
    (("certify", "--radial-lp", "1", "--spec", C3_SQ), 2),
    (("certify", "--radial-lp", "2", "--spec", f"{I512} {I729}"), 0),
    (("certify", "--linear", "--spec", LINEAR_PAIR), 0),
]
SMALL_GRID_IDS = ["dim-c3sq", "dim-512sq", "dim-e48", "cert-l1", "cert-mixed", "cert-linear"]


@pytest.mark.parametrize("argv, code", SMALL_GRID_RUNS, ids=SMALL_GRID_IDS)
def test_small_residue_grids_are_certified_without_numpy(argv, code):
    modules = _loaded(*argv, code=code)
    assert "missingdigits.dimension" in modules
    assert "numpy" not in modules
    assert "missingdigits.fourier" not in modules


@pytest.mark.parametrize("argv, code", [
    (("graham", "--system", "3:{0,1};5:{0,1,2}", "--limit", "100000"), 0),
    (("preset", "theorem-a"), 0),
    (("preset", "theorem-b"), 0),
    *SMALL_GRID_RUNS,
], ids=["graham", "preset-a", "preset-b", *SMALL_GRID_IDS])
def test_numpy_free_runs_load_no_dataclasses_inspect_or_decimal(argv, code):
    modules = _loaded(*argv, code=code)
    assert not {"dataclasses", "inspect"} & modules
    # graham's exact scales are fractions.Fraction, and fractions imports decimal
    assert ("decimal" in modules) == (argv[0] == "graham")


def test_a_search_past_the_list_constant_loads_numpy():
    modules = _loaded(*NUMPY_RUN)
    assert "numpy" in modules
    assert "missingdigits.fourier" not in modules  # f_theta needs no transform


def test_radial_density_loads_no_certify_dimension_or_graham():
    modules = _loaded("radial-density", "--spec", C3_SQ, "--viewpoint=-1,-1",
                      "--delta", "0.05", "--angles", "10")
    assert "missingdigits.projection" in modules
    for name in ("certify", "dimension", "graham"):
        assert f"missingdigits.{name}" not in modules
    assert "numpy.ma" not in modules


# ------------------------------------------------------------ BLAS threads


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_a_run_without_a_thread_count_starts_no_blas_threads():
    doc = _child(*NUMPY_RUN, env=_environment())
    assert "numpy" in doc["modules"]
    assert (doc["threads"], doc["openblas"]) == (1, "1")


@pytest.mark.parametrize("name", BLAS_THREAD_VARIABLES)
def test_a_thread_count_the_user_set_is_kept(name):
    env = _environment(**{name: "2"})
    doc = _child(*NUMPY_RUN, env=env)
    assert doc["openblas"] == env.get("OPENBLAS_NUM_THREADS")
    # numpy starts the threads it starts on its own under that setting
    bare = json.loads(subprocess.run(
        [sys.executable, "-c", "import json, os, numpy; tasks = '/proc/self/task'; "
         "print(json.dumps(len(os.listdir(tasks)) if os.path.isdir(tasks) else None))"],
        capture_output=True, text=True, check=True, env=env).stdout)
    assert doc["threads"] == bare


def test_a_run_in_a_process_that_imported_numpy_leaves_its_environment_alone(monkeypatch):
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["preset", "theorem-a"]) == 0
    assert not set(BLAS_THREAD_VARIABLES) & set(os.environ)


def test_the_package_and_the_cli_import_no_library_module():
    package = json.loads(_python("import json, sys, missingdigits; print(json.dumps(sorted("
                                 "m for m in sys.modules if 'missingdigits' in m "
                                 "or m == 'numpy')))"))
    assert package == ["missingdigits"]
    cli = json.loads(_python("import json, sys, missingdigits.cli; print(json.dumps(sorted("
                             "m for m in sys.modules if 'missingdigits' in m "
                             "or m == 'numpy')))"))
    assert cli == ["missingdigits", "missingdigits.budget", "missingdigits.cli",
                   "missingdigits.errors"]


def test_a_numpy_free_run_reports_the_installed_numpy_version():
    stdout = subprocess.run([sys.executable, "-m", "missingdigits", "graham", "--system",
                             "3:{0,1};5:{0,1,2}", "--limit", "1000"],
                            capture_output=True, text=True, check=True).stdout
    assert json.loads(stdout)["manifest"]["versions"]["numpy"] == np.__version__


# reports what cli._numpy_version returned, without numpy imported, next
# to importlib.metadata's answer; LISTED, when given, replaces the
# directory listing beside the numpy package
_VERSION = """
import json, os, sys, types
from missingdigits import cli
LISTED = {listed!r}
if LISTED is not None:
    cli.os = types.SimpleNamespace(path=os.path, listdir=lambda path: LISTED)
read = cli._numpy_version()
loaded = [m for m in ("numpy", "importlib.metadata") if m in sys.modules]
from importlib.metadata import version
print(json.dumps([read, version("numpy"), loaded]))
"""


def test_the_numpy_version_comes_from_its_dist_info_directory():
    read, expected, loaded = json.loads(_python(_VERSION.format(listed=None)))
    assert read == expected
    assert loaded == []


@pytest.mark.parametrize("listed", [[], ["numpy-1.0.dist-info", "numpy-2.0.dist-info"]])
def test_the_numpy_version_falls_back_to_importlib_metadata(listed):
    # not exactly one numpy-*.dist-info directory: the metadata decides
    read, expected, loaded = json.loads(_python(_VERSION.format(listed=listed)))
    assert read == expected
    assert loaded == ["importlib.metadata"]


# ------------------------------------------------------- cyclic collector

# runs cli.main on its argv with the collector off from the start, as
# cli.run does, and prints the exit code and the cyclic garbage left
_GARBAGE = """
import contextlib, gc, io, sys
gc.disable()
from missingdigits.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, gc.collect())
"""


def _garbage(*argv) -> int:
    code, garbage = subprocess.run([sys.executable, "-c", _GARBAGE, *argv], capture_output=True,
                                   text=True, check=True).stdout.split()
    assert code == "0"
    return int(garbage)


@pytest.mark.parametrize("small, large", [
    (("dim-bound", "--spec", C3_SQ), ("dim-bound", "--spec", f"{I512} {I512}")),
    (("radial-density", "--spec", C3_SQ, "--viewpoint=-1,-1", "--delta", "0.05",
      "--angles", "10"),
     ("radial-density", "--spec", C3_SQ, "--viewpoint=-1,-1", "--delta", "0.05",
      "--angles", "200")),
    (("linear-density", "--spec", C3_SQ, "--direction", "1,1", "--mc", "10000"),
     ("linear-density", "--spec", C3_SQ, "--direction", "1,1", "--mc", "100000")),
    (("graham", "--system", "3:{0,1};5:{0,1,2}", "--limit", "10000"),
     ("graham", "--system", "3:{0,1};5:{0,1,2}", "--limit", "1000000")),
], ids=["dim-bound", "radial-density", "linear-density", "graham"])
def test_the_cyclic_garbage_of_a_run_does_not_grow_with_its_work(small, large):
    # what cli.run leaves to interpreter exit is the same few hundred
    # objects at either size: switching the collector off costs no memory
    assert _garbage(*small) == _garbage(*large)


def test_main_leaves_the_collector_as_it_found_it():
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["preset", "theorem-a"]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)


def test_run_switches_the_collector_off_and_freezes_the_heap():
    code = ("import contextlib, gc, io, json\n"
            "from missingdigits.cli import run\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = run(['preset', 'theorem-a'])\n"
            "print(json.dumps([code, gc.isenabled(), gc.get_freeze_count()]))")
    code, enabled, frozen = json.loads(_python(code))
    assert (code, enabled) == (0, False)
    assert frozen > 0


# ------------------------------------------------------------- lazy package


def test_every_public_name_resolves_to_its_module_attribute():
    for name in missingdigits.__all__:
        value = getattr(missingdigits, name)
        module = missingdigits._MODULE_OF[name]
        assert value is getattr(sys.modules[f"missingdigits.{module}"], name)


def test_star_import_and_dir_give_every_public_name():
    names = json.loads(_python("import json\nfrom missingdigits import *\n"
                               "import missingdigits\n"
                               "print(json.dumps([sorted(k for k in globals() "
                               "if not k.startswith('_')), dir(missingdigits)]))"))
    star, listed = names
    assert set(missingdigits.__all__) <= set(star)
    assert set(missingdigits.__all__) <= set(listed)
    assert "__version__" in listed


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'fourier_oracle'"):
        missingdigits.fourier_oracle  # noqa: B018 -- moved to the tests' oracles
    assert not hasattr(missingdigits, "no_such_name")
    with pytest.raises(ImportError):
        from missingdigits import no_such_name  # noqa: F401


def test_submodules_import_by_name_from_the_package():
    out = _python("from missingdigits import (budget, certify, cli, cylinders, dimension, "
                  "fourier, graham, measure, projection)\n"
                  "print(cli.main.__module__, projection.stripe_scan.__module__)")
    assert out.split() == ["missingdigits.cli", "missingdigits.projection"]


# ------------------------------------------------------------ math logaddexp


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_logaddexp_equals_numpy_bit_for_bit():
    rng = np.random.default_rng(21)
    pairs = [rng.uniform(-60.0, 60.0, (2, 50_000)),
             rng.uniform(-1e5, 1e5, (2, 50_000)),
             rng.normal(0.0, 3.0, (2, 50_000))]
    near = rng.uniform(-1e4, 1e4, 50_000)
    pairs.append(np.stack([near, near + rng.normal(0.0, 1e-9, 50_000)]))
    xs, ys = np.concatenate(pairs, axis=1)
    expected = np.logaddexp(xs, ys)
    mismatched = [(x, y) for x, y, e in zip(xs.tolist(), ys.tolist(), expected.tolist())
                  if _bits(_logaddexp(x, y)) != _bits(e)]
    assert mismatched == []


@pytest.mark.parametrize("x, y", [
    (0.0, 0.0), (3.5, 3.5), (-7.25, -7.25), (1e300, 1e300),  # ties
    (-math.inf, 2.0), (2.0, -math.inf), (-math.inf, -math.inf),  # t = 0: full digit set
    (math.inf, 1.0), (math.inf, math.inf), (math.inf, -math.inf),
    (math.nan, 1.0), (1.0, math.nan),
])
def test_logaddexp_equals_numpy_at_ties_and_infinities(x, y):
    with np.errstate(invalid="ignore"):
        expected = float(np.logaddexp(x, y))
    assert _bits(_logaddexp(x, y)) == _bits(expected)
