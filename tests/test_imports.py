"""What an ffkakeya process imports: each subcommand loads only the modules
it runs, and the package binds its public names in one go on first touch.

Every check starts a fresh interpreter, since the test process itself has
long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ffkakeya

# the checkout's package, whatever directory a probe runs in
ENV = dict(os.environ, PYTHONPATH=str(Path(ffkakeya.__file__).resolve().parent.parent))

# runs one command line in-process, then writes the loaded module names
CLI_PROBE = """
import json, sys
from ffkakeya.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as f:
    json.dump({"code": code, "modules": sorted(sys.modules)}, f)
"""
# the same, with every import of numpy failing
NO_NUMPY_PROBE = "import sys\nsys.modules['numpy'] = None\n" + CLI_PROBE


def run_probe(tmp_path, argv, probe=CLI_PROBE):
    """(stdout, loaded module names) of one command line run by the probe."""
    report = tmp_path / "modules.json"
    proc = subprocess.run([sys.executable, "-c", probe, str(report), *map(str, argv)],
                          capture_output=True, text=True, cwd=tmp_path, env=ENV)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(report.read_text())
    assert result["code"] == 0, proc.stderr
    return proc.stdout, set(result["modules"])


def modules_after(tmp_path, *argv):
    return run_probe(tmp_path, argv)[1]


@pytest.fixture(scope="module")
def set_files(tmp_path_factory):
    """A center-spherical set in F_5^3, and a difference and a sum cover of F_13."""
    from ffkakeya import center_spherical, circular_prime, make_field

    work = tmp_path_factory.mktemp("sets")
    for name, res in (("center.json", center_spherical(make_field(5), 3)),
                      ("cover.json", circular_prime(13, "radius")),
                      ("sums.json", circular_prime(13, "center"))):
        (work / name).write_text(json.dumps(res.to_json_dict()))
    return work


def test_bound_imports_no_numpy(tmp_path):
    loaded = modules_after(tmp_path, "bound", "--q", "9", "--n", "4")
    assert "numpy" not in loaded
    assert {"ffkakeya.cli", "ffkakeya.exact"} <= loaded


def test_bound_imports_no_dataclasses(tmp_path):
    # BoundReport is a plain class: a dataclass would pull in inspect too
    for argv in (("--q", "9", "--n", "4"), ("--q", "13", "--n", "1")):
        loaded = modules_after(tmp_path, "bound", *argv)
        assert "dataclasses" not in loaded and "inspect" not in loaded, argv


def test_count_and_search_skip_the_constructions(tmp_path):
    # the default count runs both methods and loads numpy; the default
    # search is the exact one, which does not
    for argv, numpy in ((("count", "--p", "3", "--k", "2", "--coeffs", "1,2,3", "--rhs", "1"),
                         True),
                        (("search", "--p", "7", "--kind", "center"), False)):
        loaded = modules_after(tmp_path, *argv)
        assert "ffkakeya.constructions" not in loaded, argv
        assert ("numpy" in loaded) == numpy, argv


SCALAR_COMMANDS = [
    ("search", "--p", "11", "--kind", "radius", "--method", "exact"),
    ("search", "--p", "11", "--kind", "center", "--method", "exact"),
    ("search", "--p", "3", "--k", "2", "--kind", "radius", "--method", "exact"),
    ("search", "--p", "3", "--k", "2", "--kind", "center", "--method", "exact"),
    ("count", "--p", "3", "--k", "2", "--coeffs", "1,1,2", "--rhs", "1", "--method", "closed"),
    ("count", "--p", "7", "--coeffs", "1,3,5,6", "--rhs", "0", "--method", "closed"),
    ("bound", "--q", "9", "--n", "4"),
    ("bound", "--q", "13", "--n", "1"),
]


@pytest.mark.parametrize("argv", SCALAR_COMMANDS, ids=" ".join)
def test_scalar_answers_print_the_same_bytes_without_numpy(tmp_path, argv):
    plain = subprocess.run([sys.executable, "-m", "ffkakeya", *argv], capture_output=True,
                           text=True, cwd=tmp_path, env=ENV, check=True).stdout
    assert "numpy" not in modules_after(tmp_path, *argv)
    stdout, loaded = run_probe(tmp_path, argv, NO_NUMPY_PROBE)
    assert stdout == plain
    assert not {"ffkakeya.field", "ffkakeya.geometry"} & loaded


@pytest.mark.parametrize("argv", [
    ("search", "--p", "11", "--kind", "center", "--method", "greedy"),
    ("count", "--p", "3", "--k", "2", "--coeffs", "1,1,2", "--rhs", "1", "--method", "both"),
])
def test_array_answers_load_numpy(tmp_path, argv):
    assert {"numpy", "ffkakeya.field"} <= modules_after(tmp_path, *argv)


@pytest.mark.parametrize("argv", [
    ("verify", "--file", "center.json", "--property", "center", "--mode", "exhaustive"),
    ("verify", "--file", "cover.json", "--property", "diff-cover"),
    ("verify", "--file", "sums.json", "--property", "sum-cover"),
    ("verify", "--file", "center.json", "--property", "center", "--mode", "witness"),
])
def test_verify_imports_no_masked_arrays(set_files, argv):
    # the witness record and its reader live in verification
    loaded = modules_after(set_files, *argv)
    assert "ffkakeya.verification" in loaded
    assert "numpy.ma" not in loaded
    assert "ffkakeya.constructions" not in loaded


def run_python(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=ENV)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bare_import_loads_no_module_and_no_numpy():
    out = run_python(
        "import sys, ffkakeya\n"
        "print(sorted(m for m in sys.modules if m.startswith(('ffkakeya', 'numpy'))))")
    assert out.split() == ["['ffkakeya']"]


def test_first_touch_of_any_public_name_binds_them_all():
    # Dropping only the package from sys.modules re-runs __init__ alone;
    # the library modules stay loaded, so each round is cheap.
    out = run_python(
        "import importlib, sys\n"
        "import ffkakeya\n"
        "names = list(ffkakeya.__all__)\n"
        "assert set(names) <= set(dir(ffkakeya))\n"
        "for name in names:\n"
        "    del sys.modules['ffkakeya']\n"
        "    pkg = importlib.import_module('ffkakeya')\n"
        "    assert not set(names) & set(vars(pkg)), name\n"
        "    getattr(pkg, name)\n"
        "    assert set(names) <= set(vars(pkg)), name\n"
        "print(len(names))")
    assert int(out) == len(ffkakeya.__all__)


def test_star_import_and_dir_list_all():
    namespace = {}
    exec("from ffkakeya import *", namespace)
    assert set(ffkakeya.__all__) <= set(namespace)
    assert set(ffkakeya.__all__) <= set(dir(ffkakeya))
    assert ffkakeya.make_field is ffkakeya.field.make_field
    with pytest.raises(AttributeError):
        ffkakeya.no_such_name  # noqa: B018
