"""Which heavy dependencies the package and each CLI command load.

sympy is needed only to parse an expression (a catalog record's numpy code is
checked in), and no command needs scipy: the oracle's tridiagonal solve calls
LAPACK in numpy's own OpenBLAS, and algebra-check's charge algebra is band
arithmetic in numpy.  Commands must not import what they do not need.  A fresh
interpreter runs the calls in order and reports, after each step, which of
the watched modules are in ``sys.modules``.  Module names only, never times.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

WATCHED = ("sympy", "scipy", "scipy.integrate", "numpy.f2py")

PROBE = r"""
import contextlib, io, json, sys

watched, steps, workdir = json.loads(sys.argv[1])
report = {"stderr": {}}

def loaded():
    return sorted(name for name in watched if name in sys.modules)

import susyqm
report["import"] = loaded()
from susyqm.cli import main
for label, calls, expected in steps:
    errors = []
    for argv in calls:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([a.replace("{work}", workdir) for a in argv])
        if code != expected:
            raise SystemExit(f"{argv} exited {code}: {err.getvalue()}")
        errors.append(err.getvalue())
    report[label] = loaded()
    report["stderr"][label] = errors
print(json.dumps(report))
"""

#: Failing calls on catalog records, each with its stderr line, recorded
#: when the records were still compiled with sympy.
CATALOG_ERRORS = [
    (["partner", "--catalog", "coulomb-radial", "--param", "l=-1"],
     "susyqm partner: expression 'q/(2*l + 2) - (l + 1)/x' cannot be evaluated "
     "at these parameters (float division by zero)"),
    (["spectrum", "--catalog", "coulomb-radial", "--param", "l=-1"],
     "susyqm spectrum: expression 'q**2*(-1/(l + 1)**2 + l**(-2))/4' cannot be "
     "evaluated at these parameters (0.0 cannot be raised to a negative power)"),
    (["partner", "--catalog", "morse", "--x-min=-800"],
     "susyqm partner: expression 'A - exp(-x)' is non-finite at 301 grid node(s); "
     "check for singularities inside the domain"),
    (["wavefunctions", "--catalog", "morse", "--param", "A=0.5"],
     "susyqm wavefunctions: parameters {'A': 0.5} violate validity of record "
     "'morse' at level 1"),
    (["spectrum", "--catalog", "morse", "--param", "A=-1"],
     "susyqm spectrum: parameters {'A': -1.0} violate validity of record "
     "'morse' at level 0"),
]

STEPS = [
    ("catalog", [["catalog"], ["catalog", "--format", "json"], ["catalog", "morse"]], 0),
    ("dump-config", [["solve", "--catalog", "morse", "--dump-config"]], 0),
    ("partner", [["partner", "--w", "a*x", "--param", "a=1", "--points", "101"]], 0),
    ("every command", [
        ["solve", "--catalog", "morse", "--points", "401"],
        ["hierarchy", "--catalog", "shifted-harmonic", "--depth", "2",
         "--points", "401", "--output", "{work}"],
        ["si-check", "--catalog", "poschl-teller"],
        ["spectrum", "--catalog", "morse", "--points", "401"],
        ["wavefunctions", "--catalog", "poschl-teller", "--levels", "1",
         "--points", "401"],
        ["classify", "--w", "a*x", "--param", "a=1", "--points", "401",
         "--budget", "9"],
        ["algebra-check", "--w", "2*tanh(x)", "--points", "201"],
    ], 0),
]


#: Run in an interpreter of their own: every command on a catalog record
#: before any step that parses --w.
CATALOG_STEPS = [
    ("catalog partner", [["partner", "--catalog", "morse", "--points", "401"]], 0),
    ("catalog commands", [
        ["solve", "--catalog", "morse", "--points", "401"],
        ["hierarchy", "--catalog", "shifted-harmonic", "--depth", "2",
         "--points", "401", "--output", "{work}"],
        ["si-check", "--catalog", "poschl-teller"],
        ["si-check", "--catalog", "morse", "--search", "--budget", "9"],
        ["spectrum", "--catalog", "coulomb-radial", "--points", "401"],
        ["wavefunctions", "--catalog", "poschl-teller", "--levels", "1",
         "--points", "401"],
        ["classify", "--catalog", "morse"],
        ["classify", "--catalog", "cyclic-demo"],
    ], 0),
    ("catalog errors", [argv for argv, _ in CATALOG_ERRORS], 2),
    ("expression", [["partner", "--w", "a*x", "--param", "a=1", "--points", "101"]], 0),
    ("expression classify", [["classify", "--w", "a*x", "--param", "a=1",
                              "--points", "401", "--budget", "9"]], 0),
]


def _probe(steps, workdir, env):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([WATCHED, steps, workdir])],
        env=env, cwd=workdir, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def loaded_after(tmp_path_factory, package_env):
    return _probe(STEPS, str(tmp_path_factory.mktemp("imports")), package_env)


@pytest.fixture(scope="module")
def catalog_loaded_after(tmp_path_factory, package_env):
    return _probe(CATALOG_STEPS, str(tmp_path_factory.mktemp("catalog")), package_env)


def test_import_loads_neither_sympy_nor_scipy(loaded_after):
    assert loaded_after["import"] == []


def test_catalog_loads_neither_sympy_nor_scipy(loaded_after):
    assert loaded_after["catalog"] == []


def test_dump_config_compiles_no_record(loaded_after):
    assert loaded_after["dump-config"] == []


def test_catalog_commands_load_no_sympy(catalog_loaded_after):
    # the records' numpy code is checked in (susyqm/_compiled_catalog.py)
    assert catalog_loaded_after["catalog partner"] == []
    assert "sympy" not in catalog_loaded_after["catalog commands"]
    assert "sympy" in catalog_loaded_after["expression"]


def test_solver_commands_load_no_scipy(catalog_loaded_after):
    # solve, hierarchy, si-check --search, spectrum, wavefunctions, classify
    assert catalog_loaded_after["catalog commands"] == []
    assert catalog_loaded_after["expression classify"] == ["sympy"]


def test_algebra_check_loads_neither_sympy_nor_scipy(tmp_path, package_env):
    # charge_matrices and verify_algebra work on numpy bands; a catalog
    # record's numpy code is checked in
    steps = [("algebra-check", [["algebra-check", "--catalog", "coulomb-radial",
                                 "--points", "201"]], 0)]
    assert _probe(steps, str(tmp_path), package_env)["algebra-check"] == []


def test_catalog_error_messages_need_no_sympy(catalog_loaded_after):
    assert "sympy" not in catalog_loaded_after["catalog errors"]
    stderr = catalog_loaded_after["stderr"]["catalog errors"]
    assert [err.splitlines() for err in stderr] == [[line] for _, line in CATALOG_ERRORS]


def test_expression_command_without_solver_skips_scipy(loaded_after):
    assert loaded_after["partner"] == ["sympy"]


def test_no_command_loads_scipy(loaded_after):
    # sys.modules only grows, so the last step covers every earlier one
    assert "scipy" not in loaded_after["every command"]


def test_package_exports_exactly_what_it_imports():
    """__init__.py re-exports every name it imports, once each, and nothing else."""
    init = Path(__file__).resolve().parents[1] / "src" / "susyqm" / "__init__.py"
    tree = ast.parse(init.read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets] == ["__all__"])
    assert len(set(exported)) == len(exported)
    assert sorted(imported) == sorted(exported)


BLOCKED_SCIPY = r"""
import contextlib, io, json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"import of {name} blocked")

sys.meta_path.insert(0, NoScipy())
from susyqm.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_solver_commands_run_without_scipy(tmp_path, package_env, capsys):
    """With scipy unimportable, solver commands and algebra-check still
    succeed, with the same output as in a process that has scipy."""
    def calls(workdir):
        return [["solve", "--catalog", "morse"],
                ["spectrum", "--catalog", "morse"],
                ["hierarchy", "--catalog", "morse", "--output", str(workdir)],
                ["classify", "--catalog", "morse"],
                ["algebra-check", "--catalog", "morse"],
                ["algebra-check", "--w", "2*tanh(x)", "--points", "201"]]

    blocked, free = tmp_path / "blocked", tmp_path / "free"
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED_SCIPY, json.dumps(calls(blocked))],
        env=package_env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    from susyqm.cli import main
    for argv, (code, out, err) in zip(calls(free), results):
        assert (code, err) == (0, "")
        assert main(argv) == 0
        assert capsys.readouterr().out == out
    files = sorted(p.name for p in blocked.iterdir())
    assert files == sorted(p.name for p in free.iterdir()) and files
    for name in files:
        assert (blocked / name).read_bytes() == (free / name).read_bytes()
