"""Which heavy dependencies the package and each CLI command load.

sympy is needed only to parse an expression and scipy only for a sparse or
tridiagonal solve, so commands that do neither must not import them.  A fresh
interpreter runs the calls in order and reports, after each step, which of
the watched modules are in ``sys.modules``.  Module names only, never times.
"""

import json
import subprocess
import sys

import pytest

WATCHED = ("sympy", "scipy", "scipy.integrate", "numpy.f2py")

PROBE = r"""
import contextlib, io, json, sys

watched, steps, workdir = json.loads(sys.argv[1])
report = {}

def loaded():
    return sorted(name for name in watched if name in sys.modules)

import susyqm
report["import"] = loaded()
from susyqm.cli import main
for label, calls in steps:
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([a.replace("{work}", workdir) for a in argv])
        if code != 0:
            raise SystemExit(f"{argv} exited {code}")
    report[label] = loaded()
print(json.dumps(report))
"""

STEPS = [
    ("catalog", [["catalog"], ["catalog", "--format", "json"], ["catalog", "morse"]]),
    ("dump-config", [["solve", "--catalog", "morse", "--dump-config"]]),
    ("partner", [["partner", "--w", "a*x", "--param", "a=1", "--points", "101"]]),
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
    ]),
]


@pytest.fixture(scope="module")
def loaded_after(tmp_path_factory, package_env):
    workdir = str(tmp_path_factory.mktemp("imports"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([WATCHED, STEPS, workdir])],
        env=package_env, cwd=workdir, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_neither_sympy_nor_scipy(loaded_after):
    assert loaded_after["import"] == []


def test_catalog_loads_neither_sympy_nor_scipy(loaded_after):
    assert loaded_after["catalog"] == []


def test_dump_config_compiles_no_record(loaded_after):
    assert loaded_after["dump-config"] == []


def test_expression_command_without_solver_skips_scipy(loaded_after):
    assert loaded_after["partner"] == ["sympy"]


def test_no_command_loads_scipy_integrate(loaded_after):
    # sys.modules only grows, so the last step covers every earlier one
    assert "scipy" in loaded_after["every command"]
    assert "scipy.integrate" not in loaded_after["every command"]
