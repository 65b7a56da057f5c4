"""Which heavy dependencies the package and each CLI command load.

``import susyqm`` binds its names on first use, and the CLI imports the
library modules a command reads when it runs, so a call that computes
nothing (``catalog``, ``--help``, a usage error that parse_args refuses)
loads no numpy.  sympy is needed only to parse an expression outside the
closed grammar (``susyqm/_closed_grammar.py`` prints the code of a
closed-grammar text such as ``a*x^3 + 0.3240``, every catalog record's w
among them, and refuses ``foo(1.2*x)`` and ``1.2*x/0`` itself; a record's R
is checked in as ``susyqm/_compiled_catalog.py``),
and neither a command nor the library needs scipy:
the oracle's tridiagonal solve and ``block_spectra`` call LAPACK in numpy's
own OpenBLAS, and algebra-check's charge algebra is band arithmetic in
numpy.  scipy is an optional extra, imported only by ``_lapack.py``'s
fallbacks.  Commands must not import what they do not need.  A fresh
interpreter runs the calls in order and reports, after each step, which of
the watched modules are in ``sys.modules``; a call that must start from a
clean slate runs in a process of its own.  Module names only, never times.
"""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import susyqm

WATCHED = ("sympy", "scipy", "scipy.integrate", "numpy.f2py", "numpy")

PROBE = r"""
import contextlib, io, json, sys

watched, steps, workdir = json.loads(sys.argv[1])
report = {"stdout": {}, "stderr": {}}

def loaded():
    return sorted(name for name in watched if name in sys.modules)

import susyqm
report["import"] = loaded()
from susyqm.cli import main
for label, calls, expected in steps:
    outputs, errors = [], []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.replace("{work}", workdir) for a in argv])
        if code != expected:
            raise SystemExit(f"{argv} exited {code}: {err.getvalue()}")
        outputs.append(out.getvalue())
        errors.append(err.getvalue())
    report[label] = loaded()
    report["stdout"][label] = outputs
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
    ("partner", [["partner", "--w", "a*sech(x)", "--param", "a=1", "--points", "101"]], 0),
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


#: One accepted text of each shape the cli-cold workload draws, on the
#: commands that draw it.
CLOSED_GRAMMAR_CALLS = [
    ["partner", "--w", "a*x + 0.3240", "--param", "a=1.2", "--points", "201",
     "--format", "csv"],
    ["partner", "--w", "A*tanh(0.8000*x)", "--param", "A=3", "--points", "201"],
    ["algebra-check", "--w", "A - 0.7344*exp(-x)", "--param", "A=2", "--x-min", "-3.5",
     "--x-max", "10", "--points", "201"],
    ["algebra-check", "--w", "a*x^3 + c*x", "--param", "a=1", "--param", "c=0.5",
     "--x-min", "-4", "--x-max", "4", "--points", "201"],
    ["si-check", "--w", "A*tanh(0.8000*x)", "--param", "A=3", "--transform", "translation",
     "--alpha", "-0.8000", "--on", "A"],
    ["classify", "--w", "a*x^3 + 0.3240", "--param", "a=1", "--x-min", "-6", "--x-max", "6",
     "--points", "601", "--budget", "9"],
]

#: An accepted text that fails at evaluation.
CLOSED_GRAMMAR_ERROR = ["partner", "--w", "exp(1.5000*x)", "--x-max", "1000"]

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
    ("record text", [["partner", "--w", "A - exp(-x)", "--param", "A=2", "--x-min", "-3.5",
                      "--x-max", "10", "--points", "2701"],
                     ["partner", "--catalog", "morse"]], 0),
    ("closed grammar", CLOSED_GRAMMAR_CALLS, 0),
    ("closed grammar error", [CLOSED_GRAMMAR_ERROR], 2),
    ("expression", [["partner", "--w", "a*sech(x)", "--param", "a=1", "--points", "101"]], 0),
    ("expression classify", [["classify", "--w", "a*sech(x)", "--param", "a=1",
                              "--points", "401", "--budget", "9"]], 0),
]


#: Calls that compute nothing, each with its exit code: they must load no
#: numpy.  The usage errors are the cli-cold workload's inputs that
#: parse_args refuses, with its seeded literals fixed; a missing
#: --tabulated file is refused before the grid module loads.
NUMPY_FREE_CALLS = [
    (["catalog"], 0),
    (["catalog", "--format", "json"], 0),
    (["catalog", "morse"], 0),
    (["--help"], 0),
    *(([command, "--help"], 0) for command in (
        "solve", "partner", "hierarchy", "si-check", "spectrum", "wavefunctions",
        "classify", "algebra-check", "catalog")),
    (["solve", "--catalog", "no-such-record-7"], 1),
    (["partner", "--w", "a*x", "--param", "a=1.2345", "--points", "2"], 1),
    (["solve", "--catalog", "morse", "--w", "x"], 1),
    (["algebra-check"], 1),
    (["classify", "--w", "a*x", "--param", "a"], 1),
    (["solve", "--catalog", "morse", "--levels", "-1"], 1),
    (["si-check", "--catalog", "morse", "--alpha", "1.2345"], 1),
    (["hierarchy", "--catalog", "morse", "--depth", "2"], 1),
    (["solve", "--catalog", "scaling-demo"], 1),
    (["classify", "--w", "a*x", "--param", "a=nan"], 1),
    (["classify", "--w", "a*x", "--param", "a=inf"], 1),
    (["solve", "--tabulated", "{work}/missing.csv"], 2),
]

#: Commands that compute without a transform search or a classification.
LEAN_CALLS = [
    (["partner", "--w", "a*x + 0.3240", "--param", "a=1.2", "--points", "201"], 0),
    (["algebra-check", "--w", "A*tanh(0.8000*x)", "--param", "A=3", "--points", "201"], 0),
    (["solve", "--catalog", "morse", "--points", "401"], 0),
    (["hierarchy", "--catalog", "morse", "--points", "401", "--output", "{work}/h"], 0),
]

#: The library layers a lean command must not load.
SEARCH_LAYERS = ("susyqm.shape_invariance", "susyqm.classify")

#: Runs each call in a child forked from an interpreter that has imported
#: only susyqm and susyqm.cli, so no call sees what another loaded.  A
#: module counts once it has run: the package registers its submodules in
#: sys.modules unexecuted, as importlib.util.LazyLoader modules.
ISOLATED_PROBE = r"""
import contextlib, io, json, os, sys, types

watched, calls, workdir = json.loads(sys.argv[1])
import susyqm
from susyqm.cli import main

report = []
for argv in calls:
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main([a.replace("{work}", workdir) for a in argv])
            except SystemExit as exc:
                code = exc.code
        with os.fdopen(write, "w") as fh:
            json.dump([code, sorted(name for name in watched
                                    if type(sys.modules.get(name)) is types.ModuleType)], fh)
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as fh:
        report.append(json.load(fh))
    os.waitpid(pid, 0)
print(json.dumps(report))
"""


def _isolated(calls, workdir, env) -> list[tuple[list[str], int, list[str]]]:
    """(argv, exit code, loaded watched modules) of each call, each in a process of its own."""
    proc = subprocess.run(
        [sys.executable, "-c", ISOLATED_PROBE,
         json.dumps([WATCHED + SEARCH_LAYERS, [argv for argv, _ in calls], workdir])],
        env=env, cwd=workdir, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [(argv, code, loaded)
            for (argv, _), (code, loaded) in zip(calls, json.loads(proc.stdout))]


def test_calls_that_compute_nothing_load_no_numpy(tmp_path, package_env):
    assert _isolated(NUMPY_FREE_CALLS, str(tmp_path), package_env) \
        == [(argv, code, []) for argv, code in NUMPY_FREE_CALLS]


def test_lean_commands_load_no_search_or_classify(tmp_path, package_env):
    assert _isolated(LEAN_CALLS, str(tmp_path), package_env) \
        == [(argv, code, ["numpy"]) for argv, code in LEAN_CALLS]


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


def test_dump_config_loads_neither_sympy_nor_scipy(loaded_after):
    # the record's w is a closed-grammar text, and its R code is checked in
    assert loaded_after["dump-config"] == ["numpy"]


def test_catalog_commands_load_no_sympy(catalog_loaded_after):
    # the records' w are closed-grammar texts, and their R code is checked in
    assert catalog_loaded_after["catalog partner"] == ["numpy"]
    assert "sympy" not in catalog_loaded_after["catalog commands"]
    assert "sympy" in catalog_loaded_after["expression"]


def test_record_text_loads_no_sympy(catalog_loaded_after):
    # a --w text equal to a record's expression takes the record's route,
    # the closed grammar, with the record's own output on the record's grid
    assert "sympy" not in catalog_loaded_after["record text"]
    from_text, from_record = catalog_loaded_after["stdout"]["record text"]
    assert from_text == from_record and from_text.startswith("x,v_minus,v_plus,w\n")


def test_closed_grammar_texts_load_no_sympy(catalog_loaded_after):
    assert catalog_loaded_after["closed grammar"] == ["numpy"]
    assert catalog_loaded_after["closed grammar error"] == ["numpy"]


def test_closed_grammar_error_message_equals_the_sympy_route(catalog_loaded_after,
                                                             monkeypatch, capsys):
    """The code's text is what sympy prints, so an evaluation failure quotes
    the same expression as when the text goes through sympy."""
    from susyqm import _closed_grammar, susy
    from susyqm.cli import main

    (line,) = catalog_loaded_after["stderr"]["closed grammar error"][0].splitlines()
    assert line.startswith("susyqm partner: expression 'exp(1.5*x)' is non-finite at ")
    parsed = []
    monkeypatch.setattr(_closed_grammar, "closed_grammar_codes", lambda text: None)
    monkeypatch.setattr(susy, "parse_expression",
                        lambda text, parse=susy.parse_expression: parsed.append(text) or parse(text))
    assert main(CLOSED_GRAMMAR_ERROR) == 2
    assert parsed == ["exp(1.5000*x)"]
    assert capsys.readouterr().err.splitlines() == [line]


#: The cli-cold workload's malformed and known-defect --w inputs, which the
#: closed grammar refuses without sympy.
REFUSALS = ["foo(1.2345*x)", "1.2345*x/0"]

#: Every command that takes --w.
W_COMMANDS = ["solve", "partner", "hierarchy", "si-check", "spectrum", "wavefunctions",
              "classify", "algebra-check"]


def test_refusals_load_no_sympy(tmp_path, package_env):
    calls = [(["partner", "--w", text], 1) for text in REFUSALS]
    assert _isolated(calls, str(tmp_path), package_env) \
        == [(argv, 1, ["numpy"]) for argv, _ in calls]


@pytest.mark.parametrize("command", W_COMMANDS)
def test_refusals_print_what_the_sympy_route_prints(command, monkeypatch, capsys):
    """Each refusal exits as the sympy route exits, with the same stderr,
    and without the printer the text does go to sympy."""
    from susyqm import _closed_grammar, susy
    from susyqm.cli import main

    def run() -> list[tuple[int, str, str]]:
        outputs = []
        for text in REFUSALS:
            with pytest.raises(SystemExit) as caught:
                main([command, "--w", text])
            outputs.append((caught.value.code, *capsys.readouterr()))
        return outputs

    def refuse(text):
        raise AssertionError(f"{text!r} went to sympy")

    with monkeypatch.context() as patch:
        patch.setattr(susy, "parse_expression", refuse)
        refused = run()
    parsed = []
    monkeypatch.setattr(_closed_grammar, "closed_grammar_codes", lambda text: None)
    monkeypatch.setattr(susy, "parse_expression",
                        lambda text, parse=susy.parse_expression: parsed.append(text) or parse(text))
    assert run() == refused
    assert parsed == REFUSALS
    assert [(code, out, err.splitlines()[-1]) for code, out, err in refused] == [
        (1, "", "susyqm: error: --w: functions ['foo'] not in the supported set ['cos', "
                "'exp', 'ln', 'sech', 'sin', 'tanh'] in 'foo(1.2345*x)'"),
        (1, "", "susyqm: error: --w: '1.2345*x/0' contains a non-finite constant (zoo*x)")]


def test_solver_commands_load_no_scipy(catalog_loaded_after):
    # solve, hierarchy, si-check --search, spectrum, wavefunctions, classify
    assert catalog_loaded_after["catalog commands"] == ["numpy"]
    assert catalog_loaded_after["expression classify"] == ["numpy", "sympy"]


def test_algebra_check_loads_neither_sympy_nor_scipy(tmp_path, package_env):
    # charge_matrices and verify_algebra work on numpy bands; a catalog
    # record's w is a closed-grammar text
    steps = [("algebra-check", [["algebra-check", "--catalog", "coulomb-radial",
                                 "--points", "201"]], 0)]
    assert _probe(steps, str(tmp_path), package_env)["algebra-check"] == ["numpy"]


def test_catalog_error_messages_need_no_sympy(catalog_loaded_after):
    assert "sympy" not in catalog_loaded_after["catalog errors"]
    stderr = catalog_loaded_after["stderr"]["catalog errors"]
    assert [err.splitlines() for err in stderr] == [[line] for _, line in CATALOG_ERRORS]


def test_expression_command_without_solver_skips_scipy(loaded_after):
    assert loaded_after["partner"] == ["numpy", "sympy"]


def test_no_command_loads_scipy(loaded_after):
    # sys.modules only grows, so the last step covers every earlier one
    assert "scipy" not in loaded_after["every command"]


def test_package_exports_exactly_what_it_imports():
    """The package's __all__ holds every name of its export table, once each,
    and nothing else; __init__.py imports no submodule itself."""
    listed = [name for names in susyqm._EXPORTS.values() for name in names]
    assert len(set(listed)) == len(listed)
    assert susyqm.__all__ == sorted(listed)
    assert not any(name.startswith("_") for name in listed)
    tree = ast.parse(Path(susyqm.__file__).read_text())
    assert not [ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level]


@pytest.mark.parametrize("name", susyqm.__all__)
def test_each_export_is_its_module_attribute(name):
    module = importlib.import_module(f"susyqm.{susyqm._MODULE_OF[name]}")
    assert getattr(susyqm, name) is getattr(module, name)


LAZY_PROBE = r"""
import json, sys, types
import susyqm

def bound():
    return sorted(name for name in susyqm.__all__ if name in vars(susyqm))

def executed():
    return sorted(name for name, module in sys.modules.items()
                  if name.startswith("susyqm") and type(module) is types.ModuleType)

report = {"bound at import": bound(),
          "executed at import": executed(),
          "registered at import": sorted(m for m in sys.modules if m.startswith("susyqm.")),
          "missing from dir": sorted(set(susyqm.__all__) - set(dir(susyqm)))}
susyqm.Translation
report["bound after one access"] = bound()
report["executed after one access"] = executed()
try:
    susyqm.no_such_name
except AttributeError as exc:
    report["unknown name"] = str(exc)
namespace = {}
exec("from susyqm import *", namespace)
report["star import"] = sorted(name for name in namespace if name != "__builtins__")
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def lazy_report(package_env):
    proc = subprocess.run([sys.executable, "-c", LAZY_PROBE], env=package_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_binds_no_name_and_runs_no_submodule(lazy_report):
    assert lazy_report["bound at import"] == []
    assert lazy_report["executed at import"] == ["susyqm"]
    # registered unexecuted, so a tool that walks the loaded modules sees them
    assert lazy_report["registered at import"] \
        == sorted(f"susyqm.{module}" for module in susyqm._EXPORTS)


def test_first_access_binds_the_name_in_the_package(lazy_report):
    assert lazy_report["bound after one access"] == ["Translation"]
    # Translation's module and what it imports, nothing else
    assert lazy_report["executed after one access"] \
        == ["susyqm", "susyqm.errors", "susyqm.transforms"]


def test_dir_lists_every_export(lazy_report):
    assert lazy_report["missing from dir"] == []


def test_unknown_name_is_an_attribute_error(lazy_report):
    assert lazy_report["unknown name"] == "module 'susyqm' has no attribute 'no_such_name'"


def test_star_import_binds_every_export(lazy_report):
    assert lazy_report["star import"] == susyqm.__all__


def _import_time_imports(source: str) -> list[str]:
    """Modules named by the import statements that run when a module is
    imported: outside function bodies and ``if TYPE_CHECKING:`` blocks.  A
    relative import is named with its leading dots."""
    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
                continue
            if isinstance(child, ast.Import):
                yield from (alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                yield "." * child.level + (child.module or "")
            else:
                yield from visit(child)
    return list(visit(ast.parse(source)))


def test_import_time_import_check_sees_each_spelling():
    source = ("from __future__ import annotations\nimport os\nfrom . import errors\n"
              "from .grids import make_grid\nif TYPE_CHECKING:\n    import numpy\n"
              "def f():\n    import numpy\nclass C:\n    import json\n"
              "try:\n    import sympy\nexcept ImportError:\n    pass\n")
    assert _import_time_imports(source) == ["__future__", "os", ".", ".grids", "json", "sympy"]


def test_cli_imports_only_the_standard_library_at_its_top():
    names = _import_time_imports(Path(susyqm.cli.__file__).read_text())
    assert names and all(name.split(".")[0] in sys.stdlib_module_names for name in names), names


def _unread_imports(source: str) -> list[str]:
    """Names a module's import statements, at any depth, bind that no
    expression reads; ``from __future__`` imports bind none."""
    tree = ast.parse(source)
    bound = [(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(set(bound) - read)


def test_unused_import_guard_sees_an_unread_name():
    assert _unread_imports("import os\nimport numpy as np\nfrom x import (a, b)\nb(np)\n") \
        == ["a", "os"]


def test_unused_import_guard_sees_function_level_imports():
    source = ("def f():\n    from .grids import csv_text, make_grid\n    return make_grid\n"
              "from .transforms import Scaling as Scaling, Translation as T\n")
    assert _unread_imports(source) == ["Scaling", "T", "csv_text"]


@pytest.mark.parametrize("module", sorted(
    p.name for p in (Path(__file__).resolve().parents[1] / "src" / "susyqm").glob("*.py")
    if p.name != "__init__.py"))
def test_module_reads_every_name_it_imports(module):
    """No linter is installed; this is its unused-import rule.  __init__.py
    imports to re-export, which test_package_exports_exactly_what_it_imports
    checks instead."""
    path = Path(__file__).resolve().parents[1] / "src" / "susyqm" / module
    assert _unread_imports(path.read_text()) == []


#: Makes every later import of scipy fail, as where scipy is not installed.
NO_SCIPY = r"""
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"import of {name} blocked")

sys.meta_path.insert(0, NoScipy())
"""

BLOCKED_SCIPY = NO_SCIPY + r"""
import contextlib, io, json

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


#: Where numpy bundles no OpenBLAS and scipy is missing: the CLI's solve,
#: then block_spectra and solve_potential in the library.
NO_LAPACK = NO_SCIPY + r"""
import contextlib, io, json

from susyqm import _lapack
_lapack._openblas = lambda: None
import susyqm as sq
from susyqm.cli import main

out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(["solve", "--catalog", "morse"])
rec = sq.get_record("morse")
grid = sq.make_grid(-3.5, 10.0, 101)
pair, _ = sq.instantiate("morse", None, grid)
errors = []
for call in (lambda: sq.block_spectra(sq.charge_matrices(rec.family, {"A": 2.0}, grid)),
             lambda: sq.solve_potential(pair.v_minus, 2)):
    try:
        call()
    except sq.SusyQMError as exc:
        errors.append([type(exc).__name__, str(exc)])
print(json.dumps([code, out.getvalue(), err.getvalue(), errors]))
"""

NO_LAPACK_MESSAGE = ("no LAPACK: numpy bundles no ILP64 OpenBLAS and scipy is not installed; "
                     "pip install 'susyqm[scipy]'")


def test_a_fallback_without_scipy_is_one_error_naming_the_extra(package_env):
    proc = subprocess.run([sys.executable, "-c", NO_LAPACK], env=package_env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, out, err, errors = json.loads(proc.stdout)
    assert (code, out, err) == (2, "", f"susyqm solve: {NO_LAPACK_MESSAGE}\n")
    assert errors == [["SusyQMError", NO_LAPACK_MESSAGE]] * 2


#: The library calls of one oracle-verify operation on a catalog record:
#: the watched modules loaded after them, and the block spectra's bits.
#: The watch list adds the refusal code, which no in-process workload loads.
ORACLE_SEQUENCE = r"""
import json, sys

import susyqm as sq

watched = json.loads(sys.argv[1]) + ["susyqm._refusals", "susyqm._parser_namespace"]
name, params, levels = "morse", {"A": 3.5}, 2
rec = sq.get_record(name)
lo, hi, _ = rec.domain
grid = sq.make_grid(lo, hi, 2001)
pair, _ = sq.instantiate(name, params, grid)
sq.closed_form_spectrum(name, params, levels)
sq.solve_potential(pair.v_minus, levels + 1)
sq.spectrum_from_measured_residuals(rec.family, rec.transform, params, grid, levels)
for n in range(levels + 1):
    sq.wavefunction_chain(rec.family, params, rec.transform, n, grid)
sq.build_hierarchy(pair.v_minus, 3, sides=rec.family.decay_sides)
assert sq.verify_algebra(sq.charge_matrices(rec.family, params, grid)).passed
coarse = sq.make_grid(lo, hi, (grid.n_points - 1) // 16 + 1)
spectra = sq.block_spectra(sq.charge_matrices(rec.family, params, coarse))
print(json.dumps([sorted(n for n in watched if n in sys.modules),
                  [float(s[0]).hex() for s in spectra]]))
"""


def test_oracle_sequence_loads_no_scipy(package_env):
    """The calls of an oracle-verify operation, block_spectra included, load
    no scipy and no refusal code, and with scipy unimportable they give the
    same bits."""
    runs = [json.loads(subprocess.run(
        [sys.executable, "-c", prefix + ORACLE_SEQUENCE, json.dumps(WATCHED)],
        env=package_env, capture_output=True, text=True, timeout=300, check=True).stdout)
        for prefix in ("", NO_SCIPY)]
    (loaded, spectra), (_, blocked_spectra) = runs
    assert loaded == ["numpy"]
    assert blocked_spectra == spectra


#: One text of each search-sweep template, each classified as the workload
#: classifies it; the radial Coulomb text has its hard wall at x = 1e-3.
#: The watch list adds the refusal code, which no in-process workload loads.
SEARCH_SWEEP_SEQUENCE = r"""
import json, sys

import susyqm as sq

watched = json.loads(sys.argv[1]) + ["susyqm._refusals", "susyqm._parser_namespace"]
for text, params, domain, wall in [
        ("a*x + 0.3240", {"a": 1.2}, (-10.0, 10.0), False),
        ("2.0134/(2*(l+1)) - (l+1)/x", {"l": 0.0}, (1e-3, 160.0), True),
        ("A - 0.7344*exp(-x)", {"A": 2.5}, (-5.0, 10.0), False),
        ("A*tanh(0.8000*x)", {"A": 3.0}, (-10.0, 10.0), False),
        ("a*x^3 - 0.2000", {"a": 1.0}, (-6.0, 6.0), False),
        ("a*x^3 + c*x + 0.2000", {"a": 1.0, "c": 0.5}, (-6.0, 6.0), False)]:
    family = sq.SuperpotentialFamily.from_expression(text, domain=domain, hard_wall_left=wall)
    sq.classify_family(family, params, sq.make_grid(*domain, 2001))
print(json.dumps(sorted(n for n in watched if n in sys.modules)))
"""


def test_search_sweep_sequence_loads_no_sympy(package_env):
    """The closed grammar prints every search-sweep template's code, the
    radial Coulomb one included, so its classifications load only numpy."""
    proc = subprocess.run([sys.executable, "-c", SEARCH_SWEEP_SEQUENCE, json.dumps(WATCHED)],
                          env=package_env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["numpy"]


def _scipy_imports(source: str) -> list[tuple[str | None, str]]:
    """(innermost enclosing function or None, module) of each import of
    scipy in a module: import statements at any depth, and
    ``importlib.import_module`` or ``__import__`` of a literal name."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            names = []
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            elif (isinstance(child, ast.Call) and child.args
                  and isinstance(child.args[0], ast.Constant)
                  and isinstance(child.args[0].value, str)
                  and getattr(child.func, "id", getattr(child.func, "attr", None))
                  in ("__import__", "import_module")):
                names = [child.args[0].value]
            sites.extend((function, name) for name in names if name.split(".")[0] == "scipy")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(ast.parse(source), None)
    return sites


def test_scipy_import_check_sees_each_spelling():
    source = ("import scipy\nimport numpy, scipy.sparse as sp\nfrom . import scipy_x\n"
              "import scipyx\ndef f():\n    def g():\n        from scipy.linalg import eigh\n"
              "    importlib.import_module('scipy.linalg')\n    return __import__('scipy')\n")
    assert _scipy_imports(source) == [(None, "scipy"), (None, "scipy.sparse"),
                                      ("g", "scipy.linalg"), ("f", "scipy.linalg"),
                                      ("f", "scipy")]


def test_only_the_lapack_fallbacks_import_scipy():
    """No linter is installed; this is the rule that keeps scipy optional:
    only a ``_scipy_*`` function of ``_lapack.py`` imports it."""
    src = Path(__file__).resolve().parents[1] / "src" / "susyqm"
    sites = [(path.name, function, module) for path in sorted(src.glob("*.py"))
             for function, module in _scipy_imports(path.read_text())]
    assert sites and all(name == "_lapack.py" and (function or "").startswith("_scipy_")
                         for name, function, _ in sites), sites


def test_scipy_is_an_optional_extra():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]

    def names(requirements):
        return {re.split(r"[\s<>=!~\[;]", r, maxsplit=1)[0].lower() for r in requirements}

    assert "scipy" not in names(project["dependencies"])
    extras = project["optional-dependencies"]
    assert "scipy" in names(extras["scipy"]) and "scipy" in names(extras["test"])
