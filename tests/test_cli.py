import ast
import hashlib
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from jsonschema import validate

import susyqm.cli
import susyqm.eigensolver
import susyqm.susy
from susyqm import AlgebraReport, GridFunction, make_grid
from susyqm.cli import MAX_DEPTH, MAX_LEVELS, MAX_POINTS, main, parse_args
from susyqm.transforms import MAX_BUDGET
from schemas import (ALGEBRA_REPORT_SCHEMA, CATALOG_SCHEMA, HIERARCHY_SCHEMA,
                     PARTNER_SCHEMA, RUN_CONFIG_SCHEMA, SI_CHECK_SCHEMA,
                     SOLUTION_SCHEMA, SPECTRUM_TABLE_SCHEMA, VENN_TAG_SCHEMA,
                     WAVEFUNCTIONS_SCHEMA)

CATALOG_NAMES = ["shifted-harmonic", "morse", "poschl-teller", "coulomb-radial",
                 "scaling-demo", "cyclic-demo"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    capsys.readouterr()
    return exc.value.code


@pytest.fixture
def well_csv(tmp_path):
    grid = make_grid(-10.0, 10.0, 1001)
    path = tmp_path / "well.csv"
    path.write_text(GridFunction(grid, grid.x**2 - 1.0).to_csv())
    return str(path)


# -- catalog ---------------------------------------------------------------------


def test_catalog_lists_names(capsys):
    code, out, err = run_cli(capsys, "catalog")
    assert code == 0 and err == ""
    assert out.splitlines() == CATALOG_NAMES


def test_catalog_json_validates(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    validate(doc, CATALOG_SCHEMA)
    assert [d["name"] for d in doc] == CATALOG_NAMES


def test_catalog_single_entry(capsys):
    code, out, _ = run_cli(capsys, "catalog", "morse")
    assert code == 0
    entry = json.loads(out)
    validate(entry, CATALOG_SCHEMA["items"])
    assert entry["expression"] == "A - exp(-x)"


def test_catalog_unknown_name_is_usage_error(capsys):
    assert run_usage_error(capsys, "catalog", "airy") == 1


# -- solve -----------------------------------------------------------------------


def test_solve_csv_energies(capsys):
    code, out, _ = run_cli(capsys, "solve", "--catalog", "shifted-harmonic",
                           "--levels", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,energy"
    energies = [float(l.split(",")[1]) for l in lines[1:]]
    assert energies == pytest.approx([0.0, 2.0, 4.0], abs=5e-4)


def test_solve_json_validates(capsys):
    code, out, _ = run_cli(capsys, "solve", "--catalog", "shifted-harmonic",
                           "--levels", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    validate(doc, SOLUTION_SCHEMA)
    assert len(doc["energies"]) == 2


def test_solve_tabulated_input(capsys, well_csv):
    code, out, _ = run_cli(capsys, "solve", "--tabulated", well_csv,
                           "--levels", "1")
    assert code == 0
    energies = [float(l.split(",")[1]) for l in out.splitlines()[1:]]
    assert energies == pytest.approx([0.0, 2.0], abs=5e-3)


# -- partner ---------------------------------------------------------------------


def test_partner_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "partner", "--w", "x", "--x-min", "-1",
                           "--x-max", "1", "--points", "5")
    assert code == 0
    assert out == ("x,v_minus,v_plus,w\n"
                   "-1,0,2,-1\n"
                   "-0.5,-0.75,1.25,-0.5\n"
                   "0,-1,1,0\n"
                   "0.5,-0.75,1.25,0.5\n"
                   "1,0,2,1\n")


def test_partner_json_validates(capsys):
    code, out, _ = run_cli(capsys, "partner", "--catalog", "poschl-teller",
                           "--format", "json")
    assert code == 0
    validate(json.loads(out), PARTNER_SCHEMA)


@pytest.mark.parametrize("name", ["beta", "gamma", "N", "S"])
def test_partner_reads_a_sympy_name_as_a_parameter(capsys, name):
    # sympy binds these names to its own objects; uncalled, they are parameters
    plain = run_cli(capsys, "partner", "--w", "b*x", "--param", "b=2", "--points", "5")
    assert run_cli(capsys, "partner", "--w", f"{name}*x", "--param", f"{name}=2",
                   "--points", "5") == plain
    assert plain[0] == 0


# -- si-check --------------------------------------------------------------------


def test_si_check_pinned_transform(capsys):
    code, out, _ = run_cli(capsys, "si-check", "--w", "A - exp(-x)",
                           "--param", "A=2", "--transform", "translation",
                           "--alpha", "-1", "--x-min", "-3.5", "--x-max", "10",
                           "--points", "1401")
    assert code == 0
    doc = json.loads(out)
    validate(doc, SI_CHECK_SCHEMA)
    assert doc["searched"] is False
    assert doc["found"] is True
    assert doc["params_next"] == {"A": 1.0}
    assert doc["report"]["residual_mean"] == pytest.approx(3.0, abs=1e-8)


def test_si_check_catalog_uses_declared_transform(capsys):
    code, out, _ = run_cli(capsys, "si-check", "--catalog", "morse")
    assert code == 0
    doc = json.loads(out)
    assert doc["searched"] is False and doc["found"] is True
    assert doc["transform"]["kind"] == "translation"


def test_si_check_forced_search(capsys):
    code, out, _ = run_cli(capsys, "si-check", "--catalog", "morse",
                           "--search", "--budget", "9")
    assert code == 0
    doc = json.loads(out)
    validate(doc, SI_CHECK_SCHEMA)
    assert doc["searched"] is True and doc["found"] is True
    assert doc["transform"]["kind"] == "translation"
    assert doc["transform"]["alpha"] == pytest.approx(-1.0, abs=1e-6)


def test_si_check_scaling_alias_on_one_step(capsys):
    # At a single base point a scaling with q = (A-1)/A reproduces the
    # translation step exactly; a one-step test legitimately finds it.
    code, out, _ = run_cli(capsys, "si-check", "--w", "A*tanh(x)",
                           "--param", "A=3", "--transform", "scaling",
                           "--budget", "9")
    assert code == 0
    doc = json.loads(out)
    validate(doc, SI_CHECK_SCHEMA)
    assert doc["searched"] is True and doc["found"] is True
    assert doc["transform"]["q"] == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_si_check_not_found_is_still_success(capsys):
    # No projective map in the stock ranges reaches ω' = ±ω.
    code, out, _ = run_cli(capsys, "si-check", "--w", "omega*x",
                           "--param", "omega=1", "--transform", "projective",
                           "--budget", "9")
    assert code == 0
    doc = json.loads(out)
    validate(doc, SI_CHECK_SCHEMA)
    assert doc["searched"] is True and doc["found"] is False


def test_si_check_knob_validation(capsys):
    assert run_usage_error(capsys, "si-check", "--w", "x", "--alpha", "1") == 1
    assert run_usage_error(capsys, "si-check", "--w", "x", "--transform",
                           "translation", "--q", "0.5") == 1
    assert run_usage_error(capsys, "si-check", "--w", "x", "--transform",
                           "power-scaling", "--q", "0.5", "--p", "1.5") == 1
    # A kind's knobs come all together (verify) or not at all (search).
    assert run_usage_error(capsys, "si-check", "--w", "x", "--transform",
                           "scaling", "--q", "0.5", "--p", "2") == 1
    assert run_usage_error(capsys, "si-check", "--w", "x", "--transform",
                           "power-scaling", "--q", "0.5") == 1
    assert run_usage_error(capsys, "si-check", "--w", "x", "--transform",
                           "projective", "--p", "0.9") == 1


@pytest.mark.parametrize("knobs, expected", [
    (("translation", "--alpha", "-1"),
     {"kind": "translation", "alpha": -1.0, "param": "A"}),
    (("scaling", "--q", "0.5"), {"kind": "scaling", "q": 0.5, "param": "A"}),
    (("power-scaling", "--q", "0.5", "--p", "2"),
     {"kind": "power-scaling", "q": 0.5, "p": 2, "param": "A"}),
    (("projective", "--q", "0.5", "--p", "0.25"),
     {"kind": "projective", "q": 0.5, "p": 0.25, "param": "A"}),
], ids=["translation", "scaling", "power-scaling", "projective"])
def test_si_check_pinned_transform_dicts(capsys, knobs, expected):
    code, out, _ = run_cli(capsys, "si-check", "--w", "A*tanh(x)", "--param", "A=3",
                           "--transform", *knobs, "--on", "A")
    assert code == 0
    doc = json.loads(out)
    assert doc["transform"] == expected
    # "p": 2 stays an int
    assert {k: type(v) for k, v in doc["transform"].items()} == \
        {k: type(v) for k, v in expected.items()}


def test_si_check_search_honours_on(capsys):
    # Unrestricted, the search settles on a parameter a; restricted to b,
    # it finds the identity map on b, with R = 2a.
    code, out, _ = run_cli(capsys, "si-check", "--w", "a*x + b", "--param", "a=1",
                           "--param", "b=0.5", "--budget", "9", "--on", "b")
    assert code == 0
    doc = json.loads(out)
    validate(doc, SI_CHECK_SCHEMA)
    assert doc["searched"] is True and doc["found"] is True
    assert doc["transform"] == {"kind": "translation", "alpha": 0.0, "param": "b"}
    assert doc["report"]["residual_mean"] == pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize("argv, names", [
    (("--w", "a*x + b", "--param", "a=1", "--param", "b=0.5", "--budget", "9"),
     ["a", "b"]),
    (("--w", "A*tanh(x)", "--param", "A=2", "--transform", "translation",
      "--alpha", "-1"), ["A"]),
    (("--catalog", "morse", "--search"), ["A"]),
    (("--catalog", "morse", "--transform", "scaling", "--q", "0.5"), ["A"]),
], ids=["search", "verify", "catalog-search", "catalog-verify"])
def test_si_check_unknown_on_is_usage_error(capsys, argv, names):
    with pytest.raises(SystemExit) as exc:
        main(["si-check", *argv, "--on", "zzz"])
    assert exc.value.code == 1
    message = [ln for ln in capsys.readouterr().err.splitlines() if ": error: " in ln]
    assert message == ["susyqm: error: --on 'zzz' is not a parameter of the input; "
                       f"its parameters are {names}"]


@pytest.mark.parametrize("argv, names", [
    (("--w", "a*x+b", "--param", "a=1", "--param", "b=1"), ["a", "b"]),
    (("--catalog", "coulomb-radial"), ["l", "q"]),
], ids=["expression", "catalog"])
def test_si_check_knobs_on_several_parameters_need_on(capsys, argv, names):
    knobs = ("--transform", "translation", "--alpha", "1")
    with pytest.raises(SystemExit) as exc:
        main(["si-check", *argv, *knobs])
    assert exc.value.code == 1
    message = [ln for ln in capsys.readouterr().err.splitlines() if ": error: " in ln]
    assert message == ["susyqm: error: --transform translation acts on one parameter; "
                       f"choose it with --on (the input's parameters are {names})"]
    code, out, _ = run_cli(capsys, "si-check", *argv, *knobs, "--on", names[0])
    assert code == 0
    assert json.loads(out)["transform"]["param"] == names[0]


#: si-check stdout as the two document branches (verify, search) wrote it
#: before one document served both: verified, found by a search, not found.
MORSE_STEP = ('  "params_next": {\n'
              '    "A": 1.0\n'
              '  },\n'
              '  "params_start": {\n'
              '    "A": 2.0\n'
              '  },\n'
              '  "report": {\n'
              '    "passed": true,\n'
              '    "residual_mean": 3.0,\n'
              '    "residual_stddev": 1.53052103523e-14,\n'
              '    "tolerance_used": 1e-06\n'
              '  },\n')
MORSE_TRANSFORM = ('  "transform": {\n'
                   '    "alpha": -1.0,\n'
                   '    "kind": "translation",\n'
                   '    "param": "A"\n'
                   '  }\n'
                   '}\n')
SI_CHECK_STDOUT = [
    (["--catalog", "morse"],
     '{\n  "found": true,\n' + MORSE_STEP + '  "searched": false,\n' + MORSE_TRANSFORM),
    (["--catalog", "morse", "--search", "--budget", "9"],
     '{\n  "found": true,\n' + MORSE_STEP + '  "searched": true,\n' + MORSE_TRANSFORM),
    (["--catalog", "morse", "--transform", "translation", "--budget", "9"],
     '{\n  "found": true,\n' + MORSE_STEP + '  "searched": true,\n' + MORSE_TRANSFORM),
    (["--w", "omega*x", "--param", "omega=1", "--transform", "projective", "--budget", "9"],
     '{\n'
     '  "found": false,\n'
     '  "params_start": {\n'
     '    "omega": 1.0\n'
     '  },\n'
     '  "searched": true\n'
     '}\n'),
]


@pytest.mark.parametrize("argv,stdout", SI_CHECK_STDOUT,
                         ids=["verified", "found", "found-translations", "none"])
def test_si_check_stdout_is_pinned(capsys, argv, stdout):
    assert run_cli(capsys, "si-check", *argv, "--points", "401") == (0, stdout, "")


#: Grids too small for the residual statistic.  Before it had a minimum,
#: the first printed numpy warnings and "residual_mean": NaN with exit 0,
#: the next three reported found: true on a one-node interior (a cubic, a
#: scaling of a*x + b with q = 0.03125) or built chain states on one, and
#: the last exited 2 with "stddev nan" after the warnings.
TINY_SI_GRIDS = [
    ("si-check", "--catalog", "poschl-teller", "--x-min=-6", "--x-max", "6",
     "--points", "4", "--budget", "1"),
    ("si-check", "--w", "a*x^3 + 0.3", "--param", "a=1", "--transform", "translation",
     "--alpha", "1", "--points", "5"),
    ("si-check", "--w", "a*x+b", "--param", "a=1", "--param", "b=0", "--points", "5",
     "--search"),
    ("wavefunctions", "--w", "a*x", "--param", "a=1", "--points", "5"),
    ("wavefunctions", "--catalog", "shifted-harmonic", "--points", "3"),
]


@pytest.mark.parametrize("argv", TINY_SI_GRIDS,
                         ids=["empty-interior", "verify", "search", "chain", "chain-record"])
def test_tiny_grid_is_one_line_error(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    n = argv[argv.index("--points") + 1]
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"susyqm {argv[0]}: {n} grid points are too few for the shape-invariance "
        "residual; it needs at least 7"]


# -- spectrum --------------------------------------------------------------------


def test_spectrum_catalog_table(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--catalog", "poschl-teller",
                           "--param", "A=2", "--levels", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,algebraic,oracle"
    rows = [l.split(",") for l in lines[1:]]
    # A=2 leaves exactly two bound levels; the invalid tail is dropped.
    assert [r[0] for r in rows] == ["0", "1"]
    assert [float(r[1]) for r in rows] == pytest.approx([0.0, 3.0])
    assert float(rows[1][2]) == pytest.approx(3.0, abs=5e-3)


def test_spectrum_record_without_x_form_has_blank_oracle(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--catalog", "scaling-demo",
                           "--levels", "3")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()[1:]]
    assert [r[1] for r in rows] == ["0", "0.5", "0.75", "0.875"]
    assert all(r[2] == "" for r in rows)


def test_spectrum_json_validates(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--catalog", "scaling-demo",
                           "--levels", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    validate(doc, SPECTRUM_TABLE_SCHEMA)
    assert doc["levels"][1]["oracle"] is None


def test_spectrum_from_expression_searches(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--w", "x", "--levels", "2")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()[1:]]
    assert [float(r[1]) for r in rows] == pytest.approx([0.0, 2.0, 4.0], abs=1e-6)
    assert [float(r[2]) for r in rows] == pytest.approx([0.0, 2.0, 4.0], abs=1e-3)


def test_spectrum_without_structure_fails_cleanly(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--w", "x^3", "--budget", "5",
                             "--x-min", "-6", "--x-max", "6", "--points", "301")
    assert code == 2
    assert out == ""
    assert "budget" in err


# -- hierarchy -------------------------------------------------------------------


def test_hierarchy_writes_levels(capsys, tmp_path):
    out_dir = tmp_path / "chain"
    code, out, _ = run_cli(capsys, "hierarchy", "--catalog", "shifted-harmonic",
                           "--depth", "2", "--output", str(out_dir))
    assert code == 0
    doc = json.loads(out)
    validate(doc, HIERARCHY_SCHEMA)
    assert (out_dir / "summary.json").read_text() == out
    assert [lv["depth"] for lv in doc["levels"]] == [1, 2]
    assert doc["levels"][0]["ground_energy"] == pytest.approx(0.0, abs=1e-5)
    assert doc["levels"][1]["ground_energy"] == pytest.approx(2.0, abs=1e-4)
    for lv in doc["levels"]:
        csv = (out_dir / lv["potential_csv_ref"]).read_text()
        assert csv.startswith("x,value\n")


def test_hierarchy_requires_output_dir(capsys):
    assert run_usage_error(capsys, "hierarchy", "--catalog", "morse") == 1


def test_parameter_named_like_a_printed_constant_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["partner", "--w", "e*x + E", "--param", "e=2", "--points", "5"])
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    assert [ln for ln in err.splitlines() if ": error: " in ln] == [
        "susyqm: error: --w: parameters ['e'] of 'e*x + E' are named like the numpy "
        "constants its code uses; rename them"]
    # without the constant, a parameter e is an ordinary parameter
    code, out, _ = run_cli(capsys, "partner", "--w", "e*x", "--param", "e=2", "--points", "5")
    assert code == 0
    assert out == ("x,v_minus,v_plus,w\n-10,398,402,-20\n-5,98,102,-10\n0,-2,2,0\n"
                   "5,98,102,10\n10,398,402,20\n")


# -- wavefunctions ---------------------------------------------------------------


def test_wavefunctions_json(capsys):
    code, out, _ = run_cli(capsys, "wavefunctions", "--catalog", "poschl-teller",
                           "--param", "A=3", "--levels", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    validate(doc, WAVEFUNCTIONS_SCHEMA)
    assert doc["node_counts"] == [0, 1, 2]
    # the node counts are the levels the chain guarantees, not recounted
    assert not hasattr(susyqm.cli, "count_nodes")


def test_wavefunctions_csv_header(capsys):
    code, out, _ = run_cli(capsys, "wavefunctions", "--catalog", "shifted-harmonic",
                           "--levels", "1")
    assert code == 0
    assert out.splitlines()[0] == "x,psi_0,psi_1"


@pytest.mark.parametrize("record, param, levels, last", [
    ("morse", "A=1.5", "2", 2),
    ("morse", "A=0.5", "1", 1),
    ("poschl-teller", "A=2", "2", 2),
])
def test_wavefunctions_stop_at_the_last_bound_level(capsys, record, param, levels, last):
    # Morse and Pöschl-Teller bind level n only while A - n > 0: past that
    # level the record's validity rule answers, not the chain's node check.
    code, out, err = run_cli(capsys, "wavefunctions", "--catalog", record,
                             "--param", param, "--levels", levels, "--points", "401")
    assert code == 2 and out == ""
    value = float(param.split("=")[1])
    assert err == (f"susyqm wavefunctions: parameters {{'A': {value}}} violate validity "
                   f"of record {record!r} at level {last}\n")
    # one level fewer is within the record's bound levels and builds
    code, _, _ = run_cli(capsys, "wavefunctions", "--catalog", record,
                         "--param", param, "--levels", str(last - 1), "--points", "401")
    assert code == 0


# -- classify --------------------------------------------------------------------


def test_classify_harmonic_expression(capsys):
    code, out, _ = run_cli(capsys, "classify", "--w", "x")
    assert code == 0
    doc = json.loads(out)
    validate(doc, VENN_TAG_SCHEMA)
    assert doc["susy"] == "yes"
    assert doc["shape_invariant"] == "yes"
    assert doc["ih_factorizable"] == "yes"
    assert doc["exactly_solvable"] == "certified"


def test_classify_cubic_is_open_verdict(capsys):
    code, out, _ = run_cli(capsys, "classify", "--w", "x^3", "--budget", "5",
                           "--x-min", "-6", "--x-max", "6", "--points", "301")
    assert code == 0
    doc = json.loads(out)
    assert doc["shape_invariant"] == "no-within-search"
    assert doc["exactly_solvable"] == "unknown"


#: A family finite at a = 1 whose search trials at a >= 2.19 have a finite w
#: but a w^2 - w' that overflows at x = 300.
OVERFLOWING_TRIALS = ("--w", "x + exp(a*x - 300)", "--param", "a=1", "--x-min", "-10",
                      "--x-max", "300", "--points", "601", "--budget", "9")


def test_search_trials_that_overflow_are_misses(capsys):
    code, out, err = run_cli(capsys, "classify", *OVERFLOWING_TRIALS)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    validate(doc, VENN_TAG_SCHEMA)
    assert doc["shape_invariant"] == doc["ih_factorizable"] == "no-within-search"
    code, out, err = run_cli(capsys, "si-check", *OVERFLOWING_TRIALS, "--search")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    validate(doc, SI_CHECK_SCHEMA)
    assert doc["searched"] is True and doc["found"] is False


def test_readme_overflowing_trials_example_reports_no_within_search(capsys):
    # the README's example, at the default budget
    code, out, err = run_cli(capsys, "classify", *OVERFLOWING_TRIALS[:-2])
    assert (code, err) == (0, "")
    assert json.loads(out)["shape_invariant"] == "no-within-search"


def test_classify_fig_writes_graph(capsys, tmp_path):
    fig = tmp_path / "venn.dot"
    code, out, _ = run_cli(capsys, "classify", "--catalog", "scaling-demo",
                           "--fig", str(fig))
    assert code == 0
    text = fig.read_text()
    assert text.startswith("graph venn {")
    assert '"input" -- "shape-invariant"' in text


def test_classify_tabulated(capsys, well_csv):
    code, out, _ = run_cli(capsys, "classify", "--tabulated", well_csv)
    assert code == 0
    doc = json.loads(out)
    assert doc["susy"] == "yes"
    assert doc["shape_invariant"] == "unknown"


# -- algebra-check ------------------------------------------------------------------


def test_algebra_check_passes(capsys):
    code, out, _ = run_cli(capsys, "algebra-check", "--w", "x")
    assert code == 0
    doc = json.loads(out)
    validate(doc, ALGEBRA_REPORT_SCHEMA)
    assert doc["passed"] is True
    for key in ("q_squared", "q_dagger_squared", "anticommutator_defect",
                "q_commutator", "q_dagger_commutator"):
        assert doc[key] < 1e-10 * doc["h_scale"]


#: algebra-check stdout recorded with the scipy.sparse block matrices that
#: the bands replaced; the cubic has a node where w is exactly 0.
ALGEBRA_CHECK_STDOUT = [
    (["--catalog", "morse"],
     '{\n'
     '  "anticommutator_defect": 0.0,\n'
     '  "h_scale": 1801201.26834,\n'
     '  "passed": true,\n'
     '  "q_commutator": 2.19615003284e-08,\n'
     '  "q_dagger_commutator": 2.19615003284e-08,\n'
     '  "q_dagger_squared": 0.0,\n'
     '  "q_squared": 0.0,\n'
     '  "tolerance": 1e-10\n'
     '}\n'),
    (["--w", "a*x^3 + c*x", "--param", "a=1.3069", "--param", "c=0.4514",
      "--x-min", "-4", "--x-max", "4", "--points", "501"],
     '{\n'
     '  "anticommutator_defect": 0.0,\n'
     '  "h_scale": 117398.218317,\n'
     '  "passed": true,\n'
     '  "q_commutator": 6.67662510642e-10,\n'
     '  "q_dagger_commutator": 6.67662510642e-10,\n'
     '  "q_dagger_squared": 0.0,\n'
     '  "q_squared": 0.0,\n'
     '  "tolerance": 1e-10\n'
     '}\n'),
    (["--w", "A*tanh(1.2631*x)", "--param", "A=1.5656", "--points", "901"],
     '{\n'
     '  "anticommutator_defect": 0.0,\n'
     '  "h_scale": 52611.1923481,\n'
     '  "passed": true,\n'
     '  "q_commutator": 1.6159966916e-10,\n'
     '  "q_dagger_commutator": 1.6159966916e-10,\n'
     '  "q_dagger_squared": 0.0,\n'
     '  "q_squared": 0.0,\n'
     '  "tolerance": 1e-10\n'
     '}\n'),
]


@pytest.mark.parametrize("argv,stdout", ALGEBRA_CHECK_STDOUT,
                         ids=["morse", "cubic", "tanh"])
def test_algebra_check_stdout_is_pinned(capsys, argv, stdout):
    assert run_cli(capsys, "algebra-check", *argv) == (0, stdout, "")


@pytest.mark.parametrize("w,message", [
    # A†A ≈ 1e200 is finite, but the squares in its norm overflow
    ("1e100*x", "charge algebra norms are not finite; w or 1/h is too large"),
    # w² overflows in A†A itself
    ("1e200*x", "charge algebra blocks A†A and AA† are not finite at 36 entries; "
                "w or 1/h is too large"),
], ids=["norm", "block"])
def test_algebra_check_overflow_reports_one_stderr_line(capsys, w, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        code, out, err = run_cli(capsys, "algebra-check", "--w", w, "--points", "21",
                                 "--x-min", "-1", "--x-max", "1")
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"susyqm algebra-check: {message}"]


# -- argument handling ----------------------------------------------------------------


#: sha256 of the --help text at 80 columns, top level and per command.
#: Recorded on Python 3.11; argparse's layout may differ on other versions.
HELP_SHA256 = {
    (): "84b5a436cb0eedaf831c99aa767be7b374bdbfc8158bf0c686fc644dcd60a07f",
    ("catalog",): "d11f378faa2bec89d2daec47750cba22f21d881cc70441e8677414e3fdc8ced0",
    ("solve",): "b0e86f6103f76ec114125587e257ee1a6c8abf1541f17136e65fb78d681f9ed2",
    ("partner",): "efd78c11eaa442ae4c467aeb2fdfdc5803fcf06ea737522773374c2974cac7fb",
    ("hierarchy",): "00525cda7d9386d4cedffbd93aad6d227495e8dec84179821cdc3d595c62648a",
    ("si-check",): "256361d1ad2163b695dd81dbe231f2cff8462a3556d792b97a0b4405a76eb270",
    ("spectrum",): "0fdb35fd88ca69157c357b78a360385326e988de8462fa8c31f6aa9dc53c7671",
    ("wavefunctions",): "a07b08d25e60b1f2940c31a4bd0aee7db1d284b7ae467d65c37b707b1e8668f5",
    ("algebra-check",): "ebbd8060d24064483c9f52860aac4100da6c12a4f6c13b5112ed87a986351522",
    ("classify",): "2a92163e293b857e022b3414b1029f9ba81d9046a45588341f3f6f9fbc7c2828",
}


@pytest.mark.parametrize("command", HELP_SHA256, ids=lambda c: c[0] if c else "susyqm")
def test_help_text_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command], out


def test_conflicting_inputs(capsys, well_csv):
    assert run_usage_error(capsys, "solve", "--catalog", "morse", "--w", "x") == 1
    assert run_usage_error(capsys, "classify", "--tabulated", well_csv,
                           "--catalog", "morse") == 1
    assert run_usage_error(capsys, "solve") == 1


def test_param_validation(capsys):
    assert run_usage_error(capsys, "solve", "--w", "a*x", "--param", "a") == 1
    assert run_usage_error(capsys, "solve", "--w", "a*x", "--param", "a=two") == 1
    assert run_usage_error(capsys, "solve", "--w", "a*x") == 1  # missing value
    assert run_usage_error(capsys, "solve", "--w", "x", "--param", "a=1") == 1
    assert run_usage_error(capsys, "solve", "--catalog", "morse",
                           "--param", "B=1") == 1
    for value in ("nan", "inf", "-inf"):
        assert run_usage_error(capsys, "classify", "--w", "a*x",
                               "--param", f"a={value}") == 1


def test_tabulated_rejects_grid_overrides(capsys, well_csv):
    assert run_usage_error(capsys, "solve", "--tabulated", well_csv,
                           "--x-min", "-5") == 1
    assert run_usage_error(capsys, "solve", "--tabulated", well_csv,
                           "--param", "a=1") == 1


@pytest.mark.parametrize("flag, value", [("--x-min", "-1"), ("--x-max", "5"),
                                         ("--points", "301")])
def test_classify_catalog_rejects_grid_overrides(capsys, flag, value):
    # classify_record runs on the record's own grid; an override would be ignored.
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--catalog", "morse", flag, value])
    assert exc.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "susyqm: error: grid overrides do not apply to classify --catalog "
        "(the record fixes the grid)")


def test_bad_expression_is_usage_error(capsys):
    assert run_usage_error(capsys, "solve", "--w", "sinh(x)") == 1
    assert run_usage_error(capsys, "solve", "--w", "((x)") == 1
    assert run_usage_error(capsys, "partner", "--w", "x/0") == 1


@pytest.mark.parametrize("flag,cap,argv", [
    ("--budget", MAX_BUDGET, ("si-check", "--w", "x", "--search")),
    ("--points", MAX_POINTS, ("partner", "--w", "x")),
])
def test_budget_and_points_are_capped(capsys, flag, cap, argv):
    assert getattr(parse_args([*argv, flag, str(cap)]),
                   "budget" if flag == "--budget" else "n_points") == cap
    with pytest.raises(SystemExit) as exc:
        parse_args([*argv, flag, str(cap + 1)])
    assert exc.value.code == 1
    message = [ln for ln in capsys.readouterr().err.splitlines()
               if ": error: " in ln]
    assert message == [f"susyqm: error: {flag} must be at most {cap}, got {cap + 1}"]


@pytest.mark.parametrize("flag,cap,argv", [
    ("--levels", MAX_LEVELS, ("solve", "--w", "x")),
    ("--levels", MAX_LEVELS, ("spectrum", "--w", "x")),
    ("--levels", MAX_LEVELS, ("wavefunctions", "--w", "x")),
    ("--depth", MAX_DEPTH, ("hierarchy", "--w", "x", "--output", "d")),
])
def test_levels_and_depth_are_capped(capsys, flag, cap, argv):
    # parse only: a run at the cap is not needed to show the cap holds
    assert getattr(parse_args([*argv, flag, str(cap)]),
                   "n_levels" if flag == "--levels" else "depth") == cap
    with pytest.raises(SystemExit) as exc:
        parse_args([*argv, flag, str(cap + 1)])
    assert exc.value.code == 1
    message = [ln for ln in capsys.readouterr().err.splitlines()
               if ": error: " in ln]
    assert message == [f"susyqm: error: {flag} must be at most {cap}, got {cap + 1}"]


def test_numeric_flag_ranges(capsys):
    assert run_usage_error(capsys, "solve", "--w", "x", "--levels", "-1") == 1
    assert run_usage_error(capsys, "solve", "--w", "x", "--points", "2") == 1
    assert run_usage_error(capsys, "solve", "--w", "x", "--x-min", "5",
                           "--x-max", "-5") == 1
    assert run_usage_error(capsys, "hierarchy", "--w", "x", "--depth", "0",
                           "--output", "d") == 1
    assert run_usage_error(capsys, "si-check", "--w", "x", "--budget", "0") == 1
    assert run_usage_error(capsys, "classify", "--w", "x^3",
                           "--catalog", "morse") == 1
    assert run_usage_error(capsys, "partner", "--catalog", "scaling-demo") == 1


def test_negative_flag_value_in_scientific_notation(capsys):
    args = ("partner", "--w", "x", "--points", "21", "--x-max", "1e1")
    code, spaced, err = run_cli(capsys, *args, "--x-min", "-1e1")
    assert code == 0 and err == ""
    _, joined, _ = run_cli(capsys, *args, "--x-min=-1e1")
    assert spaced == joined
    assert parse_args(["partner", "--w", "x", "--x-min", "-.5E-3"]).x_min == -0.5e-3


@pytest.mark.parametrize("argv", [
    ("si-check", "--catalog", "morse", "--tolerance", "nan"),
    ("si-check", "--catalog", "morse", "--tolerance", "-1"),
    ("si-check", "--catalog", "morse", "--tolerance", "0"),
    ("algebra-check", "--w", "x", "--tolerance", "nan"),
    ("algebra-check", "--w", "x", "--tolerance", "inf"),
])
def test_tolerance_must_be_positive_and_finite(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    message = [ln for ln in capsys.readouterr().err.splitlines()
               if ": error: " in ln]
    assert message == ["susyqm: error: --tolerance must be a positive finite "
                       f"number, got {float(argv[-1])}"]


@pytest.mark.parametrize("argv,flag", [
    (("partner", "--w", "x", "--x-max", "nan"), "--x-max"),
    (("partner", "--w", "x", "--x-min", "inf"), "--x-min"),
    (("si-check", "--w", "A*tanh(x)", "--param", "A=2", "--transform", "translation",
      "--alpha", "nan", "--on", "A"), "--alpha"),
    (("si-check", "--w", "A*tanh(x)", "--param", "A=2", "--transform", "scaling",
      "--q", "inf", "--on", "A"), "--q"),
    (("si-check", "--w", "A*tanh(x)", "--param", "A=2", "--transform", "power-scaling",
      "--q", "0.5", "--p", "inf", "--on", "A"), "--p"),
    # a leading '-' on a non-finite value must still read as a value
    (("partner", "--w", "x", "--x-min", "-inf", "--x-max", "5"), "--x-min"),
    (("partner", "--w", "x", "--x-min", "-nan"), "--x-min"),
    (("partner", "--w", "x", "--x-max", "-Infinity"), "--x-max"),
    (("si-check", "--w", "A*tanh(x)", "--param", "A=2", "--transform", "translation",
      "--alpha", "-INF", "--on", "A"), "--alpha"),
    (("si-check", "--w", "A*tanh(x)", "--param", "A=2", "--transform", "scaling",
      "--q", "-NaN", "--on", "A"), "--q"),
    (("si-check", "--w", "A*tanh(x)", "--param", "A=2", "--transform", "power-scaling",
      "--q", "0.5", "--p", "-inf", "--on", "A"), "--p"),
])
def test_non_finite_grid_bounds_and_knobs_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    value = argv[argv.index(flag) + 1]
    message = [ln for ln in capsys.readouterr().err.splitlines() if ": error: " in ln]
    assert message == [f"susyqm {argv[0]}: error: argument {flag}: "
                       f"{value!r} is not a finite number"]


def test_non_numeric_grid_bound_keeps_its_message(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["partner", "--w", "x", "--x-min", "abc"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "susyqm partner: error: argument --x-min: invalid float value: 'abc'")


UNEVALUABLE = "expression 'x/(a - 2)' is non-finite at 2001 grid node(s)"


@pytest.mark.parametrize("argv, problem", [
    (("partner", "--catalog", "coulomb-radial", "--param", "l=-1"), "division by zero"),
    (("solve", "--catalog", "coulomb-radial", "--param", "l=-1"), "division by zero"),
    (("si-check", "--catalog", "coulomb-radial", "--param", "l=-1"), "division by zero"),
    (("spectrum", "--catalog", "coulomb-radial", "--param", "l=-1"),
     "cannot be raised to a negative power"),
    (("partner", "--w", "x*a**400", "--param", "a=10"), "out of range"),
    (("partner", "--w", "x + a**(-1.5)", "--param", "a=-2"), "is complex"),
    (("si-check", "--w", "A*tanh(x)", "--param", "A=0", "--transform", "power-scaling",
      "--q", "0.5", "--p", "-1"), "transform undefined at A=0.0"),
    # w cannot be evaluated at a₀, so no search ran: not "found: false" or
    # "within the search budget", but the expression's own message
    (("si-check", "--w", "x/(a-2)", "--param", "a=2", "--search"), UNEVALUABLE),
    (("si-check", "--w", "x/(a-2)", "--param", "a=2"), UNEVALUABLE),
    (("spectrum", "--w", "x/(a-2)", "--param", "a=2"), UNEVALUABLE),
    (("wavefunctions", "--w", "x/(a-2)", "--param", "a=2"), UNEVALUABLE),
])
def test_python_float_failure_is_one_line_computation_error(capsys, argv, problem):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning either
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"susyqm {argv[0]}: ")
    assert problem in lines[0]


def test_classify_unevaluable_record_matches_expression(capsys):
    # classify_record and classify_family share one path: an unevaluable
    # record gets the same all-unknown verdict as its expression.
    code, out, _ = run_cli(capsys, "classify", "--catalog", "coulomb-radial",
                           "--param", "l=-1")
    assert code == 0
    record = json.loads(out)
    _, out, _ = run_cli(capsys, "classify", "--w", "q/(2*(l+1)) - (l+1)/x",
                        "--param", "q=2", "--param", "l=-1")
    expression = json.loads(out)
    assert [e["kind"] for e in record["evidence"]] == ["catalog-record", "evaluation"]
    assert record["evidence"][1:] == expression["evidence"]
    assert {k: v for k, v in record.items() if k != "evidence"} == \
        {k: v for k, v in expression.items() if k != "evidence"} == \
        {"susy": "unknown", "shape_invariant": "unknown",
         "ih_factorizable": "unknown", "exactly_solvable": "unknown"}


def test_search_through_a_parameter_pole(capsys):
    # One coarse trial lands on a = 2, where 1/(a^2 - 4) is a Python-float
    # division by zero; it must score inf, not end the search.
    code, out, err = run_cli(capsys, "si-check", "--w", "x + 1/(a**2-4)",
                             "--param", "a=2.625", "--search", "--budget", "17")
    assert code == 0 and err == ""
    assert json.loads(out)["searched"] is True


@pytest.mark.parametrize("row, message", [
    ("nan,1", "x column contains a non-finite value"),
    ("0,1,2", "line 4 is not two numbers x,value: '0,1,2'"),
    ("0,abc", "line 4 is not two numbers x,value: '0,abc'"),
], ids=["nan-x", "three-cells", "not-a-number"])
def test_bad_tabulated_row_is_one_line_computation_error(capsys, tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"x,value\n-1,1\n0,0\n{row}\n2,4\n")
    code, out, err = run_cli(capsys, "solve", "--tabulated", str(path), "--levels", "0")
    assert (code, out, err) == (2, "", f"susyqm solve: {message}\n")


def test_missing_tabulated_file_is_computation_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", "--tabulated",
                           str(tmp_path / "nope.csv"))
    assert code == 2
    assert err != ""


def test_tabulated_file_obeys_the_points_cap(capsys, tmp_path, monkeypatch):
    def no_solve(*args):
        raise AssertionError("a file over the points cap reached the solver")

    monkeypatch.setattr(susyqm.eigensolver, "solve_potential", no_solve)
    paths = []
    for n in (MAX_POINTS, MAX_POINTS + 1):
        grid = make_grid(-10.0, 10.0, n)
        paths.append(tmp_path / f"well_{n}.csv")
        paths[-1].write_text(GridFunction(grid, grid.x**2).to_csv())
    code, out, err = run_cli(capsys, "solve", "--tabulated", str(paths[0]), "--dump-config")
    assert (code, err) == (0, "") and json.loads(out)["grid"]["n_points"] == MAX_POINTS

    def no_parse(text):
        raise AssertionError("a file over the points cap was parsed")

    # the rows are counted before the file is parsed, however long it is
    monkeypatch.setattr(GridFunction, "from_csv", no_parse)
    code, out, err = run_cli(capsys, "solve", "--tabulated", str(paths[1]), "--levels", "64")
    assert (code, out) == (2, "")
    assert err == (f"susyqm solve: a tabulated file must have at most {MAX_POINTS} "
                   f"nodes, got {MAX_POINTS + 1}\n")


# -- determinism and output routing ------------------------------------------------


def test_repeat_runs_are_byte_identical(capsys):
    args = ("spectrum", "--w", "A*tanh(x)", "--param", "A=3", "--levels", "2")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_output_file_matches_stdout(capsys, tmp_path):
    _, streamed, _ = run_cli(capsys, "partner", "--w", "x", "--points", "51",
                             "--x-min", "-2", "--x-max", "2")
    path = tmp_path / "partner.csv"
    code, out, _ = run_cli(capsys, "partner", "--w", "x", "--points", "51",
                           "--x-min", "-2", "--x-max", "2",
                           "--output", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text() == streamed


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_text_refuses_non_finite_floats(value):
    assert susyqm.cli._json_text({"a": [1.0, 2.5]}) == '{\n  "a": [\n    1.0,\n    2.5\n  ]\n}\n'
    with pytest.raises(ValueError, match="not JSON compliant"):
        susyqm.cli._json_text({"a": [1.0, {"b": value}]})


def test_non_finite_result_is_one_line_error(capsys, monkeypatch):
    def nan_report(cm, tolerance):
        return AlgebraReport(0.0, 0.0, math.nan, 0.0, 0.0, 1.0, tolerance, False)

    monkeypatch.setattr(susyqm.susy, "verify_algebra", nan_report)
    code, out, err = run_cli(capsys, "algebra-check", "--w", "x", "--points", "21")
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    # Python 3.11 and later append the value's repr
    assert line.startswith("susyqm algebra-check: Out of range float values are not "
                           "JSON compliant")


def test_dump_config(capsys):
    code, out, _ = run_cli(capsys, "solve", "--catalog", "morse",
                           "--dump-config")
    assert code == 0
    doc = json.loads(out)
    validate(doc, RUN_CONFIG_SCHEMA)
    assert doc["command"] == "solve"
    assert doc["grid"] == {"x_min": -3.5, "x_max": 10.0, "n_points": 2701}
    assert "threads" not in doc
    assert doc["input"]["catalog"] == "morse"


@pytest.mark.parametrize("argv", [
    ("--catalog", "morse"),
    ("--catalog", "coulomb-radial", "--x-max", "40", "--points", "801"),
    ("--w", "A*tanh(x)", "--param", "A=2"),
    ("--w", "A*tanh(x)", "--param", "A=2", "--x-min", "-4", "--points", "301"),
])
def test_dump_config_grid_is_the_grid_the_command_uses(capsys, argv):
    code, out, _ = run_cli(capsys, "partner", *argv, "--dump-config")
    assert code == 0
    dumped = json.loads(out)["grid"]
    code, out, _ = run_cli(capsys, "partner", *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["grid"] == dumped


def _dump_config_text(command, fmt, grid, params, catalog=None, w=None, tabulated=None):
    return ('{\n'
            '  "budget": 33,\n'
            f'  "command": "{command}",\n'
            '  "depth": 3,\n'
            f'  "format": "{fmt}",\n'
            '  "grid": {\n'
            f'    "n_points": {grid[2]},\n'
            f'    "x_max": {grid[1]},\n'
            f'    "x_min": {grid[0]}\n'
            '  },\n'
            '  "input": {\n'
            f'    "catalog": {json.dumps(catalog)},\n'
            f'    "tabulated": {json.dumps(tabulated)},\n'
            f'    "w": {json.dumps(w)}\n'
            '  },\n'
            '  "n_levels": 3,\n'
            '  "output": null,\n'
            f'  "params": {params},\n'
            '  "tolerance": null\n'
            '}\n')


def test_dump_config_stdout_is_pinned(capsys, well_csv):
    """The layout --dump-config had while it built its grid apart from the
    grid commands, for each input source."""
    assert run_cli(capsys, "solve", "--catalog", "morse", "--dump-config") == (
        0, _dump_config_text("solve", "csv", (-3.5, 10.0, 2701), "{}", catalog="morse"), "")
    argv = ("--w", "A*tanh(x)", "--param", "A=2", "--x-min", "-4", "--points", "301")
    assert run_cli(capsys, "si-check", *argv, "--dump-config") == (
        0, _dump_config_text("si-check", "json", (-4.0, 10.0, 301),
                             '{\n    "A": 2.0\n  }', w="A*tanh(x)"), "")
    assert run_cli(capsys, "classify", "--tabulated", well_csv, "--dump-config") == (
        0, _dump_config_text("classify", "json", (-10.0, 10.0, 1001), "{}",
                             tabulated=well_csv), "")


#: sha256 of JSON stdout recorded while each array element went through
#: float() on its own, before the arrays came from tolist().
JSON_ARRAY_STDOUT = [
    (["partner", "--catalog", "morse", "--points", "201"],
     "bafb7bd5858e0b0bb69d1e44d4d13c6746d23e1a9e3f0706ee23c0692ba81ae8"),
    (["partner", "--w", "A*tanh(x)", "--param", "A=2", "--points", "201"],
     "4a040c006e0f618427f8dc3e3fe10e4af8d623dfaacc1b58135a8fe5011be103"),
    (["wavefunctions", "--catalog", "poschl-teller", "--levels", "1", "--points", "401"],
     "4f7c43af2635dae436f344667c00ed7582a0108289a8a820b332050f6935d7c8"),
    (["wavefunctions", "--w", "a*x", "--param", "a=1", "--levels", "2", "--points", "401"],
     "467a283ae0bc35a09d77e2db146d87de0feaefbf3e0063aaf9c5ca2e8ef621c7"),
]


@pytest.mark.parametrize("argv,digest", JSON_ARRAY_STDOUT,
                         ids=["partner-record", "partner-w", "wavefunctions-record",
                              "wavefunctions-w"])
def test_json_array_stdout_is_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- input resolution ---------------------------------------------------------------

SINGULAR = ("grid starts at -1.0, inside the singular region of 'coulomb-radial'; "
            "x_min must be at least 0.001")


@pytest.mark.parametrize("command, extra", [
    ("partner", ()), ("solve", ()), ("hierarchy", ("--output", "{levels}")),
    ("si-check", ()), ("spectrum", ()), ("wavefunctions", ()),
    ("algebra-check", ()), ("solve", ("--dump-config",)),
], ids=["partner", "solve", "hierarchy", "si-check", "spectrum", "wavefunctions",
        "algebra-check", "dump-config"])
def test_singular_region_rule_holds_for_every_grid_command(capsys, tmp_path,
                                                           command, extra):
    out_dir = tmp_path / "levels"
    extra = [a.replace("{levels}", str(out_dir)) for a in extra]
    code, out, err = run_cli(capsys, command, "--catalog", "coulomb-radial",
                             "--x-min", "-1", *extra)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"susyqm {command}: {SINGULAR}"]
    assert not out_dir.exists()


DEGENERATE_GRIDS = {
    # h**2 underflows to 0, so the Laplacian's 2/h**2 would divide by zero
    "tiny-spacing": (("--x-min=-1e-300", "--x-max", "1e-300", "--points", "101"),
                     "grid spacing h=2e-302 is out of range: "
                     "h**2 and 2/h**2 must both be finite"),
    # x_max - x_min overflows, so linspace would fill the grid with inf and nan
    "span-overflow": (("--x-min=-1e308", "--x-max", "1e308"),
                      "grid span x_max - x_min overflows on [-1e+308, 1e+308]"),
}


@pytest.mark.parametrize("command, extra", [
    ("partner", ()), ("solve", ()), ("hierarchy", ("--output", "{levels}")),
    ("si-check", ()), ("spectrum", ()), ("wavefunctions", ()), ("classify", ()),
    ("algebra-check", ()), ("solve", ("--dump-config",)),
], ids=["partner", "solve", "hierarchy", "si-check", "spectrum", "wavefunctions",
        "classify", "algebra-check", "dump-config"])
@pytest.mark.parametrize("grid", list(DEGENERATE_GRIDS))
def test_degenerate_grid_is_one_line_error(capsys, tmp_path, command, extra, grid):
    flags, message = DEGENERATE_GRIDS[grid]
    out_dir = tmp_path / "levels"
    extra = [a.replace("{levels}", str(out_dir)) for a in extra]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        code, out, err = run_cli(capsys, command, "--w", "x", *flags, *extra)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"susyqm {command}: {message}"]
    assert not out_dir.exists()


def test_commands_read_only_the_resolved_input():
    """Looking up records, merging parameters and building grids happen in
    parse_args and _resolve; no _cmd_* does either."""
    banned = {"get_record", "merged_params", "instantiate", "make_grid"}
    tree = ast.parse(Path(susyqm.cli.__file__).read_text())
    commands = [fn for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_")]
    assert len(commands) == 9
    calls = sorted(
        (fn.name, name) for fn in commands for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        for name in [getattr(node.func, "id", getattr(node.func, "attr", None))]
        if name in banned)
    assert calls == []


def _nodes_by_function(tree: ast.AST) -> list[tuple[str | None, ast.AST]]:
    """Every node under tree, with the name of its innermost enclosing function."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            yield owner, child
            yield from visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)
    return list(visit(tree, None))


def _writes(node: ast.AST) -> bool:
    """A call that writes stdout or a file: sys.stdout.write, Path.write_*,
    or open with a mode that is not read-only (or not a literal)."""
    if not isinstance(node, ast.Call):
        return False
    func = ast.unparse(node.func)
    if func == "sys.stdout.write" or func.endswith((".write_text", ".write_bytes")):
        return True
    if func != "open" and not func.endswith(".open"):
        return False
    modes = node.args[1:2] if func == "open" else node.args[:1]
    modes += [k.value for k in node.keywords if k.arg == "mode"]
    return any(not isinstance(m, ast.Constant) or set(m.value) & set("wax+") for m in modes)


def _sets_fmt(node: ast.AST) -> bool:
    """dest="fmt", set_defaults(fmt=...) or an assignment to .fmt."""
    if isinstance(node, ast.Attribute):
        return node.attr == "fmt" and isinstance(node.ctx, ast.Store)
    return isinstance(node, ast.Call) and any(
        (k.arg == "dest" and getattr(k.value, "value", None) == "fmt")
        or (k.arg == "fmt" and ast.unparse(node.func).endswith(".set_defaults"))
        for k in node.keywords)


def test_output_rules_live_in_one_place_each():
    """Every document and file the CLI writes goes through _emit, and every
    command's format is set in _add_common_flags."""
    nodes = _nodes_by_function(ast.parse(Path(susyqm.cli.__file__).read_text()))
    assert sorted(owner for owner, node in nodes if _writes(node)) == ["_emit", "_emit"]
    assert sorted(owner for owner, node in nodes if _sets_fmt(node)) \
        == ["_add_common_flags", "_add_common_flags"]


def test_output_rule_checks_see_each_spelling():
    """The two predicates above flag what they are meant to, and no read."""
    calls = {"sys.stdout.write(t)": True, "open(p, 'w', newline='\\n')": True,
             "path.open('a')": True, "open(p, mode)": True, "p.write_text(t)": True,
             "path.open()": False, "open(p)": False, "open(p, mode='r')": False,
             "sys.stderr.write(t)": False}
    for text, writes in calls.items():
        assert _writes(ast.parse(text, mode="eval").body) is writes, text
    sets = {"p.add_argument('--f', dest='fmt')": True, "p.set_defaults(fmt='json')": True,
            "ns.fmt = 'csv'": True, "ns.fmt == 'csv'": False, "f(fmt='csv')": False}
    for text, sets_fmt in sets.items():
        assert any(_sets_fmt(node) for node in ast.walk(ast.parse(text))) is sets_fmt, text


def test_overflow_reports_one_stderr_line():
    # w = exp(0.5x) is finite on [-10, 1000] but w² overflows.
    proc = subprocess.run([sys.executable, "-m", "susyqm.cli", "partner",
                           "--w", "exp(0.5*x)", "--x-max", "1000"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "susyqm partner: grid function contains non-finite values"]


@pytest.mark.parametrize("argv", [
    ["solve", "--w", "1.3e154"],
    ["classify", "--w", "1.3e154+a*x", "--param", "a=1"],
])
def test_hamiltonian_overflow_reports_one_stderr_line(argv):
    # V = w² ≈ 1.7e308 is finite, but 2/h**2 + V overflows on this grid
    grid = ["--x-min", "0", "--x-max", "2.4e-152", "--points", "201"]
    proc = subprocess.run([sys.executable, "-m", "susyqm.cli", *argv, *grid],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        f"susyqm {argv[0]}: Hamiltonian diagonal 2/h**2 + V is not finite at 199 "
        "interior node(s); V is too large for this grid spacing"]


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "susyqm.cli", "catalog"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == CATALOG_NAMES
