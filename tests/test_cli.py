import json
import subprocess
import sys

import numpy as np
import pytest
from jsonschema import validate

from susyqm import GridFunction, make_grid
from susyqm.cli import (MAX_BUDGET, MAX_DEPTH, MAX_LEVELS, MAX_POINTS, main,
                        parse_args)
from susyqm.schemas import (ALGEBRA_REPORT_SCHEMA, CATALOG_SCHEMA,
                            HIERARCHY_SCHEMA, PARTNER_SCHEMA,
                            RUN_CONFIG_SCHEMA, SI_CHECK_SCHEMA,
                            SOLUTION_SCHEMA, SPECTRUM_TABLE_SCHEMA,
                            VENN_TAG_SCHEMA, WAVEFUNCTIONS_SCHEMA)

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


# -- wavefunctions ---------------------------------------------------------------


def test_wavefunctions_json(capsys):
    code, out, _ = run_cli(capsys, "wavefunctions", "--catalog", "poschl-teller",
                           "--param", "A=3", "--levels", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    validate(doc, WAVEFUNCTIONS_SCHEMA)
    assert doc["node_counts"] == [0, 1, 2]


def test_wavefunctions_csv_header(capsys):
    code, out, _ = run_cli(capsys, "wavefunctions", "--catalog", "shifted-harmonic",
                           "--levels", "1")
    assert code == 0
    assert out.splitlines()[0] == "x,psi_0,psi_1"


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


# -- argument handling ----------------------------------------------------------------


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


def test_thread_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("SUSY_SPECTRA_THREADS", "abc")
    assert run_usage_error(capsys, "catalog") == 1
    monkeypatch.setenv("SUSY_SPECTRA_THREADS", "0")
    assert run_usage_error(capsys, "catalog") == 1
    monkeypatch.setenv("SUSY_SPECTRA_THREADS", "4")
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0


def test_missing_tabulated_file_is_computation_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", "--tabulated",
                           str(tmp_path / "nope.csv"))
    assert code == 2
    assert err != ""


# -- determinism and output routing ------------------------------------------------


def test_repeat_runs_are_byte_identical(capsys):
    args = ("spectrum", "--w", "A*tanh(x)", "--param", "A=3", "--levels", "2")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_thread_count_does_not_change_output(capsys, monkeypatch):
    args = ("si-check", "--w", "A*tanh(x)", "--param", "A=3", "--search",
            "--budget", "9")
    _, lone, _ = run_cli(capsys, *args)
    monkeypatch.setenv("SUSY_SPECTRA_THREADS", "4")
    _, pooled, _ = run_cli(capsys, *args)
    assert lone == pooled


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


def test_dump_config(capsys):
    code, out, _ = run_cli(capsys, "solve", "--catalog", "morse",
                           "--dump-config")
    assert code == 0
    doc = json.loads(out)
    validate(doc, RUN_CONFIG_SCHEMA)
    assert doc["command"] == "solve"
    assert doc["grid"] == {"x_min": -3.5, "x_max": 10.0, "n_points": 2701}
    assert doc["threads"] == 1
    assert doc["input"]["catalog"] == "morse"


def test_overflow_reports_one_stderr_line():
    # w = exp(0.5x) is finite on [-10, 1000] but w² overflows.
    proc = subprocess.run([sys.executable, "-m", "susyqm.cli", "partner",
                           "--w", "exp(0.5*x)", "--x-max", "1000"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "susyqm partner: grid function contains non-finite values"]


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "susyqm.cli", "catalog"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == CATALOG_NAMES
