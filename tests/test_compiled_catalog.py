"""The checked-in numpy code of the catalog records (``susyqm/_compiled_catalog.py``).

Records build their families and R functions from that file without sympy,
through the same assembly step as a live compilation, so the file must be
exactly what the catalog renders and every callable built from it must
equal a live compilation bit for bit.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from susyqm import (EvaluationError, ExpressionError, _compiled_catalog,
                    compile_on_grid, compile_scalar, differentiate, get_record,
                    list_catalog, parse_expression, record_grid)
from susyqm.catalog import _REGENERATE, _r_key, _render_compiled_catalog
from susyqm._closed_grammar import closed_grammar_codes
from susyqm.expressions import _namespace, parameter_names

RECORDS = [get_record(name) for name in list_catalog()]
FAMILY_NAMES = [rec.name for rec in RECORDS if rec.expression is not None]
CODES = [code for pair in _compiled_catalog.FAMILIES.values() for code in pair] + list(
    _compiled_catalog.R_FUNCTIONS.values())


def _fresh(name: str, **changes):
    """A copy of the record whose family and R are not built yet."""
    return dataclasses.replace(get_record(name), **changes)


def _outcome(fn, *args):
    """fn's result, or the message of the EvaluationError it raised."""
    try:
        return fn(*args)
    except EvaluationError as exc:
        return str(exc)


def test_checked_in_file_is_what_the_catalog_renders():
    assert Path(_compiled_catalog.__file__).read_text() == _render_compiled_catalog()


def test_readme_gives_the_regenerate_command():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert f"```\n{_REGENERATE}\n```" in readme


def test_every_record_is_in_the_table():
    assert set(_compiled_catalog.FAMILIES) == {rec.expression for rec in RECORDS
                                               if rec.expression is not None}
    assert set(_compiled_catalog.R_FUNCTIONS) == {_r_key(rec) for rec in RECORDS}


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_assembled_family_equals_live_compilation(name):
    rec = _fresh(name)
    grid = record_grid(rec)
    expr = parse_expression(rec.expression)
    names = parameter_names(expr)
    params = dict(rec.default_params)
    columns = {p: np.array([v, 0.9 * v + 0.1, 1.3 * v + 0.2])[:, None]
               for p, v in params.items()}
    family = rec.family
    assert family.parameter_names == tuple(names)
    for got, want in zip((family.w_fn, family.w_prime_fn),
                         [compile_on_grid(e, names) for e in (expr, differentiate(expr))]):
        assert got.broadcasts == want.broadcasts
        for _ in range(2):  # the second call reads the tables the first one made
            assert np.array_equal(got(grid.x, params), want(grid.x, params))
            with np.errstate(all="ignore"):
                stacked = (got.unchecked(grid.x, columns), want.unchecked(grid.x, columns))
            assert np.array_equal(*stacked)
        if want.subterms is None:
            assert got.subterms is None
        else:
            assert got.subterms.computed == want.subterms.computed == 1
            assert len(got.subterms(grid.x)) == len(want.subterms(grid.x))


def test_assembled_family_fails_with_the_live_message():
    rec = _fresh("coulomb-radial")
    expr = parse_expression(rec.expression)
    live = compile_on_grid(expr, parameter_names(expr))
    x = record_grid(rec).x
    for params in ({"q": 2.0, "l": -1.0}, {"q": 1e300, "l": -1.0 + 1e-12}):
        want = _outcome(live, x, params)
        assert isinstance(want, str)
        assert _outcome(rec.family.w_fn, x, params) == want


@pytest.mark.parametrize("name", list_catalog())
def test_assembled_r_equals_live_compilation(name):
    rec = _fresh(name)
    live = compile_scalar(parse_expression(rec.r_closed_form), sorted(rec.default_params))
    for shift in (0.0, 0.3, -1.0, 2.5):
        values = {p: v + shift for p, v in rec.default_params.items()}
        assert _outcome(rec.r_function, values) == _outcome(live, values)


def test_closed_grammar_prints_the_checked_in_code():
    """A record text in the closed grammar gets the same code from either
    sympy-free route: the checked-in table and the closed-grammar printer."""
    accepted = {text: codes for text, codes in _compiled_catalog.FAMILIES.items()
                if closed_grammar_codes(text) is not None}
    assert set(accepted) == {"omega*x", "A - exp(-x)", "A*tanh(x)", "q/(2*(l+1)) - (l+1)/x"}
    for text, codes in accepted.items():
        assert closed_grammar_codes(text) == codes


def test_record_outside_the_table_compiles_live():
    rec = _fresh("morse", expression="B - exp(-2*x)", r_closed_form="4*B + 4",
                 default_params={"B": 2.0})
    assert rec.expression not in _compiled_catalog.FAMILIES
    assert _r_key(rec) not in _compiled_catalog.R_FUNCTIONS
    x = record_grid(rec).x
    want = compile_on_grid(parse_expression("B - exp(-2*x)"), ["B"])
    assert np.array_equal(rec.family.w_fn(x, {"B": 1.5}), want(x, {"B": 1.5}))
    assert rec.r_function({"B": 1.5}) == 10.0
    # R's code depends on the parameter list as well: the same text over
    # other parameters is compiled live, which rejects it
    other = _fresh("morse", default_params={"B": 2.0})
    assert other.r_closed_form in {text for text, _ in _compiled_catalog.R_FUNCTIONS}
    with pytest.raises(ExpressionError, match=r"uses parameters \['A'\] not among \['B'\]"):
        other.r_function


def test_generated_module_imports_only_numpy_and_susyqm():
    tree = ast.parse(Path(_compiled_catalog.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("susyqm" if node.level else node.module)
    assert imported and {name.split(".")[0] for name in imported} <= {"numpy", "susyqm"}


@pytest.mark.parametrize("code", CODES, ids=[code.text for code in CODES])
def test_generated_sources_read_only_arguments_and_numpy(code):
    """Each source defines functions that import nothing and read only their
    arguments and names of the assembly namespace (numpy and sech)."""
    tree = ast.parse(code.source)
    assert [fn.name for fn in tree.body][:1] == ["_fn"]
    for fn in tree.body:
        assert isinstance(fn, ast.FunctionDef)
        assert not any(isinstance(node, (ast.Import, ast.ImportFrom, ast.Attribute))
                       for node in ast.walk(fn))
        args = {a.arg for a in fn.args.args}
        names = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
        assert names - args <= _namespace().keys()
