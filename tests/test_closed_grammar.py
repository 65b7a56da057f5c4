"""The sympy-free printer of the closed grammar (``susyqm/_closed_grammar.py``).

For every text it accepts, its w and w′ code must equal what sympy prints
through ``generate_on_grid``, field for field: the printer copies sympy's
term order, factor order and float printing, so these tests compare it
with live sympy.  A sympy that prints otherwise fails here.
"""

import itertools
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyqm import (ExpressionError, SuperpotentialFamily, differentiate, make_grid,
                    parse_expression, susy)
from susyqm._closed_grammar import _PLAIN_NAMES, closed_grammar_codes
from susyqm.expressions import assemble_on_grid, generate_on_grid, parameter_names

ROOT = Path(__file__).resolve().parents[1]

#: One text of each shape the CLI workloads and the docs use.
SHAPES = ["a*x", "a*x + 0.3240", "a*x - 0.3240", "x", "A*tanh(0.8000*x)", "2*tanh(x)",
          "A*tanh(x)", "A - 0.7344*exp(-x)", "exp(1.5000*x)", "a*x^3 + 0.3240",
          "a*x^3 - 0.3240", "a*x^3 + c*x", "a*x^3 + c*x - 0.2000", "a*x^3 + c*x + 0.2000"]

#: Texts outside the grammar, or whose print the printer does not copy.
DECLINED = ["a*sech(x)", "foo(1.2*x)", "1.2*x/0", "q/(2*(l+1)) - (l+1)/x", "x/(a-2)",
            "1.3e154", "1e100*x", "x*a**400", "x + a**(-1.5)", "E*x", "pi*x", "N*x",
            "beta*x", "x*x_1", "a*0.0000*x", "0.0000*x + a", "a*x + 2*a*x", "0.5 + 0.5*a + 0.2",
            "tanh(-x)", "tanh(x) + a", "exp(x) + exp(2*x)", "0.0001*exp(0.0001*x)",
            "12345*x", "0.12345*x", "x^10", "x^1", "(x)", "2x", "", "x +", "-", "--x",
            "+x", "a*b*x", "2*3*x", "x*x", "\tx", "A*tanh(0*x)", "exp(0.0*x)",
            "I*x", "O*x", "Q*x", "S*x", "gamma*x", "zeta*x"]


def _live(text: str):
    expr = parse_expression(text)
    params = parameter_names(expr)
    return generate_on_grid(expr, params), generate_on_grid(differentiate(expr), params)


def _assert_same_as_sympy(text: str):
    got = closed_grammar_codes(text)
    if got is not None:
        assert got == _live(text), text
    return got


@pytest.mark.parametrize("text", SHAPES)
def test_every_shape_is_accepted_and_equals_sympy(text):
    assert _assert_same_as_sympy(text) is not None


#: Printing hazards: text -> (w text, w′ text, w tables, w′ tables).
HAZARDS = {
    "a*x + 0.3240": ("a*x + 0.324", "a", (), ()),
    "a*x + 1.0000": ("a*x + 1.0", "a", (), ()),
    "a*x - 0.0000": ("a*x", "a", (), ()),
    # a float that is the whole expression prints in full
    "0.0001*x": ("0.0001*x", "0.000100000000000000", ("0.0001*x",), ()),
    "-0.5": ("-0.500000000000000", "0", (), ()),
    # term order depends on the parameter names
    "c*x^3 + a*x": ("a*x + c*x**3", "a + 3*c*x**2", ("x**3",), ("x**2",)),
    "b*x + a*x^3": ("a*x**3 + b*x", "3*a*x**2 + b", ("x**3",), ("x**2",)),
    "y*x^3 + a": ("a + x**3*y", "3*x**2*y", ("x**3",), ("x**2",)),
    # a subterm swallows its number and sign
    "A - 0.7344*exp(-x)": ("A - 0.7344*exp(-x)", "0.7344*exp(-x)",
                           ("-0.7344*exp(-x)",), ("0.7344*exp(-x)",)),
    "0.5*x^2 + a": ("a + 0.5*x**2", "1.0*x", ("0.5*x**2",), ("1.0*x",)),
    # exp(-k*x) orders as a negative power of exp(k*x)
    "A*exp(-0.1*x) + A": ("A + A*exp(-0.1*x)", "-0.1*A*exp(-0.1*x)",
                          ("exp(-0.1*x)",), ("exp(-0.1*x)",)),
    "0.5 + exp(x)": ("exp(x) + 0.5", "exp(x)", ("exp(x) + 0.5",), ("exp(x)",)),
    # a positive number stays before a negative multiple of one factor
    "0.5 - 2*x": ("0.5 - 2*x", "-2", ("0.5 - 2*x",), ()),
    "A*tanh(1.2631*x)": ("A*tanh(1.2631*x)", "A*(1.2631 - 1.2631*tanh(1.2631*x)**2)",
                         ("tanh(1.2631*x)",), ("1.2631 - 1.2631*tanh(1.2631*x)**2",)),
    "-tanh(x)": ("-tanh(x)", "tanh(x)**2 - 1", ("-tanh(x)",), ("tanh(x)**2 - 1",)),
}


@pytest.mark.parametrize("text", HAZARDS)
def test_printing_hazards(text):
    codes = _assert_same_as_sympy(text)
    assert codes is not None
    tables = [re.findall(r"^    return \((.*),\)$", code.source, re.M) for code in codes]
    assert (codes[0].text, codes[1].text, *map(tuple, tables)) == HAZARDS[text]


@pytest.mark.parametrize("text", DECLINED)
def test_declined(text):
    assert closed_grammar_codes(text) is None


# -- the sweep of the grammar --------------------------------------------------------

NAMES = sorted(_PLAIN_NAMES)


def _fractions(places: int):
    return (st.sampled_from(["0" * places, "0" * (places - 1) + "1"])
            | st.integers(0, 10**places - 1).map(lambda v: f"{v:0{places}d}"))


# The strategies are built once, since hypothesis validates each new one.
# Literals are integers and decimals of one to four places, 0.0000 and
# 1.0000 among them.
LITERALS = st.builds(lambda whole, fraction: whole + fraction,
                     st.sampled_from(["0", "1", "2", "10"]) | st.integers(0, 9999).map(str),
                     st.sampled_from([""]) | st.one_of(*[_fractions(n).map(lambda f: "." + f)
                                                          for n in range(1, 5)]))
ARGS = st.sampled_from(["x", "-x"]) | st.builds(
    lambda sign, k: f"{sign}{k}*x", st.sampled_from(["", "-"]), LITERALS)
POLYNOMIAL = st.sampled_from(["", "x"]) | st.builds(
    lambda n, op: f"x{op}{n}", st.integers(2, 9), st.sampled_from(["^", "**"]))


def _specs(parts):
    """Terms as (x-part, literal, parameter), each factor but one optional."""
    return st.tuples(parts, st.none() | LITERALS, st.none() | st.sampled_from(NAMES))


TANH_SPECS = _specs(ARGS.map(lambda a: f"tanh({a})"))
EXP_SPECS = _specs(ARGS.map(lambda a: f"exp({a})"))
POLYNOMIAL_SPECS = st.lists(_specs(POLYNOMIAL), max_size=3)
ORDERS = st.sampled_from(list(itertools.permutations(range(3))))
TIMES, PLUS = st.sampled_from(["*", " * "]), st.sampled_from([" + ", " - ", "+", "-"])
UP_TO = [st.integers(0, n) for n in range(4)]


@st.composite
def texts(draw) -> str:
    """Sums of up to four terms in any term and factor order, with both
    signs and optional spaces: polynomial terms with at most one exp term,
    or one tanh term alone (the grammar's two forms)."""
    if draw(UP_TO[3]) == 0:
        specs = [draw(TANH_SPECS)]
    else:
        specs = draw(POLYNOMIAL_SPECS)
        specs.insert(draw(UP_TO[len(specs)]), draw(EXP_SPECS))
        if draw(st.booleans()) and len(specs) > 1:
            specs = [spec for spec in specs if not spec[0].startswith("exp")]
    parts = []
    for spec in specs:
        factors = [spec[i] for i in draw(ORDERS) if spec[i]] or [draw(LITERALS)]
        parts.append(draw(TIMES).join(factors))
    return ("-" if draw(st.booleans()) else "") + "".join(
        part if i == 0 else draw(PLUS) + part for i, part in enumerate(parts))


def test_accepted_texts_print_as_sympy_prints_them():
    """The gate: on a sweep of the grammar, every text the printer accepts
    prints as sympy prints it, and it accepts most of the sweep's texts."""
    accepted = []

    @settings(max_examples=200)
    @given(texts())
    def sweep(text):
        accepted.append(_assert_same_as_sympy(text) is not None)

    sweep()
    assert sum(accepted) > len(accepted) / 2


@pytest.mark.parametrize("name", NAMES)
def test_plain_names_are_plain_symbols(name):
    assert _assert_same_as_sympy(f"{name}*x^3 + x*{name} - {name}") is not None
    assert parameter_names(parse_expression(name)) == [name]


# -- every --w text in the repository ---------------------------------------------------

def _repository_texts() -> set[str]:
    """Literal --w texts and from_expression arguments in the tests, the
    benchmark, the demos and the README, and the texts the benchmark's
    cli-cold and search-sweep workloads draw."""
    found = set()
    patterns = [r'"--w",\s*"([^"]*)"', r'--w "([^"]*)"', r"--w ([^\s\"`]+)",
                r'from_expression\(\s*"([^"]*)"']
    files = [ROOT / "README.md", *ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/*.py"),
             *ROOT.glob("perfbench/*.md"), *ROOT.glob("demos/*.py")]
    for path in files:
        text = path.read_text()
        for pattern in patterns:
            found.update(re.findall(pattern, text))
    for path in ROOT.glob("perfbench/golden/*.json"):
        for op in json.loads(path.read_text())["ops"]:
            argv = op["argv"]
            found.update(argv[i + 1] for i, a in enumerate(argv[:-1]) if a == "--w")
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import cli_cold
        import search_sweep
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for seed in range(3):
        for block, _ in zip(cli_cold.blocks(seed), range(48)):
            argv = block[0].argv
            found.update(argv[i + 1] for i, a in enumerate(argv[:-1]) if a == "--w")
        for block, _ in zip(search_sweep.blocks(seed), range(2)):
            found.update(op.text for op in block)
    return found


REPOSITORY_TEXTS = sorted(_repository_texts())


def test_repository_texts_are_found():
    assert {"x", "a*x", "2*tanh(x)", "A - exp(-x)", "x^3"} <= set(REPOSITORY_TEXTS)
    assert len(REPOSITORY_TEXTS) > 100


@pytest.mark.parametrize("text", REPOSITORY_TEXTS)
def test_repository_text_equals_sympy_or_is_declined(text):
    try:
        _live(text)
    except ExpressionError:  # a text sympy rejects must be declined
        assert closed_grammar_codes(text) is None
    else:
        _assert_same_as_sympy(text)


def test_family_of_an_accepted_text_needs_no_parse(monkeypatch):
    def refuse(text):
        raise AssertionError(f"{text!r} went to sympy")

    monkeypatch.setattr(susy, "parse_expression", refuse)
    family = SuperpotentialFamily.from_expression("a*x^3 + c*x - 0.2000")
    grid = make_grid(-4.0, 4.0, 201)
    params = {"a": 0.7, "c": 0.3}
    for got, code in zip((family.w_fn, family.w_prime_fn), _live("a*x^3 + c*x - 0.2000")):
        assert np.array_equal(got(grid.x, params), assemble_on_grid(code)(grid.x, params))
