"""The sympy-free printer of the closed grammar (``susyqm/_closed_grammar.py``).

For every text it accepts, its w and w′ code must equal what sympy prints
through ``generate_on_grid``, field for field: the printer copies sympy's
term order, factor order and float printing, so these tests compare it
with live sympy.  A sympy that prints otherwise fails here.
"""

import importlib
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
from susyqm import _parser_namespace
from susyqm._closed_grammar import _PLAIN_NAMES, closed_grammar_codes
from susyqm._refusals import REGENERATE_NAMESPACE, render_parser_namespace
from susyqm.expressions import assemble_on_grid, generate_on_grid, parameter_names

ROOT = Path(__file__).resolve().parents[1]

#: One text of each shape the CLI workloads and the docs use.
SHAPES = ["a*x", "a*x + 0.3240", "a*x - 0.3240", "x", "A*tanh(0.8000*x)", "2*tanh(x)",
          "A*tanh(x)", "A - 0.7344*exp(-x)", "exp(1.5000*x)", "a*x^3 + 0.3240",
          "a*x^3 - 0.3240", "a*x^3 + c*x", "a*x^3 + c*x - 0.2000", "a*x^3 + c*x + 0.2000",
          "2.0134/(2*(l+1)) - (l+1)/x", "q/(2*(l+1)) - (l+1)/x"]

#: Texts outside the grammar, or whose print the printer does not copy.
DECLINED = ["a*sech(x)", "x/(a-2)",
            "1.3e154", "1e100*x", "x*a**400", "x + a**(-1.5)", "E*x", "pi*x", "N*x",
            "beta*x", "x*x_1", "a*0.0000*x", "0.0000*x + a", "a*x + 2*a*x", "0.5 + 0.5*a + 0.2",
            "tanh(-x)", "tanh(x) + a", "exp(x) + exp(2*x)", "0.0001*exp(0.0001*x)",
            "12345*x", "0.12345*x", "x^10", "x^1", "(x)", "2x", "", "x +", "-", "--x",
            "+x", "a*b*x", "2*3*x", "x*x", "\tx", "A*tanh(0*x)", "exp(0.0*x)",
            "I*x", "O*x", "Q*x", "S*x", "gamma*x", "zeta*x",
            # a dropped 0.0 makes the number a float, printed in full
            "1 - 0.00", "a*x + 1 + 0.0",
            # radial texts outside the grammar
            "1/x", "0/x", "1/(l+1)", "1.0/(l+1)", "1/(2*(l+1)) - (l+1)/x",
            "2/(l+0)", "q/(1*(l+1))", "q/(2*l+2)", "q/(l+l)", "(l+1)/x**2", "(l+1)/x*2",
            "(l+1)/x/2", "2/(l+1)/x", "x/(l+1)", "a*(l+1)/x", "(x+1)/x", "a + -(l+1)/x", "a/x + b/x",
            "a/(l+1) + 2/(l+1)", "exp(x) + 1/x", "tanh(x) - 2/x", "(l+1)/x + 0.0 + 1",
            "q/(2*(l+1)",
            # sympy folds or cancels the call or the zero divisor, or binds the name
            "foo(x)*0", "0*foo(x)", "foo(x) - foo(x)", "exp(1.2*x)/0", "x/0 - x/0", "0*x/0",
            "0.3 + 1/0", "2/0 - 2*x", "x/0 + x", "gamma(x)", "Abs(x)", "sqrt(x)", "re(x)",
            "zoo*x",
            # calls and divisions outside the two refusals
            "a(a*x)", "x(2)", "foo(x)^2", "foo(x,1)", "foo()", "2foo(x)", "lambda(x)",
            "foo(x)/0", "foo(x)*bar(x)", "x/foo(x)", "x/0*2", "x/0/2", "x/(0)", "x/-0",
            "2/x/0", "tanh(x)/0", "2.5/0.0", "-2.5/0.0", "x/00"]

#: Texts the printer refuses without sympy, with the ExpressionError that
#: parse_expression raises: one unknown function call, or one product term
#: over a zero literal.
REFUSED = ["foo(1.2*x)", "1.2*x/0", "x/0", "2/0", "foo(x)", "2*foo(x)/x", "a*foo(x) - 3",
           "-foo(x) + a*x^3", "3 - Foo(0.5*x)*x", "exp(x)*f_1(1.2*x)", "foo (x) + 2",
           "int(x)", "type(x)", "match(x)", "_(x)", "a - 2*(l+1)/x + g(x)",
           "a*x^3 + 0.3/0", "-x/0", "a*x/0", "2*a*x^2/0.00", "x / 0", "2/0.0",
           "x*2.5/0.0", "0.5 - x/0", "x/0 + 0.0", "2/0 + (l+1)/x", "2/0 + a*exp(x)",
           "a*x/0 + a*x^2", "x/0 + a*x + 2", "b/0 + a", "x/0 + 2/(l+1)",
           "a*x^3 + 0.3240 + x^2/0", "lamda*x/0 - 2.5"]


def _live(text: str):
    expr = parse_expression(text)
    params = parameter_names(expr)
    return generate_on_grid(expr, params), generate_on_grid(differentiate(expr), params)


def _assert_same_as_sympy(text: str):
    got = closed_grammar_codes(text)
    if got is not None:
        assert got == _live(text), text
    return got


def _outcome(compile_text, text: str):
    """compile_text(text), or the message of the ExpressionError it raised."""
    try:
        return compile_text(text)
    except ExpressionError as exc:
        return str(exc)


def _assert_declined_or_same_as_sympy(text: str):
    """The printer's codes or refusal message for text, which must equal
    sympy's, or None when the printer declines text."""
    got = _outcome(closed_grammar_codes, text)
    if got is not None:
        assert got == _outcome(_live, text), text
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
    # radial terms: a scale literal distributes over its group, trailing
    # zeros go, and x**2 of w′ is a table while x of w is not
    "1.5090/(2*(l+1)) - (l+1)/x": ("1.509/(2*l + 2) - (l + 1)/x", "(l + 1)/x**2", (),
                                   ("x**2",)),
    "2.0000/(2*(l+1)) - (l+1)/x": ("2.0/(2*l + 2) - (l + 1)/x", "(l + 1)/x**2", (),
                                   ("x**2",)),
    "3/(2*(l+1))": ("3/(2*l + 2)", "0", (), ()),
    "q/(0.5*(l+1))": ("q/(0.5*l + 0.5)", "0", (), ()),
    "2.0000*(l+1.50)/x": ("(2.0*l + 3.0)/x", "-(2.0*l + 3.0)/x**2", (), ("x**2",)),
    "(l - 1)/x": ("(l - 1)/x", "-(l - 1)/x**2", (), ("x**2",)),
    "(1 + l)/x": ("(l + 1)/x", "-(l + 1)/x**2", (), ("x**2",)),
    # a leading minus distributes into the group, a subtracted one does not
    "-(l - 1)/x": ("(1 - l)/x", "-(1 - l)/x**2", (), ("x**2",)),
    "-2*(l+1)/x": ("(-2*l - 2)/x", "-(-2*l - 2)/x**2", (), ("x**2",)),
    "a - 2*(l+1)/x": ("a - (2*l + 2)/x", "(2*l + 2)/x**2", (), ("x**2",)),
    # both signs of the x⁻¹ term; a literal over x is an x-only subterm
    "q/(2*(l+1)) + (l+1)/x": ("q/(2*l + 2) + (l + 1)/x", "-(l + 1)/x**2", (), ("x**2",)),
    "0.5 - 2.5/x": ("0.5 - 2.5/x", "2.5/x**2", ("0.5 - 2.5/x",), ("2.5/x**2",)),
    "2.5/x": ("2.5/x", "-2.5/x**2", ("2.5/x",), ("-2.5/x**2",)),
    # Greek names and term order
    "mu/(2*(nu+1)) - (nu+1)/x": ("mu/(2*nu + 2) - (nu + 1)/x", "(nu + 1)/x**2", (),
                                 ("x**2",)),
    "lamda/x + alpha": ("alpha + lamda/x", "-lamda/x**2", (), ("x**2",)),
    "a*x^2 + 2/(l+1) - (l+1)/x": ("a*x**2 + 2/(l + 1) - (l + 1)/x", "2*a*x + (l + 1)/x**2",
                                  ("x**2",), ("x**2",)),
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


def test_parser_namespace_file_is_what_sympy_binds():
    # a sympy that binds other names fails here, until the file is regenerated
    assert Path(_parser_namespace.__file__).read_text() == render_parser_namespace()
    assert {"gamma", "Abs", "sqrt", "re", "print", "max"} <= _parser_namespace.NAMES
    assert not {"foo", "int", "type", "x"} & _parser_namespace.NAMES


def test_readme_gives_the_namespace_regenerate_command():
    assert f"```\n{REGENERATE_NAMESPACE}\n```" in (ROOT / "README.md").read_text()


@pytest.mark.parametrize("text", REFUSED)
def test_refused_with_the_message_sympy_gives(text):
    with pytest.raises(ExpressionError) as caught:
        closed_grammar_codes(text)
    assert str(caught.value) == _outcome(_live, text)


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


# Radial terms: a literal or parameter over x or over a one-parameter
# affine group, and a group over x.  A group is (p ± d) or (d ± p), with or
# without a scale literal; a few names recur so that a numerator and a
# group share their parameter.
RADIAL_NAMES = st.sampled_from(["l", "q", "nu"]) | st.sampled_from(NAMES)
SPACES = st.sampled_from(["", " "])
AFFINE = st.builds(
    lambda p, op, d, flip, space: f"({d}{space}{op}{space}{p})" if flip
    else f"({p}{space}{op}{space}{d})",
    RADIAL_NAMES, st.sampled_from(["+", "-"]), LITERALS, st.booleans(), SPACES)
GROUPS = AFFINE | st.builds(lambda k, group: f"{k}*{group}", LITERALS, AFFINE)
OVER_GROUP = st.builds(lambda n, g: f"{n}/{g}" if g.startswith("(") else f"{n}/({g})",
                       LITERALS | RADIAL_NAMES, GROUPS)
OVER_X = st.builds(lambda n: f"{n}/x", LITERALS | RADIAL_NAMES | GROUPS)


@st.composite
def radial_texts(draw) -> str:
    """Up to two polynomial terms, a term over a group or none, and a term
    over x, in any order, with both signs and optional spaces."""
    parts = []
    for spec in draw(st.lists(_specs(POLYNOMIAL), max_size=2)):
        factors = [spec[i] for i in draw(ORDERS) if spec[i]] or [draw(LITERALS)]
        parts.append(draw(TIMES).join(factors))
    if draw(st.booleans()):
        parts.append(draw(OVER_GROUP))
    if draw(st.booleans()) or not parts:
        parts.append(draw(OVER_X))
    parts = draw(st.permutations(parts))
    return ("-" if draw(st.booleans()) else "") + "".join(
        part if i == 0 else draw(PLUS) + part for i, part in enumerate(parts))


def test_accepted_radial_texts_print_as_sympy_prints_them():
    """The same gate on the radial terms; a text sympy rejects is declined."""
    accepted = []

    @settings(max_examples=300)
    @given(radial_texts())
    def sweep(text):
        got = _assert_declined_or_same_as_sympy(text)
        if not isinstance(_outcome(_live, text), str):
            accepted.append(got is not None)

    sweep()
    assert sum(accepted) > len(accepted) / 2


# The two refusals: one call of a function sympy's parser does not bind,
# or one product term over a zero literal, among closed-grammar terms.  The
# names include ones sympy binds, grammar functions, x, parameters and a
# keyword, and the sums include terms sympy collects with or absorbs into
# a term over zero; the printer must decline those.
CALL_NAMES = st.sampled_from(["foo", "f", "g_1", "Foo", "bar2", "_h", "int", "type", "match",
                              "gamma", "Abs", "sqrt", "re", "beta", "N", "sin", "ln", "exp",
                              "tanh", "x", "a", "lambda", "print"])
ZEROS = st.sampled_from(["0", "0.0", "0.00", "0.0000"])
CLOSED_ARGS = st.sampled_from(["x", "1.2*x", "-x", "a*x + 0.3240", "x^2", "exp(-x)", "a",
                               "0", "1.2345*x"])


def _product(draw, extra: list[str]) -> str:
    """A polynomial term's factors and extra ones, in any order."""
    literal, name, power = draw(st.tuples(st.none() | LITERALS, st.none() | st.sampled_from(NAMES),
                                          st.none() | POLYNOMIAL.filter(bool)))
    factors = [f for f in (literal, name, power) if f] + extra
    return draw(TIMES).join(draw(st.permutations(factors))) or draw(LITERALS)


@st.composite
def refusal_texts(draw) -> str:
    """A call term or a term over zero among up to two polynomial terms, an
    exp term or a radial term, in any order, with both signs."""
    if draw(st.booleans()):
        special = _product(draw, [f"{draw(CALL_NAMES)}({draw(CLOSED_ARGS)})"])
    else:
        special = f"{_product(draw, [])}{draw(SPACES)}/{draw(SPACES)}{draw(ZEROS)}"
    parts = [_product(draw, []) for _ in range(draw(UP_TO[2]))] + [special]
    parts += draw(st.sampled_from([[], [], ["exp(-x)"], ["A*exp(0.5*x)"], ["2/(l+1)"],
                                   ["(l+1)/x"], ["2.5/x"]]))
    parts = draw(st.permutations(parts))
    return ("-" if draw(st.booleans()) else "") + "".join(
        part if i == 0 else draw(PLUS) + part for i, part in enumerate(parts))


def test_refusals_equal_sympy_s():
    """On a sweep of calls and zero divisors among closed-grammar terms,
    every text the printer refuses raises sympy's message, every text it
    accepts prints as sympy does, and it refuses most of the texts whose
    only fault is an unknown call or a zero divisor."""
    refused, faults = [], []

    @settings(max_examples=400)
    @given(refusal_texts())
    def sweep(text):
        got = _assert_declined_or_same_as_sympy(text)
        live = _outcome(_live, text)
        if isinstance(live, str) and live.startswith(("functions", repr(text))):
            faults.append(text)
            refused.append(isinstance(got, str))

    sweep()
    assert sum(refused) > len(faults) / 2


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
    cli_cold = _perfbench("cli_cold")
    for seed in range(3):
        for block, _ in zip(cli_cold.blocks(seed), range(48)):
            argv = block[0].argv
            found.update(argv[i + 1] for i, a in enumerate(argv[:-1]) if a == "--w")
        found.update(_search_sweep_texts(seed))
    return found


def _perfbench(name: str):
    """The benchmark's workload module of that name."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def _search_sweep_texts(seed: int, n_blocks: int = 2) -> list[str]:
    """The texts of the search-sweep workload's first blocks."""
    blocks = _perfbench("search_sweep").blocks(seed)
    return [op.text for block, _ in zip(blocks, range(n_blocks)) for op in block]


REPOSITORY_TEXTS = sorted(_repository_texts())


def test_repository_texts_are_found():
    assert {"x", "a*x", "2*tanh(x)", "A - exp(-x)", "x^3"} <= set(REPOSITORY_TEXTS)
    assert len(REPOSITORY_TEXTS) > 100


@pytest.mark.parametrize("text", REPOSITORY_TEXTS)
def test_repository_text_equals_sympy_or_is_declined(text):
    # a text sympy rejects is declined, or refused with sympy's message
    _assert_declined_or_same_as_sympy(text)


def test_repository_refusals_are_decided_without_sympy():
    # the cli-cold workload's foo(...) and .../0 inputs among them
    refused = [text for text in REPOSITORY_TEXTS
               if isinstance(_outcome(closed_grammar_codes, text), str)]
    assert any(re.fullmatch(r"foo\(\d\.\d+\*x\)", text) for text in refused)
    assert any(re.fullmatch(r"\d\.\d+\*x/0", text) for text in refused)


@pytest.mark.parametrize("seed", range(3))
def test_search_sweep_texts_are_accepted(seed):
    # every template of the workload, the radial Coulomb one included, so
    # its operations load no sympy
    texts = _search_sweep_texts(seed, n_blocks=4)
    assert any(text.endswith("- (l+1)/x") for text in texts)
    for text in texts:
        assert _assert_same_as_sympy(text) is not None, text


#: A radial Coulomb --w text, which is not the catalog record's.
COULOMB = ["partner", "--w", "1.5090/(2*(l+1)) - (l+1)/x", "--x-min", "0.001",
           "--x-max", "160", "--points", "201"]


def test_coulomb_cli_bytes_equal_the_sympy_route(monkeypatch, capsys):
    """partner prints the same table at l = 0, and the same error line at
    l = -1, whether the text's code comes from the printer or from sympy."""
    from susyqm import _closed_grammar
    from susyqm.cli import main

    def run() -> list[tuple[int, str, str]]:
        outputs = []
        for value in ("0", "-1"):
            code = main([*COULOMB, "--param", f"l={value}"])
            outputs.append((code, *capsys.readouterr()))
        return outputs

    def refuse(text):
        raise AssertionError(f"{text!r} went to sympy")

    with monkeypatch.context() as patch:
        patch.setattr(susy, "parse_expression", refuse)
        closed = run()
    parsed = []
    monkeypatch.setattr(_closed_grammar, "closed_grammar_codes", lambda text: None)
    monkeypatch.setattr(susy, "parse_expression",
                        lambda text, parse=susy.parse_expression:
                        parsed.append(text) or parse(text))
    assert run() == closed
    assert parsed == [COULOMB[2]] * 2
    assert closed[0][0] == 0 and closed[0][1].startswith("x,v_minus,v_plus,w\n0.001,")
    assert closed[1] == (2, "", "susyqm partner: expression '1.509/(2*l + 2) - (l + 1)/x' "
                                "cannot be evaluated at these parameters (float division "
                                "by zero)\n")


def test_family_of_an_accepted_text_needs_no_parse(monkeypatch):
    def refuse(text):
        raise AssertionError(f"{text!r} went to sympy")

    monkeypatch.setattr(susy, "parse_expression", refuse)
    family = SuperpotentialFamily.from_expression("a*x^3 + c*x - 0.2000")
    grid = make_grid(-4.0, 4.0, 201)
    params = {"a": 0.7, "c": 0.3}
    for got, code in zip((family.w_fn, family.w_prime_fn), _live("a*x^3 + c*x - 0.2000")):
        assert np.array_equal(got(grid.x, params), assemble_on_grid(code)(grid.x, params))
