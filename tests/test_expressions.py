import numpy as np
import pytest
import sympy

from susyqm import (EvaluationError, ExpressionError, compile_on_grid,
                    compile_scalar, differentiate, get_record, list_catalog,
                    make_grid, parse_expression)
from susyqm.expressions import _NUMPY_EXTRAS, parameter_names

#: The coordinate symbol as the grammar builds it: real, named x.
X = sympy.Symbol("x", real=True)


def test_parse_polynomial_and_caret_power():
    expr = parse_expression("x^3 - 2*x")
    assert expr == X**3 - 2 * X
    assert parameter_names(expr) == []


def test_parse_collects_parameters_sorted():
    expr = parse_expression("A*tanh(x) + b*x + omega")
    assert parameter_names(expr) == ["A", "b", "omega"]


@pytest.mark.parametrize("text", ["exp(-x)", "ln(x)", "log(x)", "sin(x)",
                                  "cos(x)", "tanh(x)", "sech(x)"])
def test_whitelisted_functions_parse(text):
    parse_expression(text)


@pytest.mark.parametrize("text", ["sinh(x)", "gamma(x)", "atan(x)", "Abs(x)"])
def test_unknown_functions_rejected(text):
    with pytest.raises(ExpressionError):
        parse_expression(text)


@pytest.mark.parametrize("text", ["x +* 2", "((x)", ""])
def test_malformed_text_rejected(text):
    with pytest.raises(ExpressionError):
        parse_expression(text)


@pytest.mark.parametrize("name", ["N", "O", "Q", "S", "beta", "gamma", "zeta"])
def test_uncalled_sympy_names_are_parameters(name):
    expr = parse_expression(f"{name}*x + {name}")
    assert parameter_names(expr) == [name]
    assert expr == parse_expression("b*x + b").subs(sympy.Symbol("b"), sympy.Symbol(name))


def test_called_sympy_names_and_constants_keep_their_meaning():
    assert parameter_names(parse_expression("E*x + pi")) == []
    with pytest.raises(ExpressionError, match=r"functions \['gamma'\] not in the supported set"):
        parse_expression("gamma(x) + gamma")


def test_symbol_name_that_is_not_an_identifier_rejected():
    with pytest.raises(ExpressionError, match="invalid symbol 'a b'"):
        parse_expression('Symbol("a b")*x')


def test_complex_constants_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("I*x")


@pytest.mark.parametrize("text", ["x/0", "oo*x", "x - oo", "nan", "zoo", "ln(0) + x"])
def test_non_finite_constants_rejected(text):
    with pytest.raises(ExpressionError):
        parse_expression(text)


@pytest.mark.parametrize("text", ["2.5/0.0", "-1.0/0.0", "a - 2.5/0.00"])
def test_a_float_over_a_float_zero_is_an_expression_error(text):
    # sympy's Float division raises ZeroDivisionError while parsing
    with pytest.raises(ExpressionError, match=r"^cannot parse expression .*: division by zero$"):
        parse_expression(text)


def test_differentiate_is_exact():
    expr = parse_expression("A*tanh(x)")
    d = differentiate(expr)
    (a,) = [s for s in expr.free_symbols if s != X]
    assert sympy.simplify(d - a * sympy.sech(X) ** 2) == 0


def test_compile_on_grid_evaluates():
    expr = parse_expression("a*x^2 + b")
    fn = compile_on_grid(expr, ["a", "b"])
    x = np.linspace(-1, 1, 5)
    out = fn(x, {"a": 2.0, "b": 1.0})
    assert np.allclose(out, 2.0 * x**2 + 1.0)


def test_compile_on_grid_broadcasts_constants():
    fn = compile_on_grid(parse_expression("c"), ["c"])
    out = fn(np.zeros(7), {"c": 3.5})
    assert out.shape == (7,)
    assert np.all(out == 3.5)


def test_compile_on_grid_missing_parameter():
    fn = compile_on_grid(parse_expression("a*x"), ["a"])
    with pytest.raises(EvaluationError):
        fn(np.zeros(3), {})


def test_compile_on_grid_flags_singularities():
    fn = compile_on_grid(parse_expression("1/x"), [])
    with pytest.raises(EvaluationError):
        fn(np.linspace(-1.0, 1.0, 21), {})  # hits x = 0
    out = fn(np.linspace(0.5, 1.5, 21), {})
    assert np.all(np.isfinite(out))


def test_compile_on_grid_takes_float_parameters_unchecked():
    fn = compile_on_grid(parse_expression("c*x + a*x^3 + 0.3"), ["a", "c"])
    x = np.linspace(-2.0, 2.0, 41)
    assert fn.params == ("a", "c")
    for a in (0.5, 1.1, 1.7):
        out = fn.unchecked(x)([a, 0.4])  # in params order
        assert np.array_equal(out, fn(x, {"a": a, "c": 0.4}))


def test_compile_on_grid_leaves_unchecked_rows_unchecked():
    fn = compile_on_grid(parse_expression("ln(a + x)"), ["a"])
    x = np.linspace(0.5, 1.0, 6)
    with np.errstate(all="ignore"):  # ln of a nonpositive argument
        assert np.all(np.isfinite(fn.unchecked(x)([1.0])))
        assert not np.all(np.isfinite(fn.unchecked(x)([-0.7])))
    with pytest.raises(EvaluationError):
        fn(x, {"a": -0.7})


@pytest.mark.parametrize("text,value,problem", [
    ("x + 1/(a - 2)", 2.0, "cannot be evaluated at these parameters"),
    ("x*a**400", 10.0, "cannot be evaluated at these parameters"),
    ("x + a**(-1.5)", -2.0, "is complex at these parameters"),
])
def test_unchecked_raises_the_parameter_errors_of_evaluate(text, value, problem):
    # a parameter-only subterm runs in Python floats: the unchecked entry
    # raises evaluate's EvaluationError for it, with the same message
    fn = compile_on_grid(parse_expression(text), ["a"])
    x = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(EvaluationError) as checked:
        fn(x, {"a": value})
    with np.errstate(all="ignore"), pytest.raises(EvaluationError) as unchecked:
        fn.unchecked(x)([value])
    assert str(unchecked.value) == str(checked.value)
    assert problem in str(unchecked.value)


def test_sech_evaluates_numerically():
    fn = compile_on_grid(parse_expression("sech(x)^2"), [])
    x = np.array([0.0, 1.0, -1.0])
    assert np.allclose(fn(x, {}), 1.0 / np.cosh(x) ** 2)


@pytest.mark.parametrize("text,params,reason", [
    ("q/(2*(l+1)) - (l+1)/x", {"q": 2.0, "l": -1.0}, "float division by zero"),
    ("x*a**400", {"a": 10.0}, "Numerical result out of range"),
    ("x + a**(-1.5)", {"a": -2.0}, "complex"),
])
def test_parameter_subterm_failures_are_evaluation_errors(text, params, reason):
    # A parameter-only subterm is computed in Python floats, which raise
    # (or turn complex) where numpy would return inf or nan.
    expr = parse_expression(text)
    fn = compile_on_grid(expr, parameter_names(expr))
    with pytest.raises(EvaluationError, match=reason):
        fn(make_grid(1.0, 2.0, 11).x, params)
    scalar = expr.subs(X, 1)
    with pytest.raises(EvaluationError, match=reason):
        compile_scalar(scalar, parameter_names(scalar))(params)


def test_compile_rejects_parameters_left_out_of_the_list():
    # the assembled function binds no name but its arguments and numpy's
    with pytest.raises(ExpressionError, match=r"uses parameters \['b'\] not among \['a'\]"):
        compile_on_grid(parse_expression("a*x + b"), ["a"])
    with pytest.raises(ExpressionError, match=r"uses parameters \['B'\]"):
        compile_scalar(parse_expression("2*A + B"), ["A"])


@pytest.mark.parametrize("text, name", [("e*x + E", "e"),
                                        ("euler_gamma*x + EulerGamma", "euler_gamma")])
def test_compile_rejects_parameters_named_like_a_printed_constant(text, name):
    # numpy's code prints E as e (EulerGamma as euler_gamma), which the
    # parameter argument of that name would shadow
    expr = parse_expression(text)
    with pytest.raises(ExpressionError, match=rf"parameters \['{name}'\] of "):
        compile_on_grid(expr, parameter_names(expr))
    with pytest.raises(ExpressionError, match=rf"parameters \['{name}'\] of "):
        compile_scalar(expr.subs(X, 1), [name])


def test_compile_scalar():
    r = compile_scalar(parse_expression("2*A + 1"), ["A"])
    assert r({"A": 2.0}) == 5.0
    with pytest.raises(EvaluationError, match=r"missing parameter values for \['A'\]"):
        r({})
    with pytest.raises(EvaluationError, match=r"'exp\(a\)' evaluated non-finite"):
        compile_scalar(parse_expression("exp(a)"), ["a"])({"a": 1000.0})


def test_compile_scalar_rejects_x_dependence():
    with pytest.raises(ExpressionError):
        compile_scalar(parse_expression("2*x"), [])


def test_tuple_is_not_a_scalar_expression():
    with pytest.raises(ExpressionError, match="is not a scalar expression"):
        parse_expression("(1, 2)")


@pytest.mark.parametrize("text,params", [
    ("omega*x", {"omega": 1.3}),
    ("A - exp(-x)", {"A": 2.0}),
    ("A*tanh(x)", {"A": 2.5}),
    ("q/(2*(l+1)) - (l+1)/x", {"q": 2.0, "l": 0.5}),
    ("x^a", {"a": 1.7}),
    ("exp(a)*x", {"a": 0.3}),
    ("ln(a + x)", {"a": 1.5}),
    ("A*sech(x)^2 + pi*x/3 - E + 1/7", {"A": 0.9}),
])
def test_compile_on_grid_equals_string_module_lambdify(text, params):
    """Binding numpy by module object reproduces the "numpy" string form."""
    x = np.linspace(0.25, 8.0, 501)
    expr = parse_expression(text)
    names = parameter_names(expr)
    syms = [X] + [sympy.Symbol(p, real=True) for p in names]
    for e in (expr, differentiate(expr)):
        ref = sympy.lambdify(syms, e, modules=[_NUMPY_EXTRAS, "numpy"])
        want = ref(x, *(params[p] for p in names))
        got = compile_on_grid(e, names)(x, params)
        assert np.array_equal(got, np.broadcast_to(want, x.shape))


@pytest.mark.parametrize("text,params", [
    ("2*omega", {"omega": 1.3}),
    ("2*A + 1", {"A": 2.0}),
    ("q^2/4 * (1/l^2 - 1/(l+1)^2)", {"q": 2.0, "l": 0.7}),
])
def test_compile_scalar_equals_string_module_lambdify(text, params):
    expr = parse_expression(text)
    names = parameter_names(expr)
    ref = sympy.lambdify([sympy.Symbol(p, real=True) for p in names], expr,
                         modules=[_NUMPY_EXTRAS, "numpy"])
    assert compile_scalar(expr, names)(params) == float(ref(*(params[p] for p in names)))


def _plain_lambdify(expr, names):
    syms = [X] + [sympy.Symbol(p, real=True) for p in names]
    return sympy.lambdify(syms, expr, modules=[_NUMPY_EXTRAS, np])


def _bit_identity_cases():
    cases = []
    for name in list_catalog():
        rec = get_record(name)
        if rec.expression is not None:
            cases.append((rec.expression, dict(rec.default_params), rec.domain[:2]))
    return cases + [
        ("a*x^3 + c*x + 0.3", {"a": 1.1, "c": 0.4}, (-6.0, 6.0)),
        ("q/(2*(l+1)) - (l+1)/x", {"q": 2.0, "l": 0.5}, (1e-3, 160.0)),
        ("x^a", {"a": 1.7}, (0.25, 8.0)),
        ("exp(a)*x", {"a": 0.3}, (-10.0, 10.0)),
        ("ln(a + x)", {"a": 1.5}, (0.5, 10.0)),
        ("A*sech(x)^2 + pi*x/3 - E + 1/7", {"A": 0.9}, (-10.0, 10.0)),
    ]


@pytest.mark.parametrize("text,params,domain", _bit_identity_cases())
def test_compile_on_grid_equals_plain_lambdify(text, params, domain):
    """Reading parameter-free subterms from per-grid tables changes no bit,
    with float parameters on grid.x through the checked entry or through
    ``unchecked``, against plain lambdify's."""
    grid = make_grid(domain[0], domain[1], 2001)
    expr = parse_expression(text)
    names = parameter_names(expr)
    values = [float(params[p]) for p in names]
    for e in (expr, differentiate(expr)):
        ref = _plain_lambdify(e, names)
        fn = compile_on_grid(e, names)
        with np.errstate(all="ignore"):
            want = np.broadcast_to(ref(grid.x, *(params[p] for p in names)), grid.x.shape)
        for _ in range(2):  # the second call reads the tables the first one made
            assert np.array_equal(fn(grid.x, params), want)
            with np.errstate(all="ignore"):
                got = fn.unchecked(grid.x)(values)
            assert np.array_equal(np.broadcast_to(got, grid.x.shape), want)


def test_parameter_named_like_the_tables_argument():
    # the tables argument steps aside to "_subterms_"
    grid = make_grid(-1.0, 1.0, 11)
    expr = parse_expression("_subterms*x + exp(-x)")
    assert parameter_names(expr) == ["_subterms"]
    got = compile_on_grid(expr, ["_subterms"])(grid.x, {"_subterms": 2.0})
    assert np.array_equal(got, _plain_lambdify(expr, ["_subterms"])(grid.x, 2.0))


def test_subterm_tables_never_go_stale():
    expr = parse_expression("a*x^3 + tanh(1.1*x)")
    fn = compile_on_grid(expr, ["a"])
    ref = _plain_lambdify(expr, ["a"])
    values = {"a": 0.7}
    grid_a, grid_b = make_grid(-6.0, 6.0, 501), make_grid(-2.0, 3.0, 501)
    for grid in (grid_a, grid_b, grid_a):
        assert np.array_equal(fn(grid.x, values), ref(grid.x, 0.7))
        # a view of the nodes is tabulated afresh and keeps the slot as it is
        assert np.array_equal(fn(grid.x[None, :], values), ref(grid.x[None, :], 0.7))
        assert fn.subterms.slot[0] is grid.x
    assert fn.subterms.computed == 6

    writable = np.linspace(-1.0, 1.0, 101)
    assert np.array_equal(fn(writable, values), ref(writable, 0.7))
    writable *= 3.0
    assert np.array_equal(fn(writable, values), ref(writable, 0.7))

    frozen_view = writable.view()  # read-only, but its memory is not
    frozen_view.setflags(write=False)
    assert np.array_equal(fn(frozen_view, values), ref(frozen_view, 0.7))
    writable += 1.0
    assert np.array_equal(fn(frozen_view, values), ref(frozen_view, 0.7))
    assert fn.subterms.computed == 10

    for k in range(100):
        grid = make_grid(-1.0 - k, 1.0 + k, 51)
        assert np.array_equal(fn(grid.x, values), ref(grid.x, 0.7))
    assert fn.subterms.slot[0] is grid.x


def test_subterm_tables_are_read_only():
    fn = compile_on_grid(parse_expression("x^3 - 2*x"), [])
    x = make_grid(-1.0, 1.0, 11).x
    out = fn(x, {})
    with pytest.raises(ValueError):
        out[0] = 0.0
    assert compile_on_grid(parse_expression("a*x"), ["a"]).subterms is None
