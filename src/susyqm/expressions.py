"""Parsing and compilation of superpotential expression strings.

The accepted grammar is deliberately small: +, -, *, /, ^ (or **), the
functions exp, ln, sin, cos, tanh, sech, numeric literals, the coordinate
``x``, and named real parameters.  Everything parsed here has an exact
analytic derivative, which is what lets the shape-invariance residual test
run at its tight tolerance tier.

Parsing and code generation need sympy, except for a closed subset of the
grammar whose code ``_closed_grammar.py`` prints without sympy, byte for
byte as generate_on_grid prints it; that module states the subset's rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from tokenize import NAME, OP, STRING, TokenError
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .errors import EvaluationError, ExpressionError

if TYPE_CHECKING:
    import sympy

_NUMPY_EXTRAS = {"sech": lambda z: 1.0 / np.cosh(z)}

#: Names that sympy's namespace binds to its own objects (functions, a
#: class, the S and Q registries) where a user means a parameter.
_SYMPY_OBJECT_NAMES = frozenset({"N", "O", "Q", "S", "beta", "gamma", "zeta"})


class _Symbols(NamedTuple):
    x: sympy.Symbol
    functions: dict


@cache
def _grammar() -> _Symbols:
    """The coordinate and the function table, built when the first expression
    needs them.

    Importing sympy costs about half a second, which commands that parse no
    expression (``susyqm catalog``, tabulated input) should not pay.
    """
    import sympy

    from ._refusals import FUNCTIONS

    functions = {name: getattr(sympy, function) for name, function in FUNCTIONS.items()}
    return _Symbols(sympy.Symbol("x", real=True), functions)


def parse_expression(text: str) -> sympy.Expr:
    """Parse an expression string into a validated sympy expression.

    A name sympy does not bind becomes a parameter symbol, and so does each
    of N, O, Q, S, beta, gamma and zeta where it is not called; called, it
    stays sympy's function (``gamma(x)`` is outside the grammar).  E and pi
    are the constants, and I is rejected.  Raises ExpressionError when the
    text does not parse or uses functions outside the grammar.
    """
    import sympy
    from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

    grammar = _grammar()
    try:
        expr = parse_expr(text, local_dict={"x": grammar.x, **grammar.functions},
                          transformations=(_uncalled_as_symbols, *standard_transformations,
                                           convert_xor))
    except (SyntaxError, TokenError, TypeError, ValueError, AttributeError,
            sympy.SympifyError) as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc}") from exc
    except ZeroDivisionError as exc:  # a float literal over a float zero, 2.5/0.0
        raise ExpressionError(f"cannot parse expression {text!r}: division by zero") from exc
    _validate(expr, text)
    return expr


def _uncalled_as_symbols(tokens: list, local_dict: dict, global_dict: dict) -> list:
    """A parse_expr transformation: each of _SYMPY_OBJECT_NAMES that is not
    called (or attribute-accessed) becomes ``Symbol('name')``, the tokens
    sympy's auto_symbol writes for a name it does not know."""
    out = []
    for (kind, value), (_, following) in zip(tokens, [*tokens[1:], (None, "")]):
        if kind == NAME and value in _SYMPY_OBJECT_NAMES and following not in ("(", "."):
            out += [(NAME, "Symbol"), (OP, "("), (STRING, repr(value)), (OP, ")")]
        else:
            out.append((kind, value))
    return out


def _validate(expr: sympy.Expr, text: str):
    import sympy

    from ._refusals import non_finite_message, unknown_functions_message

    grammar = _grammar()
    if not isinstance(expr, sympy.Expr):
        raise ExpressionError(f"{text!r} is not a scalar expression")
    allowed = tuple(grammar.functions.values())
    bad = sorted({type(f).__name__ for f in expr.atoms(sympy.Function)
                  if not isinstance(f, allowed)})
    if bad:
        raise ExpressionError(unknown_functions_message(bad, text))
    if expr.atoms(sympy.I):
        raise ExpressionError(f"complex constants are not supported in {text!r}")
    if expr.has(sympy.S.ComplexInfinity, sympy.S.Infinity, sympy.S.NegativeInfinity,
                sympy.S.NaN):
        raise ExpressionError(non_finite_message(text, sympy.sstr(expr)))
    for sym in expr.free_symbols:
        if not sym.name.isidentifier():
            raise ExpressionError(f"invalid symbol {sym.name!r} in {text!r}")


def parameter_names(expr: sympy.Expr) -> list[str]:
    """Free symbols other than x, sorted for deterministic signatures."""
    x = _grammar().x
    return sorted(s.name for s in expr.free_symbols if s != x)


def differentiate(expr: sympy.Expr) -> sympy.Expr:
    import sympy

    return sympy.diff(expr, _grammar().x)


class _SubtermTables:
    """The parameter-free subterms of one compiled expression, on its last grid.

    ``tabulate(x)`` returns one array per subterm.  For a frozen x, a
    read-only ndarray that owns its memory (``Grid1D.x``), the tables of the
    last such x are kept, read-only, in ``slot`` as one ``(x, tables)``
    tuple: x cannot change, the slot holds it, so no other array can take
    its address, and a thread that reads the slot during another's update
    still sees a matching pair.  Any other x, a view included, is
    tabulated on every call.  ``computed`` counts tabulations; a race
    between threads can only repeat one.
    """

    def __init__(self, tabulate: Callable[[np.ndarray], tuple]):
        self._tabulate = tabulate
        self.slot: tuple[np.ndarray, tuple] | None = None
        self.computed = 0

    def __call__(self, x) -> tuple:
        frozen = type(x) is np.ndarray and x.flags.owndata and not x.flags.writeable
        slot = self.slot
        if frozen and slot is not None and slot[0] is x:
            return slot[1]
        self.computed += 1
        tables = self._tabulate(x)
        if frozen:
            for table in tables:
                table.setflags(write=False)
            self.slot = (x, tables)
        return tables


@dataclass(frozen=True)
class NumpyCode:
    """The numpy source of one compiled expression: all that assembly needs.

    ``text`` is the expression as ``sympy.sstr`` prints it, for error
    messages; ``params`` are the parameter names in argument order.
    ``source`` defines ``_fn``, whose arguments are x, the parameters and
    the subterm tables (compile_on_grid) or the parameters alone
    (compile_scalar), and, when the expression has x-only subterms,
    ``_tabulate(x)``, which returns the tables.
    """

    text: str
    params: tuple[str, ...]
    source: str


def _printer_settings() -> dict:
    """The settings lambdify gives its printer for modules=[_NUMPY_EXTRAS, numpy]."""
    return {"fully_qualified_modules": False, "inline": True,
            "allow_unknown_functions": True,
            "user_functions": {k: k for k in _NUMPY_EXTRAS}}


def _function_source(name: str, args: list[str], body: str) -> str:
    """A one-statement function, laid out as lambdify lays it out."""
    return f"def {name}({', '.join(args)}):\n    return {body}\n"


def _numpy_code(expr: sympy.Expr, params: list[str], source: str) -> NumpyCode:
    """The code record of expr, whose parameters must all be in params: the
    assembled function binds no other name (lambdify would bind a sympy
    Symbol, and fail at the first evaluation).  No parameter may be named as
    the printed code names one of expr's constants (numpy's ``e`` for E,
    ``pi``, ``euler_gamma``): as an argument it would shadow the constant."""
    import sympy
    from sympy.printing.numpy import NumPyPrinter

    unknown = sorted(set(parameter_names(expr)) - set(params))
    if unknown:
        raise ExpressionError(f"expression {sympy.sstr(expr)!r} uses parameters "
                              f"{unknown} not among {list(params)}")
    printer = NumPyPrinter(_printer_settings())
    shadowing = sorted(set(params).intersection(
        printer.doprint(c) for c in expr.atoms(sympy.NumberSymbol)))
    if shadowing:
        raise ExpressionError(f"parameters {shadowing} of {sympy.sstr(expr)!r} are named "
                              "like the numpy constants its code uses; rename them")
    return NumpyCode(sympy.sstr(expr), tuple(params), source)


def generate_on_grid(expr: sympy.Expr, params: list[str]) -> NumpyCode:
    """The code generation half of compile_on_grid (needs sympy).

    The source is lambdify's numpy code for expr, except that each
    composite subtree whose only free symbol is x prints as an index into
    the tables argument, and ``_tabulate`` computes those subtrees.
    """
    import sympy
    from sympy.printing.numpy import NumPyPrinter

    x_sym = _grammar().x
    tables_arg = "_subterms"
    while tables_arg in params:
        tables_arg += "_"
    codes: dict[str, int] = {}

    class SubtermPrinter(NumPyPrinter):
        """lambdify's numpy printer, except that a composite x-only subtree
        prints as an index into the tables argument.  Each node is still
        printed where and how its parent prints it, so operand order and
        divisions stay as they are; a term's leading minus moves into its
        table, which IEEE negation keeps exact."""

        _inside = False

        def _print(self, e, **kwargs):
            if (self._inside or not isinstance(e, sympy.Basic) or e.is_Atom
                    or e.free_symbols != {x_sym}):
                return super()._print(e, **kwargs)
            self._inside = True
            try:
                code = super()._print(e, **kwargs)
            finally:
                self._inside = False
            return f"{tables_arg}[{codes.setdefault(code, len(codes))}]"

    body = SubtermPrinter(_printer_settings()).doprint(expr)
    source = _function_source("_fn", ["x", *params, tables_arg], body)
    if codes:
        source += _function_source("_tabulate", ["x"], f"({', '.join(codes)},)")
    return _numpy_code(expr, params, source)


def generate_scalar(expr: sympy.Expr, params: list[str]) -> NumpyCode:
    """The code generation half of compile_scalar (needs sympy)."""
    import sympy
    from sympy.printing.numpy import NumPyPrinter

    if _grammar().x in expr.free_symbols:
        raise ExpressionError(f"expression {sympy.sstr(expr)!r} must not depend on x")
    body = NumPyPrinter(_printer_settings()).doprint(expr)
    return _numpy_code(expr, params, _function_source("_fn", list(params), body))


@cache
def _namespace() -> dict:
    """lambdify's namespace for modules=[_NUMPY_EXTRAS, numpy]."""
    return {**vars(np), **_NUMPY_EXTRAS}


def _functions(code: NumpyCode) -> dict:
    scope: dict = {}
    exec(compile(code.source, "<susyqm-compiled>", "exec"), _namespace(), scope)
    return scope


def _evaluated(text: str, call: Callable, *args):
    """call(*args), with the failures of a parameter-only subterm computed in
    Python floats (``1/(a - 2)`` at a = 2, ``a**400``, ``a**(-1.5)`` at
    a < 0, which comes out complex) or of a parameter's conversion to float
    (an int of 400 digits) raised as EvaluationError.  The caller holds
    ``np.errstate``."""
    try:
        out = call(*args)
    except (ZeroDivisionError, OverflowError) as exc:
        problem = f"cannot be evaluated at these parameters ({exc.args[-1]})"
    else:
        if not np.iscomplexobj(out):
            return out
        problem = "is complex at these parameters"
    raise EvaluationError(f"expression {text!r} {problem}")


def assemble_on_grid(code: NumpyCode) -> Callable[[np.ndarray, dict], np.ndarray]:
    """The sympy-free half of compile_on_grid: the callable built from code."""
    scope = _functions(code)
    fn, params, text = scope["_fn"], code.params, code.text
    subterms = _SubtermTables(scope["_tabulate"]) if "_tabulate" in scope else None

    def evaluate(x: np.ndarray, values: dict) -> np.ndarray:
        missing = [p for p in params if p not in values]
        if missing:
            raise EvaluationError(f"missing parameter values for {missing}")
        with np.errstate(all="ignore"):
            out = _evaluated(text, lambda: fn(x, *[float(values[p]) for p in params],
                                              subterms(x) if subterms else ()))
        out = np.asarray(out, dtype=float)
        if out.shape != np.shape(x):
            out = np.array(np.broadcast_to(out, np.shape(x)))
        if not np.all(np.isfinite(out)):
            n_bad = int(np.count_nonzero(~np.isfinite(out)))
            raise EvaluationError(
                f"expression {text!r} is non-finite at {n_bad} grid node(s); "
                "check for singularities inside the domain")
        return out

    def unchecked(x: np.ndarray) -> Callable[[list[float]], np.ndarray | float]:
        # evaluate's code on x and its parameter errors, as a function of
        # float values in ``params`` order, for a caller that holds
        # np.errstate: x's tables are looked up once, not per call, and a
        # result is neither converted, broadcast nor checked for finiteness
        tables = subterms(x) if subterms else ()
        return lambda values: _evaluated(text, fn, x, *values, tables)

    evaluate.params = params
    evaluate.subterms = subterms
    evaluate.unchecked = unchecked
    return evaluate


def assemble_scalar(code: NumpyCode) -> Callable[[dict], float]:
    """The sympy-free half of compile_scalar: the callable built from code."""
    fn, params, text = _functions(code)["_fn"], code.params, code.text

    def evaluate(values: dict) -> float:
        missing = [p for p in params if p not in values]
        if missing:
            raise EvaluationError(f"missing parameter values for {missing}")
        with np.errstate(all="ignore"):
            out = float(_evaluated(text, lambda: fn(*[float(values[p]) for p in params])))
        if not np.isfinite(out):
            raise EvaluationError(f"expression {text!r} evaluated non-finite")
        return out

    return evaluate


def compile_on_grid(expr: sympy.Expr,
                    params: list[str]) -> Callable[[np.ndarray, dict], np.ndarray]:
    """Compile expr(x, params) into a numpy-vectorized callable.

    The returned function takes the grid array and a dict of float
    parameter values and returns a float array of the shape of x; constant
    expressions are broadcast.  A non-finite result raises EvaluationError
    (singularity or overflow inside the evaluation window).

    Its ``unchecked`` attribute takes the node array and returns the same
    compiled code on it as a function of a list of float parameter values,
    in the order of the ``params`` attribute, for a caller that has already
    checked the parameters and holds ``np.errstate``
    (``SuperpotentialFamily._w_rows``, which tabulates every a₁ a
    transform search scores, is its only caller).  That function raises the
    same EvaluationError for a parameter-only subterm that fails in Python
    floats or comes out complex, and leaves the result as the code returns
    it, a scalar for a constant expression, with non-finite values for the
    caller to reject; a finite result equals the checked evaluation at
    those values bit for bit.

    Every composite subterm whose only free symbol is x (``x**3``,
    ``exp(-x)``, ``sech(x)**2``) is tabulated once per grid and reused by
    later calls until another grid comes, through either entry (every
    caller evaluates one family on one grid at a time); the function's
    ``subterms`` attribute holds those tables (None when there are none).
    Tables are kept only for a read-only x that owns its memory
    (``Grid1D.x``, which SuperpotentialFamily passes to both entries); any
    other x, a view of ``Grid1D.x`` included, is tabulated on every call.

    Compilation is two steps.  generate_on_grid prints the numpy source
    with sympy: lambdify's code, with each such subterm read from its table
    in the same place, so every result equals plain lambdify's bit for bit.
    assemble_on_grid, which needs no sympy, executes that source in
    lambdify's namespace and wraps it in the checks above.  The code of a
    closed-grammar text, every catalog record's w among them, is printed
    without sympy (``_closed_grammar``) and goes through the same assembly
    step, as does each record's R, generated ahead of time
    (``_compiled_catalog``).
    """
    return assemble_on_grid(generate_on_grid(expr, params))


def compile_scalar(expr: sympy.Expr, params: list[str]) -> Callable[[dict], float]:
    """Compile a parameter-only expression (no x) into params -> float,
    in the same two steps as compile_on_grid."""
    return assemble_scalar(generate_scalar(expr, params))
