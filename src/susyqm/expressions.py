"""Parsing and compilation of superpotential expression strings.

The accepted grammar is deliberately small: +, -, *, /, ^ (or **), the
functions exp, ln, sin, cos, tanh, sech, numeric literals, the coordinate
``x``, and named real parameters.  Everything parsed here has an exact
analytic derivative, which is what lets the shape-invariance residual test
run at its tight tolerance tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from tokenize import TokenError
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from .errors import EvaluationError, ExpressionError

if TYPE_CHECKING:
    import sympy

_NUMPY_EXTRAS = {"sech": lambda z: 1.0 / np.cosh(z)}


@dataclass(frozen=True)
class _Grammar:
    x: sympy.Symbol
    functions: dict
    function_types: tuple
    transformations: tuple
    non_finite: tuple


@cache
def _grammar() -> _Grammar:
    """The grammar's sympy objects, built when the first expression needs them.

    Importing sympy costs about half a second, which commands that parse no
    expression (``susyqm catalog``, tabulated input) should not pay.
    """
    import sympy
    from sympy.parsing.sympy_parser import convert_xor, standard_transformations

    functions = {
        "exp": sympy.exp,
        "ln": sympy.log,
        "log": sympy.log,
        "sin": sympy.sin,
        "cos": sympy.cos,
        "tanh": sympy.tanh,
        "sech": sympy.sech,
    }
    return _Grammar(
        x=sympy.Symbol("x", real=True),
        functions=functions,
        function_types=tuple(set(functions.values())),
        transformations=standard_transformations + (convert_xor,),
        non_finite=(sympy.S.ComplexInfinity, sympy.S.Infinity,
                    sympy.S.NegativeInfinity, sympy.S.NaN),
    )


def __getattr__(name: str):
    """``X`` (the coordinate symbol) and ``ALLOWED_FUNCTIONS`` (parser name ->
    sympy function) are built with the grammar on first access."""
    if name == "X":
        return _grammar().x
    if name == "ALLOWED_FUNCTIONS":
        return _grammar().functions
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def parse_expression(text: str, extra_symbols: Iterable[str] = ()) -> sympy.Expr:
    """Parse an expression string into a validated sympy expression.

    Unknown names become real parameter symbols.  Raises ExpressionError
    when the text does not parse or uses functions outside the grammar.
    """
    import sympy
    from sympy.parsing.sympy_parser import parse_expr

    grammar = _grammar()
    local = {"x": grammar.x}
    local.update(grammar.functions)
    for name in extra_symbols:
        local[name] = sympy.Symbol(name, real=True)
    try:
        expr = parse_expr(text, local_dict=local, transformations=grammar.transformations)
    except (SyntaxError, TokenError, TypeError, ValueError, AttributeError,
            sympy.SympifyError) as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc}") from exc
    _validate(expr, text)
    return expr


def _validate(expr: sympy.Expr, text: str):
    import sympy

    grammar = _grammar()
    if not isinstance(expr, sympy.Expr):
        raise ExpressionError(f"{text!r} is not a scalar expression")
    bad = sorted({type(f).__name__ for f in expr.atoms(sympy.Function)
                  if not isinstance(f, grammar.function_types)})
    if bad:
        raise ExpressionError(
            f"functions {bad} not in the supported set "
            f"{sorted(set(grammar.functions) - {'log'})} in {text!r}")
    if expr.atoms(sympy.I):
        raise ExpressionError(f"complex constants are not supported in {text!r}")
    if expr.has(*grammar.non_finite):
        raise ExpressionError(f"{text!r} contains a non-finite constant ({sympy.sstr(expr)})")
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


def _broadcasts_exactly(expr: sympy.Expr, parent: sympy.Expr | None = None) -> bool:
    """Whether array-valued parameters reproduce float-parameter results bit for bit.

    With float parameters, a subterm free of x is computed in Python floats
    (``a**2`` calls C pow) or on numpy scalars, where a parameter column
    goes through numpy's array kernels (``**2`` becomes a square, exp and
    tanh take SIMD paths).  Those can differ in the last ulp, so any x-free
    power or function of a parameter, and any parameter-valued exponent,
    disqualifies the expression.  A reciprocal factor of a product prints
    as a division, which is exact either way.
    """
    import sympy

    x = _grammar().x
    if expr.free_symbols - {x}:
        if isinstance(expr, sympy.Pow):
            base, exponent = expr.as_base_exp()
            if exponent.free_symbols:
                return False
            if x not in base.free_symbols and not (
                    exponent == -1 and isinstance(parent, sympy.Mul)):
                return False
        elif isinstance(expr, sympy.Function) and x not in expr.free_symbols:
            return False
    return all(_broadcasts_exactly(arg, expr) for arg in expr.args)


def compile_on_grid(expr: sympy.Expr,
                    params: list[str]) -> Callable[[np.ndarray, dict], np.ndarray]:
    """Compile expr(x, params) into a numpy-vectorized callable.

    The returned function takes the grid array and a parameter dict and
    returns a float array of the broadcast shape of x and the parameter
    values; constant expressions are broadcast.  With float parameters a
    non-finite result raises EvaluationError (singularity or overflow
    inside the evaluation window).

    Parameters may also be arrays, e.g. a column of values against
    ``x[None, :]``, which tabulates one row per parameter value in a single
    call.  Such a stack comes back unchecked, so the caller can reject
    non-finite rows one by one.  The function's ``broadcasts`` attribute
    tells whether each row then equals, bit for bit, the float-parameter
    evaluation at that row's values (see _broadcasts_exactly).
    """
    import sympy

    syms = [_grammar().x] + [sympy.Symbol(p, real=True) for p in params]
    fn = sympy.lambdify(syms, expr, modules=[_NUMPY_EXTRAS, np])

    def evaluate(x: np.ndarray, values: dict) -> np.ndarray:
        missing = [p for p in params if p not in values]
        if missing:
            raise EvaluationError(f"missing parameter values for {missing}")
        stacked = any(np.ndim(values[p]) for p in params)
        args = [np.asarray(values[p], dtype=float) if np.ndim(values[p])
                else float(values[p]) for p in params]
        with np.errstate(all="ignore"):
            out = fn(x, *args)
        out = np.asarray(out, dtype=float)
        shape = np.broadcast_shapes(np.shape(x), *(np.shape(a) for a in args))
        if out.shape != shape:
            out = np.array(np.broadcast_to(out, shape))
        if not stacked and not np.all(np.isfinite(out)):
            n_bad = int(np.count_nonzero(~np.isfinite(out)))
            raise EvaluationError(
                f"expression {sympy.sstr(expr)!r} is non-finite at {n_bad} grid node(s); "
                "check for singularities inside the domain")
        return out

    evaluate.broadcasts = _broadcasts_exactly(expr)
    return evaluate


def compile_scalar(expr: sympy.Expr, params: list[str]) -> Callable[[dict], float]:
    """Compile a parameter-only expression (no x) into params -> float."""
    import sympy

    if _grammar().x in expr.free_symbols:
        raise ExpressionError(f"expression {sympy.sstr(expr)!r} must not depend on x")
    syms = [sympy.Symbol(p, real=True) for p in params]
    fn = sympy.lambdify(syms, expr, modules=[_NUMPY_EXTRAS, np])

    def evaluate(values: dict) -> float:
        missing = [p for p in params if p not in values]
        if missing:
            raise EvaluationError(f"missing parameter values for {missing}")
        out = float(fn(*[float(values[p]) for p in params]))
        if not np.isfinite(out):
            raise EvaluationError(f"expression {sympy.sstr(expr)!r} evaluated non-finite")
        return out

    return evaluate
