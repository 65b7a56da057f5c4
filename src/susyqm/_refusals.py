"""The two refusals of the closed grammar, decided without sympy.

``refuse(text)`` raises the ExpressionError that ``parse_expression``
raises for text, with the same message, when text is one of these, and
returns for any other text:
- An unknown function: the whole text is one call ``name(arg)``.  arg is a
  closed-grammar text, and name is an ASCII identifier that is not a
  keyword, x, a grammar function, a name used in arg, or a name of sympy's
  parser namespace (``_parser_namespace``, which only this module
  imports).  ``foo(1.2*x)`` gives
  ``functions ['foo'] not in the supported set [...] in 'foo(1.2*x)'``.
- A zero divisor: the whole text is one closed-grammar product term, a
  nonzero literal, an optional parameter and an optional x or x^n, under
  an optional leading sign, over a zero literal.  The message prints the
  product with its literal replaced by zoo, which leads its factors:
  ``1.2*x/0`` gives ``zoo*x``.  A float over a float zero is declined
  (sympy's parse raises ZeroDivisionError).
Every other text is declined and goes to sympy, which raises the same
message for any other unknown call or zero divisor (``a*foo(x) - 3``,
``a*x^3 + 0.3/0``) and folds or cancels what it can (``foo(x)*0``,
``exp(x)/0``).

It also states, once and without sympy, the facts both routes refuse by:
the grammar's function names and the two messages, which
``expressions._grammar`` and ``expressions._validate`` read too.
``closed_grammar_codes`` imports this module only for a text it declines,
and expressions.py only once sympy parses, so a text the printer accepts
loads and compiles nothing of it.  The tests compare each refusal with
live sympy's message.
"""

from __future__ import annotations

import keyword
import re

from ._closed_grammar import _closed_terms, _Decline, _printed, _term
from .errors import ExpressionError

#: The grammar's functions: each name a text may call, with the sympy
#: function it names (log is ln).  parse_expression's function table.
FUNCTIONS = {"cos": "cos", "exp": "exp", "ln": "log", "log": "log", "sech": "sech",
             "sin": "sin", "tanh": "tanh"}

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_CALL = re.compile(rf" *({_NAME}) *\((.*)\) *")
_OVER_ZERO = re.compile(r"(.*?) */ *(0(?:\.0{1,4})?) *")


def unknown_functions_message(names: list[str], text: str) -> str:
    """parse_expression's message for a text that calls functions outside
    the grammar, named as sympy names their classes."""
    return (f"functions {names} not in the supported set "
            f"{sorted(set(FUNCTIONS) - {'log'})} in {text!r}")


def non_finite_message(text: str, printed: str) -> str:
    """parse_expression's message for a text whose expression, printed as
    ``sympy.sstr`` prints it, holds zoo, oo, -oo or nan."""
    return f"{text!r} contains a non-finite constant ({printed})"


def refuse(text: str) -> None:
    """Raise parse_expression's ExpressionError for text if text is one call
    of an unknown function or one product term over zero (see the module
    docstring); return for any other text."""
    for rule in (_unknown_call, _zero_divisor):
        try:
            message = rule(text)
        except _Decline:
            continue
        raise ExpressionError(message)


def _unknown_call(text: str) -> str:
    """The message for a text that is one call of a function sympy's parser
    makes an undefined function of, with a closed-grammar argument."""
    match = _CALL.fullmatch(text)
    if match is None:
        raise _Decline
    name, arg = match.groups()
    _closed_terms(arg)  # balanced, so the call's parentheses are the outer ones
    if (keyword.iskeyword(name) or name in FUNCTIONS or name == "x"
            or name in re.findall(_NAME, arg)):
        raise _Decline
    from ._parser_namespace import NAMES  # here, so a missing file can be regenerated

    if name in NAMES:  # sympy's own function, constant or class
        raise _Decline
    return unknown_functions_message([name], text)


def _zero_divisor(text: str) -> str:
    """The message for a text that is one product of a nonzero literal, an
    optional parameter and an optional x or x^n over a zero literal."""
    match = _OVER_ZERO.fullmatch(text)
    if match is None:
        raise _Decline
    product, zero = match.groups()
    terms = _closed_terms(product)
    if len(terms) != 1:
        raise _Decline
    ((c, p, kind, k),) = terms
    if kind not in ("const", "pow") or kind == "pow" and k < 1:
        raise _Decline
    if kind == "const" and p is None and type(c) is float and "." in zero:
        raise _Decline  # a float over a float zero raises ZeroDivisionError in sympy
    # zoo absorbs the literal and leads the factors of p*x**k
    node, _ = _term(1, p, kind, k)
    factors = node[2] if node[0] == "mul" else [] if node[0] == "num" else [node]
    zoo = ("mul", 1, [("sym", "zoo"), *factors]) if factors else ("sym", "zoo")
    return non_finite_message(text, _printed(zoo))


#: Shell command that rewrites ``_parser_namespace.py`` from the installed sympy.
REGENERATE_NAMESPACE = (
    "PYTHONPATH=src python -c \"from susyqm._refusals import render_parser_namespace "
    "as r; open('src/susyqm/_parser_namespace.py', 'w').write(r())\"")


def render_parser_namespace() -> str:
    """The text of ``_parser_namespace.py``: the names of the global
    namespace that parse_expr builds for parse_expression, as its
    transformations see it (needs sympy)."""
    import textwrap

    from sympy.parsing.sympy_parser import parse_expr

    names: list[str] = []

    def capture(tokens: list, local_dict: dict, global_dict: dict) -> list:
        names.extend(global_dict)
        return tokens

    parse_expr("0", transformations=(capture,))
    body = textwrap.wrap(", ".join(map(repr, sorted(names))), 84,
                         break_long_words=False, break_on_hyphens=False)
    return "\n".join([
        '"""Generated names of sympy\'s expression parser namespace.  Do not edit.',
        "",
        "parse_expression reads a called name that this namespace does not bind",
        "as an unknown function, so the closed grammar refuses such a call without",
        "sympy only when its name is not listed here.  Only that refusal imports",
        "this module.  Regenerate after upgrading sympy, from the root of a source",
        "checkout:",
        "",
        f"    {REGENERATE_NAMESPACE}",
        '"""',
        "",
        "NAMES = frozenset({",
        *(f"    {line}" for line in body),
        "})",
    ]) + "\n"
