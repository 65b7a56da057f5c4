"""The two refusals of the closed grammar, decided without sympy.

``refuse(text)`` raises the ExpressionError that ``parse_expression``
raises for text, with the same message, when text is one of these, and
returns for any other text:
- An unknown function: the text holds one call ``name(arg)`` of an ASCII
  name that is not a keyword, x, a grammar function, a name the text uses
  elsewhere, or a name of sympy's parser namespace (``_parser_namespace``,
  which only this module imports).  arg is a closed-grammar text, the
  call is a factor of a term that is a closed-grammar term without it (so
  not zero), and the other terms are a closed-grammar text.  ``foo(1.2*x)`` gives
  ``functions ['foo'] not in the supported set [...] in 'foo(1.2*x)'``.
- A zero divisor: one term is the product of a nonzero literal, an
  optional parameter and an optional x or x^n, over a zero literal, and
  the text without that ``/0`` is in the closed grammar.  The message
  prints the sum with that term's literal replaced by zoo, which leads its
  factors: ``1.2*x/0`` gives ``zoo*x`` and ``a*x^3 + 0.3/0`` gives
  ``a*x**3 + zoo``.  A bare literal over zero is declined beside a term
  free of parameters (zoo absorbs a finite real term), and a float over a
  float zero is declined (sympy's parse raises ZeroDivisionError).
Anything sympy folds or cancels (``foo(x)*0``, ``foo(x) - foo(x)``,
``exp(x)/0``, ``x/0 - x/0``, ``0.3 + 1/0``) is declined, and goes to sympy.

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

from ._closed_grammar import _LITERAL, _TOKEN, _closed_terms, _Decline, _printed, _sum, _term
from .errors import ExpressionError

#: The grammar's functions: each name a text may call, with the sympy
#: function it names (log is ln).  parse_expression's function table.
FUNCTIONS = {"cos": "cos", "exp": "exp", "ln": "log", "log": "log", "sech": "sech",
             "sin": "sin", "tanh": "tanh"}


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
    """Raise parse_expression's ExpressionError for text if text calls one
    unknown function or divides one product term by zero (see the module
    docstring); return for any other text."""
    for rule in (_unknown_call, _zero_divisor):
        try:
            message = rule(text, _spans(text))
        except _Decline:
            continue
        raise ExpressionError(message)


def _spans(text: str) -> list[tuple[int, int, str]]:
    """(start, end, token) of each token of text, its spaces in its span."""
    spans, pos = [], 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise _Decline
        spans.append((pos, match.end(), next(filter(None, match.groups()))))
        pos = match.end()
    return spans


def _term_ranges(spans: list) -> list[tuple[int, int]]:
    """The [lo, hi) token ranges of the terms: the runs between the signs
    outside parentheses; a leading sign stays in the first term."""
    ranges, depth, lo = [], 0, 0
    for i, (_, _, tok) in enumerate(spans):
        depth += (tok == "(") - (tok == ")")
        if depth == 0 and i > 0 and tok in ("+", "-"):
            ranges.append((lo, i))
            lo = i + 1
    return [*ranges, (lo, len(spans))]


def _unknown_call(text: str, spans: list) -> str:
    """The message for a text that calls one function sympy's parser makes
    an undefined function of, as a factor of a nonzero term, with a
    closed-grammar argument and closed-grammar terms beside it."""
    names = [i for i, (_, _, tok) in enumerate(spans) if tok.isidentifier()]
    calls = [i for i in names if spans[i][2] not in ("exp", "tanh")
             and i + 1 < len(spans) and spans[i + 1][2] == "("]
    if len(calls) != 1:
        raise _Decline
    (at,) = calls
    name = spans[at][2]
    if (not name.isascii() or keyword.iskeyword(name) or name in FUNCTIONS or name == "x"
            or name in {spans[i][2] for i in names if i != at}):
        raise _Decline
    from ._parser_namespace import NAMES  # here, so a missing file can be regenerated

    if name in NAMES:  # sympy's own function, constant or class
        raise _Decline
    depth = 0
    for close in range(at + 1, len(spans)):
        depth += (spans[close][2] == "(") - (spans[close][2] == ")")
        if depth == 0:
            break
    else:
        raise _Decline
    _closed_terms(text[spans[at + 1][1]:spans[close][0]])  # the argument
    ranges = _term_ranges(spans)
    n, (lo, hi) = next((n, r) for n, r in enumerate(ranges) if r[0] <= at < r[1])
    if close >= hi:
        raise _Decline
    # the term without the call, which must not be zero
    start, end = spans[lo][0], spans[hi - 1][1]
    first = at == lo or (at, lo, spans[0][2]) == (1, 0, "-")
    if at > lo and spans[at - 1][2] == "*":
        rest = text[start:spans[at - 1][0]] + text[spans[close][1]:end]
    elif first and close + 1 < hi and spans[close + 1][2] == "*":
        rest = text[start:spans[at][0]] + text[spans[close + 1][1]:end]
    elif first and close + 1 == hi:
        rest = text[start:spans[at][0]] + "1"
    else:
        raise _Decline
    _closed_terms(rest)
    # the terms beside it, without the sign between them and it
    if len(ranges) > 1:
        if n == 0:
            sign = spans[hi]
            others = text[sign[1]:] if sign[2] == "+" else text[sign[0]:]
        else:
            others = text[:spans[lo - 1][0]] + text[end:]
        _closed_terms(others)
    return unknown_functions_message([name], text)


def _zero_divisor(text: str, spans: list) -> str:
    """The message for a text one of whose terms is a product of a nonzero
    literal, an optional parameter and an optional x or x^n over a zero
    literal, beside closed-grammar terms that sympy neither collects with it
    nor absorbs into it."""
    over = [(lo, hi) for lo, hi in _term_ranges(spans) if hi - lo > 2
            and spans[hi - 2][2] == "/" and _LITERAL.fullmatch(spans[hi - 1][2])
            and float(spans[hi - 1][2]) == 0]
    if len(over) != 1:
        raise _Decline
    ((lo, hi),) = over
    slash, zero = spans[hi - 2], spans[hi - 1]
    terms = _closed_terms(text[:slash[0]] + text[zero[1]:])
    alone = _closed_terms(text[spans[lo][0]:slash[0]])
    if len(alone) != 1:
        raise _Decline
    c, p, kind, k = alone[0]
    if kind not in ("const", "pow") or kind == "pow" and k < 1:
        raise _Decline
    if kind == "const" and p is None:
        if type(c) is float and "." in zero[2]:
            raise _Decline  # a float over a float zero raises ZeroDivisionError in sympy
        # a term free of parameters is finite and real, and zoo absorbs it
        beside = [t for t in terms if t[1:] != (p, kind, k)]
        if any(q is None and other != "over" for _, q, other, _ in beside):
            raise _Decline
    nodes = [_zoo_term(p, kind, k) if t[1:] == (p, kind, k) else _term(*t) for t in terms]
    return non_finite_message(text, _printed(_sum(nodes)))


def _zoo_term(p: str | None, kind: str, k) -> tuple[tuple, dict]:
    """The term p*x**k times zoo, which absorbs its literal, as sympy orders
    and prints it: zoo leads its factors."""
    node, monom = _term(1, p, kind, k)
    factors = node[2] if node[0] == "mul" else [] if node[0] == "num" else [node]
    return (("mul", 1, [("sym", "zoo"), *factors]) if factors else ("sym", "zoo")), monom


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
