"""w and w′ of a closed grammar, printed as sympy prints them, without sympy.

``closed_grammar_codes(text)`` returns the two ``NumpyCode`` records that
``generate_on_grid`` makes for w = text and for its derivative, equal in
every field, or None when text is outside the closed grammar below or
would print in a form this printer does not reproduce.  None is never an
error: the caller then compiles the text with sympy, so every error
message, and every text outside the grammar, is what it was.

The grammar: a sum of terms, each the product of an optional literal, an
optional parameter and an optional x-part, in any factor order, with
spaces around tokens allowed.
- A literal is an integer or a decimal, of at most four integer digits and
  four places.  A zero literal alone drops out of the sum, as in sympy; a
  zero product is declined (sympy drops its parameters with it).
- A parameter is a single ASCII letter other than x, E, I, N, O, Q and S,
  or one of a few Greek letter names: names that sympy's parser reads as
  plain symbols.
- An x-part is ``x``, ``x^n`` or ``x**n`` with n from 2 to 9,
  ``exp(k*x)``, or ``tanh(k*x)`` with k > 0; k is ``[-][literal*]``.
- At most one term is a function of x, a tanh term stands alone, and no
  two terms share their parameter and x-part (sympy would collect them).

The printer copies sympy 1.14 for this grammar only: the term order of
``Add.as_ordered_terms``, the factor order of ``Mul.as_ordered_factors``,
mpmath's 15-digit float printing (in full when the float is the whole
expression), and generate_on_grid's subterm tables.  The tests compare it
with live sympy on a sweep of the grammar and on every ``--w`` text in
the repository, so a sympy that prints otherwise fails them.  This module
is imported only for a text that is not a catalog record's.
"""

from __future__ import annotations

import re

from .expressions import NumpyCode, _function_source

#: Parameter names that sympy's parser reads as plain symbols.  Declined: E
#: and pi (sympy's constants), I (rejected), and N, O, Q, S, beta, gamma and
#: zeta, which sympy binds to its own objects and parse_expression rebinds
#: to plain symbols only where they are not called.
_PLAIN_NAMES = frozenset("abcdefghijklmnopqrstuvwyzABCDFGHJKLMPRTUVWXYZ") | {
    "alpha", "delta", "epsilon", "eta", "kappa", "lamda", "mu", "nu", "omega",
    "phi", "psi", "rho", "sigma", "tau", "theta"}
_TOKEN = re.compile(r" *(?:([0-9][0-9.]*)|([A-Za-z_]\w*)|(\*\*|[-+*^()])) *")
_LITERAL = re.compile(r"(?:0|[1-9][0-9]{0,3})(?:\.[0-9]{1,4})?")
#: The generator of the one exp or tanh factor, which sympy orders after
#: every symbol, and the sort keys of a product's factors (sympy's class keys).
_FN = (1, "")
_CLASS_KEY = {"exp": (4, 10), "tanh": (4, 32), "add": (3, 1)}


class _Decline(Exception):
    """The text is outside the closed grammar, or prints in a form this
    printer does not reproduce."""


def _closed_terms(text: str) -> list[tuple]:
    """The terms ``(c, p, kind, k)`` of text, each the product of the literal
    c, the parameter p (or None) and an x-part: ``("const", None)``,
    ``("pow", n)`` for x**n, or ``("exp" | "tanh", k)`` for a function of k*x."""
    tokens, pos = [], 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise _Decline
        number, name, op = match.groups()
        if number is not None:
            if not _LITERAL.fullmatch(number):
                raise _Decline
            tokens.append(float(number) if "." in number else int(number))
        else:
            tokens.append(name or op)
        pos = match.end()
    tokens += [None] * 4  # lookahead past the end reads None

    def factor(i: int) -> tuple[object, int]:
        tok = tokens[i]
        if tok == "x":
            if tokens[i + 1] not in ("^", "**"):
                return ("pow", 1), i + 1
            n = tokens[i + 2]
            if type(n) is not int or not 2 <= n <= 9:
                raise _Decline
            return ("pow", n), i + 3
        if tok in ("exp", "tanh") and tokens[i + 1] == "(":
            i, sign, k = i + 2, 1, 1
            if tokens[i] == "-":
                i, sign = i + 1, -1
            if isinstance(tokens[i], (int, float)) and tokens[i + 1] == "*":
                i, k = i + 2, tokens[i]
            if tokens[i] != "x" or tokens[i + 1] != ")":
                raise _Decline
            return (tok, sign * k), i + 2
        return tok, i + 1

    terms, sign, i = [], 1, 0
    if tokens[0] == "-":
        sign, i = -1, 1
    while True:
        c, p, xpart = None, None, None
        while True:
            item, i = factor(i)
            if isinstance(item, tuple) and xpart is None:
                xpart = item
            elif isinstance(item, (int, float)) and c is None:
                c = item
            elif item in _PLAIN_NAMES and p is None:
                p = item
            else:
                raise _Decline
            if tokens[i] != "*":
                break
            i += 1
        c = sign * (1 if c is None else c)
        kind, k = xpart or ("const", None)
        if c == 0 and (p or xpart):
            raise _Decline  # sympy drops the whole product, parameters included
        if c != 0:  # a zero literal alone vanishes from the sum
            terms.append((c, p, kind, k))
        if tokens[i] is None:
            break
        if tokens[i] not in ("+", "-"):
            raise _Decline
        sign, i = (1 if tokens[i] == "+" else -1), i + 1
    # sympy collects terms of one parameter and x-part, and tanh(-k*x) is -tanh(k*x)
    fns = [(kind, k) for _, _, kind, k in terms if kind in ("exp", "tanh")]
    if (not terms or len({(p, kind, k) for _, p, kind, k in terms}) < len(terms)
            or len(fns) > 1
            or any(k == 0 or kind == "tanh" and (k < 0 or len(terms) > 1) for kind, k in fns)):
        raise _Decline
    return terms


def _float_text(v: float, top: bool) -> str:
    """sympy's print of a 53-bit Float: mpmath's to_str at 15 digits (rounded
    half up from 18 truncated ones), trailing zeros stripped unless the
    float is the whole expression; the exponent form is declined."""
    n, d = abs(v).as_integer_ratio()
    lead = len(str(n)) - len(str(d))  # the decimal exponent of the first digit, or one more
    if n * 10**max(-lead, 0) < d * 10**max(lead, 0):
        lead -= 1
    if v == 0 or lead > 15:
        raise _Decline
    digits = str(n * 10**(17 - lead) // d)
    if digits[15] in "56789":
        digits = str(int(digits[:15]) + 1)
        if len(digits) > 15:
            digits, lead = digits[:15], lead + 1
    if not -5 < lead < 15:
        raise _Decline
    if lead < 0:
        out = "0." + "0" * (-lead - 1) + digits[:15]
    else:
        out = digits[:lead + 1] + "." + digits[lead + 1:15]
    if not top:
        out = out.rstrip("0")
        out += "0" if out.endswith(".") else ""
    return "-" * (v < 0) + out


def _free(node: tuple) -> frozenset:
    tag = node[0]
    if tag == "num":
        return frozenset()
    if tag in ("sym", "fn"):
        return frozenset({node[1] if tag == "sym" else "x"})
    if tag == "pow":
        return _free(node[1])
    return frozenset().union(*map(_free, node[-1]))


def _printed(node: tuple, tables: dict | None = None) -> str:
    """sympy's print of node: ``("num", v)``, ``("sym", name)``, ``("pow",
    base, n)``, ``("fn", name, k)`` for a function of k*x, ``("mul", c,
    factors)`` or ``("add", terms)``, with factors and terms in sympy's
    order.  With tables, each composite x-only subtree prints as an index
    into ``_subterms`` and tables maps its code to that index, as
    generate_on_grid prints it."""
    def show(node: tuple, top: bool = False) -> str:
        tag = node[0]
        if tables is not None and tag not in ("num", "sym") and _free(node) == {"x"}:
            return f"_subterms[{tables.setdefault(_printed(node), len(tables))}]"
        if tag == "num":
            return str(node[1]) if type(node[1]) is int else _float_text(node[1], top)
        if tag == "sym":
            return node[1]
        if tag == "pow":
            return f"{show(node[1])}**{node[2]}"
        if tag == "fn":
            return f"{node[1]}({show(('mul', node[2], [('sym', 'x')]))})"
        if tag == "mul":
            c = node[1]
            parts = [] if abs(c) == 1 and type(c) is int else [show(("num", abs(c)))]
            parts += [f"({show(f)})" if f[0] == "add" else show(f) for f in node[2]]
            return "-" * (c < 0) + "*".join(parts)
        pieces = []
        for term in node[1]:
            code = show(term)
            pieces += ["-", code[1:]] if code.startswith("-") else ["+", code]
        return "-" * (pieces[0] == "-") + " ".join(pieces[1:])

    return show(node, top=True)


def _product(c, factors: list[tuple], monom: dict) -> tuple[tuple, dict]:
    """The term c times factors, each a (node, class key) pair, as sympy
    orders and prints it, with its monomial for _sum."""
    nodes = [node for node, _ in sorted(factors, key=lambda f: f[1])]
    if not nodes:
        return ("num", c), monom
    if c == 1 and type(c) is int and len(nodes) == 1:
        return nodes[0], monom
    return ("mul", c, nodes), monom


def _sum(terms: list[tuple[tuple, dict]]) -> tuple:
    """The sum of terms in sympy's print order: the monomials in reverse lex
    order of their generators (symbols by name, then the function), except
    that a positive number stays before a negative multiple of one factor."""
    if not terms:
        return ("num", 0)
    if len(terms) == 1:
        return terms[0][0]
    if len(terms) == 2:
        a, b = sorted((node for node, _ in terms), key=lambda node: node[0] != "num")
        if a[0] == "num" and b[0] == "mul" and len(b[2]) == 1 and a[1] > 0 > b[1]:
            return ("add", [a, b])
    gens = sorted({g for _, monom in terms for g in monom})
    ordered = sorted(terms, key=lambda t: [-t[1].get(g, 0) for g in gens])
    return ("add", [node for node, _ in ordered])


def _term(c, p: str | None, kind: str, k) -> tuple[tuple, dict]:
    factors, monom = [], {}
    if p is not None:
        factors.append((("sym", p), (2, p)))
        monom[(0, p)] = 1
    if kind == "pow":
        factors.append((("sym", "x") if k == 1 else ("pow", ("sym", "x"), k), (2, "x")))
        monom[(0, "x")] = k
    elif kind != "const":
        # sympy takes exp(n*x) as exp(x)**n for an integer n, and exp(-k*x)
        # as exp(k*x)**-1 for a decimal k
        factors.append((("fn", kind, k), _CLASS_KEY[kind]))
        monom[_FN] = 1 if kind == "tanh" else k if type(k) is int else 1 if k > 0 else -1
    return _product(c, factors, monom)


def _derivative(terms: list[tuple]) -> tuple:
    """The node of w′ as sympy's diff builds and orders it."""
    if terms[0][2] == "tanh":  # d tanh(k*x) = k - k*tanh(k*x)**2, a tanh term is alone
        c, p, _, k = terms[0]
        square = (("pow", ("fn", "tanh", k), 2), _CLASS_KEY["tanh"])
        if p is None:  # a number distributes over the sum
            return _sum([_product(c * k, [], {}), _product(-(c * k), [square], {_FN: 2})])
        inner = _sum([_product(k, [], {}), _product(-k, [square], {_FN: 2})])
        return _product(c, [(("sym", p), (2, p)), (inner, _CLASS_KEY["add"])], {})[0]
    out = []
    for c, p, kind, k in terms:
        if kind == "exp":
            out.append(_term(c * k, p, kind, k))
        elif kind == "pow":
            out.append(_term(k * c, p, "pow", k - 1) if k > 1 else _term(c, p, "const", None))
    return _sum(out)


def _closed_code(node: tuple, params: list[str]) -> NumpyCode:
    tables: dict[str, int] = {}
    source = _function_source("_fn", ["x", *params, "_subterms"], _printed(node, tables))
    if tables:
        source += _function_source("_tabulate", ["x"], f"({', '.join(tables)},)")
    return NumpyCode(_printed(node), tuple(params), source, True)


def closed_grammar_codes(text: str) -> tuple[NumpyCode, NumpyCode] | None:
    """The code of w and w′ that generate_on_grid prints for text, or None
    when text is outside the closed grammar (see the module docstring).

    Every parameter enters as a plain factor, so the code always broadcasts
    (see expressions._broadcasts_exactly).
    """
    try:
        terms = _closed_terms(text)
        params = sorted({p for _, p, _, _ in terms if p is not None})
        w = _sum([_term(*t) for t in terms])
        return _closed_code(w, params), _closed_code(_derivative(terms), params)
    except _Decline:
        return None
