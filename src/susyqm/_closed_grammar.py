"""w and w′ of a closed grammar, printed as sympy prints them, without sympy.

``closed_grammar_codes(text)`` returns the two ``NumpyCode`` records that
``generate_on_grid`` makes for w = text and for its derivative, equal in
every field, or None when text is outside the closed grammar below or
would print in a form this printer does not reproduce.  None is never an
error: the caller then compiles the text with sympy, so every error
message, and every text outside the grammar, is what it was.

The grammar: a sum of terms, each the product of an optional literal, an
optional parameter and an optional x-part, in any factor order, or a
radial term; spaces around tokens are allowed.
- A literal is an integer or a decimal, of at most four integer digits and
  four places.  A zero literal alone drops out of the sum, as in sympy; a
  zero product is declined (sympy drops its parameters with it).
- A parameter is a single ASCII letter other than x, E, I, N, O, Q and S,
  or one of a few Greek letter names: names that sympy's parser reads as
  plain symbols.
- An x-part is ``x``, ``x^n`` or ``x**n`` with n from 2 to 9,
  ``exp(k*x)``, or ``tanh(k*x)`` with k > 0; k is ``[-][literal*]``.
- A radial term is a literal or parameter over a group, ``n/g`` or
  ``n/(k*g)``, or a literal, parameter or group over x: ``n/x``, ``g/x``
  or ``k*g/x``.  A group is ``(p ± d)`` or ``(d ± p)`` with d a nonzero
  literal, and a scale literal k (not 0 or 1) distributes over it, as in
  sympy: ``2.0134/(2*(l+1)) - (l+1)/x`` prints as
  ``2.0134/(2*l + 2) - (l + 1)/x``.  The numerator n is not 0 or 1, and a
  leading minus of the text distributes into a group over x, ``-(l+1)/x``
  printing as ``(-l - 1)/x``.
- At most one term is a function of x, a tanh term stands alone, no two
  terms share their parameter and x-part (sympy would collect them), at
  most one term is over a group and one over x, and no radial term shares
  the sum with a function of x.

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
_TOKEN = re.compile(r" *(?:([0-9][0-9.]*)|([A-Za-z_]\w*)|(\*\*|[-+*/^()])) *")
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
    c, the parameter or group p (or None) and an x-part: ``("const", None)``,
    ``("pow", n)`` for x**n (n = -1 for a term over x), ``("exp" | "tanh",
    k)`` for a function of k*x, or ``("over", g)`` for a term over the group
    g.  A group is ``(s, p, d)``, the affine s*p + d as sympy distributes it."""
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
    tokens += [None] * 8  # lookahead past the end reads None

    def literal(tok) -> bool:
        return type(tok) in (int, float)

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
            if literal(tokens[i]) and tokens[i + 1] == "*":
                i, k = i + 2, tokens[i]
            if tokens[i] != "x" or tokens[i + 1] != ")":
                raise _Decline
            return (tok, sign * k), i + 2
        return tok, i + 1

    def group(i: int) -> tuple[tuple, int]:
        """``[k*](p ± d)`` or ``[k*](d ± p)`` at i; sympy distributes k."""
        k = 1
        if literal(tokens[i]) and tokens[i + 1] == "*":
            i, k = i + 2, tokens[i]
            if k in (0, 1):
                raise _Decline
        a, op, b = tokens[i + 1:i + 4]
        if tokens[i] != "(" or op not in ("+", "-") or tokens[i + 4] != ")":
            raise _Decline
        sign = 1 if op == "+" else -1
        if a in _PLAIN_NAMES and literal(b):
            s, p, d = 1, a, sign * b
        elif literal(a) and b in _PLAIN_NAMES:
            s, p, d = sign, b, a
        else:
            raise _Decline
        if d == 0:
            raise _Decline  # (p + 0) is p, no group
        return (k * s, p, k * d), i + 5

    def radial(i: int, sign: int, lead: bool) -> tuple[tuple, int] | None:
        """The term over x or over a group at i, or None for a product.
        A leading minus of the text distributes into a group numerator."""
        tok = tokens[i]
        if tok == "(" or literal(tok) and tokens[i + 1:i + 3] == ["*", "("]:
            g, i = group(i)
            if tokens[i:i + 2] != ["/", "x"]:
                raise _Decline
            if sign < 0 and lead:
                sign, g = 1, (-g[0], g[1], -g[2])
            return (sign, g, "pow", -1), i + 2
        if tokens[i + 1] != "/" or not (literal(tok) or tok in _PLAIN_NAMES):
            return None
        if literal(tok) and tok in (0, 1):
            raise _Decline  # a zero term drops out, and 1/g is a bare power
        c, p = (sign * tok, None) if literal(tok) else (sign, tok)
        if tokens[i + 2] == "x":
            return (c, p, "pow", -1), i + 3
        if tokens[i + 2] != "(":
            raise _Decline
        scaled = literal(tokens[i + 3]) and tokens[i + 4] == "*"  # n/(k*(p ± d))
        g, i = group(i + 2 + scaled)
        if scaled and tokens[i] != ")":
            raise _Decline
        return (c, p, "over", g), i + scaled

    terms, sign, i, zero_float = [], 1, 0, False
    if tokens[0] == "-":
        sign, i = -1, 1
    while True:
        found = radial(i, sign, i == 1)
        if found is not None:
            term, i = found
            terms.append(term)
        else:
            c, p, xpart = None, None, None
            while True:
                item, i = factor(i)
                if isinstance(item, tuple) and xpart is None:
                    xpart = item
                elif literal(item) and c is None:
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
            zero_float |= type(c) is float and c == 0
        if tokens[i] is None:
            break
        if tokens[i] not in ("+", "-"):
            raise _Decline
        sign, i = (1 if tokens[i] == "+" else -1), i + 1
    # sympy collects terms of one parameter and x-part, tanh(-k*x) is
    # -tanh(k*x), and a dropped 0.0 still makes a sum of numbers a float
    fns = [(kind, k) for _, _, kind, k in terms if kind in ("exp", "tanh")]
    radials = [kind for _, _, kind, k in terms if kind == "over" or kind == "pow" and k < 0]
    numbers = [c for c, p, kind, _ in terms if kind == "const" and p is None]
    if (not terms or len({(p, kind, k) for _, p, kind, k in terms}) < len(terms)
            or zero_float and numbers
            or len(fns) > 1 or fns and radials or len(radials) > len(set(radials))
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
    def wrapped(node: tuple) -> str:
        return f"({show(node)})" if node[0] == "add" else show(node)

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
        if tag == "mul":  # a factor x**-n or g**-1 prints as a division
            c = node[1]
            over = [f for f in node[2] if f[0] == "pow" and f[2] < 0]
            parts = [] if abs(c) == 1 and type(c) is int else [show(("num", abs(c)))]
            parts += [wrapped(f) for f in node[2] if f not in over]
            code = "-" * (c < 0) + "*".join(parts)
            for f in over:  # at most one
                code += "/" + wrapped(f[1] if f[2] == -1 else ("pow", f[1], -f[2]))
            return code
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


def _group(g: tuple) -> tuple:
    """The node of the group s*p + d."""
    s, p, d = g
    return _sum([_product(s, [(("sym", p), (2, p))], {(0, p): 1}), _product(d, [], {})])


def _term(c, p: str | tuple | None, kind: str, k) -> tuple[tuple, dict]:
    factors, monom = [], {}
    if isinstance(p, tuple):  # a group, which sympy orders after every symbol
        factors.append((_group(p), _CLASS_KEY["add"]))
        monom[(0.5, p)] = 1
    elif p is not None:
        factors.append((("sym", p), (2, p)))
        monom[(0, p)] = 1
    if kind == "over":
        factors.append((("pow", _group(k), -1), _CLASS_KEY["add"]))
        monom[(0.5, k)] = -1
    elif kind == "pow":
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
            out.append(_term(k * c, p, "pow", k - 1) if k != 1 else _term(c, p, "const", None))
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

    Every parameter enters as a plain factor or in a group that a product
    divides by, which prints as a division, so the code always broadcasts
    (see expressions._broadcasts_exactly).
    """
    try:
        terms = _closed_terms(text)
        names = {p[1] if isinstance(p, tuple) else p for _, p, _, _ in terms}
        names |= {k[1] for _, _, kind, k in terms if kind == "over"}  # a group's parameter
        params = sorted(names - {None})
        w = _sum([_term(*t) for t in terms])
        return _closed_code(w, params), _closed_code(_derivative(terms), params)
    except _Decline:
        return None
