"""Command-line front end.

Every command reads exactly one input source (a catalog record, a
superpotential expression, or a tabulated potential CSV), runs the
corresponding library routines, and writes CSV or JSON with a fixed layout:
12 significant digits, comma separators, LF line endings, no timestamps.
Identical invocations produce byte-identical output.

``parse_args`` validates the flags, ``_resolve`` turns the input source
into one ``_Input`` (record, family, parameters, grid, tabulated
potential), and each grid command reads its input from that alone.

Exit codes: 0 success, 1 usage error, 2 computation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .catalog import (SIPRecord, _check_singular_region, catalog_dump,
                      check_levels_valid, closed_form_spectrum, get_record,
                      list_catalog, merged_params)
from .classify import classify_family, classify_record, classify_tabulated, venn_graph_text
from .eigensolver import solution_to_dict, solve_potential, spectrum_csv
from .errors import ExpressionError, GridError, SusyQMError
from .grids import (DEFAULT_DOMAIN, DEFAULT_N_POINTS, FLOAT_FMT, Grid1D,
                    GridFunction, count_nodes, csv_text, make_grid)
from .shape_invariance import (DEFAULT_BUDGET, TRANSFORM_KINDS, ParameterTransform,
                               default_candidates, search_transform,
                               si_residual, spectrum_from_measured_residuals,
                               wavefunction_chain)
from .susy import (ALGEBRA_TOL, SuperpotentialFamily, build_hierarchy,
                   charge_matrices, partner_potentials, verify_algebra)

#: Flag caps.  A search scores its trials in blocks of at most 96 KiB or one
#: grid row, whatever the budget, so the budget cap bounds its coarse sample
#: list, its score memo and its run time, and the points cap every grid array:
#: it holds for --points and for the nodes of a --tabulated file.
MAX_POINTS = 20001
MAX_BUDGET = 129

#: --levels and --depth caps.  Orbits, spectra and hierarchies grow with
#: them, and wavefunctions keeps levels + 1 grid-sized states built in
#: O(levels²) A† applications (65 states, about 10 MB, at the caps).
MAX_LEVELS = 64
MAX_DEPTH = 64

#: si-check's knob flags, one per transform knob name (--alpha, --q, --p).
_KNOBS = tuple(dict.fromkeys(name for cls in TRANSFORM_KINDS.values()
                             for name, _ in cls.knobs))

#: Commands that need a superpotential (expression or family-bearing record).
_NEEDS_FAMILY = ("solve", "partner", "hierarchy", "si-check", "wavefunctions",
                 "algebra-check")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for
    computation failures, so usage problems exit 1 instead.

    argparse reads a leading '-' as a flag unless the word looks like a
    negative number, and its pattern has neither an exponent nor the
    non-finite spellings; widening it lets ``--x-min -1e1`` through as a
    value, and ``--x-min -inf`` (or ``-nan``, any case) through to the
    finite-number check.  Subparsers share this class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    """argparse type for grid bounds and transform knobs: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _add_input_flags(p: argparse.ArgumentParser, tabulated: bool = True) -> None:
    p.add_argument("--catalog", metavar="NAME", help="catalog record name")
    p.add_argument("--w", metavar="EXPR",
                   help="superpotential expression in x and named parameters")
    if tabulated:
        p.add_argument("--tabulated", metavar="PATH",
                       help="potential as a two-column x,value CSV file")
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                   help="parameter value (repeatable)")
    p.add_argument("--x-min", type=_finite_float, default=None)
    p.add_argument("--x-max", type=_finite_float, default=None)
    p.add_argument("--points", type=int, default=None, dest="n_points")


def _add_common_flags(p: argparse.ArgumentParser, fmt_default: str | None = "csv") -> None:
    if fmt_default is not None:
        p.add_argument("--format", choices=("csv", "json"), default=fmt_default,
                       dest="fmt")
    p.add_argument("--output", "-o", metavar="PATH", default=None,
                   help="write the main document here instead of stdout")
    p.add_argument("--dump-config", action="store_true",
                   help="print the resolved configuration as JSON and exit")


def _build_parser() -> _Parser:
    parser = _Parser(prog="susyqm",
                     description="partner Hamiltonians, shape invariance, "
                                 "spectra, and potential classification")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True
    # Flags a command lacks read as these values.
    parser.set_defaults(catalog=None, w=None, param=[], x_min=None, x_max=None,
                        n_points=None, n_levels=3, depth=3, tolerance=None,
                        budget=DEFAULT_BUDGET, fig=None, transform_kind=None,
                        on_param=None, force_search=False)

    p = sub.add_parser("solve", help="oracle bound-state energies and wavefunctions")
    _add_input_flags(p)
    p.add_argument("--levels", type=int, default=3, dest="n_levels",
                   help="highest level index n to solve (default 3)")
    _add_common_flags(p)

    p = sub.add_parser("partner", help="tabulate V-, V+, and w")
    _add_input_flags(p, tabulated=False)
    _add_common_flags(p)

    p = sub.add_parser("hierarchy", help="build the partner hierarchy to a depth")
    _add_input_flags(p)
    p.add_argument("--depth", type=int, default=3)
    _add_common_flags(p, fmt_default=None)
    p.set_defaults(fmt="json")

    p = sub.add_parser("si-check", help="test or search for shape invariance")
    _add_input_flags(p, tabulated=False)
    p.add_argument("--transform", choices=tuple(TRANSFORM_KINDS), default=None,
                   dest="transform_kind",
                   help="transform kind to verify (with all its knobs) or to "
                        "restrict the search to (with none)")
    for knob in _KNOBS:
        kinds = [kind for kind, cls in TRANSFORM_KINDS.items() if knob in dict(cls.knobs)]
        p.add_argument(f"--{knob}", type=_finite_float, default=None,
                       help=f"knob of {'/'.join(kinds)}")
    p.add_argument("--on", default=None, dest="on_param",
                   help="parameter the transform acts on")
    p.add_argument("--search", action="store_true", dest="force_search",
                   help="search even when the record declares a transform")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--tolerance", type=float, default=None)
    _add_common_flags(p, fmt_default=None)
    p.set_defaults(fmt="json")

    p = sub.add_parser("spectrum", help="algebraic vs oracle energies side by side")
    _add_input_flags(p, tabulated=False)
    p.add_argument("--levels", type=int, default=3, dest="n_levels")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    _add_common_flags(p)

    p = sub.add_parser("wavefunctions", help="chain-built states and node counts")
    _add_input_flags(p, tabulated=False)
    p.add_argument("--levels", type=int, default=2, dest="n_levels")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    _add_common_flags(p)

    p = sub.add_parser("classify", help="four-set membership tag")
    _add_input_flags(p)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--fig", metavar="PATH", default=None,
                   help="also write a graph-description text file")
    _add_common_flags(p, fmt_default=None)
    p.set_defaults(fmt="json")

    p = sub.add_parser("algebra-check", help="verify the charge algebra numerically")
    _add_input_flags(p, tabulated=False)
    p.add_argument("--tolerance", type=float, default=None)
    _add_common_flags(p, fmt_default=None)
    p.set_defaults(fmt="json")

    p = sub.add_parser("catalog", help="list records or show one")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text",
                   dest="fmt")
    _add_common_flags(p, fmt_default=None)

    return parser


def _parse_params(parser: _Parser, pairs: list[str]) -> dict:
    out = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep or not name:
            parser.error(f"--param expects NAME=VALUE, got {item!r}")
        try:
            out[name] = float(value)
        except ValueError:
            parser.error(f"--param {name}: {value!r} is not a number")
        if not math.isfinite(out[name]):
            parser.error(f"--param {name}: {value!r} is not a finite number")
    return out


def _parse_knobs(parser: _Parser, ns: argparse.Namespace) -> dict:
    """si-check's knob values, typed as the --transform kind's class types
    them: all of the kind's knobs (verify) or none (search)."""
    kind = ns.transform_kind
    given = {name: getattr(ns, name) for name in _KNOBS if getattr(ns, name) is not None}
    if given and kind is None:
        parser.error(f"--{next(iter(given))} needs --transform")
    if not given:
        return {}
    takes = dict(TRANSFORM_KINDS[kind].knobs)
    flags = "/".join(f"--{name}" for name in takes)
    foreign = [name for name in given if name not in takes]
    if foreign:
        parser.error(f"{kind} takes {flags}, not --{foreign[0]}")
    missing = [name for name in takes if name not in given]
    if missing:
        parser.error(f"{kind} takes {flags} together (verify) or none (search); "
                     f"--{missing[0]} is missing")
    for name, typ in takes.items():
        if typ(given[name]) != given[name]:
            parser.error(f"{kind} needs {typ.__name__} --{name}, got {given[name]}")
    return {name: typ(given[name]) for name, typ in takes.items()}


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse and validate argv; usage errors exit 1.

    Besides the flags, the namespace carries ``params`` (the --param
    values), ``family`` (the parsed --w expression, or None) and, for
    si-check, ``knobs`` (see _parse_knobs).
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    takes_tabulated = hasattr(ns, "tabulated")
    ns.tabulated = getattr(ns, "tabulated", None)
    ns.params = _parse_params(parser, ns.param)
    ns.family = None

    if ns.command == "catalog":
        if ns.name is not None:
            try:
                get_record(ns.name)
            except SusyQMError as exc:
                parser.error(str(exc))
        return ns

    sources = [s for s in (ns.catalog, ns.w, ns.tabulated) if s is not None]
    if len(sources) == 0:
        parser.error(f"{ns.command} needs an input: --catalog, --w"
                     + (" or --tabulated" if takes_tabulated else ""))
    if len(sources) > 1:
        parser.error("conflicting inputs: give exactly one of "
                     "--catalog, --w, --tabulated")
    if ns.tabulated is not None and ns.params:
        parser.error("--param applies to --catalog or --w inputs only")

    if ns.x_min is not None or ns.x_max is not None or ns.n_points is not None:
        if ns.tabulated is not None:
            parser.error("grid overrides do not apply to --tabulated input "
                         "(the file fixes the grid)")
        if ns.command == "classify" and ns.catalog is not None:
            parser.error("grid overrides do not apply to classify --catalog "
                         "(the record fixes the grid)")
    if ns.n_points is not None and ns.n_points < 3:
        parser.error(f"--points must be >= 3, got {ns.n_points}")
    if ns.n_points is not None and ns.n_points > MAX_POINTS:
        parser.error(f"--points must be at most {MAX_POINTS}, got {ns.n_points}")
    if ns.x_min is not None and ns.x_max is not None and ns.x_min >= ns.x_max:
        parser.error(f"--x-min must be below --x-max, got [{ns.x_min}, {ns.x_max}]")

    if ns.n_levels < 0:
        parser.error(f"--levels must be nonnegative, got {ns.n_levels}")
    if ns.n_levels > MAX_LEVELS:
        parser.error(f"--levels must be at most {MAX_LEVELS}, got {ns.n_levels}")
    if ns.depth < 1:
        parser.error(f"--depth must be at least 1, got {ns.depth}")
    if ns.depth > MAX_DEPTH:
        parser.error(f"--depth must be at most {MAX_DEPTH}, got {ns.depth}")
    if ns.tolerance is not None and not (math.isfinite(ns.tolerance) and ns.tolerance > 0):
        parser.error(f"--tolerance must be a positive finite number, got {ns.tolerance}")
    if ns.budget < 1:
        parser.error(f"--budget must be positive, got {ns.budget}")
    if ns.budget > MAX_BUDGET:
        parser.error(f"--budget must be at most {MAX_BUDGET}, got {ns.budget}")

    names: tuple = ()
    if ns.w is not None:
        try:
            ns.family = SuperpotentialFamily.from_expression(ns.w)
        except ExpressionError as exc:
            parser.error(f"--w: {exc}")
        names = ns.family.parameter_names
        missing = [n for n in names if n not in ns.params]
        if missing:
            parser.error(f"--w uses parameters {missing} with no --param value")
        extra = [n for n in ns.params if n not in names]
        if extra:
            parser.error(f"--param names {extra} do not appear in the expression")

    if ns.catalog is not None:
        try:
            rec = get_record(ns.catalog)
            names = tuple(merged_params(rec, ns.params))
        except SusyQMError as exc:
            parser.error(str(exc))
        if ns.command in _NEEDS_FAMILY and rec.expression is None:
            parser.error(f"record {ns.catalog!r} declares only its transform "
                         f"and R; {ns.command} needs a superpotential")

    if ns.command == "hierarchy" and ns.output is None:
        parser.error("hierarchy writes one CSV per level; --output DIR is required")

    if ns.command == "si-check":
        ns.knobs = _parse_knobs(parser, ns)
        if ns.on_param is not None and ns.on_param not in names:
            parser.error(f"--on {ns.on_param!r} is not a parameter of the input; "
                         f"its parameters are {sorted(names)}")
        if ns.knobs and ns.on_param is None and len(names) > 1:
            parser.error(f"--transform {ns.transform_kind} acts on one parameter; "
                         f"choose it with --on (the input's parameters are {sorted(names)})")

    return ns


# -- output plumbing ------------------------------------------------------------


def _round12(doc):
    """Clamp every float in a JSON document to 12 significant digits."""
    if isinstance(doc, float):
        return float(FLOAT_FMT % doc)
    if isinstance(doc, dict):
        return {k: _round12(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_round12(v) for v in doc]
    return doc


def _json_text(doc) -> str:
    """The document as strict JSON: a non-finite float raises ValueError."""
    return json.dumps(_round12(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", newline="\n") as fh:
            fh.write(text)


# -- input resolution -----------------------------------------------------------


@dataclass(frozen=True)
class _Input:
    """A grid command's input, resolved once.  ``family`` is None and
    ``params`` empty for tabulated input; ``record`` is None unless --catalog."""

    record: SIPRecord | None
    family: SuperpotentialFamily | None
    params: dict
    grid: Grid1D
    tabulated: GridFunction | None

    def potential(self) -> GridFunction:
        """The potential a command's oracle runs on: V for tabulated input,
        V- otherwise."""
        if self.tabulated is not None:
            return self.tabulated
        return partner_potentials(self.family, self.params, self.grid).v_minus


def _resolve(ns: argparse.Namespace) -> _Input:
    """The input source as one _Input; the only place a grid is built.

    A tabulated file fixes the grid, which the points cap bounds as it
    bounds --points: its rows are counted line by line first, so a file over
    the cap is refused before it is read whole or parsed.  Otherwise the
    grid flags go on top of a record's pinned domain or the default domain,
    and a record's singular-region rule applies to the result.  A record's
    family is assembled from its checked-in numpy code, which loads no
    sympy, so --dump-config stays cheap.
    """
    if ns.tabulated is not None:
        path = Path(ns.tabulated)
        with path.open() as fh:
            # the non-blank lines from_csv splits the text into, less its header
            nodes = sum(1 for line in fh for piece in line.splitlines() if piece.strip()) - 1
        if nodes > MAX_POINTS:
            raise GridError(f"a tabulated file must have at most {MAX_POINTS} nodes, "
                            f"got {nodes}")
        v = GridFunction.from_csv(path.read_text())
        return _Input(None, None, {}, v.grid, v)
    record = None if ns.catalog is None else get_record(ns.catalog)
    if record is not None and record.domain is not None:
        lo, hi, n = record.domain
    else:
        (lo, hi), n = DEFAULT_DOMAIN, DEFAULT_N_POINTS
    grid = make_grid(lo if ns.x_min is None else ns.x_min,
                     hi if ns.x_max is None else ns.x_max,
                     n if ns.n_points is None else ns.n_points)
    if record is None:
        return _Input(None, ns.family, ns.params, grid, None)
    _check_singular_region(record, grid)
    return _Input(record, record.family, merged_params(record, ns.params), grid, None)


def _searched_transform(inp: _Input, budget: int, need: str) -> ParameterTransform:
    """The transform an unrestricted search finds; failing that, say what needed one."""
    found = search_transform(inp.family, inp.params, inp.grid, None, budget)
    if found is None:
        raise SusyQMError(
            f"no shape-invariant structure found within the search budget; {need}")
    return found[0]


# -- commands ---------------------------------------------------------------------


def _cmd_solve(inp: _Input, ns: argparse.Namespace) -> None:
    pairs = solve_potential(inp.potential(), ns.n_levels + 1)
    if ns.fmt == "csv":
        _emit(spectrum_csv(pairs), ns.output)
    else:
        _emit(_json_text(solution_to_dict(pairs)), ns.output)


def _cmd_partner(inp: _Input, ns: argparse.Namespace) -> None:
    grid = inp.grid
    pair = partner_potentials(inp.family, inp.params, grid)
    header = ("x", "v_minus", "v_plus", "w")
    columns = [c.tolist() for c in (grid.x, pair.v_minus.values, pair.v_plus.values,
                                    pair.w_used.values)]
    if ns.fmt == "csv":
        _emit(csv_text(header, zip(*columns)), ns.output)
    else:
        _emit(_json_text({"grid": grid.to_dict(), **dict(zip(header, columns))}), ns.output)


def _cmd_hierarchy(inp: _Input, ns: argparse.Namespace) -> None:
    sides = "both" if inp.family is None else inp.family.decay_sides
    hier = build_hierarchy(inp.potential(), ns.depth, sides=sides)
    out_dir = Path(ns.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    levels = []
    for level in hier:
        ref = f"potential_{level.depth}.csv"
        with open(out_dir / ref, "w", newline="\n") as fh:
            fh.write(level.potential.to_csv())
        levels.append({"depth": level.depth,
                       "ground_energy": level.ground_energy,
                       "potential_csv_ref": ref})
    doc = {"levels": levels, "truncated": hier.truncated, "note": hier.note}
    text = _json_text(doc)
    with open(out_dir / "summary.json", "w", newline="\n") as fh:
        fh.write(text)
    sys.stdout.write(text)


def _cmd_si_check(inp: _Input, ns: argparse.Namespace) -> None:
    family, a0 = inp.family, inp.params
    if ns.knobs:
        pinned = TRANSFORM_KINDS[ns.transform_kind](**ns.knobs, param=ns.on_param)
    elif inp.record is not None and not ns.force_search \
            and ns.transform_kind is None and ns.on_param is None:
        pinned = inp.record.transform
    else:
        pinned = None

    if pinned is not None:
        found = pinned, si_residual(family, a0, pinned, inp.grid, ns.tolerance)
    else:
        candidates = [c for c in default_candidates(family.parameter_names)
                      if ns.transform_kind in (None, c.cls.kind)
                      and ns.on_param in (None, c.param)]
        found = search_transform(family, a0, inp.grid, candidates, ns.budget, ns.tolerance)
    doc = {"searched": pinned is None, "found": False, "params_start": a0}
    if found is not None:  # a search finds only a transform that passes
        transform, report = found
        doc.update(found=report.passed, transform=transform.to_dict(),
                   params_next=transform.apply(a0), report=report.to_dict())
    _emit(_json_text(doc), ns.output)


def _spectrum_rows(inp: _Input, ns: argparse.Namespace) -> tuple[list[dict], bool]:
    """(n, algebraic, oracle) rows; oracle is None for records without a
    superpotential.  Oracle energies are reported relative to the oracle
    ground level, matching the algebraic convention E0 = 0."""
    if inp.record is not None:
        spec = closed_form_spectrum(inp.record.name, inp.params, ns.n_levels)
        entries = [e for e in spec.entries if e.valid]
        truncated = spec.truncated or len(entries) < len(spec.entries)
        if inp.family is None:
            rows = [{"n": e.n, "algebraic": e.energy, "oracle": None}
                    for e in entries]
            return rows, truncated
    else:
        transform = _searched_transform(
            inp, ns.budget, "an algebraic spectrum needs one "
                            "(try solve for oracle-only energies)")
        spec = spectrum_from_measured_residuals(inp.family, transform, inp.params,
                                                inp.grid, ns.n_levels)
        entries, truncated = spec.entries, spec.truncated
    oracle = solve_potential(inp.potential(), len(entries))
    e0 = oracle[0].energy
    rows = [{"n": e.n, "algebraic": e.energy,
             "oracle": oracle[e.n].energy - e0} for e in entries]
    return rows, truncated


def _cmd_spectrum(inp: _Input, ns: argparse.Namespace) -> None:
    rows, truncated = _spectrum_rows(inp, ns)
    if ns.fmt == "csv":
        header = ("n", "algebraic", "oracle")
        _emit(csv_text(header, ([r[k] for k in header] for r in rows)), ns.output)
    else:
        _emit(_json_text({"levels": rows, "truncated": truncated}), ns.output)


def _cmd_wavefunctions(inp: _Input, ns: argparse.Namespace) -> None:
    if inp.record is not None:
        # past the record's last bound level the chain has no state to build
        check_levels_valid(inp.record, inp.params, ns.n_levels)
        transform = inp.record.transform
    else:
        transform = _searched_transform(inp, ns.budget,
                                        "chain-built wavefunctions need one")
    states = [wavefunction_chain(inp.family, inp.params, transform, n, inp.grid)
              for n in range(ns.n_levels + 1)]
    nodes = [count_nodes(s) for s in states]
    if ns.fmt == "csv":
        header = ("x", *(f"psi_{n}" for n in range(len(states))))
        columns = (inp.grid.x, *(s.values for s in states))
        _emit(csv_text(header, zip(*(c.tolist() for c in columns))), ns.output)
    else:
        doc = {"grid": inp.grid.to_dict(),
               "states": [s.values.tolist() for s in states],
               "node_counts": nodes}
        _emit(_json_text(doc), ns.output)


def _cmd_classify(inp: _Input, ns: argparse.Namespace) -> None:
    if inp.record is not None:
        tag = classify_record(inp.record, inp.params, ns.budget)
    elif inp.tabulated is not None:
        tag = classify_tabulated(inp.tabulated)
    else:
        tag = classify_family(inp.family, inp.params, inp.grid, ns.budget)
    if ns.fig is not None:
        with open(ns.fig, "w", newline="\n") as fh:
            fh.write(venn_graph_text(tag))
    _emit(_json_text(tag.to_dict()), ns.output)


def _cmd_algebra_check(inp: _Input, ns: argparse.Namespace) -> None:
    cm = charge_matrices(inp.family, inp.params, inp.grid)
    tolerance = ALGEBRA_TOL if ns.tolerance is None else ns.tolerance
    report = verify_algebra(cm, tolerance)
    _emit(_json_text(report.to_dict()), ns.output)


def _cmd_catalog(ns: argparse.Namespace) -> None:
    if ns.name is not None:
        entry = next(e for e in catalog_dump() if e["name"] == ns.name)
        _emit(_json_text(entry), ns.output)
    elif ns.fmt == "json":
        _emit(_json_text(catalog_dump()), ns.output)
    else:
        _emit("\n".join(list_catalog()) + "\n", ns.output)


#: Grid commands; each takes the resolved input and the parsed flags.
_COMMANDS = {
    "solve": _cmd_solve,
    "partner": _cmd_partner,
    "hierarchy": _cmd_hierarchy,
    "si-check": _cmd_si_check,
    "spectrum": _cmd_spectrum,
    "wavefunctions": _cmd_wavefunctions,
    "classify": _cmd_classify,
    "algebra-check": _cmd_algebra_check,
}


def _config_doc(ns: argparse.Namespace) -> dict:
    return {
        "command": ns.command,
        "grid": _resolve(ns).grid.to_dict(),
        "params": ns.params,
        "n_levels": ns.n_levels,
        "depth": ns.depth,
        "tolerance": ns.tolerance,
        "budget": ns.budget,
        "input": {"catalog": ns.catalog, "w": ns.w, "tabulated": ns.tabulated},
        "format": ns.fmt,
        "output": ns.output,
    }


def main(argv: list[str] | None = None) -> int:
    """Run one invocation; exit code 0 success, 2 computation failure
    (usage errors exit 1 from parse_args)."""
    ns = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if ns.dump_config:
            sys.stdout.write(_json_text(_config_doc(ns)))
        elif ns.command == "catalog":
            _cmd_catalog(ns)
        else:
            _COMMANDS[ns.command](_resolve(ns), ns)
    except (SusyQMError, OSError, ValueError) as exc:
        sys.stderr.write(f"susyqm {ns.command}: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
