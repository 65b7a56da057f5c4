"""Command-line front end.

Every command reads exactly one input source (a catalog record, a
superpotential expression, or a tabulated potential CSV), runs the
corresponding library routines, and writes CSV or JSON with a fixed layout:
12 significant digits, comma separators, LF line endings, no timestamps.
Identical invocations produce byte-identical output.

Exit codes: 0 success, 1 usage error, 2 computation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .catalog import (catalog_dump, closed_form_spectrum, get_record,
                      instantiate, list_catalog, merged_params, record_grid)
from .classify import classify_family, classify_record, classify_tabulated, venn_graph_text
from .eigensolver import solution_to_dict, solve_potential, spectrum_csv
from .errors import ExpressionError, SusyQMError
from .grids import (DEFAULT_N_POINTS, FLOAT_FMT, Grid1D, GridFunction,
                    count_nodes, make_grid)
from .shape_invariance import (ParameterTransform, Projective, PowerScaling,
                               Scaling, Translation, default_candidates,
                               search_transform, si_residual,
                               spectrum_from_measured_residuals,
                               wavefunction_chain)
from .susy import (SuperpotentialFamily, build_hierarchy, charge_matrices,
                   partner_potentials, verify_algebra)

#: Validated and echoed by --dump-config, but it selects nothing: the library
#: runs on one thread.
THREADS_ENV = "SUSY_SPECTRA_THREADS"

#: Flag caps.  A search holds _trial_count(budget) x points floats in each of
#: its temporaries, so together they bound its memory (about 20 MB apiece).
MAX_POINTS = 20001
MAX_BUDGET = 129

#: --levels and --depth caps.  Orbits, spectra and hierarchies grow with
#: them, and wavefunctions keeps levels + 1 grid-sized states built in
#: O(levels²) A† applications (65 states, about 10 MB, at the caps).
MAX_LEVELS = 64
MAX_DEPTH = 64

_TRANSFORM_KINDS = ("translation", "scaling", "power-scaling", "projective")

#: Commands that need a superpotential (expression or family-bearing record).
_NEEDS_FAMILY = ("partner", "si-check", "wavefunctions", "algebra-check")


@dataclass
class RunConfig:
    """Resolved settings for one invocation."""

    command: str
    catalog: str | None = None
    w: str | None = None
    tabulated: str | None = None
    params: dict = field(default_factory=dict)
    x_min: float | None = None
    x_max: float | None = None
    n_points: int | None = None
    n_levels: int = 3
    depth: int = 3
    tolerance: float | None = None
    budget: int = 33
    threads: int = 1
    fmt: str = "csv"
    output: str | None = None
    fig: str | None = None
    transform_kind: str | None = None
    alpha: float | None = None
    q: float | None = None
    p: float | None = None
    on_param: str | None = None
    force_search: bool = False
    dump_config: bool = False
    name: str | None = None
    family: SuperpotentialFamily | None = field(default=None, repr=False)

    def input_dict(self) -> dict:
        return {"catalog": self.catalog, "w": self.w, "tabulated": self.tabulated}


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


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
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

    p = sub.add_parser("solve", help="oracle bound-state energies and wavefunctions")
    _add_input_flags(p)
    _add_grid_flags(p)
    p.add_argument("--levels", type=int, default=3, dest="n_levels",
                   help="highest level index n to solve (default 3)")
    _add_common_flags(p)

    p = sub.add_parser("partner", help="tabulate V-, V+, and w")
    _add_input_flags(p, tabulated=False)
    _add_grid_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("hierarchy", help="build the partner hierarchy to a depth")
    _add_input_flags(p)
    _add_grid_flags(p)
    p.add_argument("--depth", type=int, default=3)
    _add_common_flags(p, fmt_default=None)
    p.set_defaults(fmt="json")

    p = sub.add_parser("si-check", help="test or search for shape invariance")
    _add_input_flags(p, tabulated=False)
    _add_grid_flags(p)
    p.add_argument("--transform", choices=_TRANSFORM_KINDS, default=None,
                   dest="transform_kind",
                   help="transform kind to verify (with knobs) or to restrict "
                        "the search to (without)")
    p.add_argument("--alpha", type=_finite_float, default=None, help="translation step")
    p.add_argument("--q", type=_finite_float, default=None, help="scaling/projective factor")
    p.add_argument("--p", type=_finite_float, default=None,
                   help="power (power-scaling) or offset (projective)")
    p.add_argument("--on", default=None, dest="on_param",
                   help="parameter the transform acts on")
    p.add_argument("--search", action="store_true", dest="force_search",
                   help="search even when the record declares a transform")
    p.add_argument("--budget", type=int, default=33)
    p.add_argument("--tolerance", type=float, default=None)
    _add_common_flags(p, fmt_default=None)
    p.set_defaults(fmt="json")

    p = sub.add_parser("spectrum", help="algebraic vs oracle energies side by side")
    _add_input_flags(p, tabulated=False)
    _add_grid_flags(p)
    p.add_argument("--levels", type=int, default=3, dest="n_levels")
    p.add_argument("--budget", type=int, default=33)
    _add_common_flags(p)

    p = sub.add_parser("wavefunctions", help="chain-built states and node counts")
    _add_input_flags(p, tabulated=False)
    _add_grid_flags(p)
    p.add_argument("--levels", type=int, default=2, dest="n_levels")
    p.add_argument("--budget", type=int, default=33)
    _add_common_flags(p)

    p = sub.add_parser("classify", help="four-set membership tag")
    _add_input_flags(p)
    _add_grid_flags(p)
    p.add_argument("--budget", type=int, default=33)
    p.add_argument("--fig", metavar="PATH", default=None,
                   help="also write a graph-description text file")
    _add_common_flags(p, fmt_default=None)
    p.set_defaults(fmt="json")

    p = sub.add_parser("algebra-check", help="verify the charge algebra numerically")
    _add_input_flags(p, tabulated=False)
    _add_grid_flags(p)
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


def _parse_threads(parser: _Parser) -> int:
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        parser.error(f"{THREADS_ENV}={raw!r} is not an integer")
    if n < 1:
        parser.error(f"{THREADS_ENV} must be >= 1, got {n}")
    return n


def parse_args(argv: list[str]) -> RunConfig:
    """Parse and validate argv into a RunConfig; usage errors exit 1."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    cfg = RunConfig(command=ns.command)

    cfg.fmt = getattr(ns, "fmt", "csv")
    cfg.output = getattr(ns, "output", None)
    cfg.dump_config = getattr(ns, "dump_config", False)
    cfg.threads = _parse_threads(parser)

    if ns.command == "catalog":
        cfg.name = ns.name
        if cfg.name is not None:
            try:
                get_record(cfg.name)
            except SusyQMError as exc:
                parser.error(str(exc))
        return cfg

    cfg.catalog = getattr(ns, "catalog", None)
    cfg.w = getattr(ns, "w", None)
    cfg.tabulated = getattr(ns, "tabulated", None)
    sources = [s for s in (cfg.catalog, cfg.w, cfg.tabulated) if s is not None]
    if len(sources) == 0:
        parser.error(f"{ns.command} needs an input: --catalog, --w"
                     + (" or --tabulated" if hasattr(ns, "tabulated") else ""))
    if len(sources) > 1:
        parser.error("conflicting inputs: give exactly one of "
                     "--catalog, --w, --tabulated")

    cfg.params = _parse_params(parser, ns.param)
    if cfg.tabulated is not None and cfg.params:
        parser.error("--param applies to --catalog or --w inputs only")

    cfg.x_min = ns.x_min
    cfg.x_max = ns.x_max
    cfg.n_points = ns.n_points
    if cfg.tabulated is not None and (cfg.x_min is not None or cfg.x_max is not None
                                      or cfg.n_points is not None):
        parser.error("grid overrides do not apply to --tabulated input "
                     "(the file fixes the grid)")
    if cfg.n_points is not None and cfg.n_points < 3:
        parser.error(f"--points must be >= 3, got {cfg.n_points}")
    if cfg.n_points is not None and cfg.n_points > MAX_POINTS:
        parser.error(f"--points must be at most {MAX_POINTS}, got {cfg.n_points}")
    if cfg.x_min is not None and cfg.x_max is not None and cfg.x_min >= cfg.x_max:
        parser.error(f"--x-min must be below --x-max, got [{cfg.x_min}, {cfg.x_max}]")

    cfg.n_levels = getattr(ns, "n_levels", cfg.n_levels)
    if cfg.n_levels < 0:
        parser.error(f"--levels must be nonnegative, got {cfg.n_levels}")
    if cfg.n_levels > MAX_LEVELS:
        parser.error(f"--levels must be at most {MAX_LEVELS}, got {cfg.n_levels}")
    cfg.depth = getattr(ns, "depth", cfg.depth)
    if cfg.depth < 1:
        parser.error(f"--depth must be at least 1, got {cfg.depth}")
    if cfg.depth > MAX_DEPTH:
        parser.error(f"--depth must be at most {MAX_DEPTH}, got {cfg.depth}")
    cfg.tolerance = getattr(ns, "tolerance", None)
    if cfg.tolerance is not None and not (math.isfinite(cfg.tolerance) and cfg.tolerance > 0):
        parser.error(f"--tolerance must be a positive finite number, got {cfg.tolerance}")
    cfg.budget = getattr(ns, "budget", cfg.budget)
    if cfg.budget < 1:
        parser.error(f"--budget must be positive, got {cfg.budget}")
    if cfg.budget > MAX_BUDGET:
        parser.error(f"--budget must be at most {MAX_BUDGET}, got {cfg.budget}")
    cfg.fig = getattr(ns, "fig", None)

    if cfg.w is not None:
        try:
            cfg.family = SuperpotentialFamily.from_expression(cfg.w)
        except ExpressionError as exc:
            parser.error(f"--w: {exc}")
        missing = [n for n in cfg.family.parameter_names if n not in cfg.params]
        if missing:
            parser.error(f"--w uses parameters {missing} with no --param value")
        extra = [n for n in cfg.params if n not in cfg.family.parameter_names]
        if extra:
            parser.error(f"--param names {extra} do not appear in the expression")

    if cfg.catalog is not None:
        try:
            rec = get_record(cfg.catalog)
            merged_params(rec, cfg.params)
        except SusyQMError as exc:
            parser.error(str(exc))
        if ns.command in _NEEDS_FAMILY + ("solve", "hierarchy") and rec.expression is None:
            parser.error(f"record {cfg.catalog!r} declares only its transform "
                         f"and R; {ns.command} needs a superpotential")

    if ns.command == "hierarchy" and cfg.output is None:
        parser.error("hierarchy writes one CSV per level; --output DIR is required")

    if ns.command == "si-check":
        cfg.transform_kind = ns.transform_kind
        cfg.alpha, cfg.q, cfg.p = ns.alpha, ns.q, ns.p
        cfg.on_param = ns.on_param
        cfg.force_search = ns.force_search
        knobs = {"--alpha": cfg.alpha, "--q": cfg.q, "--p": cfg.p}
        given = [k for k, v in knobs.items() if v is not None]
        if given and cfg.transform_kind is None:
            parser.error(f"{given[0]} needs --transform")
        if cfg.transform_kind == "translation" and (cfg.q is not None or cfg.p is not None):
            parser.error("translation takes --alpha only")
        if cfg.transform_kind in ("scaling", "power-scaling", "projective") \
                and cfg.alpha is not None:
            parser.error(f"{cfg.transform_kind} takes --q/--p, not --alpha")
        if cfg.transform_kind == "power-scaling" and cfg.p is not None \
                and cfg.p != int(cfg.p):
            parser.error(f"power-scaling needs integer --p, got {cfg.p}")

    return cfg


# -- output plumbing ------------------------------------------------------------


def _round12(doc):
    """Clamp every float in a JSON document to 12 significant digits."""
    if isinstance(doc, bool) or doc is None:
        return doc
    if isinstance(doc, int):
        return doc
    if isinstance(doc, float):
        return float(FLOAT_FMT % doc) if math.isfinite(doc) else doc
    if isinstance(doc, dict):
        return {k: _round12(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_round12(v) for v in doc]
    return doc


def _json_text(doc) -> str:
    return json.dumps(_round12(doc), indent=2, sort_keys=True) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", newline="\n") as fh:
            fh.write(text)


def _grid_dict(grid: Grid1D) -> dict:
    return {"x_min": grid.x_min, "x_max": grid.x_max, "n_points": grid.n_points}


# -- input resolution -----------------------------------------------------------


def _read_tabulated(path: str) -> GridFunction:
    return GridFunction.from_csv(Path(path).read_text())


def _resolve_grid(cfg: RunConfig) -> Grid1D:
    """Base grid from the input source, then explicit overrides on top."""
    if cfg.tabulated is not None:
        return _read_tabulated(cfg.tabulated).grid
    if cfg.catalog is not None:
        rec = get_record(cfg.catalog)
        base = record_grid(rec) if rec.domain is not None \
            else make_grid(-10.0, 10.0, DEFAULT_N_POINTS)
    elif cfg.family is not None:
        lo, hi = cfg.family.domain
        base = make_grid(lo, hi, DEFAULT_N_POINTS)
    else:
        base = make_grid(-10.0, 10.0, DEFAULT_N_POINTS)
    return make_grid(cfg.x_min if cfg.x_min is not None else base.x_min,
                     cfg.x_max if cfg.x_max is not None else base.x_max,
                     cfg.n_points if cfg.n_points is not None else base.n_points)


def _family_and_params(cfg: RunConfig) -> tuple[SuperpotentialFamily, dict]:
    if cfg.catalog is not None:
        rec = get_record(cfg.catalog)
        return rec.family, merged_params(rec, cfg.params)
    return cfg.family, dict(cfg.params)


def _potential(cfg: RunConfig, grid: Grid1D) -> GridFunction:
    """The potential a command's oracle runs on: V for tabulated input,
    V- otherwise."""
    if cfg.tabulated is not None:
        return _read_tabulated(cfg.tabulated)
    if cfg.catalog is not None:
        pair, _ = instantiate(cfg.catalog, cfg.params, grid)
        return pair.v_minus
    family, a0 = _family_and_params(cfg)
    return partner_potentials(family, a0, grid).v_minus


def _pinned_transform(cfg: RunConfig) -> ParameterTransform | None:
    """Fully specified transform from flags, or None when the knob is absent."""
    kind = cfg.transform_kind
    if kind == "translation" and cfg.alpha is not None:
        return Translation(cfg.alpha, param=cfg.on_param)
    if kind == "scaling" and cfg.q is not None:
        return Scaling(cfg.q, param=cfg.on_param)
    if kind == "power-scaling" and cfg.q is not None and cfg.p is not None:
        return PowerScaling(cfg.q, int(cfg.p), param=cfg.on_param)
    if kind == "projective" and cfg.q is not None and cfg.p is not None:
        return Projective(cfg.q, cfg.p, param=cfg.on_param)
    return None


# -- commands ---------------------------------------------------------------------


def _cmd_solve(cfg: RunConfig) -> None:
    grid = _resolve_grid(cfg)
    pairs = solve_potential(_potential(cfg, grid), cfg.n_levels + 1)
    if cfg.fmt == "csv":
        _emit(spectrum_csv(pairs), cfg.output)
    else:
        _emit(_json_text(solution_to_dict(pairs)), cfg.output)


def _cmd_partner(cfg: RunConfig) -> None:
    grid = _resolve_grid(cfg)
    family, a0 = _family_and_params(cfg)
    if cfg.catalog is not None:
        pair, w = instantiate(cfg.catalog, cfg.params, grid)
    else:
        pair = partner_potentials(family, a0, grid)
        w = pair.w_used
    if cfg.fmt == "csv":
        lines = ["x,v_minus,v_plus,w"]
        for i, x in enumerate(grid.x):
            lines.append(",".join(FLOAT_FMT % v for v in
                                  (x, pair.v_minus.values[i],
                                   pair.v_plus.values[i], w.values[i])))
        _emit("\n".join(lines) + "\n", cfg.output)
    else:
        doc = {
            "grid": _grid_dict(grid),
            "x": [float(v) for v in grid.x],
            "v_minus": [float(v) for v in pair.v_minus.values],
            "v_plus": [float(v) for v in pair.v_plus.values],
            "w": [float(v) for v in w.values],
        }
        _emit(_json_text(doc), cfg.output)


def _decay_sides(cfg: RunConfig) -> str:
    if cfg.catalog is not None:
        rec = get_record(cfg.catalog)
        if rec.family is not None:
            return rec.family.decay_sides
    if cfg.family is not None:
        return cfg.family.decay_sides
    return "both"


def _cmd_hierarchy(cfg: RunConfig) -> None:
    grid = _resolve_grid(cfg)
    hier = build_hierarchy(_potential(cfg, grid), cfg.depth,
                           sides=_decay_sides(cfg))
    out_dir = Path(cfg.output)
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


def _cmd_si_check(cfg: RunConfig) -> None:
    grid = _resolve_grid(cfg)
    family, a0 = _family_and_params(cfg)
    pinned = _pinned_transform(cfg)
    if pinned is None and cfg.catalog is not None and not cfg.force_search \
            and cfg.transform_kind is None:
        pinned = get_record(cfg.catalog).transform

    if pinned is not None:
        report = si_residual(family, a0, pinned, grid, cfg.tolerance)
        doc = {"searched": False, "found": report.passed,
               "transform": pinned.to_dict(), "params_start": a0,
               "params_next": pinned.apply(a0), "report": report.to_dict()}
        _emit(_json_text(doc), cfg.output)
        return

    candidates = default_candidates(family.parameter_names)
    if cfg.transform_kind is not None:
        candidates = [c for c in candidates if c.kind == cfg.transform_kind]
    found = search_transform(family, a0, grid, candidates, cfg.budget, cfg.tolerance)
    if found is None:
        doc = {"searched": True, "found": False, "params_start": a0}
    else:
        transform, report = found
        doc = {"searched": True, "found": True,
               "transform": transform.to_dict(), "params_start": a0,
               "params_next": transform.apply(a0), "report": report.to_dict()}
    _emit(_json_text(doc), cfg.output)


def _spectrum_rows(cfg: RunConfig, grid: Grid1D) -> tuple[list[dict], bool]:
    """(n, algebraic, oracle) rows; oracle is None for records without a
    superpotential.  Oracle energies are reported relative to the oracle
    ground level, matching the algebraic convention E0 = 0."""
    if cfg.catalog is not None:
        rec = get_record(cfg.catalog)
        spec = closed_form_spectrum(cfg.catalog, cfg.params, cfg.n_levels)
        entries = [e for e in spec.entries if e.valid]
        truncated = spec.truncated or len(entries) < len(spec.entries)
        if rec.family is None:
            rows = [{"n": e.n, "algebraic": e.energy, "oracle": None}
                    for e in entries]
            return rows, truncated
        pair, _ = instantiate(cfg.catalog, cfg.params, grid)
        oracle = solve_potential(pair.v_minus, len(entries))
        e0 = oracle[0].energy
        rows = [{"n": e.n, "algebraic": e.energy,
                 "oracle": oracle[e.n].energy - e0} for e in entries]
        return rows, truncated

    family, a0 = _family_and_params(cfg)
    found = search_transform(family, a0, grid, None, cfg.budget)
    if found is None:
        raise SusyQMError(
            "no shape-invariant structure found within the search budget; "
            "an algebraic spectrum needs one (try solve for oracle-only energies)")
    transform, _ = found
    spec = spectrum_from_measured_residuals(family, transform, a0, grid,
                                            cfg.n_levels)
    v_minus = partner_potentials(family, a0, grid).v_minus
    oracle = solve_potential(v_minus, len(spec.entries))
    e0 = oracle[0].energy
    rows = [{"n": e.n, "algebraic": e.energy,
             "oracle": oracle[e.n].energy - e0} for e in spec.entries]
    return rows, spec.truncated


def _cmd_spectrum(cfg: RunConfig) -> None:
    grid = _resolve_grid(cfg)
    rows, truncated = _spectrum_rows(cfg, grid)
    if cfg.fmt == "csv":
        lines = ["n,algebraic,oracle"]
        for r in rows:
            oracle = "" if r["oracle"] is None else FLOAT_FMT % r["oracle"]
            lines.append(f"{r['n']},{FLOAT_FMT % r['algebraic']},{oracle}")
        _emit("\n".join(lines) + "\n", cfg.output)
    else:
        _emit(_json_text({"levels": rows, "truncated": truncated}), cfg.output)


def _cmd_wavefunctions(cfg: RunConfig) -> None:
    grid = _resolve_grid(cfg)
    family, a0 = _family_and_params(cfg)
    if cfg.catalog is not None:
        transform = get_record(cfg.catalog).transform
    else:
        found = search_transform(family, a0, grid, None, cfg.budget)
        if found is None:
            raise SusyQMError(
                "no shape-invariant structure found within the search budget; "
                "chain-built wavefunctions need one")
        transform = found[0]
    states = [wavefunction_chain(family, a0, transform, n, grid)
              for n in range(cfg.n_levels + 1)]
    nodes = [count_nodes(s) for s in states]
    if cfg.fmt == "csv":
        lines = ["x," + ",".join(f"psi_{n}" for n in range(len(states)))]
        for i, x in enumerate(grid.x):
            row = [FLOAT_FMT % x] + [FLOAT_FMT % s.values[i] for s in states]
            lines.append(",".join(row))
        _emit("\n".join(lines) + "\n", cfg.output)
    else:
        doc = {"grid": _grid_dict(grid),
               "states": [[float(v) for v in s.values] for s in states],
               "node_counts": nodes}
        _emit(_json_text(doc), cfg.output)


def _cmd_classify(cfg: RunConfig) -> None:
    grid = _resolve_grid(cfg)
    if cfg.catalog is not None:
        tag = classify_record(cfg.catalog, cfg.params, cfg.budget)
    elif cfg.tabulated is not None:
        tag = classify_tabulated(_read_tabulated(cfg.tabulated))
    else:
        family, a0 = _family_and_params(cfg)
        tag = classify_family(family, a0, grid, cfg.budget)
    if cfg.fig is not None:
        with open(cfg.fig, "w", newline="\n") as fh:
            fh.write(venn_graph_text(tag))
    _emit(_json_text(tag.to_dict()), cfg.output)


def _cmd_algebra_check(cfg: RunConfig) -> None:
    grid = _resolve_grid(cfg)
    family, a0 = _family_and_params(cfg)
    cm = charge_matrices(family, a0, grid)
    tolerance = 1e-10 if cfg.tolerance is None else cfg.tolerance
    report = verify_algebra(cm, tolerance)
    _emit(_json_text(report.to_dict()), cfg.output)


def _cmd_catalog(cfg: RunConfig) -> None:
    if cfg.name is not None:
        entry = next(e for e in catalog_dump() if e["name"] == cfg.name)
        _emit(_json_text(entry), cfg.output)
    elif cfg.fmt == "json":
        _emit(_json_text(catalog_dump()), cfg.output)
    else:
        _emit("\n".join(list_catalog()) + "\n", cfg.output)


_COMMANDS = {
    "solve": _cmd_solve,
    "partner": _cmd_partner,
    "hierarchy": _cmd_hierarchy,
    "si-check": _cmd_si_check,
    "spectrum": _cmd_spectrum,
    "wavefunctions": _cmd_wavefunctions,
    "classify": _cmd_classify,
    "algebra-check": _cmd_algebra_check,
    "catalog": _cmd_catalog,
}


def _config_doc(cfg: RunConfig) -> dict:
    doc = {
        "command": cfg.command,
        "grid": _grid_dict(_resolve_grid(cfg)) if cfg.command != "catalog"
                else _grid_dict(make_grid(-10.0, 10.0, DEFAULT_N_POINTS)),
        "params": cfg.params,
        "n_levels": cfg.n_levels,
        "depth": cfg.depth,
        "tolerance": cfg.tolerance,
        "budget": cfg.budget,
        "threads": cfg.threads,
        "input": cfg.input_dict(),
        "format": cfg.fmt,
        "output": cfg.output,
    }
    return doc


def run(cfg: RunConfig) -> int:
    """Dispatch a validated config; exit code 0 success, 2 computation failure."""
    try:
        _COMMANDS[cfg.command](cfg)
    except (SusyQMError, OSError, ValueError) as exc:
        sys.stderr.write(f"susyqm {cfg.command}: {exc}\n")
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    cfg = parse_args(sys.argv[1:] if argv is None else argv)
    if cfg.dump_config:
        try:
            sys.stdout.write(_json_text(_config_doc(cfg)))
        except (SusyQMError, OSError, ValueError) as exc:
            sys.stderr.write(f"susyqm {cfg.command}: {exc}\n")
            return 2
        return 0
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
