"""Built-in shape-invariant families: the regression corpus for everything else.

Four translational records carry full superpotential forms (full line,
exponential wall, and half line); the scaling and cyclic records declare
only the parameter map and R, which is all their spectrum needs.  Default
domains are pinned per record so results are reproducible without tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache, cached_property
from typing import Callable

from .errors import CatalogError
from .expressions import (NumpyCode, assemble_scalar, compile_scalar, differentiate,
                          generate_on_grid, generate_scalar, parameter_names,
                          parse_expression)
from .grids import Grid1D, GridFunction, make_grid
from .shape_invariance import (Cyclic, ParameterTransform, Scaling, Spectrum,
                               SpectrumEntry, Translation, algebraic_spectrum,
                               iterate_params)
from .susy import PartnerPair, SuperpotentialFamily, partner_potentials


@dataclass(frozen=True)
class SIPRecord:
    """One catalog entry.

    ``expression`` is the superpotential w(x; a) as text, or None for
    records that declare only the (transform, R) pair; they have no x-space
    form here.  ``r_closed_form`` is an expression in the record's
    parameters giving R at an orbit point (the post-step parameter values).
    ``validity`` says whether the level whose orbit parameters are given is
    a genuine bound state.  ``min_x`` is the closest the grid may start to a
    singular point; a record that sets it is a half-line problem with a hard
    wall on the left.

    ``family`` and ``r_function`` are built on first access, so listing or
    dumping the catalog builds nothing.  ``family`` is
    SuperpotentialFamily.from_expression of the record's text.  Both are
    assembled from the numpy code generated ahead of time for the built-in
    records (``_compiled_catalog``, looked up by expression text), which
    loads no sympy; an expression not found there is parsed and compiled
    from its text.
    """

    name: str
    expression: str | None
    transform: ParameterTransform
    r_closed_form: str
    default_params: dict
    validity: Callable[[dict], bool]
    domain: tuple[float, float, int] | None
    notes: str
    min_x: float | None = None

    @cached_property
    def family(self) -> SuperpotentialFamily | None:
        if self.expression is None:
            return None
        return SuperpotentialFamily.from_expression(
            self.expression, domain=self.domain[:2], hard_wall_left=self.min_x is not None)

    @cached_property
    def r_function(self) -> Callable[[dict], float]:
        from . import _compiled_catalog

        code = _compiled_catalog.R_FUNCTIONS.get(_r_key(self))
        if code is None:
            return compile_scalar(parse_expression(self.r_closed_form),
                                  sorted(self.default_params))
        return assemble_scalar(code)


def _r_key(record: SIPRecord) -> tuple[str, tuple[str, ...]]:
    """R's code depends on the parameter list as well as the text."""
    return record.r_closed_form, tuple(sorted(record.default_params))


def _always_valid(params: dict) -> bool:
    return True


def _positive_a(params: dict) -> bool:
    return params["A"] > 0.0


@cache
def _catalog() -> dict[str, SIPRecord]:
    records = [
        SIPRecord(
            name="shifted-harmonic",
            expression="omega*x",
            transform=Translation(0.0, param="omega"),
            r_closed_form="2*omega",
            default_params={"omega": 1.0},
            validity=_always_valid,
            domain=(-10.0, 10.0, 2001),
            notes="oscillator with its ground energy shifted to zero; "
                  "the parameter map is the identity and R is constant",
        ),
        SIPRecord(
            name="morse",
            expression="A - exp(-x)",
            transform=Translation(-1.0, param="A"),
            r_closed_form="2*A + 1",
            default_params={"A": 2.0},
            validity=_positive_a,
            domain=(-3.5, 10.0, 2701),
            notes="exponential wall on the left, finitely many levels: "
                  "level n is bound only while A - n > 0 (strict)",
        ),
        SIPRecord(
            name="poschl-teller",
            expression="A*tanh(x)",
            transform=Translation(-1.0, param="A"),
            r_closed_form="2*A + 1",
            default_params={"A": 2.0},
            validity=_positive_a,
            domain=(-10.0, 10.0, 2001),
            notes="sech-squared well; same level rule as morse (A - n > 0)",
        ),
        SIPRecord(
            name="coulomb-radial",
            expression="q/(2*(l+1)) - (l+1)/x",
            transform=Translation(1.0, param="l"),
            r_closed_form="q^2/4 * (1/l^2 - 1/(l+1)^2)",
            default_params={"q": 2.0, "l": 0.0},
            validity=_always_valid,
            domain=(1e-3, 160.0, 6401),
            notes="half-line radial problem; the grid starts at r = 1e-3 to "
                  "dodge the singularity, so near-wall values are an "
                  "interpretation, not the infinite-line limit",
            min_x=1e-3,
        ),
        SIPRecord(
            name="scaling-demo",
            expression=None,
            transform=Scaling(0.5, param="a"),
            r_closed_form="a",
            default_params={"a": 1.0},
            validity=_always_valid,
            domain=None,
            notes="declared (transform, R) pair only; the x-space potential "
                  "is a series form not carried here, the spectrum is",
        ),
        SIPRecord(
            name="cyclic-demo",
            expression=None,
            transform=Cyclic(({"c": 2.0}, {"c": 1.0})),
            r_closed_form="c",
            default_params={"c": 2.0},
            validity=_always_valid,
            domain=None,
            notes="period-2 parameter cycle; R alternates between the two "
                  "cycle values, interleaving two arithmetic ladders",
        ),
    ]
    return {rec.name: rec for rec in records}


def list_catalog() -> list[str]:
    return list(_catalog())


def get_record(name: str) -> SIPRecord:
    try:
        return _catalog()[name]
    except KeyError:
        raise CatalogError(
            f"unknown catalog record {name!r}; available: {', '.join(_catalog())}") from None


def record_grid(record: SIPRecord) -> Grid1D:
    """The record's pinned default grid."""
    if record.domain is None:
        raise CatalogError(f"record {record.name!r} has no x-space form, so no grid")
    return make_grid(*record.domain)


def _check_singular_region(record: SIPRecord, grid: Grid1D) -> None:
    """A half-line record's grid may not start closer than ``min_x`` to its
    singular point."""
    if record.min_x is not None and grid.x_min < record.min_x:
        raise CatalogError(
            f"grid starts at {grid.x_min}, inside the singular region of "
            f"{record.name!r}; x_min must be at least {record.min_x}")


def merged_params(record: SIPRecord, params: dict | None) -> dict:
    out = dict(record.default_params)
    if params:
        unknown = sorted(set(params) - set(out))
        if unknown:
            raise CatalogError(
                f"record {record.name!r} has no parameters {unknown}; "
                f"expected among {sorted(out)}")
        out.update(params)
    return out


def check_levels_valid(record: SIPRecord, a0: dict, n_max: int) -> None:
    """Raise CatalogError unless levels 0..n_max of the orbit from a0 all
    pass the record's validity rule, i.e. are genuine bound states."""
    for n, params in enumerate(iterate_params(record.transform, a0, n_max)):
        if not record.validity(params):
            raise CatalogError(
                f"parameters {a0} violate validity of record {record.name!r} at level {n}")


def closed_form_spectrum(name: str, params: dict | None, n_max: int) -> Spectrum:
    """Eq.-of-record spectrum: the generic recursion plus validity flags.

    Energies are exactly those of algebraic_spectrum run on the record's
    closed-form R; entries whose orbit parameters leave the validity region
    come back flagged invalid rather than dropped.
    """
    rec = get_record(name)
    a0 = merged_params(rec, params)
    check_levels_valid(rec, a0, 0)
    base = algebraic_spectrum(rec.r_function, rec.transform, a0, n_max)
    orbit = iterate_params(rec.transform, a0, len(base.entries) - 1)
    flagged = [SpectrumEntry(e.n, e.energy, rec.validity(orbit[e.n]))
               for e in base.entries]
    return Spectrum(flagged, truncated=base.truncated)


def instantiate(name: str, params: dict | None, grid: Grid1D) -> tuple[PartnerPair, GridFunction]:
    """Tabulate a record's partner potentials and superpotential on a grid."""
    rec = get_record(name)
    if rec.family is None:
        raise CatalogError(
            f"record {name!r} declares only its transform and R; "
            "it has no superpotential to tabulate")
    _check_singular_region(rec, grid)
    a0 = merged_params(rec, params)
    pair = partner_potentials(rec.family, a0, grid)
    return pair, pair.w_used


def catalog_dump() -> list[dict]:
    """JSON-ready summary of every record (for docs and the CLI): each field
    but ``validity``, with the transform as its ``to_dict``."""
    return [{f.name: getattr(rec, f.name) for f in fields(rec) if f.name != "validity"}
            | {"transform": rec.transform.to_dict()} for rec in _catalog().values()]


#: Shell command that rewrites ``_compiled_catalog.py`` from the records.
_REGENERATE = ("PYTHONPATH=src python -c \"from susyqm.catalog import _render_compiled_catalog "
               "as r; open('src/susyqm/_compiled_catalog.py', 'w').write(r())\"")


def _render_code(code: NumpyCode, indent: str) -> list[str]:
    return [f"{indent}NumpyCode(",
            f"{indent}    text={code.text!r},",
            f"{indent}    params={code.params!r},",
            f"{indent}    source=(",
            *(f"{indent}        {line!r}" for line in code.source.splitlines(keepends=True)),
            f"{indent}    ),",
            f"{indent}    broadcasts={code.broadcasts!r},",
            f"{indent}),"]


def _render_compiled_catalog() -> str:
    """The text of ``_compiled_catalog.py``: the numpy code that
    SuperpotentialFamily.from_expression and compile_scalar generate for
    each record's w, w′ and R.  Needs sympy."""
    lines = [
        '"""Generated numpy code of the catalog records\' expressions.  Do not edit.',
        "",
        "SuperpotentialFamily.from_expression assembles w and w' from this code",
        "and SIPRecord.r_function assembles R, so a command on a built-in record",
        "loads no sympy.  Regenerate after changing a record's expression or R, or",
        "after upgrading sympy, from the root of a source checkout:",
        "",
        f"    {_REGENERATE}",
        '"""',
        "",
        "from .expressions import NumpyCode",
        "",
        "#: Superpotential text -> (w, w') code.",
        "FAMILIES = {",
    ]
    records = list(_catalog().values())
    for rec in records:
        if rec.expression is None:
            continue
        expr = parse_expression(rec.expression)
        params = parameter_names(expr)
        lines.append(f"    {rec.expression!r}: (")
        for e in (expr, differentiate(expr)):
            lines += _render_code(generate_on_grid(e, params), " " * 8)
        lines.append("    ),")
    lines += ["}", "", "#: (R text, sorted parameter names) -> R code.", "R_FUNCTIONS = {"]
    for key in dict.fromkeys(_r_key(rec) for rec in records):
        lines.append(f"    {key!r}:")
        lines += _render_code(generate_scalar(parse_expression(key[0]), list(key[1])), " " * 8)
    lines.append("}")
    return "\n".join(lines) + "\n"
