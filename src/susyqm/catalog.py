"""Built-in shape-invariant families: the regression corpus for everything else.

Four translational records carry full superpotential forms (full line,
exponential wall, and half line); the scaling and cyclic records declare
only the parameter map and R, which is all their spectrum needs.  Default
domains are pinned per record so results are reproducible without tuning.

The records, their names and their JSON summary load no numpy: this module
imports the numeric layers inside the functions that compute.  No record
loads sympy: each w is a text of the closed grammar (``_closed_grammar``),
and each R's code is generated ahead of time (``_compiled_catalog``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from functools import cache, cached_property
from typing import TYPE_CHECKING, Callable

from .errors import CatalogError
from .transforms import Cyclic, ParameterTransform, Scaling, Translation

if TYPE_CHECKING:
    from .grids import Grid1D, GridFunction
    from .shape_invariance import Spectrum
    from .susy import PartnerPair, SuperpotentialFamily


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
    SuperpotentialFamily.from_expression of the record's text; ``r_function``
    assembles the checked-in code of R (``_compiled_catalog``, looked up by
    R's text and parameters), or parses and compiles an R not found there.
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
        from .susy import SuperpotentialFamily

        return SuperpotentialFamily.from_expression(
            self.expression, domain=self.domain[:2], hard_wall_left=self.min_x is not None)

    @cached_property
    def r_function(self) -> Callable[[dict], float]:
        from . import _compiled_catalog
        from .expressions import assemble_scalar, compile_scalar, parse_expression

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
    except (KeyError, TypeError):  # TypeError: a name that cannot be a dict key
        raise CatalogError(
            f"unknown catalog record {name!r}; available: {', '.join(_catalog())}") from None


def record_grid(record: SIPRecord) -> Grid1D:
    """The record's pinned default grid."""
    from .grids import make_grid

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
        unreal = sorted(p for p, v in params.items() if not isinstance(v, numbers.Real))
        if unreal:
            raise CatalogError(f"record {record.name!r} parameters {unreal} are not real numbers")
        out.update(params)
    return out


def check_levels_valid(record: SIPRecord, a0: dict, n_max: int) -> None:
    """Raise CatalogError unless levels 0..n_max of the orbit from a0 all
    pass the record's validity rule, i.e. are genuine bound states."""
    from .shape_invariance import iterate_params

    for n, params in enumerate(iterate_params(record.transform, a0, n_max)):
        if not record.validity(params):
            raise CatalogError(
                f"parameters {a0} violate validity of record {record.name!r} at level {n}")


def closed_form_spectrum(name: str, params: dict | None, n_max: int) -> Spectrum:
    """Eq.-of-record spectrum: the generic recursion plus validity flags.

    Energies are exactly those of algebraic_spectrum run on the record's
    closed-form R; entries whose orbit parameters leave the validity region
    come back flagged invalid rather than dropped.  One orbit serves both.
    """
    from .shape_invariance import Spectrum, SpectrumEntry, _partial_sums, iterate_params

    rec = get_record(name)
    a0 = merged_params(rec, params)
    check_levels_valid(rec, a0, 0)
    orbit = iterate_params(rec.transform, a0, n_max)
    base = _partial_sums(float(rec.r_function(a)) for a in orbit[1:])
    return Spectrum([SpectrumEntry(e.n, e.energy, rec.validity(orbit[e.n]))
                     for e in base.entries], truncated=base.truncated)


def instantiate(name: str, params: dict | None, grid: Grid1D) -> tuple[PartnerPair, GridFunction]:
    """Tabulate a record's partner potentials and superpotential on a grid."""
    from .susy import partner_potentials

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


def _render_compiled_catalog() -> str:
    """The text of ``_compiled_catalog.py``: the numpy code that
    compile_scalar generates for each record's R.  Needs sympy."""
    from .expressions import generate_scalar, parse_expression

    lines = [
        '"""Generated numpy code of the catalog records\' R.  Do not edit.',
        "",
        "SIPRecord.r_function assembles R from this code, so a command on a",
        "built-in record loads no sympy (each record's w is a closed-grammar text).",
        "Regenerate after changing a record's R, or after upgrading sympy, from",
        "the root of a source checkout:",
        "",
        f"    {_REGENERATE}",
        '"""',
        "",
        "from .expressions import NumpyCode",
        "",
        "#: (R text, sorted parameter names) -> R code.",
        "R_FUNCTIONS = {",
    ]
    for key in dict.fromkeys(_r_key(rec) for rec in _catalog().values()):
        code = generate_scalar(parse_expression(key[0]), list(key[1]))
        lines += [f"    {key!r}:",
                  "        NumpyCode(",
                  f"            text={code.text!r},",
                  f"            params={code.params!r},",
                  "            source=(",
                  *(f"                {line!r}" for line in code.source.splitlines(keepends=True)),
                  "            ),",
                  "        ),"]
    lines.append("}")
    return "\n".join(lines) + "\n"
