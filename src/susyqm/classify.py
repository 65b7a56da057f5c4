"""Four-set membership: SUSY, shape-invariant, factorizable, exactly solvable.

Verdicts are epistemic, not mathematical: a bounded search that finds
nothing yields "no-within-search", never "no", and exact solvability is only
ever certified (via shape invariance) or left unknown, because solvable
families outside the shape-invariant class exist.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .catalog import SIPRecord, get_record, merged_params, record_grid
from .eigensolver import ground_state
from .errors import EvaluationError, NoBoundStateError
from .grids import Grid1D, GridFunction, boundary_amplitude_ratio
from .shape_invariance import (DEFAULT_BUDGET, ParameterTransform, SearchRow, Translation,
                               _checked_budget, best_accepted, default_candidates,
                               search_transform, si_residual)
from .susy import (partner_potentials, superpotential_from_ground_state,
                   susy_phase, SuperpotentialFamily)

YES = "yes"
NO = "no"
UNKNOWN = "unknown"
NO_WITHIN_SEARCH = "no-within-search"
CERTIFIED = "certified"

_SUSY_VALUES = (YES, NO, UNKNOWN)
_SEARCH_VALUES = (YES, NO_WITHIN_SEARCH, UNKNOWN)
_ES_VALUES = (CERTIFIED, UNKNOWN)


@dataclass(frozen=True)
class VennTag:
    """Membership verdicts plus the reports they rest on.

    Construction enforces the containment structure: shape invariance
    implies SUSY and certifies exact solvability, and a factorizable
    verdict implies shape invariance.
    """

    susy: str
    shape_invariant: str
    ih_factorizable: str
    exactly_solvable: str
    evidence: list[dict] = field(default_factory=list)

    def __post_init__(self):
        if self.susy not in _SUSY_VALUES:
            raise ValueError(f"susy={self.susy!r} not in {_SUSY_VALUES}")
        if self.shape_invariant not in _SEARCH_VALUES:
            raise ValueError(f"shape_invariant={self.shape_invariant!r} not in {_SEARCH_VALUES}")
        if self.ih_factorizable not in _SEARCH_VALUES:
            raise ValueError(f"ih_factorizable={self.ih_factorizable!r} not in {_SEARCH_VALUES}")
        if self.exactly_solvable not in _ES_VALUES:
            raise ValueError(f"exactly_solvable={self.exactly_solvable!r} not in {_ES_VALUES}")
        if self.shape_invariant == YES and self.susy != YES:
            raise ValueError("shape_invariant=yes requires susy=yes")
        if self.ih_factorizable == YES and self.shape_invariant != YES:
            raise ValueError("ih_factorizable=yes requires shape_invariant=yes")
        if self.shape_invariant == YES and self.exactly_solvable != CERTIFIED:
            raise ValueError("shape_invariant=yes requires exactly_solvable=certified")

    def to_dict(self) -> dict:
        return asdict(self)


def _oracle_susy(v_minus: GridFunction, sides: str,
                 evidence: list[dict]) -> str:
    """Bound-state test for V₋: one bound state makes the pair constructible."""
    try:
        pair = ground_state(v_minus, sides=sides)
    except NoBoundStateError as exc:
        evidence.append({"kind": "oracle-ground-state", "found": False,
                         "detail": str(exc)})
        return NO
    evidence.append({
        "kind": "oracle-ground-state",
        "found": True,
        "energy": pair.energy,
        "boundary_ratio": boundary_amplitude_ratio(pair.state, sides),
    })
    return YES


def _ih_verdict(found_transform: ParameterTransform, record: list[SearchRow], budget: int,
                evidence: list[dict]) -> str:
    """Factorizability = translational shape invariance.

    When the best transform is already a translation that settles it;
    otherwise the search record's best accepted translation decides, since
    a better-fitting scaling result says nothing about whether a
    translation also passes.  The search refines and judges each candidate
    on its own, so that row is what a search over translations alone finds.
    """
    if isinstance(found_transform, Translation):
        return YES
    row = best_accepted(row for row in record if row.candidate.cls is Translation)
    # "translation-rescan" names what the row equals: a search over
    # translations alone.
    if row is None:
        evidence.append({"kind": "translation-rescan", "found": False,
                         "budget": budget})
        return NO_WITHIN_SEARCH
    evidence.append({"kind": "translation-rescan", "found": True,
                     "transform": row.transform.to_dict(),
                     "report": row.report.to_dict()})
    return YES


def _classify(family: SuperpotentialFamily, a0: dict, grid: Grid1D, budget: int,
              evidence: list[dict], declared: ParameterTransform | None = None) -> VennTag:
    """SUSY by the oracle, then shape invariance, then factorizability.

    Shape invariance rests on the declared transform when it passes the
    residual test at a0, and on a transform search otherwise.  At most one
    search runs: a passing declared transform that is not a translation
    gets a search over translations alone, for the factorizability verdict.
    """
    try:
        pair = partner_potentials(family, a0, grid)
    except EvaluationError as exc:
        evidence.append({"kind": "evaluation", "detail": str(exc)})
        return VennTag(UNKNOWN, UNKNOWN, UNKNOWN, UNKNOWN, evidence)

    susy = _oracle_susy(pair.v_minus, family.decay_sides, evidence)
    evidence.append({"kind": "susy-phase",
                     "phase": susy_phase(family, a0, grid).value})
    if susy != YES:
        return VennTag(susy, UNKNOWN, UNKNOWN, UNKNOWN, evidence)

    record: list[SearchRow] = []
    report = None if declared is None else si_residual(family, a0, declared, grid)
    if report is not None and report.passed:
        evidence.append({"kind": "declared-transform-verified",
                         "report": report.to_dict()})
        transform = declared
        if not isinstance(declared, Translation):
            translations = [c for c in default_candidates(family.parameter_names)
                            if c.cls is Translation]
            search_transform(family, a0, grid, translations, budget, record=record)
    else:
        if report is not None:
            # A declared transform failing at these parameters is
            # unexpected; search rather than condemn the record.
            evidence.append({"kind": "declared-transform-failed",
                             "report": report.to_dict()})
        found = search_transform(family, a0, grid, None, budget, record=record)
        if found is None:
            evidence.append({"kind": "transform-search", "found": False,
                             "budget": budget})
            return VennTag(YES, NO_WITHIN_SEARCH, NO_WITHIN_SEARCH, UNKNOWN, evidence)
        transform, report = found
        evidence.append({"kind": "transform-search", "found": True,
                         "budget": budget,
                         "transform": transform.to_dict(),
                         "report": report.to_dict()})
    ih = _ih_verdict(transform, record, budget, evidence)
    return VennTag(YES, YES, ih, CERTIFIED, evidence)


def classify_family(family: SuperpotentialFamily, a0: dict, grid: Grid1D,
                    search_budget: int = DEFAULT_BUDGET) -> VennTag:
    """Classify a parametric superpotential family at given parameter values.

    ValueError, before anything is evaluated, on a search budget that is
    not an integer in [1, MAX_BUDGET], whether or not a search runs."""
    return _classify(family, a0, grid, _checked_budget(search_budget), [])


def classify_record(name_or_record: str | SIPRecord, params: dict | None = None,
                    search_budget: int = DEFAULT_BUDGET) -> VennTag:
    """Classify a catalog record, leaning on what the record declares.

    Records with a superpotential are classified like any family, except
    that their declared transform is tried before a search; records that
    declare only (transform, R) are shape invariant by construction, and
    their factorizability verdict can rest only on the declared transform's
    kind.  A search budget is checked as classify_family checks it.
    """
    _checked_budget(search_budget)
    rec = name_or_record if isinstance(name_or_record, SIPRecord) else get_record(name_or_record)
    a0 = merged_params(rec, params)
    evidence: list[dict] = [{"kind": "catalog-record", "name": rec.name,
                             "transform": rec.transform.to_dict()}]
    if rec.family is None:
        ih = YES if isinstance(rec.transform, Translation) else NO_WITHIN_SEARCH
        evidence.append({"kind": "declared-shape-invariance",
                         "r_closed_form": rec.r_closed_form})
        return VennTag(YES, YES, ih, CERTIFIED, evidence)
    return _classify(rec.family, a0, record_grid(rec), search_budget, evidence,
                     declared=rec.transform)


def classify_tabulated(v: GridFunction) -> VennTag:
    """Classify a bare tabulated potential.

    Without a parametric family there is nothing to transform, so the
    shape-invariance and factorizability questions stay unknown; SUSY
    membership is decided by bound-state detection plus constructibility of
    the partner machinery from the ground state.
    """
    evidence: list[dict] = []
    try:
        pair = ground_state(v)
    except NoBoundStateError as exc:
        evidence.append({"kind": "oracle-ground-state", "found": False,
                         "detail": str(exc)})
        return VennTag(NO, UNKNOWN, UNKNOWN, UNKNOWN, evidence)
    evidence.append({"kind": "oracle-ground-state", "found": True,
                     "energy": pair.energy})
    w = superpotential_from_ground_state(pair.state)
    evidence.append({"kind": "hierarchy-constructible",
                     "w_max_abs": float(abs(w.values).max())})
    return VennTag(YES, UNKNOWN, UNKNOWN, UNKNOWN, evidence)


def venn_graph_text(tag: VennTag) -> str:
    """Graph-description text of the four sets and the input's placement.

    DOT syntax: set nodes annotated with the verdicts, containment edges,
    and a point-shaped input marker attached to the deepest set the input
    certifiably belongs to (floating when membership is entirely open).
    """
    if tag.ih_factorizable == YES:
        anchor = "factorizable"
    elif tag.shape_invariant == YES:
        anchor = "shape-invariant"
    elif tag.susy == YES:
        anchor = "susy"
    else:
        anchor = None
    lines = [
        'graph venn {',
        '  node [shape=ellipse];',
        f'  "susy" [verdict="{tag.susy}"];',
        f'  "shape-invariant" [verdict="{tag.shape_invariant}"];',
        f'  "factorizable" [verdict="{tag.ih_factorizable}"];',
        f'  "exactly-solvable" [verdict="{tag.exactly_solvable}"];',
        '  "shape-invariant" -- "susy" [label="subset"];',
        '  "factorizable" -- "shape-invariant" [label="subset"];',
        '  "exactly-solvable" -- "shape-invariant" [label="contains"];',
        '  "input" [shape=point];',
    ]
    if anchor is not None:
        lines.append(f'  "input" -- "{anchor}" [label="member"];')
    else:
        lines.append('  // input placement undetermined')
    lines.append('}')
    return "\n".join(lines) + "\n"
