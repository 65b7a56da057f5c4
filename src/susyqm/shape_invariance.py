"""Shape invariance: parameter transforms, the residual test, and spectra.

A family is shape invariant under a parameter map f when
V₊(x, a₀) = V₋(x, a₁) + R(a₁) with a₁ = f(a₀) and R independent of x.  When
that holds, the bound spectrum is the running sum of R over the parameter
orbit and the excited states follow from repeated A† applications, no
eigensolver involved.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ChainConstructionError, EvaluationError, GridError, TransformError
from .grids import Grid1D, GridFunction, align_sign, count_nodes, normalize
from .susy import (SuperpotentialFamily, _zero_mode_ratios, apply_a_dagger,
                   partner_potentials, zero_mode)

#: Residual-stddev tolerance tiers: exact w′ vs tabulated finite differences.
ANALYTIC_TOL = 1e-6
FINITE_DIFF_TOL = 1e-4

#: Interior nodes dropped from each end before residual statistics, so edge
#: stencils of a finite-difference w′ never contaminate the verdict.
EDGE_TRIM = 2

#: Fewest trimmed-interior samples the residual statistic accepts.  One
#: sample has no spread, and two are not enough either: on a grid symmetric
#: about a node, V₊ − V₋ = 2w′ of an odd w is even, so its samples at ±x
#: always agree and a non-shape-invariant cubic would pass.
MIN_SAMPLES = 3

#: Default coarse samples per candidate of a transform search (and --budget).
DEFAULT_BUDGET = 33


def _params_close(a: dict, b: dict) -> bool:
    if set(a) != set(b):
        return False
    return all(abs(a[k] - b[k]) <= 1e-12 * (1.0 + abs(a[k])) for k in a)


class ParameterTransform:
    """Base of the five parameter-map variants; maps a parameter dict forward.

    Scalar variants act on one named parameter (``param``), defaulting to
    the only parameter when the dict has exactly one.  Applied to a
    parameter-free family (empty dict) every scalar variant is vacuous and
    the orbit is constant.

    A scalar variant is its knob check and its knob map, both taking the
    knob values in ``knobs`` order: construction runs the check, ``apply``
    runs the map on the target parameter.  A search candidate
    (``TransformCandidate``) holds the class and its fixed knobs and runs
    the same two on bare knob values, so its trials build no transform
    objects.  ``kind`` names the class only at the edges: the CLI's
    ``--transform`` flag and ``to_dict``.
    """

    kind = "base"
    #: (name, type) of each knob in constructor order, after which comes
    #: ``param``.  The CLI's knob flags coerce to these types, so ``p``
    #: stays an int where the class needs one.
    knobs: tuple[tuple[str, type], ...] = ()

    @staticmethod
    def check_knobs(*knobs) -> None:
        """Raise TransformError unless the knob values are in the class's domain."""

    @staticmethod
    def knob_map(a: float, *knobs) -> float:
        """The image of one parameter value under the class's map at these knobs."""
        raise NotImplementedError

    def __post_init__(self):
        self.check_knobs(*self._knob_values())

    def _knob_values(self) -> tuple:
        return tuple(getattr(self, name) for name, _ in self.knobs)

    def apply(self, params: dict) -> dict:
        return self._mapped(params, self.param, self._knob_values())

    def to_dict(self) -> dict:
        return {"kind": self.kind, **{name: getattr(self, name) for name, _ in self.knobs},
                "param": self.param}

    @staticmethod
    def _target(params: dict, param: str | None) -> str | None:
        if not params:
            return None
        if param is not None:
            if param not in params:
                raise TransformError(f"transform targets {param!r}, not in parameters {sorted(params)}")
            return param
        if len(params) == 1:
            return next(iter(params))
        raise TransformError(
            f"transform target is ambiguous for parameters {sorted(params)}; set param=")

    @classmethod
    def _mapped(cls, params: dict, param: str | None, knobs: tuple) -> dict:
        """params with the target parameter sent through ``knob_map``."""
        out = dict(params)
        target = cls._target(params, param)
        if target is None:
            return out
        try:
            new = cls.knob_map(float(params[target]), *knobs)
        except (ZeroDivisionError, OverflowError) as exc:
            raise TransformError(f"transform undefined at {target}={params[target]}: "
                                 f"{exc.args[-1]}") from None
        if not math.isfinite(new):
            raise TransformError(f"transform sends {target}={params[target]} to a non-finite value")
        out[target] = new
        return out


@dataclass(frozen=True)
class Translation(ParameterTransform):
    """a → a + alpha."""

    alpha: float
    param: str | None = None
    kind = "translation"
    knobs = (("alpha", float),)

    @staticmethod
    def knob_map(a: float, alpha: float) -> float:
        return a + alpha


@dataclass(frozen=True)
class Scaling(ParameterTransform):
    """a → q·a with 0 < q < 1."""

    q: float
    param: str | None = None
    kind = "scaling"
    knobs = (("q", float),)

    @staticmethod
    def check_knobs(q: float) -> None:
        if not 0.0 < q < 1.0:
            raise TransformError(f"scaling requires 0 < q < 1, got q={q}")

    @staticmethod
    def knob_map(a: float, q: float) -> float:
        return q * a


@dataclass(frozen=True)
class PowerScaling(ParameterTransform):
    """a → q·aᵖ with 0 < q < 1 and integer p."""

    q: float
    p: int
    param: str | None = None
    kind = "power-scaling"
    knobs = (("q", float), ("p", int))

    @staticmethod
    def check_knobs(q: float, p: int) -> None:
        if not 0.0 < q < 1.0:
            raise TransformError(f"power scaling requires 0 < q < 1, got q={q}")
        if not isinstance(p, int) or isinstance(p, bool):
            raise TransformError(f"power scaling requires integer p, got {p!r}")

    @staticmethod
    def knob_map(a: float, q: float, p: int) -> float:
        return q * a**p


@dataclass(frozen=True)
class Projective(ParameterTransform):
    """a → q·a/(1 + p·a) with q > 0 and p < 1."""

    q: float
    p: float
    param: str | None = None
    kind = "projective"
    knobs = (("q", float), ("p", float))

    @staticmethod
    def check_knobs(q: float, p: float) -> None:
        if not q > 0.0:
            raise TransformError(f"projective requires q > 0, got q={q}")
        if not p < 1.0:
            raise TransformError(f"projective requires p < 1, got p={p}")

    @staticmethod
    def knob_map(a: float, q: float, p: float) -> float:
        denom = 1.0 + p * a
        if denom == 0.0:
            raise TransformError(f"projective map singular at a={a}")
        return q * a / denom


@dataclass(frozen=True)
class Cyclic(ParameterTransform):
    """Extensional cycle a₀ → a₁ → ... → a_{p-1} → a₀ of parameter dicts."""

    values: tuple[dict, ...]
    kind = "cyclic"

    def __post_init__(self):
        if len(self.values) < 1:
            raise TransformError("cyclic transform needs at least one parameter map")
        object.__setattr__(self, "values", tuple(dict(v) for v in self.values))

    @property
    def period(self) -> int:
        return len(self.values)

    def apply(self, params: dict) -> dict:
        for k, v in enumerate(self.values):
            if _params_close(params, v):
                return dict(self.values[(k + 1) % self.period])
        raise TransformError(f"parameters {params} are not on the declared cycle")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "period": self.period, "values": list(self.values)}


def iterate_params(t: ParameterTransform, a0: dict, n: int) -> list[dict]:
    """Orbit a₀..aₙ (length n+1): repeated application of the transform to a0."""
    if n < 0:
        raise ValueError(f"orbit length must be nonnegative, got n={n}")
    orbit = [dict(a0)]
    for _ in range(n):
        orbit.append(t.apply(orbit[-1]))
    return orbit


# -- residual test ---------------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    """Interior statistics of V₊(x, a₀) − V₋(x, f(a₀)).

    ``residual_mean`` is the R(a₁) estimate; the test passes when the
    pointwise spread is negligible against the mean, i.e. the residual
    carries no x dependence at this tolerance.
    """

    residual_mean: float
    residual_stddev: float
    passed: bool
    tolerance_used: float

    def to_dict(self) -> dict:
        return asdict(self)


def _default_tolerance(family: SuperpotentialFamily) -> float:
    return ANALYTIC_TOL if family.analytic_derivative else FINITE_DIFF_TOL


def _check_samples(grid: Grid1D) -> None:
    """Raise GridError if the residual statistic would get too few samples."""
    if grid.n_points - 2 * EDGE_TRIM < MIN_SAMPLES:
        raise GridError(f"{grid.n_points} grid points are too few for the shape-invariance "
                        f"residual; it needs at least {MIN_SAMPLES + 2 * EDGE_TRIM}")


def _residual_reports(res: np.ndarray, tolerance: float) -> list[ResidualReport]:
    """One report per row of V₊ − V₋ (full grid): trimmed-interior mean,
    spread, and the pass rule.  The only place the statistic is computed.

    res is overwritten.  The mean is computed once and serves both figures;
    each row goes through the ufuncs of ``inner.mean(axis=1)`` and
    ``inner.std(axis=1)`` in their order, so both come out equal to those
    bit for bit, without their temporaries.
    """
    inner = np.atleast_2d(res)[:, EDGE_TRIM:-EDGE_TRIM]
    count = inner.shape[1]
    means = np.add.reduce(inner, axis=1, keepdims=True)
    np.true_divide(means, count, out=means)
    np.subtract(inner, means, out=inner)
    np.square(inner, out=inner)
    stddevs = np.add.reduce(inner, axis=1)
    np.true_divide(stddevs, count, out=stddevs)
    np.sqrt(stddevs, out=stddevs)
    return [ResidualReport(mean, stddev, stddev < tolerance * (1.0 + abs(mean)), tolerance)
            for mean, stddev in zip(means[:, 0].tolist(), stddevs.tolist())]


def si_residual(family: SuperpotentialFamily, a0: dict, t: ParameterTransform,
                grid: Grid1D, tolerance: float | None = None) -> ResidualReport:
    """Test V₊(x, a₀) = V₋(x, a₁) + R(a₁) pointwise on the trimmed interior."""
    _check_samples(grid)
    if tolerance is None:
        tolerance = _default_tolerance(family)
    a1 = t.apply(a0)
    v_plus = partner_potentials(family, a0, grid).v_plus
    v_minus = partner_potentials(family, a1, grid).v_minus
    return _residual_reports(v_plus.values - v_minus.values, tolerance)[0]


# -- algebraic spectra -------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumEntry:
    n: int
    energy: float
    valid: bool = True


@dataclass(frozen=True)
class Spectrum:
    """Bound-level energies E₀=0, Eₙ = Σₖ₌₁ⁿ R(aₖ).

    ``truncated`` marks an early stop because some R(aₖ) was nonpositive:
    past that point the recursion no longer describes new bound states.
    ``valid`` flags on entries come from family-specific validity predicates
    (catalog); the generic recursion leaves them True.
    """

    entries: list[SpectrumEntry]
    truncated: bool = False

    @property
    def energies(self) -> list[float]:
        return [e.energy for e in self.entries]


def _partial_sums(steps: Iterable[float]) -> Spectrum:
    """E₀ = 0 and Eₙ = Σₖ₌₁ⁿ Rₖ over the step energies Rₖ, drawn one at a
    time; stops with the truncated flag at the first Rₖ ≤ 0, drawing no
    later step."""
    entries = [SpectrumEntry(0, 0.0)]
    energy = 0.0
    for k, r in enumerate(steps, 1):
        if r <= 0.0:
            return Spectrum(entries, truncated=True)
        energy += r
        entries.append(SpectrumEntry(k, energy))
    return Spectrum(entries)


def algebraic_spectrum(r_values: Callable[[dict], float], t: ParameterTransform,
                       a0: dict, n_max: int) -> Spectrum:
    """Run the spectrum recursion: partial sums of R along the orbit.

    ``r_values`` evaluates R at an orbit point aₖ (k ≥ 1).  Level 0 is
    exactly zero.  Stops early with the truncated flag when R(aₖ) ≤ 0.
    """
    orbit = iterate_params(t, a0, n_max)
    return _partial_sums(float(r_values(a)) for a in orbit[1:])


def spectrum_from_measured_residuals(family: SuperpotentialFamily, t: ParameterTransform,
                                     a0: dict, grid: Grid1D, n_max: int) -> Spectrum:
    """Spectrum recursion with R(aₖ) measured as the step-k residual mean.

    This is the route for families discovered by search rather than drawn
    from the catalog: no closed form for R is known, so each orbit step is
    measured.  Truncates when a step fails the residual test or turns
    nonpositive.
    """
    orbit = iterate_params(t, a0, n_max)

    def step(a: dict) -> float:
        report = si_residual(family, a, t, grid)
        return report.residual_mean if report.passed else 0.0

    return _partial_sums(step(a) for a in orbit[:-1])


# -- chain-built wavefunctions ------------------------------------------------------


def wavefunction_chain(family: SuperpotentialFamily, a0: dict, t: ParameterTransform,
                       n: int, grid: Grid1D) -> GridFunction:
    """ψₙ⁻(x, a₀) = A†(a₀)···A†(a_{n-1}) ψ₀⁻(x, aₙ), normalized.

    Requires the residual test to pass first; the built state must carry
    exactly n nodes or the construction is reported as failed.
    """
    if n < 0:
        raise ValueError(f"level index must be nonnegative, got n={n}")
    report = si_residual(family, a0, t, grid)
    if not report.passed:
        raise TransformError(
            f"shape-invariance residual test failed (stddev {report.residual_stddev:.3e} "
            f"at tolerance {report.tolerance_used:.1e}); chain construction undefined")
    orbit = iterate_params(t, a0, n)
    psi = zero_mode(family, orbit[n], grid, sign=-1)
    for k in reversed(range(n)):
        psi = apply_a_dagger(family, orbit[k], psi)
    psi = align_sign(normalize(psi))
    nodes = count_nodes(psi)
    if nodes != n:
        raise ChainConstructionError(
            f"chain state for level {n} carries {nodes} node(s); construction unreliable "
            "at this grid or parameters")
    return psi


# -- transform search ---------------------------------------------------------------


_UNIT_INSET = (1.0 / 32.0, 1.0 - 1.0 / 32.0)

#: The searchable transform classes in scan order, each with the interval
#: its first knob is scanned on and the values its other knobs are fixed
#: at, one tuple per candidate.  Open intervals like q ∈ (0,1) are scanned
#: on a closed inset.  Ties in residual quality resolve toward the earliest
#: entry.
_SEARCH_SPACES = (
    (Translation, (-5.0, 5.0), ((),)),
    (Scaling, _UNIT_INSET, ((),)),
    (PowerScaling, _UNIT_INSET, ((2,), (3,))),
    (Projective, _UNIT_INSET, ((0.25,), (0.5,))),
)

#: Kind name -> class, for every searchable transform kind, in scan order.
TRANSFORM_KINDS: dict[str, type[ParameterTransform]] = {
    cls.kind: cls for cls, _, _ in _SEARCH_SPACES}


@dataclass(frozen=True)
class TransformCandidate:
    """One bounded scalar search space: a searchable transform class, the
    interval of its first knob, the values of its other knobs (``fixed``,
    in ``cls.knobs`` order and of those types), and the parameter it acts
    on.  A trial at first-knob value θ is ``cls(θ, *fixed, param=param)``.
    Construction refuses a class that is not in ``TRANSFORM_KINDS``."""

    cls: type[ParameterTransform]
    lo: float
    hi: float
    fixed: tuple = ()
    param: str | None = None

    def __post_init__(self):
        if self.cls not in TRANSFORM_KINDS.values():
            raise TransformError(f"{self.cls.__name__} is not a searchable transform class")

    def build(self, theta: float) -> ParameterTransform:
        return self.cls(theta, *self.fixed, param=self.param)

    def map_params(self, theta: float, params: dict) -> dict:
        """``build(theta).apply(params)`` through the class's knob check and
        map alone, with no transform built: the same values, the same
        TransformError texts."""
        self.cls.check_knobs(theta, *self.fixed)
        return self.cls._mapped(params, self.param, (theta, *self.fixed))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_ITERS = 80

#: A found step energy must exceed the residual spread by this factor.
#: Near an R = 0 degeneracy the refiner can park a knob within machine
#: distance of the mirror point, where mean and stddev are both the same
#: noise scale; a genuine R sits orders of magnitude above the spread.
_MEAN_OVER_SPREAD = 10.0


def default_candidates(parameter_names: Sequence[str]) -> list[TransformCandidate]:
    """The stock bounded search spaces, expanded per family parameter:
    kind, then parameter, then fixed second knob, as listed in
    ``_SEARCH_SPACES``.  A parameter-free family gets the single vacuous
    translation candidate.
    """
    if not parameter_names:
        return [TransformCandidate(Translation, 0.0, 0.0)]
    return [TransformCandidate(cls, lo, hi, fixed, name)
            for cls, (lo, hi), knob_sets in _SEARCH_SPACES
            for name in parameter_names for fixed in knob_sets]


#: Byte budget of each float64 array of one scoring block: 6 rows at 2001
#: points.  Blocks this small are served from the allocator's heap and
#: reused from block to block, where the 528 KB arrays of a 33-row batch
#: were mapped and unmapped on every call (about 10,000 minor page faults
#: per search-sweep operation).  On that workload (2 cores, seed 3) 96 KiB
#: had the lowest median: 64 KiB paid more per-block overhead, 128 KiB split
#: the 12 rows of a two-parameter refine step unevenly, and 192 KiB and up
#: brought back about 300 page faults per operation with no faster median.
_BLOCK_BYTES = 96 * 1024


def _block_rows(grid: Grid1D) -> int:
    """Trials per scoring block on this grid: at least one."""
    return max(1, _BLOCK_BYTES // (8 * grid.n_points))


def _trial_count(budget: int) -> int:
    # next 2^m + 1 at or above the budget, so larger budgets nest smaller ones
    m = 1
    while 2**m + 1 < max(3, budget):
        m += 1
    return 2**m + 1


def _minus_sector_decays(family: SuperpotentialFamily, params: dict,
                         grid: Grid1D) -> bool:
    """ψ₀⁻ must decay from its peak and out-decay ψ₀⁺ at these parameters.

    Relative comparison on purpose: a strict threshold would reject ladders
    whose transformed ground state decays slowly on a finite box, while the
    degenerate mirror solutions this rejects have ψ₀⁻ peaking at the edge.
    """
    r_minus, r_plus = _zero_mode_ratios(family, params, grid)
    return r_minus < 1.0 and r_minus < r_plus


def _score_trials(family: SuperpotentialFamily, a0: dict, v_plus: np.ndarray,
                  trials: Sequence[tuple[TransformCandidate, float]], grid: Grid1D,
                  tolerance: float) -> list[tuple[float, ResidualReport | None]]:
    """si_residual's report for each (candidate, knob value) trial, against a
    V₊(a₀) tabulated once; (inf, None) where si_residual would raise
    TransformError or EvaluationError, or where V₋(a₁) is not finite.

    Only V₋(a₁) = w(a₁)² − w′(a₁) depends on the trial.  Each a₁ comes from
    the candidate's scalar knob check and map (``map_params``), the code
    ``apply`` runs, so the rows see exactly si_residual's parameter values
    and no transform object is built; each row carries a₀'s names, so
    ``w_rows`` finds no parameter missing.  The trials are tabulated and scored
    in blocks of consecutive rows, whichever candidates they come from, each
    block's arrays within ``_BLOCK_BYTES``: ``w_rows`` tabulates a block in
    one call, and one buffer per call holds V₋ and then the residual of each
    block.  One finiteness pass over V₋ finds the misses: a non-finite w or
    w′, or a w² − w′ that overflows (si_residual raises GridError there;
    in a search it is a trial the search made up, so it scores as a miss).
    A row's ufuncs do not depend on its block, so every score equals
    si_residual's bit for bit however the trials are split.
    """
    scored: list[tuple[float, ResidualReport | None]] = [(math.inf, None)] * len(trials)
    live, rows = [], []
    for i, (cand, theta) in enumerate(trials):
        try:
            rows.append(cand.map_params(theta, a0))
        except TransformError:
            continue
        live.append(i)
    size = _block_rows(grid)
    buf = np.empty((min(size, len(rows)), grid.n_points))
    # A miss row may hold inf or nan, and w² may overflow where w is finite.
    with np.errstate(all="ignore"):
        for start in range(0, len(rows), size):
            w, w_prime = family.w_rows(grid, rows[start:start + size])
            block = live[start:start + size]
            res = buf[:len(block)]
            np.multiply(w, w, out=res)
            np.subtract(res, w_prime, out=res)
            finite = np.isfinite(res).all(axis=1)
            if not finite.all():
                block = [i for i, ok in zip(block, finite) if ok]
                res = res[finite]
            np.subtract(v_plus, res, out=res)
            for i, report in zip(block, _residual_reports(res, tolerance)):
                scored[i] = (report.residual_stddev, report)
    return scored


@dataclass(frozen=True)
class SearchRow:
    """What one candidate came to in a transform search.

    ``finalists`` are the best coarse sample and, for an interval, the
    refined knob value (empty when no sample scored finite).  ``theta`` is
    the finalist kept: the accepted one with the smallest score, else the
    one with the smallest score (ties to the first).  ``gate`` names what
    rejected it, None when it was accepted: ``"no-finite-score"``,
    ``"tolerance"`` (the residual test failed), ``"mean-over-spread"``
    (the step energy does not clear the spread) or ``"minus-sector-decay"``
    (the transformed ψ₀⁻ does not decay).
    """

    candidate: TransformCandidate
    finalists: tuple[float, ...]
    theta: float | None
    report: ResidualReport | None
    gate: str | None

    @property
    def score(self) -> float:
        """The residual stddev of ``theta``'s trial; inf when none scored finite."""
        return math.inf if self.report is None else self.report.residual_stddev

    @property
    def transform(self) -> ParameterTransform:
        return self.candidate.build(self.theta)


def best_accepted(rows: Iterable[SearchRow]) -> SearchRow | None:
    """The accepted row with the smallest score, ties to the earliest; None
    when no row was accepted."""
    return min((row for row in rows if row.gate is None), key=lambda row: row.score,
               default=None)


def search_transform(family: SuperpotentialFamily, a0: dict, grid: Grid1D,
                     candidates: Sequence[TransformCandidate] | None = None,
                     budget: int = DEFAULT_BUDGET,
                     tolerance: float | None = None,
                     record: list[SearchRow] | None = None
                     ) -> tuple[ParameterTransform, ResidualReport] | None:
    """Scan candidate transforms for one that passes the residual test.

    Returns (transform, report) for the passing candidate with the smallest
    residual stddev (ties to the earliest candidate); ``report`` is what
    ``si_residual`` reports for that transform at a₀.  None means only that
    no candidate passed within this budget: evidence, not proof of absence.

    Each candidate's knob is sampled on a nested deterministic grid and its
    best sample golden-section refined, all candidates in lockstep
    (``_golden_lockstep``); scores are memoized per candidate and knob
    value.  ``_score_trials`` scores the trials against V₊(a₀), tabulated
    once per search.

    Degenerate "transforms" that merely flip or kill the superpotential can
    flatten the residual without describing a bound-state ladder, so a
    passing transform must have a residual mean well clear of the residual
    spread (an R = 0 flip measured through refiner noise has the two at the
    same scale) and leave the transformed family with a decaying
    minus-sector zero mode (a mirrored w → −w solution decays in the plus
    sector instead).

    Candidates are refined and judged independently, so each one's row is
    what a search over that candidate alone would find.  When ``record`` is
    a list, a search that returns appends one SearchRow per candidate to
    it, in candidate order; ``best_accepted`` of any subset of the rows is
    the result of a search over those candidates alone (classify reads the
    best translation this way).

    Raises, before any trial is scored and with nothing appended to
    ``record``: GridError on a grid too small for the residual statistic
    or where V₊(a₀) overflows, EvaluationError where w cannot be evaluated
    at a₀.
    """
    _check_samples(grid)
    if candidates is None:
        candidates = default_candidates(family.parameter_names)
    if tolerance is None:
        tolerance = _default_tolerance(family)
    trials = _trial_count(budget)
    v_plus = partner_potentials(family, a0, grid).v_plus.values

    memos: list[dict[float, tuple[float, ResidualReport | None]]] = [{} for _ in candidates]

    def objective(requests: Sequence[tuple[int, float]]
                  ) -> list[tuple[float, ResidualReport | None]]:
        # requests are (candidate index, knob value); one call scores them all
        new = [(k, th) for k, th in dict.fromkeys(requests) if th not in memos[k]]
        if new:
            scored = _score_trials(family, a0, v_plus, [(candidates[k], th) for k, th in new],
                                   grid, tolerance)
            for (k, th), score in zip(new, scored):
                memos[k][th] = score
        return [memos[k][th] for k, th in requests]

    def gate(cand: TransformCandidate, theta: float, report: ResidualReport | None) -> str | None:
        # Gates run on the refined endpoint only: applied mid-scan they
        # turn near-optimal samples into cliffs and strand the refiner.
        if report is None:
            return "no-finite-score"
        if not report.passed:
            return "tolerance"
        if report.residual_mean <= _MEAN_OVER_SPREAD * report.residual_stddev:
            return "mean-over-spread"
        # A finite score means a₁ maps and w(a₁) is finite: the zero modes evaluate.
        decays = _minus_sector_decays(family, cand.map_params(theta, a0), grid)
        return None if decays else "minus-sector-decay"

    # Phase 1: coarse scan, every candidate's samples in one scoring call.
    # Keep the coarse winner alongside the refined theta: at small budgets
    # the refine window can straddle a rejected degenerate basin and
    # converge into it even when the coarse sample already sat on an
    # acceptable minimum.
    samples = [[cand.lo] if cand.lo == cand.hi else list(np.linspace(cand.lo, cand.hi, trials))
               for cand in candidates]
    coarse = iter(objective([(k, th) for k, thetas in enumerate(samples) for th in thetas]))
    finalists: dict[int, list[float]] = {}
    windows: dict[int, tuple[float, float]] = {}
    for k, (cand, thetas) in enumerate(zip(candidates, samples)):
        scores = [next(coarse)[0] for _ in thetas]
        i_best = int(np.argmin(scores))
        if not math.isfinite(scores[i_best]):
            continue
        finalists[k] = [thetas[i_best]]
        if cand.lo < cand.hi:
            span = (cand.hi - cand.lo) / (len(thetas) - 1)
            windows[k] = (max(cand.lo, thetas[i_best] - span),
                          min(cand.hi, thetas[i_best] + span))

    # Phase 2: every refine advances one golden-section step per scoring call.
    refined = _golden_lockstep(windows,
                               lambda requests: [score for score, _ in objective(requests)])
    for k, theta in refined.items():
        finalists[k].append(theta)

    # Phase 3: judge each candidate's finalists; keep the best accepted one,
    # else the best scored one, with the gate that rejected it.
    rows = []
    for k, cand in enumerate(candidates):
        thetas = finalists.get(k, [])
        judged = [SearchRow(cand, tuple(thetas), theta, report, gate(cand, theta, report))
                  for theta, (_, report) in zip(thetas, objective([(k, th) for th in thetas]))]
        pool = [row for row in judged if row.gate is None] or judged
        rows.append(min(pool, key=lambda row: row.score) if pool else
                    SearchRow(cand, (), None, None, "no-finite-score"))
    if record is not None:
        record.extend(rows)
    best = best_accepted(rows)
    return None if best is None else (best.transform, best.report)


def _golden_lockstep(windows: dict[int, tuple[float, float]],
                     score: Callable[[list[tuple[int, float]]], list[float]]
                     ) -> dict[int, float]:
    """Golden-section minimum on each [lo, hi] window, fixed iteration
    count; the minimizers by window key.

    All windows move one step per ``score`` call, which gets (window key,
    knob value) pairs and returns their scores in order: every window's
    opening (c, d) in the first call, then one knob value per window per
    call.  With no windows, ``score`` is never called.
    """
    # per window: a, b, c, d and the scores fc, fd of c and d, as floats
    state = {key: [float(lo), float(hi)] for key, (lo, hi) in windows.items()}
    if not state:
        return {}
    for w in state.values():
        a, b = w
        w += (b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
    opening = score([(key, th) for key, w in state.items() for th in w[2:]])
    for w, fc, fd in zip(state.values(), opening[::2], opening[1::2]):
        w += (fc, fd)
    for _ in range(_REFINE_ITERS):
        moved = []  # state index of each window's new point: 2 (c) or 3 (d)
        for w in state.values():
            a, b, c, d, fc, fd = w
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                moved.append(2)
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                moved.append(3)
            w[:] = a, b, c, d, fc, fd
        scores = score([(key, w[i]) for (key, w), i in zip(state.items(), moved)])
        for w, i, f in zip(state.values(), moved, scores):
            w[i + 2] = f
    return {key: c if fc <= fd else d for key, (_, _, c, d, fc, fd) in state.items()}
