"""Shape invariance: the residual test, spectra, chain states and the transform search.

A family is shape invariant under a parameter map f when
V₊(x, a₀) = V₋(x, a₁) + R(a₁) with a₁ = f(a₀) and R independent of x.  When
that holds, the bound spectrum is the running sum of R over the parameter
orbit and the excited states follow from repeated A† applications, no
eigensolver involved.

The parameter transforms live in ``transforms``, which loads no numpy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ChainConstructionError, EvaluationError, GridError, TransformError
from .grids import Grid1D, GridFunction, align_sign, count_nodes, normalize
from .susy import (SuperpotentialFamily, _checked_tolerance, _zero_mode_ratios,
                   apply_a_dagger, partner_potentials, zero_mode)
from .transforms import (_SEARCH_SPACES, DEFAULT_BUDGET, MAX_BUDGET, TRANSFORM_KINDS,
                         ParameterTransform, Translation)

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


def _check_count(n, what: str) -> None:
    """ValueError unless the count n (an orbit length or level index) is a
    nonnegative integer."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"{what} n={n!r} must be an integer")
    if n < 0:
        raise ValueError(f"{what} must be nonnegative, got n={n}")


def iterate_params(t: ParameterTransform, a0: dict, n: int) -> list[dict]:
    """Orbit a₀..aₙ (length n+1): repeated application of the transform to a0.
    ValueError unless n is a nonnegative integer."""
    _check_count(n, "orbit length")
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


def _tolerance(family: SuperpotentialFamily, tolerance: float | None) -> float:
    """The residual tolerance: the family's tier when None; ValueError unless
    it is positive and finite."""
    if tolerance is None:
        return ANALYTIC_TOL if family.analytic_derivative else FINITE_DIFF_TOL
    return _checked_tolerance(tolerance)


def _check_samples(grid: Grid1D) -> None:
    """Raise GridError if the residual statistic would get too few samples."""
    if grid.n_points - 2 * EDGE_TRIM < MIN_SAMPLES:
        raise GridError(f"{grid.n_points} grid points are too few for the shape-invariance "
                        f"residual; it needs at least {MIN_SAMPLES + 2 * EDGE_TRIM}")


def _report(mean: float, stddev: float, tolerance: float) -> ResidualReport:
    """The report of one residual's statistic: the pass rule, stated once."""
    return ResidualReport(mean, stddev, stddev < tolerance * (1.0 + abs(mean)), tolerance)


def _trimmed_stats(rows: np.ndarray, trim: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation of columns [trim, n − trim) of each row of
    a 2-D array.  The only place the residual statistic is computed.

    rows is overwritten: the means are subtracted and the result squared in
    place over the whole rows, which on contiguous rows runs about twice as
    fast as on a strided interior view and leaves the interior values the
    same.  The mean is computed once and serves both figures; each row goes
    through the ufuncs of ``inner.mean(axis=1)`` and ``inner.std(axis=1)``
    in their order, so both come out equal to those bit for bit, without
    their temporaries.
    """
    inner = rows[:, trim:rows.shape[1] - trim]
    count = inner.shape[1]
    means = np.add.reduce(inner, axis=1, keepdims=True)
    np.true_divide(means, count, out=means)
    np.subtract(rows, means, out=rows)
    np.square(rows, out=rows)
    stddevs = np.add.reduce(inner, axis=1)
    np.true_divide(stddevs, count, out=stddevs)
    np.sqrt(stddevs, out=stddevs)
    return means[:, 0], stddevs


def _residual_reports(res: np.ndarray, tolerance: float) -> list[ResidualReport]:
    """One report per row of V₊ − V₋ (full grid): ``_trimmed_stats`` of the
    trimmed interior and ``_report``'s pass rule.  res is overwritten, its
    edge nodes untouched, so an edge value cannot raise a warning."""
    means, stddevs = _trimmed_stats(np.atleast_2d(res)[:, EDGE_TRIM:-EDGE_TRIM], 0)
    return [_report(mean, stddev, tolerance)
            for mean, stddev in zip(means.tolist(), stddevs.tolist())]


def _orbit_steps(family: SuperpotentialFamily, orbit: Sequence[dict], grid: Grid1D,
                 tolerance: float | None = None) -> Iterator[ResidualReport]:
    """Each orbit step's report on V₊(aₖ) − V₋(aₖ₊₁), drawn lazily; aₖ₊₁'s pair
    is carried forward, so each point is tabulated once, none past the last draw."""
    tolerance = _tolerance(family, tolerance)
    if len(orbit) > 1:
        _check_samples(grid)
        v_plus = partner_potentials(family, orbit[0], grid).v_plus.values
    for a in orbit[1:]:
        pair = partner_potentials(family, a, grid)
        yield _residual_reports(v_plus - pair.v_minus.values, tolerance)[0]
        v_plus = pair.v_plus.values


def si_residual(family: SuperpotentialFamily, a0: dict, t: ParameterTransform,
                grid: Grid1D, tolerance: float | None = None) -> ResidualReport:
    """Test V₊(x, a₀) = V₋(x, a₁) + R(a₁) pointwise on the trimmed interior;
    ValueError unless ``tolerance`` is None or positive and finite."""
    _check_samples(grid)
    return next(_orbit_steps(family, [a0, t.apply(a0)], grid, tolerance))


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
    later step, and raises EvaluationError at a non-finite Rₖ."""
    entries = [SpectrumEntry(0, 0.0)]
    energy = 0.0
    for k, r in enumerate(steps, 1):
        if not math.isfinite(r):
            raise EvaluationError(f"spectrum step {k} has a non-finite energy R = {r}")
        if r <= 0.0:
            return Spectrum(entries, truncated=True)
        energy += r
        entries.append(SpectrumEntry(k, energy))
    return Spectrum(entries)


def algebraic_spectrum(r_values: Callable[[dict], float], t: ParameterTransform,
                       a0: dict, n_max: int) -> Spectrum:
    """Run the spectrum recursion: partial sums of R along the orbit.

    ``r_values`` evaluates R at an orbit point aₖ (k ≥ 1).  Level 0 is
    exactly zero.  Stops early with the truncated flag when R(aₖ) ≤ 0, and
    raises EvaluationError when R(aₖ) is not finite.
    """
    orbit = iterate_params(t, a0, n_max)
    return _partial_sums(float(r_values(a)) for a in orbit[1:])


def spectrum_from_measured_residuals(family: SuperpotentialFamily, t: ParameterTransform,
                                     a0: dict, grid: Grid1D, n_max: int) -> Spectrum:
    """Spectrum recursion with R(aₖ) measured as the step-k residual mean.

    This is the route for families discovered by search rather than drawn
    from the catalog: no closed form for R is known, so each orbit step is
    measured (``_orbit_steps``, each orbit point tabulated once, none past
    the truncating step).  Truncates when a step fails the residual test or
    turns nonpositive.
    """
    orbit = iterate_params(t, a0, n_max)
    return _partial_sums(r.residual_mean if r.passed else 0.0
                         for r in _orbit_steps(family, orbit, grid))


# -- chain-built wavefunctions ------------------------------------------------------


def wavefunction_chain(family: SuperpotentialFamily, a0: dict, t: ParameterTransform,
                       n: int, grid: Grid1D) -> GridFunction:
    """ψₙ⁻(x, a₀) = A†(a₀)···A†(a_{n-1}) ψ₀⁻(x, aₙ), normalized.

    Requires the residual test to pass first; the built state must carry
    exactly n nodes or the construction is reported as failed.  ValueError
    unless n is a nonnegative integer, before any evaluation.
    """
    _check_count(n, "level index")
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


@dataclass(frozen=True)
class TransformCandidate:
    """One bounded scalar search space: a searchable transform class, the
    interval of its first knob, the values of its other knobs (``fixed``,
    in ``cls.knobs`` order and of those types), and the parameter it acts
    on.  A trial at first-knob value θ is ``cls(θ, *fixed, param=param)``.
    Construction refuses a class that is not in ``TRANSFORM_KINDS``, and a
    ``fixed`` that is not a tuple of one real number per knob after the
    first; the class's knob check judges their values, trial by trial."""

    cls: type[ParameterTransform]
    lo: float
    hi: float
    fixed: tuple = ()
    param: str | None = None

    def __post_init__(self):
        if self.cls not in TRANSFORM_KINDS.values():
            raise TransformError(f"{self.cls.__name__} is not a searchable transform class")
        names = [name for name, _ in self.cls.knobs[1:]]
        if not (isinstance(self.fixed, tuple) and len(self.fixed) == len(names)
                and all(isinstance(v, numbers.Real) for v in self.fixed)):
            raise TransformError(f"{self.cls.__name__} candidates fix {names} to real "
                                 f"numbers, got fixed={self.fixed!r}")

    def build(self, theta: float) -> ParameterTransform:
        return self.cls(theta, *self.fixed, param=self.param)


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


#: Byte budget of the residual buffer of one scoring block: 6 rows at 2001
#: points.  The rows of a block share one ``_trimmed_stats`` call, a buffer
#: this small stays in cache, and the 12 rows of a two-parameter refine
#: step split evenly.  The size was chosen on search-sweep (2 cores, seed
#: 3) when whole blocks were tabulated at once: 64 KiB paid more per-block
#: overhead and 128 KiB split those 12 rows unevenly.
_BLOCK_BYTES = 96 * 1024


def _block_rows(grid: Grid1D) -> int:
    """Trials per scoring block on this grid: at least one."""
    return max(1, _BLOCK_BYTES // (8 * grid.n_points))


def _checked_budget(budget: int) -> int:
    """The search budget; ValueError unless it is an integer in [1, MAX_BUDGET]."""
    if not (isinstance(budget, (int, np.integer)) and 1 <= budget <= MAX_BUDGET):
        raise ValueError(f"budget must be an integer in [1, {MAX_BUDGET}], got {budget!r}")
    return budget


def _trial_count(budget: int) -> int:
    """Coarse samples per candidate: the next 2^m + 1 at or above the
    budget, so larger budgets nest smaller ones."""
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


#: Column index of each edge node the residual statistic trims.
_EDGE_NODES = np.array([*range(EDGE_TRIM), *range(-EDGE_TRIM, 0)])


def _mapped_trials(a0: dict, trials: Sequence[tuple[TransformCandidate, float]]
                   ) -> list[tuple[str | None, float | None] | None]:
    """Each trial's a₁ as (target name, image), None where the trial misses.

    Each trial runs ``_target``, the class's knob check and ``_image``, the
    code ``apply`` runs, so a trial misses exactly where
    ``build(theta).apply(a0)`` raises TransformError.  A target of None (no
    parameters) keeps a₀ as it is: its image is None.
    """
    mapped = []
    for cand, theta in trials:
        knobs = (theta, *cand.fixed)
        try:
            target, value = cand.cls._target(a0, cand.param)
            cand.cls.check_knobs(*knobs)
            mapped.append((target, None if target is None
                           else cand.cls._image(a0, target, value, knobs)))
        except TransformError:
            mapped.append(None)
    return mapped


def _score_trials(family: SuperpotentialFamily, a0: dict, v_plus: np.ndarray,
                  images: Sequence[tuple[str | None, float | None]], grid: Grid1D
                  ) -> list[tuple[float, float | None]]:
    """(stddev, mean) of si_residual's statistic for each a₁, given as
    ``_mapped_trials``' (target, image), against a V₊(a₀) tabulated once;
    (inf, None) where si_residual would raise EvaluationError, or where
    V₋(a₁) is not finite.  a₀ must hold every parameter of the family.

    Only V₋(a₁) = w(a₁)² − w′(a₁) depends on a₁, so the scores know no
    candidate or knob.  Each a₁ is tabulated as one row by
    ``SuperpotentialFamily._w_rows``, and each row's residual V₊ − V₋ goes
    into one buffer of ``_block_rows`` rows; ``_trimmed_stats`` scores each
    full block in place.

    A row is live when w² − w′ is finite (si_residual raises GridError
    where it overflows; in a search it is a trial the search made up, so it
    scores as a miss).  The interior sum the mean needs decides that: a row
    whose mean and edge nodes are finite holds a finite residual, so a
    finite w² − w′; every other row of the block gets the exact
    isfinite(w² − w′) test on the w and w′ it was computed from.  A row's
    ufuncs do not depend on its block, so every figure equals si_residual's
    bit for bit however the images are split.
    """
    scored: list[tuple[float, float | None]] = [(math.inf, None)] * len(images)
    size = _block_rows(grid)
    buf = np.empty((min(size, len(images)), grid.n_points))
    kept: list[tuple[int, np.ndarray | float, np.ndarray | float]] = []  # the block's rows

    def score_block():
        res = buf[:len(kept)]
        np.subtract(v_plus, res, out=res)
        edges = np.isfinite(res.take(_EDGE_NODES, axis=1)).all(axis=1)
        means, stddevs = _trimmed_stats(res, EDGE_TRIM)
        ok = edges & np.isfinite(means)
        for (i, w, w_prime), keep, mean, stddev in zip(kept, ok.tolist(), means.tolist(),
                                                       stddevs.tolist()):
            if keep or np.isfinite(w * w - w_prime).all():
                scored[i] = (stddev, mean)
        kept.clear()

    # A row may hold inf or nan, and w² may overflow where w is finite.
    with np.errstate(all="ignore"):
        for i, row in enumerate(family._w_rows(grid, a0, images)):
            if row is None:
                continue
            w, w_prime = row
            res = buf[len(kept)]
            np.multiply(w, w, out=res)
            np.subtract(res, w_prime, out=res)
            kept.append((i, w, w_prime))
            if len(kept) == size:
                score_block()
        if kept:
            score_block()
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
    (``_golden_lockstep``).  A trial's score depends only on its a₁
    (``_mapped_trials``), so the search keeps one memo from a₁, keyed by
    the image's exact bits, to (stddev, mean): ``_score_trials`` scores
    only the a₁ no earlier trial of any candidate reached, against V₊(a₀)
    tabulated once per search, and is not called when there are none.
    Only the finalists are made into reports.

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
    or where V₊(a₀) overflows, ValueError on a tolerance that is not
    positive and finite or a budget that is not an integer in [1,
    MAX_BUDGET], EvaluationError where w cannot be evaluated at a₀.
    """
    _check_samples(grid)
    if candidates is None:
        candidates = default_candidates(family.parameter_names)
    tolerance = _tolerance(family, tolerance)
    trials = _trial_count(_checked_budget(budget))
    v_plus = partner_potentials(family, a0, grid).v_plus.values

    # a₁ -> (stddev, mean), keyed by the image's bits (0.0 and −0.0 are
    # different a₁); a trial that maps to no a₁ has the key None
    memo: dict[tuple | None, tuple[float, float | None]] = {None: (math.inf, None)}

    def objective(requests: Sequence[tuple[int, float]]) -> list[tuple[float, float | None]]:
        # requests are (candidate index, knob value); one call scores every new a₁
        mapped = _mapped_trials(a0, [(candidates[k], th) for k, th in requests])
        keys = [a1 and (a1[0], a1[1] if a1[1] is None else a1[1].hex()) for a1 in mapped]
        new = {key: a1 for key, a1 in zip(keys, mapped) if key not in memo}
        if new:
            memo.update(zip(new, _score_trials(family, a0, v_plus, list(new.values()), grid)))
        return [memo[key] for key in keys]

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
        decays = _minus_sector_decays(family, cand.build(theta).apply(a0), grid)
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
    # else the best scored one, with the gate that rejected it.  Only
    # finalists get a report.
    rows = []
    for k, cand in enumerate(candidates):
        thetas = finalists.get(k, [])
        reports = [None if mean is None else _report(mean, score, tolerance)
                   for score, mean in objective([(k, th) for th in thetas])]
        judged = [SearchRow(cand, tuple(thetas), theta, report, gate(cand, theta, report))
                  for theta, report in zip(thetas, reports)]
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
