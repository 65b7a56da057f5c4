"""Shape invariance: parameter transforms, the residual test, and spectra.

A family is shape invariant under a parameter map f when
V₊(x, a₀) = V₋(x, a₁) + R(a₁) with a₁ = f(a₀) and R independent of x.  When
that holds, the bound spectrum is the running sum of R over the parameter
orbit and the excited states follow from repeated A† applications, no
eigensolver involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generator, Sequence

import numpy as np

from .errors import (ChainConstructionError, EvaluationError, GridError,
                     TransformError)
from .grids import (FLOAT_FMT, Grid1D, GridFunction, align_sign, count_nodes,
                    normalize)
from .susy import (SuperpotentialFamily, _zero_mode_ratios, apply_a_dagger,
                   partner_potentials, zero_mode)

#: Residual-stddev tolerance tiers: exact w′ vs tabulated finite differences.
ANALYTIC_TOL = 1e-6
FINITE_DIFF_TOL = 1e-4

#: Interior nodes dropped from each end before residual statistics, so edge
#: stencils of a finite-difference w′ never contaminate the verdict.
EDGE_TRIM = 2


def _params_close(a: dict, b: dict, rel: float = 1e-12) -> bool:
    if set(a) != set(b):
        return False
    return all(abs(a[k] - b[k]) <= rel * (1.0 + abs(a[k])) for k in a)


class ParameterTransform:
    """Base of the five parameter-map variants; maps a parameter dict forward.

    Scalar variants act on one named parameter (``param``), defaulting to
    the only parameter when the dict has exactly one.  Applied to a
    parameter-free family (empty dict) every scalar variant is vacuous and
    the orbit is constant.
    """

    kind = "base"
    #: (name, type) of each knob in constructor order, after which comes
    #: ``param``.  The CLI's knob flags and the search's candidates coerce
    #: to these types, so ``p`` stays an int where the class needs one.
    knobs: tuple[tuple[str, type], ...] = ()

    def apply(self, params: dict) -> dict:
        raise NotImplementedError

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

    def _mapped(self, params: dict, param: str | None,
                fn: Callable[[float], float]) -> dict:
        out = dict(params)
        target = self._target(params, param)
        if target is None:
            return out
        try:
            new = fn(float(params[target]))
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

    def apply(self, params: dict) -> dict:
        return self._mapped(params, self.param, lambda a: a + self.alpha)


@dataclass(frozen=True)
class Scaling(ParameterTransform):
    """a → q·a with 0 < q < 1."""

    q: float
    param: str | None = None
    kind = "scaling"
    knobs = (("q", float),)

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise TransformError(f"scaling requires 0 < q < 1, got q={self.q}")

    def apply(self, params: dict) -> dict:
        return self._mapped(params, self.param, lambda a: self.q * a)


@dataclass(frozen=True)
class PowerScaling(ParameterTransform):
    """a → q·aᵖ with 0 < q < 1 and integer p."""

    q: float
    p: int
    param: str | None = None
    kind = "power-scaling"
    knobs = (("q", float), ("p", int))

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise TransformError(f"power scaling requires 0 < q < 1, got q={self.q}")
        if not isinstance(self.p, int) or isinstance(self.p, bool):
            raise TransformError(f"power scaling requires integer p, got {self.p!r}")

    def apply(self, params: dict) -> dict:
        return self._mapped(params, self.param, lambda a: self.q * a**self.p)


@dataclass(frozen=True)
class Projective(ParameterTransform):
    """a → q·a/(1 + p·a) with q > 0 and p < 1."""

    q: float
    p: float
    param: str | None = None
    kind = "projective"
    knobs = (("q", float), ("p", float))

    def __post_init__(self):
        if not self.q > 0.0:
            raise TransformError(f"projective requires q > 0, got q={self.q}")
        if not self.p < 1.0:
            raise TransformError(f"projective requires p < 1, got p={self.p}")

    def apply(self, params: dict) -> dict:
        def fn(a: float) -> float:
            denom = 1.0 + self.p * a
            if denom == 0.0:
                raise TransformError(f"projective map singular at a={a}")
            return self.q * a / denom
        return self._mapped(params, self.param, fn)


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


@dataclass(frozen=True)
class ParameterOrbit:
    """a₀ and the iterated sequence a₀..a_n under one transform."""

    a0: dict
    sequence: list[dict]


def iterate_params(t: ParameterTransform, a0: dict, n: int) -> ParameterOrbit:
    """Orbit of length n+1: repeated application of the transform to a0."""
    if n < 0:
        raise ValueError(f"orbit length must be nonnegative, got n={n}")
    seq = [dict(a0)]
    for _ in range(n):
        seq.append(t.apply(seq[-1]))
    return ParameterOrbit(dict(a0), seq)


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
        return {
            "residual_mean": self.residual_mean,
            "residual_stddev": self.residual_stddev,
            "passed": self.passed,
            "tolerance_used": self.tolerance_used,
        }


def _default_tolerance(family: SuperpotentialFamily) -> float:
    return ANALYTIC_TOL if family.analytic_derivative else FINITE_DIFF_TOL


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

    def to_dict(self) -> dict:
        return {
            "entries": [{"n": e.n, "energy": e.energy, "valid": e.valid}
                        for e in self.entries],
            "truncated": self.truncated,
        }

    def to_csv(self, source: str = "algebraic") -> str:
        lines = ["n,energy,source"]
        for e in self.entries:
            lines.append(f"{e.n},{FLOAT_FMT % e.energy},{source}")
        return "\n".join(lines) + "\n"


def algebraic_spectrum(r_values: Callable[[dict], float], t: ParameterTransform,
                       a0: dict, n_max: int) -> Spectrum:
    """Run the spectrum recursion: partial sums of R along the orbit.

    ``r_values`` evaluates R at an orbit point aₖ (k ≥ 1).  Level 0 is
    exactly zero.  Stops early with the truncated flag when R(aₖ) ≤ 0.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    orbit = iterate_params(t, a0, n_max)
    entries = [SpectrumEntry(0, 0.0)]
    energy = 0.0
    for k in range(1, n_max + 1):
        r = float(r_values(orbit.sequence[k]))
        if r <= 0.0:
            return Spectrum(entries, truncated=True)
        energy += r
        entries.append(SpectrumEntry(k, energy))
    return Spectrum(entries)


def spectrum_from_measured_residuals(family: SuperpotentialFamily, t: ParameterTransform,
                                     a0: dict, grid: Grid1D, n_max: int,
                                     tolerance: float | None = None) -> Spectrum:
    """Spectrum recursion with R(aₖ) measured as the step-k residual mean.

    This is the route for families discovered by search rather than drawn
    from the catalog: no closed form for R is known, so each orbit step is
    measured.  Truncates when a step fails the residual test or turns
    nonpositive.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    orbit = iterate_params(t, a0, n_max)
    entries = [SpectrumEntry(0, 0.0)]
    energy = 0.0
    for k in range(1, n_max + 1):
        report = si_residual(family, orbit.sequence[k - 1], t, grid, tolerance)
        if not report.passed or report.residual_mean <= 0.0:
            return Spectrum(entries, truncated=True)
        energy += report.residual_mean
        entries.append(SpectrumEntry(k, energy))
    return Spectrum(entries)


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
    psi = zero_mode(family, orbit.sequence[n], grid, sign=-1)
    for k in reversed(range(n)):
        psi = apply_a_dagger(family, orbit.sequence[k], psi)
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
#: its first knob is scanned on and the fixed values of its second knob
#: (None for a class with one knob).  Open intervals like q ∈ (0,1) are
#: scanned on a closed inset.  Ties in residual quality resolve toward the
#: earliest entry.
_SEARCH_SPACES = (
    (Translation, (-5.0, 5.0), (None,)),
    (Scaling, _UNIT_INSET, (None,)),
    (PowerScaling, _UNIT_INSET, (2, 3)),
    (Projective, _UNIT_INSET, (0.25, 0.5)),
)

#: Kind name -> class, for every searchable transform kind, in scan order.
TRANSFORM_KINDS: dict[str, type[ParameterTransform]] = {
    cls.kind: cls for cls, _, _ in _SEARCH_SPACES}


@dataclass(frozen=True)
class TransformCandidate:
    """One bounded scalar search space: a transform kind, its knob interval,
    an optional fixed secondary knob p, and the parameter it acts on."""

    kind: str
    lo: float
    hi: float
    p: float | None = None
    param: str | None = None

    def build(self, theta: float) -> ParameterTransform:
        cls = TRANSFORM_KINDS.get(self.kind)
        if cls is None:
            raise TransformError(f"unknown candidate kind {self.kind!r}")
        fixed = [typ(self.p) for _, typ in cls.knobs[1:]]
        return cls(theta, *fixed, param=self.param)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_ITERS = 80

#: A golden-section refine as a coroutine: yields knob values, is sent their
#: scores, returns the minimizer (see ``_refine``).
_Refiner = Generator[tuple[float, ...], tuple[float, ...], float]

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
        return [TransformCandidate(Translation.kind, 0.0, 0.0)]
    return [TransformCandidate(cls.kind, lo, hi, p=p, param=name)
            for cls, (lo, hi), fixed in _SEARCH_SPACES
            for name in parameter_names for p in fixed]


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
    TransformError or EvaluationError.

    Only V₋(a₁) = w(a₁)² − w′(a₁) depends on the trial.  Each a₁ comes from
    the scalar ``apply``, so the rows see exactly si_residual's parameter
    values.  The trials are tabulated and scored in blocks of consecutive
    rows, whichever candidates they come from, each block's arrays within
    ``_BLOCK_BYTES``: ``w_rows`` tabulates a block in one call, and one
    buffer per call holds V₋ and then the residual of each block.  A row's
    ufuncs do not depend on its block, so every score equals si_residual's
    bit for bit however the trials are split.
    """
    scored: list[tuple[float, ResidualReport | None]] = [(math.inf, None)] * len(trials)
    live, rows = [], []
    for i, (cand, theta) in enumerate(trials):
        try:
            rows.append(cand.build(theta).apply(a0))
        except TransformError:
            continue
        live.append(i)
    size = _block_rows(grid)
    buf = np.empty((min(size, len(rows)), grid.n_points))
    # w² may overflow where w is finite; like partner_potentials, reject it.
    with np.errstate(over="ignore"):
        for start in range(0, len(rows), size):
            try:
                w, w_prime, finite = family.w_rows(grid, rows[start:start + size])
            except EvaluationError:
                continue
            block = live[start:start + size]
            if not finite.all():
                block = [i for i, ok in zip(block, finite) if ok]
                w, w_prime = w[finite], w_prime[finite]
            res = buf[:len(block)]
            np.multiply(w, w, out=res)
            np.subtract(res, w_prime, out=res)
            if not np.isfinite(res).all():
                raise GridError("grid function contains non-finite values")
            np.subtract(v_plus, res, out=res)
            for i, report in zip(block, _residual_reports(res, tolerance)):
                scored[i] = (report.residual_stddev, report)
    return scored


def search_transform(family: SuperpotentialFamily, a0: dict, grid: Grid1D,
                     candidates: Sequence[TransformCandidate] | None = None,
                     budget: int = 33,
                     tolerance: float | None = None
                     ) -> tuple[ParameterTransform, ResidualReport] | None:
    """Scan candidate transforms for one that passes the residual test.

    Each candidate's knob is sampled on a nested deterministic grid, the
    best sample golden-section refined, and the winner across candidates is
    the one with the smallest residual stddev (ties to earliest candidate).
    A trial scores exactly what ``si_residual`` reports for it, but V₊(a₀)
    is tabulated once per search, and scores are memoized per candidate and
    knob value, so the finalists and a collapsed refine window cost nothing.
    One scoring call (``_score_trials``) takes the coarse samples of every
    candidate; the refines of all candidates then run in lockstep, each
    golden-section step scoring every candidate's next knob value in one
    call.  A call tabulates its trials in blocks of a few rows
    (``SuperpotentialFamily.w_rows`` broadcasts a compiled w over a column
    of knob values), so its memory stays small and fixed however many
    trials it scores.

    Degenerate "transforms" that merely flip or kill the superpotential can
    flatten the residual without describing a bound-state ladder, so a
    passing transform must have a residual mean well clear of the residual
    spread (an R = 0 flip measured through refiner noise has the two at the
    same scale) and leave the transformed family with a decaying
    minus-sector zero mode (a mirrored w → −w solution decays in the plus
    sector instead).

    Returns None when nothing passes, which is evidence within this budget,
    not proof of absence.
    """
    if candidates is None:
        candidates = default_candidates(family.parameter_names)
    if tolerance is None:
        tolerance = _default_tolerance(family)
    trials = _trial_count(budget)
    try:
        v_plus = partner_potentials(family, a0, grid).v_plus.values
    except EvaluationError:
        return None

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

    def accept(transform: ParameterTransform, report: ResidualReport) -> bool:
        # Gates run on the refined endpoint only: applied mid-scan they
        # turn near-optimal samples into cliffs and strand the refiner.
        if not report.passed:
            return False
        if report.residual_mean <= _MEAN_OVER_SPREAD * report.residual_stddev:
            return False
        try:
            return _minus_sector_decays(family, transform.apply(a0), grid)
        except (TransformError, EvaluationError):
            return False

    # Phase 1: coarse scan, every candidate's samples in one scoring call.
    # Keep the coarse winner alongside the refined theta: at small budgets
    # the refine window can straddle a rejected degenerate basin and
    # converge into it even when the coarse sample already sat on an
    # acceptable minimum.
    samples = [[cand.lo] if cand.lo == cand.hi else list(np.linspace(cand.lo, cand.hi, trials))
               for cand in candidates]
    coarse = iter(objective([(k, th) for k, thetas in enumerate(samples) for th in thetas]))
    finalists: dict[int, list[float]] = {}
    refiners: dict[int, _Refiner] = {}
    for k, (cand, thetas) in enumerate(zip(candidates, samples)):
        scores = [next(coarse)[0] for _ in thetas]
        i_best = int(np.argmin(scores))
        if not math.isfinite(scores[i_best]):
            continue
        finalists[k] = [thetas[i_best]]
        if cand.lo < cand.hi:
            span = (cand.hi - cand.lo) / (len(thetas) - 1)
            refiners[k] = _refine(max(cand.lo, thetas[i_best] - span),
                                  min(cand.hi, thetas[i_best] + span))

    # Phase 2: every refine advances one step per scoring call.
    refined = _refine_lockstep(refiners,
                               lambda requests: [score for score, _ in objective(requests)])
    for k, theta in refined.items():
        finalists[k].append(theta)

    # Phase 3: judge the finalists in candidate order.
    best: tuple[float, ParameterTransform, ResidualReport] | None = None
    for k, thetas in finalists.items():
        best_local: tuple[float, ParameterTransform, ResidualReport] | None = None
        for theta, (score, report) in zip(thetas, objective([(k, th) for th in thetas])):
            if report is None:
                continue
            transform = candidates[k].build(theta)
            if not accept(transform, report):
                continue
            if best_local is None or score < best_local[0]:
                best_local = (score, transform, report)
        if best_local is not None and (best is None or best_local[0] < best[0]):
            best = best_local
    if best is None:
        return None
    return best[1], best[2]


def _refine(lo: float, hi: float) -> _Refiner:
    """Golden-section minimum on [lo, hi], fixed iteration count.

    A coroutine, so that many refines can share one scoring call per step
    (see ``_refine_lockstep``): it yields the knob values it needs scored,
    (c, d) first and then one per iteration, is sent their scores in the
    same order, and returns the minimizer.
    """
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = yield (c, d)
    for _ in range(_REFINE_ITERS):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc, = yield (c,)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd, = yield (d,)
    return c if fc <= fd else d


def _refine_lockstep(refiners: dict[int, _Refiner],
                     score: Callable[[list[tuple[int, float]]], list[float]]
                     ) -> dict[int, float]:
    """Run ``_refine`` coroutines side by side; their minimizers by key.

    Each step gathers every unfinished refiner's pending knob values into
    one ``score`` call, as (refiner key, knob value) pairs, and sends each
    refiner its own scores back.
    """
    results: dict[int, float] = {}
    pending = {key: next(gen) for key, gen in refiners.items()}
    while pending:
        requests = [(key, theta) for key, thetas in pending.items() for theta in thetas]
        scores = iter(score(requests))
        step = {}
        for key, thetas in pending.items():
            try:
                step[key] = refiners[key].send(tuple(next(scores) for _ in thetas))
            except StopIteration as stop:
                results[key] = stop.value
        pending = step
    return results
