"""Partner potentials, charge algebra, zero modes, and the isospectral hierarchy.

A superpotential w(x) generates the partner pair V∓ = w² ∓ w′ and the ladder
maps A = d/dx + w, A† = -d/dx + w.  Everything here works on tabulated grids;
units are ħ=2m=1 throughout the package.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from ._lapack import band_lowest
from .eigensolver import DECAY_RATIO, ground_state
from .errors import (EvaluationError, GridError, GridMismatchError,
                     NodePresentError, NoBoundStateError)
from .expressions import (assemble_on_grid, compile_on_grid, differentiate,
                          parameter_names, parse_expression)
from .grids import (DEFAULT_DOMAIN, Grid1D, GridFunction, align_sign,
                    boundary_amplitude_ratio, count_nodes, derivative)

WFunc = Callable[[np.ndarray, dict], np.ndarray]

#: Default tolerance of verify_algebra (and of algebra-check), relative to ‖ℋ‖.
ALGEBRA_TOL = 1e-10


@dataclass(frozen=True)
class SuperpotentialFamily:
    """A superpotential w(x; a) with named real parameters.

    ``w_fn`` and ``w_prime_fn`` map (x array, parameter dict) to value
    arrays; the family keeps no expression text (a compiled expression's
    errors quote its own).  When no analytic derivative is available
    ``w_prime_fn`` is None and tabulated finite differences stand in;
    residual tests then run at a relaxed tolerance tier (see
    shape_invariance).

    The transform search tabulates w and w′ at each distinct a₁ its
    trials reach through ``_w_rows``, one a₁ at a time.  When w and an
    analytic w′ are compiled expressions, each row is one call of each
    ``unchecked`` entry on float parameters (see
    expressions.compile_on_grid); any other family is evaluated through
    ``w_grid``'s checks, with a finite-difference w′ as one
    ``np.gradient`` of the row.  Every call passes ``grid.x`` itself, never
    a view, so a compiled expression computes its parameter-free subterms
    such as ``x**3`` once per grid and reuses them on every later call on
    that grid.

    ``hard_wall_left`` marks half-line families whose grid starts just off a
    singularity: states are pinned to zero there by the wall, so decay is
    only diagnostic at the right end.
    """

    w_fn: WFunc
    w_prime_fn: WFunc | None
    parameter_names: tuple[str, ...]
    domain: tuple[float, float] = DEFAULT_DOMAIN
    hard_wall_left: bool = False

    @classmethod
    def from_expression(cls, text: str, domain: tuple[float, float] = DEFAULT_DOMAIN,
                        hard_wall_left: bool = False) -> "SuperpotentialFamily":
        """Build a family from an expression string; w′ is derived analytically.

        A text of the closed grammar (``_closed_grammar``: sums of literal
        and parameter multiples of x, x^n and one exp(k*x), or a single
        tanh(k*x) term; and radial terms, a literal or parameter over a
        group such as ``2*(l+1)`` and a literal, parameter or group over x,
        as in ``q/(2*(l+1)) - (l+1)/x``) assembles the code printed there,
        which loads no sympy; every catalog record's text is one.  That
        printer also raises, without sympy, parse_expression's
        ExpressionError for a text that is one call of an unknown function
        (``foo(1.2*x)``) or one product term over zero (``1.2*x/0``), and
        declines every other text, which is compiled with sympy.  Both
        routes give the code sympy generates, so the same results and error
        messages."""
        from ._closed_grammar import closed_grammar_codes

        codes = closed_grammar_codes(text)
        if codes is None:
            expr = parse_expression(text)
            params = parameter_names(expr)
            fns = [compile_on_grid(e, params) for e in (expr, differentiate(expr))]
        else:
            params, fns = codes[0].params, [assemble_on_grid(code) for code in codes]
        return cls(*fns, tuple(params), domain, hard_wall_left)

    @classmethod
    def from_callables(cls, w_fn: WFunc, w_prime_fn: WFunc | None = None,
                       parameter_names: Sequence[str] = (),
                       domain: tuple[float, float] = DEFAULT_DOMAIN,
                       hard_wall_left: bool = False) -> "SuperpotentialFamily":
        return cls(w_fn, w_prime_fn, tuple(parameter_names), domain, hard_wall_left)

    @property
    def analytic_derivative(self) -> bool:
        return self.w_prime_fn is not None

    @property
    def decay_sides(self) -> str:
        return "right" if self.hard_wall_left else "both"

    def _eval(self, fn: WFunc, grid: Grid1D, params: dict) -> GridFunction:
        missing = [p for p in self.parameter_names if p not in params]
        if missing:
            raise EvaluationError(f"missing parameter values for {missing}")
        vals = np.asarray(fn(grid.x, params), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise EvaluationError("superpotential evaluated non-finite on the grid")
        return GridFunction(grid, vals)

    def w_grid(self, grid: Grid1D, params: dict) -> GridFunction:
        return self._eval(self.w_fn, grid, params)

    def w_prime_grid(self, grid: Grid1D, params: dict) -> GridFunction:
        if self.w_prime_fn is None:
            return derivative(self.w_grid(grid, params))
        return self._eval(self.w_prime_fn, grid, params)

    def _w_rows(self, grid: Grid1D, a0: dict, images: Sequence[tuple[str | None, float | None]]
                ) -> Iterator[tuple[np.ndarray | float, np.ndarray | float] | None]:
        """(w, w′) on the grid at each a₁, given as a (target, image) pair:
        a₀ with its target set to the image (a₀ itself where the target is
        None), one a₁ at a time; None for an a₁ where w or w′ raises
        EvaluationError.

        The rows are unchecked: a compiled family's w or w′ may be a scalar
        (a constant expression) and may hold inf or nan wherever the
        function does, so the caller tests finiteness on what it computes
        from them, under its own ``np.errstate``.  Each finite row equals
        ``w_grid`` / ``w_prime_grid`` at that row's parameters bit for bit.
        a₀ must hold every parameter, each convertible to float (as
        ``partner_potentials`` at a₀ checks).

        A family whose w and w′ are both compiled on its parameter names
        calls their ``unchecked`` functions on ``grid.x`` with a₀'s floats,
        the image in its target's place, so only a parameter-only subterm
        that fails in floats (``1/(a - 2)`` at a = 2) or comes out complex
        is a miss here; any other family evaluates each row on
        ``{**a0, target: image}``, the parameters si_residual sees, and
        misses wherever ``w_grid`` raises.
        """
        names, fns = self.parameter_names, (self.w_fn, self.w_prime_fn)
        if all(hasattr(fn, "unchecked") and fn.params == names for fn in fns):
            w_entry, w_prime_entry = (fn.unchecked(grid.x) for fn in fns)
            base = [float(a0[p]) for p in names]
            slots = {p: i for i, p in enumerate(names)}

            def pair(t, new):
                values = base
                if t is not None:
                    values = base.copy()
                    values[slots[t]] = float(new)
                return w_entry(values), w_prime_entry(values)
        else:
            def pair(t, new):
                row = a0 if t is None else {**a0, t: new}
                w = self._eval(self.w_fn, grid, row).values
                return w, (np.gradient(w, grid.h, edge_order=2) if self.w_prime_fn is None
                           else self._eval(self.w_prime_fn, grid, row).values)

        for t, new in images:
            try:
                rows = pair(t, new)
            except EvaluationError:
                rows = None
            yield rows


@dataclass(frozen=True)
class PartnerPair:
    """Tabulated partner potentials V∓ = w² ∓ w′ and the w that built them
    (the CLI's ``partner`` writes all three)."""

    v_minus: GridFunction
    v_plus: GridFunction
    w_used: GridFunction


def partner_pair_from_w(w: GridFunction, w_prime: GridFunction | None = None) -> PartnerPair:
    if w_prime is None:
        w_prime = derivative(w)
    elif w_prime.grid != w.grid:
        raise GridMismatchError("w and w_prime live on different grids")
    # w² may overflow where w is finite; GridFunction rejects the result.
    with np.errstate(over="ignore"):
        w2 = w.values * w.values
        return PartnerPair(
            v_minus=GridFunction(w.grid, w2 - w_prime.values),
            v_plus=GridFunction(w.grid, w2 + w_prime.values),
            w_used=w,
        )


def partner_potentials(family: SuperpotentialFamily, params: dict,
                       grid: Grid1D) -> PartnerPair:
    """Tabulate the partner pair of a family at given parameter values."""
    return partner_pair_from_w(family.w_grid(grid, params),
                               family.w_prime_grid(grid, params))


def _zero_modes(family: SuperpotentialFamily, params: dict, grid: Grid1D,
                signs: Sequence[int]) -> list[GridFunction]:
    """zero_mode for each sign, from one tabulation of w and one ∫w."""
    y = family.w_grid(grid, params).values
    # scipy's cumulative_trapezoid(y, dx=h, initial=0.0), term for term
    phi = np.concatenate(([0.0], np.cumsum(grid.h * (y[1:] + y[:-1]) / 2.0)))
    return [GridFunction(grid, np.exp(expo - expo.max()))
            for expo in (sign * phi for sign in signs)]


def zero_mode(family: SuperpotentialFamily, params: dict, grid: Grid1D,
              sign: int = -1) -> GridFunction:
    """Unnormalized zero-energy solution exp(∓∫w): sign -1 for ψ₀⁻, +1 for ψ₀⁺.

    The exponent ∓∫w, with ∫w the cumulative trapezoid from the left end, is
    referenced to its maximum before exponentiating: that fixes the overall
    constant at peak value 1 and keeps exp overflow-free; tails may flush to 0.
    """
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    return _zero_modes(family, params, grid, (sign,))[0]


class SusyPhase(enum.Enum):
    UNBROKEN_MINUS = "unbroken-minus"
    UNBROKEN_PLUS = "unbroken-plus"
    BROKEN = "broken"


def _zero_mode_ratios(family: SuperpotentialFamily, params: dict,
                      grid: Grid1D) -> tuple[float, float]:
    """Boundary amplitude ratios of ψ₀⁻ and ψ₀⁺ on the family's decay sides."""
    return tuple(boundary_amplitude_ratio(psi, family.decay_sides)
                 for psi in _zero_modes(family, params, grid, (-1, 1)))


def susy_phase(family: SuperpotentialFamily, params: dict, grid: Grid1D) -> SusyPhase:
    """The zero mode with the smaller boundary ratio (ties to ψ₀⁻) names the
    phase if it decays (ratio below ``DECAY_RATIO``); BROKEN if neither does."""
    ratio, phase = min(zip(_zero_mode_ratios(family, params, grid),
                           (SusyPhase.UNBROKEN_MINUS, SusyPhase.UNBROKEN_PLUS)),
                       key=lambda pair: pair[0])
    return phase if ratio < DECAY_RATIO else SusyPhase.BROKEN


# -- ladder maps ---------------------------------------------------------------


def apply_a(family: SuperpotentialFamily, params: dict, psi: GridFunction) -> GridFunction:
    """(d/dx + w)ψ on ψ's grid; destroys a node in the unbroken ladder."""
    w = family.w_grid(psi.grid, params).values
    return GridFunction(psi.grid, derivative(psi).values + w * psi.values)


def apply_a_dagger(family: SuperpotentialFamily, params: dict,
                   psi: GridFunction) -> GridFunction:
    """(-d/dx + w)ψ on ψ's grid; creates a node in the unbroken ladder."""
    w = family.w_grid(psi.grid, params).values
    return GridFunction(psi.grid, -derivative(psi).values + w * psi.values)


# -- charge algebra --------------------------------------------------------------


@dataclass(frozen=True)
class ChargeMatrices:
    """Discretized A, A† and the blocks of ℋ on interior nodes, as bands.

    The supercharge Q holds A in its lower-left block and Q† holds A† in its
    upper-right one, so ℋ = {Q, Q†} = diag(A†A, AA†); only these m×m blocks
    are stored (m = n_points − 2), and not the grid they were assembled on.
    ``lower`` is A†A, the Hamiltonian of V₋, and ``upper`` is AA†, that of
    V₊.  Each field is an offset-major band: a float64 array of shape
    (2h+1, m) whose row k holds the entries (i, i+k−h) for i = 0…m−1, with
    every entry outside the matrix stored as 0.  A and A† have h = 1; A†A
    and AA† have h = 2.

    A uses the antisymmetric central-difference matrix plus diag(w), so
    ``a_dagger`` is the exact transpose of ``a`` and the block identities
    checked by verify_algebra hold as matrix identities rather than
    approximations.
    """

    a: np.ndarray
    a_dagger: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def _band_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Band of the product L·R from the bands of L and R.

    Entry (i, k) sums L[i, j]·R[j, k] over j in ascending order, starting
    from 0.0, as a CSR matrix product over rows stored in ascending order
    does.  A term outside either band multiplies a stored zero and adds ±0,
    which changes no nonzero partial sum, so for finite bands every entry
    has the bits of the sparse product, which skips such terms.
    """
    hl = left.shape[0] // 2
    m = left.shape[1]
    out = np.zeros((left.shape[0] + right.shape[0] - 1, m))
    for p in range(-hl, hl + 1):  # j = i + p
        lo, hi = max(0, -p), min(m, m - p)
        left_row = left[p + hl, lo:hi]
        for r in range(right.shape[0]):
            out[p + hl + r, lo:hi] += left_row * right[r, lo + p:hi + p]
    return out


def charge_matrices(family: SuperpotentialFamily, params: dict,
                    grid: Grid1D) -> ChargeMatrices:
    """Assemble A = D + diag(w), A†, A†A and AA† on the interior nodes.

    D is the central-difference first derivative with Dirichlet ends, which
    is antisymmetric; A† is therefore literally A-transposed.  A w whose
    A†A or AA† overflows raises GridError.
    """
    m = grid.n_points - 2
    w = family.w_grid(grid, params).values[1:-1]
    c = 1.0 / (2.0 * grid.h)
    a = np.zeros((3, m))
    a[0, 1:], a[1], a[2, :-1] = -c, w, c
    a_dag = np.zeros((3, m))
    a_dag[0, 1:], a_dag[1], a_dag[2, :-1] = c, w, -c
    with np.errstate(over="ignore", invalid="ignore"):
        lower, upper = _band_product(a_dag, a), _band_product(a, a_dag)
    bad = np.count_nonzero(~np.isfinite(lower)) + np.count_nonzero(~np.isfinite(upper))
    if bad:
        raise GridError(f"charge algebra blocks A†A and AA† are not finite at {bad} "
                        "entries; w or 1/h is too large")
    return ChargeMatrices(a, a_dag, lower, upper)


@dataclass(frozen=True)
class AlgebraReport:
    """Frobenius norms of the five defining identities of the charge algebra.

    Each norm should vanish; ``passed`` requires all five below
    tolerance × ‖ℋ‖.
    """

    q_squared: float
    q_dagger_squared: float
    anticommutator_defect: float
    q_commutator: float
    q_dagger_commutator: float
    h_scale: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _fro(*bands: np.ndarray) -> float:
    """Frobenius norm of the entries the bands hold, one band after the other.

    The squares are summed in row-major, column-ascending order with exact
    zeros dropped, the canonical data order of a sparse matrix, which fixes
    the blocks of numpy's pairwise summation.  Boolean indexing reads each
    transposed band in that order without copying it first.
    """
    v = np.concatenate([b.T[b.T != 0.0] for b in bands])
    return float(np.sqrt(np.sum(np.square(v, out=v))))


def _checked_tolerance(tolerance: float) -> float:
    """tolerance itself; ValueError unless it is a positive finite real number
    (an int too large for a float is not).  The message names no value,
    whose str an int past 4300 digits would refuse."""
    try:
        valid = (isinstance(tolerance, numbers.Real) and math.isfinite(tolerance)
                 and tolerance > 0.0)
    except OverflowError:
        valid = False
    if not valid:
        raise ValueError("tolerance must be a positive finite number")
    return tolerance


def verify_algebra(cm: ChargeMatrices, tolerance: float = ALGEBRA_TOL) -> AlgebraReport:
    """Check Q² = Q†² = 0, {Q,Q†} = ℋ, and [Q,ℋ] = [Q†,ℋ] = 0 numerically.

    Each identity reduces to its nonzero block: [Q, ℋ] to A·(A†A) − (AA†)·A,
    [Q†, ℋ] to A†·(AA†) − (A†A)·A†, and {Q, Q†} − ℋ to A†A and AA†
    recomputed from A and A† minus the stored blocks.  A norm that is not
    finite, as when finite blocks overflow in a product or a square, raises
    GridError; a tolerance that is not positive and finite raises ValueError.
    """
    _checked_tolerance(tolerance)
    a, a_dag, lower, upper = cm.a, cm.a_dagger, cm.lower, cm.upper
    with np.errstate(over="ignore", invalid="ignore"):
        h_scale = _fro(lower, upper)
        norms = (
            # every block product in Q² and Q†² has a zero factor: both are
            # the zero matrix, whose norm is exactly 0.0
            0.0,
            0.0,
            _fro(_band_product(a_dag, a) - lower, _band_product(a, a_dag) - upper),
            _fro(_band_product(a, lower) - _band_product(upper, a)),
            _fro(_band_product(a_dag, upper) - _band_product(lower, a_dag)),
        )
    if not all(math.isfinite(n) for n in (h_scale, *norms)):
        raise GridError("charge algebra norms are not finite; w or 1/h is too large")
    passed = all(n < tolerance * h_scale for n in norms)
    return AlgebraReport(*norms, h_scale, tolerance, passed)


def block_spectra(cm: ChargeMatrices) -> tuple[np.ndarray, np.ndarray]:
    """The lowest eigenvalue of each block, A†A then AA†, as one-element arrays.

    Both blocks are symmetric pentadiagonal by construction, so a banded
    solver sees them exactly; positive semi-definiteness means nothing below
    roundoff-negative.  Rows 2–4 of an offset-major band hold diagonals 0, 1
    and 2 from column 0, which is LAPACK's lower band storage as it stands,
    and the index selection asks xSBEVX for the first eigenvalue alone.  A
    block that is not a finite (5, m) band, m ≥ 1, raises ValueError.
    """
    return tuple(band_lowest(block) for block in (cm.lower, cm.upper))


# -- ground-state inversion and the hierarchy ------------------------------------


def _derivative_5pt(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order central first derivative; at the two nodes of each edge,
    ``np.gradient``'s second-order values, from the three end nodes there.

    Log-derivative tails amplify stencil error by |ψ⁽ᵏ⁾/ψ|, which grows fast
    for confining potentials; the extra two orders keep the rebuilt
    hierarchy potentials inside their tolerance where the state is resolved.
    """
    out = np.empty_like(values)
    out[2:-2] = (values[:-4] - 8.0 * values[1:-3]
                 + 8.0 * values[3:-1] - values[4:]) / (12.0 * h)
    out[:2] = np.gradient(values[:3], h, edge_order=2)[:2]
    out[-2:] = np.gradient(values[-3:], h, edge_order=2)[1:]
    return out


def superpotential_from_ground_state(psi0: GridFunction) -> GridFunction:
    """Recover w = -ψ₀′/ψ₀ from a nodeless state.

    The ratio is taken directly (no logs) wherever |ψ₀| is at least 1e-12
    of its peak; outside that region w is filled by constant
    extension, and callers should treat it as untrusted there.  A state with
    an interior node is rejected.
    """
    psi = align_sign(psi0)
    if count_nodes(psi) != 0:
        raise NodePresentError("state has interior nodes; not a ground state")
    vals = psi.values
    mask = np.abs(vals) >= 1e-12 * float(np.max(np.abs(vals)))
    idx = np.flatnonzero(mask)
    dpsi = _derivative_5pt(vals, psi.grid.h)
    w_masked = -dpsi[idx] / vals[idx]
    w = np.interp(np.arange(vals.size), idx, w_masked)
    return GridFunction(psi.grid, w)


def decay_trust_window(psi: GridFunction) -> tuple[int, int]:
    """Index range where |ψ| is at least ``DECAY_RATIO`` of its peak.

    Quantities derived from ψ by division (w, rebuilt potentials) are only
    meaningful inside this window.
    """
    big = np.flatnonzero(np.abs(psi.values) >= DECAY_RATIO * float(np.max(np.abs(psi.values))))
    return int(big[0]), int(big[-1])


@dataclass(frozen=True)
class HierarchyLevel:
    """One member of the isospectral chain.

    ``ground_energy`` is the plain oracle ground energy of ``potential`` as
    built; because each new potential carries the previous level's energy as
    an additive shift, these values reproduce the original spectrum level by
    level.  A final level may carry only the potential (``ground_energy``
    None) when no bound state remains.  ``trust`` is the index window from
    decay_trust_window of the level's ground state, the window where the
    next level's potential, built from w = −ψ₀′/ψ₀, can be trusted.
    """

    depth: int
    potential: GridFunction
    ground_energy: float | None
    trust: tuple[int, int] | None


@dataclass(frozen=True)
class Hierarchy:
    levels: list[HierarchyLevel]
    truncated: bool
    note: str | None = None

    def __iter__(self):
        return iter(self.levels)


def build_hierarchy(v: GridFunction, depth: int, sides: str = "both") -> Hierarchy:
    """Iteratively strip ground states: solve, extract w, form w² + w′ + E₀.

    Stops early (``truncated`` True, ``note`` set) as soon as a level's
    lowest state fails the decay test, i.e. the chain has run out of bound
    states.
    """
    if not isinstance(depth, (int, np.integer)):
        raise ValueError(f"depth={depth!r} must be an integer")
    if depth < 1:
        raise ValueError(f"depth={depth} must be at least 1")
    grid = v.grid
    levels: list[HierarchyLevel] = []
    current = v
    for k in range(1, depth + 1):
        try:
            pair = ground_state(current, sides)
        except NoBoundStateError as exc:
            levels.append(HierarchyLevel(k, current, None, None))
            return Hierarchy(levels, truncated=True, note=f"level {k}: {exc}")
        w = superpotential_from_ground_state(pair.state)
        trust = decay_trust_window(pair.state)
        levels.append(HierarchyLevel(k, current, pair.energy, trust))
        if k < depth:
            w_prime = _derivative_5pt(w.values, grid.h)
            current = GridFunction(grid, w.values**2 + w_prime + pair.energy)
    return Hierarchy(levels, truncated=False)
