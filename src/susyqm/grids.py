"""Uniform 1D grids and real-valued functions tabulated on them.

Everything downstream (potentials, wavefunctions, operators) is built on the
two types defined here.  Grids are uniform and closed: node i sits at
``x_min + i*h`` with ``h = (x_max - x_min)/(n_points - 1)``.  All values are
real; all objects are immutable after construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from ._format import FLOAT_FMT
from .errors import GridError, GridMismatchError, NormOverflowError, ZeroNormError

#: Default computational box for potentials on the full line.
DEFAULT_DOMAIN = (-10.0, 10.0)
DEFAULT_N_POINTS = 2001

#: Node-counting ignores values below this fraction of the peak amplitude.
NODE_THRESHOLD = 1e-6


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of ``n_points`` nodes covering ``[x_min, x_max]``."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        # The bounds are stored as floats, so x is float64 as make_grid's.
        # These messages name no value: the str of an int past 4300 digits raises.
        if not all(isinstance(bound, numbers.Real) for bound in (self.x_min, self.x_max)):
            raise GridError("grid bounds must be real numbers")
        try:
            bounds = float(self.x_min), float(self.x_max)
        except OverflowError:  # an int too large for a float
            bounds = (math.inf,)
        if not all(map(math.isfinite, bounds)):
            raise GridError("grid bounds must be finite")
        object.__setattr__(self, "x_min", bounds[0])
        object.__setattr__(self, "x_max", bounds[1])
        if self.x_min >= self.x_max:
            raise GridError(f"domain-order violation: x_min={self.x_min} >= x_max={self.x_max}")
        if not isinstance(self.n_points, (int, np.integer)):
            raise GridError(f"n_points={self.n_points!r} must be an integer")
        if self.n_points < 3:
            raise GridError(f"n_points={self.n_points} too small, need at least 3")
        if not math.isfinite(self.x_max - self.x_min):
            raise GridError(f"grid span x_max - x_min overflows on [{self.x_min}, {self.x_max}]")
        try:
            h = self.h
        except OverflowError:
            raise GridError("n_points is too large for a float") from None
        # The finite-difference Laplacian's diagonal 2/h**2 must be a finite
        # float: h**2 may neither underflow to 0 nor overflow.
        try:
            finite = math.isfinite(2.0 / h**2)
        except (ZeroDivisionError, OverflowError):
            finite = False
        if not finite:
            raise GridError(f"grid spacing h={h} is out of range: "
                            "h**2 and 2/h**2 must both be finite")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @cached_property
    def x(self) -> np.ndarray:
        # linspace returns a view of a writable temporary; the copy owns its
        # memory, so freezing it freezes the nodes (compiled expressions
        # keep per-grid tables only for such arrays).
        xs = np.linspace(self.x_min, self.x_max, self.n_points).copy()
        xs.setflags(write=False)
        return xs

    def to_dict(self) -> dict:
        return asdict(self)


def make_grid(x_min: float, x_max: float, n_points: int) -> Grid1D:
    """Build a uniform grid; Grid1D validates the domain order and the point
    count, which must be an integer (a numpy integer becomes an int).  A
    bound that does not convert to float raises GridError."""
    if isinstance(n_points, np.integer):
        n_points = int(n_points)
    try:
        bounds = float(x_min), float(x_max)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GridError(f"grid bounds do not convert to float ({exc})") from None
    return Grid1D(*bounds, n_points)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A real-valued function tabulated on a :class:`Grid1D`.

    ``values[i]`` is the function value at node i.  Values must be finite
    everywhere; the array is frozen after construction.
    """

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.ndim != 1 or vals.shape[0] != self.grid.n_points:
            raise GridError(
                f"values length {vals.shape} does not match grid with {self.grid.n_points} points")
        if not np.all(np.isfinite(vals)):
            raise GridError("grid function contains non-finite values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    # -- serialization ---------------------------------------------------------

    def to_csv(self) -> str:
        """CSV text with header ``x,value``, one node per line (see csv_text)."""
        return csv_text(("x", "value"), zip(self.grid.x.tolist(), self.values.tolist()))

    @classmethod
    def from_csv(cls, text: str) -> "GridFunction":
        """Parse ``x,value`` CSV produced by :meth:`to_csv` (or compatible).

        Every row after the header holds exactly two numbers.  The x column
        must be finite and ascending, and gives the grid of its endpoints
        and length: each x may sit at most 1e-9 h plus 2e-11 of the largest
        |x| from its node, which covers the FLOAT_FMT rounding of the x and
        of the endpoints that place the node.
        """
        lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        if not lines or lines[0][1].strip().lower() != "x,value":
            raise GridError("expected CSV with header 'x,value'")
        xs, vs = [], []
        for n, ln in lines[1:]:
            try:
                a, b = (float(cell) for cell in ln.split(","))
            except ValueError:
                raise GridError(f"line {n} is not two numbers x,value: {ln!r}") from None
            xs.append(a)
            vs.append(b)
        xs = np.asarray(xs)
        if xs.size < 3:
            raise GridError("tabulated function needs at least 3 nodes")
        if not np.all(np.isfinite(xs)):
            raise GridError("x column contains a non-finite value")
        if not np.all(np.diff(xs) > 0):
            raise GridError("x column is not a uniform ascending grid")
        grid = make_grid(xs[0], xs[-1], xs.size)
        tolerance = 1e-9 * grid.h + 2e-11 * max(abs(xs[0]), abs(xs[-1]))
        if np.max(np.abs(xs - grid.x)) > tolerance:
            raise GridError("x column is not a uniform ascending grid")
        return cls(grid, np.asarray(vs, dtype=float))


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text: the header, then one line per row, comma separated, LF endings.

    Floats are written with FLOAT_FMT, ints as they are, None as an empty cell.
    """
    def cell(value) -> str:
        if value is None:
            return ""
        return str(value) if isinstance(value, int) else FLOAT_FMT % value

    lines = [",".join(header)]
    lines.extend(",".join(map(cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def derivative(f: GridFunction) -> GridFunction:
    """First derivative: second-order central differences, one-sided at the ends."""
    return GridFunction(f.grid, np.gradient(f.values, f.grid.h, edge_order=2))


def _quadrature(f: GridFunction, g: GridFunction) -> float:
    """Trapezoidal quadrature of f·g, without a warning: inf or nan where
    the product or its sum overflows, since both hold finite values only."""
    if f.grid != g.grid:
        raise GridMismatchError("inner product requires both functions on the same grid")
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.trapezoid(f.values * g.values, dx=f.grid.h))


def inner_product(f: GridFunction, g: GridFunction) -> float:
    """Trapezoidal quadrature of the pointwise product over the grid.
    Raises NormOverflowError where the product or its sum overflows a float."""
    value = _quadrature(f, g)
    if not math.isfinite(value):
        raise NormOverflowError("inner product overflows a float")
    return value


def norm(f: GridFunction) -> float:
    """The L2 norm; inf, without a warning, when the squares overflow."""
    return float(np.sqrt(_quadrature(f, f)))


def normalize(f: GridFunction) -> GridFunction:
    """Rescale to unit L2 norm.  Raises ZeroNormError at a norm of 1e-12 or
    less and NormOverflowError at a norm too large for a float."""
    n = norm(f)
    if not math.isfinite(n):
        raise NormOverflowError("norm overflows a float, cannot normalize")
    if n <= 1e-12:
        raise ZeroNormError(f"norm {n:.3e} at or below floor 1.000e-12, cannot normalize")
    return GridFunction(f.grid, f.values / n)


def count_nodes(f: GridFunction) -> int:
    """Count interior sign changes of f.

    Values smaller than ``NODE_THRESHOLD`` times the peak amplitude are
    treated as numerical tail noise and skipped; the endpoint nodes never
    participate.  Raises ZeroNormError for an identically (near-)zero input.
    """
    amax = float(np.max(np.abs(f.values)))
    if amax == 0.0:
        raise ZeroNormError("cannot count nodes of the zero function")
    interior = f.values[1:-1]
    significant = interior[np.abs(interior) > NODE_THRESHOLD * amax]
    if significant.size == 0:
        raise ZeroNormError("no interior values above the node-counting threshold")
    signs = np.sign(significant)
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def align_sign(f: GridFunction) -> GridFunction:
    """Flip the overall sign so the first value above 1e-12 of the peak is positive."""
    amax = float(np.max(np.abs(f.values)))
    if amax == 0.0:
        return f
    idx = int(np.argmax(np.abs(f.values) > 1e-12 * amax))
    if f.values[idx] < 0:
        return GridFunction(f.grid, -f.values)
    return f


def l2_distance(f: GridFunction, g: GridFunction) -> float:
    if f.grid != g.grid:
        raise GridMismatchError("grid functions live on different grids")
    return norm(GridFunction(f.grid, f.values - g.values))


def sign_aligned_distance(f: GridFunction, g: GridFunction) -> float:
    """L2 distance after flipping g's sign to best match f."""
    if inner_product(f, g) < 0:
        g = GridFunction(g.grid, -g.values)
    return l2_distance(f, g)


def boundary_amplitude_ratio(f: GridFunction, sides: str = "both") -> float:
    """Peak-relative amplitude near the domain ends.

    Looks at the two outermost nodes on each requested side (so Dirichlet
    states, which are exactly zero at the end node, are still probed at
    their first interior node).  ``sides`` is "both", or "right" for a
    family with a hard wall on the left (``SuperpotentialFamily.decay_sides``).
    """
    if sides not in ("both", "right"):
        raise ValueError(f"sides must be 'both' or 'right', got {sides!r}")
    amax = float(np.max(np.abs(f.values)))
    if amax == 0.0:
        return 0.0
    cand = [abs(f.values[-2]), abs(f.values[-1])]
    if sides == "both":
        cand.extend([abs(f.values[0]), abs(f.values[1])])
    return max(cand) / amax
