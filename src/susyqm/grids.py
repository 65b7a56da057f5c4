"""Uniform 1D grids and real-valued functions tabulated on them.

Everything downstream (potentials, wavefunctions, operators) is built on the
two types defined here.  Grids are uniform and closed: node i sits at
``x_min + i*h`` with ``h = (x_max - x_min)/(n_points - 1)``.  All values are
real; all objects are immutable after construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import GridError, GridMismatchError, ZeroNormError

#: Default computational box for potentials on the full line.
DEFAULT_DOMAIN = (-10.0, 10.0)
DEFAULT_N_POINTS = 2001

#: Node-counting ignores values below this fraction of the peak amplitude.
NODE_THRESHOLD = 1e-6

#: Significant digits used by the text serializers (bit-exact output contract).
FLOAT_FMT = "%.12g"


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of ``n_points`` nodes covering ``[x_min, x_max]``."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise GridError("grid bounds must be finite")
        if self.x_min >= self.x_max:
            raise GridError(f"domain-order violation: x_min={self.x_min} >= x_max={self.x_max}")
        if self.n_points < 3:
            raise GridError(f"n_points={self.n_points} too small, need at least 3")

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
        return {"x_min": self.x_min, "x_max": self.x_max, "n_points": self.n_points}


def make_grid(x_min: float, x_max: float, n_points: int) -> Grid1D:
    """Build a uniform grid, validating the domain order and point count."""
    return Grid1D(float(x_min), float(x_max), int(n_points))


def default_grid(domain: tuple[float, float] = DEFAULT_DOMAIN,
                 n_points: int = DEFAULT_N_POINTS) -> Grid1D:
    return make_grid(domain[0], domain[1], n_points)


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

    @classmethod
    def from_callable(cls, grid: Grid1D, fn: Callable[[np.ndarray], np.ndarray]) -> "GridFunction":
        return cls(grid, np.asarray(fn(grid.x), dtype=float))

    @property
    def x(self) -> np.ndarray:
        return self.grid.x

    # -- pointwise arithmetic (same-grid only) --------------------------------

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, GridFunction):
            if other.grid != self.grid:
                raise GridMismatchError("grid functions live on different grids")
            return other.values
        return np.asarray(other, dtype=float)

    def __add__(self, other):
        return GridFunction(self.grid, self.values + self._coerce(other))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return GridFunction(self.grid, self.values - self._coerce(other))

    def __rsub__(self, other):
        return GridFunction(self.grid, self._coerce(other) - self.values)

    def __mul__(self, other):
        return GridFunction(self.grid, self.values * self._coerce(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return GridFunction(self.grid, -self.values)

    # -- serialization ---------------------------------------------------------

    def to_csv(self) -> str:
        """CSV text with header ``x,value``, one node per line, LF endings."""
        lines = ["x,value"]
        for xi, vi in zip(self.grid.x, self.values):
            lines.append(f"{FLOAT_FMT % xi},{FLOAT_FMT % vi}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {"grid": self.grid.to_dict(), "values": [float(v) for v in self.values]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "GridFunction":
        g = data["grid"]
        grid = make_grid(g["x_min"], g["x_max"], g["n_points"])
        return cls(grid, np.asarray(data["values"], dtype=float))

    @classmethod
    def from_csv(cls, text: str) -> "GridFunction":
        """Parse ``x,value`` CSV produced by :meth:`to_csv` (or compatible).

        The x column must be uniformly spaced; the grid is reconstructed
        from its endpoints.
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].strip().lower() != "x,value":
            raise GridError("expected CSV with header 'x,value'")
        xs, vs = [], []
        for ln in lines[1:]:
            a, b = ln.split(",")
            xs.append(float(a))
            vs.append(float(b))
        xs = np.asarray(xs)
        if xs.size < 3:
            raise GridError("tabulated function needs at least 3 nodes")
        steps = np.diff(xs)
        h = (xs[-1] - xs[0]) / (xs.size - 1)
        if h <= 0 or np.max(np.abs(steps - h)) > 1e-9 * max(abs(h), 1.0):
            raise GridError("x column is not a uniform ascending grid")
        grid = make_grid(xs[0], xs[-1], xs.size)
        return cls(grid, np.asarray(vs, dtype=float))


def derivative(f: GridFunction) -> GridFunction:
    """First derivative: second-order central differences, one-sided at the ends."""
    return GridFunction(f.grid, np.gradient(f.values, f.grid.h, edge_order=2))


def inner_product(f: GridFunction, g: GridFunction) -> float:
    """Trapezoidal quadrature of the pointwise product over the grid."""
    if f.grid != g.grid:
        raise GridMismatchError("inner product requires both functions on the same grid")
    return float(np.trapezoid(f.values * g.values, dx=f.grid.h))


def norm(f: GridFunction) -> float:
    return float(np.sqrt(inner_product(f, f)))


def normalize(f: GridFunction) -> GridFunction:
    """Rescale to unit L2 norm.  Raises ZeroNormError at a norm of 1e-12 or less."""
    n = norm(f)
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
    return norm(f - g)


def sign_aligned_distance(f: GridFunction, g: GridFunction) -> float:
    """L2 distance after flipping g's sign to best match f."""
    if inner_product(f, g) < 0:
        g = -g
    return l2_distance(f, g)


def boundary_amplitude_ratio(f: GridFunction, sides: str = "both") -> float:
    """Peak-relative amplitude near the domain ends.

    Looks at the two outermost nodes on each requested side (so Dirichlet
    states, which are exactly zero at the end node, are still probed at
    their first interior node).  ``sides`` is one of "both", "left",
    "right".
    """
    amax = float(np.max(np.abs(f.values)))
    if amax == 0.0:
        return 0.0
    cand = []
    if sides in ("both", "left"):
        cand.extend([abs(f.values[0]), abs(f.values[1])])
    if sides in ("both", "right"):
        cand.extend([abs(f.values[-2]), abs(f.values[-1])])
    if not cand:
        raise ValueError(f"sides must be 'both', 'left' or 'right', got {sides!r}")
    return max(cand) / amax
