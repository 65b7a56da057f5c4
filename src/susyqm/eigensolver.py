"""Finite-difference bound-state solver for H = -d²/dx² + V(x), units ħ=2m=1.

Dirichlet ends on a truncated box stand in for decay at infinity.  This
solver is the ground-truth oracle: every algebraic spectrum produced
elsewhere in the package is validated against it, so it deliberately shares
no code with the operator-algebra machinery beyond the grid types.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GridError, NoBoundStateError
from .grids import (Grid1D, GridFunction, align_sign, boundary_amplitude_ratio,
                    csv_text, normalize)

#: A state whose boundary amplitude exceeds this fraction of its peak is not
#: accepted as bound.
DECAY_RATIO = 1e-6


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Symmetric tridiagonal discretization of H on the interior nodes.

    The 3-point Laplacian gives diagonal 2/h² + V(x_i) and constant
    off-diagonal −1/h²; dimension is n_points − 2 (the Dirichlet end nodes
    are eliminated).
    """

    grid: Grid1D
    diagonal: np.ndarray
    off_diagonal: float

    def __post_init__(self):
        diag = np.array(self.diagonal, dtype=float, copy=True)
        if diag.shape != (self.grid.n_points - 2,):
            raise GridError(
                f"diagonal length {diag.shape} does not match {self.grid.n_points - 2} interior nodes")
        diag.setflags(write=False)
        object.__setattr__(self, "diagonal", diag)

    @property
    def dim(self) -> int:
        return self.grid.n_points - 2


@dataclass(frozen=True)
class EigenPair:
    """One bound level: position n in the spectrum, energy, normalized state.

    The state lives on the full grid with zeros at both end nodes; its sign
    is fixed so the first significant value is positive.
    """

    index: int
    energy: float
    state: GridFunction


def assemble_hamiltonian(v: GridFunction) -> HamiltonianMatrix:
    """Discretize H = -d²/dx² + V with Dirichlet boundaries."""
    h = v.grid.h
    return HamiltonianMatrix(v.grid, 2.0 / h**2 + v.values[1:-1], -1.0 / h**2)


def solve_lowest(ham: HamiltonianMatrix, k: int) -> list[EigenPair]:
    """Lowest k eigenpairs of the interior-node matrix.

    Energies are eigenvalues of the matrix as assembled.  States come back
    normalized under the trapezoidal inner product and sign-aligned.
    """
    from scipy.linalg import eigh_tridiagonal

    if k < 1:
        raise ValueError(f"k={k} must be at least 1")
    if k > ham.dim:
        raise ValueError(f"k={k} exceeds matrix dimension {ham.dim}")
    off = np.full(ham.dim - 1, ham.off_diagonal)
    try:
        vals, vecs = eigh_tridiagonal(ham.diagonal, off, select="i", select_range=(0, k - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"tridiagonal eigensolver failed: {exc}") from exc
    pairs = []
    for n in range(k):
        full = np.zeros(ham.grid.n_points)
        full[1:-1] = vecs[:, n]
        state = align_sign(normalize(GridFunction(ham.grid, full)))
        pairs.append(EigenPair(n, float(vals[n]), state))
    return pairs


def solve_potential(v: GridFunction, k: int) -> list[EigenPair]:
    return solve_lowest(assemble_hamiltonian(v), k)


def ground_state(v: GridFunction, sides: str = "both") -> EigenPair:
    """Lowest eigenpair of V, accepted only if the state decays at the box ends.

    ``sides`` restricts the decay test for potentials with a hard wall on
    one side (half-line problems), where the state is forced to zero at the
    wall regardless of binding.
    """
    pair = solve_potential(v, 1)
    ratio = boundary_amplitude_ratio(pair[0].state, sides=sides)
    if ratio >= DECAY_RATIO:
        raise NoBoundStateError(
            f"lowest state has boundary amplitude {ratio:.3e} of peak "
            f"(threshold {DECAY_RATIO:.1e}); not a bound state on this box")
    return pair[0]


def spectrum_csv(pairs: list[EigenPair]) -> str:
    """CSV text ``n,energy`` for a list of solved levels."""
    return csv_text(("n", "energy"), ((p.index, p.energy) for p in pairs))


def solution_to_dict(pairs: list[EigenPair]) -> dict:
    """Full solution as a JSON-ready dict: grid, energies, state arrays."""
    if not pairs:
        return {"grid": None, "energies": [], "states": []}
    return {
        "grid": pairs[0].state.grid.to_dict(),
        "energies": [p.energy for p in pairs],
        "states": [[float(v) for v in p.state.values] for p in pairs],
    }
