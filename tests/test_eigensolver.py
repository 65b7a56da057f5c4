import json

import numpy as np
import pytest

from susyqm import (Grid1D, GridFunction, NoBoundStateError, assemble_hamiltonian,
                    count_nodes, ground_state, make_grid, solve_lowest,
                    solve_potential, spectrum_csv)
from susyqm.eigensolver import solution_to_dict


def box_grid(n=2001):
    return make_grid(0.0, 1.0, n)


def zero_potential(grid):
    return GridFunction(grid, np.zeros(grid.n_points))


def test_particle_in_box_energies():
    # Dirichlet box [0,1]: E_n = ((n+1)π)² exactly.
    pairs = solve_potential(zero_potential(box_grid()), 4)
    for p in pairs:
        exact = ((p.index + 1) * np.pi) ** 2
        assert abs(p.energy - exact) / exact < 1e-4


def test_box_convergence_is_second_order():
    def err(n):
        pair = solve_potential(zero_potential(box_grid(n)), 1)[0]
        return abs(pair.energy - np.pi**2)

    ratio = err(1001) / err(2001)
    assert 3.5 < ratio < 4.5


def test_harmonic_energies():
    # V = x², ħ=2m=1: E_n = 2n+1.
    grid = make_grid(-10.0, 10.0, 2001)
    v = GridFunction.from_callable(grid, lambda x: x**2)
    pairs = solve_potential(v, 5)
    for p in pairs:
        assert p.energy == pytest.approx(2 * p.index + 1, abs=5e-4)


def test_node_counts_follow_sturm_ordering():
    grid = make_grid(-10.0, 10.0, 2001)
    v = GridFunction.from_callable(grid, lambda x: x**2)
    for p in solve_potential(v, 5):
        assert count_nodes(p.state) == p.index


def test_states_are_normalized_and_sign_aligned():
    grid = make_grid(-10.0, 10.0, 1001)
    v = GridFunction.from_callable(grid, lambda x: x**2)
    for p in solve_potential(v, 3):
        norm = np.trapezoid(p.state.values**2, p.state.grid.x)
        assert norm == pytest.approx(1.0, abs=1e-12)
        sig = np.flatnonzero(np.abs(p.state.values) > 1e-8 * np.abs(p.state.values).max())
        assert p.state.values[sig[0]] > 0


def test_solve_lowest_k_bounds():
    ham = assemble_hamiltonian(zero_potential(box_grid(11)))
    with pytest.raises(ValueError):
        solve_lowest(ham, 0)
    with pytest.raises(ValueError):
        solve_lowest(ham, ham.dim + 1)


def test_diagonal_length_checked():
    from susyqm.eigensolver import HamiltonianMatrix
    from susyqm.errors import GridError

    grid = make_grid(0.0, 1.0, 11)
    with pytest.raises(GridError):
        HamiltonianMatrix(grid, np.zeros(11), -1.0)


def test_ground_state_rejects_free_particle():
    # V = 0 on a box binds nothing; the "ground state" is a box mode that
    # does not decay at the walls.
    grid = make_grid(-10.0, 10.0, 801)
    with pytest.raises(NoBoundStateError):
        ground_state(zero_potential(grid))


def test_ground_state_accepts_harmonic_well():
    grid = make_grid(-10.0, 10.0, 1201)
    v = GridFunction.from_callable(grid, lambda x: x**2)
    pair = ground_state(v)
    assert pair.energy == pytest.approx(1.0, abs=1e-3)


def test_ground_state_one_sided_decay():
    # Half-line well with a hard wall at x=0: only the right end can decay.
    grid = make_grid(0.0, 30.0, 3001)
    l = 1.0
    x = grid.x.copy()
    x[0] = x[1]  # end node is eliminated by the Dirichlet condition anyway
    vals = l * (l + 1) / x**2 - 2 * (l + 1) / x
    pair = ground_state(GridFunction(grid, vals), sides="right")
    # Z = l+1 Coulomb tail: ground level n = l+1 has E = -(Z/n)² = -1.
    assert pair.energy == pytest.approx(-1.0, abs=2e-4)


def test_spectrum_csv_format():
    pairs = solve_potential(zero_potential(box_grid(101)), 2)
    text = spectrum_csv(pairs)
    lines = text.splitlines()
    assert lines[0] == "n,energy"
    assert len(lines) == 3
    assert text.endswith("\n")
    n, e = lines[1].split(",")
    assert n == "0"
    assert float(e) == pytest.approx(pairs[0].energy)


def test_solution_serialization_round_trips():
    pairs = solve_potential(zero_potential(box_grid(51)), 2)
    doc = json.loads(json.dumps(solution_to_dict(pairs)))
    assert doc == solution_to_dict(pairs)
    assert doc["grid"] == {"x_min": 0.0, "x_max": 1.0, "n_points": 51}
    assert len(doc["energies"]) == 2
    assert len(doc["states"][0]) == 51
    assert solution_to_dict([]) == {"grid": None, "energies": [], "states": []}


def test_grid_type_rejected_with_hint():
    g = Grid1D(0.0, 1.0, 3)
    assert g.n_points == 3
