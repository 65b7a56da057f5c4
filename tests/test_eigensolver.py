import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyqm import (ConvergenceError, Grid1D, GridError, GridFunction,
                    HamiltonianMatrix, NoBoundStateError,
                    assemble_hamiltonian, count_nodes, get_record, ground_state,
                    instantiate, make_grid, normalize, solve_lowest,
                    solve_potential, spectrum_csv)
from susyqm import _lapack
from susyqm.eigensolver import solution_to_dict
from susyqm.grids import align_sign


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
    v = GridFunction(grid, grid.x**2)
    pairs = solve_potential(v, 5)
    for p in pairs:
        assert p.energy == pytest.approx(2 * p.index + 1, abs=5e-4)


def test_node_counts_follow_sturm_ordering():
    grid = make_grid(-10.0, 10.0, 2001)
    v = GridFunction(grid, grid.x**2)
    for p in solve_potential(v, 5):
        assert count_nodes(p.state) == p.index


def test_states_are_normalized_and_sign_aligned():
    grid = make_grid(-10.0, 10.0, 1001)
    v = GridFunction(grid, grid.x**2)
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
    v = GridFunction(grid, grid.x**2)
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


# -- LAPACK call: bit-identity with scipy, fallback, guards -------------------


def scipy_solve_lowest(ham, k):
    """solve_lowest as computed through scipy.linalg.eigh_tridiagonal."""
    from scipy.linalg import eigh_tridiagonal

    off = np.full(ham.dim - 1, ham.off_diagonal)
    vals, vecs = eigh_tridiagonal(ham.diagonal, off, select="i", select_range=(0, k - 1))
    states = [align_sign(normalize(GridFunction(ham.grid, np.pad(vecs[:, n], 1))))
              for n in range(k)]
    return vals, states


def assert_same_bits(ham, k):
    vals, states = scipy_solve_lowest(ham, k)
    pairs = solve_lowest(ham, k)
    assert np.array_equal([p.energy for p in pairs], vals)
    for pair, state in zip(pairs, states):
        assert np.array_equal(pair.state.values, state.values)


@settings(max_examples=50)
@given(n=st.one_of(st.integers(1, 40), st.sampled_from([257, 999])),
       k=st.integers(1, 64), shape=st.sampled_from(["harmonic", "morse", "random"]),
       seed=st.integers(0, 2**32 - 1))
def test_solve_lowest_matches_scipy_bit_for_bit(n, k, shape, seed):
    grid = make_grid(-10.0, 10.0, n + 2)
    x = grid.x
    if shape == "harmonic":
        v = x**2
    elif shape == "morse":
        v = (2.0 - np.exp(-x)) ** 2 - np.exp(-x)
    else:
        v = np.random.default_rng(seed).normal(scale=50.0, size=x.size)
    assert_same_bits(assemble_hamiltonian(GridFunction(grid, v)), min(k, n))


@pytest.mark.parametrize("n_points", [2001, 16001])
@pytest.mark.parametrize("name", ["shifted-harmonic", "morse", "poschl-teller",
                                  "coulomb-radial"])
def test_catalog_oracle_matches_scipy_bit_for_bit(name, n_points):
    # the grids and level counts the oracle-verify benchmark solves
    lo, hi, _ = get_record(name).domain
    pair, _ = instantiate(name, None, make_grid(lo, hi, n_points))
    assert_same_bits(assemble_hamiltonian(pair.v_minus), 4)


def test_scipy_fallback_gives_the_same_bits(monkeypatch):
    grid = make_grid(-10.0, 10.0, 1001)
    ham = assemble_hamiltonian(GridFunction(grid, grid.x**2))
    native = solve_lowest(ham, 8)
    monkeypatch.setattr(_lapack, "_openblas", lambda: None)
    fallback = solve_lowest(ham, 8)
    assert [p.energy for p in fallback] == [p.energy for p in native]
    for a, b in zip(fallback, native):
        assert np.array_equal(a.state.values, b.state.values)


def test_library_load_failure_falls_back_to_scipy(monkeypatch):
    grid = make_grid(-10.0, 10.0, 1001)
    ham = assemble_hamiltonian(GridFunction(grid, grid.x**2))
    native = solve_lowest(ham, 4)

    def no_library(*args, **kwargs):
        raise OSError("cannot open shared object file")

    _lapack._openblas.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(_lapack.ctypes, "CDLL", no_library)
            assert _lapack._openblas() is None
        # the cached None holds after the library loader is restored
        fallback = solve_lowest(ham, 4)
    finally:
        _lapack._openblas.cache_clear()
    assert [p.energy for p in fallback] == [p.energy for p in native]
    for a, b in zip(fallback, native):
        assert np.array_equal(a.state.values, b.state.values)


def test_bundled_openblas_is_called_where_numpy_ships_it(monkeypatch):
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    if (lapack["name"] != "scipy-openblas"
            or "USE64BITINT" not in lapack.get("openblas configuration", "")):
        pytest.skip("numpy bundles no ILP64 scipy-openblas")
    assert _lapack._openblas() is not None
    for fallback in ("_scipy_lowest", "_scipy_band_lowest"):
        monkeypatch.setattr(_lapack, fallback,
                            lambda *args, name=fallback: pytest.fail(f"{name} ran"))
    # tridiag(-1, 2, -1) of order 3, whose lowest eigenvalue is 2 - √2
    assert np.isclose(_lapack.eigh_lowest(np.full(3, 2.0), np.full(2, -1.0), 1)[0][0],
                      2.0 - np.sqrt(2.0), rtol=0.0, atol=1e-15)
    band = np.zeros((5, 3))
    band[2], band[3, :2] = 2.0, -1.0
    assert np.isclose(_lapack.band_lowest(band)[0], 2.0 - np.sqrt(2.0), rtol=0.0, atol=1e-15)


def test_lapack_arguments_checked_before_the_call(monkeypatch):
    monkeypatch.setattr(_lapack, "_openblas", lambda: pytest.fail("LAPACK was called"))
    d, e = np.zeros(4), np.zeros(3)
    bad = [
        (d, e, 0, "k=0 must be at least 1"),
        (d, e, 2.0, "k=2.0 must be an integer"),
        (d, e, 5, "k=5 exceeds matrix dimension 4"),
        (np.zeros(1), np.zeros(0), 4, "k=4 exceeds matrix dimension 1"),
        (d.astype(np.float32), e, 1, "diagonal must be a C-contiguous 1-D float64 array"),
        (np.zeros(8)[::2], e, 1, "diagonal must be a C-contiguous 1-D float64 array"),
        (d.reshape(2, 2), e, 1, "diagonal must be a C-contiguous 1-D float64 array"),
        (d, e.astype(np.int64), 1, "off-diagonal must be a C-contiguous 1-D float64 array"),
        (d, np.zeros(4), 1, "off-diagonal length 4 does not fit diagonal length 4"),
        (np.zeros(0), np.zeros(0), 1, "off-diagonal length 0 does not fit diagonal length 0"),
    ]
    for d_, e_, k, message in bad:
        with pytest.raises(ValueError) as exc:
            _lapack.eigh_lowest(d_, e_, k)
        assert str(exc.value) == message


def test_band_arguments_checked_before_the_call(monkeypatch):
    monkeypatch.setattr(_lapack, "_openblas", lambda: pytest.fail("LAPACK was called"))
    band = np.zeros((5, 4))
    prefix = "band must be a finite float64 array of shape (5, m), m >= 1; got "
    bad = [
        (None, "dtype object"),
        ("band", "dtype <U4"),
        (band.astype(complex), "dtype complex128"),
        (band[:2], "shape (2, 4)"),
        (band[:3], "shape (3, 4)"),
        (np.zeros((7, 4)), "shape (7, 4)"),
        (np.zeros((5, 0)), "shape (5, 0)"),
        (band.ravel(), "shape (20,)"),
        (np.full((5, 4), np.nan), "entries that are not finite"),
        (np.full((5, 4), -np.inf), "entries that are not finite"),
    ]
    for band_, detail in bad:
        with pytest.raises(ValueError) as exc:
            _lapack.band_lowest(band_)
        assert str(exc.value) == prefix + detail


def test_lapack_info_mapping():
    _lapack._check_info("dstebz", 0)
    _lapack._check_info("dstein", 0)
    with pytest.raises(ConvergenceError, match=r"dstein: 3 eigenvector\(s\) did not converge"):
        _lapack._check_info("dstein", 3)
    with pytest.raises(ConvergenceError, match=r"dstebz: bisection did not converge \(INFO=2\)"):
        _lapack._check_info("dstebz", 2)
    # with JOBZ='N', DSBEVX's INFO > 0 is that of its DSTEBZ bisection
    with pytest.raises(ConvergenceError, match=r"dsbevx: bisection did not converge \(INFO=1\)"):
        _lapack._check_info("dsbevx", 1)
    with pytest.raises(RuntimeError, match="internal error: dstein rejected argument 9") as exc:
        _lapack._check_info("dstein", -9)
    assert not isinstance(exc.value, ConvergenceError)


def test_non_finite_hamiltonian_never_reaches_lapack():
    # 2/h**2 ≈ 1.4e308 on this grid, so adding V = w² for w = 1.3e154 overflows
    grid = make_grid(0.0, 2.4e-152, 201)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        with pytest.raises(GridError, match="not finite at 199 interior node"):
            assemble_hamiltonian(GridFunction(grid, np.full(201, 1.3e154**2)))
    grid = make_grid(0.0, 1.0, 11)
    with pytest.raises(GridError, match="diagonal 2/h\\*\\*2 \\+ V is not finite at 1 "):
        HamiltonianMatrix(grid, np.r_[np.zeros(8), np.nan], -1.0)
    with pytest.raises(GridError, match="off-diagonal -inf is not finite"):
        HamiltonianMatrix(grid, np.zeros(9), -np.inf)
