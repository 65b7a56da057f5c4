import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

from susyqm import (EvaluationError, GridFunction, GridMismatchError, NodePresentError,
                    SuperpotentialFamily, SusyPhase,
                    apply_a, block_spectra, boundary_amplitude_ratio, build_hierarchy,
                    charge_matrices, decay_trust_window, get_record, ground_state, inner_product,
                    make_grid, merged_params, partner_pair_from_w,
                    partner_potentials, record_grid,
                    superpotential_from_ground_state, susy_phase, verify_algebra,
                    zero_mode)
from susyqm import _lapack
from susyqm.susy import _derivative_5pt, _zero_mode_ratios

HARMONIC = SuperpotentialFamily.from_expression("x")
GRID = make_grid(-10.0, 10.0, 2001)


def test_family_from_expression_metadata():
    fam = SuperpotentialFamily.from_expression("A*tanh(x) + b")
    assert fam.parameter_names == ("A", "b")
    assert fam.analytic_derivative
    assert fam.decay_sides == "both"


def test_family_missing_parameter():
    fam = SuperpotentialFamily.from_expression("A*x")
    with pytest.raises(EvaluationError):
        fam.w_grid(GRID, {})


def test_family_nonfinite_evaluation():
    fam = SuperpotentialFamily.from_expression("ln(x)")
    with pytest.raises(EvaluationError):
        fam.w_grid(GRID, {})  # grid spans x <= 0


def test_w_rows_finite_difference_matches_w_prime_grid():
    # no analytic w′: one finite difference over each row, equal row by row
    fam = SuperpotentialFamily.from_callables(
        lambda x, p: p["a"] * np.tanh(x) + x**3 / p["b"], parameter_names=("a", "b"))
    a0 = {"a": 1.0, "b": 2.0}
    targets, images = [None, "a", "b", "a", "b"], [None, -0.5, 1e-3, 3.0, 0.0]
    rows = [a0, {"a": -0.5, "b": 2.0}, {"a": 1.0, "b": 1e-3}, {"a": 3.0, "b": 2.0}]
    with np.errstate(all="ignore"):  # the caller's, as in the search
        got = list(fam._w_rows(GRID, a0, list(zip(targets, images))))
    for (w, w_prime), row in zip(got, rows, strict=False):
        assert np.array_equal(w, fam.w_grid(GRID, row).values)
        assert np.array_equal(w_prime, fam.w_prime_grid(GRID, row).values)
    # w is not finite at b = 0, so w_grid raises there: a miss
    assert got[-1] is None


@pytest.mark.parametrize("text,a0,targets,images", [
    # families whose parameter columns once broadcast with other bits
    ("ln(b) - exp(-x)", {"b": 2.0}, ["b"] * 4, [2.0, 0.37, 1.7, 1e-3]),
    ("a**2*x + 0.3", {"a": 1.1}, ["a"] * 4, [1.1, -0.7, 0.123456789, 3.3]),
    ("a*x^3 + c*x - 0.3", {"a": 1.0, "c": 0.5}, ["a", "c", "c", "a"], [1.3, -0.2, 2.0, 0.1]),
    ("exp(a*x) - b", {"a": 1.0, "b": 2.0}, ["a", "b"], [0.9, 2.5]),
])
def test_compiled_rows_equal_w_grid_bit_for_bit(text, a0, targets, images):
    fam = SuperpotentialFamily.from_expression(text)
    grid = make_grid(-6.0, 6.0, 2001)
    with np.errstate(all="ignore"):
        got = list(fam._w_rows(grid, a0, list(zip(targets, images))))
    for (w, w_prime), t, new in zip(got, targets, images, strict=True):
        row = {**a0, t: new}
        assert np.array_equal(np.broadcast_to(w, grid.x.shape), fam.w_grid(grid, row).values)
        assert np.array_equal(np.broadcast_to(w_prime, grid.x.shape),
                              fam.w_prime_grid(grid, row).values)


@pytest.mark.parametrize("text,a0,image", [
    ("x + 1/(a^2 - 4)", {"a": 2.5}, 2.0),  # divides by zero in Python floats
    ("x*a**400", {"a": 1.0}, 10.0),  # overflows in Python floats
    ("x + a**(-1.5)", {"a": 1.0}, -2.0),  # comes out complex
])
def test_compiled_row_whose_parameter_subterm_fails_is_a_miss(text, a0, image):
    fam = SuperpotentialFamily.from_expression(text)
    with pytest.raises(EvaluationError):
        partner_potentials(fam, {**a0, "a": image}, GRID)
    with np.errstate(all="ignore"):
        rows = list(fam._w_rows(GRID, a0, [("a", image), ("a", a0["a"])]))
    assert rows[0] is None and rows[1] is not None
def test_partner_potentials_harmonic():
    pair = partner_potentials(HARMONIC, {}, GRID)
    assert np.allclose(pair.v_minus.values, GRID.x**2 - 1.0)
    assert np.allclose(pair.v_plus.values, GRID.x**2 + 1.0)


def test_partner_pair_tabulated_fallback():
    # No analytic w': the pair is built from a finite-difference derivative.
    w = GridFunction(GRID, np.tanh(GRID.x))
    pair = partner_pair_from_w(w)
    exact = np.tanh(GRID.x) ** 2 - 1.0 / np.cosh(GRID.x) ** 2
    assert np.max(np.abs(pair.v_minus.values - exact)) < 1e-4


def test_partner_pair_rejects_w_prime_on_another_grid():
    other = make_grid(-5.0, 5.0, GRID.n_points)
    with pytest.raises(GridMismatchError, match="different grids"):
        partner_pair_from_w(GridFunction(GRID, GRID.x), GridFunction(other, np.ones(other.n_points)))


def test_partner_spectra_interlace():
    # E_n^+ = E_{n+1}^- when the minus sector holds the zero mode.
    from susyqm import solve_potential

    pair = partner_potentials(HARMONIC, {}, GRID)
    minus = [p.energy for p in solve_potential(pair.v_minus, 4)]
    plus = [p.energy for p in solve_potential(pair.v_plus, 3)]
    assert minus[0] == pytest.approx(0.0, abs=2e-5)
    for n in range(3):
        assert plus[n] == pytest.approx(minus[n + 1], abs=1e-4)


@pytest.mark.parametrize("text,params", [
    ("x", {}),
    ("A*tanh(x)", {"A": 2.0}),
    ("A - exp(-x)", {"A": 1.5}),
])
def test_charge_algebra_closes(text, params):
    fam = SuperpotentialFamily.from_expression(text)
    cm = charge_matrices(fam, params, make_grid(-10.0, 10.0, 801))
    rep = verify_algebra(cm)
    assert rep.passed
    # Nilpotency and the anticommutator are matrix identities here.
    assert rep.q_squared == 0.0
    assert rep.q_dagger_squared == 0.0
    assert rep.anticommutator_defect == 0.0
    assert rep.q_commutator < 1e-10 * rep.h_scale
    assert rep.q_dagger_commutator < 1e-10 * rep.h_scale


def _dense(band):
    """The m×m matrix of an offset-major band, entry by entry."""
    width, m = band.shape
    out = np.zeros((m, m))
    for k in range(width):
        for i in range(m):
            j = i + k - width // 2
            if 0 <= j < m:
                out[i, j] = band[k, i]
            else:
                assert band[k, i] == 0.0
    return out


def test_charge_matrices_block_layout():
    grid = make_grid(-5.0, 5.0, 101)
    cm = charge_matrices(HARMONIC, {}, grid)
    m = grid.n_points - 2
    c = 1.0 / (2.0 * grid.h)
    a = (np.diag(grid.x[1:-1]) + np.diag(np.full(m - 1, c), 1)
         - np.diag(np.full(m - 1, c), -1))
    assert [b.shape for b in (cm.a, cm.a_dagger, cm.lower, cm.upper)] == [
        (3, m), (3, m), (5, m), (5, m)]
    assert np.array_equal(_dense(cm.a), a)
    assert np.array_equal(_dense(cm.a_dagger), a.T)
    # dense products sum in another order: roundoff relative to the entries of A
    close = dict(rtol=0.0, atol=1e-13 * np.abs(a).max() ** 2)
    assert np.allclose(_dense(cm.lower), a.T @ a, **close)
    assert np.allclose(_dense(cm.upper), a @ a.T, **close)
    # Q = [[0, 0], [A, 0]] and ℋ = {Q, Q†} = diag(A†A, AA†)
    q = np.block([[np.zeros((m, m)), np.zeros((m, m))], [a, np.zeros((m, m))]])
    h = q @ q.T + q.T @ q
    assert np.allclose(h, np.block([[_dense(cm.lower), np.zeros((m, m))],
                                    [np.zeros((m, m)), _dense(cm.upper)]]), **close)


# -- bit identity with the scipy.sparse construction the bands replaced ----------


def _sparse_reference(w, h):
    """AlgebraReport norms and block spectra from scipy.sparse block matrices.

    ``w`` holds the interior nodes.  Returns the five defining norms with
    h_scale, and a function giving the lowest eigenvalues of A†A and AA†.
    """
    from scipy import linalg, sparse

    def fro(s):
        return float(np.sqrt(s.power(2).sum()))

    def lowest_eigval(s):
        # LAPACK lower band storage: row k holds diagonal k from column 0
        band = np.zeros((3, m))
        for k in range(3):
            band[k, :m - k] = s.diagonal(k)
        return linalg.eigvals_banded(band, lower=True, select="i", select_range=(0, 0))

    m = w.size
    c = 1.0 / (2.0 * h)
    d = sparse.diags([np.full(m - 1, -c), np.full(m - 1, c)], offsets=[-1, 1])
    a = (d + sparse.diags(w)).tocsr()
    a_dag = a.T.tocsr()
    z = sparse.csr_matrix((m, m))
    q = sparse.bmat([[z, z], [a, z]], format="csr")
    qd = sparse.bmat([[z, a_dag], [z, z]], format="csr")
    hm = sparse.bmat([[a_dag @ a, z], [z, a @ a_dag]], format="csr")
    h_scale = fro(hm)  # sorts the rows of hm in place, as the products read them
    norms = (fro(q @ q), fro(qd @ qd), fro(q @ qd + qd @ q - hm),
             fro(q @ hm - hm @ q), fro(qd @ hm - hm @ qd))
    return (*norms, h_scale), lambda: (lowest_eigval(a_dag @ a),
                                       lowest_eigval(a @ a_dag))


def assert_matches_sparse(family, params, grid, spectra=True):
    cm = charge_matrices(family, params, grid)
    rep = verify_algebra(cm)
    norms, reference_spectra = _sparse_reference(
        family.w_grid(grid, params).values[1:-1], grid.h)
    assert (rep.q_squared, rep.q_dagger_squared, rep.anticommutator_defect,
            rep.q_commutator, rep.q_dagger_commutator, rep.h_scale) == norms
    if spectra:
        (lower, upper), (ref_lower, ref_upper) = block_spectra(cm), reference_spectra()
        assert np.array_equal(lower, ref_lower)
        assert np.array_equal(upper, ref_upper)


@settings(max_examples=80)
@given(m=st.one_of(st.integers(1, 40), st.sampled_from([257, 1001])),
       pool=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=5),
       scale=st.sampled_from([1e-3, 1.0, 1e3]),
       h=st.sampled_from([1e-3, 0.0137, 0.1, 0.5, 2.0]),
       seed=st.integers(0, 2**32 - 1))
def test_band_algebra_matches_sparse_bit_for_bit(m, pool, scale, h, seed):
    # w drawn from a few values and exact zeros, so entries repeat and cancel
    values = np.array([0.0, *pool]) * scale
    w = np.random.default_rng(seed).choice(values, size=m + 2)
    family = SuperpotentialFamily.from_callables(lambda x, p: w.copy())
    assert_matches_sparse(family, {}, make_grid(0.0, h * (m + 1), m + 2))


@pytest.mark.parametrize("name", ["shifted-harmonic", "morse", "poschl-teller",
                                  "coulomb-radial"])
def test_catalog_algebra_matches_sparse_bit_for_bit(name):
    # the grids of the oracle-verify benchmark: the algebra on the full grid,
    # the block spectra on the one sixteen times coarser
    rec = get_record(name)
    lo, hi, _ = rec.domain
    params = merged_params(rec, None)
    for n_points in (2001, 4001, 6001, 9001, 12001, 14001, 16001):
        assert_matches_sparse(rec.family, params, make_grid(lo, hi, n_points),
                              spectra=False)
        coarse = make_grid(lo, hi, (n_points - 1) // 16 + 1)
        assert_matches_sparse(rec.family, params, coarse)


def test_block_spectra_positive_and_degenerate():
    cm = charge_matrices(HARMONIC, {}, make_grid(-8.0, 8.0, 501))
    lo, hi = block_spectra(cm)
    assert lo.shape == hi.shape == (1,)
    scale = max(np.abs(cm.lower).max(), np.abs(cm.upper).max())
    assert lo[0] > -1e-12 * scale
    assert hi[0] > -1e-12 * scale
    # Square blocks A†A and AA† are similar: identical spectra, the lowest
    # values included.
    assert np.isclose(lo[0], hi[0], rtol=1e-9, atol=1e-9 * scale)


@pytest.mark.parametrize("name", ["shifted-harmonic", "morse", "poschl-teller",
                                  "coulomb-radial", "random"])
def test_block_spectra_lowest_matches_dense(name):
    # an independent solver on the dense blocks, to roundoff of their scale
    if name == "random":
        w = np.random.default_rng(5).uniform(-5.0, 5.0, 301)
        family, params = SuperpotentialFamily.from_callables(lambda x, p: w.copy()), {}
        grid = make_grid(0.0, 3.0, w.size)
    else:
        rec = get_record(name)
        lo, hi, _ = rec.domain
        family, params, grid = rec.family, merged_params(rec, None), make_grid(lo, hi, 501)
    cm = charge_matrices(family, params, grid)
    for block, lowest in zip((cm.lower, cm.upper), block_spectra(cm)):
        dense = _dense(block)
        assert abs(lowest[0] - np.linalg.eigvalsh(dense)[0]) <= 1e-13 * np.abs(dense).max()


def _morse_blocks():
    rec = get_record("morse")
    lo, hi, _ = rec.domain
    return charge_matrices(rec.family, merged_params(rec, None), make_grid(lo, hi, 563))


def test_block_spectra_scipy_fallback_gives_the_same_bits(monkeypatch):
    cm = _morse_blocks()
    native = block_spectra(cm)
    monkeypatch.setattr(_lapack, "_openblas", lambda: None)
    fallback = block_spectra(cm)
    assert all(np.array_equal(a, b) for a, b in zip(fallback, native))


def test_block_spectra_library_load_failure_falls_back_to_scipy(monkeypatch):
    cm = _morse_blocks()
    native = block_spectra(cm)

    def no_library(*args, **kwargs):
        raise OSError("cannot open shared object file")

    _lapack._openblas.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(_lapack.ctypes, "CDLL", no_library)
            assert _lapack._openblas() is None
        # the cached None holds after the library loader is restored
        fallback = block_spectra(cm)
    finally:
        _lapack._openblas.cache_clear()
    assert all(np.array_equal(a, b) for a, b in zip(fallback, native))


def test_verify_algebra_flags_violations():
    cm = charge_matrices(HARMONIC, {}, make_grid(-5.0, 5.0, 101))
    rep = verify_algebra(cm, tolerance=1e-30)
    assert not rep.passed


@pytest.mark.parametrize("tolerance", [np.nan, 0.0, -1.0, np.inf])
def test_verify_algebra_rejects_a_tolerance_that_is_not_positive_and_finite(tolerance):
    cm = charge_matrices(HARMONIC, {}, make_grid(-5.0, 5.0, 101))
    with pytest.raises(ValueError, match="tolerance must be a positive finite number"):
        verify_algebra(cm, tolerance)


def test_zero_mode_is_annihilated():
    fine = make_grid(-10.0, 10.0, 16001)
    psi = zero_mode(HARMONIC, {}, fine, -1)
    residual = apply_a(HARMONIC, {}, psi)
    rel = np.sqrt(inner_product(residual, residual) / inner_product(psi, psi))
    assert rel < 2e-6


def test_zero_mode_peak_is_one():
    psi = zero_mode(HARMONIC, {}, GRID, -1)
    assert np.max(psi.values) == pytest.approx(1.0)
    assert np.allclose(psi.values, np.exp(-GRID.x**2 / 2.0), atol=1e-9)
    plus = zero_mode(HARMONIC, {}, GRID, +1)
    assert plus.values[0] == pytest.approx(1.0)  # blows up toward the ends
    with pytest.raises(ValueError):
        zero_mode(HARMONIC, {}, GRID, 0)


def _zero_mode_case(name):
    if name == "cubic":
        return (SuperpotentialFamily.from_expression("a*x^3 + b*x"),
                {"a": 0.7, "b": -1.3}, make_grid(-3.0, 3.0, 1001))
    rec = get_record(name)
    return rec.family, merged_params(rec, None), record_grid(rec)


@pytest.mark.parametrize("name", ["shifted-harmonic", "morse", "poschl-teller",
                                  "coulomb-radial", "cubic"])
def test_zero_mode_equals_scipy_cumulative_trapezoid(name):
    family, params, grid = _zero_mode_case(name)
    phi = cumulative_trapezoid(family.w_grid(grid, params).values, dx=grid.h,
                               initial=0.0)
    for sign in (-1, 1):
        expo = sign * phi
        assert np.array_equal(zero_mode(family, params, grid, sign).values,
                              np.exp(expo - expo.max()))


def test_zero_mode_ratios_tabulate_w_once():
    calls = []

    def w(x, p):
        calls.append(p)
        return 0.7 * x**3 - 1.3 * x

    family = SuperpotentialFamily.from_callables(w, None, ())
    grid = make_grid(-3.0, 3.0, 1001)
    ratios = _zero_mode_ratios(family, {}, grid)
    assert len(calls) == 1
    assert ratios == tuple(boundary_amplitude_ratio(zero_mode(family, {}, grid, sign))
                           for sign in (-1, 1))


def test_susy_phase_three_ways():
    assert susy_phase(HARMONIC, {}, GRID) is SusyPhase.UNBROKEN_MINUS
    mirror = SuperpotentialFamily.from_expression("-x")
    assert susy_phase(mirror, {}, GRID) is SusyPhase.UNBROKEN_PLUS
    # Even w: both zero modes blow up on one side each.
    broken = SuperpotentialFamily.from_expression("x^2")
    assert susy_phase(broken, {}, GRID) is SusyPhase.BROKEN


@pytest.mark.parametrize("text, phase", [
    # both zero modes decay, ratios 9.4e-14 (minus) and 1.1e-13 (plus)
    ("30*sin(x)", SusyPhase.UNBROKEN_MINUS),
    # both decay, ratios 9.8e-13 (minus) and 2.3e-13 (plus)
    ("30*sin(x) + 0.5", SusyPhase.UNBROKEN_PLUS),
])
def test_susy_phase_when_both_zero_modes_decay(text, phase):
    grid = make_grid(-1.5 * np.pi, 1.5 * np.pi, 2001)
    assert susy_phase(SuperpotentialFamily.from_expression(text), {}, grid) is phase


def test_susy_phase_hard_wall():
    # Coulomb-type w on the half line; decay is diagnostic at the right only.
    fam = SuperpotentialFamily.from_callables(
        lambda x, p: 1.0 / (p["l"] + 1) - (p["l"] + 1) / x,
        lambda x, p: (p["l"] + 1) / x**2,
        parameter_names=("l",), domain=(1e-3, 40.0), hard_wall_left=True)
    grid = make_grid(1e-3, 40.0, 2001)
    assert susy_phase(fam, {"l": 0.0}, grid) is SusyPhase.UNBROKEN_MINUS


def test_superpotential_round_trip():
    psi = GridFunction(GRID, np.exp(-GRID.x**2 / 2.0))
    w = superpotential_from_ground_state(psi)
    lo, hi = decay_trust_window(psi)
    assert np.max(np.abs(w.values[lo:hi + 1] - GRID.x[lo:hi + 1])) < 5e-6


def test_derivative_5pt_edges_equal_the_full_grid_gradient(monkeypatch):
    # the edges come from np.gradient of the three end nodes on each side,
    # bit for bit what np.gradient of the whole array gives there
    gradient, sizes = np.gradient, []

    def spy(f, *args, **kwargs):
        sizes.append(len(f))
        return gradient(f, *args, **kwargs)

    monkeypatch.setattr(np, "gradient", spy)
    rng = np.random.default_rng(0)
    for _ in range(2000):
        values = rng.standard_normal(int(rng.integers(3, 40))) * 10.0 ** rng.integers(-3, 4)
        h = float(rng.uniform(1e-3, 1.0))
        out, full = _derivative_5pt(values, h), gradient(values, h, edge_order=2)
        assert np.array_equal(out[:2], full[:2]) and np.array_equal(out[-2:], full[-2:])
    assert set(sizes) == {3}


def test_superpotential_rejects_excited_state():
    psi = GridFunction(GRID, GRID.x * np.exp(-GRID.x**2 / 2.0))
    with pytest.raises(NodePresentError):
        superpotential_from_ground_state(psi)


def test_decay_trust_window_gaussian():
    psi = GridFunction(GRID, np.exp(-GRID.x**2 / 2.0))
    lo, hi = decay_trust_window(psi)
    # |psi| >= 1e-6 of peak exactly where x² <= 2 ln 1e6.
    edge = np.sqrt(2.0 * np.log(1e6))
    assert GRID.x[lo] == pytest.approx(-edge, abs=2 * GRID.h)
    assert GRID.x[hi] == pytest.approx(edge, abs=2 * GRID.h)
    assert lo > 0 and hi < GRID.n_points - 1


def test_hierarchy_strips_harmonic_levels():
    grid = make_grid(-10.0, 10.0, 8001)
    v = GridFunction(grid, grid.x**2 - 1.0)
    hier = build_hierarchy(v, 3)
    assert not hier.truncated
    assert [lv.depth for lv in hier] == [1, 2, 3]
    for k, lv in enumerate(hier):
        assert lv.ground_energy == pytest.approx(2.0 * k, abs=5e-5)
    # Level 2 should rebuild x² + 1 inside its own trust window.
    lv2 = hier.levels[1]
    lo, hi = lv2.trust
    exact = grid.x[lo:hi + 1] ** 2 + 1.0
    assert np.max(np.abs(lv2.potential.values[lo:hi + 1] - exact)) < 5e-4


def test_hierarchy_truncates_when_spectrum_runs_out():
    # -2 sech² x holds exactly one bound state; level 2 has none.
    grid = make_grid(-16.0, 16.0, 3201)
    v = GridFunction(grid, -2.0 / np.cosh(grid.x) ** 2)
    hier = build_hierarchy(v, 3)
    assert hier.truncated
    assert len(hier.levels) == 2
    assert hier.levels[0].ground_energy == pytest.approx(-1.0, abs=1e-4)
    assert hier.levels[1].ground_energy is None
    assert hier.note is not None and "level 2" in hier.note


def test_hierarchy_depth_validated():
    v = GridFunction(GRID, GRID.x**2)
    with pytest.raises(ValueError):
        build_hierarchy(v, 0)


def test_hierarchy_level_one_matches_oracle():
    grid = make_grid(-10.0, 10.0, 2001)
    v = GridFunction(grid, grid.x**2 - 1.0)
    lv1 = build_hierarchy(v, 1).levels[0]
    oracle = ground_state(v)
    assert lv1.ground_energy == pytest.approx(oracle.energy)
