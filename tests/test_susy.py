import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from susyqm import (EvaluationError, GridFunction, GridMismatchError,
                    NodePresentError, SuperpotentialFamily, SusyPhase,
                    apply_a, block_spectra, build_hierarchy, charge_matrices,
                    decay_trust_window, get_record, ground_state, inner_product,
                    make_grid, merged_params, partner_pair_from_w,
                    partner_potentials, record_grid,
                    superpotential_from_ground_state, susy_phase, verify_algebra,
                    zero_mode)

HARMONIC = SuperpotentialFamily.from_expression("x")
GRID = make_grid(-10.0, 10.0, 2001)


def test_family_from_expression_metadata():
    fam = SuperpotentialFamily.from_expression("A*tanh(x) + b")
    assert fam.parameter_names == ("A", "b")
    assert fam.analytic_derivative
    assert fam.decay_sides == "both"
    assert fam.source == "A*tanh(x) + b"


def test_family_missing_parameter():
    fam = SuperpotentialFamily.from_expression("A*x")
    with pytest.raises(EvaluationError):
        fam.w_grid(GRID, {})


def test_family_nonfinite_evaluation():
    fam = SuperpotentialFamily.from_expression("ln(x)")
    with pytest.raises(EvaluationError):
        fam.w_grid(GRID, {})  # grid spans x <= 0


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


def test_charge_matrices_block_layout():
    cm = charge_matrices(HARMONIC, {}, make_grid(-5.0, 5.0, 101))
    m = cm.a_matrix.shape[0]
    q = cm.q.toarray()
    assert q.shape == (2 * m, 2 * m)
    assert np.all(q[:m, :] == 0.0)
    assert np.all(q[:, m:] == 0.0)
    assert np.allclose(q[m:, :m], cm.a_matrix.toarray())
    assert np.allclose(cm.a_dagger_matrix.toarray(), cm.a_matrix.toarray().T)


def test_block_spectra_positive_and_degenerate():
    cm = charge_matrices(HARMONIC, {}, make_grid(-8.0, 8.0, 501))
    lo, hi = block_spectra(cm)
    scale = max(lo[-1], hi[-1])
    assert lo[0] > -1e-12 * scale
    assert hi[0] > -1e-12 * scale
    # Square blocks A†A and AA† are similar: identical spectra.
    assert np.allclose(lo, hi, rtol=1e-9, atol=1e-9 * scale)


def test_verify_algebra_flags_violations():
    cm = charge_matrices(HARMONIC, {}, make_grid(-5.0, 5.0, 101))
    rep = verify_algebra(cm, tolerance=1e-30)
    assert not rep.passed


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


def test_susy_phase_three_ways():
    assert susy_phase(HARMONIC, {}, GRID) is SusyPhase.UNBROKEN_MINUS
    mirror = SuperpotentialFamily.from_expression("-x")
    assert susy_phase(mirror, {}, GRID) is SusyPhase.UNBROKEN_PLUS
    # Even w: both zero modes blow up on one side each.
    broken = SuperpotentialFamily.from_expression("x^2")
    assert susy_phase(broken, {}, GRID) is SusyPhase.BROKEN


def test_susy_phase_hard_wall():
    # Coulomb-type w on the half line; decay is diagnostic at the right only.
    fam = SuperpotentialFamily.from_callables(
        lambda x, p: 1.0 / (p["l"] + 1) - (p["l"] + 1) / x,
        lambda x, p: (p["l"] + 1) / x**2,
        parameter_names=("l",), domain=(1e-3, 40.0), hard_wall_left=True)
    grid = make_grid(1e-3, 40.0, 2001)
    assert susy_phase(fam, {"l": 0.0}, grid) is SusyPhase.UNBROKEN_MINUS


def test_ladder_grid_mismatch():
    from susyqm.susy import apply_a_from_w

    psi = zero_mode(HARMONIC, {}, make_grid(-5.0, 5.0, 101), -1)
    with pytest.raises(GridMismatchError):
        apply_a_from_w(HARMONIC.w_grid(GRID, {}), psi)


def test_superpotential_round_trip():
    psi = GridFunction(GRID, np.exp(-GRID.x**2 / 2.0))
    w = superpotential_from_ground_state(psi)
    lo, hi = decay_trust_window(psi)
    assert np.max(np.abs(w.values[lo:hi + 1] - GRID.x[lo:hi + 1])) < 5e-6


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
    assert len(hier) == 2
    assert hier.levels[0].ground_energy == pytest.approx(-1.0, abs=1e-4)
    assert hier.levels[1].ground_energy is None
    assert hier.levels[1].ground_state is None
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
    assert np.allclose(lv1.ground_state.values, oracle.state.values)
