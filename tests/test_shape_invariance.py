import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import susyqm.shape_invariance as si_module
from susyqm import (ChainConstructionError, Cyclic, EvaluationError, GridError,
                    PowerScaling, Projective, Scaling, SuperpotentialFamily,
                    TransformCandidate, TransformError, Translation,
                    algebraic_spectrum, classify_family, count_nodes,
                    default_candidates, get_record, ground_state, iterate_params,
                    list_catalog, make_grid,
                    partner_potentials, record_grid, search_transform,
                    si_residual, sign_aligned_distance, solve_potential,
                    spectrum_from_measured_residuals, wavefunction_chain)
from susyqm.shape_invariance import (_GOLDEN, _MEAN_OVER_SPREAD, _REFINE_ITERS, EDGE_TRIM,
                                     _block_rows, _golden_lockstep, _minus_sector_decays,
                                     _partial_sums, _residual_reports, _score_trials, _trial_count)

MORSE = SuperpotentialFamily.from_expression("A - exp(-x)", domain=(-3.5, 10.0))
MORSE_GRID = make_grid(-3.5, 10.0, 1401)
PT = SuperpotentialFamily.from_expression("A*tanh(x)")
PT_GRID = make_grid(-10.0, 10.0, 2001)


# -- transform variants ----------------------------------------------------------


def test_translation_apply_and_dict():
    t = Translation(-1.0)
    assert t.apply({"A": 2.0}) == {"A": 1.0}
    assert t.to_dict() == {"kind": "translation", "alpha": -1.0, "param": None}


def test_scalar_transform_target_resolution():
    t = Translation(1.0, param="b")
    assert t.apply({"a": 0.0, "b": 2.0}) == {"a": 0.0, "b": 3.0}
    with pytest.raises(TransformError):
        Translation(1.0, param="c").apply({"a": 0.0, "b": 2.0})
    with pytest.raises(TransformError):
        Translation(1.0).apply({"a": 0.0, "b": 2.0})  # ambiguous


def test_scalar_transform_vacuous_on_empty_params():
    for t in (Translation(3.0), Scaling(0.5), PowerScaling(0.5, 2), Projective(0.5, 0.25)):
        assert t.apply({}) == {}


def test_scaling_range_enforced():
    Scaling(0.5)
    for q in (0.0, 1.0, -0.1, 1.7):
        with pytest.raises(TransformError):
            Scaling(q)


def test_power_scaling_validation():
    PowerScaling(0.5, 3)
    with pytest.raises(TransformError):
        PowerScaling(1.5, 2)
    with pytest.raises(TransformError):
        PowerScaling(0.5, 2.0)  # float p
    with pytest.raises(TransformError):
        PowerScaling(0.5, True)


def test_projective_validation_and_singularity():
    Projective(2.0, 0.5)
    with pytest.raises(TransformError):
        Projective(0.0, 0.5)
    with pytest.raises(TransformError):
        Projective(1.0, 1.0)
    with pytest.raises(TransformError):
        Projective(1.0, 0.5).apply({"a": -2.0})  # 1 + p·a = 0


def test_transform_rejects_nonfinite_image():
    with pytest.raises(TransformError):
        Translation(math.inf).apply({"a": 1.0})


def test_cyclic_walks_the_cycle():
    t = Cyclic(({"a": 1.0}, {"a": 2.0}, {"a": 0.5}))
    assert t.period == 3
    assert t.apply({"a": 1.0}) == {"a": 2.0}
    assert t.apply({"a": 0.5}) == {"a": 1.0}  # wraps
    with pytest.raises(TransformError):
        t.apply({"a": 7.0})
    with pytest.raises(TransformError, match="not on the declared cycle"):
        t.apply({"b": 1.0})
    with pytest.raises(TransformError):
        Cyclic(())
    d = t.to_dict()
    assert d["kind"] == "cyclic" and d["period"] == 3


def test_iterate_params_orbit():
    orbit = iterate_params(Translation(-1.0), {"A": 3.0}, 3)
    assert [p["A"] for p in orbit] == [3.0, 2.0, 1.0, 0.0]
    assert orbit[0] == {"A": 3.0}
    with pytest.raises(ValueError):
        iterate_params(Translation(1.0), {"A": 0.0}, -1)


# -- residual test ------------------------------------------------------------------


def test_si_residual_morse():
    # V₊(A) − V₋(A−1) = A² − (A−1)² = 3 at A=2, pointwise.
    rep = si_residual(MORSE, {"A": 2.0}, Translation(-1.0), MORSE_GRID)
    assert rep.passed
    assert rep.residual_mean == pytest.approx(3.0, abs=1e-9)
    assert rep.residual_stddev < 1e-8


def test_si_residual_poschl_teller():
    rep = si_residual(PT, {"A": 3.0}, Translation(-1.0), PT_GRID)
    assert rep.passed
    assert rep.residual_mean == pytest.approx(5.0, abs=1e-9)
    assert rep.residual_stddev < 1e-8


def test_si_residual_rejects_wrong_step():
    rep = si_residual(PT, {"A": 3.0}, Translation(-2.0), PT_GRID)
    assert not rep.passed
    # Residual keeps a 4 sech² x-dependence; orders of magnitude off the gate.
    assert rep.residual_stddev > 0.1


def test_si_residual_tolerance_tier():
    rep = si_residual(MORSE, {"A": 2.0}, Translation(-1.0), MORSE_GRID)
    assert rep.tolerance_used == 1e-6
    tab = SuperpotentialFamily.from_callables(
        lambda x, p: p["A"] - np.exp(-x), parameter_names=("A",), domain=(-3.5, 10.0))
    rep_fd = si_residual(tab, {"A": 2.0}, Translation(-1.0), MORSE_GRID)
    assert rep_fd.tolerance_used == 1e-4
    assert rep_fd.passed  # FD error is x-independent-ish here but under tier anyway


def test_si_residual_dict_shape():
    d = si_residual(MORSE, {"A": 2.0}, Translation(-1.0), MORSE_GRID).to_dict()
    assert set(d) == {"residual_mean", "residual_stddev", "passed", "tolerance_used"}


@pytest.mark.parametrize("n_points", [3, 4, 5, 6])
def test_statistic_needs_three_samples(n_points):
    # On [-6, 6] at 6 points the two samples sit at ±1.2, where the even
    # V₊ − V₋ = 2w′ of the identity translation agrees, so the cubic would pass.
    cubic = SuperpotentialFamily.from_expression("a*x^3 + 0.3")
    grid = make_grid(-6.0, 6.0, n_points)
    message = f"{n_points} grid points are too few .* at least 7"
    with pytest.raises(GridError, match=message):
        si_residual(cubic, {"a": 1.0}, Translation(0.0), grid)
    with pytest.raises(GridError, match=message):
        search_transform(cubic, {"a": 1.0}, grid, budget=3)
    grid = make_grid(-6.0, 6.0, 7)
    assert not si_residual(cubic, {"a": 1.0}, Translation(0.0), grid).passed
    assert search_transform(cubic, {"a": 1.0}, grid, budget=9) is None


# -- spectra ------------------------------------------------------------------------


def test_algebraic_spectrum_constant_r():
    # Identity orbit with constant R = 2: the harmonic ladder E_n = 2n.
    spec = algebraic_spectrum(lambda a: 2.0, Translation(0.0), {}, 4)
    assert spec.energies == [0.0, 2.0, 4.0, 6.0, 8.0]
    assert not spec.truncated


def test_algebraic_spectrum_truncates_on_nonpositive_r():
    # R(a_k) = a_{k-1}² − a_k² = 2a_k + 1 along the A → A−1 orbit.
    spec = algebraic_spectrum(lambda a: 2.0 * a["A"] + 1.0, Translation(-1.0), {"A": 2.0}, 6)
    assert spec.energies == [0.0, 3.0, 4.0]
    assert spec.truncated
    with pytest.raises(ValueError):
        algebraic_spectrum(lambda a: 1.0, Translation(0.0), {}, -1)


def _per_step_spectrum(family, t, a0, grid, n_max):
    """The measured spectrum as one si_residual call per orbit step, each
    tabulating both of its orbit points: the reference the orbit walk of
    spectrum_from_measured_residuals must equal bit for bit."""
    orbit = iterate_params(t, a0, n_max)

    def step(a):
        report = si_residual(family, a, t, grid)
        return report.residual_mean if report.passed else 0.0

    return _partial_sums(step(a) for a in orbit[:-1])


def _counting_tabulations(monkeypatch) -> list[float]:
    """The A of every partner pair shape_invariance tabulates, in order."""
    tabulated = []
    real = si_module.partner_potentials
    monkeypatch.setattr(si_module, "partner_potentials",
                        lambda family, a, grid: tabulated.append(a["A"]) or real(family, a, grid))
    return tabulated


def test_measured_residual_spectrum_matches_closed_form(monkeypatch):
    tabulated = _counting_tabulations(monkeypatch)
    spec = spectrum_from_measured_residuals(MORSE, Translation(-1.0), {"A": 2.0},
                                            MORSE_GRID, 5)
    assert [e.n for e in spec.entries] == [0, 1, 2]
    assert spec.energies == pytest.approx([0.0, 3.0, 4.0], abs=1e-8)
    assert spec.truncated
    # step 3 (A = 0 -> -1) measures R = -1 and stops the recursion: each
    # orbit point up to it is tabulated once, and A = -2, -3 never
    assert tabulated == [2.0, 1.0, 0.0, -1.0]
    tabulated.clear()
    assert _per_step_spectrum(MORSE, Translation(-1.0), {"A": 2.0}, MORSE_GRID, 5) == spec
    assert tabulated == [2.0, 1.0, 1.0, 0.0, 0.0, -1.0]
    tabulated.clear()
    si_residual(MORSE, {"A": 2.0}, Translation(-1.0), MORSE_GRID)
    assert tabulated == [2.0, 1.0]


def _morse_finite_down_to(a_min: float) -> SuperpotentialFamily:
    """Morse from callables, with a w that is NaN at every A below a_min."""
    def w(x, p):
        return p["A"] - np.exp(-x) if p["A"] >= a_min else np.full_like(x, np.nan)

    return SuperpotentialFamily.from_callables(w, lambda x, p: np.exp(-x), ("A",),
                                               domain=(-3.5, 10.0))


def test_measured_spectrum_never_tabulates_past_the_truncating_step():
    # The orbit runs A = 2 .. -3; step 3 (A = 0 -> -1) truncates, so the
    # NaN w at A = -2 and -3 is never evaluated.
    spec = spectrum_from_measured_residuals(_morse_finite_down_to(-1.5), Translation(-1.0),
                                            {"A": 2.0}, MORSE_GRID, 5)
    assert spec.energies == pytest.approx([0.0, 3.0, 4.0], abs=1e-8)
    assert spec.truncated


def test_measured_spectrum_raises_at_a_drawn_non_finite_step():
    family = _morse_finite_down_to(-0.5)
    args = (family, Translation(-1.0), {"A": 2.0}, MORSE_GRID, 5)
    with pytest.raises(EvaluationError) as parent:
        _per_step_spectrum(*args)
    with pytest.raises(EvaluationError) as walk:
        spectrum_from_measured_residuals(*args)
    assert str(walk.value) == str(parent.value) == (
        "superpotential evaluated non-finite on the grid")


@pytest.mark.parametrize("name", [name for name in list_catalog()
                                  if get_record(name).expression is not None])
def test_measured_spectrum_equals_the_per_step_residual_loop(name):
    rec = get_record(name)
    args = (rec.family, rec.transform, rec.default_params, record_grid(rec), 3)
    assert spectrum_from_measured_residuals(*args) == _per_step_spectrum(*args)


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_non_finite_step_energy_names_its_step(r):
    with pytest.raises(EvaluationError, match=f"spectrum step 1 has a non-finite energy R = {r}"):
        algebraic_spectrum(lambda a: r, Translation(-1.0), {"A": 2.0}, 3)
    with pytest.raises(EvaluationError, match="spectrum step 2 "):
        algebraic_spectrum(lambda a: r if a["A"] < 1.0 else 1.0, Translation(-1.0),
                           {"A": 2.0}, 3)


@pytest.mark.parametrize("tolerance", [-1.0, 0.0, math.nan, math.inf, -math.inf])
def test_tolerance_must_be_positive_and_finite(tolerance):
    message = "^tolerance must be a positive finite number$"
    with pytest.raises(ValueError, match=message):
        si_residual(MORSE, {"A": 2.0}, Translation(-1.0), MORSE_GRID, tolerance)
    with pytest.raises(ValueError, match=message):
        search_transform(MORSE, {"A": 2.0}, MORSE_GRID, budget=3, tolerance=tolerance)
    assert si_residual(MORSE, {"A": 2.0}, Translation(-1.0), MORSE_GRID, 1e-3).tolerance_used == 1e-3


# -- chain wavefunctions --------------------------------------------------------------


def test_chain_matches_oracle_harmonic():
    fam = SuperpotentialFamily.from_expression("x")
    grid = make_grid(-10.0, 10.0, 2001)
    v_minus = partner_potentials(fam, {}, grid).v_minus
    oracle = solve_potential(v_minus, 3)
    for n in (1, 2):
        psi = wavefunction_chain(fam, {}, Translation(0.0), n, grid)
        assert count_nodes(psi) == n
        assert sign_aligned_distance(psi, oracle[n].state) < 1e-3


def test_chain_matches_oracle_poschl_teller():
    v_minus = partner_potentials(PT, {"A": 3.0}, PT_GRID).v_minus
    oracle = solve_potential(v_minus, 3)
    psi = wavefunction_chain(PT, {"A": 3.0}, Translation(-1.0), 2, PT_GRID)
    assert sign_aligned_distance(psi, oracle[2].state) < 1e-3


def test_chain_requires_passing_residual():
    fam = SuperpotentialFamily.from_expression("A*x")
    with pytest.raises(TransformError):
        wavefunction_chain(fam, {"A": 1.0}, Translation(5.0), 1, PT_GRID)


def test_chain_node_gate():
    # Level 3 of PT A=2 does not exist; the built state misses its node count.
    with pytest.raises(ChainConstructionError):
        wavefunction_chain(PT, {"A": 2.0}, Translation(-1.0), 3, PT_GRID)
    with pytest.raises(ValueError):
        wavefunction_chain(PT, {"A": 2.0}, Translation(-1.0), -1, PT_GRID)


# -- search ---------------------------------------------------------------------------


def test_search_recovers_morse_translation():
    found = search_transform(MORSE, {"A": 2.0}, MORSE_GRID)
    assert found is not None
    transform, report = found
    assert transform.kind == "translation"
    assert transform.alpha == pytest.approx(-1.0, abs=1e-6)
    assert report.passed
    assert report.residual_mean == pytest.approx(3.0, abs=1e-6)


def test_search_recovers_poschl_teller():
    found = search_transform(PT, {"A": 3.0}, PT_GRID)
    assert found is not None
    transform, report = found
    assert transform.kind == "translation"
    assert transform.alpha == pytest.approx(-1.0, abs=1e-6)
    assert report.residual_mean == pytest.approx(5.0, abs=1e-6)


def test_search_rejects_mirror_solution():
    # alpha = -2A maps w → -w + const structure with R = 0; the guard must
    # keep the search from reporting it even though its residual is flat.
    found = search_transform(PT, {"A": 3.0}, PT_GRID)
    transform, report = found
    assert report.residual_mean > 0.0
    assert transform.alpha != pytest.approx(-6.0, abs=0.1)


def test_search_finds_nothing_for_cubic():
    fam = SuperpotentialFamily.from_expression("A*x^3")
    found = search_transform(fam, {"A": 1.0}, make_grid(-6.0, 6.0, 601), budget=9)
    assert found is None


def test_search_budget_nesting():
    small = search_transform(MORSE, {"A": 2.0}, MORSE_GRID, budget=9)
    large = search_transform(MORSE, {"A": 2.0}, MORSE_GRID, budget=33)
    assert small is not None and large is not None
    assert small[0].kind == large[0].kind == "translation"
    assert small[0].alpha == pytest.approx(large[0].alpha, abs=1e-6)


def test_search_thread_count_does_not_change_result():
    # Searches share no state, so a repeat, on the same or an equal family,
    # reports the same dicts.
    first = search_transform(PT, {"A": 3.0}, PT_GRID)
    again = search_transform(PT, {"A": 3.0}, PT_GRID)
    fresh = search_transform(SuperpotentialFamily.from_expression("A*tanh(x)"),
                             {"A": 3.0}, PT_GRID)
    for other in (again, fresh):
        assert first[0].to_dict() == other[0].to_dict()
        assert first[1].to_dict() == other[1].to_dict()


# -- batched scoring against the one-residual-per-trial reference ----------------------


def _naive_score(family, a0, cand, theta, grid):
    try:
        with np.errstate(invalid="ignore"):  # ln of a negative argument
            report = si_residual(family, a0, cand.build(theta), grid)
    except (TransformError, EvaluationError):
        return math.inf, None
    return report.residual_stddev, report


def _naive_figures(family, a0, cand, theta, grid):
    """What _score_trials returns for one trial, from si_residual's report:
    (stddev, mean), or (inf, None) where si_residual raises."""
    _, report = _naive_score(family, a0, cand, theta, grid)
    return (math.inf, None) if report is None else (report.residual_stddev,
                                                   report.residual_mean)


def _trial_scores(family, a0, v_plus, trials, grid):
    """Each (candidate, knob value) trial's figures as a search sees them:
    ``_score_trials`` of the a₁ that ``_mapped_trials`` maps, and (inf,
    None) for a trial that maps to no a₁."""
    mapped = si_module._mapped_trials(a0, trials)
    scores = iter(_score_trials(family, a0, v_plus, [a1 for a1 in mapped if a1], grid))
    return [next(scores) if a1 else (math.inf, None) for a1 in mapped]


def scalar_golden(fn, lo, hi):
    """Golden-section minimum of fn on [lo, hi], one fn call per knob value:
    the plain loop that ``_golden_lockstep`` runs for many windows at once,
    kept here as a reference that does not depend on it."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(_REFINE_ITERS):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return c if fc <= fd else d


def naive_search(family, a0, grid, budget=33):
    """search_transform as one si_residual call per knob value: no hoist,
    no batch, no memo, no lockstep."""
    best = None
    for cand in default_candidates(family.parameter_names):
        thetas = ([cand.lo] if cand.lo == cand.hi
                  else list(np.linspace(cand.lo, cand.hi, _trial_count(budget))))
        scores = [_naive_score(family, a0, cand, th, grid)[0] for th in thetas]
        k = int(np.argmin(scores))
        if not math.isfinite(scores[k]):
            continue
        finalists = [thetas[k]]
        if cand.lo < cand.hi:
            span = (cand.hi - cand.lo) / (len(thetas) - 1)
            finalists.append(scalar_golden(lambda th: _naive_score(family, a0, cand, th, grid)[0],
                                           max(cand.lo, thetas[k] - span),
                                           min(cand.hi, thetas[k] + span)))
        for theta in finalists:
            score, report = _naive_score(family, a0, cand, theta, grid)
            transform = cand.build(theta) if report is not None else None
            if (report is None or not report.passed
                    or report.residual_mean <= _MEAN_OVER_SPREAD * report.residual_stddev
                    or not _minus_sector_decays(family, transform.apply(a0), grid)):
                continue
            if best is None or score < best[0]:
                best = (score, transform, report)
    return None if best is None else best[1:]


LN = SuperpotentialFamily.from_expression("ln(a + x)", domain=(0.5, 10.0))
LN_FD = SuperpotentialFamily.from_callables(lambda x, p: np.log(p["a"] + x),
                                            parameter_names=("a",), domain=(0.5, 10.0))


@pytest.mark.parametrize("family", [LN, LN_FD], ids=["compiled", "finite-difference"])
def test_batched_scores_equal_per_trial_residuals(family):
    # At a = 1, translations below -1.5 put the log's argument below zero on
    # part of [0.5, 10]: those rows must score inf, like si_residual's error.
    grid = make_grid(0.5, 10.0, 401)
    a0 = {"a": 1.0}
    v_plus = partner_potentials(family, a0, grid).v_plus.values
    candidates = default_candidates(family.parameter_names)
    trials = [(cand, th) for cand in candidates for th in np.linspace(cand.lo, cand.hi, 33)]
    naive = [_naive_figures(family, a0, cand, th, grid) for cand, th in trials]
    for k, cand in enumerate(candidates):
        batched = _trial_scores(family, a0, v_plus, trials[33 * k:33 * (k + 1)], grid)
        assert batched == naive[33 * k:33 * (k + 1)], cand
    # every candidate's coarse scan in one call: rows from different
    # transforms share one tabulation and one statistic
    assert _trial_scores(family, a0, v_plus, trials, grid) == naive
    # alpha = -5 ... -1.5625 on the translation scan
    assert naive.count((math.inf, None)) == 12


def test_blocked_scores_equal_per_trial_residuals_across_block_boundaries():
    # At 2001 points a block holds 6 rows, so the 198 coarse trials of the
    # six candidates (33 each) span 33 blocks, some mixing two candidates.
    # Dropping the first `shift` trials moves every boundary; for shift > 0
    # one block mixes the translation scan's 12 inf rows with finite ones.
    # No score may move.
    grid = make_grid(0.5, 10.0, 2001)
    a0 = {"a": 1.0}
    v_plus = partner_potentials(LN, a0, grid).v_plus.values
    trials = [(cand, th) for cand in default_candidates(LN.parameter_names)
              for th in np.linspace(cand.lo, cand.hi, 33)]
    naive = [_naive_figures(LN, a0, cand, th, grid) for cand, th in trials]
    size = _block_rows(grid)
    assert size == 6 and len(trials) > size
    assert naive.count((math.inf, None)) == 12
    for shift in range(size):
        assert _trial_scores(LN, a0, v_plus, trials[shift:], grid) == naive[shift:], shift


TANH_LINEAR = [
    SuperpotentialFamily.from_callables(lambda x, p: p["a"] * np.tanh(x) + p["n"] * x / 8,
                                        lambda x, p: p["a"] / np.cosh(x)**2 + p["n"] / 8,
                                        ("a", "n")),
    SuperpotentialFamily.from_callables(lambda x, p: p["a"] * np.tanh(x) + p["n"] * x / 8,
                                        parameter_names=("a", "n")),
    SuperpotentialFamily.from_expression("a*tanh(x) + n*x/8"),
]


@pytest.mark.parametrize("family", TANH_LINEAR, ids=["callables", "finite-difference",
                                                     "compiled"])
def test_rows_keep_the_untouched_parameters_as_given(family):
    # n = 2 is an int: a trial on a leaves it an int in its row, as apply
    # does, and a trial on n replaces it with a float image
    grid = make_grid(-10.0, 10.0, 401)
    a0 = {"a": 1.5, "n": 2}
    v_plus = partner_potentials(family, a0, grid).v_plus.values
    trials = [(cand, th) for cand in default_candidates(family.parameter_names)
              for th in np.linspace(cand.lo, cand.hi, 9)]
    naive = [_naive_figures(family, a0, cand, th, grid) for cand, th in trials]
    assert _trial_scores(family, a0, v_plus, trials, grid) == naive
    assert all(math.isfinite(stddev) for stddev, _ in naive)


def _record_blocks(monkeypatch, family, grid, blocks):
    """Patch the search's statistic to append the row count of each block
    it scores to ``blocks``, checking that no block holds more than
    ``_block_rows`` rows of the grid.  ``family`` is compiled, so each row
    must be one call of its w's and one of its w′'s ``unchecked`` function
    on ``grid.x`` itself, with no row evaluated through ``w_grid``."""
    unchecked = []
    for fn in (family.w_fn, family.w_prime_fn):
        def counted(x, real_fn=fn.unchecked):
            assert x is grid.x
            row = real_fn(x)
            return lambda values: unchecked.append(row) or row(values)

        monkeypatch.setattr(fn, "unchecked", counted)
    real_stats = si_module._trimmed_stats

    def recorded(rows, trim):
        if trim == EDGE_TRIM:  # a scoring block (si_residual's row passes 0)
            assert rows.shape[0] <= _block_rows(grid) and rows.shape[1] == grid.n_points
            blocks.append(rows.shape[0])
            assert len(unchecked) == 2 * sum(blocks), \
                "a compiled family's search evaluated a row without its unchecked entries"
        return real_stats(rows, trim)

    monkeypatch.setattr(si_module, "_trimmed_stats", recorded)


def test_classify_never_tabulates_more_rows_than_a_block(monkeypatch):
    """The memory of a search is bounded by its blocks: every block a
    classify at 2001 points scores, coarse scan and two-parameter refine
    steps included, holds at most ``_block_rows`` rows.  The family is
    compiled, so the search tabulates each row in one call of w's and one
    of w′'s ``unchecked`` function."""
    seen = []
    family = SuperpotentialFamily.from_expression("a*x^3 + c*x + 0.3", domain=(-6.0, 6.0))
    grid = make_grid(-6.0, 6.0, 2001)
    _record_blocks(monkeypatch, family, grid, seen)
    tag = classify_family(family, {"a": 1.0, "c": 0.5}, grid)
    assert tag.shape_invariant == "no-within-search"
    assert max(seen) == _block_rows(grid) == 6


@st.composite
def residual_tables(draw):
    """A (rows, n) float64 table: an offset and a spread of random
    magnitudes, as a residual carries R and its x-dependent error."""
    rows = draw(st.integers(1, 9))
    n = draw(st.sampled_from((2 * EDGE_TRIM + 1, 2 * EDGE_TRIM + 7, 137, 140, 401, 2001)))
    offset = draw(st.floats(-1e6, 1e6)) * 10.0 ** draw(st.integers(-150, 150))
    spread = 10.0 ** draw(st.integers(-300, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return offset + spread * rng.standard_normal((rows, n))


@settings(max_examples=150)
@given(residual_tables())
def test_in_place_statistic_equals_numpy_mean_and_std(table):
    inner = table[:, EDGE_TRIM:-EDGE_TRIM]
    with np.errstate(all="ignore"):
        want = (inner.mean(axis=1), inner.std(axis=1))
        blocked = _residual_reports(table.copy(), 1e-6)
        # si_residual's input: one 1D residual
        single = [_residual_reports(row.copy(), 1e-6)[0] for row in table]
    for reports in (blocked, single):
        got = (np.array([r.residual_mean for r in reports]),
               np.array([r.residual_stddev for r in reports]))
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


# -- lockstep refinement ---------------------------------------------------------------


@st.composite
def golden_objectives(draw):
    """(lo, hi, fn): a random interval and an objective on it."""
    kind = draw(st.sampled_from(("quadratic", "abs-tie", "step", "inf-part")))
    width = draw(st.floats(1e-6, 50.0))
    if kind == "abs-tie":
        # symmetric about 0, so the first pair (c, d) = (r - X, -(r - X))
        # ties exactly and fc <= fd must pick the same side in both runs
        return -width, width, abs
    lo = draw(st.floats(-50.0, 50.0))
    hi = lo + width
    m = draw(st.floats(lo - width, hi + width))
    if kind == "quadratic":
        s = draw(st.floats(1e-3, 1e3))
        return lo, hi, lambda th: s * (th - m) ** 2
    if kind == "step":
        n = draw(st.integers(1, 8)) / width
        return lo, hi, lambda th: abs(math.floor(th * n) - math.floor(m * n))
    cut = draw(st.floats(lo, hi))
    return lo, hi, lambda th: (th - m) ** 2 if th < cut else math.inf


@settings(max_examples=60)
@given(st.lists(golden_objectives(), min_size=1, max_size=6))
def test_lockstep_refine_matches_scalar_golden_section(objectives):
    expected, expected_queries = {}, {}
    for k, (lo, hi, fn) in enumerate(objectives):
        seen = expected_queries[k] = []
        expected[k] = scalar_golden(lambda th, fn=fn, seen=seen: seen.append(th) or fn(th),
                                    lo, hi)

    queries = {k: [] for k in range(len(objectives))}
    calls = []

    def score(requests):
        calls.append(requests)
        for k, th in requests:
            queries[k].append(th)
        return [objectives[k][2](th) for k, th in requests]

    refined = _golden_lockstep({k: (lo, hi) for k, (lo, hi, _) in enumerate(objectives)}, score)
    assert refined == expected
    assert queries == expected_queries
    # one call for every window's opening pair, then one per iteration
    assert len(calls) == _REFINE_ITERS + 1
    assert all(len(c) == len(objectives) for c in calls[1:])


def test_lockstep_refine_without_windows_scores_nothing():
    def score(requests):
        raise AssertionError(f"scored {requests}")

    assert _golden_lockstep({}, score) == {}


def test_lockstep_refine_on_a_window_narrower_than_one_ulp():
    lo = 1.0
    hi = math.nextafter(lo, 2.0)
    queries = []

    def score(requests):
        queries.extend(th for _, th in requests)
        return [abs(th - 1.5) for _, th in requests]

    expected = scalar_golden(lambda th: abs(th - 1.5), lo, hi)
    assert _golden_lockstep({7: (lo, hi)}, score) == {7: expected}
    assert len(queries) == _REFINE_ITERS + 2
    assert all(lo <= th <= hi for th in queries)


def test_abs_objective_ties_on_the_first_pair():
    pairs = []
    scalar_golden(lambda th: pairs.append(abs(th)) or abs(th), -3.0, 3.0)
    assert pairs[0] == pairs[1]


def _count_scoring_calls(monkeypatch) -> list[int]:
    """The number of a₁ each ``_score_trials`` call gets, in call order."""
    real = si_module._score_trials
    calls = []

    def counted(family, a0, v_plus, images, grid):
        calls.append(len(images))
        return real(family, a0, v_plus, images, grid)

    monkeypatch.setattr(si_module, "_score_trials", counted)
    return calls


def test_cubic_classify_batches_every_refine_step(monkeypatch):
    """One classify of a non-shape-invariant cubic: one scoring call for
    every candidate's coarse scan and at most one per refine step shared by
    all candidates (81), never one per candidate and step.  At a = 1 the
    scaling and both power scalings reach the same a₁ at every coarse
    sample, so 409 distinct a₁ are scored in 74 calls."""
    calls = _count_scoring_calls(monkeypatch)
    family = SuperpotentialFamily.from_expression("a*x^3 + 0.3", domain=(-6.0, 6.0))
    tag = classify_family(family, {"a": 1.0}, make_grid(-6.0, 6.0, 2001))
    assert tag.shape_invariant == "no-within-search"
    assert sum(calls) == 409
    assert len(calls) == 74 <= 1 + 81


def test_cubic_classify_tabulates_a_fixed_number_of_rows(monkeypatch):
    """The search's work is pinned: one classify of ``a*x^3 + 0.3`` at
    a = 1.1 tabulates 611 rows in 106 blocks over 73 scoring calls.  A
    change to the per-row cost of scoring must leave these counts alone."""
    family = SuperpotentialFamily.from_expression("a*x^3 + 0.3", domain=(-6.0, 6.0))
    grid = make_grid(-6.0, 6.0, 2001)
    blocks = []
    _record_blocks(monkeypatch, family, grid, blocks)
    calls = _count_scoring_calls(monkeypatch)
    tag = classify_family(family, {"a": 1.1}, grid)
    assert tag.shape_invariant == "no-within-search"
    assert (sum(blocks), len(blocks), len(calls)) == (611, 106, 73)
    assert sum(calls) == 611  # every a₁ is finite, so every one is tabulated


def test_radial_coulomb_search_scores_each_parameter_image_once(monkeypatch):
    """At l = 0 every scaling, power scaling and projective map sends l to
    0, so the search's 643 (candidate, knob) trials reach 108 distinct a₁,
    and it tabulates one row for each."""
    family = SuperpotentialFamily.from_expression("2.0/(2*(l+1)) - (l+1)/x",
                                                  domain=(1e-3, 160.0), hard_wall_left=True)
    grid = make_grid(1e-3, 160.0, 2001)
    blocks = []
    _record_blocks(monkeypatch, family, grid, blocks)
    calls = _count_scoring_calls(monkeypatch)
    found = search_transform(family, {"l": 0.0}, grid)
    assert found is not None and found[0].kind == "translation"
    assert sum(blocks) == sum(calls) == 108


CUBIC_GRID = make_grid(-6.0, 6.0, 601)


@pytest.mark.parametrize("family,a0,grid", [
    (get_record(name).family, get_record(name).default_params, record_grid(get_record(name)))
    for name in ("shifted-harmonic", "morse", "poschl-teller", "coulomb-radial")
] + [
    (SuperpotentialFamily.from_expression("a*x^3 + 0.3"), {"a": 1.0}, CUBIC_GRID),
    (SuperpotentialFamily.from_expression("a*x^3 + c*x + 0.3"), {"a": 1.0, "c": 0.5},
     CUBIC_GRID),
], ids=["harmonic", "morse", "poschl-teller", "coulomb", "cubic", "cubic-linear"])
def test_search_equals_naive_search(family, a0, grid):
    def dicts(found):
        return None if found is None else (found[0].to_dict(), found[1].to_dict())

    assert dicts(search_transform(family, a0, grid, budget=9)) == \
        dicts(naive_search(family, a0, grid, budget=9))


def test_default_candidates_shape():
    free = default_candidates(())
    assert len(free) == 1
    assert free == [TransformCandidate(Translation, 0.0, 0.0)]
    one = default_candidates(("A",))
    assert len(one) == 6  # translation, scaling, 2 powers, 2 projective slopes
    assert [c.cls for c in one[:2]] == [Translation, Scaling]
    assert len(default_candidates(("A", "B"))) == 12
    # kind, then parameter, then fixed second knob; ties go to the earliest
    rows = [(c.cls, c.param, c.fixed, c.lo, c.hi) for c in default_candidates(("a", "b"))]
    assert rows == [
        (Translation, "a", (), -5.0, 5.0),
        (Translation, "b", (), -5.0, 5.0),
        (Scaling, "a", (), 1 / 32, 31 / 32),
        (Scaling, "b", (), 1 / 32, 31 / 32),
        (PowerScaling, "a", (2,), 1 / 32, 31 / 32),
        (PowerScaling, "a", (3,), 1 / 32, 31 / 32),
        (PowerScaling, "b", (2,), 1 / 32, 31 / 32),
        (PowerScaling, "b", (3,), 1 / 32, 31 / 32),
        (Projective, "a", (0.25,), 1 / 32, 31 / 32),
        (Projective, "a", (0.5,), 1 / 32, 31 / 32),
        (Projective, "b", (0.25,), 1 / 32, 31 / 32),
        (Projective, "b", (0.5,), 1 / 32, 31 / 32),
    ]
    # the fixed knobs are already of the types the classes take
    assert [type(v) for _, _, fixed, _, _ in rows for v in fixed] == [int] * 4 + [float] * 4


@pytest.mark.parametrize("cand, theta, expected", [
    (TransformCandidate(Translation, -5.0, 5.0, param="A"), -1.0,
     {"kind": "translation", "alpha": -1.0, "param": "A"}),
    (TransformCandidate(Scaling, 0.25, 0.75, param="A"), 0.5,
     {"kind": "scaling", "q": 0.5, "param": "A"}),
    (TransformCandidate(PowerScaling, 0.25, 0.75, (2,), "A"), 0.5,
     {"kind": "power-scaling", "q": 0.5, "p": 2, "param": "A"}),
    (TransformCandidate(Projective, 0.25, 0.75, (0.25,), "A"), 0.5,
     {"kind": "projective", "q": 0.5, "p": 0.25, "param": "A"}),
], ids=["translation", "scaling", "power-scaling", "projective"])
def test_candidate_builds_literal_dicts(cand, theta, expected):
    transform = cand.build(theta)
    assert type(transform) is cand.cls
    d = transform.to_dict()
    assert d == expected
    assert list(d) == list(expected)
    assert {k: type(v) for k, v in d.items()} == {k: type(v) for k, v in expected.items()}


@pytest.mark.parametrize("cls", [Cyclic, si_module.ParameterTransform],
                         ids=["cyclic", "base"])
def test_candidate_refuses_a_class_that_is_not_searchable(cls):
    # cyclic is declared, never searched: it has no knob map to scan
    with pytest.raises(TransformError, match="is not a searchable transform class"):
        TransformCandidate(cls, 0.0, 1.0)


def test_candidate_fixed_knobs_are_not_coerced():
    # a float power is outside PowerScaling's knob domain on both routes
    cand = TransformCandidate(PowerScaling, 0.25, 0.75, (2.0,), "a")
    with pytest.raises(TransformError, match="requires integer p, got 2.0"):
        cand.build(0.5)
    assert si_module._mapped_trials({"a": 1.0}, [(cand, 0.5)]) == [None]


def test_trial_outside_the_knob_domain_scores_inf():
    # a user-built range may leave the knob domain: q = 1.25 is no scaling
    family = SuperpotentialFamily.from_expression("a*x")
    grid = make_grid(-5.0, 5.0, 201)
    a0 = {"a": 2.0}
    cand = TransformCandidate(Scaling, 0.5, 1.5, param="a")
    v_plus = partner_potentials(family, a0, grid).v_plus.values
    inside, outside = si_module._mapped_trials(a0, [(cand, 0.75), (cand, 1.25)])
    assert (inside, outside) == (("a", 1.5), None)
    assert _score_trials(family, a0, v_plus, [inside], grid) == \
        [_naive_figures(family, a0, cand, 0.75, grid)]


def test_transform_kinds_are_spelled_out_in_one_module():
    """The non-translation kind names appear as string literals only in
    transforms.py; everything else derives them from its table."""
    package = Path(si_module.__file__).parent
    kinds = {"scaling", "power-scaling", "projective"}
    spelled = sorted(
        path.name for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and node.value in kinds)
    assert set(spelled) == {"transforms.py"}


def _reaches(node: ast.AST, name: str) -> bool:
    """A node that calls or takes hold of the attribute ``name``: a call
    of ``name`` or ``x.name``, a read of ``x.name`` (which may be called
    later), or ``getattr(x, "name")``.  A definition, or an assignment to
    ``x.name``, is neither."""
    if isinstance(node, ast.Attribute):
        return node.attr == name and isinstance(node.ctx, ast.Load)
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Name) and node.func.id == name:
        return True
    return (ast.unparse(node.func) == "getattr" and len(node.args) > 1
            and getattr(node.args[1], "value", None) == name)


def _owners(name: str) -> list[tuple[str, str | None]]:
    """(module, innermost enclosing function) of every node in the package
    that ``_reaches`` the attribute ``name``."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if _reaches(child, name):
                yield owner
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from visit(child, child.name if inner else owner)

    package = Path(si_module.__file__).parent
    return sorted((path.name, owner) for path in package.glob("*.py")
                  for owner in visit(ast.parse(path.read_text()), None))


def test_each_step_of_a_trial_has_one_implementation():
    """A knob map runs only in the one image rule, which apply and every
    search trial share, and a compiled expression's unchecked float entry
    only in the one row tabulation, which every search trial goes through."""
    assert _owners("knob_map") == [("transforms.py", "_image")]
    assert _owners("unchecked") == [("susy.py", "_w_rows")]
    assert _owners("_w_rows") == [("shape_invariance.py", "_score_trials")]


def test_one_implementation_check_sees_each_spelling():
    """The predicate above flags a call, a held reference and a getattr of
    the name, and neither its definition nor an assignment to it."""
    spellings = {"cls.knob_map(a, q)": True, "knob_map(a, q)": True,
                 "f = cand.cls.knob_map": True, "getattr(cls, 'knob_map')(a)": True,
                 "spec = (check, cls.knob_map)": True,
                 "def knob_map(a, q):\n    return a": False, "evaluate.knob_map = knob_map": False,
                 "knob_maps(a)": False, "cls.knob_map_count": False, "'knob_map'": False}
    for text, reaches in spellings.items():
        assert any(_reaches(node, "knob_map") for node in ast.walk(ast.parse(text))) \
            is reaches, text


def test_power_scaling_pole_is_a_transform_error():
    with pytest.raises(TransformError, match="transform undefined at a=0.0"):
        PowerScaling(0.5, -1).apply({"a": 0.0})
    with pytest.raises(TransformError, match=r"at a=1e\+200: Numerical result out of range"):
        PowerScaling(0.5, 2).apply({"a": 1e200})


def test_trial_on_a_parameter_pole_scores_inf():
    # 1/(a^2 - 4) is x-free, so it runs in Python floats and divides by zero
    # at a = 2; that trial scores inf and its neighbours still score.
    family = SuperpotentialFamily.from_expression("x + 1/(a^2 - 4)")
    grid = make_grid(-10.0, 10.0, 401)
    a0 = {"a": 2.625}
    cand = TransformCandidate(Translation, -5.0, 5.0, param="a")
    v_plus = partner_potentials(family, a0, grid).v_plus.values
    images = si_module._mapped_trials(a0, [(cand, -0.625), (cand, 0.5)])
    assert images == [("a", 2.0), ("a", 3.125)]  # both map: the pole is w's
    scored = _score_trials(family, a0, v_plus, images, grid)
    assert scored[0] == (math.inf, None)
    assert math.isfinite(scored[1][0]) and scored[1][1] is not None


def _outcome(call):
    """call()'s parameter dict as (name, type, float bits) triples, or its
    TransformError text."""
    try:
        return [(k, type(v), np.float64(v).tobytes()) for k, v in call().items()]
    except TransformError as exc:
        return f"TransformError: {exc}"


@settings(max_examples=100)
@example(theta=math.inf, a=1.0)     # a translation image that is not finite
@example(theta=1e308, a=1e3)        # a projective image that overflows
@given(theta=st.one_of(st.floats(-2.0, 2.0), st.floats(allow_nan=False),
                       st.sampled_from((0.0, -0.0, 0.5, 1.0, -1.0))),
       a=st.one_of(st.sampled_from((0.0, -0.0, 1e200, -1e200, -2.0, -4.0)),
                   st.floats(-1e3, 1e3)))
def test_knob_map_equals_apply(theta, a):
    """The scoring kernel's _mapped_trials gives apply's float bits for
    every searchable kind, inside and outside its knob domain, and for
    every way of naming the target, and misses exactly where apply
    raises."""
    for cls in si_module.TRANSFORM_KINDS.values():
        for fixed in [(p,) for p in (2, 3, -1, 0.25, 0.5, 1.0, 1.5)] if len(cls.knobs) > 1 \
                else [()]:
            for param in ("a", None, "c"):
                cand = TransformCandidate(cls, -5.0, 5.0, fixed, param)
                for params in ({"a": a}, {"a": a, "b": 2.0}):
                    applied = _outcome(lambda: cand.build(theta).apply(params))
                    [a1] = si_module._mapped_trials(params, [(cand, theta)])
                    mapped = _outcome(lambda: {**params, a1[0]: a1[1]}) if a1 else "miss"
                    assert mapped == (applied if isinstance(applied, list) else "miss"), \
                        (cand, params)


def test_trial_whose_v_minus_overflows_scores_inf():
    # At a1 = 3, exp(a1*x - 300) is finite on [-10, 300] but its square is
    # not: si_residual raises, and inside a search the trial is a miss.
    family = SuperpotentialFamily.from_expression("x + exp(a*x - 300)")
    grid = make_grid(-10.0, 300.0, 601)
    a0 = {"a": 1.0}
    cand = TransformCandidate(Translation, -5.0, 5.0, param="a")
    with pytest.raises(GridError, match="non-finite"):
        si_residual(family, a0, Translation(2.0, param="a"), grid)
    v_plus = partner_potentials(family, a0, grid).v_plus.values
    images = si_module._mapped_trials(a0, [(cand, 2.0), (cand, -0.5), (cand, 2.5)])
    assert images == [("a", 3.0), ("a", 0.5), ("a", 3.5)]
    scored = _score_trials(family, a0, v_plus, images, grid)
    assert scored[0] == scored[2] == (math.inf, None)
    assert scored[1] == _naive_figures(family, a0, cand, -0.5, grid)


@pytest.mark.parametrize("w, lo, hi, edge", [
    ("x + exp(a*x - 300)", -10.0, 300.0, -1),
    ("x - exp(-a*x - 300)", -300.0, 10.0, 0),
], ids=["last-node", "first-node"])
def test_trial_whose_v_minus_overflows_only_at_an_edge_node_scores_inf(w, lo, hi, edge):
    # At a1 = 2.185, w² overflows at the end node alone: the trimmed
    # interior, and so the mean, stays finite, and the edge rule must
    # still find the miss.
    family = SuperpotentialFamily.from_expression(w)
    grid = make_grid(lo, hi, 601)
    a0 = {"a": 1.0}
    cand = TransformCandidate(Translation, -5.0, 5.0, param="a")
    with np.errstate(over="ignore"):
        w_edge = family.w_grid(grid, {"a": 2.185}).values
        v_minus = w_edge * w_edge - family.w_prime_grid(grid, {"a": 2.185}).values
    assert [i for i in range(grid.n_points) if not np.isfinite(v_minus[i])] == \
        [edge % grid.n_points]
    with pytest.raises(GridError, match="non-finite"):
        si_residual(family, a0, Translation(1.185, param="a"), grid)
    v_plus = partner_potentials(family, a0, grid).v_plus.values
    images = si_module._mapped_trials(a0, [(cand, 1.185), (cand, -0.5)])
    assert None not in images
    assert _score_trials(family, a0, v_plus, images, grid) == \
        [(math.inf, None), _naive_figures(family, a0, cand, -0.5, grid)]


def test_trial_whose_interior_sum_overflows_keeps_its_figures():
    # Every residual value is finite, but their interior sum is not: w² − w′
    # is finite, so the row is no miss, and it keeps the statistic's figures
    # (an infinite mean and spread), as it did when every row went through
    # the full finiteness test.
    family = SuperpotentialFamily.from_expression("a*x")
    grid = make_grid(-5.0, 5.0, 201)
    v_plus = np.full(grid.n_points, 1.5e308)
    v_minus = partner_potentials(family, {"a": 1.5}, grid).v_minus.values
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isfinite(v_plus - v_minus).all()
        [want] = _residual_reports(v_plus - v_minus, 1e-6)
    assert want.residual_mean == want.residual_stddev == math.inf
    assert _score_trials(family, {"a": 1.0}, v_plus, [("a", 1.5)], grid) == \
        [(want.residual_stddev, want.residual_mean)]


def test_trial_counts_nest():
    assert _trial_count(1) == 3
    assert _trial_count(9) == 9
    assert _trial_count(10) == 17
    assert _trial_count(33) == 33


def test_vacuous_search_on_parameter_free_ladder():
    fam = SuperpotentialFamily.from_expression("x")
    found = search_transform(fam, {}, make_grid(-10.0, 10.0, 1001))
    assert found is not None
    transform, report = found
    assert transform.kind == "translation"
    assert report.residual_mean == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("w, a0, cand", [
    # w² = exp(2·a₁·x) overflows at x = 1 for every a₁ in 701..801
    ("exp(a*x)", {"a": 1.0}, TransformCandidate(Translation, 700.0, 800.0, param="a")),
    # 1 + p·a = 0 at a = −2: the knob map raises on every trial
    ("a*x", {"a": -2.0}, TransformCandidate(Projective, 1 / 32, 31 / 32, (0.5,), "a")),
], ids=["overflow", "knob-map-raises"])
def test_candidate_whose_every_trial_misses_gets_a_no_finite_score_row(w, a0, cand):
    family = SuperpotentialFamily.from_expression(w)
    record = []
    assert search_transform(family, a0, make_grid(-1.0, 1.0, 201), [cand],
                            record=record) is None
    assert len(record) == 1
    row = record[0]
    assert (row.candidate, row.gate, row.finalists, row.theta, row.report) == \
        (cand, "no-finite-score", (), None, None)


#: One input of each search-sweep benchmark template: text, parameters,
#: domain and whether the left end is a hard wall.
SWEEP_TEMPLATES = [
    ("a*x + 0.3127", {"a": 1.1}, (-10.0, 10.0), False),
    ("A*tanh(1.0312*x)", {"A": 3.2}, (-10.0, 10.0), False),
    ("A - 1.1875*exp(-x)", {"A": 2.5}, (-5.0, 10.0), False),
    ("2.2500/(2*(l+1)) - (l+1)/x", {"l": 0.0}, (1e-3, 160.0), True),
    ("a*x^3 - 0.2500", {"a": 1.1}, (-6.0, 6.0), False),
    ("a*x^3 + c*x + 0.4375", {"a": 0.75, "c": 0.5}, (-6.0, 6.0), False),
]


@pytest.mark.parametrize("text, a0, domain, wall", SWEEP_TEMPLATES,
                         ids=["harmonic", "poschl-teller", "morse", "coulomb", "cubic",
                              "cubic-linear"])
def test_lazy_row_reports_equal_si_residual(text, a0, domain, wall):
    # The search keeps (stddev, mean) per trial and builds a report only
    # for the finalist a row keeps; it must be si_residual's at that θ.
    family = SuperpotentialFamily.from_expression(text, domain=domain, hard_wall_left=wall)
    grid = make_grid(*domain, 2001)
    record = []
    search_transform(family, a0, grid, record=record)
    scored = [row for row in record if row.report is not None]
    assert scored
    for row in scored:
        assert row.report == si_residual(family, a0, row.transform, grid), row.candidate


def test_refined_finalist_that_misses_is_gated_while_the_coarse_one_is_kept():
    # Morse's w = A - exp(-x) with A = 3 - a, defined only at the coarse
    # samples a = -1, 0, 1 of the translation a -> a + θ from a = 0: the
    # coarse winner θ = 1 (A: 3 -> 2) is shape invariant, and the refine on
    # (0, 1) ends at θ = 7.3e-18, where w is non-finite, so that finalist
    # is gated as "no-finite-score"
    def w(x, p):
        a = p["a"]
        return 3.0 - a - np.exp(-x) if a in (-1.0, 0.0, 1.0) else np.full_like(x, np.nan)

    family = SuperpotentialFamily.from_callables(w, lambda x, p: np.exp(-x), ("a",))
    grid = make_grid(-3.5, 10.0, 1401)
    cand = TransformCandidate(Translation, -1.0, 1.0, param="a")
    record = []
    found = search_transform(family, {"a": 0.0}, grid, [cand], budget=3, record=record)
    assert found is not None and found[0] == Translation(1.0, param="a")
    (row,) = record
    coarse, refined = row.finalists
    assert (coarse, row.theta, row.gate) == (1.0, 1.0, None)
    assert 0.0 < refined < 1e-15
    with pytest.raises(EvaluationError):
        si_residual(family, {"a": 0.0}, Translation(refined, param="a"), grid)


def test_search_at_an_unevaluable_a0_raises_and_records_nothing():
    # "nothing found" must mean that candidates were scored: w = x/(a - 2) is
    # non-finite at a₀ = 2, so the search has nothing to score against.
    family = SuperpotentialFamily.from_expression("x/(a-2)")
    record = []
    with pytest.raises(EvaluationError, match="non-finite"):
        search_transform(family, {"a": 2.0}, make_grid(-6.0, 6.0, 201), record=record)
    assert record == []
