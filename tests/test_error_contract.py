"""The error contract of the library's entry points under malformed arguments.

Every call either returns or raises a SusyQMError; the documented
ValueErrors outside that hierarchy are a negative level or orbit length, a
tolerance that is not a positive finite real number, a zero-mode sign other than ±1,
decay sides other than "both" and "right", a hierarchy depth below 1, a
level count k above the matrix dimension or below 1, an orbit length,
level index, hierarchy depth or k that is not an integer, a charge-matrix
block that is not a finite float64 band of shape (5, m), m >= 1, and a
search budget that is not an integer in [1, MAX_BUDGET].  A bare KeyError, TypeError,
OverflowError or ZeroDivisionError would escape the CLI, which catches only
SusyQMError, OSError and ValueError, as a traceback.
"""

import dataclasses
import math
import re
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from susyqm import (CatalogError, Cyclic, EvaluationError, ExpressionError, Grid1D, GridError,
                    GridFunction, PowerScaling, Projective, Scaling,
                    SuperpotentialFamily, SusyQMError, TransformCandidate, TransformError,
                    Translation, UNKNOWN,
                    algebraic_spectrum, apply_a, apply_a_dagger,
                    block_spectra, boundary_amplitude_ratio, build_hierarchy,
                    charge_matrices, classify_family, classify_record, classify_tabulated,
                    closed_form_spectrum, count_nodes, decay_trust_window, derivative,
                    get_record, ground_state, inner_product, instantiate, iterate_params,
                    list_catalog, make_grid, normalize, partner_pair_from_w,
                    partner_potentials, search_transform, si_residual, sign_aligned_distance,
                    solve_potential,
                    spectrum_from_measured_residuals, superpotential_from_ground_state,
                    susy_phase, verify_algebra, wavefunction_chain, zero_mode)
from susyqm import shape_invariance
from susyqm.transforms import MAX_BUDGET

MORSE = get_record("morse")
#: 7 points is the fewest the residual statistic takes; 6 are too few.
GRIDS = [make_grid(-3.5, 10.0, n) for n in (6, 7, 101)]
DOCUMENTED_VALUE_ERRORS = ("must be nonnegative", "tolerance must be a positive finite number",
                           "sign must be -1 or +1", "sides must be 'both' or 'right'",
                           "must be at least 1", "must be an integer", "exceeds matrix dimension",
                           "band must be a finite float64 array of shape (5, m)",
                           f"budget must be an integer in [1, {MAX_BUDGET}]")

VALUES = st.sampled_from([2.0, 1.0, 0.5, 0.0, -1.0, 1e300, math.nan, math.inf, -math.inf])
PARAMS = st.one_of(
    st.builds(lambda a: {"A": a}, VALUES),
    st.just({}),                                   # missing
    st.builds(lambda a, z: {"A": a, "z": z}, VALUES, VALUES),  # extra
    st.builds(lambda b: {"B": b}, VALUES),         # wrong name
)
TRANSFORMS = st.sampled_from([
    Translation(-1.0),
    Translation(-1.0, param="A"),
    Translation(math.inf, param="A"),
    Projective(0.5, -0.5, param="A"),              # singular at A = 2
    Projective(0.5, 0.5),                          # singular at A = -2
    Cyclic(({"A": 2.0}, {"A": 1.0})),              # off-cycle elsewhere
    Cyclic(({"A": 1.0, "z": 0.0},)),
])
R_FUNCTIONS = st.sampled_from([MORSE.r_function, lambda a: math.nan, lambda a: -math.inf])
FAMILIES = st.sampled_from([
    MORSE.family,
    SuperpotentialFamily.from_callables(lambda x, p: p["A"] - np.exp(-x), None, ("A",),
                                        domain=(-3.5, 10.0)),
])


def _obeys_the_contract(call) -> None:
    try:
        call()
    except SusyQMError:
        pass
    except ValueError as exc:
        assert any(text in str(exc) for text in DOCUMENTED_VALUE_ERRORS), repr(exc)


@settings(max_examples=60)
@example(family=MORSE.family, a0={"A": 2.0}, t=Projective(0.5, -0.5, param="A"), n=2,
         grid=GRIDS[2], r=MORSE.r_function, tolerance=None)
@example(family=MORSE.family, a0={"A": 0.5}, t=Cyclic(({"A": 2.0}, {"A": 1.0})), n=1,
         grid=GRIDS[2], r=MORSE.r_function, tolerance=None)
@given(family=FAMILIES, a0=PARAMS, t=TRANSFORMS,
       n=st.one_of(st.integers(-2, 3), st.sampled_from([2.0, "3", None])),
       grid=st.sampled_from(GRIDS), r=R_FUNCTIONS,
       tolerance=st.sampled_from([None, 1e-6, 0.0, -1.0, math.nan, math.inf]))
def test_orbit_entry_points_raise_only_the_documented_errors(family, a0, t, n, grid, r,
                                                             tolerance):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _obeys_the_contract(lambda: iterate_params(t, a0, n))
        _obeys_the_contract(lambda: si_residual(family, a0, t, grid, tolerance))
        _obeys_the_contract(lambda: spectrum_from_measured_residuals(family, t, a0, grid, n))
        _obeys_the_contract(lambda: wavefunction_chain(family, a0, t, n, grid))
        _obeys_the_contract(lambda: algebraic_spectrum(r, t, a0, n))


#: Tabulated functions: zero, a well, a node, a constant, a barrier, and a
#: constant whose square overflows (normalize and the inner product refuse
#: it with NormOverflowError).
SHAPES = st.sampled_from([np.zeros_like, np.square, lambda x: x * np.exp(-x**2),
                          np.ones_like, lambda x: -1e6 * np.exp(-x**2),
                          lambda x: np.full_like(x, 1e300)])
SIDES = st.sampled_from(["both", "right", "left"])


@settings(max_examples=40)
@example(n_points=3.5, shape=np.square, other=np.square, grid=GRIDS[2], k=2.0, depth=2,
         sides="both")
@given(n_points=st.sampled_from([2, 3, 3.5, 7.0, "7", np.int64(7), np.float64(7.0)]),
       shape=SHAPES, other=SHAPES, grid=st.sampled_from(GRIDS),
       k=st.sampled_from([-1, 0, 1, 3, 2.0, "2", np.int64(2)]),
       depth=st.sampled_from([0, 1, 2, 3, 2.0, "2", np.int64(2)]),
       sides=SIDES)
def test_grid_and_solver_entry_points_raise_only_the_documented_errors(
        n_points, shape, other, grid, k, depth, sides):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _obeys_the_contract(lambda: Grid1D(-3.5, 10.0, n_points).x)
        v = GridFunction(grid, shape(grid.x))
        u = GridFunction(GRIDS[1], other(GRIDS[1].x))  # on the 7-point grid, which v's may not be
        for call in (derivative, normalize, count_nodes, decay_trust_window,
                     superpotential_from_ground_state, classify_tabulated):
            _obeys_the_contract(lambda: call(v))
        _obeys_the_contract(lambda: inner_product(v, u))
        _obeys_the_contract(lambda: sign_aligned_distance(v, u))
        _obeys_the_contract(lambda: partner_pair_from_w(v, u))
        _obeys_the_contract(lambda: boundary_amplitude_ratio(v, sides))
        _obeys_the_contract(lambda: solve_potential(v, k))
        _obeys_the_contract(lambda: ground_state(v, sides))
        _obeys_the_contract(lambda: build_hierarchy(v, depth, sides))


@settings(max_examples=40)
@example(family=MORSE.family, a0={"A": 2.0}, grid=GRIDS[2], sign=-1, tolerance=math.nan)
@given(family=FAMILIES, a0=PARAMS, grid=st.sampled_from(GRIDS),
       sign=st.sampled_from([-1, 1, 0]),
       tolerance=st.sampled_from([1e-10, 0.0, -1.0, math.nan, math.inf]))
def test_susy_entry_points_raise_only_the_documented_errors(family, a0, grid, sign,
                                                             tolerance):
    psi = GridFunction(GRIDS[2], np.exp(-GRIDS[2].x**2))  # on the 101-point grid, which grid may not be
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _obeys_the_contract(lambda: partner_potentials(family, a0, grid))
        _obeys_the_contract(lambda: zero_mode(family, a0, grid, sign))
        _obeys_the_contract(lambda: susy_phase(family, a0, grid))
        _obeys_the_contract(lambda: apply_a(family, a0, psi))
        _obeys_the_contract(lambda: apply_a_dagger(family, a0, psi))
        _obeys_the_contract(lambda: verify_algebra(charge_matrices(family, a0, grid), tolerance))
        _obeys_the_contract(lambda: block_spectra(charge_matrices(family, a0, grid)))
        _obeys_the_contract(lambda: classify_family(family, a0, grid, 3))


@settings(max_examples=40)
@example(name="morse", params={"A": "2"}, n=2, grid=GRIDS[2])
@given(name=st.sampled_from([*list_catalog(), "nope"]),
       params=st.one_of(st.none(), PARAMS, st.builds(lambda a: {"A": a}, st.just("2"))),
       n=st.one_of(st.integers(-1, 3), st.just(2.0)), grid=st.sampled_from(GRIDS))
def test_catalog_entry_points_raise_only_the_documented_errors(name, params, n, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _obeys_the_contract(lambda: closed_form_spectrum(name, params, n))
        _obeys_the_contract(lambda: instantiate(name, params, grid))
        _obeys_the_contract(lambda: classify_record(name, params, 3))


MORSE_A0 = {"A": 2.0}
HARMONIC = GridFunction(GRIDS[2], np.square(GRIDS[2].x))


@pytest.mark.parametrize("call", [
    lambda: iterate_params(MORSE.transform, MORSE_A0, 2.0),
    lambda: algebraic_spectrum(MORSE.r_function, MORSE.transform, MORSE_A0, 2.0),
    lambda: closed_form_spectrum("morse", None, 2.0),
    lambda: spectrum_from_measured_residuals(MORSE.family, MORSE.transform, MORSE_A0,
                                             GRIDS[2], 2.0),
    lambda: wavefunction_chain(MORSE.family, MORSE_A0, MORSE.transform, 2.0, GRIDS[2]),
    lambda: build_hierarchy(HARMONIC, 2.0),
], ids=["iterate_params", "algebraic_spectrum", "closed_form_spectrum",
        "spectrum_from_measured_residuals", "wavefunction_chain", "build_hierarchy"])
def test_a_float_count_is_a_documented_value_error(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize("n", ["3", None, 2.0], ids=["str", "None", "float"])
def test_wavefunction_chain_checks_its_level_before_the_residual_test(n, monkeypatch):
    # a str or None reached n < 0 as a bare TypeError, and a float ran the
    # residual test before iterate_params refused it
    def refuse(*args):
        raise AssertionError("the residual test ran")

    monkeypatch.setattr(shape_invariance, "si_residual", refuse)
    with pytest.raises(ValueError, match=r"^level index n=.* must be an integer$"):
        wavefunction_chain(MORSE.family, MORSE_A0, MORSE.transform, n, GRIDS[2])


#: An int parameter too large for a float.
HUGE = 10**400


def test_an_int_parameter_too_large_for_a_float_is_an_evaluation_error():
    family, grid = MORSE.family, GRIDS[2]
    for call in (lambda: family.w_grid(grid, {"A": HUGE}),
                 lambda: MORSE.r_function({"A": HUGE})):
        with pytest.raises(EvaluationError, match="int too large to convert to float"):
            call()
    tag = classify_family(family, {"A": HUGE}, grid, 3)
    assert (tag.susy, tag.shape_invariant, tag.ih_factorizable, tag.exactly_solvable) \
        == (UNKNOWN,) * 4
    assert [e["kind"] for e in tag.evidence] == ["evaluation"]


@pytest.mark.parametrize("call", [
    lambda a0: MORSE.transform.apply(a0),
    lambda a0: iterate_params(MORSE.transform, a0, 2),
    lambda a0: si_residual(MORSE.family, a0, MORSE.transform, GRIDS[2]),
    lambda a0: wavefunction_chain(MORSE.family, a0, MORSE.transform, 1, GRIDS[2]),
], ids=["apply", "iterate_params", "si_residual", "wavefunction_chain"])
def test_a_target_too_large_for_a_float_is_a_transform_error(call):
    # float(10**400) raised a bare OverflowError out of apply
    with pytest.raises(TransformError, match=r"transform target A=1000.* cannot be converted "
                                             r"to float \(int too large to convert to float\)"):
        call({"A": HUGE})


@pytest.mark.parametrize("value", [None, "x", [1.0], 1j], ids=["None", "str", "list", "complex"])
@pytest.mark.parametrize("call", [
    lambda a0: MORSE.transform.apply(a0),
    lambda a0: iterate_params(MORSE.transform, a0, 2),
    lambda a0: si_residual(MORSE.family, a0, MORSE.transform, GRIDS[2]),
    lambda a0: spectrum_from_measured_residuals(MORSE.family, MORSE.transform, a0,
                                                GRIDS[2], 2),
    lambda a0: wavefunction_chain(MORSE.family, a0, MORSE.transform, 1, GRIDS[2]),
], ids=["apply", "iterate_params", "si_residual", "spectrum_from_measured_residuals",
        "wavefunction_chain"])
def test_a_target_that_is_not_a_number_is_a_transform_error(call, value):
    with pytest.raises(TransformError, match=r"transform target A=.* is not a real number") \
            as exc:
        call({"A": value})
    assert f"A={value!r}" in str(exc.value)


#: Charge matrices on ten interior nodes, whose blocks the cases below replace.
CM = charge_matrices(MORSE.family, MORSE_A0, make_grid(-3.5, 10.0, 12))


def _with_entry(value):
    band = CM.lower.copy()
    band[2, 3] = value
    return band


@pytest.mark.parametrize("band", [
    None, CM.lower[:2], np.zeros((5, 0)), CM.lower[2:], np.vstack([CM.lower, CM.lower[:2]]),
    CM.lower.ravel(), _with_entry(math.nan), _with_entry(math.inf), _with_entry(-math.inf),
    CM.lower.astype(complex), CM.lower.astype(str), CM.lower.astype(object), "band",
], ids=["None", "2-rows", "5-by-0", "3-rows", "7-rows", "1-D", "nan", "inf", "-inf",
        "complex", "str", "object", "text"])
@pytest.mark.parametrize("field", ["lower", "upper"])
def test_a_block_that_is_not_a_finite_five_row_band_is_a_documented_value_error(field, band):
    # before this check, None escaped as a TypeError, 2 rows or 0 columns
    # returned an empty array, 3 or 7 rows were solved as another band width,
    # and NaN or inf raised scipy's ValueError
    cm = dataclasses.replace(CM, **{field: band})
    with pytest.raises(ValueError, match=r"band must be a finite float64 array of shape "
                                         r"\(5, m\), m >= 1; got ") as exc:
        block_spectra(cm)
    assert not isinstance(exc.value, SusyQMError)


def test_a_block_that_converts_cleanly_to_float64_is_accepted():
    ints = np.rint(CM.lower * 100.0).astype(np.int64)
    want = block_spectra(dataclasses.replace(CM, lower=ints.astype(np.float64)))
    for band in (ints, ints.tolist(), ints.astype(np.int32)):
        got = block_spectra(dataclasses.replace(CM, lower=band))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


#: A bound family whose classify runs a full transform search.
LINEAR = SuperpotentialFamily.from_expression("a*x", domain=(-10.0, 10.0))
LINEAR_GRID = make_grid(-10.0, 10.0, 401)
#: A family with no zero mode, whose classify stops before any search.
FLAT = SuperpotentialFamily.from_expression("a + 0*x", domain=(-10.0, 10.0))


@pytest.mark.parametrize("budget", [None, "33", 0, -1, MAX_BUDGET + 1, 2**31, 33.0, 1.5],
                         ids=["None", "str", "zero", "negative", "above-cap", "2**31",
                              "float", "fraction"])
@pytest.mark.parametrize("call", [
    lambda budget, record: search_transform(LINEAR, {"a": 1.0}, LINEAR_GRID, budget=budget,
                                            record=record),
    lambda budget, record: classify_family(LINEAR, {"a": 1.0}, LINEAR_GRID, budget),
    lambda budget, record: classify_family(FLAT, {"a": 1.0}, LINEAR_GRID, budget),
    lambda budget, record: classify_record("morse", None, budget),
    lambda budget, record: classify_record("scaling-demo", None, budget),
], ids=["search_transform", "classify_family", "classify_family-no-search",
        "classify_record-declared", "classify_record-no-family"])
def test_a_budget_outside_the_cap_is_a_documented_value_error(call, budget):
    # None and "33" escaped as a bare TypeError; nothing capped 2**31, which
    # sized each candidate's coarse sample list.  A classify that runs no
    # search (no zero mode, a passing declared translation, or a record
    # with no family) refuses the budget all the same.
    record = []
    with pytest.raises(ValueError, match=rf"budget must be an integer in \[1, {MAX_BUDGET}\], "
                                         rf"got {re.escape(repr(budget))}$") as exc:
        call(budget, record)
    assert not isinstance(exc.value, SusyQMError)
    assert record == []


@pytest.mark.parametrize("budget", [1, MAX_BUDGET, np.int64(9)], ids=["one", "cap", "int64"])
def test_a_budget_inside_the_cap_is_searched(budget):
    found = search_transform(LINEAR, {"a": 1.0}, LINEAR_GRID, budget=budget)
    assert found is not None and found[1].passed


@pytest.mark.parametrize("cls, fixed", [
    (PowerScaling, ()),            # p missing
    (Translation, (2,)),           # a knob the class does not have
    (Projective, ("x",)),          # not a number
    (Projective, (0.25, 0.5)),     # one knob too many
    (Projective, [0.25]),          # not a tuple
    (Projective, 0.25),            # not a sequence
], ids=["missing", "extra", "str", "two", "list", "scalar"])
def test_a_candidate_with_malformed_fixed_knobs_is_a_transform_error(cls, fixed):
    # the first three escaped search_transform as a bare TypeError
    with pytest.raises(TransformError, match=rf"{cls.__name__} candidates fix .* to real "
                                             r"numbers, got fixed="):
        TransformCandidate(cls, 0.1, 0.9, fixed)


@pytest.mark.parametrize("text", [None, 3], ids=["None", "int"])
def test_a_text_that_is_not_a_str_is_an_expression_error(text):
    # the closed grammar took the length of the text, a bare TypeError
    with pytest.raises(ExpressionError, match=rf"^cannot parse expression {text}: "):
        SuperpotentialFamily.from_expression(text)


@pytest.mark.parametrize("call", [
    lambda: si_residual(MORSE.family, MORSE_A0, MORSE.transform, GRIDS[2], tolerance="1e-6"),
    lambda: search_transform(LINEAR, {"a": 1.0}, LINEAR_GRID, tolerance="x"),
    lambda: verify_algebra(CM, None),
    lambda: verify_algebra(CM, "1e-10"),
    lambda: verify_algebra(CM, 1j),
], ids=["si_residual", "search_transform", "verify_algebra-None", "verify_algebra-str",
        "verify_algebra-complex"])
def test_a_tolerance_that_is_not_a_real_number_is_a_documented_value_error(call):
    # each escaped math.isfinite as a bare TypeError
    with pytest.raises(ValueError, match=r"^tolerance must be a positive finite number$") \
            as exc:
        call()
    assert not isinstance(exc.value, SusyQMError)


@pytest.mark.parametrize("call", [
    lambda: si_residual(MORSE.family, MORSE_A0, MORSE.transform, GRIDS[2], tolerance=HUGE),
    lambda: search_transform(LINEAR, {"a": 1.0}, LINEAR_GRID, tolerance=HUGE),
    lambda: verify_algebra(CM, HUGE),
    lambda: si_residual(MORSE.family, MORSE_A0, MORSE.transform, GRIDS[2], tolerance=10**5000),
    lambda: search_transform(LINEAR, {"a": 1.0}, LINEAR_GRID, tolerance=10**5000),
    lambda: verify_algebra(CM, 10**5000),
], ids=["si_residual", "search_transform", "verify_algebra", "si_residual-past-the-str-limit",
        "search_transform-past-the-str-limit", "verify_algebra-past-the-str-limit"])
def test_a_tolerance_too_large_for_a_float_is_a_documented_value_error(call):
    # each escaped math.isfinite as a bare OverflowError; past 4300 digits,
    # building a message that named the value raised int's str limit error
    with pytest.raises(ValueError, match=r"^tolerance must be a positive finite number$"):
        call()


@pytest.mark.parametrize("args, message", [
    ((0, HUGE, 11), "grid bounds do not convert to float (int too large to convert to float)"),
    ((0, 1, 10**5000), "n_points is too large for a float"),
    ((None, 1, 3), "grid bounds do not convert to float (float() argument must be"),
    (([0], 1, 3), "grid bounds do not convert to float (float() argument must be"),
    (("a", 1, 3), "grid bounds do not convert to float (could not convert string to float: 'a')"),
    ((0, 10**5000, 3), "grid bounds do not convert to float (int too large to convert to float)"),
], ids=["huge-bound", "huge-count", "None", "list", "str", "bound-past-the-str-limit"])
def test_make_grid_arguments_that_do_not_convert_are_grid_errors(args, message):
    # the first two escaped as a bare OverflowError, None and [0] as a bare
    # TypeError, and "a" as float()'s own ValueError; the messages name no
    # value, whose str an int past 4300 digits would refuse
    with pytest.raises(GridError, match=re.escape(message)):
        make_grid(*args)


@pytest.mark.parametrize("args, message", [
    ((None, 1.0, 3), "grid bounds must be real numbers"),
    (("a", 1.0, 3), "grid bounds must be real numbers"),
    ((0.0, 1j, 3), "grid bounds must be real numbers"),
    ((Decimal("0.5"), 1.0, 3), "grid bounds must be real numbers"),
    ((10**5000, 1.0, 3), "grid bounds must be finite"),
], ids=["None", "str", "complex", "Decimal", "bound-past-the-str-limit"])
def test_grid_bounds_that_are_not_real_numbers_are_grid_errors(args, message):
    # Grid1D is public: None and "a" escaped np.isfinite as a bare TypeError,
    # and a Decimal passed it to fail on x_max - x_min
    with pytest.raises(GridError, match=f"^{message}$"):
        Grid1D(*args)


@pytest.mark.parametrize("build", [
    lambda: Scaling("0.5"),
    lambda: Projective(0.5, "0.2"),
    lambda: Translation("a"),
    lambda: Translation(None, param="A"),
    lambda: PowerScaling([0.5], 2),
], ids=["scaling", "projective", "translation", "translation-None", "power-scaling"])
def test_a_knob_that_is_not_a_real_number_is_a_transform_error(build):
    # scaling and projective raised a bare TypeError from their knob check,
    # and a translation built, then raised one from apply
    with pytest.raises(TransformError, match=r"^[a-z-]+ knob \w+=.* is not a real number$"):
        build()


@pytest.mark.parametrize("name", [["morse"], {"morse": 1}, None, 3],
                         ids=["list", "dict", "None", "int"])
def test_a_record_name_that_is_not_a_str_is_a_catalog_error(name):
    # an unhashable name raised "unhashable type"
    with pytest.raises(CatalogError, match=r"^unknown catalog record "):
        get_record(name)
