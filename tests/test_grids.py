import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyqm import (Grid1D, GridError, GridFunction, GridMismatchError,
                    ZeroNormError, boundary_amplitude_ratio, count_nodes,
                    derivative, inner_product, l2_distance, make_grid, norm,
                    normalize, sign_aligned_distance)
from susyqm.grids import FLOAT_FMT, align_sign


def test_grid_basics():
    g = make_grid(-1.0, 1.0, 5)
    assert g.h == 0.5
    assert np.allclose(g.x, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert g.x[0] == g.x_min and g.x[-1] == g.x_max


def test_grid_x_is_read_only():
    g = make_grid(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        g.x[0] = 99.0


@pytest.mark.parametrize("args", [
    (1.0, -1.0, 11),   # reversed
    (0.0, 0.0, 11),    # empty
    (0.0, 1.0, 2),     # too few points
    (np.nan, 1.0, 11),
    (0.0, np.inf, 11),
])
def test_grid_rejects_bad_domains(args):
    with pytest.raises(GridError):
        Grid1D(*args)


@pytest.mark.parametrize("args,message", [
    ((-1e-300, 1e-300, 101), "h=2e-302 is out of range"),  # h**2 underflows to 0
    ((0.0, 1e-154, 3), "h=5e-155 is out of range"),  # 2/h**2 overflows
    ((-1e200, 1e200, 5), "h=5e+199 is out of range"),  # h**2 overflows
    ((-1e308, 1e308, 11), "x_max - x_min overflows"),
    ((-1.7e308, 1.7e308, 2001), "x_max - x_min overflows"),
])
def test_grid_rejects_spacing_outside_float_range(args, message):
    with pytest.raises(GridError, match=re.escape(message)):
        Grid1D(*args)


def test_grid_accepts_spacing_near_the_float_limits():
    for grid in (make_grid(0.0, 1e-150, 3), make_grid(-1e150, 1e150, 3)):
        assert np.isfinite(2.0 / grid.h**2) and np.all(np.isfinite(grid.x))


def test_gridfunction_validates_shape_and_finiteness():
    g = make_grid(0.0, 1.0, 5)
    with pytest.raises(GridError):
        GridFunction(g, np.zeros(4))
    with pytest.raises(GridError):
        GridFunction(g, np.array([0.0, 1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(GridError):
        GridFunction(g, np.zeros((5, 1)))


def test_gridfunction_values_frozen_and_decoupled():
    g = make_grid(0.0, 1.0, 3)
    src = np.array([1.0, 2.0, 3.0])
    f = GridFunction(g, src)
    src[0] = -99.0
    assert f.values[0] == 1.0
    with pytest.raises(ValueError):
        f.values[0] = 0.0


def test_l2_distance_and_grid_mismatch():
    g = make_grid(0.0, 1.0, 5)
    f = GridFunction(g, g.x)
    h = GridFunction(g, 1.0 - g.x)
    # f - h = 2x - 1 at x = 0, 0.25, ..., 1: trapezoid of its square is 0.375
    assert l2_distance(f, h) == pytest.approx(math.sqrt(0.375), rel=1e-15)
    wide = make_grid(0.0, 2.0, 5)
    other = GridFunction(wide, wide.x)
    with pytest.raises(GridMismatchError, match="grid functions live on different grids"):
        l2_distance(f, other)
    with pytest.raises(GridMismatchError):
        inner_product(f, other)


def test_csv_round_trip_is_exact():
    g = make_grid(-2.0, 2.0, 9)
    f = GridFunction(g, np.sin(g.x) * 1e-7 + g.x**2)
    text = f.to_csv()
    assert text.startswith("x,value\n")
    assert text.endswith("\n") and "\r" not in text
    back = GridFunction.from_csv(text)
    assert back.grid == f.grid
    # 12 significant digits survive a parse round trip at this magnitude
    assert np.allclose(back.values, f.values, rtol=1e-11, atol=1e-18)
    assert back.to_csv() == text


def test_from_csv_rejects_nonuniform_and_headerless():
    with pytest.raises(GridError):
        GridFunction.from_csv("a,b\n0,0\n1,0\n2,0\n")
    with pytest.raises(GridError):
        GridFunction.from_csv("x,value\n0,0\n1,0\n2.5,0\n")
    with pytest.raises(GridError):
        GridFunction.from_csv("x,value\n0,0\n1,0\n")
    # half a spacing off its node, however tiny the spacing
    with pytest.raises(GridError, match="not a uniform ascending grid"):
        GridFunction.from_csv("x,value\n0,0\n1e-12,0\n5e-12,0\n6e-12,0\n")
    with pytest.raises(GridError, match="not a uniform ascending grid"):
        GridFunction.from_csv("x,value\n2,0\n1,0\n0,0\n")


def test_from_csv_rejects_non_finite_x():
    # an interior NaN slips past a spacing test, since every comparison with it is False
    for x in ("nan", "inf", "-inf"):
        with pytest.raises(GridError, match="x column contains a non-finite value"):
            GridFunction.from_csv(f"x,value\n-1,1\n0,0\n{x},1\n2,4\n")


@pytest.mark.parametrize("row", ["0,1,2", "0,abc", "0", "0;1", "0,1,"])
def test_from_csv_names_the_line_that_is_not_two_numbers(row):
    # blank lines count toward the line number
    text = f"x,value\n-1,1\n\n{row}\n1,1\n2,4\n"
    with pytest.raises(GridError, match=re.escape(f"line 4 is not two numbers x,value: {row!r}")):
        GridFunction.from_csv(text)


@settings(max_examples=60)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=3, max_size=40),
       st.floats(min_value=-1.0, max_value=1.0), st.integers(min_value=-12, max_value=6),
       st.floats(min_value=0.0, max_value=8.0))
def test_csv_round_trip_property(vals, where, magnitude, resolution):
    """A grid comes back from its CSV wherever it lies, x_min up to 1e6 in
    size, with any spacing down to 1e-8 of 10^magnitude (1e-20 near 0)."""
    x_min, h = where * 10.0**magnitude, 10.0 ** (magnitude - resolution)
    g = make_grid(x_min, x_min + (len(vals) - 1) * h, len(vals))
    f = GridFunction(g, np.asarray(vals))
    back = GridFunction.from_csv(f.to_csv())
    assert back.grid.n_points == len(vals)
    assert (back.grid.x_min, back.grid.x_max) == (float(FLOAT_FMT % g.x_min),
                                                  float(FLOAT_FMT % g.x_max))
    # the written ends are 12-digit roundings, so each node moves at most
    # one unit in the 12th digit of the largest |x|
    assert np.max(np.abs(back.grid.x - g.x)) <= 1e-11 * max(abs(g.x_min), abs(g.x_max))
    assert np.allclose(back.values, f.values, rtol=1e-11, atol=1e-6)


def test_derivative_linear_exact_and_quadratic_converges():
    g = make_grid(-1.0, 1.0, 101)
    lin = GridFunction(g, 3.0 * g.x + 2.0)
    assert np.allclose(derivative(lin).values, 3.0, atol=1e-12)

    errs = []
    for n in (201, 401):
        gn = make_grid(-1.0, 1.0, n)
        f = GridFunction(gn, np.sin(gn.x))
        errs.append(np.max(np.abs(derivative(f).values - np.cos(gn.x))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_norm_and_normalize_gaussian():
    g = make_grid(-10.0, 10.0, 2001)
    f = GridFunction(g, np.exp(-g.x**2 / 2.0))
    assert norm(f) == pytest.approx(np.pi**0.25, rel=1e-10)
    u = normalize(f)
    assert norm(u) == pytest.approx(1.0, abs=1e-12)


def test_normalize_zero_raises():
    g = make_grid(0.0, 1.0, 11)
    with pytest.raises(ZeroNormError):
        normalize(GridFunction(g, np.zeros(11)))


def test_count_nodes_oscillator_states():
    # sin(k pi x) on [0,1] has k-1 interior nodes
    g = make_grid(0.0, 1.0, 501)
    for k in (1, 2, 3, 5):
        f = GridFunction(g, np.sin(k * np.pi * g.x))
        assert count_nodes(f) == k - 1


def test_count_nodes_ignores_tail_noise():
    g = make_grid(-10.0, 10.0, 2001)
    clean = np.exp(-g.x**2)
    noisy = clean + 1e-9 * np.sin(50.0 * g.x)
    assert count_nodes(GridFunction(g, noisy)) == 0


def test_count_nodes_zero_raises():
    g = make_grid(0.0, 1.0, 11)
    with pytest.raises(ZeroNormError):
        count_nodes(GridFunction(g, np.zeros(11)))
    # nonzero only at the endpoints and below the threshold inside
    with pytest.raises(ZeroNormError, match="no interior values above"):
        count_nodes(GridFunction(g, np.r_[1.0, np.zeros(4), 1e-12, np.zeros(4), -1.0]))


def test_align_sign():
    g = make_grid(0.0, 1.0, 5)
    f = GridFunction(g, np.array([0.0, -1.0, -2.0, -1.0, 0.0]))
    aligned = align_sign(f)
    assert aligned.values[1] > 0
    assert align_sign(aligned).values is aligned.values
    zero = GridFunction(g, np.zeros(5))
    assert align_sign(zero) is zero


def test_sign_aligned_distance_flips():
    g = make_grid(-5.0, 5.0, 1001)
    f = normalize(GridFunction(g, np.exp(-g.x**2)))
    minus_f = GridFunction(g, -f.values)
    assert sign_aligned_distance(f, minus_f) == pytest.approx(0.0, abs=1e-14)
    assert l2_distance(f, minus_f) == pytest.approx(2.0, rel=1e-10)


def test_boundary_amplitude_ratio_sides():
    g = make_grid(0.0, 1.0, 101)
    # decays to the right only
    f = GridFunction(g, np.exp(-20.0 * g.x))
    assert boundary_amplitude_ratio(f, "right") < 1e-7
    with pytest.raises(ValueError):
        boundary_amplitude_ratio(f, "left")
    assert boundary_amplitude_ratio(f, "both") == pytest.approx(1.0)
    assert boundary_amplitude_ratio(GridFunction(g, np.zeros(101))) == 0.0
    with pytest.raises(ValueError):
        boundary_amplitude_ratio(f, "middle")


def test_boundary_ratio_probes_first_interior_node():
    # Dirichlet-style state: exact zeros at the end nodes must not hide a fat tail
    g = make_grid(0.0, 1.0, 101)
    vals = np.ones(101)
    vals[0] = vals[-1] = 0.0
    assert boundary_amplitude_ratio(GridFunction(g, vals)) == pytest.approx(1.0)
