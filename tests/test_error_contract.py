"""The error contract of the orbit entry points under malformed arguments.

Every call either returns or raises a SusyQMError; the one documented
ValueError outside that hierarchy is a negative level or orbit length, or a
tolerance that is not positive and finite.  A bare KeyError, TypeError or
ZeroDivisionError would escape the CLI, which catches only SusyQMError,
OSError and ValueError, as a traceback.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from susyqm import (Cyclic, Projective, SuperpotentialFamily, SusyQMError, Translation,
                    algebraic_spectrum, get_record, iterate_params, make_grid, si_residual,
                    spectrum_from_measured_residuals, wavefunction_chain)

MORSE = get_record("morse")
#: 7 points is the fewest the residual statistic takes; 6 are too few.
GRIDS = [make_grid(-3.5, 10.0, n) for n in (6, 7, 101)]
DOCUMENTED_VALUE_ERRORS = ("must be nonnegative", "tolerance must be a positive finite number")

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
@given(family=FAMILIES, a0=PARAMS, t=TRANSFORMS, n=st.integers(-2, 3),
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

