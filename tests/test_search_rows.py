"""The rows a transform search records, bit for bit.

``data/search_rows_golden.json`` holds, for each family of ``CASES`` at
budgets 9 and 17, every ``SearchRow`` that ``search_transform(record=...)``
appends, with each float written as ``float.hex`` so that the comparison
is exact: a change to how the search schedules, batches or remembers its
trials must leave every finalist, kept θ, report and gate alone.  The
families cover the closed grammar, the sympy route, a finite-difference
and a callable family, both cubics and the radial Coulomb template at
l = 0.

To record the file again, from the root of a source checkout::

    PYTHONPATH=src python tests/test_search_rows.py
"""

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from susyqm import SuperpotentialFamily, default_candidates, make_grid, search_transform

DATA = Path(__file__).parent / "data" / "search_rows_golden.json"

BUDGETS = (9, 17)


def _expression(text, a0, domain, hard_wall_left=False, n_points=401):
    family = SuperpotentialFamily.from_expression(text, domain=domain,
                                                  hard_wall_left=hard_wall_left)
    return family, a0, make_grid(*domain, n_points)


#: id -> (family, a₀, grid)
CASES = {
    "harmonic": _expression("a*x + 0.3127", {"a": 1.1}, (-10.0, 10.0)),
    "morse": _expression("A - 1.1875*exp(-x)", {"A": 2.5}, (-5.0, 10.0)),
    "ln-morse": _expression("ln(b) - exp(-x)", {"b": 7.0}, (-5.0, 10.0)),
    "tanh-two-parameter": _expression("A*tanh(a*x)", {"A": 3.0, "a": 1.0}, (-10.0, 10.0)),
    "parameter-pole": _expression("x + 1/(a^2 - 4)", {"a": 2.625}, (-10.0, 10.0)),
    "finite-difference": (
        SuperpotentialFamily.from_callables(lambda x, p: np.log(p["a"] + x),
                                            parameter_names=("a",), domain=(0.5, 10.0)),
        {"a": 1.0}, make_grid(0.5, 10.0, 401)),
    "callables": (
        SuperpotentialFamily.from_callables(lambda x, p: p["a"] * np.tanh(x) + p["n"] * x / 8,
                                            lambda x, p: p["a"] / np.cosh(x)**2 + p["n"] / 8,
                                            ("a", "n")),
        {"a": 1.5, "n": 2}, make_grid(-10.0, 10.0, 401)),
    "cubic": _expression("a*x^3 - 0.25", {"a": 1.1}, (-6.0, 6.0)),
    "cubic-linear": _expression("a*x^3 + c*x + 0.4375", {"a": 0.75, "c": 0.5}, (-6.0, 6.0)),
    "coulomb-l0": _expression("2.0/(2*(l+1)) - (l+1)/x", {"l": 0.0}, (1e-3, 160.0),
                              hard_wall_left=True, n_points=2001),
}

#: w = x + copysign(1, a) at a₀ = −0.0: the scaling, the power scaling p = 3
#: and the projective maps keep a at −0.0, where w = x − 1 is shape
#: invariant; the translation by 0 and the power scaling p = 2 send it to
#: +0.0, where w = x + 1 is not.  The two a₁ compare equal and are different.
SIGNED_ZERO = (
    SuperpotentialFamily.from_callables(lambda x, p: x + math.copysign(1.0, p["a"]),
                                        lambda x, p: np.ones_like(x), ("a",)),
    {"a": -0.0}, make_grid(-5.0, 5.0, 401))


def _bits(value):
    """value as a JSON document that compares bit for bit: every float as
    ``float.hex``, tuples as lists and a transform class by its kind."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, type):
        return value.kind
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    return value


def _rows(family, a0, grid, budget, candidates=None) -> list:
    record = []
    search_transform(family, a0, grid, candidates, budget=budget, record=record)
    return [_bits(asdict(row)) for row in record]


def _golden() -> dict:
    return {name: {str(budget): _rows(*case, budget) for budget in BUDGETS}
            for name, case in CASES.items()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


def test_golden_covers_every_case(recorded):
    assert list(recorded) == list(CASES)
    assert all(list(budgets) == [str(b) for b in BUDGETS] for budgets in recorded.values())


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name", CASES)
def test_search_rows_match_golden(recorded, name, budget):
    assert _rows(*CASES[name], budget) == recorded[name][str(budget)]


@pytest.mark.parametrize("case", [*CASES.values(), SIGNED_ZERO], ids=[*CASES, "signed-zero"])
def test_search_rows_are_its_single_candidate_searches_rows(case):
    """Candidates are refined and judged independently: a search's rows
    are, row for row, the rows of a search over each candidate alone, so
    no trial's score may leak from one candidate's a₁ into another's."""
    family, a0, grid = case
    alone = [row for cand in default_candidates(family.parameter_names)
             for row in _rows(family, a0, grid, 9, [cand])]
    assert _rows(family, a0, grid, 9) == alone


def test_signed_zero_images_are_scored_apart():
    # the case above has teeth: a scaling, the power scaling p = 3 and the
    # projective maps keep a₁ = −0.0 and pass, while the power scaling
    # p = 2 squares it to +0.0, the translation by 0's a₁, and fails
    rows = _rows(*SIGNED_ZERO, 9)
    assert [(row["candidate"]["cls"], row["gate"]) for row in rows] == [
        ("translation", None), ("scaling", None), ("power-scaling", "tolerance"),
        ("power-scaling", None), ("projective", None), ("projective", None)]
    assert float.fromhex(rows[1]["report"]["residual_stddev"]) < 1e-12
    assert float.fromhex(rows[2]["report"]["residual_stddev"]) > 10.0


if __name__ == "__main__":
    DATA.write_text(json.dumps(_golden(), indent=1) + "\n")
