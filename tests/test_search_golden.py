"""Classification verdicts and residual statistics, bit for bit.

``data/classify_golden.json`` holds the exact ``to_dict()`` of
``classify_family`` on the first 24 inputs of the benchmark's search-sweep
workload at seed 0 (inputs stored alongside) and of ``classify_record`` on
every catalog record, recorded before compiled expressions read
parameter-free subterms from per-grid tables.  Any change to how w, w′ or
the residual is evaluated must leave these documents unchanged.
"""

import json
from pathlib import Path

import pytest

from susyqm import (SuperpotentialFamily, classify_family, classify_record,
                    list_catalog, make_grid)

GOLDEN = json.loads((Path(__file__).parent / "data" / "classify_golden.json").read_text())


def _text(doc) -> str:
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("case", GOLDEN["search_sweep_seed0"],
                         ids=[f"op{i}" for i in range(len(GOLDEN["search_sweep_seed0"]))])
def test_classify_family_matches_golden(case):
    family = SuperpotentialFamily.from_expression(
        case["text"], domain=tuple(case["domain"]), hard_wall_left=case["hard_wall_left"])
    grid = make_grid(case["domain"][0], case["domain"][1], case["n_points"])
    tag = classify_family(family, case["params"], grid)
    assert _text(tag.to_dict()) == _text(case["tag"])


def test_golden_covers_every_catalog_record():
    assert sorted(GOLDEN["catalog"]) == sorted(list_catalog())


@pytest.mark.parametrize("name", sorted(GOLDEN["catalog"]))
def test_classify_record_matches_golden(name):
    assert _text(classify_record(name).to_dict()) == _text(GOLDEN["catalog"][name])


def test_classify_tabulates_parameter_free_subterms_once():
    """One search scores hundreds of trials on one grid; x**3 in w and
    x**2 in w′ are each computed once."""
    family = SuperpotentialFamily.from_expression("a*x^3 + c*x + 0.3", domain=(-6.0, 6.0))
    grid = make_grid(-6.0, 6.0, 2001)
    tag = classify_family(family, {"a": 1.1, "c": 0.4}, grid)
    assert tag.shape_invariant == "no-within-search"
    for fn in (family.w_fn, family.w_prime_fn):
        assert fn.subterms.computed == 1
        assert fn.subterms.slot[0] is grid.x
