import json
from dataclasses import replace

import numpy as np
import pytest

import susyqm.classify as classify_module
from susyqm import (CERTIFIED, NO, NO_WITHIN_SEARCH, UNKNOWN, YES, CatalogError,
                    GridFunction, Scaling, SuperpotentialFamily, Translation, VennTag,
                    classify_family, classify_record, classify_tabulated,
                    default_candidates, get_record, make_grid, record_grid,
                    search_transform, venn_graph_text)

GRID = make_grid(-10.0, 10.0, 1001)


# -- tag invariants -------------------------------------------------------------


def test_tag_value_sets_enforced():
    with pytest.raises(ValueError):
        VennTag("maybe", UNKNOWN, UNKNOWN, UNKNOWN)
    with pytest.raises(ValueError):
        VennTag(YES, NO, UNKNOWN, UNKNOWN)  # SI never gets a hard "no"
    with pytest.raises(ValueError):
        VennTag(YES, YES, YES, "no")  # ES is certified or unknown only


def test_tag_containment_enforced():
    with pytest.raises(ValueError):
        VennTag(NO, YES, UNKNOWN, CERTIFIED)  # SI inside SUSY
    with pytest.raises(ValueError):
        VennTag(YES, NO_WITHIN_SEARCH, YES, UNKNOWN)  # IH inside SI
    with pytest.raises(ValueError):
        VennTag(YES, YES, UNKNOWN, UNKNOWN)  # SI certifies ES
    VennTag(YES, YES, NO_WITHIN_SEARCH, CERTIFIED)


def test_tag_to_dict():
    d = VennTag(YES, YES, YES, CERTIFIED, [{"kind": "x"}]).to_dict()
    assert set(d) == {"susy", "shape_invariant", "ih_factorizable",
                      "exactly_solvable", "evidence"}
    assert d["evidence"] == [{"kind": "x"}]


# -- record classification --------------------------------------------------------


@pytest.mark.parametrize("name", ["shifted-harmonic", "morse", "poschl-teller",
                                  "coulomb-radial"])
def test_translational_records_fully_inside(name):
    tag = classify_record(name)
    assert (tag.susy, tag.shape_invariant, tag.ih_factorizable,
            tag.exactly_solvable) == (YES, YES, YES, CERTIFIED)
    kinds = [e["kind"] for e in tag.evidence]
    assert "declared-transform-verified" in kinds


def test_record_with_parameter_override():
    tag = classify_record("poschl-teller", {"A": 3.0})
    assert tag.shape_invariant == YES


def test_declared_only_records():
    scaling = classify_record("scaling-demo")
    assert (scaling.susy, scaling.shape_invariant) == (YES, YES)
    assert scaling.ih_factorizable == NO_WITHIN_SEARCH
    assert scaling.exactly_solvable == CERTIFIED
    cyclic = classify_record("cyclic-demo")
    assert cyclic.ih_factorizable == NO_WITHIN_SEARCH


def test_record_falls_back_to_classify_family_search():
    # At omega = 1e12 the declared zero-step translation fails the residual
    # test on rounding alone (stddev ~4e9 against a mean ~2e12), so the
    # record is classified by search, with classify_family's evidence.
    tag = classify_record("shifted-harmonic", {"omega": 1e12})
    assert (tag.susy, tag.shape_invariant, tag.ih_factorizable,
            tag.exactly_solvable) == (YES, NO_WITHIN_SEARCH, NO_WITHIN_SEARCH, UNKNOWN)
    assert [e["kind"] for e in tag.evidence] == [
        "catalog-record", "oracle-ground-state", "susy-phase",
        "declared-transform-failed", "transform-search"]
    assert tag.evidence[0]["transform"] == {"kind": "translation", "alpha": 0.0,
                                            "param": "omega"}
    assert tag.evidence[3]["report"]["passed"] is False
    assert tag.evidence[4] == {"kind": "transform-search", "found": False, "budget": 33}
    rec = get_record("shifted-harmonic")
    family_tag = classify_family(rec.family, {"omega": 1e12}, record_grid(rec))
    assert tag.evidence[1:3] + tag.evidence[4:] == family_tag.evidence


def test_unknown_record_name():
    with pytest.raises(CatalogError):
        classify_record("airy")


# -- family classification ---------------------------------------------------------


def test_harmonic_family_is_factorizable():
    fam = SuperpotentialFamily.from_expression("x")
    tag = classify_family(fam, {}, GRID)
    assert (tag.susy, tag.shape_invariant, tag.ih_factorizable,
            tag.exactly_solvable) == (YES, YES, YES, CERTIFIED)


def test_cubic_family_outside_search():
    fam = SuperpotentialFamily.from_expression("x^3")
    tag = classify_family(fam, {}, make_grid(-6.0, 6.0, 601), search_budget=9)
    assert tag.susy == YES
    assert tag.shape_invariant == NO_WITHIN_SEARCH
    assert tag.ih_factorizable == NO_WITHIN_SEARCH
    assert tag.exactly_solvable == UNKNOWN


def test_constant_superpotential_binds_nothing():
    fam = SuperpotentialFamily.from_expression("c")
    tag = classify_family(fam, {"c": 1.0}, GRID, search_budget=5)
    assert tag.susy == NO
    assert (tag.shape_invariant, tag.ih_factorizable,
            tag.exactly_solvable) == (UNKNOWN, UNKNOWN, UNKNOWN)


def test_unevaluable_family_is_all_unknown():
    fam = SuperpotentialFamily.from_expression("ln(x)")
    tag = classify_family(fam, {}, GRID)
    assert (tag.susy, tag.shape_invariant, tag.ih_factorizable,
            tag.exactly_solvable) == (UNKNOWN, UNKNOWN, UNKNOWN, UNKNOWN)
    assert tag.evidence[0]["kind"] == "evaluation"


def test_unevaluable_parameter_point_keeps_its_evaluation_evidence():
    # classify tabulates the partner pair before any search, so w = x/(a - 2)
    # at a = 2 is an evaluation entry, not a search that found nothing.
    tag = classify_family(SuperpotentialFamily.from_expression("x/(a-2)"), {"a": 2.0}, GRID)
    assert (tag.susy, tag.shape_invariant, tag.ih_factorizable,
            tag.exactly_solvable) == (UNKNOWN, UNKNOWN, UNKNOWN, UNKNOWN)
    assert tag.evidence == [{"kind": "evaluation", "detail":
                             "expression 'x/(a - 2)' is non-finite at 1001 grid node(s); "
                             "check for singularities inside the domain"}]


def test_search_trial_whose_v_minus_overflows_is_a_miss():
    # A trial with a >= 2.19 makes w finite but w^2 - w' overflow at x = 300;
    # it must score as a miss, not abort the search.
    fam = SuperpotentialFamily.from_expression("x + exp(a*x - 300)", domain=(-10.0, 300.0))
    tag = classify_family(fam, {"a": 1.0}, make_grid(-10.0, 300.0, 601), search_budget=9)
    assert (tag.susy, tag.shape_invariant, tag.ih_factorizable,
            tag.exactly_solvable) == (YES, NO_WITHIN_SEARCH, NO_WITHIN_SEARCH, UNKNOWN)


# -- factorizability from the search record ------------------------------------------

PT_GRID = make_grid(-10.0, 10.0, 2001)


def _poschl_teller(k: str) -> SuperpotentialFamily:
    return SuperpotentialFamily.from_expression(f"A*tanh({k}*x)", domain=(-10.0, 10.0))


def _translation_search_entry(family, a0, grid, budget=33) -> dict:
    """The factorizability evidence a translation-only search gives."""
    translations = [c for c in default_candidates(family.parameter_names)
                    if c.kind == Translation.kind]
    found = search_transform(family, a0, grid, translations, budget)
    if found is None:
        return {"kind": "translation-rescan", "found": False, "budget": budget}
    return {"kind": "translation-rescan", "found": True,
            "transform": found[0].to_dict(), "report": found[1].to_dict()}


def _counting_searches(monkeypatch) -> list[bool]:
    """Count classify's search_transform calls: one flag per call, true
    when the call came from inside _ih_verdict."""
    real_search, real_ih = classify_module.search_transform, classify_module._ih_verdict
    calls, inside = [], []

    def search(*args, **kwargs):
        calls.append(bool(inside))
        return real_search(*args, **kwargs)

    def ih(*args, **kwargs):
        inside.append(True)
        try:
            return real_ih(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(classify_module, "search_transform", search)
    monkeypatch.setattr(classify_module, "_ih_verdict", ih)
    return calls


def test_classify_runs_one_search_and_the_ih_verdict_none(monkeypatch):
    # A scaling fits best here, so the verdict needs the best translation.
    calls = _counting_searches(monkeypatch)
    tag = classify_family(_poschl_teller("1.2278"), {"A": 2.8273}, PT_GRID)
    assert [e["kind"] for e in tag.evidence][-2:] == ["transform-search", "translation-rescan"]
    assert tag.ih_factorizable == YES
    assert calls == [False]


def test_declared_scaling_gets_one_translation_search(monkeypatch):
    # A declared transform that passes and is not a translation says
    # nothing about translations: one search over them alone decides.
    rec = replace(get_record("poschl-teller"), transform=Scaling(2.0 / 3.0, param="A"))
    calls = _counting_searches(monkeypatch)
    tag = classify_record(rec, {"A": 3.0})
    assert calls == [False]
    assert [e["kind"] for e in tag.evidence][-2:] == [
        "declared-transform-verified", "translation-rescan"]
    assert tag.evidence[-1] == _translation_search_entry(rec.family, {"A": 3.0},
                                                         record_grid(rec))
    assert tag.ih_factorizable == YES


@pytest.mark.parametrize("k, a", [("0.8", 3.0), ("0.9", 2.6), ("0.9", 3.7),
                                  ("1.0", 2.8273), ("1.2278", 2.8273)])
def test_translation_rescan_equals_a_translation_only_search(k, a):
    """Where a scaling kind wins, the search record's best translation is
    exactly what a second search over translations alone finds."""
    family = _poschl_teller(k)
    tag = classify_family(family, {"A": a}, PT_GRID)
    found = next(e for e in tag.evidence if e["kind"] == "transform-search")
    assert found["transform"]["kind"] != Translation.kind
    rescan = [e for e in tag.evidence if e["kind"] == "translation-rescan"]
    want = [_translation_search_entry(family, {"A": a}, PT_GRID)]
    assert json.dumps(rescan, sort_keys=True) == json.dumps(want, sort_keys=True)


# -- tabulated classification -------------------------------------------------------


def test_tabulated_well_is_susy_only():
    v = GridFunction(GRID, GRID.x**2 - 1.0)
    tag = classify_tabulated(v)
    assert tag.susy == YES
    assert tag.shape_invariant == UNKNOWN
    assert any(e["kind"] == "hierarchy-constructible" for e in tag.evidence)


def test_tabulated_flat_potential():
    tag = classify_tabulated(GridFunction(GRID, np.zeros(GRID.n_points)))
    assert tag.susy == NO


def test_tabulated_shallow_well():
    g = make_grid(-16.0, 16.0, 1601)
    tag = classify_tabulated(GridFunction(g, -2.0 / np.cosh(g.x) ** 2))
    assert tag.susy == YES


# -- graph text ----------------------------------------------------------------------


def test_graph_anchors_deepest_certain_set():
    deep = venn_graph_text(VennTag(YES, YES, YES, CERTIFIED))
    assert '"input" -- "factorizable"' in deep
    mid = venn_graph_text(VennTag(YES, YES, NO_WITHIN_SEARCH, CERTIFIED))
    assert '"input" -- "shape-invariant"' in mid
    shallow = venn_graph_text(VennTag(YES, NO_WITHIN_SEARCH, NO_WITHIN_SEARCH, UNKNOWN))
    assert '"input" -- "susy"' in shallow
    floating = venn_graph_text(VennTag(NO, UNKNOWN, UNKNOWN, UNKNOWN))
    assert "undetermined" in floating
    for text in (deep, mid, shallow, floating):
        assert text.startswith("graph venn {")
        assert text.rstrip().endswith("}")
        assert '"input" [shape=point];' in text


# -- bulk behavior over random families ----------------------------------------------


def test_random_polynomial_families_classify_consistently():
    """Seeded sweep over small polynomial superpotentials.

    Every case has a hand-derivable verdict: constants bind nothing,
    positive-slope lines are the oscillator ladder, negative slopes put the
    zero mode in the plus sector (the mirror guard must keep the search from
    "finding" the R = 0 flip), and anything with a cubic term has no flat
    residual inside the candidate spaces.
    """
    rng = np.random.default_rng(20250814)
    grid = make_grid(-10.0, 10.0, 501)
    for _ in range(100):
        shape = rng.integers(0, 4)
        if shape == 0:
            fam = SuperpotentialFamily.from_expression("c")
            a0 = {"c": float(rng.uniform(0.5, 3.0)) * (1 if rng.random() < 0.5 else -1)}
            expect = (NO, UNKNOWN, UNKNOWN, UNKNOWN)
        elif shape == 1:
            fam = SuperpotentialFamily.from_expression("a*x")
            a0 = {"a": float(rng.uniform(0.5, 2.0))}
            expect = (YES, YES, YES, CERTIFIED)
        elif shape == 2:
            fam = SuperpotentialFamily.from_expression("a*x")
            a0 = {"a": float(-rng.uniform(0.5, 2.0))}
            expect = (YES, NO_WITHIN_SEARCH, NO_WITHIN_SEARCH, UNKNOWN)
        else:
            fam = SuperpotentialFamily.from_expression("b*x + c*x^3")
            a0 = {"b": float(rng.uniform(-1.0, 1.0)),
                  "c": float(rng.uniform(0.25, 1.5)) * (1 if rng.random() < 0.5 else -1)}
            expect = (YES, NO_WITHIN_SEARCH, NO_WITHIN_SEARCH, UNKNOWN)
        tag = classify_family(fam, a0, grid, search_budget=5)
        got = (tag.susy, tag.shape_invariant, tag.ih_factorizable,
               tag.exactly_solvable)
        assert got == expect, f"shape={shape} a0={a0}: {got} != {expect}"


def test_ih_verdict_without_an_accepted_translation_is_no_within_search():
    # The paper's "SI but not IH" evidence path: a scaling passed, and the
    # search record holds no accepted translation.
    evidence = []
    assert classify_module._ih_verdict(Scaling(0.5), [], 33, evidence) == NO_WITHIN_SEARCH
    assert evidence == [{"kind": "translation-rescan", "found": False, "budget": 33}]
