import json

import pytest

from susyqm import (CatalogError, SusyPhase, catalog_dump, closed_form_spectrum,
                    get_record, instantiate, list_catalog, make_grid,
                    merged_params, record_grid, si_residual, solve_potential,
                    susy_phase)

TRANSLATIONAL = ["shifted-harmonic", "morse", "poschl-teller", "coulomb-radial"]


def test_catalog_names_and_order():
    assert list_catalog() == TRANSLATIONAL + ["scaling-demo", "cyclic-demo"]


def test_get_record_unknown():
    with pytest.raises(CatalogError):
        get_record("hydrogen")


def test_record_grid_pinned():
    g = record_grid(get_record("morse"))
    assert (g.x_min, g.x_max, g.n_points) == (-3.5, 10.0, 2701)
    with pytest.raises(CatalogError):
        record_grid(get_record("scaling-demo"))


def test_merged_params():
    rec = get_record("poschl-teller")
    assert merged_params(rec, None) == {"A": 2.0}
    assert merged_params(rec, {"A": 5.0}) == {"A": 5.0}
    with pytest.raises(CatalogError):
        merged_params(rec, {"B": 1.0})
    with pytest.raises(CatalogError, match=r"parameters \['A'\] are not real numbers"):
        merged_params(rec, {"A": "2"})


@pytest.mark.parametrize("name", TRANSLATIONAL)
def test_declared_transform_passes_residual(name):
    rec = get_record(name)
    a0 = merged_params(rec, None)
    rep = si_residual(rec.family, a0, rec.transform, record_grid(rec))
    assert rep.passed
    # The measured R must agree with the closed form at the stepped params.
    a1 = rec.transform.apply(a0)
    assert rep.residual_mean == pytest.approx(rec.r_function(a1), abs=1e-8)


@pytest.mark.parametrize("name", TRANSLATIONAL)
def test_records_sit_in_the_unbroken_phase(name):
    rec = get_record(name)
    assert susy_phase(rec.family, merged_params(rec, None), record_grid(rec)) \
        is SusyPhase.UNBROKEN_MINUS


def test_closed_form_shifted_harmonic():
    spec = closed_form_spectrum("shifted-harmonic", None, 4)
    assert spec.energies == [0.0, 2.0, 4.0, 6.0, 8.0]
    assert all(e.valid for e in spec.entries)
    assert not spec.truncated


def test_closed_form_morse_flags_and_truncates():
    spec = closed_form_spectrum("morse", None, 5)
    assert [e.n for e in spec.entries] == [0, 1, 2]
    assert spec.energies == pytest.approx([0.0, 3.0, 4.0])
    # Level 2 sits at A = 0: the recursion still sums it but it is not bound.
    assert [e.valid for e in spec.entries] == [True, True, False]
    assert spec.truncated


def test_closed_form_coulomb_rydberg_ladder():
    spec = closed_form_spectrum("coulomb-radial", None, 3)
    for e in spec.entries:
        assert e.energy == pytest.approx(1.0 - 1.0 / (e.n + 1) ** 2, abs=1e-12)


def test_closed_form_scaling_demo():
    spec = closed_form_spectrum("scaling-demo", None, 3)
    assert spec.energies == pytest.approx([0.0, 0.5, 0.75, 0.875])


def test_closed_form_cyclic_demo():
    spec = closed_form_spectrum("cyclic-demo", None, 5)
    assert spec.energies == pytest.approx([0.0, 1.0, 3.0, 4.0, 6.0, 7.0])


def test_closed_form_rejects_invalid_base_point():
    with pytest.raises(CatalogError):
        closed_form_spectrum("morse", {"A": -1.0}, 2)


@pytest.mark.parametrize("name,k", [("shifted-harmonic", 4), ("morse", 2),
                                    ("poschl-teller", 2)])
def test_closed_form_matches_oracle(name, k):
    rec = get_record(name)
    pair, _ = instantiate(name, None, record_grid(rec))
    oracle = solve_potential(pair.v_minus, k)
    spec = closed_form_spectrum(name, None, k - 1)
    for e in spec.entries[:k]:
        assert oracle[e.n].energy == pytest.approx(e.energy, abs=5e-3)


def test_instantiate_returns_partners_and_w():
    rec = get_record("poschl-teller")
    grid = record_grid(rec)
    pair, w = instantiate("poschl-teller", {"A": 3.0}, grid)
    assert w.values[-1] == pytest.approx(3.0, abs=1e-7)  # tanh(10) ≈ 1 - 4e-9
    assert pair.v_minus.values[-1] == pytest.approx(9.0, abs=1e-6)


def test_instantiate_guards():
    with pytest.raises(CatalogError):
        instantiate("scaling-demo", None, make_grid(-1.0, 1.0, 11))
    with pytest.raises(CatalogError):
        instantiate("coulomb-radial", None, make_grid(0.0, 10.0, 101))


def test_catalog_dump_is_json_ready():
    dump = catalog_dump()
    json.dumps(dump)
    assert [d["name"] for d in dump] == list_catalog()
    by_name = {d["name"]: d for d in dump}
    assert by_name["morse"]["expression"] == "A - exp(-x)"
    assert by_name["scaling-demo"]["expression"] is None
    assert by_name["cyclic-demo"]["transform"]["period"] == 2
    assert by_name["coulomb-radial"]["min_x"] == 1e-3
