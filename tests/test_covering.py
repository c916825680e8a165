from dataclasses import replace
from fractions import Fraction

import pytest

from tauberian_lab import covering
from tauberian_lab.covering import (
    SelectionResult,
    box_to_grid_cube,
    cf_select_lebesgue,
    cf_select_weighted,
    grid_cube_to_box,
    minimal_cover_dilation,
    overlap2_select_1d,
    satellite_decompose,
    verify_selection_contract,
    vitali_select,
)
from tauberian_lab.errors import InvariantViolation, OrderingViolation, UnsupportedGeometry
from tauberian_lab.geometry import Box, BoxFamily, sorted_decreasing, union_measure
from tauberian_lab.sampling import random_family, random_grid_cube_family, rng_for
from tauberian_lab.weights import GridCube, WeightFamilySpec, generate_weight

F = Fraction


def interval(a, b):
    a, b = F(a), F(b)
    return Box(((a + b) / 2,), b - a)


# -- vitali -------------------------------------------------------------------


def test_vitali_disjoint_all_selected():
    fam = BoxFamily([interval(0, 1), interval(2, 3), interval(5, 6)])
    res = vitali_select(fam)
    assert set(res.selected_indices) == {0, 1, 2}
    assert not res.certificates


def test_vitali_greedy_trace():
    fam = BoxFamily([interval(0, 4), interval(3, 5), interval(10, 11)])
    res = vitali_select(fam)
    assert set(res.selected_indices) == {0, 2}
    assert res.certificates[1]["selected_index"] == 0


def test_vitali_nested_keeps_largest():
    fam = BoxFamily([interval(0, 8), interval(1, 5), interval(2, 4)])
    res = vitali_select(fam)
    assert res.selected_indices == (0,)


def test_vitali_contract_random():
    rng = rng_for(13, "covering/vitali")
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        fam = random_family(rng, dim, int(rng.integers(1, 9)), decreasing=False)
        rep = verify_selection_contract(vitali_select(fam))
        assert rep["all"]["pass"], rep


def test_vitali_tampered_disjointness_fails():
    fam = BoxFamily([interval(0, 4), interval(3, 5), interval(10, 11)])
    res = vitali_select(fam)
    bad = replace(res, selected_indices=(0, 1, 2), certificates={})
    rep = verify_selection_contract(bad)
    assert not rep["selected-disjoint"]["pass"]
    assert rep["selected-disjoint"]["defect"] > 0


# -- CF Lebesgue ----------------------------------------------------------------


def test_cf_lebesgue_disjoint_all_selected():
    fam = sorted_decreasing([interval(0, 1), interval(2, 3), interval(5, 6)])
    res = cf_select_lebesgue(fam, F(1, 4))
    assert len(res.selected_indices) == 3


def test_cf_lebesgue_duplicate_rejected():
    fam = sorted_decreasing([interval(0, 1), interval(0, 1)])
    res = cf_select_lebesgue(fam, F(1, 4))
    assert res.selected_indices == (0,)
    assert res.certificates[1]["fraction"] == 1


def test_cf_lebesgue_greedy_trace():
    fam = sorted_decreasing([interval(0, 1), interval(F(1, 2), F(3, 2)),
                             interval(1, 2)])
    res = cf_select_lebesgue(fam, F(3, 5))
    sel = {tuple(fam[i].lo) for i in res.selected_indices}
    assert sel == {(F(0),), (F(1),)}


def test_cf_lebesgue_requires_order():
    fam = BoxFamily([interval(0, 1), interval(0, 4)])
    with pytest.raises(OrderingViolation):
        cf_select_lebesgue(fam, F(1, 2))


def test_cf_lebesgue_contract_random():
    rng = rng_for(17, "covering/cf")
    for trial in range(50):
        dim = int(rng.integers(1, 3))
        fam = random_family(rng, dim, int(rng.integers(1, 9)))
        delta = [F(1, 4), F(1, 2), F(3, 4)][trial % 3]
        res = cf_select_lebesgue(fam, delta)
        rep = verify_selection_contract(res)
        assert rep["all"]["pass"], rep


def test_cf_lebesgue_tampered_increment_fails():
    fam = sorted_decreasing([interval(0, 1), interval(F(1, 2), F(3, 2))])
    res = cf_select_lebesgue(fam, F(3, 4))
    assert res.selected_indices == (0,)
    bad = replace(res, selected_indices=(0, 1), certificates={})
    rep = verify_selection_contract(bad)
    assert not rep["selected-increments"]["pass"]


# -- CF weighted ------------------------------------------------------------------


def test_cf_weighted_constant_matches_lebesgue():
    w = generate_weight(WeightFamilySpec("constant", 1, 16))
    rng = rng_for(19, "covering/cfw")
    for trial in range(60):
        fam = random_grid_cube_family(rng, 16, 1, int(rng.integers(1, 9)))
        xi = [F(1, 2), F(1, 4), F(3, 8)][trial % 3]
        rw = cf_select_weighted(fam, w, xi)
        rl = cf_select_lebesgue(fam, xi)
        assert rw.selected_indices == rl.selected_indices


def test_cf_weighted_duplicate_rejected():
    w = generate_weight(WeightFamilySpec("constant", 2, 8))
    b = grid_cube_to_box(GridCube((2, 2), 4), 8)
    fam = sorted_decreasing([b, b])
    res = cf_select_weighted(fam, w, F(1, 2))
    assert res.selected_indices == (0,)


def test_cf_weighted_contract_random():
    w = generate_weight(WeightFamilySpec("power", 1, 16, a=2.0))
    rng = rng_for(23, "covering/cfw-contract")
    for trial in range(40):
        fam = random_grid_cube_family(rng, 16, 1, int(rng.integers(1, 9)))
        res = cf_select_weighted(fam, w, F(1, 2))
        rep = verify_selection_contract(res, w)
        assert rep["all"]["pass"], rep


def test_cf_weighted_rejects_non_grid_boxes():
    w = generate_weight(WeightFamilySpec("constant", 1, 8))
    fam = sorted_decreasing([Box((F(1, 3),), F(1, 5))])
    with pytest.raises(UnsupportedGeometry):
        cf_select_weighted(fam, w, F(1, 2))


def test_grid_cube_box_roundtrip():
    q = GridCube((3, 5), 2)
    b = grid_cube_to_box(q, 8)
    assert box_to_grid_cube(b, 8) == q


# -- satellite decomposition -------------------------------------------------------


def test_satellite_disjoint_singletons():
    fam = BoxFamily([interval(0, 1), interval(2, 3)])
    groups = satellite_decompose(fam)
    assert groups == {0: [0], 1: [1]}


def test_satellite_example_groups():
    fam = BoxFamily([interval(0, 4), interval(3, 5), interval(10, 11)])
    groups = satellite_decompose(fam)
    assert groups == {0: [0, 1], 2: [2]}


def test_satellite_nested_single_center():
    fam = BoxFamily([interval(0, 8), interval(1, 5), interval(2, 4)])
    groups = satellite_decompose(fam)
    assert groups == {0: [0, 1, 2]}


def test_satellite_union_preserved_random():
    rng = rng_for(29, "covering/satellite")
    for _ in range(30):
        dim = int(rng.integers(1, 3))
        fam = random_family(rng, dim, int(rng.integers(1, 8)), decreasing=False)
        groups = satellite_decompose(fam)
        assert set().union(*groups.values()) == set(range(len(fam)))
        cover = union_measure([fam[i] for g in groups.values() for i in g])
        assert cover == union_measure(fam)


def test_satellite_group_invariant_raises(monkeypatch):
    monkeypatch.setattr(covering, "is_satellite", lambda fam, center_index=0: False)
    with pytest.raises(InvariantViolation, match="satellite configuration"):
        satellite_decompose(BoxFamily([interval(0, 4), interval(3, 5)]))


# -- overlap-2 ---------------------------------------------------------------------


def test_overlap2_single():
    res = overlap2_select_1d([(0, 1)])
    assert res.selected_indices == (0,)


def test_overlap2_middle_redundant():
    res = overlap2_select_1d([(0, 2), (1, 3), (2, 4)])
    assert set(res.selected_indices) == {0, 2}
    rep = verify_selection_contract(res)
    assert rep["all"]["pass"]


def test_overlap2_duplicates_collapse():
    res = overlap2_select_1d([(0, 1)] * 5)
    assert len(res.selected_indices) == 1


def test_overlap2_random_contract():
    rng = rng_for(31, "covering/overlap2")
    for _ in range(60):
        count = int(rng.integers(1, 12))
        ivs = []
        for _ in range(count):
            a = F(int(rng.integers(0, 64)), 16)
            b = a + F(int(rng.integers(1, 33)), 16)
            ivs.append((a, b))
        res = overlap2_select_1d(ivs)
        rep = verify_selection_contract(res)
        assert rep["all"]["pass"], rep


def test_overlap2_tampered_union_fails():
    res = overlap2_select_1d([(0, 2), (3, 4)])
    bad = replace(res, selected_indices=(0,),
                  certificates={1: {"rule": "covered", "end": F(2)}})
    rep = verify_selection_contract(bad)
    assert not rep["union-preserved"]["pass"]


# -- dilation cover measurement -------------------------------------------------


def test_minimal_cover_dilation_vitali():
    rng = rng_for(37, "covering/dilation")
    for _ in range(20):
        fam = random_family(rng, int(rng.integers(1, 3)), 6, decreasing=False)
        res = vitali_select(fam)
        t = minimal_cover_dilation(fam, list(res.selected))
        assert t <= 3


def test_minimal_cover_dilation_without_selected_boxes_raises():
    fam = [interval(0, 1), interval(2, 3)]
    with pytest.raises(ValueError, match="no candidate dilation factor covers the family"):
        minimal_cover_dilation(fam, [])
    with pytest.raises(ValueError, match="no candidate dilation factor covers the family"):
        minimal_cover_dilation(fam, fam, candidates=[])


def test_minimal_cover_dilation_rejects_nonpositive_candidates():
    with pytest.raises(ValueError, match="positive"):
        minimal_cover_dilation([interval(0, 1)], [interval(0, 1)], [F(0), F(1)])


# -- the verifier compares stored numbers -----------------------------------------


def _cf_with_rejection():
    fam = sorted_decreasing([interval(0, 2), interval(F(1, 2), F(3, 2)), interval(3, 4)])
    res = cf_select_lebesgue(fam, F(1, 2))
    assert res.selected_indices == (0, 2) and set(res.certificates) == {1}
    assert verify_selection_contract(res)["all"]["pass"]
    return res


def test_cf_lebesgue_tampered_increment_values_fail():
    res = _cf_with_rejection()
    bad = replace(res, increments={i: v + 5 for i, v in res.increments.items()})
    rep = verify_selection_contract(bad)
    assert not rep["selected-increments"]["pass"] and not rep["all"]["pass"]


@pytest.mark.parametrize("key", ["overlap", "fraction"])
def test_cf_lebesgue_tampered_certificate_fails(key):
    res = _cf_with_rejection()
    cert = dict(res.certificates[1])
    cert[key] = cert[key] / 2
    bad = replace(res, certificates={1: cert})
    rep = verify_selection_contract(bad)
    assert not rep["rejected-replay"]["pass"] and not rep["all"]["pass"]
