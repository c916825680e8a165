import gc
import re
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import fraction_cf_select_weighted, pairwise_overlap_volume
from tauberian_lab import covering
from tauberian_lab.covering import (
    SelectionResult,
    box_to_grid_cube,
    cf_select_lebesgue,
    cf_select_weighted,
    minimal_cover_dilation,
    overlap2_select_1d,
    satellite_decompose,
    verify_selection_contract,
    vitali_select,
)
from tauberian_lab.errors import InvariantViolation, OrderingViolation, UnsupportedGeometry
from tauberian_lab.geometry import (
    Box,
    BoxFamily,
    check_dilation_identity,
    enlargement_excess,
    increments,
    sorted_decreasing,
    union_measure,
)
from tauberian_lab.sampling import random_family, random_grid_cube_family, rng_for
from tauberian_lab.weights import GridCube, GridWeight, WeightFamilySpec, generate_weight

F = Fraction


def interval(a, b):
    a, b = F(a), F(b)
    return Box(((a + b) / 2,), b - a)


def grid_cube_to_box(q: GridCube, n: int) -> Box:
    """The box of grid cube q on an n-cell grid over [0, 1)^d."""
    center = tuple(F(2 * c + q.side, 2 * n) for c in q.corner)
    return Box(center, F(q.side, n))


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


@st.composite
def overlapping_selections(draw):
    """(family, selection): boxes with corners and sides in halves of [0, 5], so
    selected boxes often overlap two and three deep, and any subset as selection."""
    dim = draw(st.integers(1, 3))
    boxes = []
    for _ in range(draw(st.integers(1, 7))):
        side = F(draw(st.integers(1, 6)), 2)
        lo = [F(draw(st.integers(0, 4)), 2) for _ in range(dim)]
        boxes.append(Box(tuple(c + side / 2 for c in lo), side))
    idx = draw(st.lists(st.integers(0, len(boxes) - 1), unique=True))
    return BoxFamily(boxes), tuple(idx)


@settings(max_examples=150)
@given(overlapping_selections())
@example((BoxFamily([interval(0, 2), interval(1, 3), interval(F(1, 2), 2)]), (0, 1, 2)))
def test_vitali_disjointness_defect_is_the_pairwise_overlap_sum(case):
    fam, idx = case
    res = SelectionResult("vitali", fam, idx)
    rep = verify_selection_contract(res)
    assert rep["selected-disjoint"]["defect"] == pairwise_overlap_volume(list(fam), idx)


def test_vitali_disjointness_defect_counts_a_triple_overlap_thrice():
    # [1, 2] lies in all three selected intervals, [1/2, 1] in two of them
    fam = BoxFamily([interval(0, 2), interval(1, 3), interval(F(1, 2), 2)])
    res = SelectionResult("vitali", fam, (0, 1, 2))
    assert verify_selection_contract(res)["selected-disjoint"] == {"pass": False,
                                                                  "defect": F(7, 2)}


def test_vitali_far_box_blamed_on_box_0_fails_cover():
    fam = BoxFamily([interval(0, 4), interval(3, 5), interval(10, 11)])
    res = vitali_select(fam)
    assert set(res.selected_indices) == {0, 2}
    blame = {"rule": "intersects-selected", "selected_index": 0}
    bad = replace(res, selected_indices=(0,), certificates={1: blame, 2: blame})
    rep = verify_selection_contract(bad)
    # [10, 11] lies outside 3 * [0, 4] = [-4, 8]
    assert rep["triple-dilate-cover"] == {"pass": False, "defect": 1}


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


def test_cf_weighted_rejects_an_increasing_list():
    w = generate_weight(WeightFamilySpec("constant", 1, 16))
    with pytest.raises(OrderingViolation,
                       match="selection requires a decreasing-sidelength family"):
        cf_select_weighted([interval(0, F(1, 8)), interval(0, F(1, 2))], w, F(1, 2))


def assert_ordered_operations_accept(boxes, w):
    """Every operation that needs nonincreasing sides takes boxes as they are,
    and agrees with its run on the same boxes as a sorted family."""
    fam = sorted_decreasing(boxes)
    assert list(fam) == list(boxes)
    for level in (F(1, 4), F(3, 4)):
        res = cf_select_lebesgue(boxes, level)
        assert res == cf_select_lebesgue(fam, level)
        assert verify_selection_contract(res)["all"]["pass"]
        res = cf_select_weighted(boxes, w, level)
        assert res == cf_select_weighted(fam, w, level)
        assert verify_selection_contract(res, w)["all"]["pass"]
    regions = increments(boxes)
    assert [r.measure() for r in regions] == [r.measure() for r in increments(fam)]
    assert sum((r.measure() for r in regions), F(0)) == union_measure(boxes)


def test_selections_feed_back_into_the_ordered_operations():
    # a selection lists its boxes in the order it visited them, by nonincreasing
    # side, so its `selected` needs no re-sorting before the next CF pass
    n = 16
    w = generate_weight(WeightFamilySpec("power", 2, n, a=1.0, x0=(0.3, 0.7)))
    rng = rng_for(41, "covering/reselect")
    for trial in range(12):
        boxes = list(random_grid_cube_family(rng, n, 2, int(rng.integers(2, 10))))
        rng.shuffle(boxes)
        assert_ordered_operations_accept(vitali_select(boxes).selected, w)
        fam = sorted_decreasing(boxes)
        for delta in (F(1, 8), F(1, 2)):
            assert_ordered_operations_accept(cf_select_lebesgue(fam, delta).selected, w)


def test_a_plain_list_of_decreasing_boxes_is_accepted():
    # sides 1/2, 1/4, 1/4, 1/8 on the 16-cell grid; ties keep their order
    boxes = [interval(0, F(1, 2)), interval(F(1, 4), F(1, 2)), interval(F(3, 8), F(5, 8)),
             interval(F(9, 16), F(11, 16))]
    assert_ordered_operations_accept(boxes, generate_weight(WeightFamilySpec("constant", 1, 16)))


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


def test_cf_lebesgue_empty_family():
    empty = BoxFamily([])
    res = cf_select_lebesgue(empty, F(1, 2))
    assert (res.selected_indices, res.certificates, res.increments) == ((), {}, {})
    assert verify_selection_contract(res)["all"]["pass"]


def test_increments_of_the_empty_family():
    assert increments(BoxFamily([])) == []


def test_every_family_operation_accepts_the_empty_family():
    empty = BoxFamily([])
    assert vitali_select(empty).selected_indices == ()
    assert satellite_decompose(empty) == {}
    assert enlargement_excess(empty, F(1, 2)) == 0
    assert check_dilation_identity(empty, F(1, 2)) == (True, 0)
    assert minimal_cover_dilation(empty, []) == 1
    assert union_measure(empty) == 0
    assert verify_selection_contract(overlap2_select_1d([]))["all"]["pass"]


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


def test_cf_weighted_rejected_cube_flipped_to_selected_fails():
    w = generate_weight(WeightFamilySpec("power", 2, 8, a=1.0))
    b = grid_cube_to_box(GridCube((2, 2), 4), 8)
    res = cf_select_weighted(sorted_decreasing([b, b]), w, F(1, 2))
    assert res.selected_indices == (0,)
    bad = replace(res, selected_indices=(0, 1), certificates={})
    rep = verify_selection_contract(bad, w)
    assert rep["selected-increments"] == {"pass": False, "defect": 0}


def test_cf_weighted_zero_mass_cube_flipped_to_rejected_fails():
    w = GridWeight(np.array([0.0, 1.0]))
    res = cf_select_weighted(sorted_decreasing([interval(0, F(1, 2))]), w, F(1, 2))
    assert res.selected_indices == (0,)
    bad = replace(res, selected_indices=(), certificates={0: {"rule": "weighted-overlap"}})
    rep = verify_selection_contract(bad, w)
    assert rep["rejected-replay"] == {"pass": False, "defect": 0}


def test_cf_weighted_decides_a_float_tie_exactly():
    # the second cube's mass 1 + (1 - 2^-53) rounds to 2.0, where a float test
    # keeps it at equality; exactly, its overlap 1 exceeds half its mass
    w = GridWeight(np.array([1.0, 1.0, 1 - 2**-53, 1.0]))
    fam = sorted_decreasing([interval(0, F(1, 2)), interval(F(1, 4), F(3, 4))])
    res = cf_select_weighted(fam, w, F(1, 2))
    assert res.selected_indices == (0,) and res.equality_acceptances == ()
    mass = 2 - F(1, 2**53)
    assert res.certificates == {1: {"rule": "weighted-overlap", "overlap_mass": 1.0,
                                    "fraction": float(1 / mass)}}
    assert verify_selection_contract(res, w)["all"]["pass"]


def test_cf_weighted_rejects_non_grid_boxes():
    w = generate_weight(WeightFamilySpec("constant", 1, 8))
    fam = sorted_decreasing([Box((F(1, 3),), F(1, 5))])
    with pytest.raises(UnsupportedGeometry):
        cf_select_weighted(fam, w, F(1, 2))


def test_cf_weighted_result_is_pinned():
    # exact decisions, and each float the correctly rounded value of an exact ratio
    w = generate_weight(WeightFamilySpec("power", 2, 16, a=1.0))
    fam = random_grid_cube_family(rng_for(41, "covering/cfw-pin"), 16, 2, 10)
    res = cf_select_weighted(fam, w, F(3, 4))
    assert res.selected_indices == (0, 2, 3, 4, 5, 7)
    assert res.equality_acceptances == ()
    # increments 3 and 4 were ...520766 and 0.0022381457221344906 under float sums
    assert res.increments == {
        0: 0.06118805226550965, 2: 0.02378424876230262, 3: 0.014768110548520768,
        4: 0.002238145722134491, 5: 0.012853963628161191, 7: 0.003970570304514305}
    assert res.certificates == {
        1: {"rule": "weighted-overlap", "overlap_mass": 0.007642797150442412,
            "fraction": 0.30100224078895554},
        6: {"rule": "weighted-overlap", "overlap_mass": 0.002612418769413171, "fraction": 1.0},
        8: {"rule": "weighted-overlap", "overlap_mass": 0.0020787825153718753, "fraction": 1.0},
        9: {"rule": "weighted-overlap", "overlap_mass": 0.0024717354408345443, "fraction": 1.0}}
    # the increments from Fraction sums over each cube's own cells
    cells = [covering._cube_slices(box_to_grid_cube(b, 16)) for b in fam]
    covered = np.zeros((16, 16), dtype=bool)
    for i in res.selected_indices:
        new = w.values[cells[i]][~covered[cells[i]]]
        assert res.increments[i] == float(sum(map(F, new.tolist()), F(0)))
        covered[cells[i]] = True
    assert verify_selection_contract(res, w)["all"]["pass"]


@st.composite
def grid_cube_families(draw):
    """(n, boxes): mostly cubes of the n-cell grid over [0, 1)^d; the rest have
    whole cells that may stick out of it, or corners and sides in thirds of a cell."""
    n, dim = draw(st.sampled_from([4, 8, 16])), draw(st.integers(1, 2))
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["inside", "inside", "inside", "any", "thirds"]))
        k = 3 if kind == "thirds" else 1
        side = draw(st.integers(1, k * n))
        lo = [draw(st.integers(0, n - side) if kind == "inside" else st.integers(-side, k * n))
              for _ in range(dim)]
        boxes.append(Box(tuple(F(2 * c + side, 2 * k * n) for c in lo), F(side, k * n)))
    return n, sorted_decreasing(boxes)


@settings(max_examples=300)
@given(grid_cube_families())
def test_weighted_slices_match_box_to_grid_cube(n_fam):
    n, fam = n_fam
    w = GridWeight(np.ones((n,) * fam.dim))
    try:
        expected = [covering._cube_slices(box_to_grid_cube(b, n)) for b in fam]
    except UnsupportedGeometry as err:
        for call in (lambda: covering._grid_cells(fam, n),
                     lambda: cf_select_weighted(fam, w, F(1, 2))):
            with pytest.raises(UnsupportedGeometry, match=f"^{re.escape(str(err))}$"):
                call()
    else:
        lo, hi = covering._grid_cells(fam, n)
        assert [tuple(map(slice, *c)) for c in zip(lo.tolist(), hi.tolist())] == expected


TIE_PRONE_MASSES = [1.0, 1 - 2**-53, 2**-53, 0.1, 3.0, 0.0]


@st.composite
def tie_prone_weighted_families(draw):
    """(w, family, xi): masses from TIE_PRONE_MASSES, cubes inside the grid."""
    n, dim = draw(st.sampled_from([2, 4, 8])), draw(st.integers(1, 2))
    values = np.array(draw(st.lists(st.sampled_from(TIE_PRONE_MASSES),
                                    min_size=n**dim, max_size=n**dim))).reshape((n,) * dim)
    assume(values.sum() > 0)
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        side = draw(st.integers(1, n))
        lo = [draw(st.integers(0, n - side)) for _ in range(dim)]
        boxes.append(Box(tuple(F(2 * c + side, 2 * n) for c in lo), F(side, n)))
    xi = draw(st.sampled_from([F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4)]))
    return GridWeight(values), sorted_decreasing(boxes), xi


@settings(max_examples=200)
@given(tie_prone_weighted_families())
def test_cf_weighted_equals_fraction_sums(case):
    w, fam, xi = case
    res = cf_select_weighted(fam, w, xi)
    assert res == fraction_cf_select_weighted(fam, w, xi)
    assert verify_selection_contract(res, w)["all"]["pass"]


@pytest.mark.parametrize("family_dim, weight_dim", [(1, 2), (2, 1)])
def test_cf_weighted_rejects_a_weight_of_another_dimension(family_dim, weight_dim):
    # unchecked, a 1-D family on a 2-D weight sums whole rows, and 2-D on 1-D fails to index
    fam = sorted_decreasing([Box((F(1, 8),) * family_dim, F(1, 4))])
    w = GridWeight(np.ones((8,) * weight_dim))
    with pytest.raises(ValueError, match="dimension mismatch"):
        cf_select_weighted(fam, w, F(1, 2))
    res = cf_select_weighted(fam, GridWeight(np.ones((8,) * family_dim)), F(1, 2))
    assert res.increments == {0: 2.0 ** family_dim}
    with pytest.raises(ValueError, match="dimension mismatch"):
        verify_selection_contract(res, w)


def test_weighted_verification_needs_the_weight():
    w = GridWeight(np.ones(8))
    res = cf_select_weighted([interval(0, F(1, 4))], w, F(1, 2))
    with pytest.raises(ValueError, match="weighted contract verification needs the weight"):
        verify_selection_contract(res)


# -- the weighted selector's delta-free stage, remembered on the family ----------


def memo_entries(fam, before):
    return [v for k, v in vars(fam).items() if k not in before]


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
def test_cf_weighted_memo_interleaved_weights(seed, dim):
    # a delta ladder in which weights A and B of one resolution and C of a
    # finer one take turns in the family's one entry; every result equals the
    # run on a fresh family, which has nothing remembered
    rng = rng_for(seed, "covering/cfw-memo")
    fam = random_grid_cube_family(rng, 8, dim, int(rng.integers(1, 10)))
    a, b, c = (GridWeight(rng.random((n,) * dim) + 0.01) for n in (8, 8, 16))
    fam._volumes
    before = set(vars(fam))
    last, stages = None, {}
    for delta in (F(1, 8), F(1, 4), F(1, 2), F(3, 4), F(7, 8)):
        for w in (a, a, b, a, c):
            res = cf_select_weighted(fam, w, delta)
            assert res == cf_select_weighted(BoxFamily(fam.boxes), w, delta)
            assert verify_selection_contract(res, w)["all"]["pass"]
            ((key, stage),) = memo_entries(fam, before)
            assert key() is w
            # kept on a repeat; after another weight's call, built anew
            assert (stage is stages.get(w)) == (w is last)
            last, stages[w] = w, stage


def test_cf_weighted_memo_remembers_no_failed_stage():
    # the third box is off the 8-cell grid, so every call raises and none is cached
    fam = sorted_decreasing([interval(0, F(1, 2)), interval(F(1, 4), F(1, 2)),
                             interval(F(1, 24), F(1, 6))])
    fam._volumes
    before = set(vars(fam))
    for delta in (F(1, 4), F(1, 2)):
        with pytest.raises(UnsupportedGeometry, match="box corner is not grid-aligned"):
            cf_select_weighted(fam, GridWeight(np.ones(8)), delta)
        assert memo_entries(fam, before) == []
    res = cf_select_weighted(fam, GridWeight(np.ones(24)), F(1, 2))
    assert res == cf_select_weighted(BoxFamily(fam.boxes), GridWeight(np.ones(24)), F(1, 2))


def test_cf_weighted_memo_keeps_no_weight_alive():
    # the entry holds a weak reference, so a weight dropped after the call is
    # freed with its exact tables, and a new weight is not served its stage
    rng = rng_for(3, "covering/cfw-weakref")
    fam = random_grid_cube_family(rng, 8, 2, 6)
    fam._volumes
    before = set(vars(fam))
    w = GridWeight(rng.random((8, 8)) + 0.01)
    w.exact
    cf_select_weighted(fam, w, F(1, 2))
    gone = weakref.ref(w)
    del w
    gc.collect()
    assert gone() is None
    ((key, _),) = memo_entries(fam, before)
    assert key() is None
    v = GridWeight(rng.random((8, 8)) + 0.01)
    assert cf_select_weighted(fam, v, F(1, 2)) == cf_select_weighted(BoxFamily(fam.boxes), v, F(1, 2))
    ((key, _),) = memo_entries(fam, before)
    assert key() is v


def test_grid_cube_box_roundtrip():
    q = GridCube((3, 5), 2)
    b = grid_cube_to_box(q, 8)
    assert box_to_grid_cube(b, 8) == q


@pytest.mark.parametrize("boxes, message", [
    # a grid cube, the first bad box, then boxes that fail the other checks
    ([interval(F(1, 8), F(1, 4)), interval(F(1, 32), F(5, 32)), interval(F(1, 8), F(5, 16)),
      interval(-F(1, 8), 0)], "box corner is not grid-aligned"),
    ([interval(0, 1), interval(F(1, 8), F(5, 16)), interval(F(1, 32), F(5, 32))],
     "box side is not a whole number of cells"),
    ([interval(0, F(1, 8)), interval(F(7, 8), F(9, 8)), interval(F(1, 32), F(5, 32)),
      interval(F(1, 8), F(5, 16))], "box escapes the grid domain"),
    # 2-D: only the second axis of the first bad box is off the grid
    ([Box((F(1, 8), F(1, 8)), F(1, 4)), Box((F(3, 16), F(1, 8)), F(1, 8)),
      Box((F(1), F(1, 8)), F(1, 4))], "box corner is not grid-aligned"),
])
def test_grid_cells_raise_the_first_rejected_boxs_error(boxes, message):
    fam = BoxFamily(boxes)
    with pytest.raises(UnsupportedGeometry, match=f"^{re.escape(message)}$"):
        covering._grid_cells(fam, 8)
    with pytest.raises(UnsupportedGeometry, match=f"^{re.escape(message)}$"):
        box_to_grid_cube(boxes[1], 8)


@pytest.mark.parametrize("center", [F(-1, 16), F(17, 16)])
def test_box_outside_the_grid_domain_is_unsupported(center):
    with pytest.raises(UnsupportedGeometry, match="escapes the grid domain"):
        box_to_grid_cube(Box((center,), F(1, 8)), 8)


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


def test_satellite_group_invariant_raises():
    # groups are formed from the same integer corners the check reads, so only
    # a false "every pair meets" can put a disjoint box in a group
    fam = BoxFamily([interval(0, 4), interval(5, 6)])
    fam.__dict__["_meets"] = np.ones((2, 2), dtype=bool)
    with pytest.raises(InvariantViolation, match="satellite configuration"):
        satellite_decompose(fam)


# -- overlap-2 ---------------------------------------------------------------------


def test_overlap2_single():
    res = overlap2_select_1d([interval(0, 1)])
    assert res.selected_indices == (0,)


def test_overlap2_middle_redundant():
    res = overlap2_select_1d([interval(0, 2), interval(1, 3), interval(2, 4)])
    assert set(res.selected_indices) == {0, 2}
    rep = verify_selection_contract(res)
    assert rep["all"]["pass"]


def test_overlap2_duplicates_collapse():
    res = overlap2_select_1d([interval(0, 1)] * 5)
    assert len(res.selected_indices) == 1


def test_overlap2_random_contract():
    rng = rng_for(31, "covering/overlap2")
    for _ in range(60):
        count = int(rng.integers(1, 12))
        ivs = []
        for _ in range(count):
            a = F(int(rng.integers(0, 64)), 16)
            b = a + F(int(rng.integers(1, 33)), 16)
            ivs.append(interval(a, b))
        res = overlap2_select_1d(ivs)
        rep = verify_selection_contract(res)
        assert rep["all"]["pass"], rep


def test_overlap2_rejects_a_2d_box():
    with pytest.raises(UnsupportedGeometry, match="overlap-2 selection is one-dimensional"):
        overlap2_select_1d([Box((0, 0), 1)])


def test_overlap2_tampered_union_fails():
    res = overlap2_select_1d([interval(0, 2), interval(3, 4)])
    bad = replace(res, selected_indices=(0,),
                  certificates={1: {"rule": "covered", "end": F(2)}})
    rep = verify_selection_contract(bad)
    assert not rep["union-preserved"]["pass"]
    assert rep["union-preserved"]["defect"] == 1


def test_overlap2_three_deep_fails():
    res = overlap2_select_1d([interval(0, 3), interval(1, 4), interval(2, 5)])
    assert res.selected_indices == (0, 2)
    bad = replace(res, selected_indices=(0, 1, 2), certificates={})
    rep = verify_selection_contract(bad)
    assert rep["interior-overlap-at-most-2"] == {"pass": False, "defect": 3}


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


def test_minimal_cover_dilation_rejects_a_selection_of_another_dimension():
    with pytest.raises(ValueError, match="dimension mismatch"):
        minimal_cover_dilation([interval(0, 1)], [Box((0, 0), 1)])


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
