"""The compressed-grid box geometry against the pairwise fragment engine it
replaced, the dilation identity against its all-pairs grid, and Vitali and
the satellite grouping against their pairwise `Box.intersects` loops (all in
`tests/oracles.py`), also on families whose integers pass int64; the
integer rows a selection hands over, what a family keeps after the
benchmark's sequence, its dimension guards, and the contract that the
benchmark's tracer wraps."""

import gc
import re
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    chain_overlap2_select_1d,
    frag_cf_select_lebesgue,
    frag_enlargement_excess,
    frag_identity_defect,
    frag_increments,
    frag_minimal_cover_dilation,
    full_grid_dilation_identity,
    pairwise_satellite_decompose,
    pairwise_vitali_select,
)
from tauberian_lab.covering import (
    _DILATION_LADDER,
    _cube_slices,
    _grid_cells,
    box_to_grid_cube,
    cf_select_lebesgue,
    minimal_cover_dilation,
    overlap2_select_1d,
    satellite_decompose,
    verify_selection_contract,
    vitali_select,
)
from tauberian_lab.errors import UnsupportedGeometry
from tauberian_lab.geometry import (
    Box,
    BoxFamily,
    BoxRegion,
    _Grid,
    check_dilation_identity,
    dilate,
    enlargement_excess,
    increments,
    sorted_decreasing,
    union_measure,
)
from tauberian_lab.sampling import random_family, random_grid_cube_family, rng_for
from tauberian_lab.weights import WeightFamilySpec, generate_weight

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

F = Fraction

# dyadic and non-dyadic denominators, so families need a common scale
DENOMS = st.sampled_from([1, 2, 4, 8, 3, 5, 7])


@st.composite
def box_lists(draw, max_boxes=8, dim=None):
    dim = dim or draw(st.integers(1, 3))
    boxes = []
    for _ in range(draw(st.integers(1, max_boxes))):
        den = draw(DENOMS)
        center = tuple(F(draw(st.integers(-3 * den, 3 * den)), den) for _ in range(dim))
        side_den = draw(DENOMS)
        boxes.append(Box(center, F(draw(st.integers(1, 3 * side_den)), side_den)))
    return boxes


@st.composite
def crowded_families(draw):
    """Up to 16 boxes in 2-D or 12 in 3-D, the benchmark's family sizes, with
    centres in [0, 4]^d and sides up to 2, so that most pairs meet; in list
    order (nonzero identity defects) or sorted by nonincreasing side."""
    dim = draw(st.integers(2, 3))
    boxes = []
    for _ in range(draw(st.integers(1, 16 if dim == 2 else 12))):
        den, side_den = draw(DENOMS), draw(DENOMS)
        center = tuple(F(draw(st.integers(0, 4 * den)), den) for _ in range(dim))
        boxes.append(Box(center, F(draw(st.integers(1, 2 * side_den)), side_den)))
    return list(sorted_decreasing(boxes)) if draw(st.booleans()) else boxes


@st.composite
def lattice_box_lists(draw, max_boxes=8, dim=None):
    """Boxes with integer corners in [0, 6]: faces and corners often touch."""
    dim = dim or draw(st.integers(1, 3))
    boxes = []
    for _ in range(draw(st.integers(1, max_boxes))):
        side = draw(st.integers(1, 3))
        corner = [draw(st.integers(0, 6 - side)) for _ in range(dim)]
        boxes.append(Box(tuple(F(2 * c + side, 2) for c in corner), side))
    return boxes


@st.composite
def fractions_in_01(draw):
    q = draw(st.integers(2, 9))
    return F(draw(st.integers(1, q - 1)), q)


# denominators on both sides of the int64 rule `geometry._fit`: unit corners
# at 2^19 + 1 put (2m)^3 near 2^62, and 2^61 and 3^40 put the scale near or past it
HUGE_DENOMS = st.sampled_from([1, 3, 2**19 + 1, 2**40, 2**61, 3**40])


@st.composite
def huge_box_lists(draw, max_boxes=4, dim=None):
    """Boxes placed as box_lists places them, on HUGE_DENOMS, and moved by
    x -> base + unit x with |base| up to 2^40 and unit up to 2^38, so that
    corners reach 2^41 and boxes still meet and nest.  A family draws from
    at most 3 of the denominators, and base and unit are often small, so that
    the int64 side is drawn too."""
    dim = dim or draw(st.integers(1, 3))
    denoms = st.sampled_from(draw(st.lists(HUGE_DENOMS, min_size=1, max_size=3)))
    base = [F(draw(st.integers(-8, 8) | st.integers(-2**40, 2**40)), draw(denoms))
            for _ in range(dim)]
    unit = F(draw(st.integers(1, 8) | st.integers(1, 2**38)), draw(denoms))
    boxes = []
    for _ in range(draw(st.integers(1, max_boxes))):
        den, side_den = draw(denoms), draw(denoms)
        center = tuple(b + unit * F(draw(st.integers(-3 * den, 3 * den)), den) for b in base)
        boxes.append(Box(center, unit * F(draw(st.integers(1, 3 * side_den)), side_den)))
    return boxes


@st.composite
def interval_lists(draw):
    """Lattice, rational or huge intervals, so ends touch, nest and pass 2^63
    at the common scale, with repeats of drawn intervals, shuffled."""
    boxes = draw(st.one_of(lattice_box_lists(12, 1), box_lists(12, 1), huge_box_lists(8, 1)))
    boxes += draw(st.lists(st.sampled_from(boxes), max_size=4))
    return draw(st.permutations(boxes))


@st.composite
def huge_fractions(draw, below_one=False):
    """p/q with p and q up to 2^60; below 1 when asked."""
    q = draw(st.integers(2 if below_one else 1, 2**60))
    return F(draw(st.integers(1, q - 1 if below_one else 2**60)), q)


# -- differential properties --------------------------------------------------


@settings(max_examples=150)
@given(box_lists(), fractions_in_01())
def test_enlargement_excess_matches_fragment_engine(boxes, delta):
    assert enlargement_excess(boxes, delta) == frag_enlargement_excess(boxes, delta)


@settings(max_examples=150)
@given(box_lists(), fractions_in_01(), st.booleans())
def test_identity_defect_matches_fragment_engine(boxes, delta, ordered):
    # unordered families have a nonzero defect in general
    if ordered:
        boxes = list(sorted_decreasing(boxes))
    res = check_dilation_identity(boxes, delta)
    expected = frag_identity_defect(boxes, delta)
    assert res.defect == expected
    assert res.holds == (expected == 0)
    if ordered:
        assert res.holds


@settings(max_examples=80)
@given(crowded_families(), fractions_in_01())
def test_identity_matches_full_grid_sweep(boxes, delta):
    assert check_dilation_identity(boxes, delta) == full_grid_dilation_identity(boxes, delta)


def test_identity_defect_nonzero_on_an_unordered_family():
    boxes = [Box((F(1, 3), F(0)), F(1, 5)), Box((F(0), F(1, 7)), 2)]
    defect = check_dilation_identity(boxes, F(2, 3)).defect
    assert defect > 0 and defect == frag_identity_defect(boxes, F(2, 3))


@settings(max_examples=150)
@given(box_lists())
def test_increment_measures_match_fragment_engine(boxes):
    fam = sorted_decreasing(boxes)
    got = [e.measure() for e in increments(fam)]
    assert got == [e.measure(fam.dim) for e in frag_increments(list(fam))]


@settings(max_examples=150)
@given(box_lists(), fractions_in_01())
def test_cf_lebesgue_matches_fragment_engine(boxes, delta):
    fam = sorted_decreasing(boxes)
    assert cf_select_lebesgue(fam, delta) == frag_cf_select_lebesgue(fam, delta)


@settings(max_examples=300)
@given(st.one_of(box_lists(), lattice_box_lists()), st.data())
def test_cover_dilation_bisection_matches_linear_scan(boxes, data):
    # the selection: a Vitali prefix, any subset of the family plus boxes from
    # outside it, or small boxes centred on the corners of a subset, which
    # reach every corner long before they cover the family; lattice families
    # put corners on the dilates' faces
    how = data.draw(st.sampled_from(["vitali", "subset", "corners"]))
    keep = data.draw(st.lists(st.booleans(), min_size=len(boxes), max_size=len(boxes)))
    chosen = [b for b, k in zip(boxes, keep) if k]
    if how == "vitali":
        selected = list(vitali_select(boxes).selected)[:max(1, len(boxes) // 2)]
    elif how == "subset":
        dim = boxes[0].dim
        selected = chosen + data.draw(st.one_of(box_lists(3, dim), lattice_box_lists(3, dim),
                                                st.just([])))
    else:
        m = data.draw(st.integers(2, 4))
        selected = [Box(c, b.side / m) for b in chosen for c in product(*zip(b.lo, b.hi))]
    try:
        expected = frag_minimal_cover_dilation(boxes, selected, _DILATION_LADDER)
    except ValueError:
        with pytest.raises(ValueError, match="no candidate dilation factor covers the family"):
            minimal_cover_dilation(boxes, selected)
    else:
        assert minimal_cover_dilation(boxes, selected) == expected


@settings(max_examples=300)
@given(st.just([]) | interval_lists())
def test_overlap2_scan_matches_the_chain_loops(boxes):
    res, expected = overlap2_select_1d(boxes), chain_overlap2_select_1d(boxes)
    assert res.selected_indices == expected.selected_indices
    assert res.certificates == expected.certificates


@settings(max_examples=150)
@given(st.one_of(box_lists(), lattice_box_lists()))
def test_vitali_and_satellites_match_pairwise_loops(boxes):
    assert vitali_select(boxes) == pairwise_vitali_select(boxes)
    assert satellite_decompose(boxes) == pairwise_satellite_decompose(boxes)


@settings(max_examples=150)
@given(huge_box_lists(), huge_fractions(below_one=True), huge_fractions(),
       st.sampled_from([1, 3, 2**20, 2**61]))
def test_huge_families_match_the_oracles(boxes, delta, t, n):
    fam = sorted_decreasing(boxes)
    assert enlargement_excess(boxes, delta) == frag_enlargement_excess(boxes, delta)
    assert check_dilation_identity(boxes, t).defect == frag_identity_defect(boxes, t)
    cf = cf_select_lebesgue(fam, delta)
    assert cf == frag_cf_select_lebesgue(fam, delta)
    vit = vitali_select(boxes)
    assert vit == pairwise_vitali_select(boxes)
    assert satellite_decompose(boxes) == pairwise_satellite_decompose(boxes)
    for res in (cf, vit):
        assert verify_selection_contract(res)["all"]["pass"]
    # triple dilates of a Vitali selection cover, and 3 is on the ladder
    assert (minimal_cover_dilation(boxes, vit.selected)
            == frag_minimal_cover_dilation(boxes, list(vit.selected), _DILATION_LADDER))
    # a selection on a scale of its own is joined with the family's on their lcm
    moved = BoxFamily(dilate(b, t) for b in vit.selected)
    assert cover_or_error(boxes, moved) == oracle_cover_or_error(boxes, moved)
    for empty in ([], vit.input._rows([])):
        with pytest.raises(ValueError, match="no candidate dilation factor covers the family"):
            minimal_cover_dilation(boxes, empty)
    try:
        expected = [_cube_slices(box_to_grid_cube(b, n)) for b in fam]
    except UnsupportedGeometry as err:
        with pytest.raises(UnsupportedGeometry, match=f"^{re.escape(str(err))}$"):
            _grid_cells(fam, n)
    else:
        lo, hi = _grid_cells(fam, n)
        assert [tuple(map(slice, *c)) for c in zip(lo.tolist(), hi.tolist())] == expected


def cover_or_error(boxes, selected):
    try:
        return minimal_cover_dilation(boxes, selected)
    except ValueError as err:
        return str(err)


def oracle_cover_or_error(boxes, selected):
    try:
        return frag_minimal_cover_dilation(boxes, list(selected), _DILATION_LADDER)
    except ValueError as err:
        return str(err)


@settings(max_examples=150)
@given(st.one_of(box_lists(), lattice_box_lists(), huge_box_lists(), interval_lists()),
       fractions_in_01())
def test_selections_keep_their_inputs_integer_rows(boxes, delta):
    # `selected` hands over the input's rows of `_ints` on the input's scale,
    # with m and the int64 rule taken on those rows alone
    results = [vitali_select(boxes), cf_select_lebesgue(sorted_decreasing(boxes), delta)]
    if boxes[0].dim == 1:
        results.append(overlap2_select_1d(boxes))
    for res in results:
        sel = res.selected
        scale, lo, hi, top = sel._ints
        assert scale == res.input._ints[0]
        assert list(sel) == [res.input[i] for i in res.selected_indices]
        for b, l, h in zip(sel, lo.tolist(), hi.tolist()):
            assert (tuple(F(x, scale) for x in l), tuple(F(x, scale) for x in h)) == (b.lo, b.hi)
        assert top == max(map(abs, lo.ravel().tolist() + hi.ravel().tolist()))
        assert lo.dtype == hi.dtype == (np.int64 if (2 * top) ** 3 < 2**62 else object)
        assert not (lo.flags.writeable or hi.flags.writeable)
        # the cover dilation reads them as it reads the boxes on their least scale
        expected = cover_or_error(boxes, [Box(b.center, b.side) for b in sel])
        assert cover_or_error(boxes, sel) == cover_or_error(boxes, list(sel)) == expected


def test_a_family_keeps_no_cell_table():
    # after the benchmark's whole sequence, a 3-D family and a weighted grid
    # family hold no array as large as the cell table of their grid, and what
    # they keep is about 1 KB per box: corners, volumes, meets, the grid's
    # axes and slices, and the weighted stage's slices and masses
    rng = rng_for(7, "box_grid/memory")
    w = generate_weight(WeightFamilySpec("power", 2, 32, a=1.0))
    w.exact
    cases = [(random_family(rng, 3, 12), None), (random_grid_cube_family(rng, 32, 2, 16), w)]
    workloads.family_job(*cases[0])  # warm the modules' own caches first
    for boxes, weight in cases:
        fam = BoxFamily(boxes.boxes)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            workloads.family_job(fam, weight)
            gc.collect()
            added = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert added < 2048 * len(fam)
        cells = fam._grid.cells()
        if weight is None:  # the 3-D table alone is larger than that
            assert cells.nbytes > 2048 * len(fam)
        arrays = []
        stack = list(vars(fam).values())
        while stack:
            v = stack.pop()
            if isinstance(v, np.ndarray):
                arrays.append(v.size)
            elif isinstance(v, (tuple, list)):
                stack.extend(v)
            elif isinstance(v, _Grid):
                stack.extend(vars(v).values())
        assert arrays and max(arrays) < cells.size


def test_benchmark_families_run_on_int64():
    # every cube_selection family at seed 0 takes the int64 path, and a 3-D
    # corner at 2^21 puts (2m)^3 = 2^66 past it
    families = [job.args[0] for job in workloads.cube_jobs(0) if isinstance(job.args[0], BoxFamily)]
    assert len(families) == 40
    assert all(f._ints[1].dtype == f._ints[2].dtype == np.int64 for f in families)
    far = BoxFamily([Box((F(1), F(1), F(1)), 2), Box((F(2**21 - 1),) * 3, 2)])
    assert far._ints[0] == 1 and far._ints[3] == 2**21
    assert far._ints[1].dtype == far._ints[2].dtype == object


def test_boxes_touching_at_a_face_or_corner_meet():
    # closed boxes: [0, 2]^2 and [2, 3] x [0, 1] share a face, [2, 3]^2 a corner
    boxes = [Box((F(1), F(1)), 2), Box((F(5, 2), F(1, 2)), 1), Box((F(5, 2), F(5, 2)), 1)]
    res = vitali_select(boxes)
    assert res.selected_indices == (0,) and res == pairwise_vitali_select(boxes)
    assert {i: c["selected_index"] for i, c in res.certificates.items()} == {1: 0, 2: 0}
    assert satellite_decompose(boxes) == {0: [0, 1, 2]} == pairwise_satellite_decompose(boxes)


# -- dimension guards -----------------------------------------------------------


def test_box_predicates_reject_mismatched_dimensions():
    square, interval = Box((F(1, 2), F(1, 2)), 1), Box((F(1, 2),), 1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        square.contains_point((F(1, 2),))
    with pytest.raises(ValueError, match="dimension mismatch"):
        square.intersects(interval)
    with pytest.raises(ValueError, match="dimension mismatch"):
        square.contains_box(interval)


def test_region_point_query_rejects_mismatched_dimension():
    region = BoxRegion.from_boxes([Box((F(1, 2), F(1, 2)), 1)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        region.contains_point((F(1, 2),))


def test_family_measures_reject_mixed_dimensions():
    mixed = [Box((F(1, 2), F(1, 2)), 1), Box((F(1, 2),), 1)]
    with pytest.raises(ValueError, match="dimension mismatch"):
        union_measure(mixed)
    with pytest.raises(ValueError, match="dimension mismatch"):
        enlargement_excess(mixed, F(1, 4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        BoxRegion.from_rational_corners(2, [((0, 0), (1, 1)), ((0,), (1,))])


# -- the names the benchmark's tracer wraps -------------------------------------


def test_region_keeps_the_traced_methods():
    names = ("empty", "from_boxes", "from_rational_corners", "rational_frags", "measure",
             "contains_point", "union", "subtract", "dilate_about")
    for name in names:
        assert name in BoxRegion.__dict__, name
    for name in names[:3]:
        assert isinstance(BoxRegion.__dict__[name], staticmethod), name
    region = BoxRegion.from_boxes([Box((F(0), F(0)), 2), Box((F(1), F(1)), 2)])
    assert len(region.frags) == len(region.rational_frags()) > 0
    assert len(BoxRegion.empty(2).frags) == 0
