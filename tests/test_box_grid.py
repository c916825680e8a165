"""The compressed-grid box geometry against the pairwise fragment engine it
replaced (`tests/oracles.py`), its dimension guards, and the contract that
the benchmark's tracer wraps."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    frag_cf_select_lebesgue,
    frag_enlargement_excess,
    frag_identity_defect,
    frag_increments,
    frag_minimal_cover_dilation,
)
from tauberian_lab.covering import (
    cf_select_lebesgue,
    minimal_cover_dilation,
    vitali_select,
)
from tauberian_lab.geometry import (
    Box,
    BoxRegion,
    check_dilation_identity,
    enlargement_excess,
    increments,
    sorted_decreasing,
    union_measure,
)

F = Fraction

# dyadic and non-dyadic denominators, so families need a common scale
DENOMS = st.sampled_from([1, 2, 4, 8, 3, 5, 7])


@st.composite
def box_lists(draw, max_boxes=8):
    dim = draw(st.integers(1, 3))
    boxes = []
    for _ in range(draw(st.integers(1, max_boxes))):
        den = draw(DENOMS)
        center = tuple(F(draw(st.integers(-3 * den, 3 * den)), den) for _ in range(dim))
        side_den = draw(DENOMS)
        boxes.append(Box(center, F(draw(st.integers(1, 3 * side_den)), side_den)))
    return boxes


@st.composite
def fractions_in_01(draw):
    q = draw(st.integers(2, 9))
    return F(draw(st.integers(1, q - 1)), q)


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


@settings(max_examples=150)
@given(box_lists(), st.lists(st.integers(1, 40), min_size=1, max_size=12, unique=True),
       st.integers(1, 4))
def test_cover_dilation_bisection_matches_linear_scan(boxes, nums, den):
    selected = list(vitali_select(boxes).selected)[:max(1, len(boxes) // 2)]
    candidates = [F(n, den) for n in nums]
    try:
        expected = frag_minimal_cover_dilation(boxes, selected, candidates)
    except ValueError:
        with pytest.raises(ValueError, match="no candidate dilation factor covers the family"):
            minimal_cover_dilation(boxes, selected, candidates)
    else:
        assert minimal_cover_dilation(boxes, selected, candidates) == expected


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
