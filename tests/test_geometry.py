from fractions import Fraction
from itertools import combinations

import pytest

from oracles import frag_enlargement_excess, frag_identity_defect
from tauberian_lab import geometry
from tauberian_lab.errors import InvariantViolation, OrderingViolation
from tauberian_lab.geometry import (
    Box,
    BoxFamily,
    BoxRegion,
    check_dilation_identity,
    dilate,
    dilate_set_about,
    enlargement_excess,
    increments,
    is_satellite,
    sorted_decreasing,
    symmetric_difference_measure,
    union_measure,
)
from tauberian_lab.sampling import random_family, rng_for

F = Fraction


def interval(a, b):
    a, b = F(a), F(b)
    return Box(((a + b) / 2,), b - a)


def square(lo, side):
    lo = [F(x) for x in lo]
    side = F(side)
    return Box(tuple(x + side / 2 for x in lo), side)


# -- dilation ---------------------------------------------------------------


def test_dilate_identity_factor():
    b = interval(0, 1)
    assert dilate(b, 1) == b


def test_dilate_three_halves():
    b = dilate(interval(0, 1), F(3, 2))
    assert b.lo == (F(-1, 4),) and b.hi == (F(5, 4),)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dilate_volume_scaling(dim):
    b = Box((F(1, 2),) * dim, 1)
    delta = F(1, 3)
    assert dilate(b, 1 + delta).volume() == (1 + delta) ** dim


def test_dilate_rejects_nonpositive_factor():
    with pytest.raises(ValueError):
        dilate(interval(0, 1), 0)


def test_dilate_set_about_box_equals_box_dilation():
    b = square([0, 0], 2)
    region = BoxRegion.from_boxes([b])
    out = dilate_set_about(b, region, F(5, 4))
    assert out.measure() == dilate(b, F(5, 4)).volume()
    assert out.contains_point(dilate(b, F(5, 4)).lo)


def test_dilate_set_about_affine_endpoints():
    center_box = Box((F(2),), 1)
    region = BoxRegion.from_boxes([interval(1, 4)])
    out = dilate_set_about(center_box, region, F(3, 2))
    (lo, hi), = out.rational_frags()
    assert lo == (F(1, 2),) and hi == (F(5),)


def test_dilate_set_about_empty():
    out = dilate_set_about(interval(0, 1), BoxRegion.empty(1), F(2))
    assert out.is_empty and out.measure() == 0


# -- union measure ----------------------------------------------------------


def test_union_measure_disjoint_squares():
    assert union_measure([square([0, 0], 1), square([5, 5], 1)]) == 2


def test_union_measure_overlapping_squares():
    assert union_measure([square([0, 0], 1), square([F(1, 2), F(1, 2)], 1)]) == F(7, 4)


def test_union_measure_empty():
    assert union_measure([]) == 0


def _box_intersection_volume(boxes):
    lo = [max(b.lo[d] for b in boxes) for d in range(boxes[0].dim)]
    hi = [min(b.hi[d] for b in boxes) for d in range(boxes[0].dim)]
    v = F(1)
    for l, h in zip(lo, hi):
        if h <= l:
            return F(0)
        v *= h - l
    return v


def inclusion_exclusion_measure(boxes):
    total = F(0)
    for k in range(1, len(boxes) + 1):
        for sub in combinations(boxes, k):
            total += (-1) ** (k + 1) * _box_intersection_volume(list(sub))
    return total


def test_union_measure_matches_inclusion_exclusion():
    rng = rng_for(7, "geometry/union-oracle")
    for trial in range(200):
        dim = int(rng.integers(1, 4))
        count = int(rng.integers(1, 7))
        fam = random_family(rng, dim, count, decreasing=False)
        assert union_measure(fam) == inclusion_exclusion_measure(list(fam))


WIDE_FAMILIES = {
    # scaled corners beyond 2^63: the common denominator is 3^25 5^20 7^18
    "corners-past-2^63": [Box((F(1, 3**25), F(2, 5**20)), F(3, 7**18)),
                          Box((F(0), F(1, 5**20)), F(1, 3**25)),
                          Box((F(1, 7**18), F(0)), F(2, 5**20))],
    # corners fit in int64, but the product of the three scaled spans does not
    "spans-past-2^62": [Box((F(1, 2000003), F(0), F(5, 3)), 3),
                        Box((F(2), F(1, 1999993), F(1)), F(7, 2000003)),
                        Box((F(-1), F(1), F(1, 1999993)), 2)],
}


@pytest.mark.parametrize("name", sorted(WIDE_FAMILIES))
def test_wide_integer_grids_stay_exact(name):
    boxes = WIDE_FAMILIES[name]
    assert union_measure(boxes) == inclusion_exclusion_measure(boxes)
    delta = F(1, 3)
    assert enlargement_excess(boxes, delta) == frag_enlargement_excess(boxes, delta)
    assert check_dilation_identity(boxes, delta).defect == frag_identity_defect(boxes, delta)


def test_region_monotone_under_union():
    a = BoxRegion.from_boxes([square([0, 0], 1)])
    b = BoxRegion.from_boxes([square([3, 3], 2)])
    assert a.union(b).measure() >= a.measure()
    assert a.union(b).measure() == 5


# -- increments -------------------------------------------------------------


def test_increments_single_box():
    fam = sorted_decreasing([interval(0, 1)])
    (e0,) = increments(fam)
    assert e0.measure() == 1


def test_increments_two_intervals():
    fam = sorted_decreasing([interval(0, 2), interval(1, 3)])
    e0, e1 = increments(fam)
    assert e0.measure() == 2
    (lo, hi), = e1.rational_frags()
    assert (lo[0], hi[0]) == (F(2), F(3))


def test_increments_identical_boxes():
    fam = sorted_decreasing([interval(0, 1), interval(0, 1)])
    e0, e1 = increments(fam)
    assert e0.measure() == 1 and e1.is_empty


def test_increments_requires_decreasing_tag():
    fam = BoxFamily([interval(0, 1), interval(0, 4)])
    with pytest.raises(OrderingViolation):
        increments(fam)


def test_increments_partition_properties():
    rng = rng_for(11, "geometry/increments")
    for trial in range(60):
        dim = int(rng.integers(1, 4))
        count = int(rng.integers(1, 8))
        fam = random_family(rng, dim, count)
        incs = increments(fam)
        total = union_measure(fam)
        assert sum((e.measure() for e in incs), F(0)) == total
        for i in range(len(incs)):
            for j in range(i + 1, len(incs)):
                if incs[i].is_empty or incs[j].is_empty:
                    continue
                inter = incs[i].measure() + incs[j].measure() - incs[i].union(incs[j]).measure()
                assert inter == 0


# -- dilation identity ------------------------------------------------------


def test_identity_single_box():
    res = check_dilation_identity([interval(0, 1)], F(1, 2))
    assert res.holds and res.defect == 0


def test_identity_random_decreasing_families():
    rng = rng_for(3, "geometry/identity")
    deltas = [F(1, 8), F(1, 4), F(1, 2)]
    for trial in range(60):
        dim = int(rng.integers(1, 4))
        count = int(rng.integers(1, 9 if dim < 3 else 7))
        fam = random_family(rng, dim, count)
        res = check_dilation_identity(fam, deltas[trial % 3])
        assert res.holds, f"defect {res.defect} at trial {trial}"


def test_identity_ordering_violation_defect():
    # increasing sidelengths: Q0=[0,1], Q1=[0,4], delta=1/2.
    # Oracle by endpoint arithmetic: LHS = [-1/4,5/4] u [-1,5] = [-1,5];
    # RHS = [-1/4,5/4] u (2 + 3/2*([1,4]-2)) = [-1/4,5/4] u [1/2,5] = [-1/4,5];
    # symmetric difference = [-1,-1/4], measure 3/4.
    res = check_dilation_identity([interval(0, 1), interval(0, 4)], F(1, 2))
    assert not res.holds
    assert res.defect == F(3, 4)


def test_symmetric_difference_measure_self_is_zero():
    r = BoxRegion.from_boxes([square([0, 0], 1), square([2, 0], 1)])
    assert symmetric_difference_measure(r, r) == 0


# -- enlargement estimate ---------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_enlargement_single_cube(dim):
    b = Box((F(0),) * dim, 1)
    delta = F(1, 4)
    assert enlargement_excess([b], delta) == (1 + delta) ** dim - 1


def test_enlargement_idempotent_on_duplicates():
    b = square([0, 0], 1)
    delta = F(1, 8)
    assert enlargement_excess([b, b], delta) == enlargement_excess([b], delta)


def test_enlargement_bound_random_families():
    rng = rng_for(19, "geometry/enlargement")
    deltas = [F(1, 8), F(1, 4), F(1, 2)]
    for trial in range(60):
        dim = int(rng.integers(1, 4))
        count = int(rng.integers(1, 8))
        fam = random_family(rng, dim, count)
        delta = deltas[trial % 3]
        base = union_measure(fam)
        dilated = union_measure([dilate(b, 1 + delta) for b in fam])
        assert dilated <= (1 + delta) ** dim * base
        assert enlargement_excess(fam, delta) == dilated - union_measure(fam)


def test_enlargement_five_box_2d_example():
    rng = rng_for(23, "geometry/enlargement-2d")
    fam = random_family(rng, 2, 5)
    delta = F(1, 4)
    assert enlargement_excess(fam, delta) <= ((F(5, 4)) ** 2 - 1) * union_measure(fam)


# -- satellite configurations ----------------------------------------------


def test_satellite_basic():
    assert is_satellite([interval(0, 4), interval(3, 5)], 0)


def test_satellite_disjoint_is_false():
    assert not is_satellite([interval(0, 1), interval(5, 6)], 0)


def test_satellite_singleton():
    assert is_satellite([interval(2, 3)], 0)


def test_satellite_larger_companion_is_false():
    assert not is_satellite([interval(0, 1), interval(0, 4)], 0)


def test_satellite_triple_dilate_invariant_raises(monkeypatch):
    # with the dilation made the identity, a companion sticks out of "3*center"
    monkeypatch.setattr(geometry, "dilate", lambda box, factor: box)
    with pytest.raises(InvariantViolation, match="escapes"):
        is_satellite([interval(0, 4), interval(3, 5)], 0)


def test_satellite_union_in_triple_dilate():
    rng = rng_for(31, "geometry/satellite")
    hits = 0
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        fam = random_family(rng, dim, int(rng.integers(2, 6)))
        if is_satellite(fam, 0):
            hits += 1
            big = dilate(fam[0], 3)
            assert all(big.contains_box(b) for b in fam)
    assert hits > 0
