import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (atomic_maximal_lower_float, exact_halo_1d_sweep, grid_maximal_naive,
                     grid_maximal_sides, piecewise_mass_loop, point_eval_1d_direct,
                     superlevel_1d_exact)
from tauberian_lab import maximal
from tauberian_lab.errors import InvariantViolation
from tauberian_lab.geometry import Box, _to_rat
from tauberian_lab.maximal import (
    AtomicMeasure,
    IntervalSet,
    MaximalSpec,
    PiecewiseWeight1D,
    atomic_maximal_lower,
    default_atomic_candidates,
    exact_halo_1d,
    grid_maximal,
    _halo_set,
    point_eval_1d,
    set_mass,
    superlevel,
)
from tauberian_lab.weights import GridWeight, WeightFamilySpec, generate_weight

F = Fraction
WEIGHTED = MaximalSpec("uncentered", "grid-weight")


def single_cell(n, idx, dim=1):
    e = np.zeros((n,) * dim, dtype=bool)
    e[idx] = True
    return e


# -- grid engine --------------------------------------------------------------


def test_uncentered_values_small():
    vals = grid_maximal(single_cell(4, 0))
    assert np.allclose(vals, [1, 1 / 2, 1 / 3, 1 / 4])


def test_full_grid_all_ones():
    e = np.ones(8, dtype=bool)
    assert np.allclose(grid_maximal(e), 1.0)


def test_values_in_unit_range_and_one_on_e():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(4, 17))
        e = rng.random(n) < 0.4
        if not e.any():
            continue
        vals = grid_maximal(e)
        assert np.all(vals <= 1 + 1e-12) and np.all(vals >= 0)
        assert np.allclose(vals[e], 1.0)


def test_superlevel_example_and_monotone():
    e = single_cell(4, 0)
    lv = superlevel(e, 0.3)
    assert list(np.flatnonzero(lv)) == [0, 1, 2]
    assert np.array_equal(superlevel(e, 0.99), e)
    sup1 = superlevel(e, 0.2)
    sup2 = superlevel(e, 0.5)
    assert np.all(sup2 <= sup1)


def test_superlevel_full_grid_high_alpha():
    e = np.ones(8, dtype=bool)
    assert superlevel(e, 0.99).all()


def test_weighted_constant_matches_lebesgue():
    w = generate_weight(WeightFamilySpec("constant", 1, 16))
    e = np.zeros(16, dtype=bool)
    e[3:7] = True
    a = grid_maximal(e)
    b = grid_maximal(e, MaximalSpec("uncentered", "grid-weight"), w)
    assert np.allclose(a, b)


def test_refinement_monotone():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = 8
        e = rng.random(n) < 0.3
        if not e.any():
            continue
        coarse = grid_maximal(e)
        fine = grid_maximal(np.repeat(e, 2))
        assert np.all(fine >= np.repeat(coarse, 2) - 1e-12)


def test_2d_uncentered_basic():
    e = np.zeros((4, 4), dtype=bool)
    e[0, 0] = True
    vals = grid_maximal(e)
    assert vals[0, 0] == pytest.approx(1.0)
    assert vals[1, 1] == pytest.approx(1 / 4)
    assert vals[3, 3] == pytest.approx(1 / 16)


def test_grid_maximal_rejects_bad_shapes():
    with pytest.raises(ValueError, match="square"):
        grid_maximal(np.zeros((4, 6), dtype=bool))
    with pytest.raises(ValueError, match="1-D and 2-D"):
        grid_maximal(np.zeros((2, 2, 2), dtype=bool))
    with pytest.raises(ValueError, match="empty grid"):
        grid_maximal(np.zeros(0, dtype=bool))
    with pytest.raises(ValueError, match="empty grid"):
        superlevel(np.zeros(0, dtype=bool), 0.5)
    with pytest.raises(ValueError, match="empty grid"):
        GridWeight(np.zeros(0))


# fixed sets as packed bits: 1-D N=128 and 2-D N=16
MASK_1D = np.unpackbits(np.frombuffer(bytes.fromhex(
    "50b9008d010014240d81808429824106"), dtype=np.uint8)).astype(bool)
MASK_2D = np.unpackbits(np.frombuffer(bytes.fromhex(
    "aa0824f94943c88b41805193a080c0c2480a93648611820840800c2c2c32d0c4"),
    dtype=np.uint8)).astype(bool).reshape(16, 16)
# sha256 of grid_maximal(...).tobytes(); the grid-weight ratios take their
# masses from gridops.side_table, the Lebesgue ones are ratios of exact counts
MAXIMAL_DIGESTS = {
    (1, "uncentered", "lebesgue"): "ee52d15d063a904eb571dab27f6dedd8829923c961af6d898801b5249bf0c39e",
    (1, "uncentered", "grid-weight"): "e3d4ce9ea37974dea72c70942e9d10fb8b635d09995f54b67c432c5963ea22a6",
    (2, "uncentered", "lebesgue"): "ddf9db319aa774a810441d10a3e862d28755db2d58d98f622658edc03fd19611",
    (2, "uncentered", "grid-weight"): "e9cc643870078016d015a6167497396f41ebb5657f96be60ca6d81de439cc0f4",
}


@pytest.mark.parametrize("key", sorted(MAXIMAL_DIGESTS), ids=lambda k: f"{k[0]}d-{k[1]}-{k[2]}")
def test_grid_maximal_pinned_digests(key):
    dim, variant, measure = key
    if dim == 1:
        e = MASK_1D
        w = generate_weight(WeightFamilySpec("power", 1, 128, a=2.0, x0=0.37))
    else:
        e = MASK_2D
        w = generate_weight(WeightFamilySpec("log-smooth-random", 2, 16, seed=9))
    spec = MaximalSpec(variant, measure)
    vals = grid_maximal(e, spec, measured(spec, w))
    assert hashlib.sha256(vals.tobytes()).hexdigest() == MAXIMAL_DIGESTS[key]


def test_zero_mass_cubes_are_skipped_2d():
    # the cube of the zero cell (2, 1) alone has mass 0 and must not count;
    # prefix differences once rounded its E-mass and mass to 1.1e-16 and
    # 5.6e-17, a ratio of 2
    w = GridWeight(np.array([[0, .2, .3], [.2, .7, 0], [.9, 0, 0]]))
    e = np.array([[1, 1, 1], [0, 0, 1], [1, 1, 1]], dtype=bool)
    uncentered = grid_maximal(e, MaximalSpec("uncentered", "grid-weight"), w)
    assert uncentered[2, 1] == pytest.approx(1.4 / 2.3)
    assert np.all(uncentered <= 1)


# cell masses: exact zeros, or within a factor 16 of each other; every cube
# mass is exact to d*s*u relative to itself, far inside the 1e-9 tolerance
CELLS = st.one_of(st.just(0.0), st.floats(min_value=0.25, max_value=4.0))


@st.composite
def grid_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 12 if dim == 1 else 6))
    shape = (n,) * dim
    e = np.reshape(draw(st.lists(st.booleans(), min_size=n**dim, max_size=n**dim)), shape)
    cells = draw(st.lists(CELLS, min_size=n**dim, max_size=n**dim)
                 .filter(lambda v: sum(v) > 0))
    measure = draw(st.sampled_from(["lebesgue", "grid-weight"]))
    return e, MaximalSpec(measure=measure), GridWeight(np.reshape(cells, shape))


def measured(spec, w):
    """w for a grid-weight spec; a Lebesgue spec takes no weight."""
    return w if spec.measure == "grid-weight" else None


@given(grid_cases())
def test_grid_maximal_matches_naive(case):
    e, spec, w = case
    assert grid_maximal(e, spec, measured(spec, w)) == pytest.approx(
        grid_maximal_naive(e, spec, w), rel=1e-9, abs=1e-9)


@settings(max_examples=300)
@given(grid_cases())
def test_grid_maximal_equals_per_side_sweep_bit_for_bit(case):
    e, spec, w = case
    assert (grid_maximal(e, spec, measured(spec, w)).tobytes()
            == grid_maximal_sides(e, spec, w).tobytes())


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
def test_grid_maximal_result_holds_no_table(dim, n):
    w = generate_weight(WeightFamilySpec("log-smooth-random", dim, n, seed=3))
    e = np.random.default_rng(3).random((n,) * dim) < 0.4
    for measure in ("lebesgue", "grid-weight"):
        spec = MaximalSpec(measure=measure)
        vals = grid_maximal(e, spec, measured(spec, w))
        assert vals.shape == e.shape and vals.flags.writeable and vals.flags.owndata
        assert not np.shares_memory(vals, w.table.flat)


def test_superlevel_rejects_alpha_outside_unit_interval():
    e = single_cell(4, 0)
    for alpha in (float("nan"), -1.0, 0.0, 1.0, 2.0):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            superlevel(e, alpha)


def test_set_mass():
    w = generate_weight(WeightFamilySpec("power", 1, 8, a=1.0))
    e = np.zeros(8, dtype=bool)
    e[4:] = True
    assert set_mass(e) == pytest.approx(0.5)
    assert set_mass(e, w) == pytest.approx(w.values[4:].sum())


def test_set_mass_rejects_shape_mismatch():
    # set_mass once had its own copy of the shape check and skipped the rest:
    # the non-square and 3-D sets gave 1.0, the empty one divided by zero
    for e, weight, match in [
            (np.ones(4, bool), GridWeight(np.ones(8)), "weight grid and set grid differ in shape"),
            (np.ones((2, 3), bool), None, "2-D grid must be square"),
            (np.ones((2, 2, 2), bool), None, "only 1-D and 2-D grids are supported"),
            (np.zeros(0, bool), None, "empty grid")]:
        with pytest.raises(ValueError, match=match):
            set_mass(e, weight)


# -- IntervalSet / PiecewiseWeight1D ------------------------------------------


def test_interval_set_merge_and_measure():
    s = IntervalSet.merge([(F(1), F(2)), (F(0), F(1)), (F(3), F(4))])
    assert s.intervals == ((F(0), F(2)), (F(3), F(4)))
    assert s.measure() == 3


def test_interval_set_merge_converts_before_dropping_degenerate():
    # "1/2" < "1" is False as strings, and 0 < "1/2" raises TypeError
    assert IntervalSet.merge([("1/2", "1")]) == IntervalSet([("1/2", "1")])
    assert IntervalSet.merge([(0, "1/2"), ("1", "1")]).intervals == ((F(0), F(1, 2)),)


def test_numpy_integers_are_exact_rationals():
    s = IntervalSet([(np.int64(0), 1)])
    assert s.intervals == ((F(0), F(1)),) and type(s.intervals[0][0].numerator) is int
    w = PiecewiseWeight1D([F(0), F(1, 2), F(1)], [F(1), F(3)])
    assert w.mass(np.int64(0), np.int64(1)) == 2
    assert Box((np.int64(1),), 2) == Box((1,), 2)


def test_halo_set_checks_the_order_on_integers():
    assert _halo_set([(0, 1), (1, 3), (1, 2), (3, 4)]) == IntervalSet(
        [(0, F(1, 3)), (F(1, 2), F(3, 4))])
    for ends in ([(1, 3), (2, 6)], [(0, 1), (1, 2), (1, 2), (1, 1)],
                 [(0, 1), (2, 3), (1, 2), (1, 1)]):
        with pytest.raises(InvariantViolation, match="strictly increase"):
            _halo_set(ends)


def test_interval_set_validation():
    with pytest.raises(ValueError):
        IntervalSet([(F(0), F(0))])
    with pytest.raises(ValueError):
        IntervalSet([(F(0), F(2)), (F(1), F(3))])


@st.composite
def piecewise_weights(draw):
    """1-8 pieces on [0, 1] whose breakpoints sit on a 1/60 grid."""
    m = draw(st.integers(min_value=1, max_value=8))
    inner = draw(st.lists(st.integers(min_value=1, max_value=59), min_size=m - 1,
                          max_size=m - 1, unique=True))
    dens = draw(st.lists(st.fractions(min_value=F(1, 4), max_value=8, max_denominator=4),
                         min_size=m, max_size=m))
    return PiecewiseWeight1D([F(0)] + [F(k, 60) for k in sorted(inner)] + [F(1)], dens)


unit_points = st.fractions(min_value=0, max_value=1, max_denominator=120)


def test_piecewise_weight_mass():
    w = PiecewiseWeight1D([F(0), F(1, 2), F(1)], [F(1), F(3)])
    assert w.mass(F(0), F(1)) == 2
    assert w.mass(F(1, 4), F(3, 4)) == F(1, 4) + F(3, 4)
    with pytest.raises(ValueError):
        w.mass(F(-1), F(1))


def test_piecewise_from_grid_roundtrip():
    gw = generate_weight(WeightFamilySpec("checkerboard", 1, 4))
    pw = PiecewiseWeight1D.from_grid(gw)
    assert pw.mass(F(0), F(1)) == sum(map(F, gw.values.tolist()))


@given(piecewise_weights(), unit_points, unit_points)
def test_mass_matches_piece_loop(w, a, b):
    a, b = min(a, b), max(a, b)
    assert w.mass(a, b) == piecewise_mass_loop(w, a, b)


@given(piecewise_weights(), unit_points, unit_points)
def test_distribution_quantile_round_trip(w, x, t):
    top = w.distribution(F(1))
    assert w.distribution(F(0)) == 0 and top == piecewise_mass_loop(w, F(0), F(1))
    for p in (F(0), x, F(1)):
        assert w.quantile(w.distribution(p)) == p
    for y in (F(0), t * top, top):
        assert w.distribution(w.quantile(y)) == y


def test_distribution_and_quantile_reject_points_outside():
    w = PiecewiseWeight1D([F(0), F(1, 2), F(1)], [F(1), F(3)])
    for x in (F(-1, 100), F(101, 100)):
        with pytest.raises(ValueError, match="x escapes the weight domain"):
            w.distribution(x)
    for y in (F(-1, 100), F(201, 100)):
        with pytest.raises(ValueError, match=r"y escapes \[0, w\(domain\)\]"):
            w.quantile(y)


# -- exact engine: point values ------------------------------------------------


def test_point_eval_left_of_interval():
    e = IntervalSet([(F(0), F(1, 10))])
    assert point_eval_1d(e, F(-1, 20)) == F(2, 3)


def test_point_eval_inside_is_one():
    e = IntervalSet([(F(0), F(1, 10))])
    assert point_eval_1d(e, F(1, 20)) == 1


def test_point_eval_far_decay():
    e = IntervalSet([(F(0), F(1))])
    v2 = point_eval_1d(e, F(2))
    v4 = point_eval_1d(e, F(4))
    assert v2 == F(1, 2) and v4 == F(1, 4)
    assert v4 < v2


def test_exact_1d_rejects_set_outside_weight_domain():
    e, w = IntervalSet([(F(1, 2), F(2))]), PiecewiseWeight1D([0, 1], [1])
    with pytest.raises(ValueError, match="set escapes the weight domain"):
        point_eval_1d(e, F(1, 4), w)
    with pytest.raises(ValueError, match="set escapes the weight domain"):
        exact_halo_1d(e, F(1, 2), w)


# -- exact engine: halos --------------------------------------------------------


def test_halo_single_small_interval():
    e = IntervalSet([(F(0), F(1, 10))])
    halo = exact_halo_1d(e, F(1, 2))
    assert halo.intervals == ((F(-1, 10), F(1, 5)),)
    assert halo.measure() == F(3, 10)


def test_halo_unit_interval():
    e = IntervalSet([(F(0), F(1))])
    halo = exact_halo_1d(e, F(1, 2))
    assert halo.intervals == ((F(-1), F(2)),)


@pytest.mark.parametrize("alpha", [F(1, 2), F(2, 3), F(3, 4), F(9, 10)])
def test_halo_sharp_ratio_single_interval(alpha):
    e = IntervalSet([(F(0), F(1))])
    halo = exact_halo_1d(e, alpha)
    assert halo.measure() == (2 - alpha) / alpha


ANCHOR_WEIGHTS = [
    PiecewiseWeight1D([0, 1], [1]),
    PiecewiseWeight1D([0, F(1, 2), 1], [1, 9]),
    PiecewiseWeight1D([F(k, 10) for k in range(11)],
                      [10, 3, 5, F(7, 4), F(3, 4), 4, 3, F(11, 4), F(8, 3), 2]),
]


@pytest.mark.parametrize("alpha", [F(1, 2), F(2, 3), F(3, 4), F(9, 10)])
@pytest.mark.parametrize("w", ANCHOR_WEIGHTS, ids=range(len(ANCHOR_WEIGHTS)))
def test_halo_sharp_ratio_single_interval_weighted(w, alpha):
    # F(x) = w([0, x]) moves M_w to the Lebesgue M: when the Lebesgue halo of
    # F(E), F(E) grown by w(E)(1 - alpha)/alpha on each side, stays inside
    # [0, w(domain)], the weighted ratio is the Lebesgue (2 - alpha)/alpha
    a, b = F(19, 40), F(21, 40)
    w_e = piecewise_mass_loop(w, a, b)
    reach = w_e * (1 - alpha) / alpha
    assert reach <= piecewise_mass_loop(w, F(0), a) and reach <= piecewise_mass_loop(w, b, F(1))
    halo = exact_halo_1d(IntervalSet([(a, b)]), alpha, w)
    w_halo = sum((piecewise_mass_loop(w, lo, hi) for lo, hi in halo.intervals), F(0))
    assert w_halo / w_e == (2 - alpha) / alpha


def test_halo_two_intervals():
    # E = [0,1] u [2,3] at alpha = 11/20: the pair is bridged by [0,3]
    # (density 2/3 > alpha) and each side extends by 9/11
    e = IntervalSet([(F(0), F(1)), (F(2), F(3))])
    halo = exact_halo_1d(e, F(11, 20))
    assert halo.intervals == ((F(-9, 11), F(42, 11)),)


def test_halo_contains_e_and_shrinks():
    e = IntervalSet([(F(0), F(1, 4)), (F(1, 2), F(5, 8))])
    prev = None
    for alpha in (F(1, 2), F(9, 10), F(99, 100)):
        halo = exact_halo_1d(e, alpha)
        assert halo.contains_set(e)
        assert halo.measure() >= e.measure()
        if prev is not None:
            assert halo.measure() <= prev
        prev = halo.measure()


def test_halo_weighted_unit_density_matches_lebesgue():
    e = IntervalSet([(F(0), F(1, 4))])
    w = PiecewiseWeight1D([F(-10), F(10)], [F(1)])
    assert exact_halo_1d(e, F(1, 2), w).intervals == exact_halo_1d(e, F(1, 2)).intervals


def test_halo_weighted_heavy_right():
    # heavy density right of E pulls the weighted halo boundary leftward
    e = IntervalSet([(F(0), F(1))])
    w = PiecewiseWeight1D([F(-10), F(1), F(10)], [F(1), F(9)])
    halo = exact_halo_1d(e, F(1, 2), w)
    (lo, hi), = halo.intervals
    assert lo == F(-1)
    # right reach: mass(E cap [0,x]) = 1, mass([0,x]) = 1 + 9(x-1); 1 > (1+9(x-1))/2
    assert hi == F(10, 9)


def test_halo_alpha_validation():
    e = IntervalSet([(F(0), F(1))])
    with pytest.raises(ValueError):
        exact_halo_1d(e, F(1))


def test_halo_of_numpy_integer_endpoints_matches_int_endpoints():
    # a Fraction built from numpy integers keeps np.int64 parts, which once
    # overflowed in the integer halo pass (warnings are errors in this suite)
    i = np.flatnonzero([0, 1, 0, 0])[0]
    halo = exact_halo_1d(IntervalSet([(F(i, 8), F(i + 1, 8))]), F(1 / 3))
    j = int(i)
    assert halo == exact_halo_1d(IntervalSet([(F(j, 8), F(j + 1, 8))]), F(1 / 3))


def lebesgue_halo_ratio(w: PiecewiseWeight1D, e: IntervalSet, alpha):
    """The Lebesgue halo of e clipped to w's domain, and its w-mass over w(e)."""
    l, r = w.domain
    halo = [(max(a, l), min(b, r)) for a, b in exact_halo_1d(e, alpha).intervals]
    mass = lambda ivs: sum((w.mass(a, b) for a, b in ivs), F(0))
    return halo, mass(halo) / mass(e.intervals)


def test_two_intervals_beat_one_in_the_tauberian_ratio():
    # the Lebesgue halo measured in w: adding an interval that skips the heavy
    # cell 3 merges the two halos into the whole domain and raises the ratio
    dens = [F(d) for d in ("187.872", "18.269", "5.981", "34.184", "16.398", "224.593")]
    left, right = (F(1, 4), F(1, 2)), (F(2, 3), F(19, 24))
    # no halo reaches past [0, 1], so padding the domain with 6 cells of
    # density 20 on each side changes neither ratio
    for pad in (0, 6):
        ds = [F(20)] * pad + dens + [F(20)] * pad
        w = PiecewiseWeight1D([F(k - pad, 6) for k in range(len(ds) + 1)], ds)
        one = lebesgue_halo_ratio(w, IntervalSet([left]), F(1, 2))
        assert one == ([(F(0), F(3, 4))], F(169670, 10077))
        assert (lebesgue_halo_ratio(w, IntervalSet([right]), F(1, 2))[0]
                == [(F(13, 24), F(11, 12))])
        two = lebesgue_halo_ratio(w, IntervalSet([left, right]), F(1, 2))
        assert two == ([(F(0), F(1))], F(487297, 27414))
        assert two[1] > one[1]


@pytest.mark.parametrize("n", [16, 32, 64])
def test_single_interval_anchors_of_the_tauberian_ratio(n):
    # E = [L/3, 4L/3] at alpha = 3/4: its Lebesgue halo [0, 5L/3] ends at
    # the singularity of |x|^(-1/2), so the ratio is sqrt(5L/3) / (sqrt(4L/3)
    # - sqrt(L/3)) = sqrt(5) = 1 + R_a(1/3); for w = 1 it is (2 - alpha) /
    # alpha.  A certified lower bound on C_w(3/4) must meet these values.
    alpha = F(3, 4)
    power = PiecewiseWeight1D.from_grid(generate_weight(
        WeightFamilySpec("power", 1, n, a=-0.5, x0=0.0)))
    constant = PiecewiseWeight1D.from_grid(generate_weight(WeightFamilySpec("constant", 1, n)))
    for big_l in (F(3, 8), F(9, 16)):  # 9/16 gives E = [3/16, 3/4]
        e = IntervalSet([(big_l / 3, 4 * big_l / 3)])
        halo, ratio = lebesgue_halo_ratio(power, e, alpha)
        assert halo == [(F(0), 5 * big_l / 3)]
        assert float(ratio) == pytest.approx(math.sqrt(5), rel=1e-12)
        assert lebesgue_halo_ratio(constant, e, alpha)[1] == F(5, 3)


def lifted(level, n):
    """The cells of a grid superlevel as an `IntervalSet` of [c/n, (c+1)/n]."""
    return IntervalSet.merge([(F(int(c), n), F(int(c) + 1, n)) for c in np.flatnonzero(level)])


def test_grid_superlevel_inside_exact_halo():
    # each halo is taken at the exact value of the float alpha the grid call
    # gets; the grid-weight calls run on the weight refined 8x
    rng = np.random.default_rng(23)
    wrng = np.random.default_rng(29)
    trials = 0
    while trials < 100:
        n = int(rng.integers(4, 13))
        mask = rng.random(n) < 0.35
        if not mask.any():
            continue
        trials += 1
        alpha = float(F(rng.uniform(0.2, 0.95)).limit_denominator(997))
        e_exact = lifted(mask, n)
        halo = exact_halo_1d(e_exact, F(alpha))
        assert halo.contains_set(lifted(superlevel(mask, alpha), n))
        a = float(wrng.choice([-0.5, 1.0, 2.0]))
        v = generate_weight(WeightFamilySpec("power", 1, n, a=a,
                                             x0=float(wrng.uniform(0.05, 0.95)))).values
        fine = GridWeight(np.repeat(v / 8, 8))
        level = superlevel(np.repeat(mask, 8), alpha, WEIGHTED, fine)
        halo = exact_halo_1d(e_exact, F(alpha), PiecewiseWeight1D.from_grid(fine))
        assert halo.contains_set(lifted(level, 8 * n))


@st.composite
def exact_superlevel_cases(draw):
    """A 1-D set of 1-24 cells; alpha the float of a fraction with denominator
    up to 64, of 1/3 or of 1/10; and no weight, or cells drawn from 0, CELLS
    and ODD_CELLS (which hold 5e-324, 1e300, 2^-60 and 0.1)."""
    n = draw(st.integers(min_value=1, max_value=24))
    e = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    alpha = float(draw(st.one_of(ALPHAS, st.sampled_from([F(1, 3), F(1, 10)]))))
    if draw(st.booleans()):
        return e, alpha, None
    cells = draw(st.lists(st.one_of(CELLS, st.sampled_from(ODD_CELLS)), min_size=n, max_size=n)
                 .filter(lambda v: sum(v) > 0))
    return e, alpha, GridWeight(np.array(cells))


@settings(max_examples=300)
@given(exact_superlevel_cases())
@example((np.array([True, False]), 0.5, GridWeight(np.ones(2))))  # ratio 1/2 is not > 1/2
@example((np.array([True, False, False]), 1 / 3, GridWeight(np.ones(3))))  # 1/3 > float(1/3)
# 1/(3 + 2e-16) lies between the decimal 0.3333333333333333 and float(1/3)
@example((np.array([True, False, False]), 1 / 3, GridWeight(np.array([1.0, 2.0, 2e-16]))))
@example((np.array([True, False, False]), 1 / 3, None))
def test_1d_uncentered_superlevel_matches_the_exact_oracle(case):
    e, alpha, w = case
    exact = superlevel_1d_exact(e, alpha, w)
    if w is not None:
        assert np.array_equal(superlevel(e, alpha, WEIGHTED, w), exact)
        return
    # the Lebesgue path compares the float ratios k/s, each rounded once, with
    # alpha: it differs only where a ratio rounds onto alpha, by leaving the cell out
    ties = grid_maximal(e) == alpha
    assert np.array_equal(superlevel(e, alpha), exact & ~ties)


def test_superlevel_keeps_a_cell_whose_float_value_rounds_below_alpha():
    # seed 7 of the benchmark's tauberian_sweep: on [24, 56) the exact E-fraction
    # exceeds 1/2 by 3.5e-17, and the float table gives cell 41 0.49999999999999939
    v = generate_weight(WeightFamilySpec("power", 1, 16, a=1.0, x0=0.7049710793158196)).values
    fine = GridWeight(np.repeat(v / 8, 8))
    e = np.zeros(16, dtype=bool)
    for a, b in [(0, 1), (3, 4), (6, 7), (9, 10), (12, 13), (14, 15)]:
        e[a:b] = True
    e = np.repeat(e, 8)
    masses = [F(float(m)) for m in fine.values[24:56]]
    ratio = sum(m for m, x in zip(masses, e[24:56]) if x) / sum(masses)
    assert 3e-17 < ratio - F(1, 2) < 4e-17
    assert grid_maximal(e, WEIGHTED, fine)[41] < 0.5
    level = superlevel(e, 0.5, WEIGHTED, fine)
    assert level[41]
    assert np.array_equal(level, superlevel_1d_exact(e, 0.5, fine))


@st.composite
def halo_cases(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    e = IntervalSet.merge([(F(i, n), F(i + 1, n)) for i in range(n) if mask[i]])
    q = draw(st.integers(min_value=2, max_value=30))
    alpha = F(draw(st.integers(min_value=1, max_value=q - 1)), q)
    weight = None
    if draw(st.booleans()):
        m = draw(st.integers(min_value=1, max_value=6))
        dens = draw(st.lists(st.fractions(min_value=F(1, 4), max_value=8, max_denominator=4),
                             min_size=m, max_size=m))
        weight = PiecewiseWeight1D([F(k, m) for k in range(m + 1)], dens)
    return e, alpha, weight


@given(halo_cases())
def test_halo_boundary_is_exactly_at_level(case):
    e, alpha, weight = case
    halo = exact_halo_1d(e, alpha, weight)
    assert halo.contains_set(e)
    edges = weight.domain if weight is not None else ()
    for x in halo.breakpoints():
        if x not in edges:
            assert point_eval_1d(e, x, weight) == alpha


@st.composite
def wide_halo_cases(draw, max_cells=40):
    """Up to max_cells cells, alpha = p/q with q <= 64, and Lebesgue or 1-8 weight
    pieces whose breakpoints sit on a 1/60 grid, out of step with E's."""
    n = draw(st.integers(min_value=1, max_value=max_cells))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    e = IntervalSet.merge([(F(i, n), F(i + 1, n)) for i in range(n) if mask[i]])
    q = draw(st.integers(min_value=2, max_value=64))
    alpha = F(draw(st.integers(min_value=1, max_value=q - 1)), q)
    weight = draw(piecewise_weights()) if draw(st.booleans()) else None
    return e, alpha, weight


@settings(max_examples=300)
@given(wide_halo_cases())
def test_halo_matches_per_anchor_sweep(case):
    e, alpha, weight = case
    assert exact_halo_1d(e, alpha, weight) == exact_halo_1d_sweep(e, alpha, weight)


@given(wide_halo_cases(max_cells=24))
def test_point_eval_matches_direct_density_scan(case):
    e, alpha, weight = case
    pts = set(e.breakpoints()) | set(exact_halo_1d(e, alpha, weight).breakpoints())
    if weight is not None:
        pts |= set(weight.breakpoints)  # the domain ends among them
    for x in sorted(pts):
        assert point_eval_1d(e, x, weight) == point_eval_1d_direct(e, x, weight)


# odd cells for `from_grid`: 2^-60, 1e300 and the subnormal 5e-324, whose
# exact masses sit over 2^1074
ODD_CELLS = (2.0**-60, 1e300, 5e-324, 1.0, 0.1, 3.0)


@st.composite
def odd_weights(draw):
    """None (Lebesgue), `from_grid` of ODD_CELLS, or 1-6 pieces on a domain
    that may be negative and is rarely [0, 1], with breakpoint and density
    denominators up to 1000."""
    kind = draw(st.sampled_from(("lebesgue", "grid", "pieces")))
    if kind == "lebesgue":
        return None
    if kind == "grid":
        cells = draw(st.lists(st.sampled_from(ODD_CELLS), min_size=1, max_size=6))
        return PiecewiseWeight1D.from_grid(GridWeight(np.array(cells)))
    lo = draw(st.fractions(min_value=-5, max_value=5, max_denominator=1000))
    widths = draw(st.lists(st.fractions(min_value=F(1, 100), max_value=3, max_denominator=1000),
                           min_size=1, max_size=6))
    dens = draw(st.lists(st.fractions(min_value=F(1, 1000), max_value=1000,
                                      max_denominator=1000),
                         min_size=len(widths), max_size=len(widths)))
    return PiecewiseWeight1D(list(itertools.accumulate(widths, initial=lo)), dens)


@st.composite
def off_grid_cases(draw):
    """(E, alpha, weight, t): E's 1-3 intervals have endpoints of denominators
    up to 1000 inside the weight's domain (or [-5, 5]), alpha is p/q with
    q <= 64 or 1 - 1/q with q up to 10^6, and t in [0, 1] picks a quantile."""
    weight = draw(odd_weights())
    lo, hi = weight.domain if weight is not None else (F(-5), F(5))
    # every denominator from 2 / (hi - lo) on has two multiples inside
    dens = st.integers(min_value=max(2, math.ceil(2 / (hi - lo))), max_value=1000)
    pts = set()
    for d, u in draw(st.lists(st.tuples(dens, st.integers(min_value=0, max_value=10**6)),
                              min_size=2, max_size=6)):
        first, last = math.ceil(lo * d), math.floor(hi * d)
        pts.add(F(first + u % (last - first + 1), d))
    assume(len(pts) >= 2)
    pts = sorted(pts)[:len(pts) // 2 * 2]
    e = IntervalSet(zip(pts[::2], pts[1::2]))
    alpha = draw(st.one_of(
        st.integers(min_value=2, max_value=10**6).map(lambda q: 1 - F(1, q)),
        st.fractions(min_value=F(1, 64), max_value=F(63, 64), max_denominator=64)))
    return e, alpha, weight, draw(st.fractions(min_value=0, max_value=1, max_denominator=1000))


@settings(max_examples=120)
@given(off_grid_cases())
@example((IntervalSet([(F(4, 9), F(11, 18))]), 1 - F(1, 10**6),
          PiecewiseWeight1D.from_grid(GridWeight(np.array([2.0**-60, 1e300, 5e-324]))), F(1, 2)))
def test_exact_1d_engine_matches_oracles_off_the_grid(case):
    e, alpha, weight, t = case
    halo = exact_halo_1d(e, alpha, weight)
    assert halo == exact_halo_1d_sweep(e, alpha, weight)
    if weight is None:
        return
    lo, hi = weight.domain
    top = piecewise_mass_loop(weight, lo, hi)
    for x in {lo, hi, *weight.breakpoints, *e.breakpoints(), *halo.breakpoints()}:
        y = weight.distribution(x)
        assert y == piecewise_mass_loop(weight, lo, x)
        assert weight.quantile(y) == x
    assert weight.quantile(0) == lo and weight.quantile(top) == hi
    assert piecewise_mass_loop(weight, lo, weight.quantile(t * top)) == t * top
    for a, b in e.intervals + halo.intervals:
        assert weight.mass(a, b) == piecewise_mass_loop(weight, a, b)
    gap = (hi - lo) / 10**9
    for x in (lo - gap, hi + gap):
        with pytest.raises(ValueError, match="x escapes the weight domain"):
            weight.distribution(x)
        with pytest.raises(ValueError, match="interval escapes the weight domain"):
            weight.mass(min(x, lo), max(x, hi))
    for y in (-top / 10**9, top + top / 10**9):
        with pytest.raises(ValueError, match=r"y escapes \[0, w\(domain\)\]"):
            weight.quantile(y)


# halos computed before the exact 1-D engine became one pass over the excess
# Phi, by the breakpoint-anchored pair scan and the per-anchor sweeps
HALO_PINS = [  # (n, E as runs of 1/n cells, alpha, densities per 1/n cell or
    # Lebesgue, halo)
    (7, ((0, 2),), '3/7', None, (('-8/21', '2/3'),)),
    (8, ((2, 3), (5, 6)), '1/5', ('5', '5', '9', '12', '11/4', '1', '9', '6'), (('0', '1'),)),
    (5, ((3, 4),), '1/6', ('5', '10', '1/2', '9/2', '3'), (('0', '1'),)),
    (11, ((3, 4), (8, 9), (10, 11)), '3/5', None, (('7/33', '14/33'), ('2/3', '35/33'))),
    (10, ((1, 4), (7, 8)), '5/8', ('10', '3', '5', '7/4', '3/4', '4', '3', '11/4', '8/3', '2'), (('83/2000', '191/300'), ('129/200', '1379/1600'))),
    (7, ((1, 2),), '2/3', ('9/4', '9/4', '7/2', '6', '9/4', '2', '3'), (('1/14', '65/196'),)),
    (10, ((0, 2), (6, 7), (8, 9)), '3/7', None, (('-4/15', '16/15'),)),
    (13, ((0, 2), (4, 6), (10, 11)), '2/3', ('6', '2', '4/3', '11/4', '1/2', '5/3', '2', '8', '5', '2', '12', '1', '1/3'), (('0', '157/312'), ('41/65', '1'))),
    (8, ((0, 2), (4, 5), (6, 7)), '6/7', ('3/2', '5', '12', '8', '11/4', '1', '3', '2/3'), (('0', '301/1152'), ('757/1536', '131/192'), ('11/16', '31/32'))),
    (13, ((7, 8), (11, 12)), '1/5', None, (('2/13', '17/13'),)),
    (13, ((0, 2), (4, 6), (11, 13)), '5/8', ('1', '1', '2', '3', '4', '12', '5/4', '1/4', '11', '3/4', '3', '7', '1'), (('0', '961/1430'), ('1959/2860', '1'))),
    (4, ((1, 3),), '5/14', ('1/2', '5/3', '8', '4'), (('0', '1'),)),
    (6, ((4, 5),), '9/11', None, (('17/27', '47/54'),)),
    (7, ((0, 1), (4, 5)), '6/7', ('7/2', '2', '5/2', '7/2', '1', '2', '5/2'), (('0', '31/168'), ('83/147', '61/84'))),
    (4, ((0, 1), (2, 4)), '3/16', ('5/3', '9', '4', '2'), (('0', '1'),)),
    (7, ((0, 1), (4, 6)), '1/2', None, (('-1/7', '8/7'),)),
    (9, ((2, 4), (5, 8)), '7/10', ('4', '11/3', '1', '5/2', '9/2', '1/2', '9/4', '5/2', '7/3'), (('35/198', '13/27'), ('1/2', '251/252'))),
    (12, ((0, 1), (8, 12)), '1/2', ('6', '6', '9', '11/3', '1', '4', '8', '2', '1/2', '4', '1', '5/4'), (('0', '1/6'), ('205/384', '1'))),
    (9, ((0, 3),), '5/6', None, (('-1/15', '2/5'),)),
    (10, ((3, 4),), '1/2', ('4', '3/2', '3', '2', '8/3', '5', '2', '1/2', '4', '12'), (('7/30', '19/40'),)),
]


@pytest.mark.parametrize("case", HALO_PINS, ids=range(len(HALO_PINS)))
def test_halo_pinned(case):
    n, runs, alpha, dens, halo = case
    weight = None
    if dens is not None:
        weight = PiecewiseWeight1D([F(k, n) for k in range(n + 1)], [F(d) for d in dens])
    e = IntervalSet([(F(a, n), F(b, n)) for a, b in runs])
    got = exact_halo_1d(e, F(alpha), weight)
    assert got.intervals == tuple((F(a), F(b)) for a, b in halo)


# -- atomic ---------------------------------------------------------------------


def test_atomic_single_atom():
    mu = AtomicMeasure([((F(0), F(0)), F(5))])
    res = atomic_maximal_lower(mu, [0], F(1, 2))
    assert res.halo_mass_lower == 5
    assert res.covered == frozenset({0})


def test_atomic_requires_nonempty_e():
    mu = AtomicMeasure([((F(0),), F(1))])
    with pytest.raises(ValueError):
        atomic_maximal_lower(mu, [], F(1, 2))


def test_atomic_rejects_alpha_outside_unit_interval():
    mu = AtomicMeasure([((F(0),), F(1)), ((F(1),), F(2))])
    for alpha in (F(0), F(1), F(-1), F(3, 2)):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            atomic_maximal_lower(mu, [0], alpha)


def harmonic_measure(j_max):
    atoms = [((F(0), F(0)), F(1))]
    for j in range(2, j_max + 1):
        atoms.append(((F(1, j), 1 - F(1, j)), F(1, j)))
    return AtomicMeasure(atoms)


def test_atomic_harmonic_certificates():
    mu = harmonic_measure(50)
    res = atomic_maximal_lower(mu, [0], F(9, 10))
    expect = 1 + sum(F(1, j) for j in range(10, 51))
    assert res.halo_mass_lower == expect
    # covered atoms: the origin plus x_j for j >= 10 (indices shift by 2)
    assert res.covered == frozenset({0} | set(range(9, 50)))


def test_atomic_candidates_include_pair_cubes():
    mu = harmonic_measure(12)
    cands = default_atomic_candidates(mu, [0])
    assert len(cands) >= 11
    assert all(b.dim == 2 for b in cands)


# 3^41 and 2^70 + 1 put the scaled corners past 2^63
DENOMINATORS = (1, 3, 5, 7, 64, 3**41, 2**70 + 1)


@st.composite
def rationals(draw, lo, hi):
    q = draw(st.sampled_from(DENOMINATORS))
    return F(draw(st.integers(lo * q, hi * q)), q)


@st.composite
def atomic_cases(draw):
    d = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[rationals(-2, 2)] * d), min_size=1, max_size=9,
                        unique=True))
    masses = draw(st.lists(rationals(0, 4).filter(lambda m: m > 0),
                           min_size=len(pts), max_size=len(pts)))
    e_idx = draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=len(pts)))
    q = draw(st.integers(2, 12))
    alpha = F(draw(st.integers(1, q - 1)), q)
    return AtomicMeasure(list(zip(pts, masses))), e_idx, alpha


@settings(max_examples=300)
@given(atomic_cases())
def test_atomic_matches_float_prefilter(case):
    assert atomic_maximal_lower(*case) == atomic_maximal_lower_float(*case)


def test_atom_indices_out_of_range_raise_one_error():
    mu = AtomicMeasure([((F(0),), F(1)), ((F(1),), F(2))])
    for bad in ([-1], [2], [0, 5]):
        with pytest.raises(ValueError, match="atom index out of range"):
            default_atomic_candidates(mu, bad)
        with pytest.raises(ValueError, match="atom index out of range"):
            atomic_maximal_lower(mu, bad, F(1, 2))


def test_atom_indices_that_are_not_integers_raise_a_type_error():
    # a bool or float index once reached numpy's indexing cold, and passed warm,
    # since the memo key (1.0,) equals (1,)
    mu = AtomicMeasure([((F(0),), F(1)), ((F(1),), F(2))])
    for bad in ([True], [1.0], [0, F(1)]):
        with pytest.raises(TypeError, match="atom indices must be integers, got "):
            default_atomic_candidates(mu, bad)
        with pytest.raises(TypeError, match="atom indices must be integers, got "):
            atomic_maximal_lower(mu, bad, F(1, 2))
        warm = atomic_maximal_lower(mu, [np.int64(1)], F(1, 2))
        with pytest.raises(TypeError, match="atom indices must be integers, got "):
            atomic_maximal_lower(mu, bad, F(1, 2))
        assert atomic_maximal_lower(mu, [1], F(1, 2)) == warm


def test_atomic_measure_rejects_empty_list():
    with pytest.raises(ValueError, match="at least one atom"):
        AtomicMeasure([])


# -- remembered alpha-free stages ---------------------------------------------
# Each engine keeps its last alpha-free stage on the measure object; these
# tests see that entry only as the one attribute the calls add.

ALPHAS = st.fractions(min_value=F(1, 64), max_value=F(63, 64), max_denominator=64)
LADDER = st.lists(ALPHAS, min_size=1, max_size=6)


def memo_entries(obj, before):
    return [v for k, v in vars(obj).items() if k not in before]


def fresh_grid_weight(w):
    return GridWeight(w.values.copy())


def expected_superlevel(e, alpha, spec, w):
    """The exact oracle where `superlevel` decides exactly (1-D uncentered with
    a weight); elsewhere fresh `grid_maximal` values against alpha."""
    if e.ndim == 1 and spec == WEIGHTED:
        return superlevel_1d_exact(e, alpha, w)
    return grid_maximal(e, spec, measured(spec, fresh_grid_weight(w))) > alpha


def fresh_piecewise(w):
    return PiecewiseWeight1D(w.breakpoints, w.densities)


@given(grid_cases(), LADDER)
def test_superlevel_ladder_equals_fresh_weights(case, alphas):
    e, spec, w = case
    for alpha in alphas:
        got = superlevel(e, float(alpha), spec, measured(spec, w))
        fresh = measured(spec, fresh_grid_weight(w))
        assert np.array_equal(got, superlevel(e, float(alpha), spec, fresh))


@given(grid_cases(), LADDER)
def test_superlevel_interleaved_sets(case, alphas):
    # E and ~E take turns in the weight's one entry; a Lebesgue call on E in
    # between has no measure object, so it leaves that entry as it was
    e, _, w = case
    w.table
    w.exact
    before = set(vars(w))
    for alpha in alphas:
        for s in (e, ~e):
            expect = expected_superlevel(s, float(alpha), WEIGHTED, w)
            assert np.array_equal(superlevel(s, float(alpha), WEIGHTED, w), expect)
            (entry,) = memo_entries(w, before)
            superlevel(e, float(alpha))
            (kept,) = memo_entries(w, before)
            assert kept is entry


@given(grid_cases(), st.data())
def test_superlevel_follows_a_mask_changed_in_place(case, data):
    e, spec, w = case
    e = e.copy()
    for _ in range(3):
        cell = tuple(data.draw(st.integers(0, n - 1)) for n in e.shape)
        superlevel(e, 0.5, spec, measured(spec, w))
        e[cell] = not e[cell]
        expect = expected_superlevel(e, 0.5, spec, w)
        assert np.array_equal(superlevel(e, 0.5, spec, measured(spec, w)), expect)


def test_superlevel_tells_equal_bytes_of_other_shape_apart():
    w = GridWeight(np.ones(4))
    e = np.array([True, False, False, False])
    spec = MaximalSpec("uncentered", "grid-weight")
    assert superlevel(e, 0.3, spec, w).shape == (4,)
    with pytest.raises(ValueError, match="differ in shape"):
        superlevel(e.reshape(2, 2), 0.3, spec, w)


def test_a_weight_with_the_lebesgue_measure_is_rejected():
    # the grid engine used to drop the weight: [1, 100, 1, ...] gave the Lebesgue
    # values 1, 1/2, 1/3, ..., and superlevel kept them on the weight
    w = GridWeight(np.array([1.0, 100.0] + [1.0] * 6))
    e = single_cell(8, 0)
    before = set(vars(w))
    for call in (lambda: grid_maximal(e, MaximalSpec(), w),
                 lambda: superlevel(e, 0.4, MaximalSpec(), w)):
        with pytest.raises(ValueError, match="lebesgue measure takes no weight"):
            call()
    assert set(vars(w)) == before


def test_superlevel_returns_fresh_arrays_and_keeps_one_read_only_entry():
    w = generate_weight(WeightFamilySpec("log-smooth-random", 1, 32, seed=4))
    w.table
    w.exact
    before = set(vars(w))
    spec = MaximalSpec("uncentered", "grid-weight")
    e = np.random.default_rng(4).random(32) < 0.3
    first = superlevel(e, 0.5, spec, w)
    again = superlevel(e, 0.5, spec, w)
    assert first.flags.writeable and first.flags.owndata
    assert not np.shares_memory(first, again)
    first[:] = ~first
    assert np.array_equal(superlevel(e, 0.5, spec, w), again)
    for k in range(1, 6):
        superlevel(np.roll(e, k), 1 - 2.0**-k, spec, w)
        (entry,) = memo_entries(w, before)
        assert not entry[1].flags.writeable


def test_lebesgue_superlevel_keeps_nothing():
    w = generate_weight(WeightFamilySpec("constant", 1, 8))
    e = single_cell(8, 3)
    before = set(vars(w))
    superlevel(e, 0.5)
    grid_maximal(e, MaximalSpec("uncentered", "grid-weight"), w)
    assert memo_entries(w, before | {"table"}) == []


@given(wide_halo_cases(), piecewise_weights(), LADDER)
def test_halo_ladder_equals_fresh_weights(case, w, alphas):
    e = case[0]
    for alpha in alphas:
        assert exact_halo_1d(e, alpha, w) == exact_halo_1d(e, alpha, fresh_piecewise(w))


@given(wide_halo_cases(), wide_halo_cases(), piecewise_weights(), LADDER)
def test_halo_interleaved_sets(case1, case2, w, alphas):
    sets = [case1[0], case2[0]]
    for alpha in alphas:
        for e in sets:
            assert exact_halo_1d(e, alpha, w) == exact_halo_1d(e, alpha, fresh_piecewise(w))


def test_halo_keeps_one_entry():
    w = fresh_piecewise(ANCHOR_WEIGHTS[2])
    w.quantile(0)
    before = set(vars(w))
    for k in range(1, 6):
        e = IntervalSet([(F(k, 10), F(k + 1, 10))])
        for alpha in (F(1, 2), F(3, 4)):
            exact_halo_1d(e, alpha, w)
        (entry,) = memo_entries(w, before)
        assert entry[0] == e


def test_point_eval_shares_the_halo_entry():
    w = fresh_piecewise(ANCHOR_WEIGHTS[2])
    w.quantile(0)
    fresh_piecewise(w)  # caches w's breakpoints and densities, which the loop reads
    before = set(vars(w))
    sets = [IntervalSet([(F(4, 9), F(11, 18))]),
            IntervalSet([(F(1, 10), F(1, 5)), (F(7, 10), F(3, 4))])]
    for e in sets + sets[::-1]:
        assert point_eval_1d(e, F(1, 3), w) == point_eval_1d(e, F(1, 3), fresh_piecewise(w))
        (entry,) = memo_entries(w, before)
        assert entry[0] == e
        for alpha in (F(1, 2), F(3, 4)):
            halo = exact_halo_1d(e, alpha, w)
            assert halo == exact_halo_1d(e, alpha, fresh_piecewise(w))
            for x in halo.breakpoints():
                assert point_eval_1d(e, x, w) == point_eval_1d(e, x, fresh_piecewise(w))
        (again,) = memo_entries(w, before)
        assert again is entry


@st.composite
def grid_weights_1d(draw):
    """1-D GridWeights of positive cells: 1-8 ODD_CELLS, one of them, or a
    `generate_weight` family at N <= 16."""
    kind = draw(st.sampled_from(("odd", "one", "family")))
    if kind != "family":
        size = 1 if kind == "one" else draw(st.integers(min_value=1, max_value=8))
        return GridWeight(np.array(draw(st.lists(st.sampled_from(ODD_CELLS),
                                                 min_size=size, max_size=size))))
    spec = WeightFamilySpec(
        draw(st.sampled_from(("constant", "checkerboard", "power", "log-smooth-random"))), 1,
        draw(st.integers(min_value=1, max_value=16)), a=draw(st.sampled_from((-0.5, 1.0, 2.0))),
        x0=draw(st.floats(min_value=0, max_value=1)), seed=draw(st.integers(0, 99)))
    w = generate_weight(spec)
    assume(np.all(w.values > 0))
    return w


@given(grid_weights_1d(), st.lists(unit_points, min_size=2, max_size=6, unique=True), LADDER)
@example(GridWeight(np.array([0.5, 1.5])), [F(1, 3), F(3, 4)], [F(1, 2)])  # gcd(2, 2, 6) = 2
def test_from_grid_reads_the_exact_masses(gw, pts, alphas):
    # from_grid builds its table from GridWeight.exact; the public constructor
    # builds it from the Fraction breakpoints and densities
    w = PiecewiseWeight1D.from_grid(gw)
    n = gw.resolution
    assert w.breakpoints == tuple(F(i, n) for i in range(n + 1))
    assert w.densities == tuple(F(float(v)) * n for v in gw.values)
    fresh = fresh_piecewise(w)
    assert w == fresh and hash(w) == hash(fresh)
    pts = sorted(pts)[:len(pts) // 2 * 2]
    e = IntervalSet(zip(pts[::2], pts[1::2]))
    top = fresh.distribution(1)
    for x in pts + [F(0), F(1)]:
        assert w.distribution(x) == fresh.distribution(x)
        assert w.quantile(x * top) == fresh.quantile(x * top)
        assert point_eval_1d(e, x, w) == point_eval_1d(e, x, fresh)
    for a, b in itertools.combinations(pts, 2):
        assert w.mass(a, b) == fresh.mass(a, b)
    for alpha in alphas:
        assert exact_halo_1d(e, alpha, w) == exact_halo_1d(e, alpha, fresh)


def test_from_grid_builds_no_fraction(monkeypatch):
    gw = GridWeight(np.array(ODD_CELLS))
    with monkeypatch.context() as m:
        m.setattr(maximal, "Fraction", lambda *args: pytest.fail("from_grid built a Fraction"))
        w = PiecewiseWeight1D.from_grid(gw)
    n = gw.resolution
    assert w.breakpoints == tuple(F(i, n) for i in range(n + 1))
    assert w.densities == tuple(F(float(v)) * n for v in gw.values)


def test_from_grid_rejects_zero_cells_and_2d_grids():
    with pytest.raises(ValueError, match="piecewise densities must be positive"):
        PiecewiseWeight1D.from_grid(GridWeight(np.array([1.0, 0.0, 2.0])))
    with pytest.raises(ValueError, match="only 1-D grid weights"):
        PiecewiseWeight1D.from_grid(GridWeight(np.ones((2, 2))))


def test_a_warm_weighted_halo_converts_no_endpoint(monkeypatch):
    # the entry holds F(E) as ints and the halo's endpoints are checked as
    # ints, so on a warm entry at most alpha passes through `_to_rat`
    w = PiecewiseWeight1D.from_grid(
        generate_weight(WeightFamilySpec("log-smooth-random", 1, 16, seed=3)))
    e = IntervalSet([(F(1, 8), F(1, 4)), (F(9, 16), F(5, 8))])
    exact_halo_1d(e, F(1, 2), w)
    calls = []
    monkeypatch.setattr(maximal, "_to_rat", lambda x: calls.append(x) or _to_rat(x))
    halo = exact_halo_1d(e, F(3, 4), w)
    assert len(calls) <= 1
    # the patch is live: the public constructor converts every endpoint
    before = len(calls)
    assert IntervalSet(halo.intervals) == halo
    assert len(calls) == before + 2 * len(halo.intervals)


@settings(max_examples=200)
@given(atomic_cases(), LADDER)
def test_atomic_ladder_equals_fresh_measures(case, alphas):
    mu, e_idx, _ = case
    for alpha in alphas:
        got = atomic_maximal_lower(mu, e_idx, alpha)
        assert got == atomic_maximal_lower(AtomicMeasure(mu.atoms), e_idx, alpha)


@given(atomic_cases(), LADDER)
def test_atomic_interleaved_sets(case, alphas):
    mu, e_idx, _ = case
    before = set(vars(mu))
    sets = [e_idx, list(range(len(mu.atoms)))[::-1], e_idx[:1]]
    for alpha in alphas:
        for idx in sets:
            assert (atomic_maximal_lower(mu, idx, alpha)
                    == atomic_maximal_lower(AtomicMeasure(mu.atoms), idx, alpha))
            (entry,) = memo_entries(mu, before)
            assert entry[0] == tuple(idx)


def test_atomic_follows_an_index_list_changed_in_place():
    mu = harmonic_measure(8)
    idx = [0]
    atomic_maximal_lower(mu, idx, F(3, 4))
    idx.append(3)
    assert atomic_maximal_lower(mu, idx, F(3, 4)) == atomic_maximal_lower(
        harmonic_measure(8), [0, 3], F(3, 4))



# -- input checks ------------------------------------------------------------------


@pytest.mark.parametrize("make, match", [
    (lambda: MaximalSpec("sideways"), "unknown variant 'sideways'"),
    (lambda: MaximalSpec("centered"), "unknown variant 'centered'"),
    (lambda: MaximalSpec("dyadic"), "unknown variant 'dyadic'"),
    (lambda: MaximalSpec(measure="counting"),
     "grid engine supports lebesgue or grid-weight, got 'counting'"),
    (lambda: grid_maximal(single_cell(4, 0), MaximalSpec(measure="grid-weight")),
     "grid-weight measure needs a weight"),
    (lambda: PiecewiseWeight1D([0, 1], [1, 2]), r"need k\+1 breakpoints for k pieces"),
    (lambda: PiecewiseWeight1D([0, 1, 1], [1, 2]), "breakpoints must be strictly increasing"),
    (lambda: PiecewiseWeight1D([0, 1], [1]).mass(F(1, 2), F(1, 4)), "empty interval"),
    (lambda: exact_halo_1d(IntervalSet([]), F(1, 2)), "empty set"),
    (lambda: point_eval_1d(IntervalSet([]), 0), "empty set"),
    (lambda: AtomicMeasure([((0,), 0)]), "atom masses must be positive"),
    (lambda: AtomicMeasure([((0,), 1), ((0,), 2)]), "atom points must be distinct"),
    (lambda: AtomicMeasure([((0,), 1), ((0, 1), 2)]), "atoms must share a dimension"),
], ids=["variant", "centered", "dyadic", "measure", "no-weight", "pieces", "breakpoints", "empty-interval",
        "halo-of-empty", "eval-of-empty", "atom-mass", "atom-points", "atom-dims"])
def test_bad_input_raises_a_value_error(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("pt", [(), (0, 0, 0, 0)])
def test_atomic_measure_rejects_points_outside_dimensions_1_to_3(pt):
    # unchecked, the atom passed here and its candidate boxes failed later
    with pytest.raises(ValueError, match=r"supported dimensions are 1\.\.3"):
        AtomicMeasure([(pt, 1)])


def test_exact_1d_engines_reject_a_float():
    e = IntervalSet([(0, 1)])
    with pytest.raises(TypeError, match="expected an exact rational, got float"):
        exact_halo_1d(e, 0.5)
    with pytest.raises(TypeError, match="expected an exact rational, got float"):
        point_eval_1d(e, 0.5)
