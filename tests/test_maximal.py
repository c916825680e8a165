import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (atomic_maximal_lower_float, exact_halo_1d_sweep, grid_maximal_naive,
                     grid_maximal_sides,
                     piecewise_mass_loop, point_eval_1d_direct)
from tauberian_lab.errors import UnsupportedGeometry
from tauberian_lab.geometry import Box
from tauberian_lab.maximal import (
    VARIANTS,
    AtomicMeasure,
    IntervalSet,
    MaximalSpec,
    PiecewiseWeight1D,
    atomic_maximal_lower,
    default_atomic_candidates,
    exact_halo_1d,
    grid_maximal,
    point_eval_1d,
    set_mass,
    superlevel,
)
from tauberian_lab.weights import GridWeight, WeightFamilySpec, generate_weight

F = Fraction


def single_cell(n, idx, dim=1):
    e = np.zeros((n,) * dim, dtype=bool)
    e[idx] = True
    return e


# -- grid engine --------------------------------------------------------------


def test_uncentered_values_small():
    vals = grid_maximal(single_cell(4, 0))
    assert np.allclose(vals, [1, 1 / 2, 1 / 3, 1 / 4])


def test_dyadic_values_small():
    vals = grid_maximal(single_cell(4, 0), MaximalSpec("dyadic"))
    assert np.allclose(vals, [1, 1 / 2, 1 / 4, 1 / 4])


def test_centered_values_small():
    vals = grid_maximal(single_cell(4, 0), MaximalSpec("centered"))
    assert np.allclose(vals, [1, 1 / 3, 0, 0])


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


def test_dyadic_requires_power_of_two():
    with pytest.raises(ValueError):
        grid_maximal(single_cell(6, 0), MaximalSpec("dyadic"))


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
    (1, "centered", "lebesgue"): "9c998b076e9317c54c88bdbd77f05164ddafdac678b69cde5dc7e12aaa2fa435",
    (1, "centered", "grid-weight"): "9a0549d6ed15701589fe5d3c7e260cdabba1af5681666945c7237f6b0916a104",
    (1, "dyadic", "lebesgue"): "32fefe73ca7c0985d5e7a29b23085ee7114af6699d1fc22c08493637b9f23c87",
    (1, "dyadic", "grid-weight"): "6c56b04d28b795eccc7fd064a8f4b39e812bd45c9aa1ba33d1c6ec989704f8b6",
    (2, "uncentered", "lebesgue"): "ddf9db319aa774a810441d10a3e862d28755db2d58d98f622658edc03fd19611",
    (2, "uncentered", "grid-weight"): "e9cc643870078016d015a6167497396f41ebb5657f96be60ca6d81de439cc0f4",
    (2, "centered", "lebesgue"): "6e302f8b93abeb236d32169811104cc4526a61d43b89fdbd23e2dbb70d4fbcd0",
    (2, "centered", "grid-weight"): "2426fcbb53d270ac354d7a198af039765887299683686d10883a7be846e90144",
    (2, "dyadic", "lebesgue"): "4ad677179d340ccffc635af443227406e613f5860488a7bf7ea000c7f0d79fa0",
    (2, "dyadic", "grid-weight"): "5f7b8ad7eb00376de683d57dbe2686e9a8c2fa2be0c8660415af39c96b85c0e1",
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
    vals = grid_maximal(e, MaximalSpec(variant, measure), w)
    assert hashlib.sha256(vals.tobytes()).hexdigest() == MAXIMAL_DIGESTS[key]


def test_zero_mass_cubes_are_skipped_2d():
    # the cube of the zero cell (2, 1) alone has mass 0 and must not count;
    # prefix differences once rounded its E-mass and mass to 1.1e-16 and
    # 5.6e-17, a ratio of 2
    w = GridWeight(np.array([[0, .2, .3], [.2, .7, 0], [.9, 0, 0]]))
    e = np.array([[1, 1, 1], [0, 0, 1], [1, 1, 1]], dtype=bool)
    uncentered = grid_maximal(e, MaximalSpec("uncentered", "grid-weight"), w)
    centered = grid_maximal(e, MaximalSpec("centered", "grid-weight"), w)
    assert uncentered[2, 1] == pytest.approx(1.4 / 2.3)
    assert centered[2, 1] == 0.0
    assert np.all(uncentered <= 1) and np.all(centered <= 1)


# cell masses: exact zeros, or within a factor 16 of each other; every cube
# mass is exact to d*s*u relative to itself, far inside the 1e-9 tolerance
CELLS = st.one_of(st.just(0.0), st.floats(min_value=0.25, max_value=4.0))


@st.composite
def grid_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    variant = draw(st.sampled_from(VARIANTS))
    sizes = [1, 2, 4, 8] if variant == "dyadic" else range(1, 13 if dim == 1 else 7)
    n = draw(st.sampled_from([k for k in sizes if dim == 1 or k <= 6]))
    shape = (n,) * dim
    e = np.reshape(draw(st.lists(st.booleans(), min_size=n**dim, max_size=n**dim)), shape)
    cells = draw(st.lists(CELLS, min_size=n**dim, max_size=n**dim)
                 .filter(lambda v: sum(v) > 0))
    measure = draw(st.sampled_from(["lebesgue", "grid-weight"]))
    return e, MaximalSpec(variant, measure), GridWeight(np.reshape(cells, shape))


@given(grid_cases())
def test_grid_maximal_matches_naive(case):
    e, spec, w = case
    assert grid_maximal(e, spec, w) == pytest.approx(grid_maximal_naive(e, spec, w),
                                                     rel=1e-9, abs=1e-9)


@settings(max_examples=300)
@given(grid_cases())
def test_grid_maximal_equals_per_side_sweep_bit_for_bit(case):
    e, spec, w = case
    assert grid_maximal(e, spec, w).tobytes() == grid_maximal_sides(e, spec, w).tobytes()


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
def test_grid_maximal_result_holds_no_table(dim, n):
    w = generate_weight(WeightFamilySpec("log-smooth-random", dim, n, seed=3))
    e = np.random.default_rng(3).random((n,) * dim) < 0.4
    for variant in VARIANTS:
        for measure in ("lebesgue", "grid-weight"):
            vals = grid_maximal(e, MaximalSpec(variant, measure), w)
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
    with pytest.raises(ValueError, match="weight grid and set grid differ in shape"):
        set_mass(np.ones(4, bool), GridWeight(np.ones(8)))


# -- IntervalSet / PiecewiseWeight1D ------------------------------------------


def test_interval_set_merge_and_measure():
    s = IntervalSet.merge([(F(1), F(2)), (F(0), F(1)), (F(3), F(4))])
    assert s.intervals == ((F(0), F(2)), (F(3), F(4)))
    assert s.measure() == 3


def test_interval_set_merge_converts_before_dropping_degenerate():
    # "1/2" < "1" is False as strings, and 0 < "1/2" raises TypeError
    assert IntervalSet.merge([("1/2", "1")]) == IntervalSet([("1/2", "1")])
    assert IntervalSet.merge([(0, "1/2"), ("1", "1")]).intervals == ((F(0), F(1, 2)),)


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
    gw = generate_weight(WeightFamilySpec("checkerboard", 1, 4, levels=(1.0, 3.0)))
    pw = PiecewiseWeight1D.from_grid(gw)
    assert pw.mass(F(0), F(1)) == F(gw.total_mass)


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


def test_grid_superlevel_inside_exact_halo():
    rng = np.random.default_rng(23)
    trials = 0
    while trials < 100:
        n = int(rng.integers(4, 13))
        mask = rng.random(n) < 0.35
        if not mask.any():
            continue
        trials += 1
        alpha = float(rng.uniform(0.2, 0.95))
        e_exact = IntervalSet.merge(
            [(F(i, n), F(i + 1, n)) for i in np.flatnonzero(mask)])
        halo = exact_halo_1d(e_exact, F(alpha).limit_denominator(997))
        lv = superlevel(mask, float(F(alpha).limit_denominator(997)))
        cells = IntervalSet.merge([(F(int(c), n), F(int(c) + 1, n))
                                   for c in np.flatnonzero(lv)])
        assert halo.contains_set(cells)


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


def test_atomic_rejects_candidate_of_other_dimension():
    mu = AtomicMeasure([((F(0),), F(1)), ((F(1),), F(2))])
    with pytest.raises(UnsupportedGeometry, match="dimension mismatch"):
        atomic_maximal_lower(mu, [0], F(1, 2), [Box((F(0),), 1), Box((F(0), F(0)), 1)])


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
    boxes = st.builds(Box, st.tuples(*[rationals(-2, 2)] * d),
                      rationals(0, 4).filter(lambda side: side > 0))
    candidates = draw(st.one_of(st.none(), st.just([]), st.lists(boxes, max_size=12)))
    return AtomicMeasure(list(zip(pts, masses))), e_idx, alpha, candidates


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


def test_atomic_measure_rejects_empty_list():
    with pytest.raises(ValueError, match="at least one atom"):
        AtomicMeasure([])


# -- remembered alpha-free stages ---------------------------------------------
# Each engine keeps its last alpha-free stage on the measure object; these
# tests see that entry only as the one attribute the calls add.

LADDER = st.lists(st.fractions(min_value=F(1, 64), max_value=F(63, 64), max_denominator=64),
                  min_size=1, max_size=6)


def memo_entries(obj, before):
    return [v for k, v in vars(obj).items() if k not in before]


def fresh_grid_weight(w):
    return GridWeight(w.values.copy())


def fresh_piecewise(w):
    return PiecewiseWeight1D(w.breakpoints, w.densities)


@given(grid_cases(), LADDER)
def test_superlevel_ladder_equals_fresh_weights(case, alphas):
    e, spec, w = case
    for alpha in alphas:
        got = superlevel(e, float(alpha), spec, w)
        assert np.array_equal(got, superlevel(e, float(alpha), spec, fresh_grid_weight(w)))


@given(grid_cases(), LADDER)
def test_superlevel_interleaved_sets_and_specs(case, alphas):
    e, spec, w = case
    other = MaximalSpec(spec.variant, "lebesgue" if spec.measure == "grid-weight"
                        else "grid-weight")
    calls = [(e, spec), (e, other), (~e, other), (~e, spec)]
    for alpha in alphas:
        for s, sp in calls:
            expect = grid_maximal(s, sp, fresh_grid_weight(w)) > float(alpha)
            assert np.array_equal(superlevel(s, float(alpha), sp, w), expect)


@given(grid_cases(), st.data())
def test_superlevel_follows_a_mask_changed_in_place(case, data):
    e, spec, w = case
    e = e.copy()
    for _ in range(3):
        cell = tuple(data.draw(st.integers(0, n - 1)) for n in e.shape)
        superlevel(e, 0.5, spec, w)
        e[cell] = not e[cell]
        expect = grid_maximal(e, spec, fresh_grid_weight(w)) > 0.5
        assert np.array_equal(superlevel(e, 0.5, spec, w), expect)


def test_superlevel_tells_equal_bytes_of_other_shape_apart():
    w = GridWeight(np.ones(4))
    e = np.array([True, False, False, False])
    lebesgue = MaximalSpec()
    assert superlevel(e, 0.3, lebesgue, w).shape == (4,)
    assert np.array_equal(superlevel(e.reshape(2, 2), 0.3, lebesgue, w),
                          superlevel(e.reshape(2, 2), 0.3))


def test_superlevel_returns_fresh_arrays_and_keeps_one_read_only_entry():
    w = generate_weight(WeightFamilySpec("log-smooth-random", 1, 32, seed=4))
    w.table
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
        superlevel(np.roll(e, k), 1 - 2.0**-k, MaximalSpec(VARIANTS[k % 3], "grid-weight"), w)
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


@settings(max_examples=200)
@given(atomic_cases(), LADDER)
def test_atomic_ladder_equals_fresh_measures(case, alphas):
    mu, e_idx, _, candidates = case
    for alpha in alphas:
        got = atomic_maximal_lower(mu, e_idx, alpha, candidates)
        assert got == atomic_maximal_lower(AtomicMeasure(mu.atoms), e_idx, alpha, candidates)


@given(atomic_cases(), LADDER)
def test_atomic_interleaved_sets(case, alphas):
    mu, e_idx, _, _ = case
    sets = [e_idx, list(range(len(mu.atoms)))[::-1], e_idx[:1]]
    for alpha in alphas:
        for idx in sets:
            assert (atomic_maximal_lower(mu, idx, alpha)
                    == atomic_maximal_lower(AtomicMeasure(mu.atoms), idx, alpha))


def test_atomic_follows_an_index_list_changed_in_place():
    mu = harmonic_measure(8)
    idx = [0]
    atomic_maximal_lower(mu, idx, F(3, 4))
    idx.append(3)
    assert atomic_maximal_lower(mu, idx, F(3, 4)) == atomic_maximal_lower(
        harmonic_measure(8), [0, 3], F(3, 4))


def test_atomic_explicit_candidates_leave_the_entry_alone():
    mu = harmonic_measure(8)
    before = set(vars(mu))
    explicit = [Box((F(0), F(0)), F(1, 2)), Box((F(1, 2), F(1, 2)), F(1))]
    atomic_maximal_lower(mu, [0], F(1, 2), explicit)
    assert memo_entries(mu, before) == []
    atomic_maximal_lower(mu, [0], F(1, 2))
    (entry,) = memo_entries(mu, before)
    for k in range(1, 4):
        atomic_maximal_lower(mu, [k], F(1, 2), explicit)
        assert memo_entries(mu, before)[0] is entry
    for k in range(1, 4):
        atomic_maximal_lower(mu, [0, k], F(1, 2))
        assert len(memo_entries(mu, before)) == 1
