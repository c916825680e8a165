import hashlib
from fractions import Fraction

import numpy as np
import pytest

from tauberian_lab.maximal import (
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
# sha256 of grid_maximal(...).tobytes(), computed with the hand-written
# prefix and window sums that the gridops kernel replaced
MAXIMAL_DIGESTS = {
    (1, "uncentered", "lebesgue"): "ee52d15d063a904eb571dab27f6dedd8829923c961af6d898801b5249bf0c39e",
    (1, "uncentered", "grid-weight"): "b32586c1b3ca24ba4bf390d12d07fdfa7ec709f1a242607faa350f9d32209890",
    (1, "centered", "lebesgue"): "9c998b076e9317c54c88bdbd77f05164ddafdac678b69cde5dc7e12aaa2fa435",
    (1, "centered", "grid-weight"): "6d12cc4d00ab9938929f3b8c7b2d7a71dea6ad0d5bf0de03fccee082b759605e",
    (1, "dyadic", "lebesgue"): "32fefe73ca7c0985d5e7a29b23085ee7114af6699d1fc22c08493637b9f23c87",
    (1, "dyadic", "grid-weight"): "b5d5cb7f738862dc3e8d143f8b8abdcdb922b7148f5894b1d8a1ff08d05f1fe3",
    (2, "uncentered", "lebesgue"): "ddf9db319aa774a810441d10a3e862d28755db2d58d98f622658edc03fd19611",
    (2, "uncentered", "grid-weight"): "01ba43e028de88634ff1442e331cf0df77717355c54d94e7a566435c3cd76adf",
    (2, "centered", "lebesgue"): "6e302f8b93abeb236d32169811104cc4526a61d43b89fdbd23e2dbb70d4fbcd0",
    (2, "centered", "grid-weight"): "ea39093d68dcd4a41e4cf3036a656046c7471a5273158b097c6f208b736af05b",
    (2, "dyadic", "lebesgue"): "4ad677179d340ccffc635af443227406e613f5860488a7bf7ea000c7f0d79fa0",
    (2, "dyadic", "grid-weight"): "9da39acd757c8eac3e6d48fed4c987b940b85770e65ffdfa34d829baec10dc85",
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


def test_set_mass():
    w = generate_weight(WeightFamilySpec("power", 1, 8, a=1.0))
    e = np.zeros(8, dtype=bool)
    e[4:] = True
    assert set_mass(e) == pytest.approx(0.5)
    assert set_mass(e, w) == pytest.approx(w.values[4:].sum())


# -- IntervalSet / PiecewiseWeight1D ------------------------------------------


def test_interval_set_merge_and_measure():
    s = IntervalSet.merge([(F(1), F(2)), (F(0), F(1)), (F(3), F(4))])
    assert s.intervals == ((F(0), F(2)), (F(3), F(4)))
    assert s.measure() == 3


def test_interval_set_validation():
    with pytest.raises(ValueError):
        IntervalSet([(F(0), F(0))])
    with pytest.raises(ValueError):
        IntervalSet([(F(0), F(2)), (F(1), F(3))])


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
