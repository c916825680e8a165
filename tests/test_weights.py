import itertools
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (ap_constant_sides, doubling_exact, doubling_window_loop, fsum_mass,
                     fujii_wilson_naive,
                     fujii_wilson_sides, growth_profile_sides, hruscev_constant_sides,
                     reverse_holder_holds_sides, sidelength_growth_exponent_pairs,
                     side_sum_rel)
from tauberian_lab.weights import (
    DEFAULT_PROFILE_T,
    GridCube,
    GridWeight,
    WeightFamilySpec,
    ap_constant,
    compute_weight_constants,
    doubling_constant,
    fit_growth_exponent,
    fujii_wilson,
    generate_weight,
    growth_profile,
    hruscev_constant,
    reverse_holder_exponent,
    reverse_holder_holds,
    sidelength_growth_exponent,
    _doubling_pairs,
    _side_volumes,
)
from tauberian_lab.errors import BudgetExceeded, DegenerateFit


def const_w(n, dim=1):
    return generate_weight(WeightFamilySpec("constant", dim, n))


def power_w(n, a, dim=1, x0=0.0):
    return generate_weight(WeightFamilySpec("power", dim, n, a=a, x0=x0))


CORPUS_1D = [
    WeightFamilySpec("constant", 1, 64),
    WeightFamilySpec("power", 1, 64, a=1.0),
    WeightFamilySpec("power", 1, 64, a=2.0),
    WeightFamilySpec("power", 1, 64, a=4.0),
    WeightFamilySpec("checkerboard", 1, 64),
    WeightFamilySpec("log-smooth-random", 1, 64, seed=5),
]


# -- generation ---------------------------------------------------------------


def test_constant_cells():
    w = const_w(4)
    assert np.allclose(w.values, 0.25)


def test_power_exact_integrals():
    w = power_w(2, 1.0)
    assert np.allclose(w.values, [1 / 8, 3 / 8])


def test_log_smooth_deterministic():
    spec = WeightFamilySpec("log-smooth-random", 2, 16, seed=9)
    a, b = generate_weight(spec), generate_weight(spec)
    assert np.array_equal(a.values, b.values)


def test_power_integrability_guard():
    with pytest.raises(ValueError):
        generate_weight(WeightFamilySpec("power", 1, 8, a=-1.0))


@pytest.mark.parametrize("dim,x0", [(2, (0.5,)), (1, (0.5, 0.2)), (2, (0.1, 0.2, 0.3))])
def test_power_rejects_x0_of_another_dimension(dim, x0):
    # a 2-D spec given one coordinate once raised IndexError, and a 1-D spec
    # given two silently used the first
    with pytest.raises(ValueError, match=f"x0 needs {dim} coordinates, got {len(x0)}"):
        generate_weight(WeightFamilySpec("power", dim, 4, a=1.0, x0=x0))


@pytest.mark.parametrize("n, x0", [(3, (0.5, 0.5)), (4, (0.125, 0.625))])
def test_power_rejects_a_negative_exponent_at_a_cell_midpoint(n, x0):
    # r2 ** (a / 2) divided by zero there, and GridWeight then refused the inf;
    # warnings are errors in this suite, so the divide warning would fail it too
    with pytest.raises(ValueError, match="infinite at x0, which sits on a cell midpoint"):
        generate_weight(WeightFamilySpec("power", 2, n, a=-1.0, x0=x0))
    generate_weight(WeightFamilySpec("power", 2, n, a=1.0, x0=x0))


# -- cube mass / average ------------------------------------------------------


def test_full_cube_mass_constant():
    w = const_w(8)
    q = GridCube((0,), 8)
    assert w.cube_mass(q) == pytest.approx(1.0)
    assert w.cube_average(q) == pytest.approx(1.0)


def test_cube_mass_matches_naive_sum():
    rng = np.random.default_rng(2)
    vals = rng.random((6, 6))
    w = GridWeight(vals)
    for q in [GridCube((0, 0), 3), GridCube((2, 1), 4), GridCube((5, 5), 1)]:
        naive = vals[q.corner[0] : q.corner[0] + q.side,
                     q.corner[1] : q.corner[1] + q.side].sum()
        assert w.cube_mass(q) == pytest.approx(naive, rel=1e-12)


def test_cube_mass_additive_disjoint():
    w = power_w(16, 2.0)
    m = w.cube_mass(GridCube((0,), 8)) + w.cube_mass(GridCube((8,), 8))
    assert m == pytest.approx(w.total_mass, rel=1e-12)


@pytest.mark.parametrize("bad,name", [(float("nan"), "NaN"), (float("inf"), "inf")])
def test_grid_weight_rejects_non_finite(bad, name):
    for vals in ([1.0, bad, 1.0], [[1.0, 1.0], [bad, 1.0]]):
        with pytest.raises(ValueError, match=name):
            GridWeight(np.array(vals))


@pytest.mark.parametrize("shape", [(8,), (4, 4)])
def test_grid_weight_rejects_overflowing_total_mass(shape):
    # every cell is finite, but their sum overflows; the gauges then read inf
    # or nan off the table, so the weight is refused before any is built
    with pytest.raises(ValueError, match="total mass must be finite"):
        GridWeight(np.full(shape, 1e308))


@pytest.mark.parametrize("values", [[1e308] + [1.0] * 7, [[1e308, 1.0], [1.0, 1.0]]])
def test_grid_weight_rejects_overflowing_density(values):
    # the total is finite, but the largest density, 8e308 or 4e308, is not;
    # the gauges once overflowed dividing by the cell volume
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="largest density must be finite, got inf"):
            GridWeight(np.array(values))


def test_cube_out_of_range():
    w = const_w(4)
    with pytest.raises(ValueError):
        w.cube_mass(GridCube((2,), 4))
    for s in (0, -1, 5):
        with pytest.raises(ValueError, match="cube side must lie in 1..4"):
            w.window_sums(s)


def test_window_sums_are_read_only():
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    w = GridWeight(values)
    for s in (1, 2):
        with pytest.raises(ValueError, match="read-only"):
            w.window_sums(s)[0, 0] = 0.0
    assert values.flags.writeable and w.cube_mass(GridCube((0, 0), 2)) == 10.0


@pytest.mark.parametrize("values", [np.arange(1.0, 6.0), np.arange(1.0, 10.0).reshape(3, 3)])
def test_cached_table_is_read_only(values):
    w = GridWeight(values)
    flat, sides = w.table
    assert not flat.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        flat[0] = 0.0
    for s, side in enumerate(sides, 1):
        assert side is w.window_sums(s) and np.shares_memory(side, flat)
        assert not side.flags.writeable
        with pytest.raises(ValueError):
            side.flags.writeable = True
    assert w.table is w.table and w.cube_mass(GridCube((0,) * w.dim, 1)) == 1.0


@pytest.mark.parametrize("n, dim", [(1, 1), (5, 1), (3, 2)])
def test_cached_side_volumes_are_read_only(n, dim):
    volumes, counts = _side_volumes(n, dim)
    assert volumes.tolist() == [(s / n) ** dim for s in range(1, n + 1)]
    assert counts.tolist() == [a.size for a in GridWeight(np.ones((n,) * dim)).table.sides]
    for a in (volumes, counts):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    assert _side_volumes(n, dim) is _side_volumes(n, dim)


# -- A_p ----------------------------------------------------------------------


@pytest.mark.parametrize("p", [1.5, 2, 4])
def test_ap_constant_weight(p):
    assert ap_constant(const_w(16), p) == pytest.approx(1.0, abs=1e-12)


def test_ap_brute_force_oracle():
    w = power_w(16, 1.0)
    p = 2.0
    dens = w.density
    sig = dens ** (-1.0) * w.cell_volume
    best = 0.0
    count = 0
    for s in range(1, 17):
        for i in range(16 - s + 1):
            count += 1
            vol = s / 16
            avg_w = w.values[i : i + s].sum() / vol
            avg_s = sig[i : i + s].sum() / vol
            best = max(best, avg_w * avg_s ** (p - 1))
    assert count == 136
    assert ap_constant(w, p) == pytest.approx(best, rel=1e-12)
    assert ap_constant(w, p) >= 1.0


def test_ap_nonincreasing_in_p():
    w = power_w(32, 2.0)
    vals = [ap_constant(w, p) for p in (2, 4, 8, 16)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_ap_rejects_zero_cells():
    vals = np.array([0.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        ap_constant(GridWeight(vals), 2.0)


def test_ap_rejects_non_finite_dual_masses():
    # the dual density 4e-300 ** -100 overflows to inf
    with pytest.raises(ValueError, match="A_p dual masses must be finite, got inf"):
        ap_constant(GridWeight([1e-300, 1, 1, 1]), 1.01)


# -- Fujii-Wilson -------------------------------------------------------------


def test_fw_constant_is_one():
    assert fujii_wilson(const_w(32)) == pytest.approx(1.0, abs=1e-12)
    assert fujii_wilson(const_w(8, dim=2)) == pytest.approx(1.0, abs=1e-12)


def test_fw_power_exceeds_one():
    assert fujii_wilson(power_w(64, 2.0)) > 1.0


def test_fw_matches_naive_1d():
    w = power_w(16, 2.0)
    assert fujii_wilson(w) == pytest.approx(fujii_wilson_naive(w), rel=1e-10)


def test_fw_matches_naive_1d_random():
    rng = np.random.default_rng(17)
    w = GridWeight(rng.random(12) + 0.05)
    assert fujii_wilson(w) == pytest.approx(fujii_wilson_naive(w), rel=1e-10)


def test_fw_matches_naive_2d():
    rng = np.random.default_rng(3)
    w = GridWeight(rng.random((6, 6)) + 0.1)
    assert fujii_wilson(w) == pytest.approx(fujii_wilson_naive(w), rel=1e-10)


def test_fw_nondecreasing_in_resolution():
    for a in (1.0, 4.0):
        lo = fujii_wilson(power_w(32, a))
        hi = fujii_wilson(power_w(64, a))
        assert hi >= lo - 1e-12


def test_fw_nondecreasing_under_cell_split_2d():
    # splitting each cell into four keeps every N=32 cube and adds finer ones
    for spec in (WeightFamilySpec("power", 2, 32, a=1.0, x0=(0.4, 0.6)),
                 WeightFamilySpec("log-smooth-random", 2, 32, seed=4)):
        w = generate_weight(spec)
        fine = GridWeight(np.kron(w.values, np.full((2, 2), 0.25)))
        assert fine.resolution == 64
        assert fujii_wilson(fine) >= fujii_wilson(w) - 1e-12


@pytest.mark.parametrize("shape", [(8,), (4, 4)])
def test_fw_rejects_overflowing_integrals(shape):
    # the largest density, 8e307 or 1.6e308, is finite, but a cube's integral
    # of M(w 1_Q) sums several of them past the largest float
    values = np.ones(shape)
    values.flat[0] = 1e307
    w = GridWeight(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="Fujii-Wilson cube values must be finite, got inf"):
            fujii_wilson(w)


def test_fw_resolution_cap():
    with pytest.raises(BudgetExceeded):
        fujii_wilson(const_w(128, dim=2))
    with pytest.raises(BudgetExceeded):
        fujii_wilson(const_w(2048))


# values computed by an earlier, independent per-cube evaluation with pruning,
# over the cube masses of the per-side kernel (now gridops.side_table); the sweep does the same float
# operations on each candidate, so it must reproduce them to the last bit
FW_PINNED = [
    (WeightFamilySpec("constant", 1, 64), 1.0),
    (WeightFamilySpec("power", 1, 64, a=1.0), 1.4921875),
    (WeightFamilySpec("power", 1, 64, a=2.0), 1.8177490234374998),
    (WeightFamilySpec("power", 1, 64, a=4.0), 2.2522664368152623),
    (WeightFamilySpec("checkerboard", 1, 64), 1.6804790632423978),
    (WeightFamilySpec("log-smooth-random", 1, 64, seed=5), 1.3434294415838401),
    (WeightFamilySpec("power", 1, 256, a=2.0, x0=0.37), 2.0419581586904356),
    (WeightFamilySpec("power", 1, 128, a=-0.5, x0=0.5), 2.1683866925943014),
    (WeightFamilySpec("log-smooth-random", 2, 16, seed=9), 1.1371108895723394),
    (WeightFamilySpec("power", 2, 16, a=1.0, x0=(0.3, 0.6)), 1.3505305471813425),
    (WeightFamilySpec("power", 2, 16, a=-1.0, x0=(0.5, 0.5)), 2.195973498720304),
    (WeightFamilySpec("checkerboard", 2, 16), 1.4622218001716571),
    (WeightFamilySpec("power", 2, 32, a=2.0, x0=(0.45, 0.55)), 1.6593155322204642),
]


@pytest.mark.parametrize("spec,value", FW_PINNED, ids=[s.label() for s, _ in FW_PINNED])
def test_fw_pinned_values(spec, value):
    assert fujii_wilson(generate_weight(spec)) == value


def test_fw_pinned_values_zero_cells():
    w1 = GridWeight(np.array([0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 0.0, 0.0]))
    w2 = GridWeight(np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 5.0]]))
    assert fujii_wilson(w1) == 2.3333333333333335
    assert fujii_wilson(w2) == 1.8020833333333333


def test_fw_light_cube_beside_heavy_cells():
    # prefix differences, whose error is relative to the grid total, gave
    # 1.7500000000236469 here; sums of the cells give the exact 1.75
    w = GridWeight(np.array([[0, 256, 66], [0, 0, 0], [0.001, 0, 254]]))
    assert fujii_wilson(w) == 1.75


# values computed with cube masses from the per-side kernel (now
# gridops.side_table, which adds in the same order); the gauges keep
# their term order, so they must match to the last bit
GAUGES_PINNED = [
    (WeightFamilySpec("power", 1, 64, a=2.0),
     (2.4227377992126304, (83.20486150089837, 5.863707250489445, 3.295215284963046),
      2.4615384615384617, 0.0625, 3.0)),
    (WeightFamilySpec("checkerboard", 1, 64),
     (1.6068340442494535, (2.381097845541816, 1.8573633982742914, 1.7084938814525426),
      2.0000000000000004, 0.0625, 3.0685084938595226)),
    (WeightFamilySpec("log-smooth-random", 1, 64, seed=5),
     (1.0679369060848705, (1.129779957285667, 1.0893467411071094, 1.0772230879886002),
      2.583534077274692, 0.5, 1.5117793083511515)),
    (WeightFamilySpec("log-smooth-random", 2, 16, seed=9),
     (1.0214859675116283, (1.0464238970154889, 1.029404348728797, 1.0248318390680828),
      4.050872749566112, 1.0, 2.428923778317481)),
    (WeightFamilySpec("power", 2, 16, a=1.0, x0=(0.3, 0.6)),
     (1.179602954568176, (1.6076046327998466, 1.2739834769951401, 1.2167018427578928),
      7.973663764107859, 0.25, 3.819036785370329)),
    (WeightFamilySpec("power", 2, 16, a=-1.0, x0=(0.5, 0.5)),
     (1.3161252896312279, (1.527650181287828, 1.3977800572686276, 1.352668835366876),
      5.040276656949108, 0.125, 2.8481755578625783)),
]


@pytest.mark.parametrize("spec,values", GAUGES_PINNED,
                         ids=[s.label() for s, _ in GAUGES_PINNED])
def test_gauges_pinned_values(spec, values):
    w = generate_weight(spec)
    assert (hruscev_constant(w),
            tuple(ap_constant(w, p) for p in (2.0, 4.0, 8.0)),
            doubling_constant(w),
            reverse_holder_exponent(w, constant=1.05),
            sidelength_growth_exponent(w)) == values


PINNED_WEIGHTS = sorted({spec for spec, _ in FW_PINNED + GAUGES_PINNED}, key=WeightFamilySpec.label)


@pytest.mark.parametrize("spec", PINNED_WEIGHTS, ids=WeightFamilySpec.label)
def test_pinned_weight_masses_within_side_sums_bound(spec):
    # the pins above rest on these cube masses
    w = generate_weight(spec)
    for s in range(1, w.resolution + 1):
        sums = w.window_sums(s)
        for corner in np.ndindex(*sums.shape):
            want = fsum_mass(w.values, GridCube(corner, s))
            assert abs(sums[corner] - want) <= side_sum_rel(w.dim, s) * want


# cell masses with exact zeros among them; grids with no mass are discarded
MASSES = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3))


@st.composite
def grid_weights(draw, dim, max_n):
    n = draw(st.integers(min_value=1, max_value=max_n))
    vals = draw(st.lists(MASSES, min_size=n**dim, max_size=n**dim)
                .filter(lambda v: sum(v) > 0))
    return GridWeight(np.reshape(vals, (n,) * dim))


@given(grid_weights(dim=1, max_n=10))
def test_fw_matches_naive_property_1d(w):
    assert fujii_wilson(w) == pytest.approx(fujii_wilson_naive(w), rel=1e-12)


@given(grid_weights(dim=2, max_n=5))
def test_fw_matches_naive_property_2d(w):
    assert fujii_wilson(w) == pytest.approx(fujii_wilson_naive(w), rel=1e-12)


@given(grid_weights(dim=1, max_n=24))
def test_fw_equals_per_side_loop_1d(w):
    assert fujii_wilson(w) == fujii_wilson_sides(w)


@given(grid_weights(dim=2, max_n=8))
def test_fw_equals_per_side_loop_2d(w):
    assert fujii_wilson(w) == fujii_wilson_sides(w)


# -- Hruscev ------------------------------------------------------------------


def test_hruscev_constant_weight():
    assert hruscev_constant(const_w(16)) == pytest.approx(1.0, abs=1e-12)


def test_hruscev_two_valued_full_cube():
    n = 8
    dens = np.array([1.0] * (n // 2) + [math.e**2] * (n // 2))
    w = GridWeight(dens / n)
    full = (1 + math.e**2) / (2 * math.e)
    assert hruscev_constant(w) >= full - 1e-12
    # the full-cube value itself
    avg = dens.mean()
    geo = math.exp(np.mean(np.log(1 / dens)))
    assert avg * geo == pytest.approx(full, rel=1e-12)


@pytest.mark.parametrize("shape", [(8,), (4, 4)])
def test_hruscev_rejects_overflowing_exp(shape):
    # the average of log(1/w) is about 743 on every cube, past exp's overflow
    # at 709.78; A_p refuses the same weight, whose dual masses overflow
    w = GridWeight(np.full(shape, 5e-324))
    with pytest.raises(ValueError, match="A_p dual masses must be finite, got inf"):
        ap_constant(w, 2.0)
    with pytest.raises(ValueError, match="Hruscev cube values must be finite, got inf"):
        hruscev_constant(w)


def test_hruscev_at_least_one():
    for spec in CORPUS_1D:
        assert hruscev_constant(generate_weight(spec)) >= 1.0 - 1e-12


# -- doubling -----------------------------------------------------------------


@pytest.mark.parametrize("dim,expect", [(1, 2.0), (2, 4.0)])
def test_doubling_constant_weight(dim, expect):
    n = 16 if dim == 1 else 12
    assert doubling_constant(const_w(n, dim=dim)) == pytest.approx(expect, abs=1e-12)


def test_doubling_matches_exact_integral_oracle():
    # even-sided cubes have grid-aligned doubles, so grid masses are the exact
    # integrals of |x|^1 and the grid ratio equals the continuous ratio
    n = 32
    w = power_w(n, 1.0)
    best = 0.0
    for s in range(2, n // 2 + 1, 2):
        h = s // 2
        for i in range(h, n - s - h + 1):
            lo, hi = i / n, (i + s) / n
            dlo, dhi = (i - h) / n, (i + s + h) / n
            inner = (hi**2 - lo**2) / 2
            outer = (dhi**2 - dlo**2) / 2
            best = max(best, outer / inner)
    assert doubling_constant(w) == pytest.approx(best, rel=1e-12)


def test_doubling_at_least_one():
    for spec in CORPUS_1D:
        assert doubling_constant(generate_weight(spec)) >= 1.0


def test_doubling_needs_room():
    with pytest.raises(ValueError):
        doubling_constant(const_w(2))


@pytest.mark.parametrize("values", [
    [1.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0, 1.0],
    [[1.0, 0.0, 0.0, 1.0], [0.0] * 4, [0.0] * 4, [1.0, 0.0, 0.0, 1.0]],
])
def test_doubling_without_an_admissible_cube_of_positive_mass(values):
    # every admissible Q lies in the zero cells, so no ratio is defined
    w = GridWeight(np.array(values))
    for gauge in (doubling_constant, doubling_window_loop):
        with pytest.raises(ValueError, match="no admissible cube with positive mass"):
            gauge(w)


@st.composite
def doubling_grids(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(4, 40) if dim == 1 else st.integers(4, 12))
    size = n**dim
    if draw(st.booleans()):
        # a few positive cells, so that some sides have no Q with mass
        vals = [0.0] * size
        for i in draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=3)):
            vals[i] = draw(POSITIVE)
    else:
        vals = draw(st.lists(st.one_of(st.just(0.0), POSITIVE), min_size=size, max_size=size)
                    .filter(any))
    return GridWeight(np.reshape(vals, (n,) * dim))


@settings(max_examples=200)
@given(doubling_grids())
def test_doubling_equals_window_loop(w):
    try:
        expect = doubling_window_loop(w)
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            doubling_constant(w)
    else:
        assert doubling_constant(w) == expect


@pytest.mark.parametrize("spec", [WeightFamilySpec("log-smooth-random", 1, 1024, seed=1),
                                  WeightFamilySpec("log-smooth-random", 2, 64, seed=1)])
def test_doubling_equals_window_loop_at_large_n(spec):
    w = generate_weight(spec)
    assert doubling_constant(w) == doubling_window_loop(w)


@pytest.mark.parametrize("n, dim", [(4, 1), (9, 1), (4, 2), (7, 2)])
def test_cached_doubling_pairs_are_read_only(n, dim):
    # cell i weighs 2^i, so every cube's mass is exact and names its cells
    w = GridWeight(2.0 ** np.arange(n**dim).reshape((n,) * dim))
    outer, inner = _doubling_pairs(n, dim)
    flat = w.table.flat
    got = sorted(zip(flat[outer].tolist(), flat[inner].tolist()))
    want = []
    for s in range(2, n // 2 + 1, 2):
        h = s // 2
        for corner in itertools.product(range(h, n - s - h + 1), repeat=dim):
            q2 = GridCube(tuple(c - h for c in corner), 2 * s)
            want.append((fsum_mass(w.values, q2), fsum_mass(w.values, GridCube(corner, s))))
    assert got == sorted(want)
    for a in (outer, inner):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    assert _doubling_pairs(n, dim) is _doubling_pairs(n, dim)


def test_doubling_peak_memory_stays_under_the_side_table():
    # the cached pairs, and the gather of their masses, hold fewer floats than the table
    w = generate_weight(WeightFamilySpec("log-smooth-random", 1, 1024, seed=1))
    budget = w.table.flat.nbytes
    doubling_constant(w)
    tracemalloc.start()
    try:
        doubling_constant(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


# -- growth profile -----------------------------------------------------------


def test_growth_profile_constant():
    w = const_w(16)
    prof = growth_profile(w, [1 / 8, 1 / 4, 1 / 2, 1.0])
    for t in (1 / 8, 1 / 4, 1 / 2):
        assert prof[t] == pytest.approx(t, abs=1e-12)
    assert prof[1.0] == pytest.approx(1.0, abs=1e-12)


def test_growth_profile_brute_force():
    w = power_w(16, 4.0)
    t = 1 / 16
    best = 0.0
    for s in range(1, 17):
        k = int(t * s)
        if k < 1:
            continue
        for i in range(16 - s + 1):
            cells = np.sort(w.values[i : i + s])[::-1]
            best = max(best, cells[:k].sum() / cells.sum())
    prof = growth_profile(w, [t])
    assert prof[t] == pytest.approx(best, rel=1e-12)
    assert prof[t] > 4 * t


def test_growth_profile_monotone():
    w = power_w(32, 2.0)
    ts = [1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0]
    prof = growth_profile(w, ts)
    vals = [prof[t] for t in ts]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


# t small enough that floor(t * s^d) = 0 on the small sides, t = 1, and any t
PROFILE_T = st.one_of(st.sampled_from([2.0**-10, 1 / 300, 1 / 7, 0.5, 1.0]),
                      st.floats(min_value=2.0**-12, max_value=1.0))


@st.composite
def tied_grids(draw, dim, max_n):
    """Grids of a few masses, so that cubes tie on cells and on whole sums,
    and many have no mass."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    vals = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]), min_size=n**dim,
                         max_size=n**dim).filter(any))
    return GridWeight(np.reshape(vals, (n,) * dim))


@given(st.one_of(grid_weights(dim=1, max_n=24), grid_weights(dim=2, max_n=8),
                 tied_grids(dim=1, max_n=24), tied_grids(dim=2, max_n=8)),
       st.lists(PROFILE_T, min_size=1, max_size=6))
@example(GridWeight([0.0, 0.0, 0.0, 1.0]), [1 / 300, 0.5, 1.0])
@example(GridWeight([[0.0, 0.0], [0.0, 1.0]]), [1 / 300, 0.5, 1.0])
def test_growth_profile_equals_per_side_loop(w, ts):
    ts = sorted(ts + ts[:1])  # the first t twice
    prof = growth_profile(w, ts)
    assert prof == growth_profile_sides(w, ts)
    # == takes -0.0 for 0.0, but a digest prints it as "-0"
    assert all(math.copysign(1.0, v) == 1.0 for v in prof.values())


def test_growth_profile_peak_memory_stays_under_the_side_table():
    # in 1-D the one buffer for a side's cells holds at most half a side table
    w = generate_weight(WeightFamilySpec("log-smooth-random", 1, 512, seed=1))
    budget = 1.3 * w.table.flat.nbytes
    growth_profile(w, DEFAULT_PROFILE_T)
    tracemalloc.start()
    try:
        growth_profile(w, DEFAULT_PROFILE_T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


def test_growth_profile_rejects_bad_t():
    with pytest.raises(ValueError):
        growth_profile(const_w(8), [0.0, 0.5])


# -- growth exponent fit --------------------------------------------------------


def test_fit_growth_identity():
    prof = {t: t for t in (1 / 16, 1 / 8, 1 / 4, 1 / 3)}
    fit = fit_growth_exponent(prof)
    assert fit.c1 == pytest.approx(1.0, abs=1e-9)
    assert fit.c2 == pytest.approx(1.0, abs=1e-9)
    assert fit.ainfty_bound == pytest.approx(1.0, abs=1e-9)


def test_fit_growth_power_law():
    prof = {t: 2 * t ** (1 / 3) for t in (1 / 32, 1 / 16, 1 / 8, 1 / 4)}
    fit = fit_growth_exponent(prof)
    assert fit.c1 == pytest.approx(2.0, rel=1e-9)
    assert fit.c2 == pytest.approx(3.0, rel=1e-9)
    assert fit.ainfty_bound == pytest.approx(3 * (1 + math.log(2)), rel=1e-9)


def test_fit_growth_degenerate():
    with pytest.raises(DegenerateFit):
        fit_growth_exponent({t: 0.7 for t in (1 / 16, 1 / 8, 1 / 4)})


def test_fit_growth_c2_increases_with_a():
    ts = (1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4)
    c2s = []
    for a in (1.0, 2.0, 4.0):
        prof = growth_profile(power_w(64, a), ts)
        c2s.append(fit_growth_exponent(prof).c2)
    assert c2s[0] < c2s[1] < c2s[2]


# -- reverse Holder -----------------------------------------------------------


def test_rh_of_constant_weight_is_top_candidate():
    assert reverse_holder_exponent(const_w(16)) == 1.0


def test_rh_power_positive_and_monotone():
    w = power_w(32, 2.0)
    eps = reverse_holder_exponent(w)
    assert eps > 0
    assert reverse_holder_holds(w, eps / 2)
    assert reverse_holder_holds(w, eps / 4)


def test_rh_rejects_non_finite_power_masses():
    # the squared density (4e300)^2 overflows to inf
    with pytest.raises(ValueError, match="reverse Holder power masses must be finite, got inf"):
        reverse_holder_holds(GridWeight([1e300, 1, 1, 1]), 1.0)


# -- sidelength growth ----------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2])
def test_gamma_constant(dim):
    n = 32 if dim == 1 else 16
    assert sidelength_growth_exponent(const_w(n, dim=dim)) == pytest.approx(
        dim, abs=1e-12)


def test_gamma_power_corner():
    # w = x^2 anchored at 0: w([0,r]) = r^3/3, corner pairs give exactly 3
    assert sidelength_growth_exponent(power_w(64, 2.0)) == pytest.approx(3.0, abs=1e-9)


def test_gamma_at_least_dim():
    for spec in CORPUS_1D:
        assert sidelength_growth_exponent(generate_weight(spec)) >= 1.0 - 1e-12


def test_gamma_nondecreasing_in_resolution():
    for a in (1.0, 2.0):
        lo = sidelength_growth_exponent(power_w(32, a))
        hi = sidelength_growth_exponent(power_w(64, a))
        assert hi >= lo - 1e-12


# -- assembled constants --------------------------------------------------------


def test_compute_weight_constants_assembles():
    w = power_w(32, 1.0)
    wc = compute_weight_constants(w)
    assert wc.fujii_wilson >= 1 - 1e-12
    assert wc.hruscev >= 1 - 1e-12
    assert wc.doubling >= 1
    assert wc.gamma >= 1 - 1e-12
    assert wc.ap[2] >= wc.ap[4] - 1e-12
    assert wc.rh_epsilon > 0


def test_corpus_orderings_refinement():
    # all gauges are lower approximations: nondecreasing from N=32 to N=64
    for a in (1.0, 4.0):
        lo = compute_weight_constants(power_w(32, a))
        hi = compute_weight_constants(power_w(64, a))
        assert hi.ap[2] >= lo.ap[2] - 1e-12
        assert hi.fujii_wilson >= lo.fujii_wilson - 1e-12
        assert hi.hruscev >= lo.hruscev - 1e-12
        assert hi.doubling >= lo.doubling - 1e-12


def test_corollary_ordering_fw_vs_hruscev():
    for spec in CORPUS_1D:
        w = generate_weight(spec)
        assert fujii_wilson(w) <= 2 * hruscev_constant(w) + 1e-9


# -- zero-mass cubes -------------------------------------------------------------


def zero_cell_grid(seed, n):
    """2-D masses from e^-8 to e^6 with about half the cells exactly 0."""
    rng = np.random.default_rng(seed)
    v = np.exp(rng.uniform(-8, 6, size=(n, n)))
    v[rng.random((n, n)) < 0.5] = 0.0
    return GridWeight(v)


# Every cube mass is within d*s*u of itself (gridops.side_table, under 1e-14
# here), so a gauge read off these masses is far closer than this.
ZERO_CELL_REL = 1e-6


@pytest.mark.parametrize("seed", [38, 109, 137])
def test_fw_skips_zero_mass_cubes(seed):
    # prefix rounding on cubes of zero cells once passed for mass: seed 38
    # gave 8.43 where slice sums give 3.77
    w = zero_cell_grid(seed, 6)
    assert fujii_wilson(w) == pytest.approx(fujii_wilson_naive(w),
                                            rel=ZERO_CELL_REL)


def test_doubling_matches_exact_sums_with_zero_cells():
    for seed in range(60):
        w = zero_cell_grid(seed, 8)
        assert doubling_constant(w) == pytest.approx(doubling_exact(w), rel=ZERO_CELL_REL)


def test_zero_mass_cubes_have_mass_zero():
    w = zero_cell_grid(2, 8)
    empty = ~w.values.astype(bool)
    for s in range(1, 9):
        sums = w.window_sums(s)
        for corner in np.ndindex(*sums.shape):
            q = GridCube(corner, s)
            if empty[tuple(slice(c, c + s) for c in corner)].all():
                assert sums[corner] == 0.0 and w.cube_mass(q) == 0.0
            else:
                assert w.cube_mass(q) == sums[corner] > 0


def test_gamma_defined_with_zero_cells():
    # a zero-mass Q1 beside heavy cells once read as mass and gave log of a
    # ratio <= 0, "math domain error"
    for seed in range(60):
        w = zero_cell_grid(seed, 8)
        assert math.isfinite(sidelength_growth_exponent(w))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("at", [0, 4])
def test_gamma_finite_with_one_positive_cell(dim, at):
    # every cell is a Q1 of the whole domain, so one positive cell, at the
    # corner or the centre, gives a finite gamma
    values = np.zeros((8,) * dim)
    values[(at,) * dim] = 1.0
    w = GridWeight(values)
    assert math.isfinite(sidelength_growth_exponent(w))
    assert sidelength_growth_exponent(w) == sidelength_growth_exponent_pairs(w)


# -- parameters ------------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.0, -0.5, -1.0, float("nan")])
def test_rh_rejects_nonpositive_eps(eps):
    with pytest.raises(ValueError, match="eps must be positive"):
        reverse_holder_holds(power_w(16, 1.0), eps)


@pytest.mark.parametrize("constant", [float("nan"), 0.0, -1.0, float("inf")])
def test_rh_rejects_constant_outside_open_range(constant):
    # NaN once passed every cube, and -1 failed every eps with a warning
    w = power_w(16, 1.0)
    match = "reverse Holder constant must be positive and finite"
    with pytest.raises(ValueError, match=match):
        reverse_holder_holds(w, 0.5, constant)
    with pytest.raises(ValueError, match=match):
        reverse_holder_exponent(w, constant)


@pytest.mark.parametrize("w", [const_w(16), power_w(16, 1.0)], ids=["constant", "power"])
def test_rh_exponent_rejects_a_constant_below_one(w):
    # the power mean is at least avg w, so every eps failed, with a warning and 0.0
    for constant in (0.999, 0.5, 1e-9):
        with pytest.raises(ValueError, match="reverse Holder constant below 1 never holds"):
            reverse_holder_exponent(w, constant)
    assert reverse_holder_exponent(w, 2.0) > 0


@pytest.mark.parametrize("p", [float("inf"), float("nan"), 1.0, 0.5])
def test_ap_rejects_p_outside_open_range(p):
    with pytest.raises(ValueError, match="p must be a finite number exceeding 1"):
        ap_constant(power_w(16, 1.0), p)


def test_growth_profile_rejects_nan_t():
    with pytest.raises(ValueError, match=r"t values must lie in \(0, 1\]"):
        growth_profile(const_w(8), [0.25, float("nan")])


# -- gamma against the per-pair loop ------------------------------------------------

POSITIVE = st.floats(min_value=math.exp(-8), max_value=math.exp(6))


@st.composite
def gamma_grids(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(8, 40) if dim == 1 else st.integers(8, 16))
    size = n**dim
    kind = draw(st.sampled_from(["positive", "zeros", "sparse"]))
    if kind == "sparse":
        # a few positive cells, so that some (s2, s1) groups have no Q1 with mass
        vals = [0.0] * size
        for i in draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=3)):
            vals[i] = draw(POSITIVE)
    else:
        cells = POSITIVE if kind == "positive" else st.one_of(st.just(0.0), POSITIVE)
        vals = draw(st.lists(cells, min_size=size, max_size=size).filter(any))
    return GridWeight(np.reshape(vals, (n,) * dim))


@settings(max_examples=150)
@given(gamma_grids())
def test_gamma_matches_pair_loop(w):
    assert sidelength_growth_exponent(w) == sidelength_growth_exponent_pairs(w)


@st.composite
def positive_grids(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 24) if dim == 1 else st.integers(1, 8))
    return GridWeight(np.reshape(draw(st.lists(POSITIVE, min_size=n**dim, max_size=n**dim)),
                                 (n,) * dim))


@given(positive_grids())
def test_ap_and_hruscev_equal_per_side_loops(w):
    for p in (1.5, 2.0, 8.0):
        assert ap_constant(w, p) == ap_constant_sides(w, p)
    assert hruscev_constant(w) == hruscev_constant_sides(w)


@given(positive_grids(), st.sampled_from([0.5, 1.0, 7.0, 2.0**-5]),
       st.sampled_from([1.0, 1.0 + 2.0**-40, 1.5, 2.0]))
def test_reverse_holder_holds_equals_per_side_loop(w, eps, constant):
    # constant 1 puts every single cell on the boundary, where rounding decides
    assert reverse_holder_holds(w, eps, constant) == reverse_holder_holds_sides(w, eps, constant)


@pytest.mark.parametrize("n", [8, 9, 12, 13, 15, 24, 37])
def test_gamma_matches_pair_loop_on_power_weights(n):
    for dim in (1, 2) if n <= 14 else (1,):
        w = power_w(n, 1.5, dim=dim, x0=0.3 if dim == 1 else (0.3, 0.7))
        assert sidelength_growth_exponent(w) == sidelength_growth_exponent_pairs(w)


# -- refinement --------------------------------------------------------------------


def refine(w):
    """The same weight on a grid twice as fine: each cell's mass split equally."""
    v = w.values
    for axis in range(w.dim):
        v = np.repeat(v, 2, axis=axis)
    return GridWeight(v / 2**w.dim)


# within a factor 16 of each other; every cube mass is exact to d*s*u relative
# to itself (gridops.side_table), far inside the 1e-9 of the properties below
FLAT = st.floats(min_value=0.25, max_value=4.0)
REFINE_REL = 1e-9


@st.composite
def dyadic_grids(draw, cells):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.sampled_from([8, 16] if dim == 1 else [8]))
    # doubling needs a positive cell where its cubes Q lie, off the border
    vals = draw(st.lists(cells, min_size=n**dim, max_size=n**dim)
                .filter(lambda v: np.reshape(v, (n,) * dim)[(slice(1, n - 1),) * dim].any()))
    return GridWeight(np.reshape(vals, (n,) * dim))


def no_lower(fine, coarse):
    return fine >= coarse - REFINE_REL * abs(coarse)


@settings(max_examples=60)
@given(dyadic_grids(st.one_of(st.just(0.0), FLAT)))
def test_sup_gauges_nondecreasing_under_refinement(w):
    fine = refine(w)
    assert no_lower(fujii_wilson(fine), fujii_wilson(w))
    assert no_lower(doubling_constant(fine), doubling_constant(w))
    assert no_lower(sidelength_growth_exponent(fine), sidelength_growth_exponent(w))
    phi, fine_phi = (growth_profile(v, DEFAULT_PROFILE_T) for v in (w, fine))
    assert all(no_lower(fine_phi[t], phi[t]) for t in DEFAULT_PROFILE_T)


@settings(max_examples=60)
@given(dyadic_grids(FLAT))
def test_positive_gauges_monotone_under_refinement(w):
    fine = refine(w)
    assert no_lower(ap_constant(fine, 2.0), ap_constant(w, 2.0))
    assert no_lower(hruscev_constant(fine), hruscev_constant(w))
    assert reverse_holder_exponent(fine) <= reverse_holder_exponent(w)


@pytest.mark.parametrize("values", [
    [1.0, 0.5, 3.0, 0.1],                     # mixed exponents
    [2.0**-60, 1.0, 5e-324, 0.0],             # 2^-60, the least subnormal and 0
    [[0.1, 2.0**-60], [3.0, 5e-324]],
    [[1.0, 1 - 2**-53, 0.0], [2**-53, 7.0, 0.1], [1e300, 5e-324, 3.0]],
])
def test_exact_masses_read_each_float_exactly(values):
    w = GridWeight(np.array(values))
    ex = w.exact
    assert w.exact is ex  # built once per weight
    assert ex.unit & (ex.unit - 1) == 0
    cells = ex.cells.ravel().tolist()
    assert all(type(c) is int and Fraction(c, ex.unit) == Fraction(x)
               for c, x in zip(cells, w.values.ravel().tolist()))
    if 5e-324 in w.values:
        assert ex.unit == 2**1074
    for table in (ex.cells, ex.prefix):
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * w.dim] = 1
    # every box of cells, each sum of cells against its prefix difference
    n, d = w.resolution, w.dim
    boxes = [(lo, hi) for lo in itertools.product(range(n), repeat=d)
             for hi in itertools.product(range(1, n + 1), repeat=d)
             if all(a < b for a, b in zip(lo, hi))]
    lo, hi = (np.array([b[k] for b in boxes]) for k in (0, 1))
    assert ex.box_sums(lo, hi) == [sum(ex.cells[tuple(map(slice, a, b))].ravel().tolist())
                                   for a, b in boxes]
    assert ex.box_sums(np.zeros((0, d), int), np.zeros((0, d), int)) == []


# -- input checks ------------------------------------------------------------------


@pytest.mark.parametrize("make, match", [
    (lambda: GridCube((0,), 0), "cube side must be >= 1 cell"),
    (lambda: GridCube((-1,), 1), "cube corner must be nonnegative"),
    (lambda: GridWeight(np.array([-1.0, 2.0])), "cell masses must be nonnegative"),
    (lambda: GridWeight(np.zeros(4)), "total mass must be positive"),
    (lambda: const_w(8).cube_mass(GridCube((0, 0), 1)), "cube dimension does not match grid"),
    (lambda: generate_weight(WeightFamilySpec("constant", 3, 4)), "dim must be 1 or 2"),
    (lambda: generate_weight(WeightFamilySpec("constant", 1, 0)), "resolution must be >= 1"),
    (lambda: generate_weight(WeightFamilySpec("bumpy", 1, 4)), "unknown weight family 'bumpy'"),
    (lambda: growth_profile(const_w(8), [0.5, 0.25]), "t values must be ascending"),
    (lambda: fit_growth_exponent({0.125: 0.1, 0.25: 0.2}),
     "need at least 3 profile points with t < 1/2"),
    (lambda: sidelength_growth_exponent(const_w(4)), "resolution must be >= 8"),
    (lambda: fit_growth_exponent({0.0: 0.1, 0.125: 0.2, 0.25: 0.3}),
     re.escape("t values must lie in (0, 1]")),
    (lambda: fit_growth_exponent({-0.125: 0.1, 0.125: 0.2, 0.25: 0.3}),
     re.escape("t values must lie in (0, 1]")),
    (lambda: fit_growth_exponent({math.nan: 0.1, 0.0625: 0.2, 0.125: 0.3, 0.25: 0.4}),
     re.escape("t values must lie in (0, 1]")),
    (lambda: fit_growth_exponent({0.0625: 0.1, 0.125: 0.2, 0.25: math.inf}),
     "profile values must be finite, got inf"),
], ids=["cube-side", "cube-corner", "negative-mass", "zero-mass", "cube-dim", "spec-dim",
        "spec-resolution", "spec-family", "descending-t", "short-profile", "gamma-n",
        "fit-zero-t", "fit-negative-t", "fit-nan-t", "fit-infinite-phi"])
def test_bad_input_raises_a_value_error(make, match):
    with pytest.raises(ValueError, match=match):
        make()


# every cell and the total are finite, but the gauges' quotients and products
# of cube averages overflow (warnings are errors in this suite)
OVERFLOW_WEIGHTS = {"1e-300": [1e-300] * 4 + [1e300] * 4,
                    "5e-324": [5e-324] * 4 + [1e300] * 4}


@pytest.mark.parametrize("weight", OVERFLOW_WEIGHTS)
@pytest.mark.parametrize("gauge, expected", [
    # at 5e-324 the dual density itself overflows, before any cube average
    (lambda w: ap_constant(w, 2.0), "A_p (cube values|dual masses) must be finite, got inf"),
    (lambda w: ap_constant(w, 8.0), "A_p cube values must be finite, got inf"),
    (hruscev_constant, "Hruscev cube values must be finite, got inf"),
    (doubling_constant, "doubling cube values must be finite, got inf"),
    (sidelength_growth_exponent, "gamma cube values must be finite, got inf"),
    # FW's quotient on Q is at most Q's cell count, and no integral of M overflows here
    (fujii_wilson, 2.283333333333333),
], ids=["ap-2", "ap-8", "hruscev", "doubling", "gamma", "fujii-wilson"])
def test_sup_gauges_reject_overflow(gauge, expected, weight):
    w = GridWeight(OVERFLOW_WEIGHTS[weight])
    if isinstance(expected, float):
        assert gauge(w) == expected
    else:
        with pytest.raises(ValueError, match=expected):
            gauge(w)


def test_fit_rejects_a_falling_profile():
    with pytest.raises(DegenerateFit, match="profile fit has nonpositive slope"):
        fit_growth_exponent({0.0625: 1.0, 0.125: 0.5, 0.25: 0.25})


def test_rh_exponent_at_constant_one_warns_and_returns_zero():
    # the power mean exceeds avg w on every cube where w is not constant
    with pytest.warns(UserWarning, match="no dyadic reverse Holder exponent passed; returning 0"):
        assert reverse_holder_exponent(power_w(16, 1.0), 1.0) == 0.0
