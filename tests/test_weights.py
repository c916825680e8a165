import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (ap_constant_sides, doubling_exact, fsum_mass, fujii_wilson_naive,
                     hruscev_constant_sides, reverse_holder_holds_sides,
                     sidelength_growth_exponent_pairs, side_sum_rel)
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
    with pytest.raises(ValueError, match="cell masses must be finite, got inf"):
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


def test_rh_constant_weight_top_candidate():
    assert reverse_holder_exponent(const_w(16)) == 1.0


def test_rh_power_positive_and_monotone():
    w = power_w(32, 2.0)
    eps = reverse_holder_exponent(w)
    assert eps > 0
    assert reverse_holder_holds(w, eps / 2)
    assert reverse_holder_holds(w, eps / 4)


def test_rh_rejects_non_finite_power_masses():
    # the squared density (4e300)^2 overflows to inf
    with pytest.raises(ValueError, match="cell masses must be finite, got inf"):
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
    wc = compute_weight_constants(w, p_values=(2, 4))
    assert wc.fujii_wilson >= 1 - 1e-12
    assert wc.hruscev >= 1 - 1e-12
    assert wc.doubling >= 1
    assert wc.gamma >= 1 - 1e-12
    assert wc.ap[2] >= wc.ap[4] - 1e-12
    assert wc.rh_epsilon > 0


def test_corpus_orderings_refinement():
    # all gauges are lower approximations: nondecreasing from N=32 to N=64
    for a in (1.0, 4.0):
        lo = compute_weight_constants(power_w(32, a), p_values=(2,))
        hi = compute_weight_constants(power_w(64, a), p_values=(2,))
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


# -- parameters ------------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.0, -0.5, -1.0, float("nan")])
def test_rh_rejects_nonpositive_eps(eps):
    with pytest.raises(ValueError, match="eps must be positive"):
        reverse_holder_holds(power_w(16, 1.0), eps)


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
    n = draw(st.integers(8, 40) if dim == 1 else st.integers(8, 14))
    vals = draw(st.lists(POSITIVE, min_size=n**dim, max_size=n**dim))
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
