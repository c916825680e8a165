import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import fujii_wilson_naive
from tauberian_lab.weights import (
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


# values computed by an earlier, independent per-cube evaluation with pruning;
# the sweep does the same float operations on each candidate, so it must
# reproduce them to the last bit
FW_PINNED = [
    (WeightFamilySpec("constant", 1, 64), 1.0),
    (WeightFamilySpec("power", 1, 64, a=1.0), 1.4921875),
    (WeightFamilySpec("power", 1, 64, a=2.0), 1.8177490234374998),
    (WeightFamilySpec("power", 1, 64, a=4.0), 2.2522664368152623),
    (WeightFamilySpec("checkerboard", 1, 64), 1.6804790632423978),
    (WeightFamilySpec("log-smooth-random", 1, 64, seed=5), 1.3434294415838401),
    (WeightFamilySpec("power", 1, 256, a=2.0, x0=0.37), 2.0419581586904356),
    (WeightFamilySpec("power", 1, 128, a=-0.5, x0=0.5), 2.1683866925943023),
    (WeightFamilySpec("log-smooth-random", 2, 16, seed=9), 1.1371108895723396),
    (WeightFamilySpec("power", 2, 16, a=1.0, x0=(0.3, 0.6)), 1.350530547181342),
    (WeightFamilySpec("power", 2, 16, a=-1.0, x0=(0.5, 0.5)), 2.1959734987203046),
    (WeightFamilySpec("checkerboard", 2, 16), 1.462221800171668),
    (WeightFamilySpec("power", 2, 32, a=2.0, x0=(0.45, 0.55)), 1.6593155322204638),
]


@pytest.mark.parametrize("spec,value", FW_PINNED, ids=[s.label() for s, _ in FW_PINNED])
def test_fw_pinned_values(spec, value):
    assert fujii_wilson(generate_weight(spec)) == value


def test_fw_pinned_values_zero_cells():
    w1 = GridWeight(np.array([0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 0.0, 0.0]))
    w2 = GridWeight(np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 5.0]]))
    assert fujii_wilson(w1) == 2.3333333333333335
    assert fujii_wilson(w2) == 1.8020833333333333


# values computed with the hand-written prefix and window sums that the gridops
# kernel replaced; the kernel keeps their term order, so they must match to the
# last bit
GAUGES_PINNED = [
    (WeightFamilySpec("power", 1, 64, a=2.0),
     (2.4227377992126304, (83.20486150089837, 5.863707250489445, 3.295215284963046),
      2.4615384615384617, 0.0625, 3.0)),
    (WeightFamilySpec("checkerboard", 1, 64),
     (1.6068340442494544, (2.3810978455418232, 1.8573633982742939, 1.7084938814525432),
      2.0000000000000036, 0.0625, 3.0685084938595257)),
    (WeightFamilySpec("log-smooth-random", 1, 64, seed=5),
     (1.0679369060848707, (1.129779957285668, 1.089346741107109, 1.0772230879885971),
      2.583534077274692, 0.5, 1.5117793083511522)),
    (WeightFamilySpec("log-smooth-random", 2, 16, seed=9),
     (1.0214859675116277, (1.046423897015489, 1.0294043487287956, 1.0248318390680777),
      4.050872749566101, 1.0, 2.4289237783174853)),
    (WeightFamilySpec("power", 2, 16, a=1.0, x0=(0.3, 0.6)),
     (1.1796029545681657, (1.6076046327998463, 1.2739834769951432, 1.2167018427578788),
      7.9736637641078625, 0.25, 3.8190367853702556)),
    (WeightFamilySpec("power", 2, 16, a=-1.0, x0=(0.5, 0.5)),
     (1.3161252896312285, (1.5276501812878287, 1.3977800572686276, 1.3526688353668759),
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
