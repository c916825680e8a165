"""Slow reference implementations that the fast library paths are tested against.

No oracle here calls `gridops`, the cube-sum kernel that the fast paths
share, so a wrong slice or term there shows up as a difference between a
fast path and its oracle.  Cube masses here are `math.fsum`s of the cube's
cells, which are correctly rounded.  The exceptions are
`sidelength_growth_exponent_pairs`, `fujii_wilson_sides` and
`doubling_window_loop`, which take their cube masses from
`GridWeight.window_sums` as the code they replaced did, so that `==`
compares the loops and not two roundings.  The per-side
paths below keep the float operations of the code that `gridops.side_table`
replaced, over their own copy of its per-side kernel, so the fast paths must
equal them bit for bit.
"""

import itertools
import math
from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from tauberian_lab.covering import SelectionResult
from tauberian_lab.errors import DegenerateFit, InvariantViolation, UnsupportedGeometry
from tauberian_lab.geometry import (_BLOCK_CELLS, Box, BoxFamily, IdentityCheck, _Grid,
                                    _int_corners, _to_rat, _volume, dilate,
                                    sorted_decreasing)
from tauberian_lab.geometry import _cells as _grid_cells
from tauberian_lab.maximal import (AtomicHaloBound, AtomicMeasure, IntervalSet, MaximalSpec,
                                   PiecewiseWeight1D, default_atomic_candidates)
from tauberian_lab.weights import GridCube, GridWeight, GrowthFit


def _cells(q: GridCube) -> tuple[slice, ...]:
    return tuple(slice(c, c + q.side) for c in q.corner)


def fsum_mass(values: np.ndarray, q: GridCube) -> float:
    """The mass of cube q as the correctly rounded sum of its cells."""
    return math.fsum(values[_cells(q)].ravel().tolist())


def side_sum_rel(dim: int, s: int) -> float:
    """Largest relative distance of a side-s `gridops.side_sums` entry from
    fsum_mass: d*s*u / (1 - d*s*u) from the exact sum (its docstring), plus
    the u of fsum's own rounding, u = 2^-53."""
    u = 2.0**-53
    return (dim * s * u / (1 - dim * s * u) + u) / (1 - u)


def fujii_wilson_naive(w: GridWeight) -> float:
    """Fujii-Wilson gauge by enumeration: for every cube Q with a positive
    cell and every cell of Q, the largest average over the cubes inside Q
    that cover the cell."""
    best = 0.0
    cubes = list(w.cubes())
    masses = {q: fsum_mass(w.values, q) for q in cubes}
    for q in cubes:
        if not w.values[_cells(q)].any():
            continue
        mass = masses[q]
        integ = 0.0
        for cell in np.ndindex(*(q.side,) * w.dim):
            c = tuple(q.corner[d] + cell[d] for d in range(w.dim))
            m = 0.0
            for r in cubes:
                if r.side > q.side:
                    continue
                inside = all(
                    q.corner[d] <= r.corner[d]
                    and r.corner[d] + r.side <= q.corner[d] + q.side
                    for d in range(w.dim))
                covers = all(
                    r.corner[d] <= c[d] < r.corner[d] + r.side for d in range(w.dim))
                if inside and covers:
                    m = max(m, masses[r] / w.cube_volume(r))
            integ += m * w.cell_volume
        best = max(best, integ / mass)
    return best


def doubling_exact(w: GridWeight) -> float:
    """doubling_constant by exact Fraction sums of the cell masses: the largest
    w(2Q)/w(Q) over even-sided Q with w(Q) > 0 whose double is in the domain."""
    n, best = w.resolution, Fraction(0)

    def mass(q: GridCube) -> Fraction:
        return sum(map(Fraction, w.values[_cells(q)].ravel().tolist()), Fraction(0))

    for s in range(2, n // 2 + 1, 2):
        h = s // 2
        for corner in itertools.product(range(h, n - s - h + 1), repeat=w.dim):
            inner = mass(GridCube(corner, s))
            if inner > 0:
                best = max(best, mass(GridCube(tuple(c - h for c in corner), 2 * s)) / inner)
    return float(best)


def doubling_window_loop(w: GridWeight) -> float:
    """doubling_constant as it was before it read `w.table.sides` whole: per
    even side, the mask of the Q with positive mass, their ratios, and a
    found flag."""
    n = w.resolution
    if n < 4:
        raise ValueError("domain too small: doubling needs N >= 4")
    best = 0.0
    found = False
    for s in range(2, n // 2 + 1, 2):
        h = s // 2
        if n - s - h < h:
            continue
        num = w.window_sums(2 * s)[(slice(0, n - 2 * s + 1),) * w.dim]
        den = w.window_sums(s)[(slice(h, n - s - h + 1),) * w.dim]
        mask = den > 0
        if not mask.any():
            continue
        found = True
        best = max(best, float((num[mask] / den[mask]).max()))
    if not found:
        raise ValueError("no admissible cube with positive mass")
    return best


# ---------------------------------------------------------------------------
# Sampling recipes with every setting the library has since fixed: the
# library's draws must equal these at the old defaults.
# ---------------------------------------------------------------------------


def random_box_settable(rng: np.random.Generator, dim: int, denom: int = 16,
                        span: int = 4, max_side: int = 2) -> Box:
    center = tuple(Fraction(int(rng.integers(0, span * denom + 1)), denom)
                   for _ in range(dim))
    side = Fraction(int(rng.integers(1, max_side * denom + 1)), denom)
    return Box(center, side)


def random_family_settable(rng: np.random.Generator, dim: int, count: int,
                           decreasing: bool = True, **kw) -> BoxFamily:
    boxes = [random_box_settable(rng, dim, **kw) for _ in range(count)]
    if decreasing:
        return sorted_decreasing(boxes)
    return BoxFamily(boxes)


def random_grid_cube_family_settable(rng: np.random.Generator, n: int, dim: int,
                                     count: int, max_side: int | None = None) -> BoxFamily:
    max_side = max_side or max(1, n // 2)
    boxes = []
    for _ in range(count):
        side = int(rng.integers(1, max_side + 1))
        corner = tuple(int(rng.integers(0, n - side + 1)) for _ in range(dim))
        center = tuple(Fraction(2 * c + side, 2 * n) for c in corner)
        boxes.append(Box(center, Fraction(side, n)))
    return sorted_decreasing(boxes)


# ---------------------------------------------------------------------------
# Per-side paths: the cube sums one side at a time, and the A_p, Hruscev,
# reverse-Holder and grid maximal evaluations that read them side by side.
# ---------------------------------------------------------------------------


def side_sums(values):
    """Yield, for s = 1..N, the sums of all side-s cubes of a 1-D or square
    2-D grid, indexed by the cube's first cell, by the additions that
    `gridops.side_sums` documents: W_s = W_{s-1}[:-1] + v[s-1:] in 1-D; in
    2-D, W_s = W_{s-1} + (last row) + (last column less that row's cell)."""
    v = np.array(values, dtype=float)
    if v.ndim not in (1, 2) or v.shape != (v.shape[0],) * v.ndim:
        raise ValueError("only 1-D and square 2-D grids are supported")
    n = v.shape[0]
    yield v
    sums = rows = v
    for s in range(2, n + 1):
        if v.ndim == 1:
            sums = sums[:-1] + v[s - 1:]
        else:
            # rows[r, j]: cells (r, j..j+s-1); cols[i, c]: cells (i..i+s-2, c)
            k = n - s + 1
            rows = rows[:, :-1] + v[:, s - 1:]
            cols = v if s == 2 else cols[:-1] + v[s - 2:]
            sums = sums[:k, :k] + rows[s - 1:] + cols[:k, s - 1:]
        yield sums


def _side_averages(w: GridWeight, cells: np.ndarray):
    """(avg of w, sums of cells, volume) over the side-s cubes, s = 1..N."""
    n = w.resolution
    for s, (mass, sums) in enumerate(zip(side_sums(w.values), side_sums(cells)), 1):
        vol = (s / n) ** w.dim
        yield mass / vol, sums, vol


def ap_constant_sides(w: GridWeight, p: float) -> float:
    """A_p gauge, the max of avg(w) * avg(sigma)^(p-1) taken side by side."""
    sigma = w.density ** (-1.0 / (p - 1)) * w.cell_volume
    best = 0.0
    for avg_w, sums, vol in _side_averages(w, sigma):
        best = max(best, float(np.max(avg_w * (sums / vol) ** (p - 1))))
    return best


def hruscev_constant_sides(w: GridWeight) -> float:
    """Hruscev gauge, the max of avg(w) * exp(avg(log 1/w)) taken side by side."""
    best = 0.0
    for avg_w, lsum, vol in _side_averages(w, -np.log(w.density) * w.cell_volume):
        best = max(best, float((avg_w * np.exp(lsum / vol)).max()))
    return best


def reverse_holder_holds_sides(w: GridWeight, eps: float, constant: float = 2.0) -> bool:
    """Reverse-Holder test side by side, stopping at the first failing side."""
    powers = w.density ** (1 + eps) * w.cell_volume
    for avg_w, sums, vol in _side_averages(w, powers):
        if np.any((sums / vol) ** (1 / (1 + eps)) > constant * avg_w):
            return False
    return True


def grid_maximal_sides(e: np.ndarray, spec: MaximalSpec, weight: GridWeight | None = None
                       ) -> np.ndarray:
    """Grid maximal function with each side's ratios formed as the side comes,
    -inf on cubes with no cell of positive mass; the sweep keeps every side's
    ratios and walks them from side N down."""
    e = np.asarray(e, dtype=bool)
    n = e.shape[0]
    weighted = spec.measure == "grid-weight"
    num = np.where(e, weight.values, 0.0) if weighted else e
    masses = list(side_sums(weight.values)) if weighted else None

    def ratio(s, sums):
        den = masses[s - 1] if weighted else float(s**e.ndim)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den > 0, sums / den, -np.inf)

    ups = [ratio(s, sums) for s, sums in enumerate(side_sums(num), 1)]
    vals = ups.pop()  # up(., s + 1) as the sweep enters side s
    for s in range(n - 1, 0, -1):
        up = ups.pop()
        for o in itertools.product((0, 1), repeat=e.ndim):
            child = up[tuple(slice(k, k + n - s) for k in o)]
            np.maximum(child, vals, out=child)
        vals = up
    vals[vals == -np.inf] = 0.0
    return vals


# ---------------------------------------------------------------------------
# Fujii-Wilson and the growth profile one side at a time: the loops that the
# whole-table passes replaced, kept as `==` oracles for `weights`.
# ---------------------------------------------------------------------------


def fujii_wilson_sides(w: GridWeight) -> float:
    """Fujii-Wilson sweep with each side's quotient and max taken as the side
    comes, over the masses of `GridWeight.window_sums`."""
    n, d = w.resolution, w.dim
    local = np.empty((n + 1,) * d + (0,) * d)
    best = 0.0
    for s in range(1, n + 1):
        k = n - s + 1
        sums = w.window_sums(s)
        grown = np.empty((k,) * d + (s,) * d)
        grown[...] = (sums * (n / s) ** d).reshape(sums.shape + (1,) * d)
        for e in np.ndindex(*(2,) * d):
            part = grown[(Ellipsis,) + tuple(slice(o, o + s - 1) for o in e)]
            np.maximum(part, local[tuple(slice(o, o + k) for o in e)], out=part)
        local = grown
        heavy = sums > 0
        if heavy.any():
            integrals = grown.reshape(sums.shape + (-1,)).sum(axis=-1)
            best = max(best, float((integrals[heavy] / n**d / sums[heavy]).max()))
    return best


def growth_profile_sides(w: GridWeight, t_values: Sequence[float]) -> dict[float, float]:
    """Growth profile with a window view per side and a ratio per (side, t)."""
    ts = list(t_values)
    out = {t: 0.0 for t in ts}
    for s in range(1, w.resolution + 1):
        cells = s**w.dim
        windows = sliding_window_view(w.values, (s,) * w.dim).reshape(-1, cells)
        csum = np.sort(windows, axis=-1)[:, ::-1].cumsum(axis=-1)
        mass = csum[:, -1]
        ok = mass > 0
        if not ok.any():
            continue
        for t in ts:
            k = int(math.floor(t * cells))
            if k < 1:
                continue
            out[t] = max(out[t], float((csum[ok, k - 1] / mass[ok]).max()))
    return out


# ---------------------------------------------------------------------------
# Per-pair gamma and the float-prefiltered atomic bound: how the two sups were
# taken before their array passes, kept as oracles for `weights` and `maximal`.
# ---------------------------------------------------------------------------


def _gamma_pairs(n: int, dim: int):
    """Deterministic nested (Q2, Q1) pairs: a halving ladder of sides with
    corner / end / centered placements, plus (full domain, small cube) pairs
    at every position."""
    ladder = []
    s = n
    while s >= 1:
        ladder.append(s)
        s //= 2
    pairs = []

    def corners(side):
        step = max(1, side // 2)
        cs = sorted(set(list(range(0, n - side + 1, step)) + [n - side]))
        return cs

    for i2, s2 in enumerate(ladder):
        for s1 in ladder[i2 + 1 :]:
            for c2 in itertools.product(corners(s2), repeat=dim):
                placements = {
                    tuple(c for c in c2),
                    tuple(c + s2 - s1 for c in c2),
                    tuple(c + (s2 - s1) // 2 for c in c2),
                }
                for c1 in placements:
                    pairs.append((GridCube(c2, s2), GridCube(c1, s1)))
    full = GridCube((0,) * dim, n)
    for s1 in ladder[1:]:
        for c1 in itertools.product(range(n - s1 + 1), repeat=dim):
            pairs.append((full, GridCube(c1, s1)))
    return pairs


def sidelength_growth_exponent_pairs(w: GridWeight) -> float:
    """Empirical exponent gamma with w(Q1)/w(Q2) >~ (r1/r2)^gamma over sampled
    nested pairs; the max of log(w(Q2)/w(Q1)) / log(r2/r1)."""
    if w.resolution < 8:
        raise ValueError("resolution must be >= 8")
    pairs = _gamma_pairs(w.resolution, w.dim)
    masses = {s: w.window_sums(s) for s in {q.side for pair in pairs for q in pair}}
    best = None
    for q2, q1 in pairs:
        m1 = float(masses[q1.side][q1.corner])
        if m1 <= 0:
            continue
        m2 = float(masses[q2.side][q2.corner])
        val = math.log(m2 / m1) / math.log(q2.side / q1.side)
        best = val if best is None else max(best, val)
    if best is None:
        raise ValueError("degenerate weight: all sampled inner cubes have zero mass")
    return best


def fit_growth_exponent_polyfit(profile: dict[float, float]) -> GrowthFit:
    """`fit_growth_exponent` as `np.polyfit`'s least squares through LAPACK,
    with the same checks and messages."""
    if not all(0 < t <= 1 for t in profile):
        raise ValueError("t values must lie in (0, 1]")
    phis = np.array(list(profile.values()), dtype=float)
    if not np.isfinite(phis).all():
        bad = "NaN" if np.isnan(phis).any() else "inf"
        raise ValueError(f"profile values must be finite, got {bad}")
    pts = [(t, v) for t, v in sorted(profile.items()) if v > 0]
    if sum(1 for t, _ in pts if t < 0.5) < 3:
        raise ValueError("need at least 3 profile points with t < 1/2")
    if len({v for _, v in pts}) == 1:
        raise DegenerateFit("profile is flat; growth exponent undetermined")
    x = np.log([t for t, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    if slope <= 0:
        raise DegenerateFit("profile fit has nonpositive slope")
    c1 = float(np.exp(intercept))
    c2 = float(1.0 / slope)
    return GrowthFit(c1, c2, c2 * (1 + math.log(c1)))


def atomic_maximal_lower_float(mu: AtomicMeasure, e_indices: Sequence[int], alpha
                               ) -> AtomicHaloBound:
    """Certified lower bound on the halo mass of an atom subset.

    The candidates are `default_atomic_candidates`.  Every candidate cube
    whose E-mass fraction strictly exceeds alpha puts all its points, in
    particular all its atoms, inside the halo.  The bound is the exact mass
    of the union of certified atoms.

    Membership is prefiltered in floating point with a slack wide enough to
    never drop a true member, then confirmed in exact rational arithmetic.
    """
    alpha = _to_rat(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    e_indices = list(e_indices)
    if not e_indices:
        raise ValueError("E must contain at least one atom")
    eset = set(e_indices)
    if any(not 0 <= i < len(mu.atoms) for i in eset):
        raise ValueError("atom index out of range")
    pts_f = np.array([[float(c) for c in pt] for pt, _ in mu.atoms])
    slack = 1e-9 * max(1.0, float(np.abs(pts_f).max()))
    covered: set[int] = set()
    witnesses = []
    for box in default_atomic_candidates(mu, e_indices):
        lo_f = np.array([float(x) for x in box.lo])
        hi_f = np.array([float(x) for x in box.hi])
        rough = np.flatnonzero(
            np.all((pts_f >= lo_f - slack) & (pts_f <= hi_f + slack), axis=1))
        inside = [int(k) for k in rough if box.contains_point(mu.atoms[k][0])]
        if not inside:
            continue
        mass = sum((mu.atoms[k][1] for k in inside), Fraction(0))
        mass_e = sum((mu.atoms[k][1] for k in inside if k in eset), Fraction(0))
        ratio = mass_e / mass
        if ratio > alpha:
            covered.update(inside)
            witnesses.append((box, ratio))
    lower = sum((mu.atoms[k][1] for k in covered), Fraction(0))
    return AtomicHaloBound(lower, frozenset(covered), tuple(witnesses))


def grid_maximal_naive(e: np.ndarray, spec: MaximalSpec, weight: GridWeight | None = None
                       ) -> np.ndarray:
    """Grid maximal function by enumeration: every grid cube inside the domain
    with a cell of positive mass raises its cells to its E-mass fraction;
    cells that no such cube holds get 0."""
    e = np.asarray(e, dtype=bool)
    n = e.shape[0]
    masses = weight.values if spec.measure == "grid-weight" else np.ones(e.shape)
    vals = np.zeros(e.shape)
    for s in range(1, n + 1):
        for corner in itertools.product(range(n - s + 1), repeat=e.ndim):
            cells = _cells(GridCube(corner, s))
            if not (masses[cells] > 0).any():
                continue
            ratio = masses[cells][e[cells]].sum() / masses[cells].sum()
            vals[cells] = np.maximum(vals[cells], ratio)
    return vals


def superlevel_1d_exact(e: np.ndarray, alpha: float, weight: GridWeight | None = None
                        ) -> np.ndarray:
    """The 1-D uncentered grid superlevel {M 1_E > alpha} in `Fraction`s: cell c
    is in iff some grid interval [i, j) holding c has mu(E ∩ [i, j)) >
    alpha * mu([i, j)).  mu gives each cell 1 (Lebesgue) or `Fraction` of its
    float mass, and alpha is the exact value of the float passed in."""
    e = np.asarray(e, dtype=bool)
    masses = ([Fraction(1)] * len(e) if weight is None
              else [Fraction(float(v)) for v in weight.values])
    alpha = Fraction(alpha)
    out = np.zeros(len(e), dtype=bool)
    for i in range(len(e)):
        total = inside = Fraction(0)
        for j in range(i, len(e)):
            total += masses[j]
            inside += masses[j] if e[j] else 0
            if inside > alpha * total:
                out[i : j + 1] = True
    return out


def _piece_sol(c0: Fraction, c1: Fraction, t_hi: Fraction):
    """sup of t in (0, t_hi] with c0 + t*c1 > 0, or None."""
    if c1 > 0:
        return t_hi if -c0 / c1 < t_hi else None
    if c1 < 0:
        cut = -c0 / c1
        return min(cut, t_hi) if cut > 0 else None
    return t_hi if c0 > 0 else None


def exact_halo_1d_sweep(e: IntervalSet, alpha, weight: PiecewiseWeight1D | None = None
                        ) -> IntervalSet:
    """Exact 1-D halo by one sweep per breakpoint and direction, the oracle
    for `maximal.exact_halo_1d`.

    Any interval whose E-mass fraction exceeds alpha lies in the halo
    wholesale, and optimizing one endpoint at a time snaps the other to a
    breakpoint, so the halo is the union over breakpoints p of [p, x], x the
    farthest point on either side of p with excess(p, x) =
    mu(E ∩ [p, x]) - alpha * mu([p, x]) > 0.  One sweep per anchor p and
    direction carries the excess piece by piece over the refinement of the E
    and weight breakpoints.  On each piece it is linear in x, so the farthest
    solution there solves a linear equation over the rationals, and a
    solution on a later piece lies farther out than any earlier one.
    """
    alpha = _to_rat(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if e.is_empty:
        raise ValueError("empty set")
    bps = sorted(set(e.breakpoints()) | (set(weight.breakpoints) if weight else set()))
    if weight is not None:
        lo, hi = weight.domain
        if e.intervals[0][0] < lo or e.intervals[-1][1] > hi:
            raise ValueError("set escapes the weight domain")
        left_end, right_end = lo, hi
    else:
        # beyond the outermost breakpoints the ratio only decays; a spare
        # piece of width |E|/alpha contains every boundary solution
        margin = e.measure() / alpha
        left_end, right_end = bps[0] - margin, bps[-1] + margin

    grid = sorted(set([left_end, right_end] + bps))
    starts = [a for a, _ in e.intervals]
    # excess per unit length of each piece: (1[piece ⊂ E] - alpha) * density
    slopes = []
    for a in grid[:-1]:
        i = bisect_right(starts, a) - 1
        in_e = i >= 0 and a < e.intervals[i][1]
        dens = (Fraction(1) if weight is None
                else weight.densities[bisect_right(weight.breakpoints, a) - 1])
        slopes.append((int(in_e) - alpha) * dens)

    idx = {g: i for i, g in enumerate(grid)}
    parts: list[tuple[Fraction, Fraction]] = []
    for p in bps:
        for step in (1, -1):
            pieces = range(idx[p], len(slopes)) if step > 0 else range(idx[p] - 1, -1, -1)
            excess, reach = Fraction(0), None
            for k in pieces:
                length = grid[k + 1] - grid[k]
                sol = _piece_sol(excess, slopes[k], length)
                if sol is not None:
                    reach = grid[k] + sol if step > 0 else grid[k + 1] - sol
                excess += slopes[k] * length
            if reach is not None:
                parts.append((min(p, reach), max(p, reach)))
    return IntervalSet.merge(parts)


# ---------------------------------------------------------------------------
# Weighted 1-D masses and point values by density arithmetic: how
# `PiecewiseWeight1D.mass` and `point_eval_1d` computed them before both went
# through the weight's distribution F, kept as their oracles.
# ---------------------------------------------------------------------------


def piecewise_mass_loop(weight: PiecewiseWeight1D, a: Fraction, b: Fraction) -> Fraction:
    """w([a, b]) as a sum over the weight's pieces, for a <= b in its domain."""
    total = Fraction(0)
    for l, r, d in zip(weight.breakpoints, weight.breakpoints[1:], weight.densities):
        seg = min(b, r) - max(a, l)
        if seg > 0:
            total += d * seg
    return total


def _measure_1d(weight: PiecewiseWeight1D | None, a: Fraction, b: Fraction) -> Fraction:
    if weight is None:
        return b - a
    return piecewise_mass_loop(weight, a, b)


def _set_measure_1d(weight, e: IntervalSet, a: Fraction, b: Fraction) -> Fraction:
    total = Fraction(0)
    for lo, hi in e.intervals:
        l, r = max(lo, a), min(hi, b)
        if l < r:
            total += _measure_1d(weight, l, r)
    return total


def point_eval_1d_direct(e: IntervalSet, x, weight: PiecewiseWeight1D | None = None
                         ) -> Fraction:
    """Exact value at x of the uncentered maximal function of the indicator of
    e, the oracle for `maximal.point_eval_1d`: every pair of candidate
    endpoints, among the breakpoints of e and the weight and x itself, with
    the masses summed piece by piece over the density."""
    x = _to_rat(x)
    if e.is_empty:
        raise ValueError("empty set")
    if weight is not None:
        lo, hi = weight.domain
        if not lo <= x <= hi:
            raise ValueError("x escapes the weight domain")
        if e.intervals[0][0] < lo or e.intervals[-1][1] > hi:
            raise ValueError("set escapes the weight domain")
    if e.contains_point(x):
        return Fraction(1)
    bps = set(e.breakpoints())
    if weight is not None:
        bps |= set(weight.breakpoints)
    left = sorted(b for b in bps if b <= x) + [x]
    right = [x] + sorted(b for b in bps if b >= x)
    best = Fraction(0)
    for p in left:
        for q in right:
            if p >= q:
                continue
            den = _measure_1d(weight, p, q)
            if den <= 0:
                continue
            best = max(best, _set_measure_1d(weight, e, p, q) / den)
    return best


# ---------------------------------------------------------------------------
# Pairwise fragment engine: how box families were measured before the
# compressed grid, kept as the oracle for `geometry` and `covering`.
# ---------------------------------------------------------------------------

IntBox = tuple[tuple[int, ...], tuple[int, ...]]


def _frag_minus(piece: IntBox, cut: IntBox) -> list[IntBox]:
    lo, hi = piece
    clo, chi = cut
    n = len(lo)
    for d in range(n):
        if chi[d] <= lo[d] or hi[d] <= clo[d]:
            return [piece]
    out: list[IntBox] = []
    lo = list(lo)
    hi = list(hi)
    for d in range(n):
        if lo[d] < clo[d]:
            nhi = hi.copy()
            nhi[d] = clo[d]
            out.append((tuple(lo), tuple(nhi)))
            lo[d] = clo[d]
        if chi[d] < hi[d]:
            nlo = lo.copy()
            nlo[d] = chi[d]
            out.append((tuple(nlo), tuple(hi)))
            hi[d] = chi[d]
    # remaining core is inside cut and is dropped
    return out


def _disjointify(boxes: Sequence[IntBox]) -> list[IntBox]:
    frags: list[IntBox] = []
    for b in boxes:
        lo, hi = b
        if any(l >= h for l, h in zip(lo, hi)):
            continue
        parts = [b]
        for f in frags:
            parts = [p for piece in parts for p in _frag_minus(piece, f)]
            if not parts:
                break
        frags.extend(parts)
    return frags


class FragRegion(NamedTuple):
    """Disjoint half-open integer fragments; true coordinate = integer / scale."""

    scale: int
    frags: list[IntBox]

    @staticmethod
    def of(corner_boxes, scale: int) -> "FragRegion":
        """The union of rational (lo, hi) corner boxes; scale clears every denominator."""
        return FragRegion(scale, _disjointify([
            (tuple(int(c * scale) for c in lo), tuple(int(c * scale) for c in hi))
            for lo, hi in corner_boxes]))

    def minus(self, other: "FragRegion") -> "FragRegion":
        parts = self.frags
        for cut in other.frags:
            parts = [p for piece in parts for p in _frag_minus(piece, cut)]
        return FragRegion(self.scale, parts)

    def measure(self, dim: int) -> Fraction:
        return Fraction(sum(math.prod(h - l for l, h in zip(lo, hi)) for lo, hi in self.frags),
                        self.scale ** dim)

    def rational(self):
        return [(tuple(Fraction(x, self.scale) for x in lo),
                 tuple(Fraction(x, self.scale) for x in hi)) for lo, hi in self.frags]


def _corners(boxes):
    return [(b.lo, b.hi) for b in boxes]


def _scale(*corner_lists) -> int:
    return math.lcm(*(c.denominator for cs in corner_lists for lo, hi in cs for c in (*lo, *hi)))


def frag_enlargement_excess(boxes, delta) -> Fraction:
    """Measure of the union of the (1 + delta)-dilates minus the union of the boxes."""
    dil, orig = _corners([dilate(b, 1 + delta) for b in boxes]), _corners(boxes)
    scale = _scale(dil, orig)
    return FragRegion.of(dil, scale).minus(FragRegion.of(orig, scale)).measure(boxes[0].dim)


def frag_increments(boxes) -> list[FragRegion]:
    """E_j = Q_j minus the union of the earlier boxes, in list order."""
    cs = _corners(boxes)
    scale = _scale(cs)
    return [FragRegion.of(cs[j:j + 1], scale).minus(FragRegion.of(cs[:j], scale))
            for j in range(len(boxes))]


def frag_identity_defect(boxes, delta) -> Fraction:
    """Measure of the symmetric difference of the union of the dilates and
    the union of the increments, each dilated about its own box's centre."""
    t = 1 + delta
    lhs = _corners([dilate(b, t) for b in boxes])
    rhs = [tuple(tuple(c + t * (x - c) for c, x in zip(b.center, corner)) for corner in frag)
           for b, e in zip(boxes, frag_increments(boxes)) for frag in e.rational()]
    scale = _scale(lhs, rhs)
    lhs, rhs = FragRegion.of(lhs, scale), FragRegion.of(rhs, scale)
    dim = boxes[0].dim
    return lhs.minus(rhs).measure(dim) + rhs.minus(lhs).measure(dim)


def frag_cf_select_lebesgue(f, delta) -> SelectionResult:
    """Córdoba-Fefferman selection with each new measure taken by the
    fragment engine: the box minus the union of the boxes kept so far."""
    boxes = list(f)
    cs = _corners(boxes)
    scale = _scale(cs)
    selected, certs, incs, equality = [], {}, {}, []
    for i, q in enumerate(boxes):
        vol = q.volume()
        kept = FragRegion.of([cs[j] for j in selected], scale)
        new = FragRegion.of([cs[i]], scale).minus(kept).measure(q.dim)
        overlap = vol - new
        if overlap <= (1 - delta) * vol:
            if overlap == (1 - delta) * vol and selected:
                equality.append(i)
            selected.append(i)
            incs[i] = new
        else:
            certs[i] = {"rule": "overlap-fraction", "overlap": overlap,
                        "fraction": overlap / vol}
    return SelectionResult("cf-lebesgue", f, tuple(selected), certs,
                           {"delta": delta}, incs, tuple(equality))


def frag_minimal_cover_dilation(boxes, selected, candidates) -> Fraction:
    """The first candidate, in increasing order, whose dilates of the selected
    boxes cover every box."""
    whole = _corners(boxes)
    for t in sorted(candidates):
        cover = _corners([dilate(b, t) for b in selected])
        scale = _scale(whole, cover)
        if not FragRegion.of(whole, scale).minus(FragRegion.of(cover, scale)).frags:
            return t
    raise ValueError("no candidate dilation factor covers the family")


# ---------------------------------------------------------------------------
# The dilation identity on the grid of all k(k+1)/2 boxes D_j(Q_i), i <= j,
# Vitali and the satellite grouping by pairwise `Box.intersects`, and the
# overlap-2 chains on `Fraction` ends: how they were computed before the
# family's integer form, kept as oracles.
# ---------------------------------------------------------------------------


def full_grid_dilation_identity(f, delta) -> IdentityCheck:
    """check_dilation_identity with every pair i <= j on the grid, met or not."""
    delta = _to_rat(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    boxes = list(f)
    if not boxes:
        return IdentityCheck(True, Fraction(0))
    scale, lo, hi = _int_corners([(b.lo, b.hi) for b in boxes])
    p, q = (1 + delta).numerator, (1 + delta).denominator
    jj, ii = np.tril_indices(len(boxes))  # box j * (j + 1) // 2 + i is D_j(Q_i)
    base = (q - p) * (lo + hi)[jj]
    grid = _Grid(2 * q * scale, base + 2 * p * lo[ii], base + 2 * p * hi[ii])
    rows = max(1, _BLOCK_CELLS // math.prod(grid.shape[1:]))
    defect = 0
    for a in range(0, grid.shape[0], rows):
        b = min(a + rows, grid.shape[0])
        slab = (a,) + (0,) * (grid.dim - 1)
        lhs = np.zeros((b - a,) + grid.shape[1:], dtype=bool)
        rhs = np.zeros_like(lhs)
        for j in range(len(boxes)):
            own = j * (j + 1) // 2 + j
            if grid.start[own][0] >= b or grid.stop[own][0] <= a:
                continue
            sl = _grid_cells(grid.start[own], grid.stop[own], slab)
            part = np.ones(lhs[sl].shape, dtype=bool)
            origin = tuple(map(max, grid.start[own], slab))
            for i in range(own - j, own):
                part[_grid_cells(grid.start[i], grid.stop[i], origin)] = False
            lhs[sl] = True
            rhs[sl] |= part
        defect += _volume(lhs ^ rhs, [grid.widths[0][a:b]] + grid.widths[1:])
    return IdentityCheck(defect == 0, Fraction(defect, grid.scale ** grid.dim))


def pairwise_vitali_select(f) -> SelectionResult:
    """Vitali selection with each test a `Box.intersects` of two boxes."""
    boxes = list(f)
    fam = f if isinstance(f, BoxFamily) else BoxFamily(boxes)
    order = sorted(range(len(boxes)), key=lambda i: -boxes[i].side)
    selected: list[int] = []
    certs: dict[int, dict] = {}
    for i in order:
        hit = None
        for j in selected:
            if boxes[j].intersects(boxes[i]):
                hit = j
                break
        if hit is None:
            selected.append(i)
        else:
            certs[i] = {"rule": "intersects-selected", "selected_index": hit}
    return SelectionResult("vitali", fam, tuple(selected), certs)


def is_satellite(f, center_index: int = 0) -> bool:
    """True iff every box meets the center box and is no larger than it."""
    boxes = list(f)
    if not 0 <= center_index < len(boxes):
        raise ValueError("center index out of range")
    center = boxes[center_index]
    for i, b in enumerate(boxes):
        if i == center_index:
            continue
        if b.side > center.side or not b.intersects(center):
            return False
    big = dilate(center, 3)
    # geometric consequence of the definition, kept as a hard invariant
    if not all(all(bl <= l and h <= bh for bl, l, h, bh in zip(big.lo, b.lo, b.hi, big.hi))
               for b in boxes):
        raise InvariantViolation("satellite union escapes 3*center")
    return True


def pairwise_satellite_decompose(f) -> dict[int, list[int]]:
    """Satellite grouping around the pairwise Vitali centers, by `Box.intersects`
    and `Fraction` sides."""
    boxes = list(f)
    res = pairwise_vitali_select(f)
    groups: dict[int, list[int]] = {c: [c] for c in res.selected_indices}
    for i, b in enumerate(boxes):
        for c in res.selected_indices:
            if c == i:
                continue
            if b.side <= boxes[c].side and b.intersects(boxes[c]):
                groups[c].append(i)
    assigned = set()
    for c, members in groups.items():
        assigned.update(members)
        fam = BoxFamily([boxes[c]] + [boxes[i] for i in members if i != c])
        if not is_satellite(fam, 0):
            raise InvariantViolation("group is not a satellite configuration")
    if assigned != set(range(len(boxes))):
        raise InvariantViolation("satellite groups lost a box")
    return groups


def chain_overlap2_select_1d(f) -> SelectionResult:
    """Overlap-2 selection by nested chain loops over the boxes' `Fraction`
    ends, sorted by (left end, -right end)."""
    fam = f if isinstance(f, BoxFamily) else BoxFamily(f)
    if fam and fam.dim != 1:
        raise UnsupportedGeometry("overlap-2 selection is one-dimensional")
    boxes = fam.boxes
    items = sorted(range(len(boxes)), key=lambda i: (boxes[i].lo[0], -boxes[i].hi[0]))
    selected: list[int] = []
    certs: dict[int, dict] = {}
    pos = 0
    while pos < len(items):
        i0 = items[pos]
        comp_end = boxes[i0].hi[0]
        selected.append(i0)
        pos += 1
        while True:
            # among intervals starting inside the current coverage, the one
            # reaching farthest; the rest that end inside it are redundant
            best = None
            while pos < len(items) and boxes[items[pos]].lo[0] <= comp_end:
                cand = items[pos]
                if boxes[cand].hi[0] <= comp_end:
                    certs[cand] = {"rule": "covered", "end": comp_end}
                elif best is None or boxes[cand].hi[0] > boxes[best].hi[0]:
                    if best is not None:
                        certs[best] = {"rule": "superseded", "by_reach": boxes[cand].hi[0]}
                    best = cand
                else:
                    certs[cand] = {"rule": "superseded", "by_reach": boxes[best].hi[0]}
                pos += 1
            if best is None:
                break
            selected.append(best)
            comp_end = boxes[best].hi[0]
    return SelectionResult("overlap2", fam, tuple(selected), certs)


def pairwise_overlap_volume(boxes: Sequence[Box], idx: Sequence[int]) -> Fraction:
    """The sum over pairs of the boxes idx of the volume they share, one
    `Fraction` product of side overlaps per pair."""
    total = Fraction(0)
    for a_pos, i in enumerate(idx):
        for j in idx[a_pos + 1:]:
            v = Fraction(1)
            for al, ah, bl, bh in zip(boxes[i].lo, boxes[i].hi, boxes[j].lo, boxes[j].hi):
                v *= max(min(ah, bh) - max(al, bl), 0)
            total += v
    return total


def fraction_cf_select_weighted(f: BoxFamily, w: GridWeight, xi: Fraction) -> SelectionResult:
    """Weighted Córdoba-Fefferman selection of grid cubes with every mass a
    `Fraction` sum of the cube's cells, each float read as `Fraction(x)`."""
    n = w.resolution
    covered = np.zeros(w.values.shape, dtype=bool)
    selected, certs, incs, equality = [], {}, {}, []
    for i, b in enumerate(f):
        sl = tuple(slice(int(lo * n), int(lo * n + b.side * n)) for lo in b.lo)
        mass = sum(map(Fraction, w.values[sl].ravel().tolist()), Fraction(0))
        overlap = sum(map(Fraction, w.values[sl][covered[sl]].tolist()), Fraction(0))
        if overlap <= (1 - xi) * mass:
            if overlap == (1 - xi) * mass and selected:
                equality.append(i)
            selected.append(i)
            incs[i] = float(mass - overlap)
            covered[sl] = True
        else:
            certs[i] = {"rule": "weighted-overlap", "overlap_mass": float(overlap),
                        "fraction": float(overlap / mass)}
    return SelectionResult("cf-weighted", f, tuple(selected), certs,
                           {"xi": xi}, incs, tuple(equality))
