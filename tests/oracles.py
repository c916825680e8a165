"""Slow reference implementations that the fast library paths are tested against.

No oracle here calls `gridops`, the window kernel that the fast paths share,
so a wrong slice or sign there shows up as a difference between a fast path
and its oracle.
"""

import itertools
from bisect import bisect_right
from fractions import Fraction

import numpy as np

from tauberian_lab.geometry import _to_rat
from tauberian_lab.maximal import IntervalSet, MaximalSpec, PiecewiseWeight1D
from tauberian_lab.weights import GridCube, GridWeight


def _cells(q: GridCube) -> tuple[slice, ...]:
    return tuple(slice(c, c + q.side) for c in q.corner)


def _prefix_mass(values: np.ndarray):
    """cube -> mass by inclusion-exclusion over prefix sums built here.

    The rounding is the fast path's on purpose.  A prefix difference is exact
    only to rounding of the grid total, so a light cube beside heavy cells
    carries a large relative error: on [[0, 256, 66], [0, 0, 0], [0.001, 0, 254]]
    fast Fujii-Wilson gives 1.75 * (1 + 1.35e-11), where slice sums (and exact
    arithmetic) give 1.75, outside the 1e-12 of the Fujii-Wilson properties.
    """
    sums = values
    for axis in range(values.ndim):
        sums = np.cumsum(sums, axis=axis)
    p = np.zeros(tuple(k + 1 for k in values.shape))
    p[(slice(1, None),) * values.ndim] = sums

    def mass(q: GridCube) -> float:
        if values.ndim == 1:
            (i,), s = q.corner, q.side
            return float(p[i + s] - p[i])
        (i, j), s = q.corner, q.side
        return float(p[i + s, j + s] - p[i, j + s] - p[i + s, j] + p[i, j])

    return mass


def fujii_wilson_naive(w: GridWeight) -> float:
    """Fujii-Wilson gauge by enumeration: for every cube Q and every cell of Q,
    the largest average over the cubes inside Q that cover the cell."""
    best = 0.0
    cubes = list(w.cubes())
    cube_mass = _prefix_mass(w.values)
    for q in cubes:
        mass = cube_mass(q)
        if mass <= 0:
            continue
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
                    m = max(m, cube_mass(r) / w.cube_volume(r))
            integ += m * w.cell_volume
        best = max(best, integ / mass)
    return best


def _admissible_cubes(variant: str, n: int, dim: int):
    """(cube, cells whose value it bounds) for every cube the grid engine's
    variant ranges over: all of its cells, or only the center cell for the
    centered variant."""
    if variant == "uncentered":
        for s in range(1, n + 1):
            for corner in itertools.product(range(n - s + 1), repeat=dim):
                q = GridCube(corner, s)
                yield q, _cells(q)
    elif variant == "centered":
        for t in range(1, n + 1, 2):
            for center in itertools.product(range(t // 2, n - t // 2), repeat=dim):
                yield GridCube(tuple(c - t // 2 for c in center), t), center
    else:
        s = 1
        while s <= n:
            for corner in itertools.product(range(0, n, s), repeat=dim):
                q = GridCube(corner, s)
                yield q, _cells(q)
            s *= 2


def grid_maximal_naive(e: np.ndarray, spec: MaximalSpec, weight: GridWeight | None = None
                       ) -> np.ndarray:
    """Grid maximal function by enumeration: every admissible cube with a cell
    of positive mass raises the cells it bounds to its E-mass fraction; cells
    that no such cube bounds get 0."""
    e = np.asarray(e, dtype=bool)
    masses = weight.values if spec.measure == "grid-weight" else np.ones(e.shape)
    vals = np.zeros(e.shape)
    for q, target in _admissible_cubes(spec.variant, e.shape[0], e.ndim):
        cells = _cells(q)
        if not (masses[cells] > 0).any():
            continue
        ratio = masses[cells][e[cells]].sum() / masses[cells].sum()
        vals[target] = np.maximum(vals[target], ratio)
    return vals


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
