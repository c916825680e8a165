"""Slow reference implementations that the fast library paths are tested against.

No oracle here calls `gridops`, the window kernel that the fast paths share,
so a wrong slice or sign there shows up as a difference between a fast path
and its oracle.
"""

import itertools

import numpy as np

from tauberian_lab.maximal import MaximalSpec
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
