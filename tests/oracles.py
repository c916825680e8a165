"""Slow reference implementations that the fast library paths are tested against."""

import numpy as np

from tauberian_lab.weights import GridWeight


def fujii_wilson_naive(w: GridWeight) -> float:
    """Fujii-Wilson gauge by enumeration: for every cube Q and every cell of Q,
    the largest average over the cubes inside Q that cover the cell."""
    best = 0.0
    cubes = list(w.cubes())
    for q in cubes:
        mass = w.cube_mass(q)
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
                    m = max(m, w.cube_mass(r) / w.cube_volume(r))
            integ += m * w.cell_volume
        best = max(best, integ / mass)
    return best
