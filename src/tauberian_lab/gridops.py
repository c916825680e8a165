"""Small shared array kernels for grid sweeps.

`side_table` is the one place where the sums over grid cubes are computed;
the weight gauges and the grid maximal operator take every cube mass from it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


def resolution(values: np.ndarray) -> int:
    """Cells per axis of a 1-D or square 2-D grid; ValueError for any other shape."""
    if values.ndim not in (1, 2):
        raise ValueError("only 1-D and 2-D grids are supported")
    if values.ndim == 2 and values.shape[0] != values.shape[1]:
        raise ValueError("2-D grid must be square")
    return values.shape[0]


class SideTable(NamedTuple):
    flat: np.ndarray
    sides: tuple[np.ndarray, ...]


def side_table(values) -> SideTable:
    """The sums of all cubes of a 1-D or square 2-D grid, in a fresh table
    that the caller owns: `flat` holds side 1's sums, then side 2's, ...,
    then side N's, each in row-major order of the cube's first cell, and
    `sides[s - 1]` is side s's part of `flat` shaped by corner, (N-s+1,)*d.

    Side s is side s - 1 plus new cells, by additions only.  In 1-D,
    W_s = W_{s-1}[:-1] + v[s-1:].  In 2-D, W_s adds to W_{s-1} the cube's
    last row (a running row window of s cells) and its last column less
    that row's cell (a running column window of s - 1 cells).  Each sum of
    a side-s cube has at most d*s terms on its longest chain of additions,
    so it is within d*s*u / (1 - d*s*u) of the exact sum of its cells, u =
    2^-53, relative to the sum of their absolute values.  For nonnegative
    cells that is relative to the cube's own mass, and a cube with no nonzero
    cell sums to exactly 0.0.  O(N^(d+1)) additions and floats (4 MB at 1-D N=1024).
    """
    v = np.asarray(values, dtype=float)
    n, d = resolution(v), v.ndim
    sizes = [(n - i) ** d for i in range(n)]
    flat = np.empty(sum(sizes))
    sides = tuple(a.reshape((n - i,) * d)
                  for i, a in enumerate(np.split(flat, np.cumsum(sizes)[:-1])))
    sides[0][...] = rows = v
    for s in range(2, n + 1):
        prev, cur = sides[s - 2], sides[s - 1]
        if d == 1:
            np.add(prev[:-1], v[s - 1:], out=cur)
        else:
            # rows[r, j]: cells (r, j..j+s-1); cols[i, c]: cells (i..i+s-2, c)
            rows = rows[:, :-1] + v[:, s - 1:]
            cols = v if s == 2 else cols[:-1] + v[s - 2:]
            np.add(prev[:-1, :-1], rows[s - 1:], out=cur)
            cur += cols[:-1, s - 1:]
    return SideTable(flat, sides)
