"""Small shared array kernels for grid sweeps.

`side_sums` is the one place where the sums over grid cubes are computed;
the weight gauges and the grid maximal operator take every cube mass from it.
"""

from __future__ import annotations

import numpy as np


def resolution(values: np.ndarray) -> int:
    """Cells per axis of a 1-D or square 2-D grid; ValueError for any other shape."""
    if values.ndim not in (1, 2):
        raise ValueError("only 1-D and 2-D grids are supported")
    if values.ndim == 2 and values.shape[0] != values.shape[1]:
        raise ValueError("2-D grid must be square")
    return values.shape[0]


def side_sums(values):
    """Yield, for s = 1..N, the sums of all side-s cubes of a 1-D or square
    2-D grid, as read-only arrays indexed by the cube's first cell.

    Side s is side s - 1 plus new cells, by additions only.  In 1-D,
    W_s = W_{s-1}[:-1] + v[s-1:].  In 2-D, W_s adds to W_{s-1} the cube's
    last row (a running row window of s cells) and its last column less
    that row's cell (a running column window of s - 1 cells).  Each sum of
    a side-s cube has at most d*s terms on its longest chain of additions,
    so it is within d*s*u / (1 - d*s*u) of the exact sum of its cells, u =
    2^-53, relative to the sum of their absolute values.  For nonnegative
    cells that is relative to the cube's own mass, and a cube with no
    nonzero cell sums to exactly 0.0.  O(N^(d+1)) additions over all sides.
    """
    v = np.array(values, dtype=float)
    n = resolution(v)
    v.flags.writeable = False
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
        sums.flags.writeable = False
        yield sums
