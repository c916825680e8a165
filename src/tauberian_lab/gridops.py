"""Small shared array kernels for grid sweeps.

`side_sums` is the one place where the sums over grid cubes are computed;
the weight gauges and the grid maximal operator take every cube mass from it.
It lays them out side after side in one flat buffer, side s at a fixed offset
(`side_offsets`).  `side_table` adds each side's view of that buffer, a
slice reshaped by corner, for the callers that index cubes by side.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np


def resolution(values: np.ndarray) -> int:
    """Cells per axis of a nonempty 1-D or square 2-D grid; ValueError otherwise."""
    if values.ndim not in (1, 2):
        raise ValueError("only 1-D and 2-D grids are supported")
    if values.ndim == 2 and values.shape[0] != values.shape[1]:
        raise ValueError("2-D grid must be square")
    if values.size == 0:
        raise ValueError("empty grid")
    return values.shape[0]


@functools.lru_cache(maxsize=64)
def side_offsets(n: int, d: int) -> tuple[int, ...]:
    """Where each side starts in `side_sums`' flat buffer: side s fills
    [offsets[s - 1], offsets[s]), (N-s+1)^d sums, and offsets[N] is the size.
    Cached per (N, d), so every call with the same (N, d) shares the tuple."""
    return tuple(itertools.accumulate(((n - i) ** d for i in range(n)), initial=0))


def side_sums(values) -> np.ndarray:
    """The sums of all cubes of a 1-D or square 2-D grid, in one fresh flat
    buffer that the caller owns: side 1's sums, then side 2's, ..., then
    side N's, each in row-major order of the cube's first cell.  Side s
    starts at `side_offsets(N, d)[s - 1]`.

    Side s is side s - 1 plus new cells, by additions only, written straight
    into side s's part of the buffer.  In 1-D, W_s = W_{s-1}[:-1] + v[s-1:].
    In 2-D, W_s adds to W_{s-1} the cube's last row (a running row window of
    s cells) and its last column less that row's cell (a running column
    window of s - 1 cells).  Each sum of a side-s cube has at most d*s terms
    on its longest chain of additions, so it is within d*s*u / (1 - d*s*u)
    of the exact sum of its cells, u = 2^-53, relative to the sum of their
    absolute values.  For nonnegative cells that is relative to the cube's
    own mass, and a cube with no nonzero cell sums to exactly 0.0.
    O(N^(d+1)) additions and floats (4 MB at 1-D N=1024); in 1-D nothing
    else is allocated, in 2-D two running windows of at most N^2 floats.
    """
    v = np.asarray(values, dtype=float)
    n, d = resolution(v), v.ndim
    o = side_offsets(n, d)
    flat = np.empty(o[-1])
    flat[:o[1]] = v.ravel()
    if d == 1:
        for s in range(2, n + 1):
            np.add(flat[o[s - 2]:o[s - 1] - 1], v[s - 1:], out=flat[o[s - 1]:o[s]])
        return flat
    rows = v
    for s in range(2, n + 1):
        k = n - s + 1
        prev = flat[o[s - 2]:o[s - 1]].reshape(k + 1, k + 1)
        cur = flat[o[s - 1]:o[s]].reshape(k, k)
        # rows[r, j]: cells (r, j..j+s-1); cols[i, c]: cells (i..i+s-2, c)
        rows = rows[:, :-1] + v[:, s - 1:]
        cols = v if s == 2 else cols[:-1] + v[s - 2:]
        np.add(prev[:-1, :-1], rows[s - 1:], out=cur)
        cur += cols[:-1, s - 1:]
    return flat


class SideTable(NamedTuple):
    flat: np.ndarray
    sides: tuple[np.ndarray, ...]


def side_table(values) -> SideTable:
    """`side_sums(values)` as `flat`, with `sides[s - 1]` side s's part of
    it: the slice at `side_offsets(N, d)[s - 1]` shaped by corner,
    (N-s+1,)*d, a view that shares flat's memory.  For callers that index
    cubes by side and corner; the ones that read every cube at once take
    `side_sums` alone.
    """
    flat = side_sums(values)
    shape = np.shape(values)
    n, d = shape[0], len(shape)
    o = side_offsets(n, d)
    return SideTable(flat, tuple(flat[lo:hi].reshape((n - i,) * d)
                                 for i, (lo, hi) in enumerate(zip(o, o[1:]))))
