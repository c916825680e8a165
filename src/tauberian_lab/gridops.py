"""Small shared array kernels for grid sweeps.

`prefix` and `window_sums` are the one place where grid prefix sums and the
sums over grid cubes are computed; the weight gauges and the grid maximal
operator take every cube mass from them.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def resolution(values: np.ndarray) -> int:
    """Cells per axis of a 1-D or square 2-D grid; ValueError for any other shape."""
    if values.ndim not in (1, 2):
        raise ValueError("only 1-D and 2-D grids are supported")
    if values.ndim == 2 and values.shape[0] != values.shape[1]:
        raise ValueError("2-D grid must be square")
    return values.shape[0]


def prefix(values) -> np.ndarray:
    """Prefix sums with a zero row in front on every axis:
    p[i, j] = sum of values[:i, :j] (and p[i] = sum of values[:i] in 1-D).

    The axes are summed in order 0, 1, ..., so the result is bit-identical to
    values.cumsum(axis=0).cumsum(axis=1) in 2-D.
    """
    values = np.asarray(values, dtype=float)
    sums = values
    for axis in range(values.ndim):
        sums = sums.cumsum(axis=axis)
    p = np.zeros(tuple(k + 1 for k in values.shape))
    p[(slice(1, None),) * values.ndim] = sums
    return p


def window_sums(p: np.ndarray, s: int) -> np.ndarray:
    """Sums of all side-s windows of the grid behind prefix p, indexed by the
    window's first cell; 1 <= s <= N.

    The 2-D inclusion-exclusion is written out in the fixed order
    p[s:, s:] - p[:-s, s:] - p[s:, :-s] + p[:-s, :-s].  Float subtraction is
    not associative, so another order changes last bits, and the pinned gauge
    values and the benchmark's superlevel-mask digests depend on them.  The
    formulas are written out per dimension rather than as a loop over the
    2^d corners because this is the innermost call of grid_maximal and the
    gauges, and such a loop costs more than the array work at desk sizes.
    """
    if p.ndim == 1:
        return p[s:] - p[:-s]
    if p.ndim == 2:
        return p[s:, s:] - p[:-s, s:] - p[s:, :-s] + p[:-s, :-s]
    raise ValueError(f"window sums support 1-D and 2-D grids, got {p.ndim}-D")


def trailing_max(arr: np.ndarray, window: int, out_len: int, axis: int) -> np.ndarray:
    """max over positions [c-window+1, c] of arr along axis, for c in [0, out_len)."""
    m = arr.shape[axis]
    pad_front = window - 1
    pad_back = out_len + window - 1 - (m + pad_front)
    pads = [(0, 0)] * arr.ndim
    pads[axis] = (pad_front, max(0, pad_back))
    padded = np.pad(arr, pads, constant_values=-np.inf)
    view = sliding_window_view(padded, window, axis=axis)
    return view.max(axis=-1)
