import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from oracles import fsum_mass, side_sum_rel, side_sums
from tauberian_lab import gridops
from tauberian_lab.weights import GridCube

# cell masses over fourteen orders of magnitude, with exact zeros among them
MASSES = st.one_of(st.just(0.0), st.floats(min_value=math.exp(-8), max_value=math.exp(6)))


@st.composite
def grids(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(min_value=1, max_value=16 if dim == 1 else 8))
    return np.reshape(draw(st.lists(MASSES, min_size=n**dim, max_size=n**dim)), (n,) * dim)


@given(grids())
def test_side_sums_match_fsum(v):
    """Every side-s sum is within side_sum_rel(d, s) of the correctly rounded
    sum of its cube, relative to that cube and to nothing larger."""
    n, d = v.shape[0], v.ndim
    flat, sides = gridops.side_table(v)
    assert len(sides) == n
    for s, sums in enumerate(sides, 1):
        assert sums.shape == (n - s + 1,) * d
        for corner in np.ndindex(*sums.shape):
            want = fsum_mass(v, GridCube(corner, s))
            assert abs(sums[corner] - want) <= side_sum_rel(d, s) * want


@given(grids())
def test_side_sums_zero_exactly_on_cubes_without_mass(v):
    for s, sums in enumerate(gridops.side_table(v).sides, 1):
        cells = sliding_window_view(v > 0, (s,) * v.ndim)
        has_mass = cells.any(axis=tuple(range(v.ndim, 2 * v.ndim)))
        assert np.array_equal(sums > 0, has_mass)
        assert np.all(sums[~has_mass] == 0.0)


def test_side_sums_rejects_3d():
    with pytest.raises(ValueError, match="1-D and 2-D"):
        gridops.side_table(np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="square"):
        gridops.side_table(np.ones((2, 3)))


@given(grids())
def test_side_table_layout_and_per_side_kernel_bit_for_bit(v):
    """flat holds side 1's sums, then side 2's, ...; each side is a view of
    its part, and every sum has the bits of the per-side kernel's."""
    flat, sides = gridops.side_table(v)
    assert flat.ndim == 1 and flat.size == sum(a.size for a in sides)
    assert flat.tobytes() == b"".join(a.tobytes() for a in sides)
    for sums, want in zip(sides, side_sums(v), strict=True):
        assert sums.base is flat and sums.shape == want.shape
        assert sums.tobytes() == want.tobytes()


@given(grids())
def test_side_sums_is_side_tables_flat_and_the_per_side_kernel_bit_for_bit(v):
    got = gridops.side_sums(v).tobytes()
    assert got == gridops.side_table(v).flat.tobytes()
    assert got == b"".join(a.tobytes() for a in side_sums(v))


@pytest.mark.parametrize("n, d", [(1, 1), (7, 1), (5, 2)])
def test_side_offsets_are_one_cached_tuple(n, d):
    offsets = gridops.side_offsets(n, d)
    assert isinstance(offsets, tuple) and offsets is gridops.side_offsets(n, d)
    assert offsets[0] == 0
    assert np.diff(offsets).tolist() == [a.size for a in side_sums(np.ones((n,) * d))]


def test_side_sums_peak_memory_is_its_output():
    # 1-D sides are written straight into the buffer: no temporary per side,
    # and never an N x N window
    v = np.random.default_rng(1).random(1024)
    gridops.side_sums(v)
    tracemalloc.start()
    try:
        out = gridops.side_sums(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * out.nbytes
