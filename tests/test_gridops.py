import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from oracles import fsum_mass, side_sum_rel
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
    sides = list(gridops.side_sums(v))
    assert len(sides) == n
    for s, sums in enumerate(sides, 1):
        assert sums.shape == (n - s + 1,) * d
        for corner in np.ndindex(*sums.shape):
            want = fsum_mass(v, GridCube(corner, s))
            assert abs(sums[corner] - want) <= side_sum_rel(d, s) * want


@given(grids())
def test_side_sums_zero_exactly_on_cubes_without_mass(v):
    for s, sums in enumerate(gridops.side_sums(v), 1):
        cells = sliding_window_view(v > 0, (s,) * v.ndim)
        has_mass = cells.any(axis=tuple(range(v.ndim, 2 * v.ndim)))
        assert np.array_equal(sums > 0, has_mass)
        assert np.all(sums[~has_mass] == 0.0)


def test_side_sums_rejects_3d():
    with pytest.raises(ValueError, match="1-D and 2-D"):
        next(gridops.side_sums(np.ones((2, 2, 2))))
