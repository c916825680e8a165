import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tauberian_lab import gridops

MASSES = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3))


@st.composite
def grids_and_sides(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(min_value=1, max_value=12 if dim == 1 else 6))
    vals = draw(st.lists(MASSES, min_size=n**dim, max_size=n**dim))
    return np.reshape(vals, (n,) * dim), draw(st.integers(min_value=1, max_value=n))


@given(grids_and_sides())
def test_window_sums_match_brute_force(case):
    v, s = case
    k = v.shape[0] - s + 1
    want = np.array([v[tuple(slice(i, i + s) for i in corner)].sum()
                     for corner in np.ndindex(*(k,) * v.ndim)]).reshape((k,) * v.ndim)
    got = gridops.window_sums(gridops.prefix(v), s)
    # a difference of prefix sums is exact to rounding relative to the grid
    # total, not to the window, so the tolerance scales with the total
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * v.sum())


def test_window_sums_rejects_3d():
    with pytest.raises(ValueError, match="3-D"):
        gridops.window_sums(gridops.prefix(np.ones((2, 2, 2))), 1)
