"""The sampling recipes draw exactly what they drew while their settings
were parameters, and leave the generator in the same state."""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_family_settable, random_grid_cube_family_settable
from tauberian_lab.sampling import random_family, random_grid_cube_family, rng_for

SEEDS = st.integers(0, 2**64 - 1)


@settings(max_examples=200)
@given(SEEDS, st.integers(1, 3), st.integers(0, 20), st.booleans())
def test_random_family_draws_as_before(seed, dim, count, decreasing):
    rng, old = rng_for(seed, "family"), rng_for(seed, "family")
    assert (random_family(rng, dim, count, decreasing)
            == random_family_settable(old, dim, count, decreasing))
    assert rng.bit_generator.state == old.bit_generator.state


@settings(max_examples=200)
@given(SEEDS, st.integers(1, 64), st.integers(1, 3), st.integers(0, 20))
def test_random_grid_cube_family_draws_as_before(seed, n, dim, count):
    rng, old = rng_for(seed, "cubes"), rng_for(seed, "cubes")
    assert (random_grid_cube_family(rng, n, dim, count)
            == random_grid_cube_family_settable(old, n, dim, count))
    assert rng.bit_generator.state == old.bit_generator.state
