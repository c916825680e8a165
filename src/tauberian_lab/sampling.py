"""Deterministic random generators for property suites and searches.

All randomness flows through numpy Generators seeded as (seed, task label),
so independent tasks of one run draw from decoupled streams and results do
not depend on scheduling.
"""

from __future__ import annotations

import zlib
from fractions import Fraction

import numpy as np

from .geometry import Box, BoxFamily, sorted_decreasing


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Generator seeded by (seed, stable hash of label)."""
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, zlib.crc32(label.encode())])


def _random_box(rng: np.random.Generator, dim: int) -> Box:
    """Box with coordinates in sixteenths: centers in [0, 4], sides in (0, 2]."""
    center = tuple(Fraction(int(rng.integers(0, 4 * 16 + 1)), 16) for _ in range(dim))
    return Box(center, Fraction(int(rng.integers(1, 2 * 16 + 1)), 16))


def random_family(rng: np.random.Generator, dim: int, count: int,
                  decreasing: bool = True) -> BoxFamily:
    boxes = [_random_box(rng, dim) for _ in range(count)]
    if decreasing:
        return sorted_decreasing(boxes)
    return BoxFamily(boxes)


def random_grid_cube_family(rng: np.random.Generator, n: int, dim: int,
                            count: int) -> BoxFamily:
    """Grid-aligned cubes on the N^n grid over [0,1)^n, sorted decreasing;
    sides of 1..max(1, N // 2) cells."""
    boxes = []
    for _ in range(count):
        side = int(rng.integers(1, max(1, n // 2) + 1))
        corner = tuple(int(rng.integers(0, n - side + 1)) for _ in range(dim))
        center = tuple(Fraction(2 * c + side, 2 * n) for c in corner)
        boxes.append(Box(center, Fraction(side, n)))
    return sorted_decreasing(boxes)
