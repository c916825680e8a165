"""Exact rational geometry of axis-parallel boxes.

Everything in this module is exact; there are no tolerances.  A Box is a
closed axis-parallel cube (one sidelength for all axes).

Box families are measured by coordinate compression on one integer grid, as
in Klee's measure problem.  A family is converted once to integer corner
arrays L, H at one scale D, the lcm of the corner denominators.  Per axis, the
grid coordinates are the distinct corners, so a box is a slice tuple into the
grid and a region is a boolean mask over its cells: union is `|`, difference
`& ~`, and measure the integer sum of the marked cells' volumes divided once
by D^d.  Those sums are int64 while the product of the axis spans is below
2^62 and Python ints beyond.  Dilations stay integer too: for t = p/q, at
scale 2qD a box is (2qL, 2qH) and its concentric t-dilate q(L+H) -/+ p(H-L).

Supported dimensions: 1, 2, 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InvariantViolation, OrderingViolation

ORDER_DECREASING = "decreasing-sidelength"
ORDER_UNORDERED = "unordered"


def _to_rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class Box:
    """Closed axis-parallel cube: center per axis, one sidelength."""

    center: tuple[Fraction, ...]
    side: Fraction
    lo: tuple[Fraction, ...] = field(init=False, compare=False, repr=False)
    hi: tuple[Fraction, ...] = field(init=False, compare=False, repr=False)

    def __init__(self, center: Sequence, side) -> None:
        center = tuple(_to_rat(c) for c in center)
        side = _to_rat(side)
        if side <= 0:
            raise ValueError("box sidelength must be positive")
        if not 1 <= len(center) <= 3:
            raise ValueError("supported dimensions are 1..3")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "side", side)
        h = side / 2
        object.__setattr__(self, "lo", tuple(c - h for c in center))
        object.__setattr__(self, "hi", tuple(c + h for c in center))

    @property
    def dim(self) -> int:
        return len(self.center)

    def volume(self) -> Fraction:
        return self.side ** self.dim

    def contains_point(self, pt: Sequence) -> bool:
        pt = tuple(_to_rat(x) for x in pt)
        if len(pt) != self.dim:
            raise ValueError("dimension mismatch")
        return all(l <= x <= u for l, x, u in zip(self.lo, pt, self.hi))

    def contains_box(self, other: "Box") -> bool:
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return all(sl <= ol and ou <= su
                   for sl, ol, ou, su in zip(self.lo, other.lo, other.hi, self.hi))

    def intersects(self, other: "Box") -> bool:
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        # closed boxes: touching faces count as intersecting
        return all(ol <= su and sl <= ou
                   for sl, su, ol, ou in zip(self.lo, self.hi, other.lo, other.hi))


def dilate(b: Box, factor) -> Box:
    """Concentric dilation: same center, sidelength multiplied by factor."""
    factor = _to_rat(factor)
    if factor <= 0:
        raise ValueError("dilation factor must be positive")
    return Box(b.center, b.side * factor)


@dataclass(frozen=True)
class BoxFamily:
    """Ordered list of same-dimension boxes with an ordering tag."""

    boxes: tuple[Box, ...]
    ordering_tag: str = ORDER_UNORDERED

    def __init__(self, boxes: Iterable[Box], ordering_tag: str = ORDER_UNORDERED):
        boxes = tuple(boxes)
        if boxes:
            dims = {b.dim for b in boxes}
            if len(dims) != 1:
                raise ValueError("boxes in a family must share a dimension")
        if ordering_tag not in (ORDER_DECREASING, ORDER_UNORDERED):
            raise ValueError(f"unknown ordering tag {ordering_tag!r}")
        if ordering_tag == ORDER_DECREASING:
            sides = [b.side for b in boxes]
            if any(a < b for a, b in zip(sides, sides[1:])):
                raise OrderingViolation("sidelengths are not nonincreasing")
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "ordering_tag", ordering_tag)

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self):
        return iter(self.boxes)

    def __getitem__(self, i: int) -> Box:
        return self.boxes[i]

    @property
    def dim(self) -> int:
        if not self.boxes:
            raise ValueError("empty family has no dimension")
        return self.boxes[0].dim


def sorted_decreasing(boxes: Iterable[Box]) -> BoxFamily:
    """Stable sort by nonincreasing sidelength; ties keep input order."""
    bs = sorted(boxes, key=lambda b: -b.side)
    return BoxFamily(bs, ORDER_DECREASING)


# ---------------------------------------------------------------------------
# Compressed integer grid: cell m of axis a is [axes[a][m], axes[a][m + 1]) / scale
# ---------------------------------------------------------------------------

def _int_corners(corner_boxes: Sequence[tuple[Sequence[Fraction], Sequence[Fraction]]]
                 ) -> tuple[int, np.ndarray, np.ndarray]:
    """The least common denominator D of all corners, and the (k, d) arrays
    L, H of every (lo, hi) times D, as Python ints."""
    dims = {len(c) for pair in corner_boxes for c in pair}
    if len(dims) > 1:
        raise ValueError("dimension mismatch")
    scale = math.lcm(*(c.denominator for lo, hi in corner_boxes for c in (*lo, *hi)))
    d = max(dims, default=0)
    return scale, *(np.array([[c.numerator * (scale // c.denominator) for c in pair[s]]
                              for pair in corner_boxes], dtype=object).reshape(-1, d)
                    for s in (0, 1))


def _axes(coords: Iterable[Iterable[int]]) -> list[np.ndarray]:
    """Per axis, the sorted distinct integers of coords[a]: int64 while every
    |coordinate| and the product of the axis spans are below 2^62, else Python ints."""
    axes = [sorted(set(c)) for c in coords]
    small = (max((max(-ax[0], ax[-1]) for ax in axes), default=0) < 2**62
             and math.prod(ax[-1] - ax[0] for ax in axes) < 2**62)
    return [np.array(ax, dtype=np.int64 if small else object) for ax in axes]


def _volume(mask: np.ndarray, widths: Sequence[np.ndarray]) -> int:
    """Exact integer volume of the marked cells; widths[a] are the cell widths
    along axis a.  einsum streams the mask, where `@` would cast a full copy."""
    v = np.einsum("...k,k->...", mask, widths[-1])
    for w in reversed(widths[:-1]):
        v = v @ w
    return int(v)


class _Grid:
    """The compressed grid of k integer boxes [L_i, H_i) on one scale; box i
    covers the cells start[i][a] <= m < stop[i][a] of axis a."""

    def __init__(self, scale: int, lo: np.ndarray, hi: np.ndarray):
        self.scale, self.dim = scale, lo.shape[1]
        self.axes = _axes(np.concatenate([lo, hi]).T.tolist())
        self.widths = [np.diff(ax) for ax in self.axes]
        self.shape = tuple(len(w) for w in self.widths)
        self.start, self.stop = (
            list(zip(*(np.searchsorted(ax, c[:, a].astype(ax.dtype)).tolist()
                       for a, ax in enumerate(self.axes))))
            for c in (lo, hi))
        self.slices = [_cells(s, t, (0,) * self.dim) for s, t in zip(self.start, self.stop)]

    def cover(self, idx: Iterable[int]) -> np.ndarray:
        """Mask of the union of the boxes idx."""
        mask = np.zeros(self.shape, dtype=bool)
        for i in idx:
            mask[self.slices[i]] = True
        return mask

    def measure(self, mask: np.ndarray, cells: tuple[slice, ...] | None = None) -> Fraction:
        """Exact measure of the marked cells of mask, which spans the cells `cells`."""
        widths = self.widths if cells is None else [w[c] for w, c in zip(self.widths, cells)]
        return Fraction(_volume(mask, widths), self.scale ** self.dim)


def _cells(start: Sequence[int], stop: Sequence[int], origin: Sequence[int]):
    """Slices of the cells start <= m < stop from origin on (indexing cuts the far end)."""
    return tuple(slice(max(s - o, 0), max(t - o, 0)) for s, t, o in zip(start, stop, origin))


class BoxRegion:
    """Finite union of boxes: a boolean mask over the cells of a compressed
    grid whose coordinates are `axes` divided by `scale`."""

    __slots__ = ("dim", "scale", "axes", "mask")

    def __init__(self, dim: int, scale: int, axes: list[np.ndarray], mask: np.ndarray):
        self.dim, self.scale, self.axes, self.mask = dim, scale, axes, mask

    # -- constructors -------------------------------------------------------

    @staticmethod
    def empty(dim: int) -> "BoxRegion":
        return BoxRegion(dim, 1, [np.zeros(1, dtype=np.int64)] * dim,
                         np.zeros((0,) * dim, dtype=bool))

    @staticmethod
    def from_boxes(boxes: Sequence[Box]) -> "BoxRegion":
        boxes = list(boxes)
        if not boxes:
            raise ValueError("from_boxes needs at least one box; use empty(dim)")
        return BoxRegion.from_rational_corners(boxes[0].dim, [(b.lo, b.hi) for b in boxes])

    @staticmethod
    def from_rational_corners(
        dim: int, corner_boxes: Sequence[tuple[Sequence[Fraction], Sequence[Fraction]]]
    ) -> "BoxRegion":
        if not corner_boxes:
            return BoxRegion.empty(dim)
        g = _Grid(*_int_corners(corner_boxes))
        if g.dim != dim:
            raise ValueError("dimension mismatch")
        return BoxRegion(dim, g.scale, g.axes, g.cover(range(len(corner_boxes))))

    @property
    def frags(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """One half-open integer box per marked cell, on the scale `scale`."""
        cells = np.nonzero(self.mask)
        lo, hi = ([ax[c + k].tolist() for ax, c in zip(self.axes, cells)] for k in (0, 1))
        return list(zip(zip(*lo), zip(*hi)))

    def rational_frags(self) -> list[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]:
        return [tuple(tuple(Fraction(x, self.scale) for x in c) for c in frag)
                for frag in self.frags]

    # -- queries ------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.mask.any()

    def measure(self) -> Fraction:
        return Fraction(_volume(self.mask, [np.diff(ax) for ax in self.axes]),
                        self.scale ** self.dim)

    def contains_point(self, pt: Sequence) -> bool:
        pt = tuple(_to_rat(x) * self.scale for x in pt)
        if len(pt) != self.dim:
            raise ValueError("dimension mismatch")
        return any(all(l <= x <= h for l, x, h in zip(lo, pt, hi)) for lo, hi in self.frags)

    # -- set operations -----------------------------------------------------

    def _on(self, axes: list[np.ndarray], scale: int) -> np.ndarray:
        """This mask on the finer grid `axes` at `scale`, a multiple of self.scale."""
        # padded cell p + 1 is own cell p; the pads hold what lies outside
        mask = np.zeros([n + 2 for n in self.mask.shape], dtype=bool)
        mask[(slice(1, -1),) * self.dim] = self.mask
        for a, (own, ax) in enumerate(zip(self.axes, axes)):
            own = own.astype(ax.dtype) * (scale // self.scale)
            mask = mask.take(np.searchsorted(own, ax[:-1], side="right"), axis=a)
        return mask

    def _merged(self, other: "BoxRegion") -> tuple[int, list[np.ndarray], np.ndarray, np.ndarray]:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        scale = math.lcm(self.scale, other.scale)
        axes = _axes([[x * (scale // r.scale) for r in (self, other) for x in r.axes[a].tolist()]
                      for a in range(self.dim)])
        return scale, axes, self._on(axes, scale), other._on(axes, scale)

    def union(self, other: "BoxRegion") -> "BoxRegion":
        scale, axes, a, b = self._merged(other)
        return BoxRegion(self.dim, scale, axes, a | b)

    def subtract(self, other: "BoxRegion") -> "BoxRegion":
        scale, axes, a, b = self._merged(other)
        return BoxRegion(self.dim, scale, axes, a & ~b)

    def dilate_about(self, center: Sequence, factor) -> "BoxRegion":
        """Image under x -> center + factor*(x - center); exact affine map.  It
        is increasing on every axis, so it moves the grid lines and keeps the mask."""
        factor = _to_rat(factor)
        if factor <= 0:
            raise ValueError("dilation factor must be positive")
        center = tuple(_to_rat(c) for c in center)
        if len(center) != self.dim:
            raise ValueError("dimension mismatch")
        mapped = [[c + factor * (Fraction(int(x), self.scale) - c) for x in ax]
                  for c, ax in zip(center, self.axes)]
        scale = math.lcm(*(x.denominator for ax in mapped for x in ax))
        axes = _axes([[x.numerator * (scale // x.denominator) for x in ax] for ax in mapped])
        return BoxRegion(self.dim, scale, axes, self.mask)


def symmetric_difference_measure(a: BoxRegion, b: BoxRegion) -> Fraction:
    return a.subtract(b).measure() + b.subtract(a).measure()


# ---------------------------------------------------------------------------
# Operations on families
# ---------------------------------------------------------------------------


def dilate_set_about(b_center: Box, region: BoxRegion, factor) -> BoxRegion:
    """Dilate a region about the center of a reference box."""
    if region.dim != b_center.dim:
        raise ValueError("dimension mismatch between box and region")
    return region.dilate_about(b_center.center, factor)


def union_measure(f: BoxFamily | Sequence[Box]) -> Fraction:
    boxes = list(f)
    if not boxes:
        return Fraction(0)
    return BoxRegion.from_boxes(boxes).measure()


def increments(f: BoxFamily) -> list[BoxRegion]:
    """Disjointification of a decreasing-ordered family into increment
    regions E_j = Q_j minus the earlier boxes, by one pass with a running OR."""
    if f.ordering_tag != ORDER_DECREASING:
        raise OrderingViolation("increments require a decreasing-sidelength family")
    grid = _Grid(*_int_corners([(b.lo, b.hi) for b in f]))
    masks = [grid.cover([i]) for i in range(len(grid.slices))]
    seen = np.logical_or.accumulate([np.zeros(grid.shape, dtype=bool)] + masks)
    return [BoxRegion(grid.dim, grid.scale, grid.axes, m & ~s) for m, s in zip(masks, seen)]


class IdentityCheck(NamedTuple):
    holds: bool
    defect: Fraction


_BLOCK_CELLS = 1 << 17  # cells per slab in the sweep of check_dilation_identity


def check_dilation_identity(f: BoxFamily | Sequence[Box], delta) -> IdentityCheck:
    """Compare the union of per-box dilates with the union of dilated increments.

    For every family ordered by nonincreasing sidelength the two unions agree
    exactly and the defect is 0; for order-violating families the defect is
    the exact measure of the symmetric difference.

    D_j, the dilation by t = 1 + delta = p/q about the centre of Q_j, is an
    affine bijection, so D_j(E_j) = D_j(Q_j) minus the D_j(Q_i), i < j: both
    sides live on the grid of the k(k+1)/2 boxes D_j(Q_i), i <= j, whose
    corners at scale 2qD are (q-p)(L_j+H_j) + 2p L_i and (q-p)(L_j+H_j) + 2p H_i.
    That grid has up to (k(k+1))^d cells; it is swept along axis 0 in slabs of
    at most _BLOCK_CELLS = 2^17 cells (one row of axis 0 if a row is larger),
    and each D_j(E_j) is built inside its own slice.
    """
    delta = _to_rat(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    boxes = list(f)
    if not boxes:
        return IdentityCheck(True, Fraction(0))
    scale, lo, hi = _int_corners([(b.lo, b.hi) for b in boxes])
    p, q = (1 + delta).numerator, (1 + delta).denominator
    jj, ii = np.tril_indices(len(boxes))  # box j * (j + 1) // 2 + i is D_j(Q_i)
    base = (q - p) * (lo + hi)[jj]
    grid = _Grid(2 * q * scale, base + 2 * p * lo[ii], base + 2 * p * hi[ii])
    rows = max(1, _BLOCK_CELLS // math.prod(grid.shape[1:]))
    defect = 0
    for a in range(0, grid.shape[0], rows):
        b = min(a + rows, grid.shape[0])
        slab = (a,) + (0,) * (grid.dim - 1)
        lhs = np.zeros((b - a,) + grid.shape[1:], dtype=bool)
        rhs = np.zeros_like(lhs)
        for j in range(len(boxes)):
            own = j * (j + 1) // 2 + j
            if grid.start[own][0] >= b or grid.stop[own][0] <= a:
                continue
            sl = _cells(grid.start[own], grid.stop[own], slab)
            part = np.ones(lhs[sl].shape, dtype=bool)
            origin = tuple(map(max, grid.start[own], slab))
            for i in range(own - j, own):
                part[_cells(grid.start[i], grid.stop[i], origin)] = False
            lhs[sl] = True
            rhs[sl] |= part
        defect += _volume(lhs ^ rhs, [grid.widths[0][a:b]] + grid.widths[1:])
    return IdentityCheck(defect == 0, Fraction(defect, grid.scale ** grid.dim))


def enlargement_excess(f: BoxFamily | Sequence[Box], delta) -> Fraction:
    """Exact measure of (union of (1+delta)-dilates) minus (union of the boxes),
    taken on one grid of the boxes and their dilates."""
    delta = _to_rat(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    boxes = list(f)
    if not boxes:
        return Fraction(0)
    k = len(boxes)
    grid = _dilated_grid(*_int_corners([(b.lo, b.hi) for b in boxes]), 1 + delta)
    return grid.measure(grid.cover(range(k, 2 * k)) & ~grid.cover(range(k)))


def _dilated_grid(scale: int, lo: np.ndarray, hi: np.ndarray, t: Fraction,
                  first: int = 0) -> _Grid:
    """The grid of the boxes [lo, hi], then the concentric t-dilates of the
    boxes from `first` on, at scale 2q * scale for t = p/q."""
    p, q = t.numerator, t.denominator
    mid, half = q * (lo[first:] + hi[first:]), p * (hi[first:] - lo[first:])
    return _Grid(2 * q * scale, np.concatenate([2 * q * lo, mid - half]),
                 np.concatenate([2 * q * hi, mid + half]))


def is_satellite(f: BoxFamily | Sequence[Box], center_index: int = 0) -> bool:
    """True iff every box meets the center box and is no larger than it."""
    boxes = list(f)
    if not 0 <= center_index < len(boxes):
        raise ValueError("center index out of range")
    center = boxes[center_index]
    for i, b in enumerate(boxes):
        if i == center_index:
            continue
        if b.side > center.side or not b.intersects(center):
            return False
    big = dilate(center, 3)
    # geometric consequence of the definition, kept as a hard invariant
    if not all(big.contains_box(b) for b in boxes):
        raise InvariantViolation("satellite union escapes 3*center")
    return True
