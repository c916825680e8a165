"""Exact rational geometry of axis-parallel boxes.

Everything in this module is exact; there are no tolerances.  A Box is a
closed axis-parallel cube (one sidelength for all axes).

Every exact engine of the package puts its numbers on one integer scale,
`_on_scale`: D is the lcm of their denominators, and x becomes the int x * D.

Integer arrays have one width rule, `_fit`: an array is int64 when a bound
the caller proves on every value its arithmetic makes from it is below 2^62,
and holds Python ints otherwise, so no product can overflow.  Each site that
multiplies corners by an outside integer states its own bound from
m = max |corner|.

Box families are measured by coordinate compression on one integer grid, as
in Klee's measure problem.  A family is converted once, on first use, to
integer corner arrays L, H at one scale D, the `_on_scale` of its corners
(a subfamily from `_rows`, such as a selection's `selected`, keeps its
parent's rows and D instead), to the boxes' volumes, to the matrix of which
closed boxes meet, and to the compressed grid of its boxes; BoxFamily caches
all four, but not the grid's cell table, a dense array built on each use.
Work that depends on one more argument is remembered on the family by
`_remembered`, the package's one-entry memo: `covering.cf_select_weighted`
keeps its delta-free stage there, keyed by a weak reference to the weight.
Every family operation here and in `covering` takes a BoxFamily or a plain
sequence of boxes, which it wraps into a BoxFamily once per call, and reads
them.  Order is read from the sides, never declared: the operations that
need nonincreasing sides (`increments` and the Cordoba-Fefferman selectors)
check the cached volumes and raise OrderingViolation.  Decisions that compare
volumes or test whether closed boxes meet are integer comparisons on L, H.
Per axis, the grid coordinates are the distinct corners, so a box is a slice
tuple into the grid and a region is a boolean mask over its cells: union is
`|`, difference `& ~`, and measure the integer sum of the marked cells'
volumes divided once by D^d, bounded by the product of the axis spans.  Dilations stay integer
too: for t = p/q, at scale 2qD a box is (2qL, 2qH) and its concentric
t-dilate q(L+H) -/+ p(H-L).
For t > 1 every box lies in its own t-dilate, so the enlargement excess is
|union of tQ| - |union of Q|: the first on the grid of the k dilates alone,
(2k)^d cells at most, the second cached on the family.

Supported dimensions: 1, 2, 3.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import OrderingViolation


def _to_rat(x) -> Fraction:
    if isinstance(x, Fraction):
        # a Fraction of numpy integers keeps their fixed-width parts
        if type(x.numerator) is type(x.denominator) is int:
            return x
        return Fraction(int(x.numerator), int(x.denominator))
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, numbers.Integral):  # numpy integers
        return Fraction(int(x))
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


_MEMO = "_memo"


def _remembered(owner, key, compute):
    """compute(), or what it gave owner's last call with an equal key: one
    (key, value) entry in owner.__dict__, replaced on a miss."""
    last = owner.__dict__.get(_MEMO)
    if last is not None and last[0] == key:
        return last[1]
    value = compute()
    owner.__dict__[_MEMO] = (key, value)
    return value


def _level(x, name: str) -> Fraction:
    x = _to_rat(x)
    if not 0 < x < 1:
        raise ValueError(f"{name} must lie in (0, 1)")
    return x


def _positive(x, name: str) -> Fraction:
    x = _to_rat(x)
    if x <= 0:
        raise ValueError(f"{name} must be positive")
    return x


def _on_scale(xs: Iterable) -> tuple[int, list[int]]:
    """D, the lcm of the `as_integer_ratio()` denominators of Fractions, ints
    or floats (for floats, powers of two, the largest), and each x * D as an int."""
    ratios = [x.as_integer_ratio() for x in xs]
    scale = math.lcm(*(d for _, d in ratios))
    return scale, [n * (scale // d) for n, d in ratios]


@dataclass(frozen=True)
class Box:
    """Closed axis-parallel cube: center per axis, one sidelength."""

    center: tuple[Fraction, ...]
    side: Fraction
    lo: tuple[Fraction, ...] = field(init=False, compare=False, repr=False)
    hi: tuple[Fraction, ...] = field(init=False, compare=False, repr=False)

    def __init__(self, center: Sequence, side) -> None:
        center = tuple(_to_rat(c) for c in center)
        side = _positive(side, "box sidelength")
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
    return Box(b.center, b.side * _positive(factor, "dilation factor"))


@dataclass(frozen=True)
class BoxFamily:
    """Ordered list of same-dimension boxes."""

    boxes: tuple[Box, ...]

    def __init__(self, boxes: Iterable[Box]):
        boxes = tuple(boxes)
        if boxes:
            dims = {b.dim for b in boxes}
            if len(dims) != 1:
                raise ValueError("dimension mismatch: boxes in a family must share a dimension")
        object.__setattr__(self, "boxes", boxes)

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

    @functools.cached_property
    def _ints(self) -> tuple[int, np.ndarray, np.ndarray, int]:
        """The scale D, the read-only (k, d) integer corner arrays L, H and
        m = max |corner|; (0, 0) arrays on scale 1 for the empty family.  D is
        the least scale of the corners for a family built from boxes; `_rows`
        hands a subfamily its parent's D.  The arrays are `_fit` to (2m)^3,
        which bounds every box volume in d <= 3."""
        scale, lo, hi = _int_corners([(b.lo, b.hi) for b in self.boxes])
        return _frozen_ints(scale, lo, hi)

    def _rows(self, idx: Sequence[int]) -> "BoxFamily":
        """The boxes idx as a family whose `_ints` are these rows of this
        family's, on the same scale D, with m recomputed on them."""
        sub = BoxFamily([self.boxes[i] for i in idx])
        scale, lo, hi, _ = self._ints
        idx = np.asarray(idx, dtype=np.intp)
        sub.__dict__["_ints"] = _frozen_ints(scale, lo[idx], hi[idx])
        return sub

    @functools.cached_property
    def _volumes(self) -> tuple[int, ...]:
        """Each box's integer volume at scale D^d; they order the boxes as their sides do."""
        _, lo, hi, _ = self._ints
        return tuple(np.prod(hi - lo, axis=1).tolist())

    @functools.cached_property
    def _meets(self) -> np.ndarray:
        """Read-only k x k matrix: closed boxes i and j meet (touching faces count)."""
        _, lo, hi, _ = self._ints
        meets = ((lo[:, None] <= hi[None]) & (lo[None] <= hi[:, None])).all(axis=-1)
        meets.flags.writeable = False
        return meets

    @functools.cached_property
    def _grid(self) -> "_Grid":
        """The compressed grid of the family's own boxes, box i is slices[i];
        its axes are read-only, since increments' regions share them."""
        grid = _Grid(*self._ints[:3])
        for ax in grid.axes:
            ax.flags.writeable = False
        return grid

    @functools.cached_property
    def _measure(self) -> Fraction:
        """Exact measure of the union of the boxes."""
        return self._grid.measure(self._grid.cover(range(len(self)))) if self else Fraction(0)


def _frozen_ints(scale: int, lo: np.ndarray, hi: np.ndarray
                 ) -> tuple[int, np.ndarray, np.ndarray, int]:
    """`BoxFamily._ints` of the corner rows lo, hi at scale."""
    top = int(max(map(abs, itertools.chain(lo.flat, hi.flat)), default=0))
    lo, hi = _fit((2 * top) ** 3, lo, hi)
    lo.flags.writeable = hi.flags.writeable = False
    return scale, lo, hi, top


def _family(f: BoxFamily | Sequence[Box]) -> BoxFamily:
    return f if isinstance(f, BoxFamily) else BoxFamily(f)


def _decreasing(f: BoxFamily | Sequence[Box], what: str) -> BoxFamily:
    """f as a BoxFamily; raises OrderingViolation("<what> a decreasing-sidelength
    family") when a box's cached volume exceeds its predecessor's."""
    fam = _family(f)
    vols = fam._volumes
    if any(map(operator.lt, vols, vols[1:])):
        raise OrderingViolation(f"{what} a decreasing-sidelength family")
    return fam


def sorted_decreasing(boxes: Iterable[Box]) -> BoxFamily:
    """Stable sort by nonincreasing sidelength; ties keep input order."""
    return BoxFamily(sorted(boxes, key=lambda b: -b.side))


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
    scale, ints = _on_scale(c for lo, hi in corner_boxes for c in (*lo, *hi))
    corners = np.array(ints, dtype=object).reshape(len(corner_boxes), 2, max(dims, default=0))
    return scale, corners[:, 0], corners[:, 1]


def _fit(bound: int, *arrays) -> list[np.ndarray]:
    """The integer arrays as int64 when bound < 2^62, else as arrays of Python
    ints; the caller's bound covers every |value| its arithmetic on them makes,
    and every outside integer that meets them in numpy."""
    dtype = np.int64 if bound < 2**62 else object
    return [np.asarray(a, dtype=dtype) for a in arrays]


def _axes(coords: Iterable[Iterable[int]]) -> list[np.ndarray]:
    """Per axis, the sorted distinct integers of coords[a], `_fit` to every
    |coordinate| and to the product of the axis spans, which bounds a volume."""
    axes = [sorted(set(c)) for c in coords]
    return _fit(max(max((max(-ax[0], ax[-1]) for ax in axes), default=0),
                    math.prod(ax[-1] - ax[0] for ax in axes)), *axes)


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
        self.slices = [tuple(map(slice, s, t)) for s, t in zip(self.start, self.stop)]

    def cover(self, idx: Iterable[int]) -> np.ndarray:
        """Mask of the union of the boxes idx."""
        mask = np.zeros(self.shape, dtype=bool)
        for i in idx:
            mask[self.slices[i]] = True
        return mask

    def depth(self, idx: Iterable[int]) -> np.ndarray:
        """Per cell, how many of the boxes idx cover it."""
        depth = np.zeros(self.shape, dtype=np.int64)
        for i in idx:
            depth[self.slices[i]] += 1
        return depth

    def cells(self) -> np.ndarray:
        """Every cell's integer volume at scale^dim, the outer product of the
        widths: a dense table the size of the grid, built anew on each call.
        Not cached on the family: a 3-D family's table is about 64 KB, and
        holding one per family raised the benchmark's peak RSS by 1.1 MB."""
        return functools.reduce(np.multiply.outer, self.widths, np.ones((), np.int64))

    def measure(self, mask: np.ndarray) -> Fraction:
        """Exact measure of the marked cells of a mask over the whole grid."""
        return Fraction(_volume(mask, self.widths), self.scale ** self.dim)


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
        factor = _positive(factor, "dilation factor")
        center = tuple(_to_rat(c) for c in center)
        if len(center) != self.dim:
            raise ValueError("dimension mismatch")
        scale, ints = _on_scale(c + factor * (Fraction(int(x), self.scale) - c)
                                for c, ax in zip(center, self.axes) for x in ax)
        it = iter(ints)
        axes = _axes([list(itertools.islice(it, len(ax))) for ax in self.axes])
        return BoxRegion(self.dim, scale, axes, self.mask)


# ---------------------------------------------------------------------------
# Operations on families
# ---------------------------------------------------------------------------


def union_measure(f: BoxFamily | Sequence[Box]) -> Fraction:
    """Exact measure of the union; cached on the family, so a BoxFamily is measured once."""
    return _family(f)._measure


def increments(f: BoxFamily | Sequence[Box]) -> list[BoxRegion]:
    """Disjointification of a family of nonincreasing sides into increment
    regions E_j = Q_j minus the earlier boxes, by one pass with a running OR."""
    grid = _decreasing(f, "increments require")._grid
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

    Why 0 when the sides s_i do not increase: let D_j be the dilation by
    t = 1 + delta about the centre c_j of Q_j, take x in the union of the
    D_j(Q_j) and j minimal with x in D_j(Q_j).  If D_j^-1(x) lay in some Q_i,
    i < j, then |x - c_i|_inf <= s_i/2 + (t - 1)s_j/2 <= t s_i/2, so x would
    lie in D_i(Q_i), against the choice of j; so x lies in D_j(E_j).

    D_j is an affine bijection, so D_j(E_j) = D_j(Q_j) minus the D_j(Q_i),
    i < j, and when Q_i misses Q_j, D_j(Q_i) misses D_j(Q_j) and cuts nothing.
    Both sides therefore live on the grid of the k boxes D_j(Q_j) and the m
    boxes D_j(Q_i), i < j, for the pairs whose closed boxes meet; at scale 2qD,
    for t = p/q, their corners are (q-p)(L_j+H_j) + 2p L_i and
    (q-p)(L_j+H_j) + 2p H_i.  That grid has O((k + m)^d) cells, at most
    (2(k + m))^d, so up to (k(k+1))^d when every pair meets; it is swept along
    axis 0 in slabs of at most _BLOCK_CELLS = 2^17 cells (one row of axis 0 if
    a row is larger), and each D_j(E_j) is built inside its own slice.
    """
    delta = _positive(delta, "delta")
    fam = _family(f)
    if not fam:
        return IdentityCheck(True, Fraction(0))
    scale, lo, hi, top = fam._ints
    p, q = (1 + delta).numerator, (1 + delta).denominator
    lo, hi = _fit((2 * abs(q - p) + 2 * p) * top, lo, hi)
    # box n is D_jj[n](Q_ii[n]): grouped by j, each group ending with D_j(Q_j)
    jj, ii = np.tril_indices(len(fam))
    meet = fam._meets[jj, ii]
    jj, ii = jj[meet], ii[meet]
    ends = np.flatnonzero(ii == jj).tolist()
    base = (q - p) * (lo + hi)[jj]
    grid = _Grid(2 * q * scale, base + 2 * p * lo[ii], base + 2 * p * hi[ii])
    rows = max(1, _BLOCK_CELLS // math.prod(grid.shape[1:]))
    defect = 0
    for a in range(0, grid.shape[0], rows):
        b = min(a + rows, grid.shape[0])
        slab = (a,) + (0,) * (grid.dim - 1)
        lhs = np.zeros((b - a,) + grid.shape[1:], dtype=bool)
        rhs = np.zeros_like(lhs)
        for first, end in zip([0] + [e + 1 for e in ends], ends):
            if grid.start[end][0] >= b or grid.stop[end][0] <= a:
                continue
            sl = _cells(grid.start[end], grid.stop[end], slab)
            part = np.ones(lhs[sl].shape, dtype=bool)
            origin = tuple(map(max, grid.start[end], slab))
            for i in range(first, end):
                part[_cells(grid.start[i], grid.stop[i], origin)] = False
            lhs[sl] = True
            rhs[sl] |= part
        defect += _volume(lhs ^ rhs, [grid.widths[0][a:b]] + grid.widths[1:])
    return IdentityCheck(defect == 0, Fraction(defect, grid.scale ** grid.dim))


def enlargement_excess(f: BoxFamily | Sequence[Box], delta) -> Fraction:
    """Exact measure of (union of (1+delta)-dilates) minus (union of the boxes):
    each box lies in its dilate, so |union of tQ|, on the grid of the k
    dilates alone ((2k)^d cells at most), minus the cached |union of Q|."""
    delta = _level(delta, "delta")
    fam = _family(f)
    if not fam:
        return Fraction(0)
    grid = _dilated_grid(*fam._ints, 1 + delta, 0)
    return grid.measure(grid.cover(range(len(fam)))) - fam._measure


def _dilated_grid(scale: int, lo: np.ndarray, hi: np.ndarray, top: int, t: Fraction,
                  k: int) -> _Grid:
    """The grid of the first k boxes [lo, hi], then the concentric t-dilates
    of the others, at scale 2q * scale for t = p/q; top bounds |lo|, |hi|."""
    p, q = t.numerator, t.denominator
    lo, hi = _fit(2 * (p + q) * top, lo, hi)
    mid, half = q * (lo[k:] + hi[k:]), p * (hi[k:] - lo[k:])
    return _Grid(2 * q * scale, np.concatenate([2 * q * lo[:k], mid - half]),
                 np.concatenate([2 * q * hi[:k], mid + half]))
