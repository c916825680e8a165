"""Exact rational geometry of axis-parallel boxes.

Everything in this module is computed over `fractions.Fraction`; there are no
tolerances.  A Box is a closed axis-parallel cube (one sidelength for all
axes).  Regions (finite unions of boxes) are kept as disjoint half-open
fragments on an integer-scaled grid, which makes unions, differences and
measures exact and fast: every cut in the fragment decomposition lies on a
face coordinate of an input box, so this is a sparse variant of
coordinate-compression measure computation.

Supported dimensions: 1, 2, 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

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

    def __init__(self, center: Sequence, side) -> None:
        center = tuple(_to_rat(c) for c in center)
        side = _to_rat(side)
        if side <= 0:
            raise ValueError("box sidelength must be positive")
        if not 1 <= len(center) <= 3:
            raise ValueError("supported dimensions are 1..3")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "side", side)

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def lo(self) -> tuple[Fraction, ...]:
        h = self.side / 2
        return tuple(c - h for c in self.center)

    @property
    def hi(self) -> tuple[Fraction, ...]:
        h = self.side / 2
        return tuple(c + h for c in self.center)

    def volume(self) -> Fraction:
        return self.side ** self.dim

    def contains_point(self, pt: Sequence) -> bool:
        pt = tuple(_to_rat(x) for x in pt)
        return all(l <= x <= u for l, x, u in zip(self.lo, pt, self.hi))

    def contains_box(self, other: "Box") -> bool:
        return all(
            sl <= ol and ou <= su
            for sl, ol, ou, su in zip(self.lo, other.lo, other.hi, self.hi)
        )

    def intersects(self, other: "Box") -> bool:
        # closed boxes: touching faces count as intersecting
        return all(
            ol <= su and sl <= ou
            for sl, su, ol, ou in zip(self.lo, self.hi, other.lo, other.hi)
        )


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
# Integer fragment engine.  Fragments are half-open [lo, hi) integer boxes on
# a common scale D: true coordinate = integer / D.
# ---------------------------------------------------------------------------

IntBox = tuple[tuple[int, ...], tuple[int, ...]]


def _to_int_boxes(corner_boxes: Sequence[tuple[Sequence[Fraction], Sequence[Fraction]]]
                  ) -> tuple[int, list[IntBox]]:
    """The least common denominator D of all corners, and every (lo, hi) times D."""
    scale = math.lcm(*(c.denominator for lo, hi in corner_boxes for c in (*lo, *hi)))
    return scale, [
        (tuple(int(c * scale) for c in lo), tuple(int(c * scale) for c in hi))
        for lo, hi in corner_boxes
    ]


def _frag_minus(piece: IntBox, cut: IntBox) -> list[IntBox]:
    lo, hi = piece
    clo, chi = cut
    n = len(lo)
    for d in range(n):
        if chi[d] <= lo[d] or hi[d] <= clo[d]:
            return [piece]
    out: list[IntBox] = []
    lo = list(lo)
    hi = list(hi)
    for d in range(n):
        if lo[d] < clo[d]:
            nhi = hi.copy()
            nhi[d] = clo[d]
            out.append((tuple(lo), tuple(nhi)))
            lo[d] = clo[d]
        if chi[d] < hi[d]:
            nlo = lo.copy()
            nlo[d] = chi[d]
            out.append((tuple(nlo), tuple(hi)))
            hi[d] = chi[d]
    # remaining core is inside cut and is dropped
    return out


def _disjointify(boxes: Sequence[IntBox]) -> list[IntBox]:
    frags: list[IntBox] = []
    for b in boxes:
        lo, hi = b
        if any(l >= h for l, h in zip(lo, hi)):
            continue
        parts = [b]
        for f in frags:
            parts = [p for piece in parts for p in _frag_minus(piece, f)]
            if not parts:
                break
        frags.extend(parts)
    return frags


def _int_volume(frags: Iterable[IntBox]) -> int:
    total = 0
    for lo, hi in frags:
        v = 1
        for l, h in zip(lo, hi):
            v *= h - l
        total += v
    return total


class BoxRegion:
    """Finite union of boxes with exact measure and membership queries."""

    __slots__ = ("dim", "scale", "frags")

    def __init__(self, dim: int, scale: int, frags: list[IntBox]):
        self.dim = dim
        self.scale = scale
        self.frags = frags

    # -- constructors -------------------------------------------------------

    @staticmethod
    def empty(dim: int) -> "BoxRegion":
        return BoxRegion(dim, 1, [])

    @staticmethod
    def from_boxes(boxes: Sequence[Box]) -> "BoxRegion":
        boxes = list(boxes)
        if not boxes:
            raise ValueError("from_boxes needs at least one box; use empty(dim)")
        scale, raw = _to_int_boxes([(b.lo, b.hi) for b in boxes])
        return BoxRegion(boxes[0].dim, scale, _disjointify(raw))

    @staticmethod
    def from_rational_corners(
        dim: int, corner_boxes: Sequence[tuple[Sequence[Fraction], Sequence[Fraction]]]
    ) -> "BoxRegion":
        scale, raw = _to_int_boxes(corner_boxes)
        return BoxRegion(dim, scale, _disjointify(raw))

    # -- internals ----------------------------------------------------------

    def _rescaled_frags(self, scale: int) -> list[IntBox]:
        if scale == self.scale:
            return self.frags
        if scale % self.scale != 0:
            raise ValueError("rescale target must be a multiple of current scale")
        k = scale // self.scale
        return [
            (tuple(x * k for x in lo), tuple(x * k for x in hi))
            for lo, hi in self.frags
        ]

    def rational_frags(self) -> list[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]:
        d = self.scale
        return [
            (
                tuple(Fraction(x, d) for x in lo),
                tuple(Fraction(x, d) for x in hi),
            )
            for lo, hi in self.frags
        ]

    # -- queries ------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.frags

    def measure(self) -> Fraction:
        return Fraction(_int_volume(self.frags), self.scale ** self.dim)

    def contains_point(self, pt: Sequence) -> bool:
        pt = tuple(_to_rat(x) for x in pt)
        s = self.scale
        for lo, hi in self.frags:
            if all(Fraction(l, s) <= x <= Fraction(h, s) for l, x, h in zip(lo, pt, hi)):
                return True
        return False

    # -- set operations -----------------------------------------------------

    def union(self, other: "BoxRegion") -> "BoxRegion":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        scale = math.lcm(self.scale, other.scale)
        frags = _disjointify(self._rescaled_frags(scale) + other._rescaled_frags(scale))
        return BoxRegion(self.dim, scale, frags)

    def subtract(self, other: "BoxRegion") -> "BoxRegion":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        scale = math.lcm(self.scale, other.scale)
        parts = self._rescaled_frags(scale)
        for cut in other._rescaled_frags(scale):
            parts = [p for piece in parts for p in _frag_minus(piece, cut)]
            if not parts:
                break
        return BoxRegion(self.dim, scale, parts)

    def dilate_about(self, center: Sequence, factor) -> "BoxRegion":
        """Image under x -> center + factor*(x - center); exact affine map."""
        factor = _to_rat(factor)
        if factor <= 0:
            raise ValueError("dilation factor must be positive")
        center = tuple(_to_rat(c) for c in center)
        if len(center) != self.dim:
            raise ValueError("dimension mismatch")
        mapped = []
        d = self.scale
        for lo, hi in self.frags:
            nlo = tuple(c + factor * (Fraction(x, d) - c) for c, x in zip(center, lo))
            nhi = tuple(c + factor * (Fraction(x, d) - c) for c, x in zip(center, hi))
            mapped.append((nlo, nhi))
        scale, frags = _to_int_boxes(mapped)
        # affine bijection keeps fragments disjoint
        return BoxRegion(self.dim, scale, frags)


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


def _increment_regions(boxes: Sequence[Box]) -> list[BoxRegion]:
    """E_0 = Q_0, E_j = Q_j minus the union of the earlier boxes, in list order."""
    out: list[BoxRegion] = []
    prev: list[Box] = []
    for b in boxes:
        r = BoxRegion.from_boxes([b])
        if prev:
            r = r.subtract(BoxRegion.from_boxes(prev))
        out.append(r)
        prev.append(b)
    return out


def increments(f: BoxFamily) -> list[BoxRegion]:
    """Disjointification of a decreasing-ordered family into increment regions."""
    if f.ordering_tag != ORDER_DECREASING:
        raise OrderingViolation("increments require a decreasing-sidelength family")
    return _increment_regions(list(f))


class IdentityCheck(NamedTuple):
    holds: bool
    defect: Fraction


def check_dilation_identity(f: BoxFamily | Sequence[Box], delta) -> IdentityCheck:
    """Compare the union of per-box dilates with the union of dilated increments.

    For every family ordered by nonincreasing sidelength the two unions agree
    exactly and the defect is 0; for order-violating families the defect is
    the exact measure of the symmetric difference.
    """
    delta = _to_rat(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    boxes = list(f)
    if not boxes:
        return IdentityCheck(True, Fraction(0))
    factor = 1 + delta
    lhs = BoxRegion.from_boxes([dilate(b, factor) for b in boxes])
    incs = _increment_regions(boxes)
    dilated_frags = []
    for b, e in zip(boxes, incs):
        if e.is_empty:
            continue
        dilated_frags.extend(e.dilate_about(b.center, factor).rational_frags())
    if dilated_frags:
        rhs = BoxRegion.from_rational_corners(boxes[0].dim, dilated_frags)
    else:
        rhs = BoxRegion.empty(boxes[0].dim)
    defect = symmetric_difference_measure(lhs, rhs)
    return IdentityCheck(defect == 0, defect)


def enlargement_excess(f: BoxFamily | Sequence[Box], delta) -> Fraction:
    """Exact measure of (union of (1+delta)-dilates) minus (union of the boxes)."""
    delta = _to_rat(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    boxes = list(f)
    if not boxes:
        return Fraction(0)
    dil = BoxRegion.from_boxes([dilate(b, 1 + delta) for b in boxes])
    orig = BoxRegion.from_boxes(boxes)
    return dil.subtract(orig).measure()


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
