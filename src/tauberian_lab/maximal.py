"""Maximal operators of indicator functions.

Three engines:

* grid: uncentered / centered / dyadic cube maximal operators on the N^n
  grid over [0,1)^n, for Lebesgue or grid-weight measures.  Cubes run over
  grid-aligned cubes inside the domain, so grid superlevel sets are lower
  approximations of their continuous counterparts.
* exact 1-D: interval sets and piecewise-constant weights over Fraction
  arithmetic; maximal values and full superlevel sets ("halos") are exact.
  The Lebesgue halo is one pass over the excess |E ∩ [l, x]| - alpha*(x - l).
  A weight's distribution F(x) = w([l, x]) maps intervals to intervals and w
  to length, so weighted results are Lebesgue results on F(E), moved by F^-1.
* atomic: finite atomic measures; halo mass is certified from below by
  candidate cubes.

Superlevel sets use strict inequality throughout.

Each engine's alpha-free stage is remembered on its measure object, one
(key, value) entry in the object's __dict__ as `functools.cached_property`
keeps its value, so an alpha ladder on one (measure, E) pair pays only for
its thresholds:

* `superlevel` keeps the last `grid_maximal` values (one read-only N^d float
  array) on the `GridWeight`, keyed by (spec, E's shape, E's bytes).  A
  Lebesgue call has no measure object and is not memoized.
* `exact_halo_1d` keeps F(E) (one `IntervalSet`) on the `PiecewiseWeight1D`,
  keyed by E.
* `atomic_maximal_lower` without explicit candidates keeps one candidate set
  (its boxes, atom incidence and integer masses) on the `AtomicMeasure`,
  keyed by the tuple of E's indices.

A new key replaces the entry, so each measure holds at most one.
`grid_maximal`, `default_atomic_candidates` and `_pushed` are not memoized.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import UnsupportedGeometry
from .geometry import Box, _int_corners, _to_rat
from .gridops import resolution, side_table
from .weights import GridWeight

VARIANTS = ("uncentered", "centered", "dyadic")
_MEMO = "_maximal_memo"


def _remembered(owner, key, compute):
    """compute(), or what it gave owner's last call with an equal key: one
    (key, value) entry in owner.__dict__, replaced on a miss."""
    last = owner.__dict__.get(_MEMO)
    if last is not None and last[0] == key:
        return last[1]
    value = compute()
    owner.__dict__[_MEMO] = (key, value)
    return value


@dataclass(frozen=True)
class MaximalSpec:
    variant: str = "uncentered"
    measure: str = "lebesgue"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.measure not in ("lebesgue", "grid-weight"):
            raise ValueError(f"grid engine supports lebesgue or grid-weight, "
                             f"got {self.measure!r}")


# ---------------------------------------------------------------------------
# Grid engine
# ---------------------------------------------------------------------------


def grid_maximal(e: np.ndarray, spec: MaximalSpec = MaximalSpec(),
                 weight: GridWeight | None = None) -> np.ndarray:
    """Per-cell values of the maximal function of the indicator of e.

    value(c) = max over admissible grid cubes R containing c of mu(R∩E)/mu(R);
    cubes with no cell of positive mass are skipped.

    The ratios of all cubes are one table, `gridops.side_table` of mu(R∩E)
    divided in place by mu(R); a cube with no cell of positive mass keeps
    mu(R∩E) = 0, which raises no value.  The uncentered variant sweeps sides
    s = N..1 and keeps, for every side-s cube Q(i, s), the largest ratio
    up(i, s) over the cubes of side >= s that contain it.  A cube of side > s
    that contains Q(i, s) contains one of its 2^d parents Q(i - o, s + 1),
    o in {0, 1}^d, so
    up(i, s) = max(ratio(i, s), max over o of up(i - o, s + 1)),
    and the value of cell c is up(c, 1).  That is O(2^d N^(d+1)) work, in
    place in the table.  Memory: the set's table and one of cube masses (the
    weight's, or the Lebesgue volumes), O(N^(d+1)) floats each, 64 MB at
    1-D N=4096.  The dyadic variant divides only the cubes it reads (side
    2^k at multiples of 2^k), and the Lebesgue centered variant only the odd
    sides, by one volume each; neither builds a table of Lebesgue volumes.
    """
    e = np.asarray(e, dtype=bool)
    n, d = resolution(e), e.ndim
    if spec.variant == "dyadic" and n & (n - 1):
        raise ValueError("dyadic variant needs a power-of-two resolution")
    weighted = spec.measure == "grid-weight"
    if weighted:
        if weight is None:
            raise ValueError("grid-weight measure needs a weight")
        if weight.values.shape != e.shape:
            raise ValueError("weight grid and set grid differ in shape")
    flat, sides = side_table(np.where(e, weight.values, 0.0) if weighted else e)
    # dyadic reads log2 N sides; Lebesgue centered divides its odd sides by one
    # volume each, with no volume table; else one call over the whole table
    # beats one call per side
    per_side = spec.variant == "dyadic" or (spec.variant == "centered" and not weighted)
    if not per_side:
        den = (weight.table.flat if weighted else
               np.repeat([float(s**d) for s in range(1, n + 1)], [a.size for a in sides]))
        np.divide(flat, den, out=flat, where=den > 0)

    def ratios(s, step):
        """Side s's ratios at the corners that are multiples of step."""
        if not per_side:  # centered, step 1: divided above
            return sides[s - 1]
        at = (slice(None, None, step),) * d
        cubes = sides[s - 1][at]
        den = weight.table.sides[s - 1][at] if weighted else float(s**d)
        np.divide(cubes, den, out=cubes, where=den > 0)
        return cubes

    vals = np.zeros(e.shape)
    if spec.variant == "uncentered":
        kids = list(itertools.product((slice(None, -1), slice(1, None)), repeat=d))
        for up, parents in zip(sides[-2::-1], sides[:0:-1]):
            for kid in kids:
                child = up[kid]
                np.maximum(child, parents, out=child)
        vals[...] = sides[0]  # a copy: the result pins none of the O(N^(d+1)) table
    elif spec.variant == "centered":
        # odd-sided cubes centered at the cell, fully inside the domain
        for t in range(1, n + 1, 2):
            inner = vals[(slice(t // 2, n - t // 2),) * d]
            np.maximum(inner, ratios(t, 1), out=inner)
    else:  # dyadic: the side-s cubes at multiples of s tile the grid
        for s in (1 << k for k in range(n.bit_length())):
            tiles = vals.reshape((n // s, s) * d)
            np.maximum(tiles, ratios(s, s)[(slice(None), None) * d], out=tiles)
    return vals


def superlevel(e: np.ndarray, alpha: float, spec: MaximalSpec = MaximalSpec(),
               weight: GridWeight | None = None) -> np.ndarray:
    """Cells where the maximal function strictly exceeds alpha, a fresh array.

    With a weight, the `grid_maximal` values are remembered on it, read-only,
    keyed by (spec, E's shape, E's bytes), so an alpha ladder on one set
    computes them once; an in-place change to E is a new key.  The memo is
    one N^d float array per weight.  A Lebesgue call (no weight) is not
    memoized.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    e = np.asarray(e, dtype=bool)
    if weight is None:
        return grid_maximal(e, spec) > alpha

    def values():
        vals = grid_maximal(e, spec, weight)
        vals.flags.writeable = False
        return vals

    return _remembered(weight, (spec, e.shape, e.tobytes()), values) > alpha


def set_mass(e: np.ndarray, weight: GridWeight | None = None) -> float:
    e = np.asarray(e, dtype=bool)
    if weight is None:
        return float(e.sum()) / e.size
    if weight.values.shape != e.shape:
        raise ValueError("weight grid and set grid differ in shape")
    return float(weight.values[e].sum())


# ---------------------------------------------------------------------------
# Exact 1-D engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalSet:
    """Disjoint, sorted, nondegenerate closed intervals with Fraction endpoints.

    Derived halos are open at some endpoints; the stored endpoints bound the
    set exactly and endpoint membership never affects a measure.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, intervals: Iterable[tuple]):
        ivs = tuple((_to_rat(a), _to_rat(b)) for a, b in intervals)
        for a, b in ivs:
            if a >= b:
                raise ValueError("intervals must be nondegenerate")
        for (_, b1), (a2, _) in zip(ivs, ivs[1:]):
            if a2 <= b1:
                raise ValueError("intervals must be sorted and disjoint")
        object.__setattr__(self, "intervals", ivs)

    @staticmethod
    def merge(intervals: Iterable[tuple]) -> "IntervalSet":
        """Union of arbitrary closed intervals; touching intervals coalesce."""
        ivs = [(_to_rat(a), _to_rat(b)) for a, b in intervals]
        out: list[list[Fraction]] = []
        for a, b in sorted(iv for iv in ivs if iv[0] < iv[1]):
            if out and a <= out[-1][1]:
                out[-1][1] = max(out[-1][1], b)
            else:
                out.append([a, b])
        return IntervalSet(tuple((a, b) for a, b in out))

    def measure(self) -> Fraction:
        return sum((b - a for a, b in self.intervals), Fraction(0))

    def contains_point(self, x) -> bool:
        x = _to_rat(x)
        return any(a <= x <= b for a, b in self.intervals)

    def contains_set(self, other: "IntervalSet") -> bool:
        return all(
            any(a <= oa and ob <= b for a, b in self.intervals)
            for oa, ob in other.intervals)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.merge(list(self.intervals) + list(other.intervals))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def breakpoints(self) -> list[Fraction]:
        out = []
        for a, b in self.intervals:
            out.extend((a, b))
        return out


@dataclass(frozen=True)
class PiecewiseWeight1D:
    """Positive piecewise-constant density on [l, r] = [breakpoints[0], breakpoints[-1]].

    Its distribution F(x) = w([l, x]) maps intervals onto intervals and w onto
    length; F and its inverse `quantile` read one exact table of w([l, b_k]).
    """

    breakpoints: tuple[Fraction, ...]
    densities: tuple[Fraction, ...]

    def __init__(self, breakpoints: Sequence, densities: Sequence):
        bps = tuple(_to_rat(b) for b in breakpoints)
        dens = tuple(_to_rat(d) for d in densities)
        if len(bps) != len(dens) + 1 or len(dens) < 1:
            raise ValueError("need k+1 breakpoints for k pieces")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(d <= 0 for d in dens):
            raise ValueError("densities must be positive")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "densities", dens)

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return self.breakpoints[0], self.breakpoints[-1]

    @functools.cached_property
    def _cumulative(self) -> tuple[Fraction, ...]:
        """w([l, b_k]) for every breakpoint b_k."""
        steps = (d * (b - a) for a, b, d in zip(self.breakpoints, self.breakpoints[1:],
                                                self.densities))
        return tuple(itertools.accumulate(steps, initial=Fraction(0)))

    def distribution(self, x) -> Fraction:
        """F(x) = w([l, x]), x in the domain."""
        x = _to_rat(x)
        if not self.domain[0] <= x <= self.domain[1]:
            raise ValueError("x escapes the weight domain")
        k = min(bisect_right(self.breakpoints, x), len(self.densities)) - 1
        return self._cumulative[k] + self.densities[k] * (x - self.breakpoints[k])

    def quantile(self, y) -> Fraction:
        """F^-1(y), y in [0, w(domain)]."""
        y = _to_rat(y)
        if not 0 <= y <= self._cumulative[-1]:
            raise ValueError("y escapes [0, w(domain)]")
        k = min(bisect_right(self._cumulative, y), len(self.densities)) - 1
        return self.breakpoints[k] + (y - self._cumulative[k]) / self.densities[k]

    def mass(self, a, b) -> Fraction:
        a, b = _to_rat(a), _to_rat(b)
        if a > b:
            raise ValueError("empty interval")
        if a < self.domain[0] or b > self.domain[1]:
            raise ValueError("interval escapes the weight domain")
        return self.distribution(b) - self.distribution(a)

    @staticmethod
    def from_grid(w: GridWeight) -> "PiecewiseWeight1D":
        if w.dim != 1:
            raise ValueError("only 1-D grid weights convert to piecewise form")
        if np.any(w.values <= 0):
            raise ValueError("piecewise densities must be positive")
        n = w.resolution
        bps = [Fraction(i, n) for i in range(n + 1)]
        dens = [Fraction(float(v)) * n for v in w.values]
        return PiecewiseWeight1D(bps, dens)


def _pushed(e: IntervalSet, weight: PiecewiseWeight1D) -> IntervalSet:
    """F(E) for a nonempty E; E must lie in the weight's domain."""
    lo, hi = weight.domain
    if e.intervals[0][0] < lo or e.intervals[-1][1] > hi:
        raise ValueError("set escapes the weight domain")
    return IntervalSet((weight.distribution(a), weight.distribution(b)) for a, b in e.intervals)


def point_eval_1d(e: IntervalSet, x, weight: PiecewiseWeight1D | None = None) -> Fraction:
    """Exact value at x of the uncentered maximal function of the indicator of e.

    Candidate interval endpoints snap to breakpoints of e, or to x itself.
    With a weight this is the Lebesgue value of F(E) at F(x): F carries
    intervals and w onto intervals and length, and cutting an interval down
    to [0, w(domain)] only raises its E-fraction.
    """
    if e.is_empty:
        raise ValueError("empty set")
    e, x = (e, _to_rat(x)) if weight is None else (_pushed(e, weight), weight.distribution(x))
    if e.contains_point(x):
        return Fraction(1)
    bps = e.breakpoints()
    left = sorted(b for b in bps if b <= x) + [x]
    right = [x] + sorted(b for b in bps if b >= x)
    best = Fraction(0)
    for p, q in itertools.product(left, right):
        if p < q:
            inside = sum((min(b, q) - max(a, p) for a, b in e.intervals if a < q and p < b),
                         Fraction(0))
            best = max(best, inside / (q - p))
    return best


def exact_halo_1d(e: IntervalSet, alpha, weight: PiecewiseWeight1D | None = None
                  ) -> IntervalSet:
    """Exact superlevel set {x : M(indicator of e)(x) > alpha} in one dimension.

    With a weight this is F^-1 of the Lebesgue halo of F(E), clipped to
    [0, w(domain)]: F carries intervals and w onto intervals and length, and
    clipping only raises an interval's E-fraction.  Every halo component
    meets F(E), so no clipped piece is degenerate.  F(E) is remembered on the
    weight, keyed by E (one `IntervalSet` per weight), so an alpha ladder on
    one set pushes it once and pays for the Phi pass and the quantiles only.
    """
    alpha = _to_rat(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if e.is_empty:
        raise ValueError("empty set")
    if weight is None:
        return _halo(e, alpha)
    top = weight._cumulative[-1]
    pushed = _remembered(weight, e, lambda: _pushed(e, weight))
    return IntervalSet((weight.quantile(max(a, 0)), weight.quantile(min(b, top)))
                       for a, b in _halo(pushed, alpha).intervals)


def _halo(e: IntervalSet, alpha: Fraction) -> IntervalSet:
    """The Lebesgue halo, from one pass over Phi(x) = |E ∩ [l, x]| - alpha*(x - l).

    [p, q] has E-fraction > alpha iff Phi(q) > Phi(p), so x is in the halo iff
    min over p <= x of Phi(p) < max over q >= x of Phi(q).  Between E's
    endpoints Phi has slope -alpha off E and 1 - alpha on it; spare pieces of
    width |E|/alpha, from l on the left, hold every boundary solution.  A
    piece is in the halo wholesale, or Phi falls across it and two linear
    solves against the running min and max give its halo.  O(B).
    """
    bps = e.breakpoints()
    margin = e.measure() / alpha
    grid = [bps[0] - margin] + bps + [bps[-1] + margin]
    slopes = [-alpha, 1 - alpha] * len(e.intervals) + [-alpha]
    steps = (s * (b - a) for s, a, b in zip(slopes, grid, grid[1:]))
    phi = list(itertools.accumulate(steps, initial=Fraction(0)))
    low = list(itertools.accumulate(phi, min))
    high = list(itertools.accumulate(reversed(phi), max))[::-1]
    parts: list[tuple[Fraction, Fraction]] = []
    for k, s in enumerate(slopes):
        a, b = grid[k], grid[k + 1]
        if low[k] < high[k + 1]:
            parts.append((a, b))
            continue
        # Phi(a) >= low[k] >= high[k + 1] >= Phi(b) and s != 0, so s < 0
        if phi[k] > low[k]:
            parts.append((a, a + (low[k] - phi[k]) / s))
        if phi[k + 1] < high[k + 1]:
            parts.append((b + (high[k + 1] - phi[k + 1]) / s, b))
    return IntervalSet.merge(parts)


# ---------------------------------------------------------------------------
# Atomic measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite list of (point, mass) atoms with distinct points."""

    atoms: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    def __init__(self, atoms: Iterable[tuple]):
        norm = []
        for pt, m in atoms:
            pt = tuple(_to_rat(c) for c in pt)
            m = _to_rat(m)
            if m <= 0:
                raise ValueError("atom masses must be positive")
            norm.append((pt, m))
        if not norm:
            raise ValueError("need at least one atom")
        pts = [pt for pt, _ in norm]
        if len(set(pts)) != len(pts):
            raise ValueError("atom points must be distinct")
        dims = {len(pt) for pt in pts}
        if len(dims) > 1:
            raise ValueError("atoms must share a dimension")
        object.__setattr__(self, "atoms", tuple(norm))

    @property
    def dim(self) -> int:
        return len(self.atoms[0][0])

    def total_mass(self) -> Fraction:
        return sum((m for _, m in self.atoms), Fraction(0))


class AtomicHaloBound(NamedTuple):
    halo_mass_lower: Fraction
    covered: frozenset
    witnesses: tuple


def _linf(p, q) -> Fraction:
    return max(abs(a - b) for a, b in zip(p, q))


def _check_atom_indices(mu: AtomicMeasure, e_indices: Sequence[int]) -> None:
    if any(not 0 <= i < len(mu.atoms) for i in e_indices):
        raise ValueError("atom index out of range")


def default_atomic_candidates(mu: AtomicMeasure, e_indices: Sequence[int]) -> list[Box]:
    """Minimal bounding cubes of (E-atom, atom) pairs at all corner placements,
    plus a tiny cube around each E-atom."""
    _check_atom_indices(mu, e_indices)
    pts = [pt for pt, _ in mu.atoms]
    eset = set(e_indices)
    out: list[Box] = []
    for i in eset:
        others = [_linf(pts[i], pts[j]) for j in range(len(pts)) if j != i]
        side = min((d for d in others if d > 0), default=Fraction(1)) / 2
        out.append(Box(pts[i], side))
    for i in eset:
        for j in range(len(pts)):
            if j == i:
                continue
            side = _linf(pts[i], pts[j])
            lo_choices = []
            for d in range(mu.dim):
                lo_d = min(pts[i][d], pts[j][d])
                hi_d = max(pts[i][d], pts[j][d])
                lo_choices.append({lo_d, hi_d - side})
            for combo in itertools.product(*lo_choices):
                center = tuple(l + side / 2 for l in combo)
                out.append(Box(center, side))
    return out


def _atomic_stage(mu: AtomicMeasure, e_indices: list[int], boxes: tuple[Box, ...]):
    """The alpha-free part of `atomic_maximal_lower` for one candidate set:
    (boxes, inside[candidate, atom], atom masses times scale, scale, and each
    candidate's mass and E-mass times scale), its arrays read-only."""
    if any(box.dim != mu.dim for box in boxes):
        raise UnsupportedGeometry("candidate box dimension mismatch")
    _, lo, hi = _int_corners([(b.lo, b.hi) for b in boxes] + [(pt, pt) for pt, _ in mu.atoms])
    pts = lo[len(boxes):]
    inside = ((lo[:len(boxes), None] <= pts) & (pts <= hi[:len(boxes), None])).all(axis=2)
    scale = math.lcm(*(m.denominator for _, m in mu.atoms))
    masses = np.array([m.numerator * (scale // m.denominator) for _, m in mu.atoms], dtype=object)
    in_e = np.zeros(len(masses), dtype=bool)
    in_e[e_indices] = True
    mass, mass_e = inside @ masses, inside @ np.where(in_e, masses, 0)
    for a in (inside, masses, mass, mass_e):
        a.flags.writeable = False
    return boxes, inside, masses, scale, mass, mass_e


def atomic_maximal_lower(mu: AtomicMeasure, e_indices: Sequence[int], alpha,
                         candidate_boxes: Sequence[Box] | None = None
                         ) -> AtomicHaloBound:
    """Certified lower bound on the halo mass of an atom subset.

    Every candidate cube whose E-mass fraction strictly exceeds alpha puts
    all its points, in particular all its atoms, inside the halo.  The bound
    is the exact mass of the union of certified atoms.

    Candidates and atoms go onto one integer grid (`_int_corners`) and the
    masses onto integers over their lcm, so membership is one comparison of
    Python ints per candidate, atom and axis, and for alpha = p/q a candidate
    is certified iff q * (its E-mass) > p * (its mass), an exact test.

    With candidate_boxes None, the default candidates, their membership
    matrix and their masses are remembered on mu, keyed by tuple(e_indices)
    (one candidate set per measure), so an alpha ladder on one E builds them
    once.  Explicit candidate_boxes neither read nor replace that entry.
    """
    alpha = _to_rat(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    e_indices = list(e_indices)
    if not e_indices:
        raise ValueError("E must contain at least one atom")
    _check_atom_indices(mu, e_indices)
    if candidate_boxes is None:
        stage = _remembered(mu, tuple(e_indices), lambda: _atomic_stage(
            mu, e_indices, tuple(default_atomic_candidates(mu, e_indices))))
    else:
        stage = _atomic_stage(mu, e_indices, tuple(candidate_boxes))
    boxes, inside, masses, scale, mass, mass_e = stage
    certified = mass_e * alpha.denominator > alpha.numerator * mass
    covered = inside[certified].any(axis=0)
    witnesses = tuple((boxes[c], Fraction(mass_e[c], mass[c])) for c in np.flatnonzero(certified))
    return AtomicHaloBound(Fraction(int(covered @ masses), scale),
                           frozenset(np.flatnonzero(covered).tolist()), witnesses)
