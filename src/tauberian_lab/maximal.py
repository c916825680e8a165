"""Maximal operators of indicator functions.

Three engines:

* grid: the uncentered cube maximal operator on the N^n grid over [0,1)^n,
  for Lebesgue or grid-weight measures.  Cubes run over grid-aligned cubes
  inside the domain, so grid superlevel sets are lower approximations of
  their continuous counterparts.  The grid-weight 1-D superlevel is exact:
  one pass over prefix sums of exact cell masses per alpha.  The 2-D
  weighted and the Lebesgue superlevels compare float values with alpha.
* exact 1-D: interval sets with `Fraction` endpoints, and piecewise-constant
  weights held as integers on their least scales, whose `Fraction`
  breakpoints and densities are built only when read; maximal values and
  full superlevel sets ("halos") are exact.
  The Lebesgue halo is one pass over the excess |E ∩ [l, x]| - alpha*(x - l).
  A weight's distribution F(x) = w([l, x]) maps intervals to intervals and w
  to length, so weighted results are Lebesgue results on F(E), moved by F^-1.
  F, F^-1 and the halo pass run on Python ints over one scale per call, and
  build a `Fraction` only for each endpoint and mass they return; a halo's
  order is checked once, on integer cross-products of its endpoints.
* atomic: finite atomic measures; halo mass is certified from below by
  candidate cubes.

Superlevel sets use strict inequality throughout.

Each engine's alpha-free stage is remembered on its measure object by
`geometry._remembered`, the package's one memo helper (covering's weighted
CF selector uses it on a box family too): one (key, value) entry in the
object's __dict__ as `functools.cached_property` keeps its value, so an
alpha ladder on one (measure, E) pair pays only for its thresholds:

* `superlevel` keeps one read-only array on the `GridWeight`, keyed by
  (E's shape, E's bytes): in 1-D, E's exact prefix (N+1 ints); in 2-D, the
  `grid_maximal` values (N^d floats).  A Lebesgue call has no measure object
  and is not memoized.
* `exact_halo_1d` and `point_eval_1d` keep F(E) on the `PiecewiseWeight1D`,
  keyed by E, and share that entry: its endpoints as Python ints on one
  scale, (scale, [F(x) * scale for each endpoint x of E]).  E's place in the
  domain is checked when the entry is built.
* `atomic_maximal_lower` keeps one candidate set (its boxes, atom
  incidence and integer masses) on the `AtomicMeasure`, keyed by the tuple
  of E's indices.

A new key replaces the entry, so each measure holds at most one.  Direct
calls of `grid_maximal` and `default_atomic_candidates`, and the Lebesgue
exact engine, which has no measure object, are not memoized.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InvariantViolation
from .geometry import Box, _int_corners, _level, _on_scale, _remembered, _to_rat
from .gridops import resolution, side_table
from .weights import GridWeight


@dataclass(frozen=True)
class MaximalSpec:
    """The grid engine's measure: "lebesgue", or "grid-weight" for M_w.
    `variant` accepts only the paper's "uncentered"; the field remains because
    callers build the spec positionally, MaximalSpec("uncentered", "grid-weight")."""

    variant: str = "uncentered"
    measure: str = "lebesgue"

    def __post_init__(self):
        if self.variant != "uncentered":
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.measure not in ("lebesgue", "grid-weight"):
            raise ValueError(f"grid engine supports lebesgue or grid-weight, "
                             f"got {self.measure!r}")


# ---------------------------------------------------------------------------
# Grid engine
# ---------------------------------------------------------------------------


def _grid(e, weight: GridWeight | None) -> np.ndarray:
    """e as a nonempty 1-D or square 2-D bool array, of weight's shape if given."""
    e = np.asarray(e, dtype=bool)
    resolution(e)
    if weight is not None and weight.values.shape != e.shape:
        raise ValueError("weight grid and set grid differ in shape")
    return e


def _checked(e, spec: MaximalSpec, weight: GridWeight | None) -> np.ndarray:
    """`_grid(e, weight)`, once spec's measure and weight agree."""
    if spec.measure == "grid-weight":
        if weight is None:
            raise ValueError("grid-weight measure needs a weight")
    elif weight is not None:
        raise ValueError("lebesgue measure takes no weight; use the grid-weight measure")
    return _grid(e, weight)


def grid_maximal(e: np.ndarray, spec: MaximalSpec = MaximalSpec(),
                 weight: GridWeight | None = None) -> np.ndarray:
    """Per-cell values of the uncentered maximal function of the indicator of e.

    value(c) = max over grid cubes R inside the domain containing c of
    mu(R∩E)/mu(R); cubes with no cell of positive mass are skipped.

    The ratios of all cubes are one table, `gridops.side_table` of mu(R∩E)
    divided in place by mu(R); a cube with no cell of positive mass keeps
    mu(R∩E) = 0, which raises no value.  The sweep runs over sides
    s = N..1 and keeps, for every side-s cube Q(i, s), the largest ratio
    up(i, s) over the cubes of side >= s that contain it.  A cube of side > s
    that contains Q(i, s) contains one of its 2^d parents Q(i - o, s + 1),
    o in {0, 1}^d, so
    up(i, s) = max(ratio(i, s), max over o of up(i - o, s + 1)),
    and the value of cell c is up(c, 1).  That is O(2^d N^(d+1)) work, in
    place in the table.  Memory: the set's table and one of cube masses (the
    weight's, or the Lebesgue volumes), O(N^(d+1)) floats each, 64 MB at
    1-D N=4096.
    """
    e = _checked(e, spec, weight)
    n, d, weighted = e.shape[0], e.ndim, weight is not None
    flat, sides = side_table(np.where(e, weight.values, 0.0) if weighted else e)
    den = (weight.table.flat if weighted else
           np.repeat([float(s**d) for s in range(1, n + 1)], [a.size for a in sides]))
    np.divide(flat, den, out=flat, where=den > 0)
    kids = list(itertools.product((slice(None, -1), slice(1, None)), repeat=d))
    for up, parents in zip(sides[-2::-1], sides[:0:-1]):
        for kid in kids:
            child = up[kid]
            np.maximum(child, parents, out=child)
    return sides[0].copy()  # the result pins none of the O(N^(d+1)) table


def superlevel(e: np.ndarray, alpha: float, spec: MaximalSpec = MaximalSpec(),
               weight: GridWeight | None = None) -> np.ndarray:
    """Cells where the uncentered maximal function strictly exceeds alpha, a
    fresh array.

    With a weight, the 1-D superlevel is exact at alpha's exact value p/q.
    Cell c lies in it iff some grid interval [i, j) that holds c has
    q*w(E ∩ [i, j)) > p*w([i, j)), that is iff min over i <= c of
    Phi(i) < max over j > c of Phi(j), with Phi = q*P_E - p*P_w on the
    prefix sums of E's and the weight's exact cell masses (`GridWeight.exact`).
    An interval of no mass leaves Phi unchanged and raises nothing, as
    `grid_maximal` skips it.  That is one O(N) pass of Python ints per alpha.
    The 2-D weighted call compares the `grid_maximal` values with alpha.

    The alpha-free stage is remembered on the weight, read-only, keyed by
    (E's shape, E's bytes), so an alpha ladder on one set computes it once;
    an in-place change to E is a new key.  It is P_E (N+1 ints) in 1-D and
    the `grid_maximal` values (one N^2 float array) in 2-D.  A Lebesgue call
    (no weight) compares the float `grid_maximal` values with alpha and is
    not memoized.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if weight is None:
        return grid_maximal(e, spec) > alpha
    e = _checked(e, spec, weight)
    key = (e.shape, e.tobytes())
    if e.ndim == 1:
        p_e = _remembered(weight, key, lambda: _set_prefix(e, weight))
        p, q = alpha.as_integer_ratio()
        phi = q * p_e - p * weight.exact.prefix
        return np.minimum.accumulate(phi[:-1]) < np.maximum.accumulate(phi[:0:-1])[::-1]

    def values():
        vals = grid_maximal(e, spec, weight)
        vals.flags.writeable = False
        return vals

    return _remembered(weight, key, values) > alpha


def _set_prefix(e: np.ndarray, weight: GridWeight) -> np.ndarray:
    """P_E: the prefix sums of E's exact cell masses on `weight.exact`'s unit, read-only."""
    prefix = np.zeros(e.size + 1, dtype=object)  # object zeros are Python ints
    prefix[1:] = np.where(e, weight.exact.cells, 0).cumsum()
    prefix.flags.writeable = False
    return prefix


def set_mass(e: np.ndarray, weight: GridWeight | None = None) -> float:
    """w(E), or |E| (the share of cells in E) without a weight."""
    e = _grid(e, weight)
    if weight is None:
        return float(e.sum()) / e.size
    return float(weight.values[e].sum())


# ---------------------------------------------------------------------------
# Exact 1-D engine
# ---------------------------------------------------------------------------


def _coalesce(intervals: Iterable[tuple]) -> list[list]:
    """Intervals (a, b), a <= b, sorted by a, with touching or overlapping runs joined."""
    out: list[list] = []
    for a, b in intervals:
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


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
        return IntervalSet(_coalesce(sorted(iv for iv in ivs if iv[0] < iv[1])))

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


def _halo_set(ends: list[tuple[int, int]]) -> IntervalSet:
    """The IntervalSet with endpoints a_0 = n_0 / d_0, b_0, a_1, ... from
    ends = [(n_0, d_0), ...], all d > 0.  Their order is checked once, on
    integer cross-products, and each becomes one `Fraction`; the public
    constructor, which would convert and compare each again, is skipped."""
    for (n0, d0), (n1, d1) in zip(ends, ends[1:]):
        if n0 * d1 >= n1 * d0:
            raise InvariantViolation("halo endpoints must strictly increase")
    xs = [Fraction(n, d) for n, d in ends]
    out = object.__new__(IntervalSet)
    object.__setattr__(out, "intervals", tuple(zip(xs[::2], xs[1::2])))
    return out


@dataclass(frozen=True)
class PiecewiseWeight1D:
    """Positive piecewise-constant density on [l, r] = [breakpoints[0], breakpoints[-1]].

    The weight is its table of Python ints, each on its least scale
    (`geometry._on_scale` of reduced `Fraction`s), so equal weights hold equal
    fields: breakpoints b_k = bps[k] / d_b, densities dens[k] / d, and the
    cumulative masses w([l, b_k]) = cum[k] / d_c, d_c = d_b * d, which follow.
    F(x) = w([l, x]) maps intervals onto intervals and w onto length.  F, its
    inverse `quantile` and `mass` bisect and cross-multiply on the table and
    build one `Fraction` per result; `breakpoints` and `densities` are built
    when first read.  `from_grid` reads `GridWeight.exact`: d_b = N, and
    dens = N * cells and d = its unit, both divided by their gcd.
    """

    bps: tuple[int, ...]
    d_b: int
    dens: tuple[int, ...]
    d: int
    cum: tuple[int, ...] = field(compare=False, repr=False)
    d_c: int = field(compare=False, repr=False)

    def __init__(self, breakpoints: Sequence, densities: Sequence):
        self._fill(*_on_scale(_to_rat(b) for b in breakpoints),
                   *_on_scale(_to_rat(r) for r in densities), "densities")

    def _fill(self, d_b: int, bps: Iterable[int], d: int, dens: Iterable[int], what: str):
        """Check and set the table b_k = bps[k] / d_b, densities dens[k] / d,
        given on their least scales, with its cumulative masses."""
        bps, dens = tuple(bps), tuple(dens)
        if len(bps) != len(dens) + 1 or len(dens) < 1:
            raise ValueError("need k+1 breakpoints for k pieces")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if min(dens) <= 0:
            raise ValueError(f"{what} must be positive")
        steps = (r * (b1 - b0) for r, b0, b1 in zip(dens, bps, bps[1:]))
        for name, value in (("bps", bps), ("d_b", d_b), ("dens", dens), ("d", d), ("d_c", d_b * d),
                            ("cum", tuple(itertools.accumulate(steps, initial=0)))):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(b, self.d_b) for b in self.bps)

    @functools.cached_property
    def densities(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(r, self.d) for r in self.dens)

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return Fraction(self.bps[0], self.d_b), Fraction(self.bps[-1], self.d_b)

    def _inside(self, a: int, b: int) -> bool:
        """a / b lies in the domain, b > 0."""
        return self.bps[0] * b <= a * self.d_b <= self.bps[-1] * b

    def _distribution(self, a: int, b: int) -> int:
        """F(a / b) times d_c * b, for b > 0 and a / b in the domain."""
        ad = a * self.d_b
        k = min(bisect_right(self.bps, ad // b), len(self.dens)) - 1
        return self.cum[k] * b + self.dens[k] * (ad - self.bps[k] * b)

    def _quantile(self, u: int, v: int) -> tuple[int, int]:
        """F^-1(u / v) as (numerator, denominator), the denominator > 0, for v > 0."""
        ud = u * self.d_c
        if not 0 <= ud <= self.cum[-1] * v:
            raise ValueError("y escapes [0, w(domain)]")
        k = min(bisect_right(self.cum, ud // v), len(self.dens)) - 1
        r = self.dens[k]
        return self.bps[k] * r * v + ud - self.cum[k] * v, self.d_b * r * v

    def distribution(self, x) -> Fraction:
        """F(x) = w([l, x]), x in the domain."""
        x = _to_rat(x)
        a, b = x.numerator, x.denominator
        if not self._inside(a, b):
            raise ValueError("x escapes the weight domain")
        return Fraction(self._distribution(a, b), self.d_c * b)

    def quantile(self, y) -> Fraction:
        """F^-1(y), y in [0, w(domain)]."""
        y = _to_rat(y)
        return Fraction(*self._quantile(y.numerator, y.denominator))

    def mass(self, a, b) -> Fraction:
        a, b = _to_rat(a), _to_rat(b)
        na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
        if na * db > nb * da:
            raise ValueError("empty interval")
        # a <= b, so l <= a and b <= r decide the domain
        if self.bps[0] * da > na * self.d_b or nb * self.d_b > self.bps[-1] * db:
            raise ValueError("interval escapes the weight domain")
        return Fraction(self._distribution(nb, db) * da - self._distribution(na, da) * db,
                        self.d_c * da * db)

    @staticmethod
    def from_grid(w: GridWeight) -> "PiecewiseWeight1D":
        """w's cells as N pieces on [0, 1], the density of cell k its mass times N."""
        if w.dim != 1:
            raise ValueError("only 1-D grid weights convert to piecewise form")
        unit, cells, _ = w.exact
        n = w.resolution
        dens = [n * c for c in cells.tolist()]
        g = math.gcd(unit, *dens)
        out = object.__new__(PiecewiseWeight1D)
        out._fill(n, range(n + 1), unit // g, [r // g for r in dens], "piecewise densities")
        return out


def _pushed(e: IntervalSet, weight: PiecewiseWeight1D) -> tuple[int, list[int]]:
    """F(E) for a nonempty E as (scale, its endpoints times scale), remembered on
    the weight, keyed by E.  E's place in the domain is checked when it is built."""

    def push():
        lcm, ends = _on_scale(e.breakpoints())
        if not (weight._inside(ends[0], lcm) and weight._inside(ends[-1], lcm)):
            raise ValueError("set escapes the weight domain")
        return weight.d_c * lcm, [weight._distribution(x, lcm) for x in ends]

    return _remembered(weight, e, push)


def point_eval_1d(e: IntervalSet, x, weight: PiecewiseWeight1D | None = None) -> Fraction:
    """Exact value at x of the uncentered maximal function of the indicator of e.

    Candidate interval endpoints snap to breakpoints of e, or to x itself.
    With a weight this is the Lebesgue value of F(E) at F(x): F carries
    intervals and w onto intervals and length, and cutting an interval down
    to [0, w(domain)] only raises its E-fraction.  F(E) is the one
    `exact_halo_1d` remembers on the weight, keyed by E.
    """
    if e.is_empty:
        raise ValueError("empty set")
    if weight is None:
        x, bps = _to_rat(x), e.breakpoints()
    else:
        scale, ends = _pushed(e, weight)
        x, bps = weight.distribution(x), [Fraction(y, scale) for y in ends]
    ivs = list(zip(bps[::2], bps[1::2]))
    if any(a <= x <= b for a, b in ivs):
        return Fraction(1)
    left = sorted(b for b in bps if b <= x) + [x]
    right = [x] + sorted(b for b in bps if b >= x)
    best = Fraction(0)
    for p, q in itertools.product(left, right):
        if p < q:
            inside = sum((min(b, q) - max(a, p) for a, b in ivs if a < q and p < b),
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
    weight, keyed by E, as integer endpoints on one scale, so an alpha ladder
    on one set pushes it once and pays for the Phi pass and the quantiles
    only.  The Phi pass hands its integer endpoints to F^-1, and F^-1 its
    integer numerators and denominators to one order check, with one
    `Fraction` per returned endpoint.
    """
    alpha = _level(alpha, "alpha")
    if e.is_empty:
        raise ValueError("empty set")
    if weight is None:
        parts, scale = _halo(*_on_scale(e.breakpoints()), alpha)
        return _halo_set([(x, scale) for part in parts for x in part])
    parts, scale = _halo(*_pushed(e, weight), alpha)
    d_c = weight.d_c  # w(domain) = weight.cum[-1] / d_c
    top = weight.cum[-1] * scale
    return _halo_set([end for a, b in parts for end in (
        weight._quantile(max(a, 0), scale), weight._quantile(min(b * d_c, top), d_c * scale))])


def _halo(scale: int, ends: list[int], alpha: Fraction) -> tuple[list[list[int]], int]:
    """The Lebesgue halo of the set E with sorted endpoints ends[i] / scale, ints
    on one scale, from one pass over Phi(x) = |E ∩ [l, x]| - alpha*(x - l), as
    its sorted, disjoint components (a, b) on one scale: (a / S', b / S').

    [p, q] has E-fraction > alpha iff Phi(q) > Phi(p), so x is in the halo iff
    min over p <= x of Phi(p) < max over q >= x of Phi(q).  Between E's
    endpoints Phi has slope -alpha off E and 1 - alpha on it; spare pieces of
    width |E|/alpha, from l on the left, hold every boundary solution.  A
    piece is in the halo wholesale, or Phi falls across it and two linear
    solves against the running min and max give its halo.  O(B).

    All of it runs on Python ints.  With L = scale and alpha = p/q, x = X / S
    at S = L*p puts the endpoints and the spare width |E|/alpha = |E|*L*q / S
    on integers, and Phi * S * q has the integer slopes -p off E and q - p on
    it.  Only the pieces off E fall, all with slope -p, so a solve moves X by
    (Phi * S * q difference) / p: every boundary solution lies on the one
    scale S' = S*p = L*p*p.  The pieces come in order and each one's halo lies
    inside it, left solve before right, so the components come out sorted and
    one linear pass coalesces them.
    """
    p, q = alpha.numerator, alpha.denominator
    margin = q * (sum(ends[1::2]) - sum(ends[::2]))
    grid = [p * ends[0] - margin] + [p * x for x in ends] + [p * ends[-1] + margin]
    slopes = [-p, q - p] * (len(ends) // 2) + [-p]
    steps = (s * (b - a) for s, a, b in zip(slopes, grid, grid[1:]))
    phi = list(itertools.accumulate(steps, initial=0))
    low = list(itertools.accumulate(phi, min))
    high = list(itertools.accumulate(reversed(phi), max))[::-1]
    parts: list[tuple[int, int]] = []
    for k in range(len(slopes)):
        a, b = p * grid[k], p * grid[k + 1]
        if low[k] < high[k + 1]:
            parts.append((a, b))
            continue
        # Phi(a) >= low[k] >= high[k + 1] >= Phi(b): Phi falls, so the piece
        # lies off E and has slope -p
        if phi[k] > low[k]:
            parts.append((a, a + phi[k] - low[k]))
        if phi[k + 1] < high[k + 1]:
            parts.append((b - high[k + 1] + phi[k + 1], b))
    return _coalesce(parts), scale * p * p


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
        if not 1 <= dims.pop() <= 3:
            raise ValueError("supported dimensions are 1..3")
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


def _atom_indices(mu: AtomicMeasure, e_indices: Sequence[int]) -> list[int]:
    """e_indices as a list, each an int or numpy integer (not a bool) indexing
    one of mu's atoms; repeats are allowed."""
    e_indices = list(e_indices)
    for i in e_indices:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise TypeError(f"atom indices must be integers, got {i!r}")
        if not 0 <= i < len(mu.atoms):
            raise ValueError("atom index out of range")
    return e_indices


def default_atomic_candidates(mu: AtomicMeasure, e_indices: Sequence[int]) -> list[Box]:
    """Minimal bounding cubes of (E-atom, atom) pairs at all corner placements,
    plus a tiny cube around each E-atom."""
    e_indices = _atom_indices(mu, e_indices)
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


def _atomic_stage(mu: AtomicMeasure, e_indices: list[int]):
    """The alpha-free part of `atomic_maximal_lower`, over the default
    candidates: (boxes, inside[candidate, atom], atom masses times scale,
    scale, and each candidate's mass and E-mass times scale), its arrays
    read-only."""
    boxes = tuple(default_atomic_candidates(mu, e_indices))
    _, lo, hi = _int_corners([(b.lo, b.hi) for b in boxes] + [(pt, pt) for pt, _ in mu.atoms])
    pts = lo[len(boxes):]
    inside = ((lo[:len(boxes), None] <= pts) & (pts <= hi[:len(boxes), None])).all(axis=2)
    scale, masses = _on_scale(m for _, m in mu.atoms)
    masses = np.array(masses, dtype=object)
    in_e = np.zeros(len(masses), dtype=bool)
    in_e[e_indices] = True
    mass, mass_e = inside @ masses, inside @ np.where(in_e, masses, 0)
    for a in (inside, masses, mass, mass_e):
        a.flags.writeable = False
    return boxes, inside, masses, scale, mass, mass_e


def atomic_maximal_lower(mu: AtomicMeasure, e_indices: Sequence[int], alpha
                         ) -> AtomicHaloBound:
    """Certified lower bound on the halo mass of an atom subset.

    The candidates are `default_atomic_candidates(mu, e_indices)`.  Every
    candidate cube whose E-mass fraction strictly exceeds alpha puts all its
    points, in particular all its atoms, inside the halo.  The bound is the
    exact mass of the union of certified atoms.

    Candidates and atoms go onto one integer grid (`_int_corners`) and the
    masses onto one integer scale (`_on_scale`), so membership is one
    comparison of Python ints per candidate, atom and axis, and for
    alpha = p/q a candidate is certified iff q * (its E-mass) > p * (its
    mass), an exact test.

    The candidates, their membership matrix and their masses are remembered
    on mu, keyed by tuple(e_indices) (one candidate set per measure), so an
    alpha ladder on one E builds them once.
    """
    alpha = _level(alpha, "alpha")
    e_indices = _atom_indices(mu, e_indices)
    if not e_indices:
        raise ValueError("E must contain at least one atom")
    boxes, inside, masses, scale, mass, mass_e = _remembered(
        mu, tuple(e_indices), lambda: _atomic_stage(mu, e_indices))
    certified = mass_e * alpha.denominator > alpha.numerator * mass
    covered = inside[certified].any(axis=0)
    witnesses = tuple((boxes[c], Fraction(mass_e[c], mass[c])) for c in np.flatnonzero(certified))
    return AtomicHaloBound(Fraction(int(covered @ masses), scale),
                           frozenset(np.flatnonzero(covered).tolist()), witnesses)
