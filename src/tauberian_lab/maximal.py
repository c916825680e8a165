"""Maximal operators of indicator functions.

Three engines:

* grid: uncentered / centered / dyadic cube maximal operators on the N^n
  grid over [0,1)^n, for Lebesgue or grid-weight measures.  Cubes run over
  grid-aligned cubes inside the domain, so grid superlevel sets are lower
  approximations of their continuous counterparts.
* exact 1-D: interval sets and piecewise-constant weights over Fraction
  arithmetic; maximal values and full superlevel sets ("halos") are exact.
  Since the mass ratio of an interval is linear-fractional in each free
  endpoint, optima snap to breakpoints and halo boundaries solve linear
  equations over the rationals.
* atomic: finite atomic measures; halo mass is certified from below by
  candidate cubes.

Superlevel sets use strict inequality throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import UnsupportedGeometry
from .geometry import Box, _to_rat
from .gridops import prefix, resolution, trailing_max, window_sums
from .weights import GridWeight

VARIANTS = ("uncentered", "centered", "dyadic")


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
    cubes with zero mass are skipped.
    """
    e = np.asarray(e, dtype=bool)
    n = resolution(e)
    if spec.measure == "grid-weight":
        if weight is None:
            raise ValueError("grid-weight measure needs a weight")
        if weight.values.shape != e.shape:
            raise ValueError("weight grid and set grid differ in shape")
        pn = prefix(np.where(e, weight.values, 0.0))
        pd = weight.prefix
    else:
        pn = prefix(e)
        pd = prefix(np.ones(e.shape))

    def ratio(s):
        """mu(R∩E)/mu(R) for every side-s cube R, -inf where mu(R) = 0."""
        num, den = window_sums(pn, s), window_sums(pd, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den > 0, num / den, -np.inf)

    vals = np.full(e.shape, -np.inf)
    if spec.variant == "uncentered":
        for s in range(1, n + 1):
            m = ratio(s)
            for axis in range(e.ndim):
                m = trailing_max(m, s, n, axis=axis)
            np.maximum(vals, m, out=vals)
    elif spec.variant == "centered":
        # odd-sided cubes centered at the cell, fully inside the domain
        for t in range(1, n + 1, 2):
            inner = vals[(slice(t // 2, n - t // 2),) * e.ndim]
            np.maximum(inner, ratio(t), out=inner)
    else:  # dyadic
        if n & (n - 1):
            raise ValueError("dyadic variant needs a power-of-two resolution")
        s = 1
        while s <= n:
            m = ratio(s)[(slice(None, None, s),) * e.ndim]
            for axis in range(e.ndim):
                m = np.repeat(m, s, axis=axis)
            np.maximum(vals, m, out=vals)
            s *= 2
    vals[vals == -np.inf] = 0.0
    return vals


def superlevel(e: np.ndarray, alpha: float, spec: MaximalSpec = MaximalSpec(),
               weight: GridWeight | None = None) -> np.ndarray:
    """Cells where the maximal function strictly exceeds alpha."""
    return grid_maximal(e, spec, weight) > alpha


def set_mass(e: np.ndarray, weight: GridWeight | None = None) -> float:
    e = np.asarray(e, dtype=bool)
    if weight is None:
        return float(e.sum()) / e.size
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
        ivs = sorted((_to_rat(a), _to_rat(b)) for a, b in intervals if a < b)
        out: list[list[Fraction]] = []
        for a, b in ivs:
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
    """Positive piecewise-constant density on [breakpoints[0], breakpoints[-1]]."""

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

    def mass(self, a, b) -> Fraction:
        a, b = _to_rat(a), _to_rat(b)
        if a > b:
            raise ValueError("empty interval")
        lo, hi = self.domain
        if a < lo or b > hi:
            raise ValueError("interval escapes the weight domain")
        total = Fraction(0)
        for l, r, d in zip(self.breakpoints, self.breakpoints[1:], self.densities):
            seg = min(b, r) - max(a, l)
            if seg > 0:
                total += d * seg
        return total

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


def _measure_1d(weight: PiecewiseWeight1D | None, a: Fraction, b: Fraction) -> Fraction:
    if weight is None:
        return b - a
    return weight.mass(a, b)


def _set_measure_1d(weight, e: IntervalSet, a: Fraction, b: Fraction) -> Fraction:
    total = Fraction(0)
    for lo, hi in e.intervals:
        l, r = max(lo, a), min(hi, b)
        if l < r:
            total += _measure_1d(weight, l, r)
    return total


def point_eval_1d(e: IntervalSet, x, weight: PiecewiseWeight1D | None = None) -> Fraction:
    """Exact value at x of the uncentered maximal function of the indicator of e.

    Candidate interval endpoints snap to breakpoints of e and the weight, or
    to x itself.
    """
    x = _to_rat(x)
    if e.is_empty:
        raise ValueError("empty set")
    if weight is not None:
        lo, hi = weight.domain
        if not lo <= x <= hi:
            raise ValueError("x escapes the weight domain")
    if e.contains_point(x):
        return Fraction(1)
    bps = set(e.breakpoints())
    if weight is not None:
        bps |= set(weight.breakpoints)
    left = sorted(b for b in bps if b <= x) + [x]
    right = [x] + sorted(b for b in bps if b >= x)
    best = Fraction(0)
    for p in left:
        for q in right:
            if p >= q:
                continue
            den = _measure_1d(weight, p, q)
            if den <= 0:
                continue
            best = max(best, _set_measure_1d(weight, e, p, q) / den)
    return best


class _PieceTable:
    """Piecewise-linear mass data on the refinement of E and weight breakpoints."""

    def __init__(self, e: IntervalSet, weight: PiecewiseWeight1D | None,
                 grid: list[Fraction]):
        self.grid = grid
        self.lengths = [b - a for a, b in zip(grid, grid[1:])]
        self.dens: list[Fraction] = []
        self.in_e: list[bool] = []
        for lo, hi in zip(grid, grid[1:]):
            mid = (lo + hi) / 2
            self.in_e.append(e.contains_point(mid))
            if weight is None:
                self.dens.append(Fraction(1))
            else:
                # grid refines the weight breakpoints, so density is constant here
                self.dens.append(weight.mass(lo, hi) / (hi - lo))
        self.cum_d = [Fraction(0)]
        self.cum_e = [Fraction(0)]
        for ln, d, ie in zip(self.lengths, self.dens, self.in_e):
            self.cum_d.append(self.cum_d[-1] + d * ln)
            self.cum_e.append(self.cum_e[-1] + (d * ln if ie else Fraction(0)))

    def mass(self, i: int, j: int) -> Fraction:
        return self.cum_d[j] - self.cum_d[i]

    def mass_e(self, i: int, j: int) -> Fraction:
        return self.cum_e[j] - self.cum_e[i]


def _piece_sol(c0: Fraction, c1: Fraction, t_hi: Fraction):
    """sup of t in (0, t_hi] with c0 + t*c1 > 0, or None."""
    if c1 > 0:
        return t_hi if -c0 / c1 < t_hi else None
    if c1 < 0:
        cut = -c0 / c1
        return min(cut, t_hi) if cut > 0 else None
    return t_hi if c0 > 0 else None


def exact_halo_1d(e: IntervalSet, alpha, weight: PiecewiseWeight1D | None = None
                  ) -> IntervalSet:
    """Exact superlevel set {x : M(indicator of e)(x) > alpha} in one dimension.

    Any interval whose E-mass fraction exceeds alpha lies in the halo
    wholesale, and optimizing one endpoint at a time snaps the other to a
    breakpoint, so the halo is the union of (i) breakpoint-anchored intervals
    above level alpha and (ii) per-anchor segments whose free endpoint solves
    a linear equation over the rationals on each piece.
    """
    alpha = _to_rat(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if e.is_empty:
        raise ValueError("empty set")
    bps = sorted(set(e.breakpoints()) | (set(weight.breakpoints) if weight else set()))
    if weight is not None:
        lo, hi = weight.domain
        if e.intervals[0][0] < lo or e.intervals[-1][1] > hi:
            raise ValueError("set escapes the weight domain")
        left_end, right_end = lo, hi
    else:
        # beyond the outermost breakpoints the ratio only decays; a spare
        # piece of width |E|/alpha contains every boundary solution
        margin = e.measure() / alpha
        left_end, right_end = bps[0] - margin, bps[-1] + margin

    grid = sorted(set([left_end, right_end] + bps))
    table = _PieceTable(e, weight, grid)
    idx = {g: i for i, g in enumerate(grid)}

    parts: list[tuple[Fraction, Fraction]] = []
    bp_idx = [idx[b] for b in bps]
    # anchored pairs: any sub-breakpoint interval above level alpha is halo
    for a_pos, iu in enumerate(bp_idx):
        for iv in bp_idx[a_pos + 1 :]:
            den = table.mass(iu, iv)
            if den > 0 and table.mass_e(iu, iv) > alpha * den:
                parts.append((grid[iu], grid[iv]))
    # free right endpoint: intervals [p, x], x swept rightward from p
    for ip in bp_idx:
        best = None
        for k in range(ip, len(grid) - 1):
            c0 = table.mass_e(ip, k) - alpha * table.mass(ip, k)
            c1 = table.cum_e[k + 1] - table.cum_e[k] - alpha * (
                table.cum_d[k + 1] - table.cum_d[k])
            ln = table.lengths[k]
            sol = _piece_sol(c0, c1 / ln if ln else c1, ln)
            if sol is not None:
                x = grid[k] + sol
                best = x if best is None else max(best, x)
        if best is not None and best > grid[ip]:
            parts.append((grid[ip], best))
    # free left endpoint: intervals [x, q], x swept leftward from q
    for iq in bp_idx:
        best = None
        for k in range(iq - 1, -1, -1):
            c0 = table.mass_e(k + 1, iq) - alpha * table.mass(k + 1, iq)
            c1 = table.cum_e[k + 1] - table.cum_e[k] - alpha * (
                table.cum_d[k + 1] - table.cum_d[k])
            ln = table.lengths[k]
            sol = _piece_sol(c0, c1 / ln if ln else c1, ln)
            if sol is not None:
                x = grid[k + 1] - sol
                best = x if best is None else min(best, x)
        if best is not None and best < grid[iq]:
            parts.append((best, grid[iq]))
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


def default_atomic_candidates(mu: AtomicMeasure, e_indices: Sequence[int]) -> list[Box]:
    """Minimal bounding cubes of (E-atom, atom) pairs at all corner placements,
    plus a tiny cube around each E-atom."""
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
            for combo in _product(lo_choices):
                center = tuple(l + side / 2 for l in combo)
                out.append(Box(center, side))
    return out


def _product(choice_sets):
    if not choice_sets:
        yield ()
        return
    for c in choice_sets[0]:
        for rest in _product(choice_sets[1:]):
            yield (c,) + rest


def atomic_maximal_lower(mu: AtomicMeasure, e_indices: Sequence[int], alpha,
                         candidate_boxes: Sequence[Box] | None = None
                         ) -> AtomicHaloBound:
    """Certified lower bound on the halo mass of an atom subset.

    Every candidate cube whose E-mass fraction strictly exceeds alpha puts
    all its points, in particular all its atoms, inside the halo.  The bound
    is the exact mass of the union of certified atoms.

    Membership is prefiltered in floating point with a slack wide enough to
    never drop a true member, then confirmed in exact rational arithmetic.
    """
    alpha = _to_rat(alpha)
    e_indices = list(e_indices)
    if not e_indices:
        raise ValueError("E must contain at least one atom")
    eset = set(e_indices)
    if any(not 0 <= i < len(mu.atoms) for i in eset):
        raise ValueError("atom index out of range")
    if candidate_boxes is None:
        candidate_boxes = default_atomic_candidates(mu, e_indices)
    pts_f = np.array([[float(c) for c in pt] for pt, _ in mu.atoms])
    slack = 1e-9 * max(1.0, float(np.abs(pts_f).max()))
    covered: set[int] = set()
    witnesses = []
    for box in candidate_boxes:
        if box.dim != mu.dim:
            raise UnsupportedGeometry("candidate box dimension mismatch")
        lo_f = np.array([float(x) for x in box.lo])
        hi_f = np.array([float(x) for x in box.hi])
        rough = np.flatnonzero(
            np.all((pts_f >= lo_f - slack) & (pts_f <= hi_f + slack), axis=1))
        inside = [int(k) for k in rough if box.contains_point(mu.atoms[k][0])]
        if not inside:
            continue
        mass = sum((mu.atoms[k][1] for k in inside), Fraction(0))
        mass_e = sum((mu.atoms[k][1] for k in inside if k in eset), Fraction(0))
        ratio = mass_e / mass
        if ratio > alpha:
            covered.update(inside)
            witnesses.append((box, ratio))
    lower = sum((mu.atoms[k][1] for k in covered), Fraction(0))
    return AtomicHaloBound(lower, frozenset(covered), tuple(witnesses))
