"""Slow reference implementations that the fast library paths are tested against.

No oracle here calls `gridops`, the window kernel that the fast paths share,
so a wrong slice or sign there shows up as a difference between a fast path
and its oracle.
"""

import itertools
import math
from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from tauberian_lab.covering import SelectionResult
from tauberian_lab.geometry import _to_rat, dilate
from tauberian_lab.maximal import IntervalSet, MaximalSpec, PiecewiseWeight1D
from tauberian_lab.weights import GridCube, GridWeight


def _cells(q: GridCube) -> tuple[slice, ...]:
    return tuple(slice(c, c + q.side) for c in q.corner)


def _prefix_mass(values: np.ndarray):
    """cube -> mass by inclusion-exclusion over prefix sums built here.

    The rounding is the fast path's on purpose.  A prefix difference is exact
    only to rounding of the grid total, so a light cube beside heavy cells
    carries a large relative error: on [[0, 256, 66], [0, 0, 0], [0.001, 0, 254]]
    fast Fujii-Wilson gives 1.75 * (1 + 1.35e-11), where slice sums (and exact
    arithmetic) give 1.75, outside the 1e-12 of the Fujii-Wilson properties.
    """
    sums = values
    for axis in range(values.ndim):
        sums = np.cumsum(sums, axis=axis)
    p = np.zeros(tuple(k + 1 for k in values.shape))
    p[(slice(1, None),) * values.ndim] = sums

    def mass(q: GridCube) -> float:
        if values.ndim == 1:
            (i,), s = q.corner, q.side
            return float(p[i + s] - p[i])
        (i, j), s = q.corner, q.side
        return float(p[i + s, j + s] - p[i, j + s] - p[i + s, j] + p[i, j])

    return mass


def fujii_wilson_naive(w: GridWeight) -> float:
    """Fujii-Wilson gauge by enumeration: for every cube Q and every cell of Q,
    the largest average over the cubes inside Q that cover the cell."""
    best = 0.0
    cubes = list(w.cubes())
    cube_mass = _prefix_mass(w.values)
    for q in cubes:
        mass = cube_mass(q)
        if mass <= 0:
            continue
        integ = 0.0
        for cell in np.ndindex(*(q.side,) * w.dim):
            c = tuple(q.corner[d] + cell[d] for d in range(w.dim))
            m = 0.0
            for r in cubes:
                if r.side > q.side:
                    continue
                inside = all(
                    q.corner[d] <= r.corner[d]
                    and r.corner[d] + r.side <= q.corner[d] + q.side
                    for d in range(w.dim))
                covers = all(
                    r.corner[d] <= c[d] < r.corner[d] + r.side for d in range(w.dim))
                if inside and covers:
                    m = max(m, cube_mass(r) / w.cube_volume(r))
            integ += m * w.cell_volume
        best = max(best, integ / mass)
    return best


def _admissible_cubes(variant: str, n: int, dim: int):
    """(cube, cells whose value it bounds) for every cube the grid engine's
    variant ranges over: all of its cells, or only the center cell for the
    centered variant."""
    if variant == "uncentered":
        for s in range(1, n + 1):
            for corner in itertools.product(range(n - s + 1), repeat=dim):
                q = GridCube(corner, s)
                yield q, _cells(q)
    elif variant == "centered":
        for t in range(1, n + 1, 2):
            for center in itertools.product(range(t // 2, n - t // 2), repeat=dim):
                yield GridCube(tuple(c - t // 2 for c in center), t), center
    else:
        s = 1
        while s <= n:
            for corner in itertools.product(range(0, n, s), repeat=dim):
                q = GridCube(corner, s)
                yield q, _cells(q)
            s *= 2


def grid_maximal_naive(e: np.ndarray, spec: MaximalSpec, weight: GridWeight | None = None
                       ) -> np.ndarray:
    """Grid maximal function by enumeration: every admissible cube with a cell
    of positive mass raises the cells it bounds to its E-mass fraction; cells
    that no such cube bounds get 0."""
    e = np.asarray(e, dtype=bool)
    masses = weight.values if spec.measure == "grid-weight" else np.ones(e.shape)
    vals = np.zeros(e.shape)
    for q, target in _admissible_cubes(spec.variant, e.shape[0], e.ndim):
        cells = _cells(q)
        if not (masses[cells] > 0).any():
            continue
        ratio = masses[cells][e[cells]].sum() / masses[cells].sum()
        vals[target] = np.maximum(vals[target], ratio)
    return vals


def _piece_sol(c0: Fraction, c1: Fraction, t_hi: Fraction):
    """sup of t in (0, t_hi] with c0 + t*c1 > 0, or None."""
    if c1 > 0:
        return t_hi if -c0 / c1 < t_hi else None
    if c1 < 0:
        cut = -c0 / c1
        return min(cut, t_hi) if cut > 0 else None
    return t_hi if c0 > 0 else None


def exact_halo_1d_sweep(e: IntervalSet, alpha, weight: PiecewiseWeight1D | None = None
                        ) -> IntervalSet:
    """Exact 1-D halo by one sweep per breakpoint and direction, the oracle
    for `maximal.exact_halo_1d`.

    Any interval whose E-mass fraction exceeds alpha lies in the halo
    wholesale, and optimizing one endpoint at a time snaps the other to a
    breakpoint, so the halo is the union over breakpoints p of [p, x], x the
    farthest point on either side of p with excess(p, x) =
    mu(E ∩ [p, x]) - alpha * mu([p, x]) > 0.  One sweep per anchor p and
    direction carries the excess piece by piece over the refinement of the E
    and weight breakpoints.  On each piece it is linear in x, so the farthest
    solution there solves a linear equation over the rationals, and a
    solution on a later piece lies farther out than any earlier one.
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
    starts = [a for a, _ in e.intervals]
    # excess per unit length of each piece: (1[piece ⊂ E] - alpha) * density
    slopes = []
    for a in grid[:-1]:
        i = bisect_right(starts, a) - 1
        in_e = i >= 0 and a < e.intervals[i][1]
        dens = (Fraction(1) if weight is None
                else weight.densities[bisect_right(weight.breakpoints, a) - 1])
        slopes.append((int(in_e) - alpha) * dens)

    idx = {g: i for i, g in enumerate(grid)}
    parts: list[tuple[Fraction, Fraction]] = []
    for p in bps:
        for step in (1, -1):
            pieces = range(idx[p], len(slopes)) if step > 0 else range(idx[p] - 1, -1, -1)
            excess, reach = Fraction(0), None
            for k in pieces:
                length = grid[k + 1] - grid[k]
                sol = _piece_sol(excess, slopes[k], length)
                if sol is not None:
                    reach = grid[k] + sol if step > 0 else grid[k + 1] - sol
                excess += slopes[k] * length
            if reach is not None:
                parts.append((min(p, reach), max(p, reach)))
    return IntervalSet.merge(parts)


# ---------------------------------------------------------------------------
# Pairwise fragment engine: how box families were measured before the
# compressed grid, kept as the oracle for `geometry` and `covering`.
# ---------------------------------------------------------------------------

IntBox = tuple[tuple[int, ...], tuple[int, ...]]


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


class FragRegion(NamedTuple):
    """Disjoint half-open integer fragments; true coordinate = integer / scale."""

    scale: int
    frags: list[IntBox]

    @staticmethod
    def of(corner_boxes, scale: int) -> "FragRegion":
        """The union of rational (lo, hi) corner boxes; scale clears every denominator."""
        return FragRegion(scale, _disjointify([
            (tuple(int(c * scale) for c in lo), tuple(int(c * scale) for c in hi))
            for lo, hi in corner_boxes]))

    def minus(self, other: "FragRegion") -> "FragRegion":
        parts = self.frags
        for cut in other.frags:
            parts = [p for piece in parts for p in _frag_minus(piece, cut)]
        return FragRegion(self.scale, parts)

    def measure(self, dim: int) -> Fraction:
        return Fraction(sum(math.prod(h - l for l, h in zip(lo, hi)) for lo, hi in self.frags),
                        self.scale ** dim)

    def rational(self):
        return [(tuple(Fraction(x, self.scale) for x in lo),
                 tuple(Fraction(x, self.scale) for x in hi)) for lo, hi in self.frags]


def _corners(boxes):
    return [(b.lo, b.hi) for b in boxes]


def _scale(*corner_lists) -> int:
    return math.lcm(*(c.denominator for cs in corner_lists for lo, hi in cs for c in (*lo, *hi)))


def frag_enlargement_excess(boxes, delta) -> Fraction:
    """Measure of the union of the (1 + delta)-dilates minus the union of the boxes."""
    dil, orig = _corners([dilate(b, 1 + delta) for b in boxes]), _corners(boxes)
    scale = _scale(dil, orig)
    return FragRegion.of(dil, scale).minus(FragRegion.of(orig, scale)).measure(boxes[0].dim)


def frag_increments(boxes) -> list[FragRegion]:
    """E_j = Q_j minus the union of the earlier boxes, in list order."""
    cs = _corners(boxes)
    scale = _scale(cs)
    return [FragRegion.of(cs[j:j + 1], scale).minus(FragRegion.of(cs[:j], scale))
            for j in range(len(boxes))]


def frag_identity_defect(boxes, delta) -> Fraction:
    """Measure of the symmetric difference of the union of the dilates and
    the union of the increments, each dilated about its own box's centre."""
    t = 1 + delta
    lhs = _corners([dilate(b, t) for b in boxes])
    rhs = [tuple(tuple(c + t * (x - c) for c, x in zip(b.center, corner)) for corner in frag)
           for b, e in zip(boxes, frag_increments(boxes)) for frag in e.rational()]
    scale = _scale(lhs, rhs)
    lhs, rhs = FragRegion.of(lhs, scale), FragRegion.of(rhs, scale)
    dim = boxes[0].dim
    return lhs.minus(rhs).measure(dim) + rhs.minus(lhs).measure(dim)


def frag_cf_select_lebesgue(f, delta) -> SelectionResult:
    """Córdoba-Fefferman selection with each new measure taken by the
    fragment engine: the box minus the union of the boxes kept so far."""
    boxes = list(f)
    cs = _corners(boxes)
    scale = _scale(cs)
    selected, certs, incs, equality = [], {}, {}, []
    for i, q in enumerate(boxes):
        vol = q.volume()
        kept = FragRegion.of([cs[j] for j in selected], scale)
        new = FragRegion.of([cs[i]], scale).minus(kept).measure(q.dim)
        overlap = vol - new
        if overlap <= (1 - delta) * vol:
            if overlap == (1 - delta) * vol and selected:
                equality.append(i)
            selected.append(i)
            incs[i] = new
        else:
            certs[i] = {"rule": "overlap-fraction", "overlap": overlap,
                        "fraction": overlap / vol}
    return SelectionResult("cf-lebesgue", f, tuple(range(len(boxes))), tuple(selected), certs,
                           {"delta": delta}, incs, tuple(equality))


def frag_minimal_cover_dilation(boxes, selected, candidates) -> Fraction:
    """The first candidate, in increasing order, whose dilates of the selected
    boxes cover every box."""
    whole = _corners(boxes)
    for t in sorted(candidates):
        cover = _corners([dilate(b, t) for b in selected])
        scale = _scale(whole, cover)
        if not FragRegion.of(whole, scale).minus(FragRegion.of(cover, scale)).frags:
            return t
    raise ValueError("no candidate dilation factor covers the family")
