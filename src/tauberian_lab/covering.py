"""Greedy cube-selection procedures with verifiable certificates.

Each selector returns a SelectionResult that records, for every rejected
box, the rule that rejected it.  Both Cordoba-Fefferman selectors run one
integer greedy on the int cell volumes of the family's grid or on the
weight's exact masses (`GridWeight.exact`): it keeps a running free table,
the cell masses with every kept box's cells zeroed, so a box's overlap with
the kept ones is its mass minus the sum of its free cells.  The weighted
selector's delta-free stage, each box's cell slices on the weight's grid
and its exact mass, is remembered on the family, keyed by a weak reference
to the weight, so a delta ladder builds it once; each call still copies
the cell masses as its free table.  Vitali, the satellite grouping and the
Lebesgue greedy read the boxes' volumes and meet matrix that the family
caches.  Overlap-2 scans the family's integer ends.  A result's `selected`
is a family whose integer corners are its input's rows, and
minimal_cover_dilation joins the integer corners of the family and of the
selected boxes on the lcm of their scales.  Every selector takes a
BoxFamily or a plain sequence of boxes; the CF selectors read the order
from the sides and raise OrderingViolation when a box is larger than the
one before it.

verify_selection_contract replays the run and re-checks every clause in exact
integers on a cell grid, the family's (with triple dilates for Vitali) or the
weight's; it reads the selectors' cell tables but slices and sums each box on
its own.
"""

from __future__ import annotations

import math
import operator
import weakref
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InvariantViolation, UnsupportedGeometry
from .geometry import (
    Box,
    BoxFamily,
    _decreasing,
    _dilated_grid,
    _family,
    _fit,
    _level,
    _remembered,
)
from .weights import GridCube, GridWeight


@dataclass(frozen=True)
class SelectionResult:
    kind: str
    input: BoxFamily
    selected_indices: tuple[int, ...]
    certificates: dict[int, dict] = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    increments: dict[int, Fraction | float] = field(default_factory=dict)
    equality_acceptances: tuple[int, ...] = ()

    @property
    def selected(self) -> BoxFamily:
        """The selected boxes, whose integer corners are the input's rows on
        the input's scale, so they are not converted from their Fractions again."""
        return self.input._rows(self.selected_indices)


# ---------------------------------------------------------------------------
# Vitali
# ---------------------------------------------------------------------------


def vitali_select(f: BoxFamily | Sequence[Box]) -> SelectionResult:
    """Greedy disjoint subfamily; every rejected box meets a selected box of
    at least its sidelength, so triple dilates of the selection cover the
    whole union."""
    fam = _family(f)
    vols, meets = fam._volumes, fam._meets
    selected: list[int] = []
    certs: dict[int, dict] = {}
    for i in sorted(range(len(fam)), key=lambda i: -vols[i]):
        hit = next((j for j in selected if meets[j, i]), None)
        if hit is None:
            selected.append(i)
        else:
            certs[i] = {"rule": "intersects-selected", "selected_index": hit}
    return SelectionResult("vitali", fam, tuple(selected), certs)


# ---------------------------------------------------------------------------
# Cordoba-Fefferman: one integer greedy for both measures
# ---------------------------------------------------------------------------


# kind: (its level's name, rejection rule, overlap key, the value of an exact ratio)
_CF_KINDS = {
    "cf-lebesgue": ("delta", "overlap-fraction", "overlap", Fraction),
    "cf-weighted": ("xi", "weighted-overlap", "overlap_mass", operator.truediv),
}


def _cf_select(kind: str, f: BoxFamily, level: Fraction, free: np.ndarray, unit: int,
               slices: Sequence[tuple[slice, ...]], vols: Sequence[int]) -> SelectionResult:
    """Keep box i iff the part of its cells slices[i] that earlier kept boxes
    cover carries at most (1 - level) of its mass vols[i], the sum of those
    cells; unit is the cells' scale.  free is the int cell table, which the
    greedy owns: it zeroes each kept box's cells, so the overlap is vols[i]
    minus the sum of free[slices[i]]."""
    name, rule, key, value = _CF_KINDS[kind]
    p, q = level.numerator, level.denominator
    selected: list[int] = []
    certs: dict[int, dict] = {}
    incs: dict[int, Fraction | float] = {}
    equality: list[int] = []
    for i, (sl, vol) in enumerate(zip(slices, vols)):
        overlap = vol - int(free[sl].sum())
        if q * overlap <= (q - p) * vol:
            if q * overlap == (q - p) * vol and selected:
                equality.append(i)
            selected.append(i)
            incs[i] = value(vol - overlap, unit)
            free[sl] = 0
        else:  # so vol >= overlap > 0
            certs[i] = {"rule": rule, key: value(overlap, unit), "fraction": value(overlap, vol)}
    return SelectionResult(kind, f, tuple(selected), certs,
                           {name: level}, incs, tuple(equality))


def cf_select_lebesgue(f: BoxFamily | Sequence[Box], delta) -> SelectionResult:
    """Keep a cube iff at most a (1-delta) fraction of it is already covered.

    Every kept cube after the first contributes new measure >= delta * |Q|;
    every rejected cube was covered above the (1-delta) level when visited.
    """
    delta = _level(delta, "delta")
    fam = _decreasing(f, "selection requires")
    grid = fam._grid
    return _cf_select("cf-lebesgue", fam, delta, grid.cells(), grid.scale ** grid.dim,
                      grid.slices, fam._volumes)


def box_to_grid_cube(b: Box, n: int) -> GridCube:
    """Exact conversion of a box with grid-aligned rational corners."""
    corner = []
    for lo in b.lo:
        c = lo * n
        if c.denominator != 1:
            raise UnsupportedGeometry("box corner is not grid-aligned")
        corner.append(int(c))
    side = b.side * n
    if side.denominator != 1:
        raise UnsupportedGeometry("box side is not a whole number of cells")
    if any(c < 0 or c + side > n for c in corner):
        raise UnsupportedGeometry("box escapes the grid domain")
    return GridCube(tuple(corner), int(side))


def _cube_slices(q: GridCube):
    return tuple(slice(c, c + q.side) for c in q.corner)


def _grid_cells(f: BoxFamily, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every box's cells on the n-cell grid, the (k, d) int arrays L*n/D and
    H*n/D for the family's corners L, H at scale D; for the first box it
    rejects, raises what box_to_grid_cube raises."""
    scale, lo, hi, top = f._ints
    lo, hi = _fit(max(n * top, scale), lo, hi)
    lo, hi = lo * n, hi * n
    a, b = lo // scale, hi // scale
    bad = ((lo % scale != 0) | (hi % scale != 0) | (a < 0) | (b > n)).any(axis=1)
    if bad.any():
        box_to_grid_cube(f[int(bad.argmax())], n)
        raise InvariantViolation("box_to_grid_cube accepts a box off the grid")
    return a.astype(np.int64), b.astype(np.int64)


def cf_select_weighted(f: BoxFamily | Sequence[Box], w: GridWeight, xi) -> SelectionResult:
    """Weighted variant: keep a cube iff the already-covered part carries at
    most a (1-xi) fraction of its w-mass, decided on the exact masses that the
    verifier reads, each cube's from their summed-area table.  The result's
    floats are the exact ratios correctly rounded, float(Fraction(n, d)).
    Each box's cells and mass, which xi does not change, are remembered on the
    family, keyed by a weak reference to w, so a ladder of xi on one (family,
    weight) builds them once and the family does not keep w alive."""
    xi = _level(xi, "xi")
    fam = _decreasing(f, "selection requires")
    if fam and fam.dim != w.dim:
        raise ValueError("dimension mismatch")
    exact = w.exact

    def stage():
        lo, hi = _grid_cells(fam, w.resolution)
        return ([tuple(map(slice, *c)) for c in zip(lo.tolist(), hi.tolist())],
                exact.box_sums(lo, hi))

    slices, vols = _remembered(fam, weakref.ref(w), stage)
    return _cf_select("cf-weighted", fam, xi, exact.cells.copy(), exact.unit, slices, vols)


# ---------------------------------------------------------------------------
# Satellite decomposition
# ---------------------------------------------------------------------------


def satellite_decompose(f: BoxFamily | Sequence[Box]) -> dict[int, list[int]]:
    """Group the family around its Vitali centers: a box joins every center
    it intersects whose sidelength is at least its own.  A box may appear in
    several groups; each group is a satellite configuration."""
    fam = _family(f)
    _, lo, hi, _ = fam._ints
    vols, meets = fam._volumes, fam._meets
    res = vitali_select(fam)
    groups: dict[int, list[int]] = {c: [c] for c in res.selected_indices}
    for i in range(len(fam)):
        for c in res.selected_indices:
            if c != i and vols[i] <= vols[c] and meets[i, c]:
                groups[c].append(i)
    # every member of every group meets its centre, is no larger and lies in 3 * centre
    pairs = np.array([(c, i) for c, members in groups.items() for i in members],
                     dtype=int).reshape(-1, 2)
    (cl, ch), (bl, bh) = ((lo[idx], hi[idx]) for idx in pairs.T)
    if not ((bl <= ch) & (cl <= bh) & (bh - bl <= ch - cl)
            & (bl >= 2 * cl - ch) & (bh <= 2 * ch - cl)).all():
        raise InvariantViolation("group is not a satellite configuration")
    if set(pairs[:, 1].tolist()) != set(range(len(fam))):
        raise InvariantViolation("satellite groups lost a box")
    return groups


# ---------------------------------------------------------------------------
# One-dimensional overlap-2 selection
# ---------------------------------------------------------------------------


def overlap2_select_1d(f: BoxFamily | Sequence[Box]) -> SelectionResult:
    """Subfamily of 1-D boxes with the same union and pointwise overlap at
    most 2 away from finitely many touching points: greedy farthest-reach
    chains, in one scan of the integer ends by (left end, -right end).  Of the
    boxes that start by the last kept box's right end and reach past it, the
    farthest-reaching is kept once a box starts past that end."""
    fam = _family(f)
    if fam and fam.dim != 1:
        raise UnsupportedGeometry("overlap-2 selection is one-dimensional")
    lo, hi = (a.ravel().tolist() for a in fam._ints[1:3])
    selected: list[int] = []
    certs: dict[int, dict] = {}
    end = best = None
    for i in sorted(range(len(fam)), key=lambda i: (lo[i], -hi[i])):
        if best is not None and lo[i] > end:
            selected.append(best)
            end, best = hi[best], None
        if end is None or lo[i] > end:  # a new chain
            selected.append(i)
            end = hi[i]
        elif hi[i] <= end:
            certs[i] = {"rule": "covered", "end": fam[selected[-1]].hi[0]}
        elif best is None or hi[i] > hi[best]:
            if best is not None:
                certs[best] = {"rule": "superseded", "by_reach": fam[i].hi[0]}
            best = i
        else:
            certs[i] = {"rule": "superseded", "by_reach": fam[best].hi[0]}
    if best is not None:
        selected.append(best)
    return SelectionResult("overlap2", fam, tuple(selected), certs)


# ---------------------------------------------------------------------------
# Contract verification
# ---------------------------------------------------------------------------


def _clause(report: dict, name: str, passed: bool, defect=None) -> None:
    report[name] = {"pass": bool(passed), "defect": defect}


def verify_selection_contract(result: SelectionResult,
                              w: GridWeight | None = None) -> dict:
    """Re-check every contract clause of a selection independently.

    Returns {clause: {"pass": bool, "defect": quantity}}; replays greedy
    decisions from scratch instead of trusting stored certificates, and in
    the CF replays compares the stored increments and certificates with the
    values of the exact ratios.
    """
    boxes = list(result.input)
    report: dict[str, dict] = {}
    sel = set(result.selected_indices)
    rej = set(result.certificates)
    _clause(report, "partition", sel | rej == set(range(len(boxes)))
            and not (sel & rej))

    if result.kind == "vitali":
        # per cell of the family's grid, a selected pair overlaps there
        # C(depth, 2) times; that sum is over t >= 2 of (t - 1) |{depth >= t}|
        grid = result.input._grid
        depth = grid.depth(result.selected_indices)
        bad = sum(((t - 1) * grid.measure(depth >= t)
                   for t in range(2, int(depth.max(initial=0)) + 1)), Fraction(0))
        _clause(report, "selected-disjoint", bad == 0, bad)
        cert_ok = all(
            rec["selected_index"] in sel
            and boxes[rec["selected_index"]].intersects(boxes[i])
            and boxes[rec["selected_index"]].side >= boxes[i].side
            for i, rec in result.certificates.items())
        _clause(report, "rejection-certificates", cert_ok)
        if boxes:
            # the family, then the triple dilates of the selected boxes
            scale, lo, hi, top = result.input._ints
            chosen, k = list(result.selected_indices), len(boxes)
            grid = _dilated_grid(scale, np.concatenate([lo, lo[chosen]]),
                                 np.concatenate([hi, hi[chosen]]), top, Fraction(3), k)
            defect = grid.measure(grid.cover(range(k)) & ~grid.cover(range(k, len(grid.slices))))
            _clause(report, "triple-dilate-cover", defect == 0, defect)
    elif result.kind in _CF_KINDS:
        name, rule, key, value = _CF_KINDS[result.kind]
        if result.kind == "cf-lebesgue":
            grid = result.input._grid
            cells, unit, slices = grid.cells(), grid.scale ** grid.dim, grid.slices
        elif w is None:
            raise ValueError("weighted contract verification needs the weight")
        elif boxes and boxes[0].dim != w.dim:
            raise ValueError("dimension mismatch")
        else:
            slices = [_cube_slices(box_to_grid_cube(q, w.resolution)) for q in boxes]
            cells, unit = w.exact.cells, w.exact.unit
        # each cell labelled with the first selected box that covers it
        first = np.full(cells.shape, len(boxes))
        for j in reversed(result.selected_indices):
            first[slices[j]] = j
        level = result.params[name]
        p, q = level.numerator, level.denominator
        ok_inc, ok_rej = True, True
        worst_inc, worst_rej = None, None
        for i, sl in enumerate(slices):
            part = cells[sl]
            vol, overlap = int(part.sum()), int(part[first[sl] < i].sum())
            # overlap <= (1 - level) vol iff q * overlap <= (q - p) * vol
            keep = q * overlap <= (q - p) * vol
            if i in sel:
                if i != result.selected_indices[0] and not keep:
                    ok_inc = False
                    worst_inc = Fraction(vol - overlap, vol)
                ok_inc &= result.increments.get(i) == value(vol - overlap, unit)
            elif keep:
                ok_rej = False
                worst_rej = Fraction(overlap, vol) if vol else Fraction(0)
            else:
                ok_rej &= result.certificates.get(i) == {
                    "rule": rule, key: value(overlap, unit), "fraction": value(overlap, vol)}
        _clause(report, "selected-increments", ok_inc, worst_inc)
        _clause(report, "rejected-replay", ok_rej, worst_rej)
    elif result.kind == "overlap2":
        # per cell of the family's grid, how many selected intervals cover it
        gap, worst = Fraction(0), 0
        if boxes:
            grid = result.input._grid
            depth = grid.depth(result.selected_indices)
            gap = grid.measure(grid.cover(range(len(boxes))) & (depth == 0))
            worst = int(depth.max())
        _clause(report, "union-preserved", gap == 0, gap)
        _clause(report, "interior-overlap-at-most-2", worst <= 2, worst)
    else:
        raise ValueError(f"unknown selection kind {result.kind!r}")
    report["all"] = {"pass": all(v["pass"] for v in report.values()),
                     "defect": None}
    return report


# minimal_cover_dilation's factors: increasing, so they can be bisected
_DILATION_LADDER = tuple(Fraction(k, 8) for k in range(8, 41))


def minimal_cover_dilation(f: BoxFamily | Sequence[Box],
                           selected: BoxFamily | Sequence[Box]) -> Fraction:
    """Smallest factor t on the ladder k/8, k = 8..40, with union(f) inside
    union(t * selected); raises if no factor on it covers.

    The dilates are concentric, so coverage is monotone in t: the ladder is bisected,
    first on whether the dilates reach every corner of every box (corners lie in
    union(f), and a corner missed at t is missed below t), then by the grid test
    from the first factor that reaches them all.  Both run on the cached integer
    corners of f and of selected, a BoxFamily or a sequence of boxes, rescaled to
    the lcm of their two scales; no Fraction corner is converted again.
    """
    fam, sel = _family(f), _family(selected)
    if not fam:
        return Fraction(1)
    if sel and sel.dim != fam.dim:
        raise ValueError("dimension mismatch")
    # the family, then the selected boxes, on the lcm of their scales with
    # |corner| <= top.  The corners are fit before they are rescaled, to a
    # bound on the two rescaling factors and on 160 top: a corner gap below (at
    # most 4 top) times a ladder term (at most 39), and every dilate's corner
    (f_scale, f_lo, f_hi, f_top), (s_scale, s_lo, s_hi, s_top) = fam._ints, sel._ints
    scale = math.lcm(f_scale, s_scale)
    f_up, s_up = scale // f_scale, scale // s_scale
    top = max(f_top * f_up, s_top * s_up)
    f_lo, f_hi, s_lo, s_hi = _fit(max(160 * top, f_up, s_up), f_lo, f_hi,
                                  s_lo.reshape(-1, fam.dim), s_hi.reshape(-1, fam.dim))
    lo, hi = (np.concatenate([f * f_up, s * s_up]) for f, s in ((f_lo, s_lo), (f_hi, s_hi)))
    k = len(fam)
    # corner x lies in the t-dilate of selected box j iff q |2x - L_j - H_j|_inf <= p (H_j - L_j)
    bits = np.indices((2,) * fam.dim).reshape(fam.dim, -1).T.astype(bool)
    corners = np.where(bits, hi[:k, None], lo[:k, None]).reshape(-1, fam.dim)
    gaps = abs(2 * corners[:, None] - (lo + hi)[None, k:]).max(axis=-1)
    sides = (hi - lo)[k:, 0]

    def reaches_corners(t) -> bool:
        return bool((t.denominator * gaps <= t.numerator * sides).any(axis=1).all())

    def covers(t) -> bool:
        grid = _dilated_grid(scale, lo, hi, top, t, k)
        return not (grid.cover(range(k)) & ~grid.cover(range(k, len(grid.slices)))).any()

    ts = _DILATION_LADDER
    i = bisect_left(ts, True, key=reaches_corners)
    if i < len(ts) and not covers(ts[i]):
        i = bisect_left(ts, True, lo=i + 1, key=covers)
    if i == len(ts):
        raise ValueError("no candidate dilation factor covers the family")
    return ts[i]
