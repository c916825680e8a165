"""Greedy cube-selection procedures with verifiable certificates.

Each selector returns a SelectionResult that records, for every rejected
box, the rule that rejected it, so an independent pass can replay the whole
run and re-check every contract clause exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InvariantViolation, OrderingViolation, UnsupportedGeometry
from .geometry import (
    ORDER_DECREASING,
    Box,
    BoxFamily,
    BoxRegion,
    dilate,
    _dilated_grid,
    _Grid,
    _int_corners,
    _to_rat,
    is_satellite,
)
from .maximal import IntervalSet
from .weights import GridCube, GridWeight


@dataclass(frozen=True)
class SelectionResult:
    kind: str
    input: BoxFamily
    order: tuple[int, ...]
    selected_indices: tuple[int, ...]
    certificates: dict[int, dict] = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    increments: dict[int, Fraction | float] = field(default_factory=dict)
    equality_acceptances: tuple[int, ...] = ()

    @property
    def selected(self) -> BoxFamily:
        return BoxFamily([self.input[i] for i in self.selected_indices])

    @property
    def rejected(self) -> BoxFamily:
        return BoxFamily([self.input[i] for i in sorted(self.certificates)])


# ---------------------------------------------------------------------------
# Vitali
# ---------------------------------------------------------------------------


def vitali_select(f: BoxFamily | Sequence[Box]) -> SelectionResult:
    """Greedy disjoint subfamily; every rejected box meets a selected box of
    at least its sidelength, so triple dilates of the selection cover the
    whole union."""
    boxes = list(f)
    fam = f if isinstance(f, BoxFamily) else BoxFamily(boxes)
    order = sorted(range(len(boxes)), key=lambda i: -boxes[i].side)
    selected: list[int] = []
    certs: dict[int, dict] = {}
    for i in order:
        hit = None
        for j in selected:
            if boxes[j].intersects(boxes[i]):
                hit = j
                break
        if hit is None:
            selected.append(i)
        else:
            certs[i] = {"rule": "intersects-selected", "selected_index": hit}
    return SelectionResult("vitali", fam, tuple(order), tuple(selected), certs)


# ---------------------------------------------------------------------------
# Cordoba-Fefferman, Lebesgue overlap
# ---------------------------------------------------------------------------


def _require_decreasing(f: BoxFamily) -> None:
    if f.ordering_tag != ORDER_DECREASING:
        raise OrderingViolation("selection requires a decreasing-sidelength family")


def cf_select_lebesgue(f: BoxFamily, delta) -> SelectionResult:
    """Keep a cube iff at most a (1-delta) fraction of it is already covered.

    Every kept cube after the first contributes new measure >= delta * |Q|;
    every rejected cube was covered above the (1-delta) level when visited.
    """
    delta = _to_rat(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    _require_decreasing(f)
    boxes = list(f)
    selected: list[int] = []
    certs: dict[int, dict] = {}
    incs: dict[int, Fraction] = {}
    grid = _Grid(*_int_corners([(b.lo, b.hi) for b in boxes]))
    covered = np.zeros(grid.shape, dtype=bool)
    equality: list[int] = []
    for i, q in enumerate(boxes):
        vol = q.volume()
        sl = grid.slices[i]
        new = grid.measure(~covered[sl], sl)
        overlap = vol - new
        if overlap <= (1 - delta) * vol:
            if overlap == (1 - delta) * vol and selected:
                equality.append(i)
            selected.append(i)
            incs[i] = new
            covered[sl] = True
        else:
            certs[i] = {
                "rule": "overlap-fraction",
                "overlap": overlap,
                "fraction": overlap / vol,
            }
    return SelectionResult(
        "cf-lebesgue", f, tuple(range(len(boxes))), tuple(selected), certs,
        {"delta": delta}, incs, tuple(equality))


# ---------------------------------------------------------------------------
# Cordoba-Fefferman, weighted overlap (grid cubes only)
# ---------------------------------------------------------------------------


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
    q = GridCube(tuple(corner), int(side))
    if any(c < 0 or c + q.side > n for c in q.corner):
        raise UnsupportedGeometry("box escapes the grid domain")
    return q


def grid_cube_to_box(q: GridCube, n: int) -> Box:
    center = tuple(Fraction(2 * c + q.side, 2 * n) for c in q.corner)
    return Box(center, Fraction(q.side, n))


def _cube_slices(q: GridCube):
    return tuple(slice(c, c + q.side) for c in q.corner)


def cf_select_weighted(f: BoxFamily, w: GridWeight, xi) -> SelectionResult:
    """Weighted variant: keep a cube iff the already-covered part carries at
    most a (1-xi) fraction of its w-mass.  Exact on grid cubes; acceptance
    with exact equality is allowed and flagged."""
    xi = _to_rat(xi)
    if not 0 < xi < 1:
        raise ValueError("xi must lie in (0, 1)")
    _require_decreasing(f)
    boxes = list(f)
    cubes = [box_to_grid_cube(b, w.resolution) for b in boxes]
    covered = np.zeros(w.values.shape, dtype=bool)
    xif = float(xi)
    selected: list[int] = []
    certs: dict[int, dict] = {}
    incs: dict[int, float] = {}
    equality: list[int] = []
    for i, q in enumerate(cubes):
        sl = _cube_slices(q)
        vals = w.values[sl]
        mask = covered[sl]
        mass_q = float(vals.sum())
        overlap = float(vals[mask].sum())
        if overlap <= (1 - xif) * mass_q:
            if overlap == (1 - xif) * mass_q and selected:
                equality.append(i)
            selected.append(i)
            incs[i] = mass_q - overlap
            covered[sl] = True
        else:
            certs[i] = {
                "rule": "weighted-overlap",
                "overlap_mass": overlap,
                "fraction": overlap / mass_q if mass_q else float("inf"),
            }
    return SelectionResult(
        "cf-weighted", f, tuple(range(len(boxes))), tuple(selected), certs,
        {"xi": xi}, incs, tuple(equality))


# ---------------------------------------------------------------------------
# Satellite decomposition
# ---------------------------------------------------------------------------


def satellite_decompose(f: BoxFamily | Sequence[Box]) -> dict[int, list[int]]:
    """Group the family around its Vitali centers: a box joins every center
    it intersects whose sidelength is at least its own.  A box may appear in
    several groups; each group is a satellite configuration."""
    boxes = list(f)
    res = vitali_select(f)
    groups: dict[int, list[int]] = {c: [c] for c in res.selected_indices}
    for i, b in enumerate(boxes):
        for c in res.selected_indices:
            if c == i:
                continue
            if b.side <= boxes[c].side and b.intersects(boxes[c]):
                groups[c].append(i)
    assigned = set()
    for c, members in groups.items():
        assigned.update(members)
        fam = BoxFamily([boxes[c]] + [boxes[i] for i in members if i != c])
        if not is_satellite(fam, 0):
            raise InvariantViolation("group is not a satellite configuration")
    if assigned != set(range(len(boxes))):
        raise InvariantViolation("satellite groups lost a box")
    return groups


# ---------------------------------------------------------------------------
# One-dimensional overlap-2 selection
# ---------------------------------------------------------------------------


def _as_interval_box(iv) -> Box:
    if isinstance(iv, Box):
        if iv.dim != 1:
            raise UnsupportedGeometry("overlap-2 selection is one-dimensional")
        return iv
    a, b = _to_rat(iv[0]), _to_rat(iv[1])
    return Box(((a + b) / 2,), b - a)


def overlap2_select_1d(intervals: Iterable) -> SelectionResult:
    """Subfamily with the same union and pointwise overlap at most 2 away
    from finitely many touching points: greedy farthest-reach chains."""
    boxes = [_as_interval_box(iv) for iv in intervals]
    fam = BoxFamily(boxes)
    items = sorted(range(len(boxes)),
                   key=lambda i: (boxes[i].lo[0], -boxes[i].hi[0]))
    selected: list[int] = []
    certs: dict[int, dict] = {}
    pos = 0
    while pos < len(items):
        i0 = items[pos]
        comp_end = boxes[i0].hi[0]
        selected.append(i0)
        pos += 1
        while True:
            # among intervals starting inside the current coverage, the one
            # reaching farthest; the rest that end inside it are redundant
            best = None
            while pos < len(items) and boxes[items[pos]].lo[0] <= comp_end:
                cand = items[pos]
                if boxes[cand].hi[0] <= comp_end:
                    certs[cand] = {"rule": "covered", "end": comp_end}
                elif best is None or boxes[cand].hi[0] > boxes[best].hi[0]:
                    if best is not None:
                        certs[best] = {"rule": "superseded",
                                       "by_reach": boxes[cand].hi[0]}
                    best = cand
                else:
                    certs[cand] = {"rule": "superseded",
                                   "by_reach": boxes[best].hi[0]}
                pos += 1
            if best is None:
                break
            selected.append(best)
            comp_end = boxes[best].hi[0]
    return SelectionResult("overlap2", fam, tuple(items), tuple(selected), certs)


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
    the Lebesgue replay compares the stored increments and certificates exactly.
    """
    boxes = list(result.input)
    report: dict[str, dict] = {}
    sel = set(result.selected_indices)
    rej = set(result.certificates)
    _clause(report, "partition", sel | rej == set(range(len(boxes)))
            and not (sel & rej))

    if result.kind == "vitali":
        bad = Fraction(0)
        for a_pos, i in enumerate(result.selected_indices):
            for j in result.selected_indices[a_pos + 1 :]:
                inter = _pair_overlap_volume(boxes[i], boxes[j])
                bad += inter
        _clause(report, "selected-disjoint", bad == 0, bad)
        cert_ok = all(
            rec["selected_index"] in sel
            and boxes[rec["selected_index"]].intersects(boxes[i])
            and boxes[rec["selected_index"]].side >= boxes[i].side
            for i, rec in result.certificates.items())
        _clause(report, "rejection-certificates", cert_ok)
        if boxes:
            whole = BoxRegion.from_boxes(boxes)
            cover = BoxRegion.from_boxes(
                [dilate(boxes[i], 3) for i in result.selected_indices])
            defect = whole.subtract(cover).measure()
            _clause(report, "triple-dilate-cover", defect == 0, defect)
    elif result.kind in ("cf-lebesgue", "cf-weighted"):
        level = result.params["delta" if result.kind == "cf-lebesgue" else "xi"]
        ok_inc, ok_rej = True, True
        worst_inc, worst_rej = None, None
        if result.kind == "cf-lebesgue":
            region = BoxRegion.empty(boxes[0].dim) if boxes else None
            for i, q in enumerate(boxes):
                vol, cube = q.volume(), BoxRegion.from_boxes([q])
                new = cube.subtract(region).measure()
                if i in sel:
                    if i != result.selected_indices[0] and new < level * vol:
                        ok_inc = False
                        worst_inc = float(new / vol)
                    ok_inc &= result.increments.get(i) == new
                    region = region.union(cube)
                else:
                    if vol - new <= (1 - level) * vol:
                        ok_rej = False
                        worst_rej = float((vol - new) / vol)
                    cert = result.certificates.get(i, {})
                    ok_rej &= ((cert.get("overlap"), cert.get("fraction"))
                               == (vol - new, (vol - new) / vol))
        else:
            if w is None:
                raise ValueError("weighted contract verification needs the weight")
            covered = np.zeros(w.values.shape, dtype=bool)
            lv = float(level)
            for i, q in enumerate(boxes):
                gq = box_to_grid_cube(q, w.resolution)
                sl = _cube_slices(gq)
                vals = w.values[sl]
                mass_q = float(vals.sum())
                new = mass_q - float(vals[covered[sl]].sum())
                if i in sel:
                    if i != result.selected_indices[0] and new < lv * mass_q:
                        ok_inc = False
                        worst_inc = new / mass_q if mass_q else 0.0
                    covered[sl] = True
                else:
                    if mass_q - new <= (1 - lv) * mass_q:
                        ok_rej = False
                        worst_rej = (mass_q - new) / mass_q if mass_q else 0.0
        _clause(report, "selected-increments", ok_inc, worst_inc)
        _clause(report, "rejected-replay", ok_rej, worst_rej)
    elif result.kind == "overlap2":
        pairs_all = [(b.lo[0], b.hi[0]) for b in boxes]
        pairs_sel = [(boxes[i].lo[0], boxes[i].hi[0])
                     for i in result.selected_indices]
        union_all = IntervalSet.merge(pairs_all)
        union_sel = IntervalSet.merge(pairs_sel) if pairs_sel else None
        same = union_sel is not None and union_all.intervals == union_sel.intervals
        _clause(report, "union-preserved", same,
                None if same else float(union_all.measure()
                                        - (union_sel.measure() if union_sel else 0)))
        cuts = sorted({x for p in pairs_sel for x in p})
        worst = 0
        for a, b in zip(cuts, cuts[1:]):
            mid = (a + b) / 2
            worst = max(worst, sum(1 for lo, hi in pairs_sel if lo < mid < hi))
        _clause(report, "interior-overlap-at-most-2", worst <= 2, worst)
    else:
        raise ValueError(f"unknown selection kind {result.kind!r}")
    report["all"] = {"pass": all(v["pass"] for v in report.values()),
                     "defect": None}
    return report


def _pair_overlap_volume(a: Box, b: Box) -> Fraction:
    v = Fraction(1)
    for al, ah, bl, bh in zip(a.lo, a.hi, b.lo, b.hi):
        seg = min(ah, bh) - max(al, bl)
        if seg <= 0:
            return Fraction(0)
        v *= seg
    return v


def minimal_cover_dilation(f: BoxFamily | Sequence[Box], selected: Sequence[Box],
                           candidates: Sequence[Fraction] | None = None) -> Fraction:
    """Smallest candidate factor t with union(f) inside union(t * selected).

    Factors default to the ladder k/8 for k = 8..40; raises if none covers.
    The dilates are concentric, so coverage is monotone in t: candidates are bisected.
    """
    boxes = list(f)
    if not boxes:
        return Fraction(1)
    if candidates is None:
        candidates = [Fraction(k, 8) for k in range(8, 41)]
    ts = sorted(candidates)
    if any(_to_rat(t) <= 0 for t in ts):
        raise ValueError("dilation factor must be positive")
    k, n = len(boxes), len(boxes) + len(selected)
    corners = _int_corners([(b.lo, b.hi) for b in [*boxes, *selected]])

    def covers(t) -> bool:
        grid = _dilated_grid(*corners, _to_rat(t), k)
        return not (grid.cover(range(k)) & ~grid.cover(range(n, len(grid.slices)))).any()

    i = bisect_left(ts, True, key=covers)
    if i == len(ts):
        raise ValueError("no candidate dilation factor covers the family")
    return ts[i]
