"""Spans and work counts recorded from outside the library.

A Tracer patches the public functions of the library's layer modules, and
the methods of its region and weight classes, with wrappers that record one
span per call: name, start, end, parent span and job id.  Counts of work are
computed from each call's inputs and return value, never from library
internals, so they repeat exactly from run to run.  Spans stay in memory
until the run ends.

Value types (Box, BoxFamily, GridCube, AtomicMeasure, MaximalSpec) are not
wrapped: they are called once per box or atom, and a span on each would
swamp the timings of the layers that use them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict

PACKAGE = "tauberian_lab"
LAYERS = ("geometry", "maximal", "gridops", "weights", "covering")
# the one per-layer function that only the output checks call
VERIFIER = "covering.verify_selection_contract"
WRAPPED_CLASSES = {
    "weights": {"GridWeight": ("__init__", "cube_mass", "cube_volume",
                               "cube_average", "window_sums", "cubes")},
    "geometry": {"BoxRegion": ("empty", "from_boxes", "from_rational_corners",
                               "rational_frags", "measure", "contains_point",
                               "union", "subtract", "dilate_about")},
    "maximal": {"IntervalSet": ("merge", "measure", "contains_point",
                                "contains_set", "union", "breakpoints"),
                "PiecewiseWeight1D": ("mass", "from_grid")},
}

# span record fields
NAME, START, END, PARENT, JOB, COUNTS = range(6)

# derived ratios: metric key -> (numerator key, denominator keys)
RATIOS = {
    "witness_ratio": ("witnesses", ("candidates",)),
    "accept_ratio": ("accepted", ("accepted", "rejected")),
}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_exact_halo(args, kwargs, result):
    e, weight = args[0], _arg(args, kwargs, 2, "weight")
    pts = {x for iv in e.intervals for x in iv}
    if weight is not None:
        pts |= set(weight.breakpoints)
    b = len(pts)
    return {"breakpoints": b, "anchored_pairs": b * (b - 1) // 2,
            "halo_intervals": len(result.intervals)}


def _count_grid_maximal(args, kwargs, result):
    # every side 1..N: the workloads use only the uncentered variant
    n, d = result.shape[0], result.ndim
    return {"windows": sum((n - s + 1) ** d for s in range(1, n + 1))}


def _count_trailing_max(args, kwargs, result):
    return {"elements": int(result.size) * int(_arg(args, kwargs, 1, "window"))}


def _count_atomic(args, kwargs, result):
    out = {"witnesses": len(result.witnesses), "covered_atoms": len(result.covered)}
    cands = _arg(args, kwargs, 3, "candidate_boxes")
    if cands is not None:
        out["candidates"] = len(cands)
    return out


def _count_fw(args, kwargs, result):
    w = args[0]
    n = w.resolution
    return {"cubes": sum((n - s + 1) ** w.dim for s in range(1, n + 1))}


def _count_frags(args, kwargs, result):
    return {"frags_out": len(result.frags)}


def _count_selection(args, kwargs, result):
    return {"accepted": len(result.selected_indices),
            "rejected": len(result.certificates)}


# span name -> hook(args, kwargs, result) -> {metric key or full name: count}
# A key without a dot is filed under the span's own name.
COUNT_HOOKS = {
    "maximal.exact_halo_1d": _count_exact_halo,
    "maximal.grid_maximal": _count_grid_maximal,
    "gridops.trailing_max": _count_trailing_max,
    "maximal.atomic_maximal_lower": _count_atomic,
    "maximal.default_atomic_candidates":
        lambda a, k, r: {"maximal.atomic_maximal_lower.candidates": len(r)},
    "weights.fujii_wilson": _count_fw,
    "geometry.BoxRegion.from_boxes": _count_frags,
    "geometry.BoxRegion.union": _count_frags,
    "geometry.BoxRegion.subtract": _count_frags,
    "covering.cf_select_lebesgue": _count_selection,
    "covering.cf_select_weighted": _count_selection,
}


class Tracer:
    """Records spans while installed; restores the library on uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name):
        hook = COUNT_HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.job, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if hook is not None:
                rec[COUNTS] = {(k if "." in k else f"{name}.{k}"): v
                               for k, v in hook(args, kwargs, result).items()}
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Wrap every public function bound in a layer module (also names a
        module imported from another layer) and the listed class methods."""
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(PACKAGE + "."):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__qualname__}"
                self._patch(mod, attr, self._wrap(obj, name))
            for cls_name, methods in WRAPPED_CLASSES.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    label = "init" if meth == "__init__" else meth
                    name = f"{layer}.{cls_name}.{label}"
                    if isinstance(raw, staticmethod):
                        self._patch(cls, meth, staticmethod(self._wrap(raw.__func__, name)))
                    else:
                        self._patch(cls, meth, self._wrap(raw, name))
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- output -------------------------------------------------------------

    def write(self, path, header: dict) -> None:
        """JSON lines: the header, then one [name, start, end, parent, job,
        counts] per span, times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for s in self.spans:
                f.write(json.dumps([s[NAME], round(s[START] - t0, 7), round(s[END] - t0, 7),
                                    s[PARENT], s[JOB], s[COUNTS]]) + "\n")


# ---------------------------------------------------------------------------
# Arithmetic on recorded spans
# ---------------------------------------------------------------------------


def _covered_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return [s[END] - s[START] - _covered_length(children.get(i, ()))
            for i, s in enumerate(spans)]


def additive_metrics(spans, keep, scale) -> dict[str, float]:
    """`<span>.self_s`, `<span>.calls` and every count, summed over the spans
    for which keep(span) holds.  Each self time is multiplied by
    scale[job id], which turns it into reference seconds."""
    out: dict[str, float] = defaultdict(float)
    for s, self_s in zip(spans, self_times(spans)):
        if not keep(s):
            continue
        out[f"{s[NAME]}.self_s"] += self_s * scale[s[JOB]]
        out[f"{s[NAME]}.calls"] += 1
        for k, v in (s[COUNTS] or {}).items():
            out[k] += v
    return out


def combine(fixed: list[dict], repeated: list[dict]) -> dict[str, float]:
    """Sum of the fixed phases plus the per-metric median of the repeated ones."""
    keys = set().union(*fixed, *repeated)
    return {k: sum(d.get(k, 0.0) for d in fixed)
            + (statistics.median(d.get(k, 0.0) for d in repeated) if repeated else 0.0)
            for k in keys}


def phase_table(spans, scale) -> dict[str, float]:
    """Input generation + the median traced pass + the verifier's spans from
    the checks.  The rest of the checks' work is left out, as it is of
    wall_s.  scale maps each job id ("generate", "check", "pass<p>/<i>") to
    its factor from seconds to reference seconds."""
    passes = sorted({job.split("/")[0] for job in scale if job.startswith("pass")})
    fixed = [additive_metrics(spans, lambda s: s[JOB] == "generate", scale),
             additive_metrics(spans, lambda s: s[JOB] == "check" and s[NAME] == VERIFIER,
                              scale)]
    repeated = [additive_metrics(spans, lambda s, p=p: (s[JOB] or "").startswith(p + "/"),
                                 scale)
                for p in passes]
    return combine(fixed, repeated)


def metric_value(table: dict[str, float], name: str) -> float:
    """Look up a per-layer metric; ratios are formed from their summed parts."""
    span, key = name.rsplit(".", 1)
    if key in RATIOS:
        num, dens = RATIOS[key]
        den = sum(table.get(f"{span}.{d}", 0.0) for d in dens)
        return table.get(f"{span}.{num}", 0.0) / den if den else 0.0
    return table.get(name, 0.0)
