"""The benchmark's three workloads: inputs made from a seed, jobs, and checks.

Every library call goes through a module attribute (`maximal.exact_halo_1d`,
not a name imported from it), so the traced run can replace it.  Input shapes
(resolutions, interval counts, family sizes) are fixed; the seed moves only
positions, exponents' centres and random fields, so the work per job is close
to the same on every seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, NamedTuple

import numpy as np

from tauberian_lab import covering, geometry, maximal, sampling, weights

ALPHAS = tuple(F(2**k - 1, 2**k) for k in range(1, 6))  # 1/2, 3/4, ..., 31/32
DELTAS = (F(1, 8), F(1, 4), F(1, 2), F(3, 4), F(7, 8))
P_VALUES = (2.0, 4.0, 8.0)
RH_CONSTANT = 2.0

# Floats enter the digest rounded to this many significant digits.  A float
# gauge may fall under refinement by at most REL_TOL relative, and a grid
# cell whose float maximal value exceeds alpha by at most REL_TOL relative is
# a rounding tie that the exact halo need not contain.
FLOAT_DIGITS = 9
REL_TOL = 1e-9


@dataclass
class Job:
    name: str
    fn: Callable
    args: tuple

    def run(self):
        return self.fn(*self.args)


class Workload(NamedTuple):
    jobs: Callable[[int], list[Job]]
    warmup: Callable[[int], list[Job]]
    check: Callable[[list[Job], list], dict[str, list[str]]]


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


def canon(x):
    """JSON-ready form: exact values as exact strings, floats rounded."""
    if x is None or isinstance(x, (bool, str, int)):
        return x
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, F):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.{FLOAT_DIGITS}g}"
    if isinstance(x, np.ndarray):
        if x.dtype == bool:
            return [int(i) for i in np.flatnonzero(x)]
        return [canon(v) for v in x.ravel()]
    if isinstance(x, maximal.IntervalSet):
        return canon(x.intervals)
    if isinstance(x, geometry.Box):
        return canon((x.center, x.side))
    if isinstance(x, covering.SelectionResult):
        return canon({"kind": x.kind, "selected": x.selected_indices,
                      "certificates": x.certificates, "increments": x.increments,
                      "equality": x.equality_acceptances})
    if isinstance(x, dict):
        return {json.dumps(canon(k)): canon(v) for k, v in x.items()}
    if isinstance(x, (set, frozenset)):
        return sorted(canon(v) for v in x)
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(x) -> str:
    text = json.dumps(canon(x), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Shared input helpers
# ---------------------------------------------------------------------------


def refine(w: weights.GridWeight) -> weights.GridWeight:
    """The same weight on a grid twice as fine: each cell's mass split equally."""
    v = w.values
    for axis in range(v.ndim):
        v = np.repeat(v, 2, axis=axis)
    return weights.GridWeight(v / 2**w.dim, w.meta)


def grid_runs(rng, n: int, k: int) -> list[tuple[int, int]]:
    """k disjoint, non-touching runs of cells [start, stop) in n cells."""
    cap = (n - (k - 1)) // k
    lengths = rng.integers(1, cap + 1, size=k)
    free = n - int(lengths.sum()) - (k - 1)
    gaps = rng.multinomial(free, [1 / (k + 1)] * (k + 1))
    runs, pos = [], int(gaps[0])
    for i in range(k):
        runs.append((pos, pos + int(lengths[i])))
        pos += int(lengths[i]) + 1 + int(gaps[i + 1])
    return runs


def centred_run(rng, n: int, max_len: int) -> list[tuple[int, int]]:
    """One run with at least its own length free on each side, so that its
    Lebesgue halo at alpha >= 1/2 stays inside [0, 1]."""
    length = int(rng.integers(1, max_len + 1))
    start = int(rng.integers(length, n - 2 * length + 1))
    return [(start, start + length)]


def power_spec(rng, dim: int, n: int, a: float, band=(0.05, 0.95)) -> weights.WeightFamilySpec:
    """|x - x0|^a with the singularity x0 drawn uniformly from band^dim."""
    x0 = tuple(float(c) for c in rng.uniform(*band, size=dim))
    return weights.WeightFamilySpec("power", dim, n, a=a, x0=x0 if dim > 1 else x0[0])


def logsmooth_spec(rng, dim: int, n: int) -> weights.WeightFamilySpec:
    return weights.WeightFamilySpec("log-smooth-random", dim, n,
                                    seed=int(rng.integers(2**31)))


# ---------------------------------------------------------------------------
# tauberian_sweep: certified lower bounds on C_w(alpha) = w(halo) / w(E)
# ---------------------------------------------------------------------------

SWEEP_N = 16          # 1-D weights for the exact engine
SWEEP_REFINE = 8      # grid engine runs on the same weight refined 8x
SWEEP_SET_SIZES = (1, 3, 6)
SWEEP_N2 = 16         # 2-D grid sets
SWEEP_ATOMS = 10
SWEEP_E_ATOMS = 3
GRID_WEIGHT = maximal.MaximalSpec("uncentered", "grid-weight")


def exact_sweep_job(gw, e, mask, fine):
    """One (weight, set) pair over the alpha ladder: exact halo and its
    weighted mass, then the grid superlevel on the refined weight."""
    pw = maximal.PiecewiseWeight1D.from_grid(gw)
    w_e = sum((pw.mass(a, b) for a, b in e.intervals), F(0))
    w_e_grid = maximal.set_mass(mask, fine)
    out = []
    for alpha in ALPHAS:
        halo = maximal.exact_halo_1d(e, alpha, pw)
        w_halo = sum((pw.mass(a, b) for a, b in halo.intervals), F(0))
        level = maximal.superlevel(mask, float(alpha), GRID_WEIGHT, fine)
        out.append({"alpha": alpha, "halo": halo, "ratio": w_halo / w_e,
                    "grid": level,
                    "grid_ratio": maximal.set_mass(level, fine) / w_e_grid})
    return out


def grid_sweep_job(mask, w):
    w_e = maximal.set_mass(mask, w)
    out = []
    for alpha in ALPHAS:
        level = maximal.superlevel(mask, float(alpha), GRID_WEIGHT, w)
        out.append({"alpha": alpha, "grid": level,
                    "grid_ratio": maximal.set_mass(level, w) / w_e})
    return out


def atomic_sweep_job(mu, e_idx):
    mass_e = sum((mu.atoms[i][1] for i in e_idx), F(0))
    out = []
    for alpha in ALPHAS:
        bound = maximal.atomic_maximal_lower(mu, e_idx, alpha)
        out.append({"alpha": alpha, "bound": bound,
                    "ratio": bound.halo_mass_lower / mass_e})
    return out


def _interval_set(runs, n):
    return maximal.IntervalSet([(F(a, n), F(b, n)) for a, b in runs])


def _mask(runs, n, refine_by=1):
    m = np.zeros(n * refine_by, dtype=bool)
    for a, b in runs:
        m[a * refine_by : b * refine_by] = True
    return m


def _random_atoms(rng, count):
    pts = set()
    while len(pts) < count:
        pts.add(tuple(F(int(c), 64) for c in rng.integers(0, 65, size=2)))
    masses = [F(int(m), 8) for m in rng.integers(1, 17, size=count)]
    return maximal.AtomicMeasure(list(zip(sorted(pts), masses)))


def _sweep_inputs(seed, n, set_sizes, n2, n2_weights, n_atomic, atoms):
    jobs = []
    rng = sampling.rng_for(seed, "tauberian_sweep/1d")
    specs = [weights.WeightFamilySpec("constant", 1, n),
             power_spec(rng, 1, n, 1.0), power_spec(rng, 1, n, -0.5),
             logsmooth_spec(rng, 1, n)]
    for spec in specs:
        gw = weights.generate_weight(spec)
        fine = weights.GridWeight(np.repeat(gw.values / SWEEP_REFINE, SWEEP_REFINE))
        for k in set_sizes:
            runs = centred_run(rng, n, n // 4) if k == 1 else grid_runs(rng, n, k)
            jobs.append(Job(f"exact/{spec.family}:{spec.a:g}/k{k}", exact_sweep_job,
                            (gw, _interval_set(runs, n),
                             _mask(runs, n, SWEEP_REFINE), fine)))
    rng = sampling.rng_for(seed, "tauberian_sweep/2d")
    specs2 = [power_spec(rng, 2, n2, 1.0), logsmooth_spec(rng, 2, n2)][:n2_weights]
    for spec in specs2:
        w = weights.generate_weight(spec)
        for k in (2, 4):
            mask = np.zeros((n2, n2), dtype=bool)
            for _ in range(k):
                side = int(rng.integers(1, n2 // 4 + 1))
                i, j = (int(c) for c in rng.integers(0, n2 - side + 1, size=2))
                mask[i : i + side, j : j + side] = True
            jobs.append(Job(f"grid2d/{spec.family}/k{k}", grid_sweep_job, (mask, w)))
    rng = sampling.rng_for(seed, "tauberian_sweep/atomic")
    for i in range(n_atomic):
        mu = _random_atoms(rng, atoms)
        e_idx = sorted(int(c) for c in rng.choice(atoms, size=SWEEP_E_ATOMS, replace=False))
        jobs.append(Job(f"atomic/{i}", atomic_sweep_job, (mu, e_idx)))
    return jobs


def sweep_jobs(seed):
    return _sweep_inputs(seed, SWEEP_N, SWEEP_SET_SIZES, SWEEP_N2, 2, 4, SWEEP_ATOMS)


def sweep_warmup(seed):
    jobs = _sweep_inputs(seed, 8, (1,), 4, 1, 1, 4)
    return [jobs[0], jobs[-2], jobs[-1]]  # exact 1-D, 2-D grid, atomic


def _check_exact(job, out, problems):
    gw, e, mask, fine = job.args
    pw = maximal.PiecewiseWeight1D.from_grid(gw)
    n_fine = fine.resolution
    grid_values = maximal.grid_maximal(mask, GRID_WEIGHT, fine)
    constant = job.name.startswith("exact/constant")
    for rec in out:
        alpha, halo = rec["alpha"], rec["halo"]
        sharp = (2 - alpha) / alpha
        if constant and (rec["ratio"] > sharp
                         or (len(e.intervals) == 1 and rec["ratio"] != sharp)):
            problems.append(f"alpha={alpha}: constant-weight ratio {rec['ratio']} "
                            f"is not the sharp {sharp}")
        if not halo.contains_set(e):
            problems.append(f"alpha={alpha}: halo does not contain E")
        # the grid engine works in floats: a cell whose value exceeds alpha by
        # no more than REL_TOL is a rounding tie and may lie outside the halo
        clear = rec["grid"] & (grid_values > float(alpha) * (1 + REL_TOL))
        cells = maximal.IntervalSet.merge(
            [(F(int(c), n_fine), F(int(c) + 1, n_fine)) for c in np.flatnonzero(clear)])
        if not halo.contains_set(cells):
            problems.append(f"alpha={alpha}: grid superlevel escapes the exact halo")
        for a, b in halo.intervals:
            if not _inside_halo(e, pw, alpha, (a + b) / 2, (b - a) / 1024):
                problems.append(f"alpha={alpha}: M(1_E) <= alpha at the midpoint of "
                                f"halo component [{a}, {b}]")


def _inside_halo(e, pw, alpha, x, eps) -> bool:
    """M(1_E)(x) > alpha, or x is a single point where two halo pieces touch:
    IntervalSet.merge coalesces touching pieces, so a stored component may
    contain isolated points with M = alpha (a gap of positive length fails)."""
    value = maximal.point_eval_1d(e, x, pw)
    if value > alpha:
        return True
    return (value == alpha and maximal.point_eval_1d(e, x - eps, pw) > alpha
            and maximal.point_eval_1d(e, x + eps, pw) > alpha)


def _check_grid(job, out, problems):
    mask = job.args[0]
    for rec in out:
        if np.any(mask & ~rec["grid"]):
            problems.append(f"alpha={rec['alpha']}: grid superlevel misses cells of E")


def _check_atomic(job, out, problems):
    mu, e_idx = job.args
    eset = set(e_idx)
    for rec in out:
        alpha, bound = rec["alpha"], rec["bound"]
        for box, ratio in bound.witnesses:
            half = box.side / 2
            inside = [k for k, (pt, _) in enumerate(mu.atoms)
                      if all(c - half <= x <= c + half for c, x in zip(box.center, pt))]
            mass = sum((mu.atoms[k][1] for k in inside), F(0))
            mass_e = sum((mu.atoms[k][1] for k in inside if k in eset), F(0))
            if not (mass and mass_e / mass == ratio and ratio > alpha
                    and set(inside) <= bound.covered):
                problems.append(f"alpha={alpha}: witness {box} does not recheck")
        covered = sum((mu.atoms[k][1] for k in bound.covered), F(0))
        if covered != bound.halo_mass_lower:
            problems.append(f"alpha={alpha}: covered atoms do not sum to the bound")


def sweep_check(jobs, outputs):
    result = {}
    for job, out in zip(jobs, outputs):
        problems: list[str] = []
        kind = job.name.split("/", 1)[0]
        {"exact": _check_exact, "grid2d": _check_grid, "atomic": _check_atomic}[kind](
            job, out, problems)
        result[job.name] = problems
    return result


# ---------------------------------------------------------------------------
# weight_gauges: every gauge of compute_weight_constants, one call at a time
# ---------------------------------------------------------------------------

GAUGE_N1 = 32
GAUGE_N2 = 8
# Fujii-Wilson prunes its cube sweep, so its cost depends on where the
# singularity sits; drawing x0 from the middle of the domain keeps the work
# per seed within a few percent.
CENTRAL = (0.4, 0.6)
SUP_GAUGES = ("fujii_wilson", "hruscev", "doubling", "gamma")


def gauge_job(w):
    profile = weights.growth_profile(w, weights.DEFAULT_PROFILE_T)
    return {
        "ap": {p: weights.ap_constant(w, p) for p in P_VALUES},
        "fujii_wilson": weights.fujii_wilson(w),
        "hruscev": weights.hruscev_constant(w),
        "doubling": weights.doubling_constant(w),
        "rh_epsilon": weights.reverse_holder_exponent(w, RH_CONSTANT),
        "gamma": weights.sidelength_growth_exponent(w),
        "profile": profile,
        "fit": weights.fit_growth_exponent(profile),
    }


def _gauge_inputs(seed, n1, n2):
    rng = sampling.rng_for(seed, "weight_gauges")
    specs = [power_spec(rng, 1, n1, 1.0, CENTRAL), power_spec(rng, 1, n1, 2.0, CENTRAL),
             power_spec(rng, 1, n1, -0.5, CENTRAL), logsmooth_spec(rng, 1, n1),
             power_spec(rng, 2, n2, 1.0, CENTRAL), power_spec(rng, 2, n2, -1.0, CENTRAL)]
    jobs = []
    for spec in specs:
        w = weights.generate_weight(spec)
        label = f"{spec.family}:{spec.a:g}/{spec.dim}d"
        jobs.append(Job(f"{label}@N", gauge_job, (w,)))
        jobs.append(Job(f"{label}@2N", gauge_job, (refine(w),)))
    return jobs


def gauge_jobs(seed):
    return _gauge_inputs(seed, GAUGE_N1, GAUGE_N2)


def gauge_warmup(seed):
    # 1-D N=16 is the smallest grid whose growth profile can be fitted
    jobs = _gauge_inputs(seed, 16, 8)
    return [jobs[0], jobs[8]]  # a 1-D and a 2-D weight


def _sup_values(out):
    vals = {f"ap{p:g}": v for p, v in out["ap"].items()}
    vals.update({g: out[g] for g in SUP_GAUGES})
    vals.update({f"profile({t:g})": v for t, v in out["profile"].items()})
    return vals


def gauge_check(jobs, outputs):
    """Under the 2N cell split every sup-type gauge may only grow and the
    reverse Holder exponent may only shrink."""
    by_name = dict(zip((j.name for j in jobs), outputs))
    result = {j.name: [] for j in jobs}
    for job in jobs:
        if not job.name.endswith("@N"):
            continue
        fine_name = job.name[:-2] + "@2N"
        coarse, fine = by_name[job.name], by_name[fine_name]
        fine_vals = _sup_values(fine)
        for gauge, value in _sup_values(coarse).items():
            if fine_vals[gauge] < value * (1 - REL_TOL):
                result[fine_name].append(f"{gauge} fell under refinement: "
                                         f"{value!r} -> {fine_vals[gauge]!r}")
        if fine["rh_epsilon"] > coarse["rh_epsilon"]:
            result[fine_name].append("reverse Holder exponent grew under refinement")
    return result


# ---------------------------------------------------------------------------
# cube_selection: fragment geometry and the selectors
# ---------------------------------------------------------------------------

CUBE_FAMILIES = ((2, 16, 16), (3, 12, 16))  # (dim, boxes, families)
CUBE_GRID = (32, 16, 8)                    # (N, cubes, families) on a power weight
CUBE_INTERVALS = (48, 3)                   # (intervals, lists)
IDENTITY_DELTA = F(1, 2)


def family_job(f, w=None):
    out = {"cf": [], "cf_weighted": [], "excess": []}
    for delta in DELTAS:
        out["cf"].append(covering.cf_select_lebesgue(f, delta))
        out["excess"].append(geometry.enlargement_excess(f, delta))
        if w is not None:
            out["cf_weighted"].append(covering.cf_select_weighted(f, w, delta))
    vit = covering.vitali_select(f)
    out["vitali"] = vit
    out["satellites"] = covering.satellite_decompose(f)
    out["cover_dilation"] = covering.minimal_cover_dilation(f, vit.selected)
    out["identity"] = geometry.check_dilation_identity(f, IDENTITY_DELTA)
    return out


def interval_job(boxes):
    return {"overlap2": covering.overlap2_select_1d(boxes)}


def _cube_inputs(seed, families, grid, intervals):
    rng = sampling.rng_for(seed, "cube_selection")
    jobs = []
    for dim, count, reps in families:
        for r in range(reps):
            jobs.append(Job(f"random{dim}d/{r}", family_job,
                            (sampling.random_family(rng, dim, count),)))
    n, count, reps = grid
    w = weights.generate_weight(power_spec(rng, 2, n, 1.0))
    for r in range(reps):
        jobs.append(Job(f"grid2d/{r}", family_job,
                        (sampling.random_grid_cube_family(rng, n, 2, count), w)))
    count, reps = intervals
    for r in range(reps):
        fam = sampling.random_family(rng, 1, count, decreasing=False)
        jobs.append(Job(f"intervals/{r}", interval_job, (list(fam),)))
    return jobs


def cube_jobs(seed):
    return _cube_inputs(seed, CUBE_FAMILIES, CUBE_GRID, CUBE_INTERVALS)


def cube_warmup(seed):
    return _cube_inputs(seed, ((2, 6, 1), (3, 4, 1)), (8, 6, 1), (8, 1))


def cube_check(jobs, outputs):
    result = {}
    for job, out in zip(jobs, outputs):
        problems: list[str] = []
        w = job.args[1] if len(job.args) > 1 else None
        selections = ([out["vitali"]] + out["cf"] + out["cf_weighted"]
                      if "vitali" in out else [out["overlap2"]])
        for sel in selections:
            report = covering.verify_selection_contract(sel, w)
            if not report["all"]["pass"]:
                failed = [k for k, v in report.items() if not v["pass"]]
                problems.append(f"{sel.kind} {sel.params}: contract fails {failed}")
        if "identity" in out and not out["identity"].holds:
            problems.append(f"dilation identity defect {out['identity'].defect}")
        excess = out.get("excess", [])
        if any(b < a for a, b in zip(excess, excess[1:])):
            problems.append("enlargement excess decreases in delta")
        result[job.name] = problems
    return result


WORKLOADS = {
    "tauberian_sweep": Workload(sweep_jobs, sweep_warmup, sweep_check),
    "weight_gauges": Workload(gauge_jobs, gauge_warmup, gauge_check),
    "cube_selection": Workload(cube_jobs, cube_warmup, cube_check),
}
