"""Grid-discretized weights on [0,1)^n and their constants.

A GridWeight stores cell masses (integrals of the weight over grid cells),
not point samples, so w(Q) is exact for grid cubes and refining the grid
never loses mass.  Cube masses are sums of cells by additions only
(`gridops.side_table`), so each is exact to rounding relative to itself, and
a cube with no positive cell has mass exactly 0.  A weight caches that table;
the A_p, Hruscev and reverse-Holder gauges add at most two tables to it.

All cube suprema run over grid-aligned cubes inside the domain; every
constant here is therefore a lower approximation of its continuous
counterpart, nondecreasing under the refinement N -> 2N (gamma only at
power-of-two N; see sidelength_growth_exponent).

Supported grids: 1-D and 2-D, resolution N cells per axis.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import gridops
from .errors import BudgetExceeded, DegenerateFit

FW_CAP = {1: 1024, 2: 64}


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridCube:
    """Axis-aligned cube of whole grid cells: [corner/N, (corner+side)/N]^n."""

    corner: tuple[int, ...]
    side: int

    def __post_init__(self):
        if self.side < 1:
            raise ValueError("cube side must be >= 1 cell")
        if any(c < 0 for c in self.corner):
            raise ValueError("cube corner must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.corner)


def _require_finite(masses: np.ndarray) -> None:
    if not np.isfinite(masses).all():
        bad = "NaN" if np.isnan(masses).any() else "inf"
        raise ValueError(f"cell masses must be finite, got {bad}")


class GridWeight:
    """Nonnegative cell masses on an N^n grid over [0,1)^n and the masses of
    all its grid cubes."""

    def __init__(self, values: np.ndarray, meta: dict | None = None):
        values = np.asarray(values, dtype=float)
        self.resolution = gridops.resolution(values)
        _require_finite(values)
        if np.any(values < 0):
            raise ValueError("cell masses must be nonnegative")
        if not values.sum() > 0:
            raise ValueError("total mass must be positive")
        self.values = values
        self.dim = values.ndim
        self.meta = dict(meta or {})

    # -- basic queries -------------------------------------------------------

    @property
    def cell_volume(self) -> float:
        return (1.0 / self.resolution) ** self.dim

    @property
    def density(self) -> np.ndarray:
        return self.values / self.cell_volume

    @property
    def total_mass(self) -> float:
        return float(self.values.sum())

    def _check_cube(self, q: GridCube) -> None:
        if q.dim != self.dim:
            raise ValueError("cube dimension does not match grid")
        if any(c + q.side > self.resolution for c in q.corner):
            raise ValueError("cube exceeds the grid")

    @functools.cached_property
    def table(self) -> gridops.SideTable:
        """The masses of all grid cubes (`gridops.side_table`), read-only."""
        table = gridops.side_table(self.values)
        for a in (table.flat, *table.sides):
            a.flags.writeable = False
        return table

    def cube_mass(self, q: GridCube) -> float:
        self._check_cube(q)
        return float(self.table.sides[q.side - 1][q.corner])

    def cube_volume(self, q: GridCube) -> float:
        return (q.side / self.resolution) ** self.dim

    def cube_average(self, q: GridCube) -> float:
        return self.cube_mass(q) / self.cube_volume(q)

    def window_sums(self, s: int) -> np.ndarray:
        """The read-only masses of all side-s cubes, `table.sides[s - 1]`, 1 <= s <= N:
        within `gridops.side_table`'s error bound, 0.0 on cubes with no positive cell."""
        if not 1 <= s <= self.resolution:
            raise ValueError(f"cube side must lie in 1..{self.resolution}, got {s}")
        return self.table.sides[s - 1]

    def cubes(self):
        """All grid cubes, as (corner tuple, side) pairs; O(N^2) or O(N^3)."""
        n = self.resolution
        for s in range(1, n + 1):
            for corner in itertools.product(range(n - s + 1), repeat=self.dim):
                yield GridCube(corner, s)


# ---------------------------------------------------------------------------
# Weight generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightFamilySpec:
    """Recipe for a test-corpus weight; deterministic for fixed fields."""

    family: str
    dim: int
    resolution: int
    a: float = 0.0
    x0: tuple[float, ...] | float = 0.0
    levels: tuple[float, ...] = (1.0, float(np.e) ** 2)
    seed: int = 0
    smoothness: float = 4.0

    def label(self) -> str:
        if self.family == "power":
            return f"power(a={self.a:g})_{self.dim}d_N{self.resolution}"
        if self.family == "log-smooth-random":
            return f"logsmooth(seed={self.seed})_{self.dim}d_N{self.resolution}"
        return f"{self.family}_{self.dim}d_N{self.resolution}"


def _power_masses_1d(n: int, a: float, x0: float) -> np.ndarray:
    # exact cell integrals of |x-x0|^a via the signed antiderivative
    def anti(t: float) -> float:
        d = t - x0
        return math.copysign(abs(d) ** (a + 1), d) / (a + 1)

    edges = np.arange(n + 1) / n
    vals = np.array([anti(t) for t in edges])
    return np.diff(vals)


def generate_weight(spec: WeightFamilySpec) -> GridWeight:
    n, d = spec.resolution, spec.dim
    if d not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    if n < 1:
        raise ValueError("resolution must be >= 1")
    meta = {"family": spec.family, "seed": spec.seed, "label": spec.label()}
    cellvol = (1.0 / n) ** d

    if spec.family == "constant":
        values = np.full((n,) * d, cellvol)
    elif spec.family == "power":
        if spec.a <= -d:
            raise ValueError("integrability violation: power exponent must exceed -dim")
        x0 = spec.x0 if isinstance(spec.x0, tuple) else (float(spec.x0),) * d
        if d == 1:
            values = _power_masses_1d(n, spec.a, x0[0])
        else:
            # no elementary closed form off-axis: midpoint density times area
            mids = (np.arange(n) + 0.5) / n
            dx = mids[:, None] - x0[0]
            dy = mids[None, :] - x0[1]
            r2 = dx * dx + dy * dy
            values = r2 ** (spec.a / 2.0) * cellvol
    elif spec.family == "checkerboard":
        levels = np.asarray(spec.levels, dtype=float)
        if np.any(levels <= 0):
            raise ValueError("checkerboard levels must be positive")
        idx = np.arange(n)
        if d == 1:
            dens = levels[idx % len(levels)]
        else:
            dens = levels[(idx[:, None] + idx[None, :]) % len(levels)]
        values = dens * cellvol
    elif spec.family == "log-smooth-random":
        rng = np.random.default_rng(spec.seed)
        field_vals = rng.standard_normal((n,) * d)
        width = max(1, int(round(spec.smoothness)))
        kernel = np.exp(-0.5 * (np.arange(-3 * width, 3 * width + 1) / width) ** 2)
        kernel /= kernel.sum()

        def smooth_axis(arr, axis):
            pad = len(kernel) // 2
            padded = np.take(arr, np.clip(np.arange(-pad, arr.shape[axis] + pad),
                                          0, arr.shape[axis] - 1), axis=axis)
            return np.apply_along_axis(
                lambda v: np.convolve(v, kernel, mode="valid"), axis, padded)

        for ax in range(d):
            field_vals = smooth_axis(field_vals, ax)
        dens = np.exp(field_vals)
        values = dens * cellvol
        values /= values.sum()
    else:
        raise ValueError(f"unknown weight family {spec.family!r}")
    return GridWeight(values, meta)


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------


def _require_positive_cells(w: GridWeight, what: str) -> None:
    if np.any(w.values <= 0):
        raise ValueError(f"{what} undefined: weight has zero-mass cells")


def _cube_averages(w: GridWeight, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The averages over every grid cube of w and of the finite cell
    integrals `cells`, as two fresh arrays laid out like `w.table.flat`."""
    _require_finite(cells)
    avg, sides = gridops.side_table(cells)
    n = w.resolution
    vol = np.repeat([(s / n) ** w.dim for s in range(1, n + 1)], [a.size for a in sides])
    avg /= vol
    return np.divide(w.table.flat, vol, out=vol), avg


def ap_constant(w: GridWeight, p: float) -> float:
    """Muckenhoupt A_p gauge: sup over grid cubes of avg(w) * avg(w^{-1/(p-1)})^(p-1)."""
    if not 1 < p < math.inf:
        raise ValueError(f"p must be a finite number exceeding 1, got {p}")
    _require_positive_cells(w, "dual weight")
    with np.errstate(over="ignore"):
        sigma = w.density ** (-1.0 / (p - 1)) * w.cell_volume
    avg_w, avg_sigma = _cube_averages(w, sigma)
    avg_sigma **= p - 1
    return float(np.multiply(avg_w, avg_sigma, out=avg_sigma).max())


def fujii_wilson(w: GridWeight) -> float:
    """Fujii-Wilson A_infinity gauge over grid cubes inside the domain:
    sup over Q with w(Q) > 0 of (1/w(Q)) * integral over Q of M(w 1_Q).

    M is the uncentered grid maximal operator over the subcubes of Q.  Every
    proper subcube of a side-(s+1) cube lies in one of its 2^d side-s child
    cubes at corners i + e, e in {0,1}^d, so the local maximal function obeys

        M_{Q(i,s+1)}(c) = max(avg Q(i,s+1),
                              max over children containing c of M_{Q(i+e,s)}(c)).

    One sweep over s = 1..N keeps M for all side-s cubes at once, as an array
    indexed by corner and then by cell within the cube.  Time is
    Theta(N^(2d+1)) and the peak array holds Theta(N^(2d)) values, whatever
    the weight.
    """
    n, d = w.resolution, w.dim
    if n > FW_CAP[d]:
        raise BudgetExceeded(f"fujii_wilson capped at N={FW_CAP[d]} for dim {d}, got {n}")
    # side-0 cubes have no cells, so side 1 starts from the averages alone
    local = np.empty((n + 1,) * d + (0,) * d)
    best = 0.0
    for s in range(1, n + 1):
        k = n - s + 1
        sums = w.window_sums(s)
        grown = np.empty((k,) * d + (s,) * d)
        grown[...] = (sums * (n / s) ** d).reshape(sums.shape + (1,) * d)
        for e in np.ndindex(*(2,) * d):
            part = grown[(Ellipsis,) + tuple(slice(o, o + s - 1) for o in e)]
            np.maximum(part, local[tuple(slice(o, o + k) for o in e)], out=part)
        local = grown
        heavy = sums > 0
        if heavy.any():
            integrals = grown.reshape(sums.shape + (-1,)).sum(axis=-1)
            best = max(best, float((integrals[heavy] / n**d / sums[heavy]).max()))
    return best


def hruscev_constant(w: GridWeight) -> float:
    """Endpoint A_infinity gauge: sup of avg(w) * exp(avg of log(1/w)).

    The cell integrals of log(1/w) have mixed signs, so their sum over a
    side-s cube Q is exact only to about d*s*u times the sum of their
    absolute values (u = 2^-53; see gridops.side_table).  The value on Q is
    therefore exact to a relative error of about d*s*u times the average of
    |log w| over Q, whatever the average of log w itself.
    """
    _require_positive_cells(w, "log of weight")
    avg_w, avg_log = _cube_averages(w, -np.log(w.density) * w.cell_volume)
    np.exp(avg_log, out=avg_log)
    return float(np.multiply(avg_w, avg_log, out=avg_log).max())


def doubling_constant(w: GridWeight) -> float:
    """sup of w(2Q)/w(Q) over cubes whose concentric double is grid-aligned
    and inside the domain; even sides only so that 2Q is exact."""
    n = w.resolution
    if n < 4:
        raise ValueError("domain too small: doubling needs N >= 4")
    best = 0.0
    found = False
    for s in range(2, n // 2 + 1, 2):
        # corners h..n-s-h of Q, and corners 0..n-2s of its double 2Q
        h = s // 2
        if n - s - h < h:
            continue
        num = w.window_sums(2 * s)[(slice(0, n - 2 * s + 1),) * w.dim]
        den = w.window_sums(s)[(slice(h, n - s - h + 1),) * w.dim]
        mask = den > 0
        if not mask.any():
            continue
        found = True
        best = max(best, float((num[mask] / den[mask]).max()))
    if not found:
        raise ValueError("no admissible cube with positive mass")
    return best


def growth_profile(w: GridWeight, t_values: Sequence[float]) -> dict[float, float]:
    """phi(t) = sup over cubes Q of (mass of the floor(t*cells) heaviest cells) / w(Q)."""
    ts = list(t_values)
    if not all(0 < t <= 1 for t in ts):
        raise ValueError("t values must lie in (0, 1]")
    if ts != sorted(ts):
        raise ValueError("t values must be ascending")
    n = w.resolution
    out = {t: 0.0 for t in ts}
    for s in range(1, n + 1):
        cells = s**w.dim
        windows = sliding_window_view(w.values, (s,) * w.dim).reshape(-1, cells)
        srt = np.sort(windows, axis=-1)[:, ::-1]
        csum = srt.cumsum(axis=-1)
        mass = csum[:, -1]
        ok = mass > 0
        if not ok.any():
            continue
        for t in ts:
            k = int(math.floor(t * cells))
            if k < 1:
                continue
            ratio = csum[ok, k - 1] / mass[ok]
            out[t] = max(out[t], float(ratio.max()))
    return out


class GrowthFit(NamedTuple):
    c1: float
    c2: float
    ainfty_bound: float


def fit_growth_exponent(profile: dict[float, float]) -> GrowthFit:
    """Least squares of log phi = log c1 + (1/c2) log t over the supplied points."""
    pts = [(t, v) for t, v in sorted(profile.items()) if v > 0]
    if sum(1 for t, _ in pts if t < 0.5) < 3:
        raise ValueError("need at least 3 profile points with t < 1/2")
    vals = {v for _, v in pts}
    if len(vals) == 1:
        raise DegenerateFit("profile is flat; growth exponent undetermined")
    x = np.log([t for t, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    if slope <= 0:
        raise DegenerateFit("profile fit has nonpositive slope")
    c1 = float(np.exp(intercept))
    c2 = float(1.0 / slope)
    return GrowthFit(c1, c2, c2 * (1 + math.log(c1)))


def reverse_holder_holds(w: GridWeight, eps: float, constant: float = 2.0) -> bool:
    """(avg_Q w^(1+eps))^(1/(1+eps)) <= constant * avg_Q w on every grid cube;
    powers taken on cell densities; eps must be positive."""
    if not eps > 0:
        raise ValueError(f"reverse Holder exponent eps must be positive, got {eps}")
    _require_positive_cells(w, "reverse Holder powers")
    with np.errstate(over="ignore"):
        powers = w.density ** (1 + eps) * w.cell_volume
    avg_w, avg_power = _cube_averages(w, powers)
    avg_power **= 1 / (1 + eps)
    avg_w *= constant
    return not (avg_power > avg_w).any()


def reverse_holder_exponent(w: GridWeight, constant: float = 2.0) -> float:
    """Largest eps in {2^-k, k=0..20} passing reverse_holder_holds."""
    for k in range(0, 21):
        eps = 2.0**-k
        if reverse_holder_holds(w, eps, constant):
            return eps
    warnings.warn("no dyadic reverse Holder exponent passed; returning 0")
    return 0.0


def sidelength_growth_exponent(w: GridWeight) -> float:
    """Empirical exponent gamma with w(Q1)/w(Q2) >~ (r1/r2)^gamma over sampled
    nested pairs; the max of log(w(Q2)/w(Q1)) / log(r2/r1).

    Sides run down the ladder N >> k.  For sides s2 > s1, Q2 has its corner
    at the multiples of s2 // 2 and at N - s2 on each axis, and Q1 sits at
    the corner, far end or centre of Q2; every Q1 also pairs with the whole
    domain.  log is increasing, so each such group takes log once, of its
    largest ratio over the Q1 with positive mass.  Doubling N maps the
    family into itself only at power-of-two N, and even there not a centred
    Q1 of side 1; elsewhere gamma can fall under N -> 2N (on random positive
    1-D weights at every N from 9 to 15 and at 24).
    """
    n, d = w.resolution, w.dim
    if n < 8:
        raise ValueError("resolution must be >= 8")
    ladder = [n >> k for k in range(n.bit_length())]
    masses = {s: w.window_sums(s) for s in ladder}
    groups = []  # (s2, s1, masses of the Q2, masses of the Q1 they contain)
    for i, s2 in enumerate(ladder):
        c2 = np.array(sorted(set(range(0, n - s2 + 1, max(1, s2 // 2))) | {n - s2}))
        for s1 in ladder[i + 1:]:
            outer = masses[s2][np.ix_(*(c2,) * d)]
            for o in (0, s2 - s1, (s2 - s1) // 2):
                groups.append((s2, s1, outer, masses[s1][np.ix_(*(c2 + o,) * d)]))
        if i:
            groups.append((n, s2, np.broadcast_to(masses[n], masses[s2].shape), masses[s2]))
    best = None
    for s2, s1, m2, m1 in groups:
        live = m1 > 0
        if live.any():
            val = math.log(float((m2[live] / m1[live]).max())) / math.log(s2 / s1)
            best = val if best is None else max(best, val)
    if best is None:
        raise ValueError("degenerate weight: all sampled inner cubes have zero mass")
    return best


@dataclass
class WeightConstants:
    """All computed gauges for one weight, with the grid parameters used."""

    ap: dict[float, float]
    fujii_wilson: float
    hruscev: float
    doubling: float
    rh_epsilon: float
    gamma: float
    growth_exponent: GrowthFit
    meta: dict = field(default_factory=dict)


DEFAULT_PROFILE_T = (1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2)


def compute_weight_constants(
    w: GridWeight,
    p_values: Sequence[float] = (2.0, 4.0, 8.0),
    t_values: Sequence[float] = DEFAULT_PROFILE_T,
    rh_constant: float = 2.0,
) -> WeightConstants:
    profile = growth_profile(w, t_values)
    return WeightConstants(
        ap={p: ap_constant(w, p) for p in p_values},
        fujii_wilson=fujii_wilson(w),
        hruscev=hruscev_constant(w),
        doubling=doubling_constant(w),
        rh_epsilon=reverse_holder_exponent(w, rh_constant),
        gamma=sidelength_growth_exponent(w),
        growth_exponent=fit_growth_exponent(profile),
        meta=dict(w.meta),
    )
