"""Grid-discretized weights on [0,1)^n and their constants.

A GridWeight stores cell masses (integrals of the weight over grid cells),
not point samples, so w(Q) is exact for grid cubes and refining the grid
never loses mass.  Cube masses are sums of cells by additions only
(`gridops.side_sums`), so each is exact to rounding relative to itself, and
a cube with no positive cell has mass exactly 0.  A weight caches that table
with its per-side views (`gridops.side_table`).  The A_p, Hruscev and
reverse-Holder gauges add at most two flat buffers of cube sums to it, the
size of `w.table.flat` and with no per-side views, and Fujii-Wilson adds one,
of its cube integrals.  Doubling and gamma keep index pairs into
`w.table.flat`, cached per (N, d) and shared by every call: at 1-D N = 1024,
2.1 MB for doubling's 130,816 pairs and 0.34 MB for gamma's 21,278, against
4.2 MB for the table.  Each call gathers two floats per pair and divides in
place, with two masks of one byte per pair: 2.4 MB for doubling there.  The
growth profile adds no table but one buffer for the cells of one side's
cubes, at most ((N+1)/2)^(2d) floats: half a table in 1-D, about 3N/16 in
2-D.

Exact decisions read `GridWeight.exact`, also cached: on the masses' one
integer scale (`geometry._on_scale`), their largest denominator, a power of
two (2^1074 for subnormals), each cell is an int numerator, and a cube's
exact mass is 2^d summed-area lookups.

All cube suprema run over grid-aligned cubes inside the domain; every sup
gauge here is therefore a lower approximation of its continuous
counterpart, nondecreasing under the refinement N -> 2N (gamma only at
power-of-two N; see sidelength_growth_exponent).  The growth fit is not a
sup, and its c2 and A_infinity bound can fall (see fit_growth_exponent).

The float sup gauges (A_p, Hruscev, Fujii-Wilson, doubling, gamma) share two
rules.  A quotient over a cube with no mass reads -inf (`_ratios`), so the sup
skips it, and if every cube has none the gauge raises "no admissible cube with
positive mass".  A value that overflows reads inf, and a sup of inf or NaN
raises "<gauge> cube values must be finite" (`_sup`); no gauge returns inf.

No gauge calls BLAS or LAPACK: the gauges are sums, maxima and elementwise
arithmetic, and the growth fit is a closed-form line (`fit_growth_exponent`).

Supported grids: 1-D and 2-D, resolution N cells per axis.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import gridops
from .errors import BudgetExceeded, DegenerateFit
from .geometry import _on_scale

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


def _require_finite(masses: np.ndarray, what: str = "cell masses") -> None:
    if not np.isfinite(masses).all():
        bad = "NaN" if np.isnan(masses).any() else "inf"
        raise ValueError(f"{what} must be finite, got {bad}")


class ExactMasses(NamedTuple):
    """Cell c's float mass is exactly cells[c] / unit; prefix[i] is the sum of
    cells[:i[0], ..., :i[d-1]].  Read-only object arrays of Python ints."""

    unit: int
    cells: np.ndarray
    prefix: np.ndarray

    def box_sums(self, lo: np.ndarray, hi: np.ndarray) -> list[int]:
        """Per row i of the (k, d) int arrays lo, hi, the sum of cells[lo[i, 0]:hi[i, 0],
        ...], by inclusion-exclusion over prefix."""
        d = self.cells.ndim
        lo, hi = lo.reshape(-1, d), hi.reshape(-1, d)  # (0, 0) for no boxes
        total = np.zeros(len(lo), dtype=object)
        for corner in itertools.product((0, 1), repeat=d):
            at = self.prefix[tuple((hi if c else lo)[:, a] for a, c in enumerate(corner))]
            total += at if sum(corner) % 2 == d % 2 else -at
        return total.tolist()


class GridWeight:
    """Nonnegative cell masses on an N^n grid over [0,1)^n and the masses of
    all its grid cubes."""

    def __init__(self, values: np.ndarray, meta: dict | None = None):
        values = np.asarray(values, dtype=float)
        self.resolution = gridops.resolution(values)
        _require_finite(values)
        if np.any(values < 0):
            raise ValueError("cell masses must be nonnegative")
        with np.errstate(over="ignore"):
            total = values.sum()
        if not total > 0:
            raise ValueError("total mass must be positive")
        if not math.isfinite(total):
            raise ValueError("total mass must be finite, got inf")
        self.values = values
        self.dim = values.ndim
        # the largest entry of `density`, which the gauges raise to powers and take logs of
        with np.errstate(over="ignore"):
            peak = values.max() / self.cell_volume
        if not math.isfinite(peak):
            raise ValueError("largest density must be finite, got inf")
        self.meta = dict(meta or {})

    # -- basic queries -------------------------------------------------------

    @property
    def cell_volume(self) -> float:
        return (1.0 / self.resolution) ** self.dim

    @property
    def density(self) -> np.ndarray:
        return self.values / self.cell_volume

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

    @functools.cached_property
    def exact(self) -> ExactMasses:
        """The masses on their one integer scale (`geometry._on_scale`, `ExactMasses`):
        the unit is the lcm of their denominators, powers of two, so the largest."""
        unit, cells = _on_scale(self.values.ravel().tolist())
        cells = np.array(cells, dtype=object).reshape(self.values.shape)
        # object zeros are Python ints; int64 zeros would overflow the sums
        prefix = np.zeros([n + 1 for n in cells.shape], dtype=object)
        prefix[(slice(1, None),) * self.dim] = cells
        for a in range(self.dim):
            prefix = prefix.cumsum(axis=a)
        cells.flags.writeable = prefix.flags.writeable = False
        return ExactMasses(unit, cells, prefix)

    def cube_mass(self, q: GridCube) -> float:
        self._check_cube(q)
        return float(self.table.sides[q.side - 1][q.corner])

    def cube_volume(self, q: GridCube) -> float:
        return (q.side / self.resolution) ** self.dim

    def cube_average(self, q: GridCube) -> float:
        return self.cube_mass(q) / self.cube_volume(q)

    def window_sums(self, s: int) -> np.ndarray:
        """The read-only masses of all side-s cubes, `table.sides[s - 1]`, 1 <= s <= N:
        within `gridops.side_sums`' error bound, 0.0 on cubes with no positive cell."""
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


# the checkerboard's densities, alternating from cell to cell
_CHECKERBOARD_DENSITIES = np.array([1.0, float(np.e) ** 2])


@dataclass(frozen=True)
class WeightFamilySpec:
    """Recipe for a test-corpus weight; deterministic for fixed fields."""

    family: str
    dim: int
    resolution: int
    a: float = 0.0
    x0: tuple[float, ...] | float = 0.0
    seed: int = 0

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
        if len(x0) != d:
            raise ValueError(f"x0 needs {d} coordinates, got {len(x0)}")
        if d == 1:
            values = _power_masses_1d(n, spec.a, x0[0])
        else:
            # no elementary closed form off-axis: midpoint density times area
            mids = (np.arange(n) + 0.5) / n
            dx = mids[:, None] - x0[0]
            dy = mids[None, :] - x0[1]
            r2 = dx * dx + dy * dy
            if spec.a < 0 and not r2.all():
                raise ValueError("power weight with a < 0 is infinite at x0, "
                                 "which sits on a cell midpoint")
            values = r2 ** (spec.a / 2.0) * cellvol
    elif spec.family == "checkerboard":
        idx = np.arange(n)
        if d == 1:
            dens = _CHECKERBOARD_DENSITIES[idx % 2]
        else:
            dens = _CHECKERBOARD_DENSITIES[(idx[:, None] + idx[None, :]) % 2]
        values = dens * cellvol
    elif spec.family == "log-smooth-random":
        rng = np.random.default_rng(spec.seed)
        field_vals = rng.standard_normal((n,) * d)
        width = 4  # cells per standard deviation of the Gaussian kernel
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


def _ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den in place in num, inf where it overflows and -inf where den is
    0: the one mark of a cube with no mass."""
    with np.errstate(over="ignore"):
        np.divide(num, den, out=num, where=den > 0)
    num[den == 0] = -np.inf
    return num


def _sup(best: float, gauge: str) -> float:
    """A gauge's sup, the max it took over its cubes, as a Python float:
    ValueError if every cube read -inf (no mass) or the max is inf or NaN."""
    best = float(best)
    if best == -math.inf:
        raise ValueError("no admissible cube with positive mass")
    if not math.isfinite(best):
        raise ValueError(f"{gauge} cube values must be finite, "
                         f"got {'NaN' if math.isnan(best) else 'inf'}")
    return best


def _cube_averages(w: GridWeight, cells: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The averages over every grid cube of w and of the finite cell integrals
    `cells`, named `what`, as two fresh arrays laid out like `w.table.flat`.
    The cube volumes repeat `_side_volumes`, cached per (N, d), over each
    side's cubes, so no call builds a Python list per side."""
    _require_finite(cells, what)
    avg = gridops.side_sums(cells)
    vol = np.repeat(*_side_volumes(w.resolution, w.dim))
    avg /= vol
    return np.divide(w.table.flat, vol, out=vol), avg


@functools.lru_cache(maxsize=32)
def _side_volumes(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Each side's cube volume (s/N)^d and how many side-s cubes
    `gridops.side_sums`' flat buffer holds, s = 1..N: 2N numbers, read-only since
    every call with this (N, d) shares them."""
    volumes = np.array([(s / n) ** d for s in range(1, n + 1)])
    counts = np.diff(gridops.side_offsets(n, d))
    volumes.flags.writeable = counts.flags.writeable = False
    return volumes, counts


def ap_constant(w: GridWeight, p: float) -> float:
    """Muckenhoupt A_p gauge: sup over grid cubes of avg(w) * avg(w^{-1/(p-1)})^(p-1)."""
    if not 1 < p < math.inf:
        raise ValueError(f"p must be a finite number exceeding 1, got {p}")
    _require_positive_cells(w, "dual weight")
    with np.errstate(over="ignore"):
        sigma = w.density ** (-1.0 / (p - 1)) * w.cell_volume
    avg_w, avg_sigma = _cube_averages(w, sigma, "A_p dual masses")
    with np.errstate(over="ignore"):
        avg_sigma **= p - 1
        np.multiply(avg_w, avg_sigma, out=avg_sigma)
    return _sup(avg_sigma.max(), "A_p")


def fujii_wilson(w: GridWeight) -> float:
    """Fujii-Wilson A_infinity gauge over grid cubes inside the domain:
    sup over Q with w(Q) > 0 of (1/w(Q)) * integral over Q of M(w 1_Q).

    M is the uncentered grid maximal operator over the subcubes of Q.  Every
    proper subcube of a side-(s+1) cube lies in one of its 2^d side-s child
    cubes at corners i + e, e in {0,1}^d, so the local maximal function obeys

        M_{Q(i,s+1)}(c) = max(avg Q(i,s+1),
                              max over children containing c of M_{Q(i+e,s)}(c)).

    One sweep over s = 1..N keeps M for all side-s cubes at once, as an array
    indexed by corner and then by cell within the cube, and writes each
    cube's integral of M into one buffer laid out like `w.table.flat`; the
    quotient is then taken in that buffer and its sup over all cubes at once.
    Time is Theta(N^(2d+1)) and the peak array holds Theta(N^(2d)) values,
    whatever the weight.
    """
    n, d = w.resolution, w.dim
    if n > FW_CAP[d]:
        raise BudgetExceeded(f"fujii_wilson capped at N={FW_CAP[d]} for dim {d}, got {n}")
    flat, sides = w.table
    # integrals[j]: the sum of M(w 1_Q) over the cells of cube Q = j of flat,
    # N^d times its integral
    integrals = np.empty(flat.size)
    # side-0 cubes have no cells, so side 1 starts from the averages alone
    local = np.empty((n + 1,) * d + (0,) * d)
    # the corners e in {0,1}^d of a cube's 2^d children, relative to its own
    children = tuple(itertools.product((0, 1), repeat=d))
    # finite densities can still sum past the largest float within one cube
    with np.errstate(over="ignore"):
        for s, lo, sums in zip(range(1, n + 1), gridops.side_offsets(n, d), sides):
            k = n - s + 1
            grown = np.empty((k,) * d + (s,) * d)
            grown[...] = (sums * (n / s) ** d).reshape(sums.shape + (1,) * d)
            for e in children:
                part = grown[(Ellipsis,) + tuple(slice(o, o + s - 1) for o in e)]
                np.maximum(part, local[tuple(slice(o, o + k) for o in e)], out=part)
            local = grown
            grown.reshape(sums.size, -1).sum(axis=-1, out=integrals[lo:lo + sums.size])
    integrals /= n**d
    return _sup(_ratios(integrals, flat).max(), "Fujii-Wilson")


def hruscev_constant(w: GridWeight) -> float:
    """Endpoint A_infinity gauge: sup of avg(w) * exp(avg of log(1/w)).

    The cell integrals of log(1/w) have mixed signs, so their sum over a
    side-s cube Q is exact only to about d*s*u times the sum of their
    absolute values (u = 2^-53; see gridops.side_sums).  The value on Q is
    therefore exact to a relative error of about d*s*u times the average of
    |log w| over Q, whatever the average of log w itself.
    """
    _require_positive_cells(w, "log of weight")
    avg_w, avg_log = _cube_averages(w, -np.log(w.density) * w.cell_volume,
                                    "Hruscev log masses")
    with np.errstate(over="ignore"):
        np.exp(avg_log, out=avg_log)
        np.multiply(avg_w, avg_log, out=avg_log)
    return _sup(avg_log.max(), "Hruscev")


def doubling_constant(w: GridWeight) -> float:
    """sup of w(2Q)/w(Q) over cubes whose concentric double is grid-aligned
    and inside the domain; even sides only so that 2Q is exact.

    The (2Q, Q) pairs depend only on (N, d), so their indices into
    `w.table.flat` are built once per (N, d) (`_doubling_pairs`), and each
    call is one gather, one divide and one max over all of them, the same
    divisions as a loop over the sides.
    """
    n = w.resolution
    if n < 4:
        raise ValueError("domain too small: doubling needs N >= 4")
    outer, inner = _doubling_pairs(n, w.dim)
    flat = w.table.flat
    return _sup(_ratios(flat[outer], flat[inner]).max(), "doubling")


def _cube_indices(n: int, d: int, s: int, corners: np.ndarray) -> np.ndarray:
    """The indices into `gridops.side_sums`' flat buffer of the side-s cubes
    at the product of `corners` on each axis, in row-major order."""
    grid = np.ix_(*(corners,) * d)
    return (gridops.side_offsets(n, d)[s - 1]
            + np.ravel_multi_index(grid, (n - s + 1,) * d)).ravel()


@functools.lru_cache(maxsize=32)
def _doubling_pairs(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2Q, Q) pairs of doubling_constant as indices into
    `gridops.side_sums`' flat buffer, read-only since every call with this
    (N, d) shares them: about N^(d+1) / (4(d+1)) pairs (130,816 and 2 MB at
    1-D N = 1024)."""
    outer, inner = [], []
    for s in range(2, n // 2 + 1, 2):
        # corners h..n-s-h of Q, and every corner 0..n-2s of its double 2Q
        h, k = s // 2, n - 2 * s + 1
        outer.append(_cube_indices(n, d, 2 * s, np.arange(k)))
        inner.append(_cube_indices(n, d, s, np.arange(h, h + k)))
    pairs = np.concatenate(outer), np.concatenate(inner)
    for a in pairs:
        a.flags.writeable = False
    return pairs


DEFAULT_PROFILE_T = (1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2)


def growth_profile(w: GridWeight, t_values: Sequence[float]) -> dict[float, float]:
    """phi(t) = sup over cubes Q of (mass of the floor(t*cells) heaviest cells) / w(Q).

    Each side copies the cells of all its cubes, negated, into one buffer
    reused by every side, so that an ascending sort puts each cube's heaviest
    cell first.  One running sum per cube then gives the masses of its
    heaviest cells, each exactly negated, and one gather reads every t off
    it; one divide by the cube's mass, also negated, gives the same ratio as
    the unnegated sums.  A cube with no mass gives 0/0 = NaN, which the
    side's fmax skips.  Every ratio is at most 1, so nothing overflows, and
    the NaN skip needs no pass of its own in this hot per-side loop, which
    is why it keeps it rather than `_ratios`' -inf mark.  Sorting
    Theta(N^(2d+1)) values dominates: 1.2-1.3 s at 1-D N = 1024 (traced peak
    2.4 MB) and 0.3 s at 2-D N = 64 (9.5 MB) on a 2-vCPU Xeon with numpy 2.4.
    """
    ts = list(t_values)
    _check_t_values(ts)
    if ts != sorted(ts):
        raise ValueError("t values must be ascending")
    n, d = w.resolution, w.dim
    # ks[s - 1, j]: how many of a side-s cube's cells t_j counts
    ks = np.floor(np.outer([s**d for s in range(1, n + 1)], ts)).astype(int)
    # the running sum t_j reads on side s; a t with k = 0 reads the first
    # cell's and is masked out below
    cols = np.maximum(ks, 1) - 1
    peaks = np.empty(ks.shape)
    # one window of n negated cells per axis at every corner; side s reads its first s
    windows = sliding_window_view(np.pad(-w.values, [(0, n - 1)] * d), (n,) * d)
    # room for every side's cells: (N-s+1)^d cubes of s^d cells
    buf = np.empty(max((n - s + 1) * s for s in range(1, n + 1)) ** d)
    # a cube with no mass reads 0/0 = NaN, which fmax skips
    with np.errstate(invalid="ignore"):
        for s, col in enumerate(cols, 1):
            k = n - s + 1
            cells = buf[:(k * s) ** d].reshape((k,) * d + (s,) * d)
            cells[...] = windows[(slice(0, k),) * d + (slice(0, s),) * d]
            csum = cells.reshape(-1, s**d)
            csum.sort(axis=-1)
            np.add.accumulate(csum, axis=-1, out=csum)  # the running sums, negated
            ratio = csum.take(col, axis=1)
            np.divide(ratio, csum[:, -1:], out=ratio)
            np.fmax.reduce(ratio, axis=0, initial=0.0, out=peaks[s - 1])
    return dict(zip(ts, np.where(ks >= 1, peaks, 0.0).max(axis=0).tolist()))


def _check_t_values(ts) -> None:
    if not all(0 < t <= 1 for t in ts):
        raise ValueError("t values must lie in (0, 1]")


class GrowthFit(NamedTuple):
    c1: float
    c2: float
    ainfty_bound: float


def fit_growth_exponent(profile: dict[float, float]) -> GrowthFit:
    """Least squares of log phi = log c1 + (1/c2) log t over the points with
    phi > 0.  Every t must lie in (0, 1], as in `growth_profile`, and every
    phi be finite.

    With x = log t and y = log phi, the line is the closed form
    slope = sum (x - mean x)(y - mean y) / sum (x - mean x)^2 and
    intercept = mean y - slope * mean x, on Python floats with each sum a
    `math.fsum`.  It is the same least squares as `np.polyfit(x, y, 1)` and
    agrees with it to about 1e-15 relative on `DEFAULT_PROFILE_T` profiles.
    The package does not call `polyfit`: it solves the 2-column system
    through LAPACK (`numpy.linalg.lstsq`), whose first call alone grows a
    process by about 1.2 MB, for a line this formula gives directly.  The
    fit can fall under N -> 2N: on power a = -1/2 at x0 = 0, 1-D N = 32,
    phi(1/64) = 0 drops out, and the cell split takes c2 from 2.0 to 1.75
    and the bound from 2.0 to 1.952.
    """
    _check_t_values(profile)
    _require_finite(np.array(list(profile.values()), dtype=float), "profile values")
    pts = [(t, v) for t, v in sorted(profile.items()) if v > 0]
    if sum(1 for t, _ in pts if t < 0.5) < 3:
        raise ValueError("need at least 3 profile points with t < 1/2")
    vals = {v for _, v in pts}
    if len(vals) == 1:
        raise DegenerateFit("profile is flat; growth exponent undetermined")
    x = [math.log(t) for t, _ in pts]
    y = [math.log(v) for _, v in pts]
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [a - x_mean for a in x]
    slope = math.fsum(a * (b - y_mean) for a, b in zip(dx, y)) / math.fsum(a * a for a in dx)
    if slope <= 0:
        raise DegenerateFit("profile fit has nonpositive slope")
    c1 = math.exp(y_mean - slope * x_mean)
    c2 = 1.0 / slope
    return GrowthFit(c1, c2, c2 * (1 + math.log(c1)))


def reverse_holder_holds(w: GridWeight, eps: float, constant: float = 2.0) -> bool:
    """(avg_Q w^(1+eps))^(1/(1+eps)) <= constant * avg_Q w on every grid cube;
    powers taken on cell densities; eps must be positive and constant
    positive and finite."""
    if not eps > 0:
        raise ValueError(f"reverse Holder exponent eps must be positive, got {eps}")
    if not 0 < constant < math.inf:
        raise ValueError(f"reverse Holder constant must be positive and finite, got {constant}")
    _require_positive_cells(w, "reverse Holder powers")
    with np.errstate(over="ignore"):
        powers = w.density ** (1 + eps) * w.cell_volume
    avg_w, avg_power = _cube_averages(w, powers, "reverse Holder power masses")
    avg_power **= 1 / (1 + eps)
    avg_w *= constant
    return not (avg_power > avg_w).any()


def reverse_holder_exponent(w: GridWeight, constant: float = 2.0) -> float:
    """Largest eps in {2^-k, k=0..20} passing reverse_holder_holds, which
    checks that constant is positive and finite; a constant below 1 never
    passes, since the power mean is at least avg w, and raises."""
    if 0 < constant < 1:
        raise ValueError(f"reverse Holder constant below 1 never holds, got {constant}")
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
    domain.  The pairs depend only on (N, d), so their indices into
    `w.table.flat` are built once per (N, d), and each call gathers, divides
    and takes each (s2, s1) group's max in one array pass.  log is
    increasing, so each group takes log once, of its largest ratio over the
    Q1 with positive mass.  Doubling N maps the family into itself only at
    power-of-two N, and even there not a centred Q1 of side 1; elsewhere
    gamma can fall under N -> 2N (on random positive 1-D weights at every N
    from 9 to 15 and at 24).
    """
    n, d = w.resolution, w.dim
    if n < 8:
        raise ValueError("resolution must be >= 8")
    pairs, flat = _gamma_pairs(n, d), w.table.flat
    ratio = _ratios(flat[pairs.outer], flat[pairs.inner])
    peaks = np.maximum.reduceat(ratio, pairs.starts).tolist()
    # a group whose Q1 all have no mass keeps its -inf peak
    return _sup(max(math.log(peak) / den if peak > -math.inf else peak
                    for peak, den in zip(peaks, pairs.log_sides)), "gamma")


class _GammaPairs(NamedTuple):
    outer: np.ndarray      # flat table indices of the Q2, grouped by (s2, s1)
    inner: np.ndarray      # flat table indices of the Q1 they contain
    starts: np.ndarray     # where each (s2, s1) group starts
    log_sides: tuple[float, ...]  # log(s2 / s1) per group


@functools.lru_cache(maxsize=32)
def _gamma_pairs(n: int, d: int) -> _GammaPairs:
    """The sampled (Q2, Q1) pairs of sidelength_growth_exponent as indices
    into `gridops.side_sums`' flat buffer, one group per (s2, s1)."""
    ladder = [n >> k for k in range(n.bit_length())]
    outer, inner, starts, log_sides = [], [], [], []
    at = 0
    for i, s2 in enumerate(ladder):
        c2 = np.array(sorted(set(range(0, n - s2 + 1, max(1, s2 // 2))) | {n - s2}))
        for s1 in ladder[i + 1:]:
            # Q1 at Q2's corner, far end and centre; for s2 = N (one Q2, the
            # whole domain) also at every corner
            q1 = [_cube_indices(n, d, s1, c2 + o) for o in (0, s2 - s1, (s2 - s1) // 2)]
            if i == 0:
                q1.append(_cube_indices(n, d, s1, np.arange(n - s1 + 1)))
            q1 = np.concatenate(q1)
            outer.append(np.resize(_cube_indices(n, d, s2, c2), q1.size))  # cycles: Q2 per placement
            inner.append(q1)
            starts.append(at)
            at += q1.size
            log_sides.append(math.log(s2 / s1))
    arrays = np.concatenate(outer), np.concatenate(inner), np.array(starts)
    for a in arrays:
        a.flags.writeable = False  # cached, so shared by every call
    return _GammaPairs(*arrays, tuple(log_sides))
