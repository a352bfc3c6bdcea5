"""Samplers for the spatially decorated coalescent.

Three layers: exact sampling of the decorated forest (shape, merge times,
merge locations), Brownian-bridge filling of full lineage paths, and the
pair-separation drift SDE in d = 2, whose two lineages attract each other
through the gradient of the log-normalization.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expn

from .forests import (
    DecoratedForest,
    Forest,
    Node,
    SpaceDecoration,
    TimeDecoration,
    enumerate_forests,
)
from .kernels import (
    KERNEL_CUTOFF,
    SpatialConfig,
    _kernel_1d,
    _offset_range,
    euclidean_tree_integral,
    torus_bridge_offset,
    torus_displacement,
    tree_collapse,
    wrap,
)
from .measures import RateTable, sample_nonspatial_path
from .normalization import (
    SPECTRAL_CUTOFF,
    SPECTRAL_MAX_ELEMENTS,
    _contract_grid,
    _forest_rates,
    _spectral_sum,
    spatial_integral_g_batch,
)
from .partitions import MergerSignature, Partition

TIME_GRID = 512  # inverse-CDF cells of a merge-time law
DRIFT_GRID = 512  # the pair drift table's nodes per axis
DRIFT_CUTOFF = 255  # the frequency cutoff of its long-time part
DRIFT_SPLIT = 40.0 / (4.0 * math.pi**2 * DRIFT_CUTOFF**2)  # e^-40 at the cutoff
DRIFT_WINDOW = 32  # nodes on each side of 0 with the short part: z < 60 spans 31.3
SDE_T_MAX = 50.0  # censoring time of the pair-separation diffusion
SDE_STEP_CAP = 0.05  # its step is at most SDE_STEP_CAP r^2 at separation r
RESIDUAL_BLOCK_ELEMENTS = 2**16  # image-sum terms per pair-law kernel call
DEEP_FORESTS = (
    "inverse-CDF time tables cover at most two merge events; "
    "draw deeper forests with sir_sample "
    "(sample-coalescent --method sir)"
)


@dataclass
class CoalescentPath:
    """A realized spatial coalescent: event log plus lineage trajectories.

    ``events`` holds (time, partition after the event, merge locations);
    ``paths`` maps each node to (times, positions) arrays, positions wrapped
    into the torus.
    """

    events: list[tuple[float, Partition, dict[Node, np.ndarray]]]
    paths: dict[Node, tuple[np.ndarray, np.ndarray]]
    meta: dict = field(default_factory=dict)

    def state_at(self, t: float) -> SpatialConfig:
        """Positions of the lineages alive at time ``t``."""
        part = self.partition_at(t)
        positions = {}
        for u in part.blocks:
            times, pos = self.paths[u]
            if not times[0] <= t <= times[-1]:
                raise ValueError(f"time {t} outside the stored path of {set(u)}")
            j = int(np.searchsorted(times, t, side="right")) - 1
            if j == times.size - 1:
                positions[u] = pos[j]
            else:
                lam = (t - times[j]) / (times[j + 1] - times[j])
                step = torus_displacement(pos[j + 1], pos[j])
                positions[u] = wrap(pos[j] + lam * step)
        return SpatialConfig(part, positions)

    def partition_at(self, t: float) -> Partition:
        part = self.meta["initial_partition"]
        for time, after, _ in self.events:
            if time <= t:
                part = after
        return part


# -- Exact merge-location sampling -------------------------------------------


def sample_merge_locations(
    f: Forest,
    tau: TimeDecoration,
    x: SpatialConfig,
    rng: np.random.Generator,
) -> SpaceDecoration:
    """Exact draw of the merge locations given the forest and its times.

    The spatial density is a Gaussian Markov tree wrapped onto the torus.
    Unwrapping writes it as a lattice sum of Euclidean Gaussian trees over
    integer leaf offsets (one leaf per root pinned); a categorical draw of
    the offsets followed by a root-to-leaves conditional Gaussian pass is
    then exact.
    """
    if f.is_trivial:
        return SpaceDecoration({})
    depth = tau.level_time(f.m)
    ks = _offset_range(2.0 * depth)
    pinned = set()
    for root in f.roots:
        for u in f.leaves:
            if u <= root:
                pinned.add(u)
                break
    free = [u for u in f.leaves if u not in pinned]
    combos = np.array(list(itertools.product(ks, repeat=len(free)))).reshape(
        -1, len(free)
    )
    internal_by_depth = sorted(
        f.internal_nodes, key=lambda v: f.birth_level(v), reverse=True
    )
    roots = set(f.roots)
    locs = {v: np.empty(x.d) for v in f.internal_nodes}
    for c in range(x.d):
        base = {u: float(x.positions[u][c]) for u in f.leaves}
        # offset cases on the leading axis, the one coordinate on the last
        pos = {
            u: base[u] + (combos[:, [free.index(u)]] if u in free else 0.0)
            for u in f.leaves
        }
        w = euclidean_tree_integral(f, tau, pos)
        total = w.sum()
        if not (total > 0):
            raise ArithmeticError("offset weights vanished; widen the offset range")
        pick = rng.choice(combos.shape[0], p=w / total)
        shifted = {
            u: base[u] + (combos[pick, free.index(u)] if u in free else 0.0)
            for u in f.leaves
        }
        r, xb = tree_collapse(f, tau, shifted)
        zeta: dict[Node, float] = {}
        for v in internal_by_depth:
            if v in roots:
                zeta[v] = rng.normal(xb[v][0], math.sqrt(r[v]))
            for u in f.children(v):
                if u not in f.internal_nodes:
                    continue
                ell = tau.birth_time(f, v) - tau.birth_time(f, u)
                var = 1.0 / (1.0 / r[u] + 1.0 / ell)
                mean = var * (xb[u][0] / r[u] + zeta[v] / ell)
                zeta[u] = rng.normal(mean, math.sqrt(var))
        for v in f.internal_nodes:
            locs[v][c] = zeta[v] % 1.0
    return SpaceDecoration(locs)


# -- Exact decorated-forest sampling -----------------------------------------


class ExactCoalescentSampler:
    """Exact sampler of (forest, times, locations) given leaf positions.

    The forest is drawn proportionally to its time-integrated contribution
    (closed-form spectral sums); merge times come from an inverse-CDF table
    on the uniformized gap variables u_i = 1 - exp(-lambda_i s_i), under
    which the residual density is just the tree integral g; locations are
    exact Gaussian-tree draws.  The time tables have TIME_GRID cells per
    gap for one merge event (an eighth, at least 48, for two), a tensor grid
    of gaps that ``_contract_grid`` evaluates as one matrix product over
    Fourier modes per root born at the last level; a table is built at the
    first draw of its forest.  The forest weights truncate at ``cutoff`` =
    SPECTRAL_CUTOFF.
    """

    def __init__(self, x: SpatialConfig, table: RateTable):
        self.x = x
        self.table = table
        self.cutoff = SPECTRAL_CUTOFF
        self.forests = enumerate_forests(x.partition, table.is_absorbing)
        # a deeper forest that can occur would fail every draw that picks
        # it, so refuse before paying for the forest weights
        for f in self.forests:
            if f.m > 2 and all(r > 0 for r in _forest_rates(table, f)[0]):
                raise NotImplementedError(DEEP_FORESTS)
        weights = []
        for f in self.forests:
            if f.is_trivial:
                weights.append(1.0)
            else:
                weights.append(_spectral_sum(f, table, x, self.cutoff))
        w = np.array(weights)
        if w.sum() <= 0:
            raise ArithmeticError("all forest weights vanished")
        self.forest_probs = w / w.sum()
        self.normalization = float(w.sum())
        self._tables: dict[Forest, np.ndarray] = {}

    def _gap_table(self, f: Forest):
        if f in self._tables:
            return self._tables[f]
        if f.m > 2:
            raise NotImplementedError(DEEP_FORESTS)
        _, lams = _forest_rates(self.table, f)
        grid = TIME_GRID if f.m == 1 else max(48, TIME_GRID // 8)
        mids = (np.arange(grid) + 0.5) / grid
        gaps = [-np.log1p(-mids) / lam for lam in lams]
        # truncation ringing can leave values near -1e-15 where the true
        # density underflows; clamp so the table is a valid categorical
        self._tables[f] = np.maximum(_contract_grid(f, gaps, self.x), 0.0)
        return self._tables[f]

    def _sample_times(self, f: Forest, rng: np.random.Generator) -> TimeDecoration:
        vals = self._gap_table(f)
        flat = vals.reshape(-1)
        cell = rng.choice(flat.size, p=flat / flat.sum())
        idx = np.unravel_index(cell, vals.shape)
        _, lams = _forest_rates(self.table, f)
        grid = vals.shape[0]
        ss = []
        for j, lam in zip(idx, lams):
            u = (j + rng.uniform()) / grid
            ss.append(-math.log1p(-u) / lam)
        return TimeDecoration(tuple(np.cumsum(ss)))

    def sample(
        self, rng: np.random.Generator, with_locations: bool = True
    ) -> DecoratedForest:
        f = self.forests[rng.choice(len(self.forests), p=self.forest_probs)]
        if f.is_trivial:
            return DecoratedForest(f, TimeDecoration(()), SpaceDecoration({}))
        tau = self._sample_times(f, rng)
        xi = (
            sample_merge_locations(f, tau, self.x, rng)
            if with_locations
            else SpaceDecoration({})
        )
        return DecoratedForest(f, tau, xi)


@dataclass
class SIRReport:
    ess: float


def _systematic_resample(
    weights: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    n = weights.size
    positions = (rng.uniform() + np.arange(n)) / n
    return np.searchsorted(np.cumsum(weights / weights.sum()), positions)


def sir_sample(
    x: SpatialConfig,
    table: RateTable,
    rng: np.random.Generator,
    batch: int = 512,
) -> tuple[list[DecoratedForest], SIRReport]:
    """Sequential importance resampling with the non-spatial coalescent as
    proposal.  Its path density is exactly the time factor, so the weight is
    exactly the spatial tree integral."""
    proposals = [sample_nonspatial_path(table, x.partition, rng) for _ in range(batch)]
    weights = np.ones(batch)
    # one batched tree integral per forest shape drawn
    rows: dict[Forest, list[int]] = {}
    for i, (f, _) in enumerate(proposals):
        if not f.is_trivial:
            rows.setdefault(f, []).append(i)
    for f, idx in rows.items():
        taus = np.array([proposals[i][1].times for i in idx])
        weights[idx] = spatial_integral_g_batch(f, taus, x)
    if weights.sum() <= 0:
        raise ArithmeticError("all importance weights vanished")
    ess = float(weights.sum() ** 2 / (weights**2).sum())
    out = []
    for i in _systematic_resample(weights, rng):
        f, tau = proposals[i]
        xi = sample_merge_locations(f, tau, x, rng)
        out.append(DecoratedForest(f, tau, xi))
    return out, SIRReport(ess=ess)


# -- Lineage path filling ----------------------------------------------------


def _bridge(
    t0: float,
    a: np.ndarray,
    t1: float,
    b: np.ndarray,
    grid: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Euclidean Brownian bridge from (t0, a) to (t1, b) on given inner times."""
    times = np.concatenate(([t0], grid, [t1]))
    dts = np.diff(times)
    steps = rng.normal(size=(dts.size, a.size)) * np.sqrt(dts)[:, None]
    w = np.vstack([np.zeros_like(a), np.cumsum(steps, axis=0)])
    frac = ((times - t0) / (t1 - t0))[:, None]
    return a + w - frac * (w[-1] - (b - a))


def sample_paths(
    df: DecoratedForest,
    x: SpatialConfig,
    horizon: float,
    grid_dt: float,
    rng: np.random.Generator,
) -> CoalescentPath:
    """Fill every branch with an exact torus Brownian bridge and every root
    with a free Brownian motion, discretized on a grid of step ``grid_dt``."""
    if grid_dt <= 0:
        raise ValueError("grid_dt must be positive")
    f, tau, xi = df.forest, df.tau, df.xi
    if not f.is_trivial and horizon < tau.level_time(f.m):
        raise ValueError("horizon earlier than the last merge")
    roots = set(f.roots)
    paths: dict[Node, tuple[np.ndarray, np.ndarray]] = {}
    for u in f.nodes:
        t0 = tau.birth_time(f, u)
        a = x.positions[u] if u in x.positions else xi[u]
        end = horizon if u in roots else tau.birth_time(f, f.parent(u))
        # arange may overshoot its stop by rounding; clipping turns such a
        # point into an empty last step and leaves the draws as they are
        grid = np.minimum(np.arange(t0 + grid_dt, end, grid_dt), end)
        times = np.concatenate(([t0], grid, [end]))
        if u in roots:
            steps = rng.normal(size=(times.size - 1, a.size)) * np.sqrt(
                np.diff(times)
            )[:, None]
            pos = np.vstack([a, a + np.cumsum(steps, axis=0)])
        else:
            b = xi[f.parent(u)]
            k = torus_bridge_offset(a, b, end - t0, rng)
            pos = _bridge(t0, a, end, b + k, grid, rng)
        paths[u] = (times, wrap(pos))
    events = []
    for i in range(1, f.m + 1):
        t = tau.level_time(i)
        merged = {
            v: xi[v] for v in f.levels[i].blocks if f.birth_level(v) == i
        }
        events.append((t, f.levels[i], merged))
    return CoalescentPath(
        events=events,
        paths=paths,
        meta={"initial_partition": f.levels[0], "horizon": horizon},
    )


# -- The d = 2 pair drift SDE ------------------------------------------------


@functools.lru_cache(maxsize=4)
def _drift_table(lam: float, rate: float) -> np.ndarray:
    """``PairDriftField.table`` at total rate ``lam`` and pair rate ``rate``,
    read-only, so that every field at these rates shares it."""
    grid, t0 = DRIFT_GRID, DRIFT_SPLIT
    # long part, rate e^(-a_k t0) / a_k per mode: a real inverse FFT per column
    kx = np.fft.fftfreq(grid, d=1.0 / grid)[:, None]  # integer wavenumbers
    ky = np.arange(grid // 2 + 1)[None, :]  # irfft2 takes the modes ky >= 0
    keep = (np.abs(kx) <= DRIFT_CUTOFF) & (ky <= DRIFT_CUTOFF)
    a = lam + 4.0 * math.pi**2 * (kx**2 + ky**2)
    coeff = np.where(keep, rate * np.exp(-a * t0) / a, 0.0)
    values = np.empty((grid, grid, 3))
    for c, factor in enumerate((1.0, 2j * math.pi * kx, 2j * math.pi * ky)):
        values[..., c] = np.fft.irfft2(factor * coeff, s=(grid, grid)) * grid**2
    # short part, nearest image: rate / (4 pi) sum_n (-lam t0)^n / n! E_n+1(z)
    # and -rate delta / (8 pi t0) sum_n (-lam t0)^n / n! E_n(z) at z > 0
    off = np.arange(-DRIFT_WINDOW, DRIFT_WINDOW + 1)
    dx, dy = np.meshgrid(off / grid, off / grid, indexing="ij")
    z = (dx * dx + dy * dy) / (4.0 * t0)
    near = (z > 0.0) & (z < 60.0)  # N is infinite at 0, below e^-60 past 60
    z, dx, dy = z[near], dx[near], dy[near]
    value, slope = np.zeros_like(z), np.zeros_like(z)
    term, n = 1.0, 0
    while abs(term) > 1e-17:
        value += term * expn(n + 1, z)
        slope += term * expn(n, z)  # E_0(z) = e^(-z) / z
        n += 1
        term *= -lam * t0 / n
    slope *= -rate / (8.0 * math.pi * t0)
    ix, iy = np.meshgrid(off % grid, off % grid, indexing="ij")
    short = np.column_stack([rate / (4.0 * math.pi) * value, slope * dx, slope * dy])
    values[ix[near], iy[near]] += short
    values.flags.writeable = False
    return values.reshape(grid**2, 3)


class PairDriftField:
    """Drift of a lineage pair as a function of the torus displacement, in
    d = 2 only: d = 3 is over the grid budget, SPECTRAL_MAX_ELEMENTS, and is
    refused before anything is allocated; d = 1 has no drift SDE.

    ``table`` holds N(delta) = rate int_0^inf e^(-lambda t) p_2t(delta) dt
    and its gradient at the nodes, exact up to rounding: an Ewald split at
    DRIFT_SPLIT sums long times as Fourier modes by inverse FFTs, and short
    times from the nearest image in closed form.  The origin, where N is
    infinite, holds the long part only; the SDE's merge radius keeps 2.5
    cells from it.  Bilinear lookups are within 2e-4 of d log N in the
    median over separations in [0.005, 0.5], and within 4% at 2.5 cells.

    ``table`` has shape (DRIFT_GRID^2, 3).  Row i * DRIFT_GRID + j is the
    grid node at displacement (i, j) / DRIFT_GRID; column 0 holds N there
    and column 1 + c holds dN/d(delta_c).  ``grad_log_at`` visits the four
    corners of a point's cell in (0, 0), (0, 1), (1, 0), (1, 1) order,
    weights each corner by the product of (1 - f_c) or f_c in coordinate
    order, and adds the corners up one after another from 0.0.
    """

    def __init__(self, table: RateTable, d: int):
        grid = DRIFT_GRID
        if grid**d > SPECTRAL_MAX_ELEMENTS:
            raise ValueError(
                f"pair drift grid needs {grid**d:.3g} elements ({grid}^{d}), "
                f"over the budget of {SPECTRAL_MAX_ELEMENTS} elements"
            )
        if d != 2:
            raise ValueError(f"the pair drift field is built for d = 2, not d = {d}")
        lam = table.total(2)
        rate = table.rate(MergerSignature(2, (2,)))
        self.zero = lam <= 0 or rate <= 0
        if self.zero:
            return
        self.table = _drift_table(lam, rate)
        self._flat = memoryview(self.table).cast("B").cast("d")
        # flat offset of grid index i along x and along y, for i up to
        # grid + 1: a point at displacement 1.0 sits at index grid
        index = [i % grid for i in range(grid + 2)]
        self._x_offset = [3 * grid * i for i in index]
        self._y_offset = [3 * i for i in index]

    def grad_log_at(self, x: float, y: float) -> tuple[float, float]:
        """d/d(delta) log N at the displacement (x, y), in Python floats."""
        if self.zero:
            return 0.0, 0.0
        v, xo, yo = self._flat, self._x_offset, self._y_offset
        zx, zy = x % 1.0 * DRIFT_GRID, y % 1.0 * DRIFT_GRID
        ix, iy = math.floor(zx), math.floor(zy)
        fx, fy = zx - ix, zy - iy
        ex, ey = 1.0 - fx, 1.0 - fy
        w00, w01, w10, w11 = ex * ey, ex * fy, fx * ey, fx * fy
        k00, k01 = xo[ix] + yo[iy], xo[ix] + yo[iy + 1]
        k10, k11 = xo[ix + 1] + yo[iy], xo[ix + 1] + yo[iy + 1]
        n = 0.0 + w00 * v[k00] + w01 * v[k01] + w10 * v[k10] + w11 * v[k11]
        gx = 0.0 + w00 * v[k00 + 1] + w01 * v[k01 + 1] + w10 * v[k10 + 1]
        gx = gx + w11 * v[k11 + 1]
        gy = 0.0 + w00 * v[k00 + 2] + w01 * v[k01 + 2] + w10 * v[k10 + 2]
        gy = gy + w11 * v[k11 + 2]
        return gx / n, gy / n

    def grad_log_N(self, delta: np.ndarray) -> np.ndarray:
        """d/d(delta) log N at a batch of displacements, shape (P, 2)."""
        rows = np.atleast_2d(delta).tolist()
        return np.array([self.grad_log_at(x, y) for x, y in rows]).reshape(-1, 2)


def pair_residual_times(
    deltas: np.ndarray,
    table: RateTable,
    rng: np.random.Generator,
) -> np.ndarray:
    """Merge times of lineage pairs at given displacements, batch-vectorized.

    Inverse-CDF sampling on the uniformized time variable u = 1 - e^(-lam s),
    under which the density is proportional to the heat-kernel factor.
    """
    deltas = np.atleast_2d(deltas)
    n, d = deltas.shape
    lam = table.total(2)
    if lam <= 0:
        raise ValueError("the pair never merges under this rate table")
    # geometric time grid: the density has an integrable near-zero spike at
    # small separations and an exponential tail, both resolved in log-time
    sep2 = float(np.min(np.sum(deltas**2, axis=1)))
    s_lo = max(sep2 / 100.0, 1e-14)
    s_hi = 60.0 / lam
    edges = np.geomspace(s_lo, s_hi, 2 * TIME_GRID + 1)
    mids = np.sqrt(edges[:-1] * edges[1:])
    widths = np.diff(edges)
    # scalar math.exp per cell: np.exp may round differently in the last
    # bit, and seeded artifacts pin these draws bit for bit
    lead = np.array([math.exp(-lam * s) * widths[i] for i, s in enumerate(mids)])
    # time cells per kernel call, so a call's image-sum terms stay in budget
    step = max(1, RESIDUAL_BLOCK_ELEMENTS // (n * (2 * KERNEL_CUTOFF + 1)))
    w = np.empty((mids.size, n))
    for b in range(0, mids.size, step):
        cells = slice(b, b + step)
        block = lead[cells, None]
        for c in range(d):
            block = block * _kernel_1d(2.0 * mids[cells, None], deltas[:, c])
        w[cells] = block
    cs = np.cumsum(w, axis=0, out=w)
    u = rng.uniform(size=n) * cs[-1]
    idx = (cs < u[None, :]).sum(axis=0)
    return edges[idx] + rng.uniform(size=n) * widths[idx]


def pair_separation_run(
    delta0: np.ndarray,
    table: RateTable,
    dt: float,
    merge_radius: float,
    n_paths: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Coalescence times of the pair-separation diffusion in d = 2.

    The displacement W = Z_1 - Z_2 satisfies dW = sqrt(2) dB + 2 s(W) dt with
    s the displacement drift; integration stops when |W| < merge_radius.
    Stopping at a positive radius systematically precedes the true collision,
    so by the Markov property the remaining merge time at the stopped
    displacement is drawn from the exact pair law and added.  Paths still
    apart at SDE_T_MAX are censored there and report SDE_T_MAX.

    Each step draws ``rng.normal(size=(P, 2))``, one row per running path
    in ascending path order, moves each path in Python floats, and stops
    the paths that end the step within the radius.  After the last step,
    ``pair_residual_times`` draws from the same ``rng`` for the stopped
    paths in ascending path order.  Every float operation is the one a
    batched numpy step makes, in the same order (``r * r`` for ``r**2``),
    so the times and the generator's final state are those of the batched
    step, bit for bit.
    """
    field = PairDriftField(table, np.size(delta0))
    x0, y0 = torus_displacement(np.ravel(delta0), 0.0).tolist()
    r0 = math.sqrt(x0 * x0 + y0 * y0)
    inside = r0 < merge_radius  # every path starts within the radius
    # (path, time, x, y) of the stopped paths; (path, x, y, time, r) of the rest
    stopped = [(i, 0.0, x0, y0) for i in range(n_paths)] if inside else []
    running = [] if inside else [(i, x0, y0, 0.0, r0) for i in range(n_paths)]
    while running:
        noise = rng.normal(size=(len(running), 2)).tolist()
        moved = []
        for (i, x, y, t, r), (nx, ny) in zip(running, noise):
            # shrink the step near the diagonal: drift ~ 1/r must stay resolved
            h = SDE_STEP_CAP * (r * r)
            if h > dt:
                h = dt
            t = t + h
            if t >= SDE_T_MAX:
                continue
            gx, gy = field.grad_log_at(x, y)
            s = math.sqrt(2.0 * h)
            x = (x + 2.0 * gx * h + s * nx) % 1.0
            y = (y + 2.0 * gy * h + s * ny) % 1.0
            # the displacement x - round(x), for x in [0, 1]
            x = x - 1.0 if x > 0.5 else x
            y = y - 1.0 if y > 0.5 else y
            r = math.sqrt(x * x + y * y)
            if r < merge_radius:
                stopped.append((i, t, x, y))
            else:
                moved.append((i, x, y, t, r))
        running = moved
    out = np.full(n_paths, SDE_T_MAX)
    if stopped:
        ids, times, *xy = zip(*sorted(stopped))
        deltas = np.column_stack(xy)
        out[list(ids)] = np.array(times) + pair_residual_times(deltas, table, rng)
    return out

