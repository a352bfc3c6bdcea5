"""Samplers for the spatially decorated coalescent.

Three layers: exact sampling of the decorated forest (shape, merge times,
merge locations), Brownian-bridge filling of full lineage paths, and the
approximate drift-SDE sampler whose lineages attract each other through
the gradient of the log-normalization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

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
    grad_log_N_spectral,
    spatial_integral_g_batch,
)
from .partitions import Partition

TIME_GRID = 512  # inverse-CDF cells of a merge-time law
DRIFT_GRID = 512  # the pair drift's FFT grid per axis
DRIFT_CUTOFF = 255  # and its frequency cutoff
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
        if u in roots:
            grid = np.arange(t0 + grid_dt, horizon, grid_dt)
            times = np.concatenate(([t0], grid, [horizon]))
            steps = rng.normal(size=(times.size - 1, a.size)) * np.sqrt(
                np.diff(times)
            )[:, None]
            pos = np.vstack([a, a + np.cumsum(steps, axis=0)])
        else:
            v = f.parent(u)
            t1 = tau.birth_time(f, v)
            b = xi[v]
            k = torus_bridge_offset(a, b, t1 - t0, rng)
            grid = np.arange(t0 + grid_dt, t1, grid_dt)
            pos = _bridge(t0, a, t1, b + k, grid, rng)
            times = np.concatenate(([t0], grid, [t1]))
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


# -- Drift-SDE sampler -------------------------------------------------------


class PairDriftField:
    """Drift of a lineage pair as a function of the torus displacement.

    The pair normalization has the closed form
    N(delta) = sum_k rate cos(2 pi k . delta) / (lambda + 4 pi^2 |k|^2),
    evaluated here on a DRIFT_GRID^d FFT grid, truncated at DRIFT_CUTOFF,
    with multilinear interpolation in between.  The grid must fit the
    package's element budget, SPECTRAL_MAX_ELEMENTS, so d = 3 is refused
    before anything is allocated.

    ``table`` has shape (DRIFT_GRID^d, d + 1).  Row j is the grid node
    whose C-order flat index is j, that is node (i_1, ..., i_d) at
    displacement (i_1, ..., i_d) / DRIFT_GRID; column 0 holds N there and
    column 1 + c holds dN/d(delta_c).  ``grad_log_N`` visits the 2^d corners
    of a point's cell in ``itertools.product((0, 1), repeat=d)`` order,
    weights each corner by the product over c of (1 - f_c) or f_c in
    coordinate order, and adds the corners up one after another.
    """

    def __init__(self, table: RateTable, d: int):
        grid, cutoff = DRIFT_GRID, DRIFT_CUTOFF
        if grid**d > SPECTRAL_MAX_ELEMENTS:
            raise ValueError(
                f"pair drift grid needs {grid**d:.3g} elements ({grid}^{d}), "
                f"over the budget of {SPECTRAL_MAX_ELEMENTS} elements"
            )
        self.d = d
        self.grid = grid
        lam = table.total(2)
        two = Partition.singletons([1, 2])
        one = Partition([{1, 2}])
        rate = table.transition_rate(two, one)
        if lam <= 0 or rate <= 0:
            self.zero = True
            return
        self.zero = False
        freqs = np.fft.fftfreq(grid, d=1.0 / grid)  # integer wavenumbers
        shape = (grid,) * d
        k2 = np.zeros(shape)
        kc = []
        for c in range(d):
            kg = freqs.reshape([-1 if i == c else 1 for i in range(d)])
            kc.append(np.broadcast_to(kg, shape))
            k2 = k2 + kg**2
        keep = np.ones(shape, dtype=bool)
        for c in range(d):
            keep &= np.abs(kc[c]) <= cutoff
        coeff = np.where(keep, rate / (lam + 4.0 * math.pi**2 * k2), 0.0)
        values = np.empty(shape + (d + 1,))
        values[..., 0] = np.real(np.fft.ifftn(coeff)) * grid**d
        for c in range(d):
            values[..., 1 + c] = (
                np.real(np.fft.ifftn(2j * math.pi * kc[c] * coeff)) * grid**d
            )
        self.table = values.reshape(grid**d, d + 1)
        # row stride of each axis in the flat table
        self.strides = grid ** np.arange(d - 1, -1, -1)

    def grad_log_N(self, delta: np.ndarray) -> np.ndarray:
        """d/d(delta) log N at a batch of displacements, shape (P, d)."""
        delta = np.atleast_2d(delta)
        if self.zero:
            return np.zeros_like(delta)
        g = self.grid
        z = wrap(delta) * g
        cell = np.floor(z)
        lo = cell.astype(int) % g
        # per corner bit: each axis's row offset and weight factor
        rows = (lo * self.strides, (lo + 1) % g * self.strides)
        frac = z - cell
        weights = (1.0 - frac, frac)
        out = 0.0
        for corner in itertools.product((0, 1), repeat=self.d):
            idx, w = rows[corner[0]][:, 0], weights[corner[0]][:, 0]
            for c in range(1, self.d):
                idx = idx + rows[corner[c]][:, c]
                w = w * weights[corner[c]][:, c]
            out = out + w[:, None] * self.table[idx]
        return out[:, 1:] / out[:, :1]


def pair_attraction(delta: np.ndarray, table: RateTable) -> np.ndarray:
    """Attraction field of a lineage toward its partner.

    The drift of a lineage at x with a partner at y points along
    int_0^inf e^(-lam t) grad_x p_t(x - y) dt; this returns that integral
    (not normalized by N), whose magnitude grows like 1/r as the
    separation r shrinks in d = 2.  Evaluated as an image sum of the
    closed-form Euclidean resolvent gradient (a Bessel-K function), which
    converges exponentially.
    """
    from scipy.special import kv

    delta = np.atleast_2d(delta)
    n, d = delta.shape
    lam = table.total(2)
    a = math.sqrt(2.0 * lam)
    reach = max(2, int(math.ceil(8.0 / a)) + 1)
    ks = np.arange(-reach, reach + 1)
    mesh = np.meshgrid(*([ks] * d), indexing="ij")
    kappa = np.stack([m.ravel() for m in mesh], axis=1)  # (M, d)
    z = delta[:, None, :] + kappa[None, :, :]  # (n, M, d)
    rho = np.linalg.norm(z, axis=2)
    # radial derivative of the Euclidean resolvent kernel at distance rho
    g = -2.0 * (2.0 * math.pi) ** (-d / 2.0) * (a / rho) ** (d / 2.0) * rho * kv(
        d / 2.0, a * rho
    )
    return (g[:, :, None] * z / rho[:, :, None]).sum(axis=1)


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
    """Coalescence times of the pair-separation diffusion, batch-vectorized.

    The displacement W = Z_1 - Z_2 satisfies dW = sqrt(2) dB + 2 s(W) dt with
    s the displacement drift; integration stops when |W| < merge_radius.
    Stopping at a positive radius systematically precedes the true collision,
    so by the Markov property the remaining merge time at the stopped
    displacement is drawn from the exact pair law and added.  Paths still
    apart at SDE_T_MAX are censored there and report SDE_T_MAX.

    The active set is kept compact: ``ids`` (path numbers, ascending), ``W``
    and ``t`` hold only the paths still running and shrink by a boolean
    mask when paths stop or expire.  Each step draws its normals once, one
    row per active path in ascending path order.
    """
    d = np.atleast_1d(delta0).size
    field = PairDriftField(table, d)
    ids = np.arange(n_paths)
    W = np.tile(np.atleast_1d(delta0), (n_paths, 1)).astype(float)
    t = np.zeros(n_paths)
    out = np.full(n_paths, SDE_T_MAX)
    stopped = np.full((n_paths, d), np.nan)
    while ids.size:
        W = torus_displacement(W, 0.0)
        r = np.linalg.norm(W, axis=1)
        done = r < merge_radius
        if done.any():
            out[ids[done]] = t[done]
            stopped[ids[done]] = W[done]
            run = ~done
            ids, W, t, r = ids[run], W[run], t[run], r[run]
            if not ids.size:
                break
        # shrink the step near the diagonal: drift ~ 1/r must stay resolved
        dts = np.minimum(dt, SDE_STEP_CAP * r**2)
        drift = 2.0 * field.grad_log_N(W)
        noise = np.sqrt(2.0 * dts)[:, None] * rng.normal(size=W.shape)
        W = wrap(W + drift * dts[:, None] + noise)
        t = t + dts
        run = t < SDE_T_MAX
        if not run.all():
            ids, W, t = ids[run], W[run], t[run]
    hit = np.isfinite(stopped[:, 0])
    if hit.any():
        out[hit] += pair_residual_times(stopped[hit], table, rng)
    return out


def sde_sample(
    x: SpatialConfig,
    table: RateTable,
    dt: float,
    merge_radius: float,
    rng: np.random.Generator,
    t_max: float = SDE_T_MAX,
) -> CoalescentPath:
    """Euler-Maruyama integration of the drift SDE with radius merging.

    Lineages follow dZ = dB + grad log N(Z) dt; when a group's diameter
    drops below ``merge_radius`` the group merges at its mean position and
    the reduced system restarts.  Only meaningful in d >= 2, where binary
    collisions of the ideal dynamics happen at the blow-up of the drift.
    The drift is ``grad_log_N_spectral`` at cutoff 24, one spectral sum per
    forest per step; no ``check`` experiment runs this sampler yet.
    """
    if x.d < 2:
        raise ValueError("the drift-SDE construction requires d >= 2")
    if x.min_separation() <= merge_radius:
        raise ValueError("initial positions closer than the merge radius")
    part = x.partition
    positions = dict(x.positions)
    t = 0.0
    events = []
    history: dict[Node, list[tuple[float, np.ndarray]]] = {
        u: [(0.0, positions[u])] for u in part.blocks
    }
    while len(part) > 1 and not table.is_absorbing(part) and t < t_max:
        cfg = SpatialConfig(part, positions)
        r = cfg.min_separation()
        dte = min(dt, max(0.1 * r * r, 1e-8))
        if dte < 1e-12:
            raise ArithmeticError(f"step size underflow at {cfg}")
        grads = grad_log_N_spectral(cfg, table, cutoff=24)
        new_pos = {}
        for u in part.blocks:
            step = grads[u] * dte + math.sqrt(dte) * rng.normal(size=x.d)
            new_pos[u] = wrap(positions[u] + step)
        positions = new_pos
        t += dte
        for u in part.blocks:
            history[u].append((t, positions[u]))
        groups = _radius_groups(part, positions, merge_radius)
        if groups:
            merged_locs = {}
            merge = []
            for grp in groups:
                target = frozenset().union(*grp)
                mean = _torus_mean([positions[u] for u in grp])
                merged_locs[target] = mean
                merge.append(grp)
            part = part.merge(merge)
            for v, loc in merged_locs.items():
                positions[v] = loc
                history[v] = [(t, loc)]
            positions = {u: positions[u] for u in part.blocks}
            events.append((t, part, merged_locs))
    paths = {
        u: (np.array([tt for tt, _ in h]), np.array([p for _, p in h]))
        for u, h in history.items()
    }
    return CoalescentPath(
        events=events,
        paths=paths,
        meta={"initial_partition": x.partition, "method": "sde", "dt": dt},
    )


def _radius_groups(part: Partition, positions, radius: float):
    """Single-linkage groups of blocks with pairwise distance below radius."""
    blocks = list(part.blocks)
    parent = list(range(len(blocks)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            dz = torus_displacement(positions[blocks[i]], positions[blocks[j]])
            if float(np.linalg.norm(dz)) < radius:
                parent[find(i)] = find(j)
    groups: dict[int, list[Node]] = {}
    for i, b in enumerate(blocks):
        groups.setdefault(find(i), []).append(b)
    return [g for g in groups.values() if len(g) >= 2]


def _torus_mean(points) -> np.ndarray:
    ref = points[0]
    offs = [torus_displacement(p, ref) for p in points]
    return wrap(ref + np.mean(offs, axis=0))
