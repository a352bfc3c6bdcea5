"""The n-level coalescent with resampling: lineages merge as in the spatial
coalescent, and every vacated level is immediately refilled by a draw from
the conditional stationary density, so the level count stays constant.

This is the time reversal of the forward population models: the level
positions at any fixed time are a stationary n-sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import SpatialConfig, torus_bridge_offset, wrap
from .measures import LambdaMeasure, RateTable, XiMeasure, build_rate_table
from .normalization import MU_GRID, sample_mu
from .partitions import MergerSignature, Partition, merger_signature
from .sampler import ExactCoalescentSampler


@dataclass
class EpochRecord:
    epoch: int
    merge_time: float
    signature: MergerSignature
    merged_levels: tuple[tuple[int, ...], ...]
    resampled_levels: tuple[int, ...]


@dataclass
class ReversalRun:
    record_times: np.ndarray
    records: np.ndarray  # (len(record_times), n, d)
    epochs: list[EpochRecord]
    initial_positions: np.ndarray
    final_positions: np.ndarray
    meta: dict = field(default_factory=dict)


def _level_config(positions: np.ndarray) -> SpatialConfig:
    positions = np.atleast_2d(positions)
    blocks = [frozenset({i + 1}) for i in range(positions.shape[0])]
    return SpatialConfig(
        Partition(blocks), {b: positions[i] for i, b in enumerate(blocks)}
    )


def resample_levels(
    survivors: SpatialConfig,
    levels,
    table: RateTable,
    rng: np.random.Generator,
    grid: int = MU_GRID,
) -> SpatialConfig:
    """Refill vacated levels by sequential conditional draws.

    ``survivors`` holds the retained positions as singleton blocks labeled by
    their level; the missing levels are redrawn one at a time in ascending
    order, each conditioned on everything already placed.  In d = 1 each
    draw uses a ``grid``-cell density.
    """
    placed = {min(b): pos for b, pos in survivors.positions.items()}
    missing = sorted(set(levels) - set(placed))
    for j in missing:
        cfg = SpatialConfig(
            Partition([frozenset({l}) for l in placed]),
            {frozenset({l}): p for l, p in placed.items()},
        )
        placed[j] = np.atleast_1d(sample_mu(cfg, table, rng, grid))
    blocks = [frozenset({l}) for l in sorted(placed)]
    return SpatialConfig(
        Partition(blocks), {b: placed[min(b)] for b in blocks}
    )


def sample_stationary_positions(
    n: int,
    d: int,
    table: RateTable,
    rng: np.random.Generator,
    grid: int = MU_GRID,
) -> np.ndarray:
    """An n-point draw from the stationary density, built one level at a time.

    The one-point marginal is uniform by translation invariance; each further
    point is a conditional draw given those already placed, in d = 1 from a
    ``grid``-cell density.
    """
    out = np.empty((n, d))
    out[0] = rng.uniform(size=d)
    for i in range(1, n):
        cfg = _level_config(out[:i])
        out[i] = sample_mu(cfg, table, rng, grid)
    return out


def _bridge_points(
    a: np.ndarray,
    b: np.ndarray,
    T: float,
    times: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Torus Brownian bridge from a at 0 to b at T, sampled at sorted times."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    target = np.atleast_1d(np.asarray(b, dtype=float)) + torus_bridge_offset(
        a, b, T, rng
    )
    out = np.empty((len(times), a.size))
    cur = a.copy()
    t_prev = 0.0
    for i, s in enumerate(times):
        if s >= T:
            cur = target.copy()
        else:
            frac = (s - t_prev) / (T - t_prev)
            mean = cur + frac * (target - cur)
            var = (s - t_prev) * (T - s) / (T - t_prev)
            cur = mean + rng.normal(size=a.size) * math.sqrt(max(var, 0.0))
        out[i] = cur
        t_prev = s
    return wrap(out)


def _free_points(
    a: np.ndarray, times: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    a = np.atleast_1d(np.asarray(a, dtype=float))
    out = np.empty((len(times), a.size))
    cur = a.copy()
    t_prev = 0.0
    for i, s in enumerate(times):
        cur = cur + rng.normal(size=a.size) * math.sqrt(s - t_prev)
        out[i] = cur
        t_prev = s
    return wrap(out)


def _segment_positions(df, config: SpatialConfig, times: np.ndarray, rng):
    """Positions of every leaf lineage at the given segment times (all at
    most the first merge time), conditionally on the decorated forest."""
    f, tau, xi = df.forest, df.tau, df.xi
    out = {}
    for u in f.leaves:
        v = f.parent(u)
        if v is None:
            out[u] = _free_points(config.positions[u], times, rng)
        else:
            T = tau.birth_time(f, v)
            out[u] = _bridge_points(config.positions[u], xi[v], T, times, rng)
    return out


def simulate_reversal(
    spec: LambdaMeasure | XiMeasure | RateTable,
    n: int,
    horizon: float,
    d: int,
    rng: np.random.Generator,
    record_times=None,
    initial: np.ndarray | None = None,
) -> ReversalRun:
    """Run the coalescent with resampling over [0, horizon].

    Initial positions are a stationary draw unless given.  Each epoch runs
    the exact coalescent to its first merge, records the left-continuous
    level positions along the way, refills the vacated levels, and repeats.
    """
    table = (
        spec if isinstance(spec, RateTable) else build_rate_table(spec, max(n, 2))
    )
    if record_times is None:
        record_times = np.linspace(0.0, horizon, 5)
    record_times = np.asarray(record_times, dtype=float)
    if initial is None:
        positions = sample_stationary_positions(n, d, table, rng)
    else:
        positions = wrap(np.atleast_2d(np.asarray(initial, dtype=float))).copy()
    run_records = np.empty((record_times.size, n, d))
    initial_positions = positions.copy()
    epochs: list[EpochRecord] = []
    clock = 0.0
    epoch = 0
    rec_mask_done = np.zeros(record_times.size, dtype=bool)

    def record_now(idx):
        run_records[idx] = positions

    for idx in np.flatnonzero(record_times <= 0.0):
        record_now(idx)
        rec_mask_done[idx] = True

    while clock < horizon:
        config = _level_config(positions)
        if table.total(n) <= 0.0:
            # no merges: plain Brownian motion to the horizon
            idxs = np.flatnonzero(~rec_mask_done)
            times = record_times[idxs] - clock
            for i in range(n):
                pts = _free_points(positions[i], times, rng)
                for j, k in enumerate(idxs):
                    run_records[k, i] = pts[j]
            positions = (
                wrap(
                    positions
                    + rng.normal(size=positions.shape)
                    * math.sqrt(horizon - clock)
                )
                if idxs.size == 0
                else wrap(
                    run_records[idxs[-1]]
                    + rng.normal(size=positions.shape)
                    * math.sqrt(horizon - record_times[idxs[-1]])
                )
            )
            rec_mask_done[:] = True
            clock = horizon
            break
        sampler = ExactCoalescentSampler(config, table)
        df = sampler.sample(rng)
        t1 = df.tau.times[0]
        seg_end = min(t1, horizon - clock)
        idxs = np.flatnonzero(
            (~rec_mask_done)
            & (record_times > clock)
            & (record_times <= clock + seg_end)
        )
        inner = np.append(record_times[idxs] - clock, seg_end)
        pts = _segment_positions(df, config, inner, rng)
        blocks = config.partition.blocks
        for j, k in enumerate(idxs):
            for i, b in enumerate(blocks):
                run_records[k, i] = pts[b][j]
            rec_mask_done[k] = True
        end_positions = np.stack([pts[b][-1] for b in blocks])
        if clock + t1 >= horizon:
            positions = end_positions
            clock = horizon
            break
        # apply the merge: every level takes its block's position, merged
        # blocks land at the merge location indexed by their lowest level
        before = df.forest.levels[0]
        after = df.forest.levels[1]
        merged = tuple(
            tuple(sorted(b)) for b in after.blocks if b not in before.blocks
        )
        survivors = {}
        for b in after.blocks:
            if b in before.blocks:
                survivors[min(b)] = end_positions[blocks.index(b)]
            else:
                survivors[min(b)] = df.xi[b]
        surv_cfg = SpatialConfig(
            Partition([frozenset({l}) for l in survivors]),
            {frozenset({l}): p for l, p in survivors.items()},
        )
        new_cfg = resample_levels(surv_cfg, range(1, n + 1), table, rng)
        resampled = tuple(
            sorted(set(range(1, n + 1)) - set(survivors))
        )
        positions = new_cfg.as_matrix()
        clock += t1
        epochs.append(
            EpochRecord(
                epoch=epoch,
                merge_time=clock,
                signature=merger_signature(before, after),
                merged_levels=merged,
                resampled_levels=resampled,
            )
        )
        epoch += 1
    return ReversalRun(
        record_times=record_times,
        records=run_records,
        epochs=epochs,
        initial_positions=initial_positions,
        final_positions=positions,
        meta={"n": n, "d": d, "horizon": horizon},
    )
