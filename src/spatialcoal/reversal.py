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

from .forests import DecoratedForest, Node
from .kernels import SpatialConfig, torus_bridge_offset, wrap
from .measures import LambdaMeasure, RateTable, XiMeasure, build_rate_table
from .normalization import sample_mu
from .partitions import MergerSignature, merger_signature
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


def resample_levels(
    survivors: SpatialConfig,
    levels,
    table: RateTable,
    rng: np.random.Generator,
) -> SpatialConfig:
    """Refill vacated levels by sequential conditional draws.

    ``survivors`` holds the retained positions as singleton blocks labeled by
    their level; the missing levels are redrawn one at a time in ascending
    order, each conditioned on everything already placed.
    """
    placed = {min(b): pos for b, pos in survivors.positions.items()}
    for j in sorted(set(levels) - set(placed)):
        cfg = SpatialConfig.from_points(list(placed.values()), list(placed))
        placed[j] = sample_mu(cfg, table, rng)
    labels = sorted(placed)
    return SpatialConfig.from_points([placed[l] for l in labels], labels)


def sample_stationary_positions(
    n: int, d: int, table: RateTable, rng: np.random.Generator
) -> np.ndarray:
    """An n-point draw from the stationary density, built one level at a time.

    The one-point marginal is uniform by translation invariance; the other
    levels are refilled from it by ``resample_levels``.
    """
    first = SpatialConfig.from_points([rng.uniform(size=d)])
    return resample_levels(first, range(1, n + 1), table, rng).as_matrix()


def _lineage_points(
    df: DecoratedForest,
    u: Node,
    a: np.ndarray,
    times: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Positions at sorted ``times`` of leaf lineage ``u``, which starts at
    ``a``, given the decorated forest: a torus Brownian bridge to its
    parent's merge location when it has a parent, a free Brownian motion
    when it has none.  Times are at most the forest's first merge time."""
    f = df.forest
    v = f.parent(u)
    if v is not None:
        T = df.tau.birth_time(f, v)
        target = df.xi[v] + torus_bridge_offset(a, df.xi[v], T, rng)
    out = np.empty((len(times), a.size))
    cur = a
    t_prev = 0.0
    for i, s in enumerate(times):
        if v is None:
            cur = cur + rng.normal(size=a.size) * math.sqrt(s - t_prev)
        elif s >= T:
            cur = target
        else:
            mean = cur + (s - t_prev) / (T - t_prev) * (target - cur)
            var = (s - t_prev) * (T - s) / (T - t_prev)
            cur = mean + rng.normal(size=a.size) * math.sqrt(max(var, 0.0))
        out[i] = cur
        t_prev = s
    return wrap(out)


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
    the exact coalescent to its first merge (to the horizon when nothing can
    merge), records the level positions at the record times it covers,
    refills the vacated levels, and repeats.
    """
    table = (
        spec if isinstance(spec, RateTable) else build_rate_table(spec, max(n, 2))
    )
    if record_times is None:
        record_times = np.linspace(0.0, horizon, 5)
    record_times = np.asarray(record_times, dtype=float)
    if not np.all((record_times >= 0.0) & (record_times <= horizon)):
        raise ValueError(f"record times must lie in [0, {horizon}]")
    if initial is None:
        positions = sample_stationary_positions(n, d, table, rng)
    else:
        positions = wrap(np.atleast_2d(np.asarray(initial, dtype=float)))
    initial_positions = positions.copy()
    records = np.empty((record_times.size, n, d))
    records[record_times == 0.0] = positions
    epochs: list[EpochRecord] = []
    clock = 0.0
    while clock < horizon:
        config = SpatialConfig.from_points(positions)
        df = ExactCoalescentSampler(config, table).sample(rng)
        t1 = df.tau.times[0] if df.tau.times else math.inf
        last = clock + t1 >= horizon
        # the epoch covers the record times in (clock, clock + t1], and
        # every one left when it runs to the horizon
        due = (record_times > clock) & (last | (record_times <= clock + t1))
        times = np.append(record_times[due] - clock, min(t1, horizon - clock))
        blocks = config.partition.blocks  # the forest's leaves, in order
        paths = np.stack(
            [_lineage_points(df, b, config.positions[b], times, rng) for b in blocks],
            axis=1,
        )
        records[due] = paths[:-1]
        positions = paths[-1]
        if last:
            break
        # apply the merge: every level takes its block's position, merged
        # blocks land at the merge location indexed by their lowest level
        before, after = df.forest.levels[:2]
        survivors = SpatialConfig.from_points(
            [
                positions[blocks.index(b)] if b in before.blocks else df.xi[b]
                for b in after.blocks
            ],
            [min(b) for b in after.blocks],
        )
        positions = resample_levels(survivors, range(1, n + 1), table, rng).as_matrix()
        clock += t1
        epochs.append(
            EpochRecord(
                epoch=len(epochs),
                merge_time=clock,
                signature=merger_signature(before, after),
                merged_levels=tuple(
                    tuple(sorted(b)) for b in after.blocks if b not in before.blocks
                ),
                resampled_levels=tuple(
                    sorted(set(range(1, n + 1)) - {min(b) for b in after.blocks})
                ),
            )
        )
    return ReversalRun(
        record_times=record_times,
        records=records,
        epochs=epochs,
        initial_positions=initial_positions,
        final_positions=positions,
        meta={"n": n, "d": d, "horizon": horizon},
    )
