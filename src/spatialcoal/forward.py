"""Forward-in-time population models whose genealogies are spatial
coalescents: the spatial Cannings model and the lookdown particle system.

Both share an event format and one event step, ``_step``: at an event
time, the levels are partitioned into groups and every member of a group
copies the position of the group's lowest level.  Genealogy extraction walks
the event log backward.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .measures import LambdaMeasure, RateTable, XiMeasure, lambda_to_xi
from .partitions import MergerSignature, Partition, signatures_for
from .sampler import CoalescentPath
from .stats import _cdf, _choose


@dataclass
class OffspringLaw:
    """Exchangeable offspring numbers (O_1, ..., O_N) summing to N, as a
    uniform random permutation of a fixed vector, so every merger
    probability is exact (``cannings_p_rates``).

    Kinds: "trivial" (everyone has one offspring), "pair-resampling" (one
    uniformly chosen individual has two, another has none), "dirac-family"
    (a uniform random permutation of ``vector``).
    """

    kind: str
    N: int
    vector: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("population size must be at least 2")
        if self.kind not in ("trivial", "pair-resampling", "dirac-family"):
            raise ValueError(f"unknown offspring law {self.kind!r}")
        if self.kind == "dirac-family":
            if self.vector is None or len(self.vector) != self.N:
                raise ValueError("dirac-family requires a length-N vector")
            if any(v < 0 for v in self.vector) or sum(self.vector) != self.N:
                raise ValueError("offspring numbers must be nonnegative and sum to N")

    def base_vector(self) -> tuple[int, ...]:
        """The fixed multiset of offspring numbers that the law permutes."""
        if self.kind == "trivial":
            return (1,) * self.N
        if self.kind == "pair-resampling":
            return (2, 0) + (1,) * (self.N - 2)
        return tuple(self.vector)

    @functools.cached_property
    def _base(self) -> np.ndarray:
        return np.array(self.base_vector())

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        # permutation copies its input, so the cached base stays put
        return rng.permutation(self._base)


@dataclass
class CanningsRate:
    value: float


def _falling(x: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= x - i
    return out


def _permutation_moment(counts: dict[int, int], gs: list) -> float:
    """E[prod_i g_i(O_i)] when (O_1,...,O_N) is a uniform permutation of a
    multiset given by value -> count, evaluated over the first len(gs) slots.

    Recursion over which distinct value occupies each slot, weighting by the
    remaining count of that value.
    """
    values = sorted(counts)
    total = sum(counts.values())

    def rec(i: int, remaining: tuple[int, ...]) -> float:
        if i == len(gs):
            return 1.0
        left = total - i
        out = 0.0
        for j, v in enumerate(values):
            if remaining[j] == 0:
                continue
            gv = gs[i](v)
            if gv == 0.0:
                continue
            nxt = remaining[:j] + (remaining[j] - 1,) + remaining[j + 1 :]
            out += (remaining[j] / left) * gv * rec(i + 1, nxt)
        return out

    return rec(0, tuple(counts[v] for v in values))


def cannings_p_rates(law: OffspringLaw, sig: MergerSignature) -> CanningsRate:
    """Exact per-generation probability of a specific (n, k)-merger in an
    n-sample.

    p = ((N)_{n'} / (N)_n) * E[(O_1)_{k_1} ... (O_m)_{k_m} O_{m+1} ... O_{n'}]
    with n' = n - sum(k) + m, the expectation taken over the permutations of
    the law's base vector by ``_permutation_moment``.
    """
    N = law.N
    if sig.n > N:
        raise ValueError("sample size exceeds the population size")
    nprime = sig.n_after
    pref = _falling(N, nprime) / _falling(N, sig.n)
    gs = [
        (lambda v, k=k: float(_falling(v, k))) for k in sig.ks
    ] + [float] * (nprime - sig.m)
    counts = Counter(law.base_vector())
    return CanningsRate(pref * _permutation_moment(counts, gs))


def cannings_rate_table(law: OffspringLaw, T_N: float, n_max: int) -> RateTable:
    """Coalescent rates T_N * p^N for the genealogy of the Cannings model."""
    rates = {}
    for n in range(2, n_max + 1):
        for sig in signatures_for(n):
            rates[sig] = T_N * cannings_p_rates(law, sig).value
    return RateTable(rates=rates, n_max=n_max)


# -- Forward simulation ------------------------------------------------------


@dataclass
class ForwardRun:
    """A realized forward run over [-horizon, 0].

    ``times`` are event times; ``groups[k]`` lists the level groups of event
    k (only groups of size >= 2); ``positions[k]`` are the level positions
    immediately after event k.  Optional uniform-grid trajectories.
    """

    times: np.ndarray
    groups: list[list[tuple[int, ...]]]
    positions: list[np.ndarray]
    start_time: float
    start_positions: np.ndarray
    end_positions: np.ndarray
    grid_times: np.ndarray | None = None
    grid_positions: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_levels(self) -> int:
        return self.start_positions.shape[0]


def _below(rng: np.random.Generator, n: int) -> int:
    """``int(rng.integers(n))`` for 1 <= n <= 2**32, at a third of its cost.

    It takes numpy's own steps (Lemire's multiply and reject on the bit
    generator's ``next_uint32``, and no draw at all for n = 1), so it gives
    the same number and leaves the same stream.  It skips the argument
    handling of ``Generator.integers``, which costs more than the draw, and
    its lock: one thread per generator.
    """
    if n == 1:
        return 0
    bits = rng.bit_generator.ctypes
    m = bits.next_uint32(bits.state) * n
    if m & 0xFFFFFFFF < n:
        threshold = (2**32 - n) % n
        while m & 0xFFFFFFFF < threshold:
            m = bits.next_uint32(bits.state) * n
    return m >> 32


def _cannings_groups(
    law: OffspringLaw, rng: np.random.Generator
) -> list[tuple[int, ...]]:
    if law.kind == "trivial":
        return []
    if law.kind == "pair-resampling":
        # one level gets a second offspring slot, replacing another level
        a = _below(rng, law.N)
        b = _below(rng, law.N - 1)
        if b >= a:
            b += 1
        return [(min(a, b) + 1, max(a, b) + 1)]
    o = law.sample(rng)
    perm = rng.permutation(law.N) + 1
    groups = []
    pos = 0
    for count in o:
        if count >= 2:
            groups.append(tuple(sorted(int(v) for v in perm[pos : pos + count])))
        pos += count
    return groups


def _step(
    positions: np.ndarray, dt: float, rng: np.random.Generator, draw_groups=None
):
    """Move every level by one Brownian increment over ``dt`` and wrap it.

    At an event (``draw_groups`` given), then draw the event's groups, copy
    each group's lowest level onto its other members, and return the groups.
    """
    positions += rng.normal(0.0, math.sqrt(dt), positions.shape)
    np.mod(positions, 1.0, out=positions)
    if draw_groups is None:
        return None
    groups = draw_groups(rng)
    for g in groups:
        src = positions[g[0] - 1]
        for i in g[1:]:
            positions[i - 1] = src
    return groups


def _run_events(
    positions: np.ndarray,
    total_time: float,
    event_rate: float,
    draw_groups,
    rng: np.random.Generator,
    record_from: float,
    grid_dt: float | None,
) -> ForwardRun:
    """The forward run over [-total_time, 0], recorded from ``record_from``.

    A Poisson number of events at sorted uniform times, each one ``_step``.
    The events before ``record_from`` are a discarded warm-up; the positions
    are then stepped to ``record_from`` (the start of the record) and, with
    ``grid_dt``, to every grid time from there on, between the events.
    """
    n_events = rng.poisson(event_rate * total_time)
    times = np.sort(rng.uniform(-total_time, 0.0, size=n_events)).tolist()
    split = bisect.bisect_left(times, record_from)
    t = -total_time
    for te in times[:split]:
        _step(positions, te - t, rng, draw_groups)
        t = te
    if t < record_from:  # with no warm-up the record starts where the run does
        _step(positions, record_from - t, rng)
        t = record_from
    start_positions = positions.copy()
    rec_groups: list[list[tuple[int, ...]]] = []
    rec_pos: list[np.ndarray] = []
    grid_times, grid, grid_pos = None, [], []
    if grid_dt is not None:
        # the grid starts at record_from, where the positions already are
        grid_times = np.arange(record_from, 1e-12, grid_dt)
        grid, grid_pos = grid_times.tolist()[1:], [start_positions]
    gi = 0
    for te in times[split:]:
        while gi < len(grid) and grid[gi] <= te:
            _step(positions, grid[gi] - t, rng)
            t = grid[gi]
            grid_pos.append(positions.copy())
            gi += 1
        rec_groups.append(_step(positions, te - t, rng, draw_groups))
        t = te
        rec_pos.append(positions.copy())
    for tg in grid[gi:]:
        _step(positions, tg - t, rng)
        t = tg
        grid_pos.append(positions.copy())
    if t < 0.0:
        _step(positions, -t, rng)
    return ForwardRun(
        times=np.array(times[split:]),
        groups=rec_groups,
        positions=rec_pos,
        start_time=record_from,
        start_positions=start_positions,
        end_positions=positions.copy(),
        grid_times=grid_times,
        grid_positions=np.array(grid_pos) if grid_pos else None,
    )


def default_warmup(pair_rate: float) -> float:
    """Warm-up long enough for the genealogy to mix from i.i.d. uniform."""
    return max(20.0, 10.0 / pair_rate) if pair_rate > 0 else 20.0


def cannings_simulate(
    law: OffspringLaw,
    T_N: float,
    horizon: float,
    d: int,
    rng: np.random.Generator,
    warmup: float | None = None,
    grid_dt: float | None = None,
) -> ForwardRun:
    """Stationary-start spatial Cannings run over [-horizon, 0].

    Reproduction events at rate T_N; at each event the levels are shuffled
    into parent groups by the offspring numbers and every group copies its
    lowest member.  Brownian motion between events.  The warm-up from
    i.i.d. uniform positions is discarded.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if warmup is None:
        pair = T_N * cannings_p_rates(law, MergerSignature(2, (2,))).value
        warmup = default_warmup(pair)
    positions = rng.uniform(size=(law.N, d))
    run = _run_events(
        positions,
        warmup + horizon,
        T_N,
        lambda r: _cannings_groups(law, r),
        rng,
        -horizon,
        grid_dt,
    )
    run.meta = {"model": "cannings", "T_N": T_N, "law": law.kind, "N": law.N}
    return run


def _lookdown_event_menu(spec: LambdaMeasure | XiMeasure, n: int):
    """(total rate, list of (rate, descriptor)) for the first n levels.

    A Lambda measure goes through ``lambda_to_xi``, which rejects density parts.
    """
    if isinstance(spec, LambdaMeasure):
        spec = lambda_to_xi(spec)
    menu = []
    if spec.kingman_mass > 0 and n >= 2:
        menu.append((spec.kingman_mass * n * (n - 1) / 2.0, ("pair", None)))
    for xi, w in spec.atoms:
        dot = sum(x * x for x in xi)
        menu.append((w / dot, ("atom", xi)))
    return sum(r for r, _ in menu), menu


def lookdown_simulate(
    spec: LambdaMeasure | XiMeasure,
    n: int,
    horizon: float,
    d: int,
    rng: np.random.Generator,
    warmup: float | None = None,
    grid_dt: float | None = None,
) -> ForwardRun:
    """Lookdown particle system restricted to its first n levels.

    Pairwise lookdowns at the Kingman rate per ordered pair; for each atom,
    events at rate mass/(xi, xi) assign every level independently to basket
    b with probability xi_b (no basket with the remaining probability), and
    each nonempty basket copies its lowest level.
    """
    if n < 1:
        raise ValueError("need at least one level")
    total_rate, menu = _lookdown_event_menu(spec, n)
    # the CDFs of the pick among the menu and of each atom's basket law,
    # computed once
    rates = np.array([r for r, _ in menu])
    pick = _cdf(rates / rates.sum()) if menu else None

    def basket_law(xi) -> np.ndarray:
        probs = np.array(list(xi) + [max(0.0, 1.0 - sum(xi))])
        return _cdf(probs / probs.sum())

    baskets = [None if xi is None else basket_law(xi) for _, (_, xi) in menu]

    def draw_groups(r: np.random.Generator) -> list[tuple[int, ...]]:
        if not menu:
            return []
        k = _choose(r, pick)
        kind, xi = menu[k][1]
        if kind == "pair":
            i = _below(r, n)
            j = _below(r, n - 1)
            if j >= i:
                j += 1
            return [(min(i, j) + 1, max(i, j) + 1)]
        assign = _choose(r, baskets[k], n)
        groups = []
        for b in range(len(xi)):
            members = tuple(int(v) + 1 for v in np.flatnonzero(assign == b))
            if len(members) >= 2:
                groups.append(members)
        return groups

    if warmup is None:
        pair = kingman_pair_rate(spec)
        warmup = default_warmup(pair if pair > 0 else total_rate)
    positions = rng.uniform(size=(n, d))
    run = _run_events(
        positions, warmup + horizon, total_rate if menu else 0.0, draw_groups,
        rng, -horizon, grid_dt,
    )
    run.meta = {"model": "lookdown", "n": n}
    return run


def kingman_pair_rate(spec: LambdaMeasure | XiMeasure) -> float:
    """Rate at which a fixed pair of levels coalesces."""
    from .measures import lambda_rate, xi_rate

    if isinstance(spec, LambdaMeasure):
        return lambda_rate(spec, 2, 2)
    return xi_rate(spec, MergerSignature(2, (2,)))


# -- Genealogy extraction ----------------------------------------------------


@dataclass
class ExtractedGenealogy:
    coalescent: CoalescentPath
    fully_coalesced: bool

    def first_merge_signature(self) -> MergerSignature | None:
        if not self.coalescent.events:
            return None
        from .partitions import merger_signature

        before = self.coalescent.meta["initial_partition"]
        return merger_signature(before, self.coalescent.events[0][1])


def _backward_merges(groups: list, n: int):
    """The one backward walk of an event log, from levels 1..n at its end.

    Each block of the sample sits at the level of its ancestor.  At an event,
    the blocks at the levels of a group all move to the group's lowest level,
    and merge there when there are two or more of them.  For every event
    that moves or merges sample blocks, this yields (event index, block ->
    ancestor level after all of the event's groups, blocks the event
    created), so the disjoint groups of one event form one simultaneous
    merger; an event that only moves blocks created none.
    """
    blocks = {frozenset({i}): i for i in range(1, n + 1)}
    for idx in range(len(groups) - 1, -1, -1):
        created = []
        moved = False
        for g in groups[idx]:
            involved = [b for b, lvl in blocks.items() if lvl in g]
            if not involved:
                continue
            moved = moved or blocks[involved[0]] != g[0]
            merged = frozenset().union(*involved)
            for b in involved:
                del blocks[b]
            blocks[merged] = g[0]
            if len(involved) >= 2:
                created.append(merged)
        if created or moved:
            yield idx, dict(blocks), created


def _merges(groups: list, n: int):
    """The merging events of the backward walk of an event log."""
    return (step for step in _backward_merges(groups, n) if step[2])


def trace_ancestry(times: np.ndarray, groups: list, n: int):
    """Backward walk through an event log starting from levels 1..n at time 0.

    Returns the sample's blocks after the last merge (block -> ancestor
    level there) and the merge history, one entry per merging event:
    (backward time, event index, partition after, block -> level map).
    Simultaneous mergers of one event are one entry.
    """
    history = [
        (-float(times[idx]), idx, Partition(list(blocks)), blocks)
        for idx, blocks, _ in _merges(groups, n)
    ]
    if not history:
        return {frozenset({i}): i for i in range(1, n + 1)}, history
    return history[-1][3], history


def extract_genealogy(run: ForwardRun, n: int) -> ExtractedGenealogy:
    """The spatial coalescent of a sample of the lowest n levels at time 0.

    One ``CoalescentPath`` event per merging event of the run (so a
    multiple or simultaneous merger is one event), with each created
    block's merge location, and a path per block: its ancestor's recorded
    level positions, from its birth back to the start of the run.  The
    path follows the ancestor through every event that copies it, merging
    or not.
    """
    if n < 1 or n > run.n_levels:
        raise ValueError("invalid sample size")
    steps = {
        idx: (lv, created) for idx, lv, created in _backward_merges(run.groups, n)
    }
    initial = Partition.singletons(range(1, n + 1))
    alive = {frozenset({i}): i for i in range(1, n + 1)}
    paths = {b: [(0.0, run.end_positions[lvl - 1])] for b, lvl in alive.items()}
    events = []
    for idx in range(len(run.times) - 1, -1, -1):
        bt = -float(run.times[idx])
        pos = run.positions[idx]
        if idx in steps:
            alive, created = steps[idx]
            if created:
                merged_locs = {b: pos[alive[b] - 1].copy() for b in created}
                for b in created:
                    paths[b] = []
                events.append((bt, Partition(list(alive)), merged_locs))
        for b, lvl in alive.items():
            paths[b].append((bt, pos[lvl - 1].copy()))
    cp_paths = {
        b: (np.array([t for t, _ in rec]), np.array([p for _, p in rec]))
        for b, rec in paths.items()
    }
    cp = CoalescentPath(
        events=events,
        paths=cp_paths,
        meta={"initial_partition": initial, "model": run.meta.get("model")},
    )
    return ExtractedGenealogy(coalescent=cp, fully_coalesced=len(alive) == 1)


# -- Long-run harvesting (stationary replicates from one warm run) -----------

HARVEST_BUFFER_SPAN = 40.0  # model time of event history kept behind the present


class ForwardHarvester:
    """Weakly dependent stationary replicates from a single long forward run.

    One warm-up is paid once; genealogical observations are then harvested
    at times spaced far enough apart that their ancestral traces almost
    never overlap.  Events come at exponential gaps of mean 1/event_rate,
    each one ``_step``, the same event step as ``_run_events``.  A rolling
    buffer keeps the times, groups and post-event positions of the events
    of the last HARVEST_BUFFER_SPAN model time, so memory stays bounded.
    """

    def __init__(
        self,
        n_levels: int,
        d: int,
        event_rate: float,
        draw_groups,
        rng: np.random.Generator,
        warmup: float,
    ):
        self.mean_gap = 1.0 / event_rate
        self.draw_groups = draw_groups
        self.rng = rng
        self.t = 0.0
        self.positions = rng.uniform(size=(n_levels, d))
        self.ev_times: list[float] = []
        self.ev_groups: list[list[tuple[int, ...]]] = []
        self.ev_positions: list[np.ndarray] = []
        self.advance(warmup)

    def advance(self, span: float) -> None:
        rng, positions, draw_groups = self.rng, self.positions, self.draw_groups
        ev_times, ev_groups, ev_positions = (
            self.ev_times, self.ev_groups, self.ev_positions
        )
        t = self.t
        t_end = t + span
        while True:
            t_next = t + rng.exponential(self.mean_gap)
            if t_next > t_end:
                break
            ev_groups.append(_step(positions, t_next - t, rng, draw_groups))
            t = t_next
            ev_times.append(t)
            ev_positions.append(positions.copy())
        _step(positions, t_end - t, rng)
        self.t = t_end
        cut = bisect.bisect_left(ev_times, t_end - HARVEST_BUFFER_SPAN)
        del ev_times[:cut], ev_groups[:cut], ev_positions[:cut]

    def observe(self, n: int):
        """(sample positions now, first-merge backward time, partition after
        the first merge, merge location of each block it created) for the
        lowest n levels.  The first merge is the first merging event of the
        backward walk, with all of its simultaneous groups.

        Returns None for the merge fields if the trace leaves the buffer.
        """
        if n < 1 or n > len(self.positions):
            raise ValueError("invalid sample size")
        sample_pos = self.positions[:n].copy()
        first = next(_merges(self.ev_groups, n), None)
        if first is None:
            return sample_pos, None, None, None
        idx, blocks, created = first
        pos = self.ev_positions[idx]
        locs = {b: pos[blocks[b] - 1].copy() for b in created}
        return sample_pos, self.t - self.ev_times[idx], Partition(list(blocks)), locs
