"""Cannings per-generation merger probabilities, forward runs, and
genealogy extraction."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from spatialcoal.forward import (
    HARVEST_BUFFER_SPAN,
    ForwardHarvester,
    _below,
    _cannings_groups,
    OffspringLaw,
    cannings_p_rates,
    cannings_rate_table,
    cannings_simulate,
    default_warmup,
    extract_genealogy,
    kingman_pair_rate,
    lookdown_simulate,
    trace_ancestry,
)
from spatialcoal.measures import (
    LambdaMeasure,
    XiMeasure,
    build_rate_table,
    check_consistency,
)
from spatialcoal.partitions import (
    MergerSignature,
    Partition,
    count_mergers,
    signatures_for,
)
from spatialcoal.stats import _cdf, _choose


def test_offspring_law_validation():
    with pytest.raises(ValueError):
        OffspringLaw("trivial", 1)
    with pytest.raises(ValueError):
        OffspringLaw("bogus", 5)
    with pytest.raises(ValueError):
        OffspringLaw("dirac-family", 4, vector=(2, 2, 1, 0))  # sums to 5
    with pytest.raises(ValueError):
        OffspringLaw("custom-sampler", 4)
    law = OffspringLaw("pair-resampling", 5)
    assert sorted(law.base_vector()) == [0, 1, 1, 1, 2]


def test_pair_resampling_pair_probability():
    # a given pair of sampled children share a parent iff both descend from
    # the doubled individual: 2 ordered slots of N*(N-1)
    for N in (4, 10, 30):
        law = OffspringLaw("pair-resampling", N)
        p = cannings_p_rates(law, MergerSignature(2, (2,)))
        assert p.value == pytest.approx(2.0 / (N * (N - 1)), rel=1e-12)
        # no triple mergers under pair resampling
        assert cannings_p_rates(law, MergerSignature(3, (3,))).value == 0.0


def test_trivial_law_never_merges():
    law = OffspringLaw("trivial", 6)
    assert cannings_p_rates(law, MergerSignature(2, (2,))).value == 0.0


def test_dirac_family_exact_vs_monte_carlo():
    # the falling-factorial moment of cannings_p_rates, estimated over
    # 200,000 uniform permutations of the offspring vector
    N = 6
    vec = (3, 2, 1, 0, 0, 0)
    law = OffspringLaw("dirac-family", N, vector=vec)
    rng = np.random.default_rng(0)
    draws = 200000
    for sig in (
        MergerSignature(2, (2,)),
        MergerSignature(3, (3,)),
        MergerSignature(4, (2, 2)),
    ):
        nprime = sig.n_after
        pref = math.perm(N, nprime) / math.perm(N, sig.n)
        ks = list(sig.ks) + [1] * (nprime - sig.m)
        o = np.array([rng.permutation(np.array(vec)) for _ in range(draws)])
        vals = np.prod(
            [[math.perm(int(v), k) for v in o[:, j]] for j, k in enumerate(ks)],
            axis=0,
            dtype=float,
        )
        mc = pref * vals.mean()
        se = pref * vals.std(ddof=1) / math.sqrt(draws)
        ex = cannings_p_rates(law, sig)
        assert abs(mc - ex.value) < 4 * se + 1e-12


def test_cannings_rate_table_is_consistent():
    law = OffspringLaw("dirac-family", 6, vector=(3, 2, 1, 0, 0, 0))
    table = cannings_rate_table(law, T_N=10.0, n_max=5)
    assert check_consistency(table).passed


def test_sample_size_exceeding_population_rejected():
    with pytest.raises(ValueError):
        cannings_p_rates(OffspringLaw("trivial", 3), MergerSignature(4, (2,)))


def test_cannings_event_count_poisson():
    law = OffspringLaw("pair-resampling", 10)
    T_N, horizon = 30.0, 4.0
    rng = np.random.default_rng(1)
    counts = [
        cannings_simulate(law, T_N, horizon, 1, rng, warmup=1.0).times.size
        for _ in range(200)
    ]
    mean = np.mean(counts)
    expect = T_N * horizon
    z = (mean - expect) / math.sqrt(expect / 200)
    assert abs(z) < 3.5


def test_forward_run_positions_and_groups():
    law = OffspringLaw("pair-resampling", 8)
    rng = np.random.default_rng(2)
    run = cannings_simulate(law, 20.0, 2.0, 2, rng, warmup=1.0, grid_dt=0.5)
    assert run.n_levels == 8
    assert run.start_time == -2.0
    assert run.grid_times is not None and run.grid_times[0] == -2.0
    assert np.all((run.end_positions >= 0) & (run.end_positions < 1))
    for t, groups, pos in zip(run.times, run.groups, run.positions):
        assert -2.0 <= t <= 0.0
        for g in groups:
            assert len(g) == 2
            # both members of a group sit at the copied position
            assert np.array_equal(pos[g[0] - 1], pos[g[1] - 1])


def test_trace_ancestry_merges_pairs():
    # a fabricated event log: levels (1,2) merge at time -0.5, (1,3) at -1.5
    times = np.array([-1.5, -0.5])
    groups = [[(1, 3)], [(1, 2)]]
    blocks, history = trace_ancestry(times, groups, 3)
    assert len(blocks) == 1
    (bt1, _, part1, _), (bt2, _, part2, _) = history
    assert bt1 == pytest.approx(0.5)
    assert part1 == Partition([{1, 2}, {3}])
    assert bt2 == pytest.approx(1.5)
    assert part2 == Partition([{1, 2, 3}])


def test_simultaneous_groups_are_one_merge():
    # one event whose two groups merge {1, 3} and {2, 4} at once
    times = np.array([-0.5])
    groups = [[(1, 3), (2, 4)]]
    blocks, history = trace_ancestry(times, groups, 4)
    assert len(history) == 1
    bt, idx, part, levels = history[0]
    assert (bt, idx) == (0.5, 0)
    assert part == Partition([{1, 3}, {2, 4}])
    assert levels == {frozenset({1, 3}): 1, frozenset({2, 4}): 2}
    assert blocks == levels
    # the harvester reads the same event from its buffer
    rng = np.random.default_rng(0)
    h = ForwardHarvester(4, 1, 1.0, lambda r: [], rng, warmup=1.0)
    h.ev_times, h.ev_groups = [h.t - 0.5], groups
    h.ev_positions = [np.array([[0.1], [0.2], [0.1], [0.2]])]
    _, bt, part, locs = h.observe(4)
    assert bt == pytest.approx(0.5)
    assert part == Partition([{1, 3}, {2, 4}])
    assert {b: float(v[0]) for b, v in locs.items()} == {
        frozenset({1, 3}): 0.1,
        frozenset({2, 4}): 0.2,
    }


def test_xi_first_merge_signatures_match_rate_table():
    # under one Xi atom at (1/2, 1/2), four lineages first merge as (4; 3),
    # (4; 2, 2) or (4; 4), with the rate table's jump probabilities 1/2,
    # 3/8 and 1/8; a (4; 2) first merger has rate 0
    X = XiMeasure(atoms=(((0.5, 0.5), 1.0),))
    table = build_rate_table(X, 4)
    sigs = signatures_for(4)
    jumps = [count_mergers(4, sig) * table.rate(sig) for sig in sigs]
    probs = np.array(jumps) / table.total(4)
    rng = np.random.default_rng(0)
    counts = dict.fromkeys(sigs, 0)
    for _ in range(200):
        run = lookdown_simulate(X, 4, 5.0, 1, rng)
        counts[extract_genealogy(run, 4).first_merge_signature()] += 1
    obs = np.array([counts[sig] for sig in sigs])
    assert sum(obs) == 200
    assert not obs[probs == 0].any(), dict(zip(sigs, obs))
    _, p = stats.chisquare(obs[probs > 0], 200 * probs[probs > 0])
    assert p > 0.01


def test_extract_genealogy_block_structure_uniform_pairs():
    # under pair resampling each of the three pairs of a triple is equally
    # likely to merge first
    law = OffspringLaw("pair-resampling", 8)
    rng = np.random.default_rng(3)
    counts = {p: 0 for p in ((1, 2), (1, 3), (2, 3))}
    for _ in range(300):
        run = cannings_simulate(law, 28.0, 8.0, 1, rng, warmup=2.0)
        gen = extract_genealogy(run, 3)
        sig = gen.first_merge_signature()
        if sig is None:
            continue
        merged = next(
            b for b in gen.coalescent.events[0][1].blocks if len(b) >= 2
        )
        if len(merged) == 2:
            counts[tuple(sorted(merged))] += 1
    obs = np.array(list(counts.values()))
    assert obs.sum() > 200
    _, p = stats.chisquare(obs)
    assert p > 0.005


def test_extract_genealogy_paths_end_at_sample_positions():
    law = OffspringLaw("pair-resampling", 6)
    rng = np.random.default_rng(4)
    run = cannings_simulate(law, 15.0, 6.0, 2, rng, warmup=2.0)
    gen = extract_genealogy(run, 2)
    for i in (1, 2):
        b = frozenset({i})
        times, pos = gen.coalescent.paths[b]
        assert times[0] == 0.0
        assert np.array_equal(pos[0], run.end_positions[i - 1])
    with pytest.raises(ValueError):
        extract_genealogy(run, 7)


def true_ancestor_positions(run, n: int) -> dict:
    """Backward time -> (level positions then, leaf -> ancestor level), by a
    walk that moves each leaf's ancestor at every event copying it."""
    level = {i: i for i in range(1, n + 1)}
    out = {0.0: (run.end_positions, dict(level))}
    for idx in range(len(run.times) - 1, -1, -1):
        for g in run.groups[idx]:
            for leaf, lvl in level.items():
                if lvl in g:
                    level[leaf] = g[0]
        out[-float(run.times[idx])] = (run.positions[idx], dict(level))
    return out


def test_extract_genealogy_paths_follow_every_move():
    # non-merging copies move a lineage's ancestor too; reading paths at
    # the level of the last merge put 209 of 8,287 points off here
    law = OffspringLaw("pair-resampling", 8)
    rng = np.random.default_rng(4)
    off = total = 0
    for _ in range(30):
        run = cannings_simulate(law, 28.0, 8.0, 1, rng, warmup=2.0)
        cp = extract_genealogy(run, 3).coalescent
        truth = true_ancestor_positions(run, 3)
        for b, (times, pos) in cp.paths.items():
            for t, p in zip(times, pos):
                level_pos, level = truth[float(t)]
                total += 1
                off += not np.array_equal(p, level_pos[level[min(b)] - 1])
        # merge times and partitions are those of the merge history
        _, history = trace_ancestry(run.times, run.groups, 3)
        assert [(bt, part) for bt, part, _ in cp.events] == [
            (bt, part) for bt, _, part, _ in history
        ]
    assert total > 8000
    assert off == 0


def test_lookdown_kingman_groups_are_pairs():
    rng = np.random.default_rng(5)
    run = lookdown_simulate(LambdaMeasure.kingman(), 5, 2.0, 1, rng, warmup=0.5)
    for groups in run.groups:
        assert all(len(g) == 2 for g in groups)


def test_lookdown_rejects_density_parts():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="density"):
        lookdown_simulate(LambdaMeasure.beta(1.0, 1.0), 3, 1.0, 1, rng)


def test_lookdown_atom_group_sizes_binomial():
    # a single atom at xi = (0.5,): every level joins the basket with
    # probability 1/2 independently, so group sizes are Binomial(n, 1/2)
    # conditioned on >= 2
    n = 6
    X = XiMeasure(atoms=(((0.5,), 1.0),))
    rng = np.random.default_rng(6)
    sizes = []
    run = lookdown_simulate(X, n, 400.0, 1, rng, warmup=0.0)
    for groups in run.groups:
        for g in groups:
            sizes.append(len(g))
    ks = np.arange(2, n + 1)
    pmf = np.array([stats.binom.pmf(k, n, 0.5) for k in ks])
    pmf /= pmf.sum()
    obs = np.array([(np.array(sizes) == k).sum() for k in ks])
    assert obs.sum() > 300
    _, p = stats.chisquare(obs, obs.sum() * pmf)
    assert p > 0.005


def test_default_warmup_and_pair_rate():
    assert default_warmup(1.0) == 20.0
    assert default_warmup(0.1) == 100.0
    assert kingman_pair_rate(LambdaMeasure.kingman()) == 1.0
    assert kingman_pair_rate(XiMeasure(kingman_mass=0.5)) == 0.5


def test_harvester_observes_pairs():
    law = OffspringLaw("pair-resampling", 10)
    rng = np.random.default_rng(7)
    T_N = 45.0
    h = ForwardHarvester(
        10, 1, T_N, lambda r: _cannings_groups(law, r), rng, warmup=5.0
    )
    got = 0
    for _ in range(20):
        h.advance(3.0)
        sample_pos, bt, part, locs = h.observe(2)
        assert sample_pos.shape == (2, 1)
        if bt is not None:
            got += 1
            assert bt >= 0.0
            assert len(part) == 1
            assert set(locs) == {frozenset({1, 2})}
    assert got > 10


def test_harvester_observes_only_levels_that_exist():
    # a sample larger than the population has no genealogy, as in
    # extract_genealogy
    law = OffspringLaw("pair-resampling", 5)
    h = ForwardHarvester(
        5, 1, 10.0, lambda r: _cannings_groups(law, r), np.random.default_rng(3), 2.0
    )
    for n in (0, 6, 7):
        with pytest.raises(ValueError, match="invalid sample size"):
            h.observe(n)
    sample_pos, bt, part, _ = h.observe(5)
    assert sample_pos.shape == (5, 1)
    assert bt is None or {x for b in part.blocks for x in b} == set(range(1, 6))


def test_harvester_trims_a_buffer_older_than_its_span():
    # rare events over long spans: on the ninth advance every buffered event
    # is older than the span, and the trim used to read past the buffer
    h = ForwardHarvester(4, 1, 0.05, lambda r: [], np.random.default_rng(0), 1.0)
    for _ in range(9):
        h.advance(100.0)
        assert len(h.ev_times) == len(h.ev_groups) == len(h.ev_positions)
        assert all(t >= h.t - HARVEST_BUFFER_SPAN for t in h.ev_times)
    assert h.t == 901.0 and h.ev_times == []


def test_below_draws_what_integers_draws():
    # the same numbers and the same stream as Generator.integers, with other
    # draws in between, for bounds from 1 (no draw) to 2**32
    bounds = [1, 2, 3, 29, 30, 1000, 2**31 + 5, 2**32 - 1, 2**32]
    bounds += np.random.default_rng(1).integers(1, 5000, size=200).tolist()

    def draws(below, seed):
        rng = np.random.default_rng(seed)
        out = []
        for k, n in enumerate(bounds):
            out.append(below(rng, n))
            if k % 3 == 0:
                out.append(rng.normal(size=2).tolist())
            if k % 7 == 0:
                out.append(rng.permutation(5).tolist())
        return out, rng.bit_generator.state

    for seed in range(20):
        assert draws(_below, seed) == draws(lambda r, n: int(r.integers(n)), seed)


@pytest.mark.parametrize("p", [[1.0], [0.2, 0.5, 0.3], [0.45, 0.0, 0.55]])
@pytest.mark.parametrize("size", [None, 7])
def test_choose_draws_what_choice_draws(p, size):
    # the same indices and the same stream as Generator.choice, one uniform
    # per index even for a one-entry p
    p = np.array(p)
    cdf = _cdf(p)
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(10_000):
        want = a.choice(p.size, size=size, p=p)
        got = _choose(b, cdf, size)
        assert np.array_equal(got, want)
    assert a.bit_generator.state == b.bit_generator.state
    assert b.bit_generator.state != np.random.default_rng(3).bit_generator.state


def test_offspring_law_draws_are_unchanged_by_its_cached_base():
    law = OffspringLaw("dirac-family", 8, vector=(4, 2, 1, 1, 0, 0, 0, 0))
    a, b = np.random.default_rng(6), np.random.default_rng(6)
    for _ in range(50):
        got = law.sample(a)
        assert np.array_equal(got, b.permutation(np.array(law.base_vector())))
        got[:] = -1  # a caller's writes must not reach the next draw
    assert a.bit_generator.state == b.bit_generator.state


def _digest(*parts) -> str:
    """sha256 over arrays (their bytes) and other values (their repr)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _run_digest(run) -> str:
    return _digest(
        run.times,
        run.groups,
        np.array(run.positions),
        "none" if run.grid_positions is None else run.grid_positions,
        run.end_positions,
        run.start_positions,
    )


# Exact digests of forward runs: any change to the order or count of random
# draws, or to the float operations of an event, shows up here.


def test_cannings_pair_resampling_stream_is_pinned():
    law = OffspringLaw("pair-resampling", 30)
    rng = np.random.default_rng(11)
    run = cannings_simulate(law, 435.0, 1.0, 1, rng, warmup=2.0, grid_dt=0.25)
    assert run.times.size == 420 and run.grid_positions.shape == (5, 30, 1)
    assert _run_digest(run) == (
        "2d9e59228e3385573c81e72d27572518085ef1bb96edc37b6fc50f6de5459a8f"
    )


def test_cannings_dirac_family_stream_is_pinned():
    # families of 4 and 2, so every event copies two groups, in d = 2
    law = OffspringLaw("dirac-family", 8, vector=(4, 2, 1, 1, 0, 0, 0, 0))
    rng = np.random.default_rng(12)
    run = cannings_simulate(law, 20.0, 2.0, 2, rng, warmup=1.0, grid_dt=0.5)
    assert run.times.size == 43 and run.grid_positions.shape == (5, 8, 2)
    assert _run_digest(run) == (
        "2905b8aab478721da5fac1a678851553af792c7fb56d5717069495e524f0ad10"
    )


def test_lookdown_xi_stream_is_pinned():
    X = XiMeasure(kingman_mass=1.0, atoms=(((0.5, 0.25), 2.0),))
    run = lookdown_simulate(X, 4, 3.0, 1, np.random.default_rng(13), warmup=1.0)
    assert run.groups[:3] == [[(3, 4)], [(1, 3)], [(2, 3)]]
    assert run.times.size == 41
    assert _run_digest(run) == (
        "cd950dbfbf79174a9a23f711f02cc5d90d5cba300317cbd60712eacef800bd8b"
    )


def test_run_without_warmup_is_pinned_and_has_a_start():
    # no warm-up: the record starts where the run does, with no step to it;
    # start_positions used to stay None there, so n_levels raised
    rng = np.random.default_rng(15)
    run = lookdown_simulate(
        LambdaMeasure.kingman(), 4, 2.0, 1, rng, warmup=0.0, grid_dt=0.5
    )
    assert run.times.size == 13
    assert _digest(
        run.times,
        run.groups,
        np.array(run.positions),
        run.grid_positions,
        run.end_positions,
    ) == "3fff0ec85f9fc7e6ef8d9d36ea85756fc2227da4adf4a3e88d6f43969196392b"
    assert np.array_equal(run.start_positions, run.grid_positions[0])
    assert run.n_levels == 4
    extract_genealogy(run, 4)


def test_harvester_stream_is_pinned():
    law = OffspringLaw("pair-resampling", 10)
    rng = np.random.default_rng(14)
    h = ForwardHarvester(
        10, 2, 45.0, lambda r: _cannings_groups(law, r), rng, warmup=2.0
    )
    obs = []
    for _ in range(5):
        h.advance(1.5)
        pos, bt, part, locs = h.observe(3)
        cells = sorted((sorted(b), v.tobytes()) for b, v in (locs or {}).items())
        obs.append((pos.tobytes(), bt, part, cells))
    assert len(h.ev_times) == 423
    assert _digest(
        obs, h.positions, np.array(h.ev_times), h.ev_groups, np.array(h.ev_positions)
    ) == "794c479ad892e39c854634a8d34fa298b356b150f3ea75c06937d0f364596d1c"
