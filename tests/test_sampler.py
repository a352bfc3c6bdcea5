"""Exact coalescent sampling, path filling, and the drift-SDE route."""

import hashlib
import itertools
import math
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from spatialcoal.kernels import (
    SpatialConfig,
    _kernel_1d,
    torus_displacement,
    torus_kernel,
    wrap,
)
from spatialcoal.forests import Forest
from spatialcoal.measures import LambdaMeasure, build_rate_table
from spatialcoal.partitions import Partition
from spatialcoal.sampler import (
    DRIFT_CUTOFF,
    DRIFT_GRID,
    SDE_STEP_CAP,
    SDE_T_MAX,
    TIME_GRID,
    ExactCoalescentSampler,
    PairDriftField,
    pair_attraction,
    pair_residual_times,
    pair_separation_run,
    sample_paths,
    sde_sample,
    sir_sample,
)
from spatialcoal.stats import ks_against_cdf, ks_two_sample

KINGMAN2 = build_rate_table(LambdaMeasure.kingman(), 2)
KINGMAN3 = build_rate_table(LambdaMeasure.kingman(), 3)


def pair_time_cdf(delta, d=1):
    """Quadrature CDF of the merge time of a Kingman pair at separation delta."""
    dvec = np.full(d, delta / math.sqrt(d))

    def dens(s):
        return math.exp(-s) * torus_kernel(2 * s, dvec)

    norm, _ = integrate.quad(dens, 0, 80, limit=200)
    grid = np.geomspace(1e-6, 80, 800)
    cum = np.concatenate(
        ([0.0], integrate.cumulative_trapezoid([dens(s) for s in grid], grid))
    )
    cum /= norm

    def cdf(t):
        return np.interp(t, grid, cum)

    return cdf


def test_pair_residual_times_match_quadrature_cdf():
    rng = np.random.default_rng(0)
    delta = 0.3
    # tracemalloc counts numpy buffers: the kernel is evaluated in blocks of
    # time cells, never over all cells x rows x images at once (600 MB here)
    tracemalloc.start()
    try:
        times = pair_residual_times(np.full((3000, 1), delta), KINGMAN2, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    stat, p = ks_against_cdf(times, pair_time_cdf(delta))
    assert p > 0.005


class ReferenceDriftField:
    """The pair drift as one grid per array, interpolated one array at a time."""

    def __init__(self, table, d):
        grid, cutoff = DRIFT_GRID, DRIFT_CUTOFF
        self.d, self.grid = d, grid
        lam = table.total(2)
        rate = table.transition_rate(
            Partition.singletons([1, 2]), Partition([{1, 2}])
        )
        freqs = np.fft.fftfreq(grid, d=1.0 / grid)
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
        self.N = np.real(np.fft.ifftn(coeff)) * grid**d
        self.gradN = [
            np.real(np.fft.ifftn(2j * math.pi * kc[c] * coeff)) * grid**d
            for c in range(d)
        ]

    def _interp(self, arr, delta):
        g = self.grid
        z = wrap(delta) * g
        i0 = np.floor(z).astype(int) % g
        frac = z - np.floor(z)
        out = 0.0
        for corner in itertools.product((0, 1), repeat=self.d):
            idx = tuple((i0[:, c] + corner[c]) % g for c in range(self.d))
            w = np.prod(
                [frac[:, c] if corner[c] else 1.0 - frac[:, c] for c in range(self.d)],
                axis=0,
            )
            out = out + w * arr[idx]
        return out

    def grad_log_N(self, delta):
        delta = np.atleast_2d(delta)
        n = self._interp(self.N, delta)
        return np.stack(
            [self._interp(self.gradN[c], delta) / n for c in range(self.d)], axis=1
        )


def reference_residual_times(deltas, table, rng):
    """The pair-law inverse CDF, one scalar kernel call per cell and axis."""
    n, d = deltas.shape
    lam = table.total(2)
    sep2 = float(np.min(np.sum(deltas**2, axis=1)))
    edges = np.geomspace(max(sep2 / 100.0, 1e-14), 60.0 / lam, 2 * TIME_GRID + 1)
    mids = np.sqrt(edges[:-1] * edges[1:])
    widths = np.diff(edges)
    w = np.empty((mids.size, n))
    for i, s in enumerate(mids):
        row = np.full(n, math.exp(-lam * s) * widths[i])
        for c in range(d):
            row = row * _kernel_1d(2.0 * s, deltas[:, c])
        w[i] = row
    cs = np.cumsum(w, axis=0)
    u = rng.uniform(size=n) * cs[-1]
    idx = (cs < u[None, :]).sum(axis=0)
    return edges[idx] + rng.uniform(size=n) * widths[idx]


def reference_separation_run(delta0, table, dt, merge_radius, n_paths, rng):
    """The pair-separation SDE over the full path set and an active mask."""
    d = delta0.size
    field = ReferenceDriftField(table, d)
    W = np.tile(delta0, (n_paths, 1)).astype(float)
    t = np.zeros(n_paths)
    out = np.full(n_paths, SDE_T_MAX)
    stopped = np.full((n_paths, d), np.nan)
    active = np.ones(n_paths, dtype=bool)
    while active.any():
        Wa = torus_displacement(W[active], np.zeros(d))
        r = np.linalg.norm(Wa, axis=1)
        done = r < merge_radius
        if done.any():
            ids = np.flatnonzero(active)[done]
            out[ids] = t[ids]
            stopped[ids] = Wa[done]
            active[ids] = False
            Wa = Wa[~done]
            r = r[~done]
            if Wa.size == 0:
                continue
        dts = np.minimum(dt, SDE_STEP_CAP * r**2)
        drift = 2.0 * field.grad_log_N(Wa)
        Wa = Wa + drift * dts[:, None] + np.sqrt(2.0 * dts)[:, None] * rng.normal(
            size=Wa.shape
        )
        ids = np.flatnonzero(active)
        W[ids] = wrap(Wa)
        t[ids] += dts
        expire = t[ids] >= SDE_T_MAX
        if expire.any():
            active[ids[expire]] = False
    hit = np.isfinite(stopped[:, 0])
    if hit.any():
        out[hit] += reference_residual_times(stopped[hit], table, rng)
    return out


def test_pair_drift_table_matches_per_array_interpolation():
    rng = np.random.default_rng(8)
    g = DRIFT_GRID
    deltas = rng.uniform(-1.0, 1.5, size=(2000, 2))
    deltas[:200] = rng.integers(-g, 2 * g, size=(200, 2)) / g  # grid nodes
    deltas[200:300] = rng.choice([0.5, -0.5, 0.0, -0.25], size=(100, 2))
    deltas[300:400] = -rng.uniform(0.0, 0.5, size=(100, 2))
    deltas[400:500] = 1.0 - rng.uniform(0.0, 1e-12, size=(100, 2))
    deltas[500:520] = np.nextafter(1.0, 0.0)
    got = PairDriftField(KINGMAN2, 2).grad_log_N(deltas)
    assert np.array_equal(got, ReferenceDriftField(KINGMAN2, 2).grad_log_N(deltas))


def test_pair_residual_times_match_per_cell_loop():
    rng = np.random.default_rng(9)
    for d in (1, 2):
        deltas = rng.uniform(-0.5, 0.5, size=(60, d))
        got = pair_residual_times(deltas, KINGMAN2, np.random.default_rng(d))
        want = reference_residual_times(deltas, KINGMAN2, np.random.default_rng(d))
        assert np.array_equal(got, want)


def test_pair_separation_run_matches_masked_loop():
    args = (np.array([0.25, 0.1]), KINGMAN2, 1e-3, 2e-2, 8)
    got = pair_separation_run(*args, rng=np.random.default_rng(0))
    want = reference_separation_run(*args, rng=np.random.default_rng(0))
    assert np.array_equal(got, want)


def test_exact_sampler_merge_times_match_pair_law():
    delta = 0.25
    x = SpatialConfig.from_points([[0.1], [0.1 + delta]])
    sampler = ExactCoalescentSampler(x, KINGMAN2)
    rng = np.random.default_rng(1)
    times = np.array([sampler.sample(rng).tau.times[0] for _ in range(2500)])
    stat, p = ks_against_cdf(times, pair_time_cdf(delta))
    assert p > 0.005


def test_exact_sampler_merge_locations():
    # conditional on the merge time, the merge location density is the
    # normalized product of two heat kernels; test its distribution by a
    # chi-squared over bins using samples at similar merge times
    delta = 0.4
    x = SpatialConfig.from_points([[0.1], [0.1 + delta]])
    sampler = ExactCoalescentSampler(x, KINGMAN2)
    rng = np.random.default_rng(2)
    locs, taus = [], []
    for _ in range(4000):
        df = sampler.sample(rng)
        locs.append(df.xi[df.forest.roots[0]][0])
        taus.append(df.tau.times[0])
    locs, taus = np.array(locs), np.array(taus)
    # marginal check: by symmetry of the endpoints, the merge location is
    # symmetric about the midpoint 0.3
    s = torus_displacement(locs, 0.3)
    stat, p = ks_two_sample(s, -s)
    assert p > 0.005


def test_sample_paths_endpoints_and_wrap():
    x = SpatialConfig.from_points([[0.2], [0.7]])
    sampler = ExactCoalescentSampler(x, KINGMAN2)
    rng = np.random.default_rng(3)
    df = sampler.sample(rng)
    horizon = df.tau.times[-1] + 0.5
    cp = sample_paths(df, x, horizon, grid_dt=0.01, rng=rng)
    for u in df.forest.leaves:
        times, pos = cp.paths[u]
        assert times[0] == 0.0
        assert np.allclose(pos[0], x.positions[u])
        assert np.all((pos >= 0.0) & (pos < 1.0))
        # leaf branches end at the parent's merge location
        parent = df.forest.parent(u)
        assert np.allclose(pos[-1], df.xi[parent])
    root = df.forest.roots[0]
    rt, rp = cp.paths[root]
    assert rt[-1] == pytest.approx(horizon)
    state = cp.state_at(df.tau.times[0] / 2)
    assert state.n == 2
    assert cp.partition_at(horizon).blocks == (frozenset({1, 2}),)
    with pytest.raises(ValueError):
        sample_paths(df, x, df.tau.times[-1] - 1e-9, grid_dt=0.01, rng=rng)


def test_sir_matches_exact_on_merge_times():
    x = SpatialConfig.from_points([[0.1], [0.5]])
    rng = np.random.default_rng(4)
    out, report = sir_sample(x, KINGMAN2, rng, batch=2000)
    assert report.ess > 10
    assert len(out) == 2000
    sir_times = np.array([df.tau.times[0] for df in out])
    stat, p = ks_against_cdf(sir_times, pair_time_cdf(0.4))
    assert p > 0.005


def test_pair_drift_field_matches_attraction_direction():
    field = PairDriftField(KINGMAN2, d=2)
    rng = np.random.default_rng(6)
    deltas = rng.uniform(-0.3, 0.3, size=(20, 2))
    g = field.grad_log_N(deltas)
    a = pair_attraction(deltas, KINGMAN2)
    # both fields point from the lineage toward its partner; compare
    # directions (the attraction is unnormalized)
    for gi, ai in zip(g, a):
        cos = gi @ ai / (np.linalg.norm(gi) * np.linalg.norm(ai))
        assert cos > 0.99


def test_pair_drift_field_over_budget_fails_fast():
    # a 512^3 grid would need 1 GiB per float array; it must be refused
    # before anything is allocated
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="over the budget"):
        PairDriftField(KINGMAN2, d=3)
    assert time.perf_counter() - t0 < 0.5


def test_pair_attraction_inverse_r_blowup():
    rs = np.geomspace(0.02, 0.1, 6)
    deltas = np.column_stack([rs, np.zeros_like(rs)])
    mags = np.linalg.norm(pair_attraction(deltas, KINGMAN2), axis=1)
    slope = np.polyfit(np.log(rs), np.log(mags), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.2)


def test_sde_sample_merges_and_validates():
    x = SpatialConfig.from_points([[0.3, 0.3], [0.36, 0.3]])
    rng = np.random.default_rng(7)
    cp = sde_sample(x, KINGMAN2, dt=5e-4, merge_radius=2e-2, rng=rng, t_max=30.0)
    assert len(cp.events) == 1
    with pytest.raises(ValueError):
        sde_sample(SpatialConfig.from_points([[0.1], [0.5]]), KINGMAN2, 1e-3, 1e-2, rng)
    with pytest.raises(ValueError):
        sde_sample(
            SpatialConfig.from_points([[0.3, 0.3], [0.301, 0.3]]),
            KINGMAN2,
            1e-3,
            1e-2,
            rng,
        )


def test_exact_sampler_rejects_table_too_small():
    # a table built for pairs holds no three-lineage rates; reading them as
    # zero would make three points absorbing and draw the trivial forest
    x = SpatialConfig.from_points([[0.1], [0.4], [0.7]])
    with pytest.raises(ValueError, match="at most 2 lineages"):
        ExactCoalescentSampler(x, KINGMAN2)


def test_gap_tables_beyond_two_merges_name_the_sir_route():
    x = SpatialConfig.from_points([[0.1], [0.4], [0.7]])
    sampler = ExactCoalescentSampler(x, KINGMAN3)
    deep = Forest(
        (
            Partition.singletons([1, 2, 3, 4]),
            Partition([{1, 2}, {3}, {4}]),
            Partition([{1, 2, 3}, {4}]),
            Partition([{1, 2, 3, 4}]),
        )
    )
    with pytest.raises(NotImplementedError) as err:
        sampler._gap_table(deep)
    assert "sir_sample" in str(err.value)
    assert "sample-coalescent --method sir" in str(err.value)


def test_sampler_refuses_deeper_forests_before_weighing_them():
    # Kingman at n = 4: only three-merge forests carry weight, so every draw
    # would fail; the constructor used to weigh them all first, for 3.3 s
    x = SpatialConfig.from_points([[0.1], [0.3], [0.55], [0.8]])
    table = build_rate_table(LambdaMeasure.kingman(), 4)
    t0 = time.perf_counter()
    with pytest.raises(NotImplementedError, match="sir_sample"):
        ExactCoalescentSampler(x, table)
    assert time.perf_counter() - t0 < 0.5


FAULT_PROBE = """
import resource
import numpy as np
from spatialcoal.kernels import SpatialConfig
from spatialcoal.measures import LambdaMeasure, build_rate_table
from spatialcoal.sampler import ExactCoalescentSampler

table = build_rate_table(LambdaMeasure.kingman(), 3)
rng = np.random.default_rng(0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    x = SpatialConfig.from_points(rng.uniform(size=(3, 1)))
    sampler = ExactCoalescentSampler(x, table)
    for f in sampler.forests:
        if not f.is_trivial:
            sampler._gap_table(f)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="glibc mmap threshold"
)
def test_cold_gap_tables_reuse_heap_pages():
    # each gap table contracts ~270 KB Fourier temporaries; unless glibc's
    # mmap threshold has been raised they are mapped and faulted in afresh,
    # about 88,000 minor faults here against about 500
    out = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE],
        cwd=Path(__file__).resolve().parents[1] / "src",
        capture_output=True,
        text=True,
        check=True,
    )
    assert int(out.stdout) < 5000


def test_sampler_determinism():
    x = SpatialConfig.from_points([[0.15], [0.6], [0.85]])
    a = ExactCoalescentSampler(x, KINGMAN3).sample(np.random.default_rng(42))
    b = ExactCoalescentSampler(x, KINGMAN3).sample(np.random.default_rng(42))
    assert a.forest == b.forest
    assert a.tau.times == b.tau.times
    for v in a.forest.internal_nodes:
        assert np.array_equal(a.xi[v], b.xi[v])


def _cold_draws_digest(n: int, d: int, seed: int, draws: int = 200) -> str:
    """sha256 over the forest, times and locations of ``draws`` draws, each
    from a new sampler at new uniform points."""
    table = build_rate_table(LambdaMeasure.kingman(), n)
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for _ in range(draws):
        x = SpatialConfig.from_points(rng.uniform(size=(n, d)))
        df = ExactCoalescentSampler(x, table).sample(rng)
        levels = [sorted(sorted(b) for b in level.blocks) for level in df.forest.levels]
        h.update(repr(levels).encode())
        h.update(np.array(df.tau.times).tobytes())
        for v in sorted(df.xi.locs, key=sorted):
            h.update(df.xi[v].tobytes())
    return h.hexdigest()


# Exact digests of cold-sampler draws: a gap-table cell that moves, or any
# change to the order or count of random draws, shows up here.


def test_cold_sampler_stream_is_pinned_n3_d1():
    assert _cold_draws_digest(3, 1, 7) == (
        "1be2ada8bb481af6a94aeecea21a31f840f8748e31275f541280b092db8c2a76"
    )


def test_cold_sampler_stream_is_pinned_n2_d2():
    assert _cold_draws_digest(2, 2, 8) == (
        "40954db6b353d2f31f3090d3ab1791e913d5b3bbcbffa369c4ba2af401c98378"
    )
