"""Exact coalescent sampling, path filling, and the drift-SDE route."""

import hashlib
import itertools
import json
import math
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import k0, k1

from spatialcoal.kernels import (
    SpatialConfig,
    _kernel_1d,
    torus_displacement,
    torus_kernel,
    wrap,
)
from spatialcoal.forests import (
    DecoratedForest,
    Forest,
    SpaceDecoration,
    TimeDecoration,
)
from spatialcoal.measures import LambdaMeasure, RateTable, build_rate_table
from spatialcoal.normalization import grad_log_N_spectral
from spatialcoal.partitions import MergerSignature, Partition
from spatialcoal.sampler import (
    DRIFT_GRID,
    DRIFT_WINDOW,
    SDE_STEP_CAP,
    SDE_T_MAX,
    TIME_GRID,
    ExactCoalescentSampler,
    PairDriftField,
    pair_residual_times,
    pair_separation_run,
    sample_paths,
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


def bessel_pair(deltas, lam):
    """N and grad N of a pair merging at rate lam, at displacements (P, 2),
    by the image sum N = lam / (2 pi) sum_kappa K_0(sqrt(lam) |delta + kappa|)
    over the images within 36 / sqrt(lam), whose tail is below 1e-15."""
    root = math.sqrt(lam)
    reach = math.ceil(36.0 / root)
    ks = np.arange(-reach, reach + 1)
    kappa = np.stack(np.meshgrid(ks, ks, indexing="ij"), axis=-1).reshape(-1, 2)
    kappa = kappa[np.hypot(kappa[:, 0], kappa[:, 1]) <= reach]
    n = np.zeros(len(deltas))
    grad = np.zeros((len(deltas), 2))
    for k in kappa:
        z = deltas + k
        rho = np.hypot(z[:, 0], z[:, 1])
        n += k0(root * rho)
        grad -= (root * k1(root * rho) / rho)[:, None] * z
    return lam / (2.0 * math.pi) * n, lam / (2.0 * math.pi) * grad


def pair_table(lam):
    return RateTable({MergerSignature(2, (2,)): lam}, n_max=2)


@pytest.mark.parametrize("lam", [1.0, 30.0, 100.0])
def test_pair_drift_table_is_exact_at_its_nodes(lam):
    # in one quadrant, which stands for the grid by symmetry: every node up
    # to two past the short part's window, and every eighth node, the axes
    # and x = 1/2 included
    g = DRIFT_GRID
    near = np.arange(0, DRIFT_WINDOW + 3)
    far = np.arange(0, g // 2 + 1, 8)
    idx = np.concatenate(
        [
            np.stack(np.meshgrid(near, near, indexing="ij"), -1).reshape(-1, 2),
            np.stack(np.meshgrid(far, far, indexing="ij"), -1).reshape(-1, 2),
        ]
    )
    idx = idx[np.any(idx != 0, axis=1)]  # N is infinite at the origin
    n, grad = bessel_pair(idx / g, lam)
    rows = PairDriftField(pair_table(lam), 2).table[idx[:, 0] * g + idx[:, 1]]
    assert np.max(np.abs(rows[:, 0] - n) / n) <= 1e-12
    # the gradient against its own size plus sqrt(lam) N, its size on N's
    # length scale 1 / sqrt(lam): FFT rounding leaves about 1e-16 of the
    # column's peak, 2.4e-13 far from the origin at lam = 100, which is up
    # to 7e-12 of |grad N| beside x = 1/2, where grad N vanishes
    scale = np.linalg.norm(grad, axis=1) + math.sqrt(lam) * n
    assert np.max(np.linalg.norm(rows[:, 1:] - grad, axis=1) / scale) <= 1e-12


def test_pair_drift_lookup_is_within_bilinear_error():
    # 400 separations log-uniform in [0.005, 0.5] at uniform angles; the
    # worst case is bilinear error at 2.5 cells (3.7% over 3,000 points at
    # separations 0.005 to 0.0075)
    rng = np.random.default_rng(0)
    r = np.exp(rng.uniform(math.log(0.005), math.log(0.5), 400))
    angle = rng.uniform(0.0, 2.0 * math.pi, 400)
    deltas = np.column_stack([r * np.cos(angle), r * np.sin(angle)])
    n, grad = bessel_pair(deltas, 1.0)
    want = grad / n[:, None]
    got = PairDriftField(KINGMAN2, 2).grad_log_N(deltas)
    err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
    assert np.median(err) <= 2e-4
    assert err.max() <= 0.04


def test_pair_drift_table_blows_up_like_inverse_r():
    # |grad N| on the first axis at drift-scaling's nodes
    nodes = np.round(np.geomspace(0.02, 0.1, 8) * DRIFT_GRID).astype(int)
    table = PairDriftField(KINGMAN2, 2).table
    mags = np.linalg.norm(table[nodes * DRIFT_GRID, 1:], axis=1)
    slope = np.polyfit(np.log(nodes / DRIFT_GRID), np.log(mags), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.2)


@pytest.mark.xfail(
    strict=True,
    reason="the d = 2 Fourier sum of grad N does not converge along an axis; "
    "at cutoff 64 it is 0.506, 0.500 and 0.009 off at these displacements",
)
def test_spectral_pair_gradient_matches_image_sum():
    # grad_log_N_spectral is gradient-vs-fd's gradient; 1e-3 is that check's gate
    for delta in ([0.3, 0.0], [0.1, 0.0], [0.25, 0.1]):
        x = SpatialConfig.from_points([[0.2, 0.3], [0.2 + delta[0], 0.3 + delta[1]]])
        got = grad_log_N_spectral(x, KINGMAN2, cutoff=64)[x.partition.blocks[1]]
        n, grad = bessel_pair(np.array([delta]), 1.0)
        want = grad[0] / n[0]
        assert np.linalg.norm(got - want) <= 1e-3 * np.linalg.norm(want)


class ReferenceDriftField:
    """The production drift table as one grid per column, interpolated one
    column at a time."""

    def __init__(self, table):
        g = DRIFT_GRID
        columns = PairDriftField(table, 2).table.reshape(g, g, 3)
        self.N = columns[..., 0]
        self.gradN = [columns[..., 1], columns[..., 2]]

    def _interp(self, arr, delta):
        g = DRIFT_GRID
        z = wrap(delta) * g
        i0 = np.floor(z).astype(int) % g
        frac = z - np.floor(z)
        out = 0.0
        for corner in itertools.product((0, 1), repeat=2):
            idx = tuple((i0[:, c] + corner[c]) % g for c in range(2))
            w = np.prod(
                [frac[:, c] if corner[c] else 1.0 - frac[:, c] for c in range(2)],
                axis=0,
            )
            out = out + w * arr[idx]
        return out

    def grad_log_N(self, delta):
        delta = np.atleast_2d(delta)
        n = self._interp(self.N, delta)
        return np.stack(
            [self._interp(self.gradN[c], delta) / n for c in range(2)], axis=1
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
    field = ReferenceDriftField(table)
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
    assert np.array_equal(got, ReferenceDriftField(KINGMAN2).grad_log_N(deltas))


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


def separation_run(delta0, seed):
    """pair_separation_run at drift-scaling's step, merge radius and path
    count, and the sha256 of its times and the generator's final state."""
    rng = np.random.default_rng(seed)
    out = pair_separation_run(np.array(delta0), KINGMAN2, 1e-4, 5e-3, 50, rng)
    h = hashlib.sha256(out.tobytes())
    h.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
    return out, h.hexdigest()


# sha256 of drift-scaling's sde-pair-time-ks run per seed
SEPARATION_DIGESTS = {
    3: "af7460eb9eacf639dcced44be0853bb906979099b8da334d6db190dbf88b7546",
    5: "717735e5f33fc2d43bccdbb0f31c089cd62ccc3bc18d2dd9891c4cc970ddb7ee",
    11: "1de0ae16d32b99fb6cf92b454defce3201ae662c71c3b4554aa7f6bb3e82c24a",
}


@pytest.mark.parametrize("seed", sorted(SEPARATION_DIGESTS))
def test_pair_separation_run_stream_is_pinned(seed):
    # every time and every draw of drift-scaling's SDE, bit for bit
    assert separation_run((0.25, 0.1), seed)[1] == SEPARATION_DIGESTS[seed]


def test_pair_separation_run_censors_paths_at_t_max(monkeypatch):
    # near the merge radius some paths stop and some expire at SDE_T_MAX
    monkeypatch.setattr("spatialcoal.sampler.SDE_T_MAX", 0.02)
    out, digest = separation_run((0.05, 0.02), 3)
    assert 0 < np.sum(out == 0.02) < out.size
    assert np.all(out[out != 0.02] > 0.0)
    assert digest == "2189b29b63d94571f79509295c63fb094ace94e368d0084d04a263497e1fccb4"


def test_pair_drift_field_is_two_dimensional():
    with pytest.raises(ValueError, match="d = 2"):
        PairDriftField(KINGMAN2, d=1)
    with pytest.raises(ValueError, match="d = 2"):
        pair_separation_run(
            np.array([0.25]), KINGMAN2, 1e-4, 5e-3, 4, np.random.default_rng(0)
        )


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


def test_sample_paths_grids_stop_at_their_end_times():
    # np.arange(0.3 + 0.01, 0.38, 0.01) on the cherry's branch and
    # np.arange(0.38 + 0.01, 0.46, 0.01) on the root each end past their
    # stop by rounding
    cherry, root = frozenset({1, 2}), frozenset({1, 2, 3})
    f = Forest(
        (
            Partition.singletons([1, 2, 3]),
            Partition([cherry, {3}]),
            Partition([root]),
        )
    )
    xi = SpaceDecoration({cherry: np.array([0.15]), root: np.array([0.4])})
    df = DecoratedForest(f, TimeDecoration((0.3, 0.38)), xi)
    x = SpatialConfig.from_points([[0.1], [0.2], [0.6]])
    cp = sample_paths(df, x, 0.46, grid_dt=0.01, rng=np.random.default_rng(0))
    for u, (times, pos) in cp.paths.items():
        end = 0.46 if u == root else df.tau.birth_time(f, f.parent(u))
        assert times[0] == df.tau.birth_time(f, u)
        assert times[-1] == end
        assert np.all(np.diff(times) >= 0.0)
        assert np.all(np.isfinite(pos))


def test_sir_matches_exact_on_merge_times():
    x = SpatialConfig.from_points([[0.1], [0.5]])
    rng = np.random.default_rng(4)
    out, report = sir_sample(x, KINGMAN2, rng, batch=2000)
    assert report.ess > 10
    assert len(out) == 2000
    sir_times = np.array([df.tau.times[0] for df in out])
    stat, p = ks_against_cdf(sir_times, pair_time_cdf(0.4))
    assert p > 0.005


def test_pair_drift_field_over_budget_fails_fast():
    # a 512^3 grid would need 1 GiB per float array; it must be refused
    # before anything is allocated
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="over the budget"):
        PairDriftField(KINGMAN2, d=3)
    assert time.perf_counter() - t0 < 0.5


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
