"""Exact coalescent sampling, path filling, and the drift-SDE route."""

import math

import numpy as np
import pytest
from scipy import integrate

from spatialcoal.kernels import SpatialConfig, torus_displacement, torus_kernel
from spatialcoal.measures import LambdaMeasure, build_rate_table
from spatialcoal.sampler import (
    ExactCoalescentSampler,
    PairDriftField,
    pair_attraction,
    pair_residual_times,
    sample_decorated_forest,
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
    times = pair_residual_times(np.full((3000, 1), delta), KINGMAN2, rng)
    stat, p = ks_against_cdf(times, pair_time_cdf(delta))
    assert p > 0.005


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
    out, weighted, report = sir_sample(x, KINGMAN2, rng, batch=2000)
    assert report.ess > 10
    assert len(out) == 2000
    sir_times = np.array([df.tau.times[0] for df in out])
    stat, p = ks_against_cdf(sir_times, pair_time_cdf(0.4))
    assert p > 0.005


def test_sample_decorated_forest_dispatch():
    x = SpatialConfig.from_points([[0.1], [0.5]])
    rng = np.random.default_rng(5)
    df = sample_decorated_forest(x, KINGMAN2, rng)
    assert df.forest.m == 1
    with pytest.raises(ValueError):
        sample_decorated_forest(x, KINGMAN2, rng, scheme="bogus")


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


def test_sampler_determinism():
    x = SpatialConfig.from_points([[0.15], [0.6], [0.85]])
    a = ExactCoalescentSampler(x, KINGMAN3).sample(np.random.default_rng(42))
    b = ExactCoalescentSampler(x, KINGMAN3).sample(np.random.default_rng(42))
    assert a.forest == b.forest
    assert a.tau.times == b.tau.times
    for v in a.forest.internal_nodes:
        assert np.array_equal(a.xi[v], b.xi[v])
