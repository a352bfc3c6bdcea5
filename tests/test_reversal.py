"""The coalescent with level resampling: refilling, constancy, records."""

import numpy as np
import pytest
from scipy import stats

from spatialcoal.kernels import SpatialConfig
from spatialcoal.measures import LambdaMeasure, build_rate_table
from spatialcoal.normalization import mu_density_grid
from spatialcoal.reversal import (
    resample_levels,
    sample_stationary_positions,
    simulate_reversal,
)
from spatialcoal.stats import _pearson

KINGMAN3 = build_rate_table(LambdaMeasure.kingman(), 3)


def chi2_counts(observed, expected) -> tuple[float, float]:
    """Pearson chi-square of observed counts against expected counts.

    Expected counts are rescaled to the observed total; cells below an
    expected count of 5 are pooled into their neighbor.
    """
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    expected = expected * observed.sum() / expected.sum()
    obs, exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs.append(acc_o)
            exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and obs:
        obs[-1] += acc_o
        exp[-1] += acc_e
    return _pearson(np.array(obs), np.array(exp), len(obs) - 1)


def test_chi2_counts_pools_small_cells():
    obs = np.array([50, 48, 52, 1, 2])
    exp = np.array([50, 50, 50, 1.5, 1.5])
    stat, p = chi2_counts(obs, exp)
    assert np.isfinite(stat) and 0.0 <= p <= 1.0
    # a clearly wrong expectation is rejected
    _, p_bad = chi2_counts(np.array([100, 10]), np.array([55, 55]))
    assert p_bad < 1e-6


def test_chi2_counts_matches_scipy():
    # no cell pooled: the same Pearson sum as scipy's chisquare
    obs = np.array([50, 48, 52, 30, 20])
    exp = np.array([1.0, 1.0, 1.0, 0.6, 0.4])
    stat, p = chi2_counts(obs, exp)
    ref = stats.chisquare(obs, exp * obs.sum() / exp.sum())
    assert stat == ref.statistic
    assert abs(p - ref.pvalue) <= 1e-13


def test_resample_levels_keeps_survivors():
    surv = SpatialConfig.from_points([[0.2], [0.8]], labels=[1, 3])
    rng = np.random.default_rng(0)
    out = resample_levels(surv, range(1, 4), KINGMAN3, rng)
    assert out.n == 3
    mat = out.as_matrix()
    assert mat[0, 0] == pytest.approx(0.2)
    assert mat[2, 0] == pytest.approx(0.8)
    assert 0.0 <= mat[1, 0] < 1.0


def test_resampled_level_matches_conditional_density():
    surv = SpatialConfig.from_points([[0.2], [0.6]], labels=[1, 2])
    rng = np.random.default_rng(1)
    draws = np.array(
        [
            resample_levels(surv, range(1, 4), KINGMAN3, rng).as_matrix()[2, 0]
            for _ in range(1500)
        ]
    )
    grid = 32
    dens = mu_density_grid(surv, KINGMAN3, grid=grid)
    obs = np.histogram(draws, bins=grid, range=(0.0, 1.0))[0]
    expected = dens / dens.sum() * draws.size
    stat, p = chi2_counts(obs, expected)
    assert p > 0.005


def test_level_count_constant_and_clock_increasing():
    rng = np.random.default_rng(2)
    run = simulate_reversal(LambdaMeasure.kingman(), 3, 4.0, 1, rng)
    assert run.records.shape == (5, 3, 1)
    assert run.initial_positions.shape == (3, 1)
    assert run.final_positions.shape == (3, 1)
    assert np.all((run.records >= 0.0) & (run.records < 1.0))
    merge_times = [e.merge_time for e in run.epochs]
    assert merge_times == sorted(merge_times)
    assert all(0.0 < t < 4.0 for t in merge_times)
    for e in run.epochs:
        # vacated levels are exactly the non-minimal members of merged groups
        vacated = sorted(
            lvl for grp in e.merged_levels for lvl in grp[1:]
        )
        assert sorted(e.resampled_levels) == vacated


def test_reversal_with_explicit_initial_positions():
    rng = np.random.default_rng(3)
    init = np.array([[0.1], [0.5], [0.9]])
    run = simulate_reversal(
        KINGMAN3, 3, 2.0, 1, rng, record_times=[0.0, 1.0, 2.0], initial=init
    )
    assert np.allclose(run.records[0], init)
    assert np.allclose(run.initial_positions, init)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("record_times", [[0.0, 0.5, 2.0], [-0.1, 0.5]])
def test_record_times_outside_horizon_are_rejected(n, record_times):
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match="record times"):
        simulate_reversal(KINGMAN3, n, 1.0, 1, rng, record_times=record_times)


def test_single_level_is_free_brownian_motion():
    # with one level nothing ever merges; the position stays uniform
    rng = np.random.default_rng(4)
    table = build_rate_table(LambdaMeasure.kingman(), 2)
    finals = np.array(
        [
            simulate_reversal(table, 1, 1.0, 1, rng).final_positions[0, 0]
            for _ in range(800)
        ]
    )
    stat, p = stats.kstest(finals, "uniform")
    assert p > 0.005


def test_stationary_positions_pair_law():
    # the conditional second point given the first follows the pair
    # resampling density centered at the first point
    rng = np.random.default_rng(5)
    table = build_rate_table(LambdaMeasure.kingman(), 2)
    seps = []
    for _ in range(1000):
        pts = sample_stationary_positions(2, 1, table, rng)
        seps.append((pts[1, 0] - pts[0, 0]) % 1.0)
    anchor = SpatialConfig.from_points([[0.0]])
    grid = 32
    dens = mu_density_grid(anchor, table, grid=grid)
    obs = np.histogram(seps, bins=grid, range=(0.0, 1.0))[0]
    expected = dens / dens.sum() * len(seps)
    stat, p = chi2_counts(obs, expected)
    assert p > 0.005


def test_reversal_stream_is_pinned():
    # exact values of one Kingman run: any change to the order or count of
    # random draws in the epoch loop shows up here
    rng = np.random.default_rng(20)
    run = simulate_reversal(LambdaMeasure.kingman(), 3, 2.0, 1, rng)
    assert run.records.tolist() == [
        [[0.2800759626301593], [0.4463187792218204], [0.5020530196310484]],
        [[0.9681777788730115], [0.8210671528848387], [0.8299660419777174]],
        [[0.331106338973203], [0.34626286166269293], [0.3185021319850342]],
        [[0.5555254351343528], [0.4432676958960614], [0.8386553151128799]],
        [[0.29916928425428624], [0.8828874582165853], [0.9001730345214325]],
    ]
    assert [e.merge_time for e in run.epochs] == [
        0.01592815450907607,
        0.06929296265538107,
        0.1490308225467964,
        0.4329981544577545,
        0.5469372385191313,
    ]
