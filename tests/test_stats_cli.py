"""Statistical helpers, RNG stream stability, and the command-line surface."""

import filecmp
import json

import numpy as np
import pytest
from scipy import stats

from spatialcoal.cli import main
from spatialcoal.kernels import SpatialConfig
from spatialcoal.measures import LambdaMeasure, build_rate_table
from spatialcoal.normalization import normalization_N, pair_normalization_1d
from spatialcoal.stats import (
    _kolmogorov_sf,
    chi2_table,
    energy_distance_test,
    fit_loglog_slope,
    ks_against_cdf,
    ks_two_sample,
    make_rng,
    spawn_rngs,
)


def test_ks_two_sample_calibration():
    rng = np.random.default_rng(0)
    a = rng.normal(size=2000)
    b = rng.normal(size=2000)
    _, p_null = ks_two_sample(a, b)
    assert p_null > 0.005
    _, p_alt = ks_two_sample(a, b + 0.5)
    assert p_alt < 1e-6
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])
    with pytest.raises(ValueError):
        ks_two_sample([0.0], [1.0])


def test_ks_against_cdf():
    rng = np.random.default_rng(1)
    u = rng.uniform(size=1500)
    _, p = ks_against_cdf(u, lambda x: np.clip(x, 0.0, 1.0))
    assert p > 0.005
    _, p_bad = ks_against_cdf(u**2, lambda x: np.clip(x, 0.0, 1.0))
    assert p_bad < 1e-6


def test_energy_distance_null_and_alternative():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(150, 2))
    b = rng.normal(size=(150, 2))
    _, p = energy_distance_test(a, b, rng)
    assert p > 0.01
    _, p_alt = energy_distance_test(a, b + 0.8, rng)
    assert p_alt < 0.02
    # 1-d input is accepted as a column
    _, p1 = energy_distance_test(rng.normal(size=100), rng.normal(size=100), rng)
    assert p1 > 0.005


def ks_tolerance(n: int) -> float:
    # up to n = 140 scipy's law is exact too; above it scipy sums the
    # asymptotic Pelz-Good series where this package takes Durbin's matrix
    return 1e-13 if n <= 140 else 1e-5


@pytest.mark.parametrize("n", [2, 4, 15, 30, 75, 140, 150, 1000, 10000])
def test_kolmogorov_sf_matches_scipy(n):
    # D across (0, 1], dense near 0, through every branch of the dispatch
    ds = np.concatenate(
        [np.geomspace(0.1 / n, 1.0, 60), np.linspace(0.0025, 1.0, 400)]
    )
    got = np.array([_kolmogorov_sf(n, d) for d in ds], dtype=float)
    want = stats.kstwo.sf(ds, n)
    assert np.abs(got - want).max() <= ks_tolerance(n)


@pytest.mark.parametrize(
    "sizes", [(30, 30), (150, 150), (400, 400), (7, 12), (60, 200), (1000, 333)]
)
def test_ks_two_sample_matches_scipy(sizes):
    rng = np.random.default_rng(sum(sizes))
    n = round(sizes[0] * sizes[1] / sum(sizes))
    for shift in (0.0, 0.2, 0.6):
        # rounding to one decimal leaves many ties within and across samples
        a = np.round(rng.normal(size=sizes[0]), 1)
        b = np.round(rng.normal(shift, size=sizes[1]), 1)
        stat, p = ks_two_sample(a, b)
        ref = stats.ks_2samp(a, b, method="asymp")
        assert stat == ref.statistic
        assert abs(p - ref.pvalue) <= ks_tolerance(n)


@pytest.mark.parametrize("n", [2, 15, 75, 140, 150, 1000])
def test_ks_against_cdf_matches_scipy(n):
    rng = np.random.default_rng(n)

    def cdf(x):
        return np.clip(x, 0.0, 1.0)

    for power in (1.0, 1.2, 2.0):
        u = rng.uniform(size=n) ** power
        stat, p = ks_against_cdf(u, cdf)
        ref = stats.ks_1samp(u, cdf)
        assert stat == ref.statistic
        assert abs(p - ref.pvalue) <= ks_tolerance(n)


@pytest.mark.parametrize(
    "table",
    [
        [[10, 12], [14, 5]],
        [[3, 40], [7, 30]],
        [[50, 50], [50, 50]],
        [[10, 20, 30], [15, 12, 40]],
        [[48, 61, 1], [40, 70, 3]],
    ],
)
def test_chi2_table_matches_scipy(table):
    # 2x2 tables take Yates' correction, 2x3 tables do not
    stat, p = chi2_table(table)
    ref = stats.chi2_contingency(table)
    assert stat == ref.statistic
    assert abs(p - ref.pvalue) <= 1e-13
    with pytest.raises(ValueError):
        chi2_table([[0, 4], [0, 7]])


def test_fit_loglog_slope_recovers_power_law():
    r = np.geomspace(0.01, 1.0, 20)
    y = 3.0 * r**-1.7
    slope, intercept = fit_loglog_slope(r, y)
    assert slope == pytest.approx(-1.7, abs=1e-12)
    assert intercept == pytest.approx(np.log(3.0), abs=1e-12)


def test_rng_determinism_and_spawn_stability():
    assert make_rng(7).uniform() == make_rng(7).uniform()
    # stream i does not depend on how many siblings were spawned
    a = spawn_rngs(3, 2)
    b = spawn_rngs(3, 5)
    for ra, rb in zip(a, b):
        assert ra.uniform() == rb.uniform()


def test_cli_rates(tmp_path):
    out = tmp_path / "rates"
    assert main(["rates", "--n", "4", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["consistency"] is True
    lines = (out / "samples.csv").read_text().strip().splitlines()
    assert lines[0] == "n,merger,rate"
    assert len(lines) > 4


def test_cli_normalization(tmp_path):
    out = tmp_path / "norm"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": [[0.1], [0.4]]}))
    assert (
        main(["normalization", "--config", str(cfg), "--out", str(out)]) == 0
    )
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "quadrature"
    # the pair sits at displacement 0.3, where N has a closed form
    want = float(pair_normalization_1d(0.3, 1.0))
    assert report["value"] == pytest.approx(want, rel=1e-10)


def test_cli_normalization_default_runs_at_three_points_in_2d(tmp_path):
    # the spectral box of this configuration is over its memory budget
    out = tmp_path / "norm"
    assert main(["normalization", "--n", "3", "--dim", "2", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "quadrature"
    x = SpatialConfig.from_points(report["points"])
    table = build_rate_table(LambdaMeasure.kingman(), 3)
    assert report["value"] == normalization_N(x, table).value


def test_cli_sample_coalescent(tmp_path):
    out = tmp_path / "sample"
    rc = main(
        [
            "sample-coalescent",
            "--n",
            "2",
            "--replicates",
            "20",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    for name in ("events.csv", "samples.csv", "trajectories.csv"):
        assert (out / name).exists()


def test_cli_simulate_cannings(tmp_path):
    out = tmp_path / "cannings"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"population": 8, "horizon": 1.0}))
    rc = main(
        ["simulate-cannings", "--config", str(cfg), "--out", str(out), "--seed", "3"]
    )
    assert rc == 0
    assert (out / "events.csv").exists()
    assert (out / "samples.csv").exists()


def test_cli_simulate_lookdown(tmp_path):
    out = tmp_path / "lookdown"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": 1.0}))
    rc = main(
        [
            "simulate-lookdown",
            "--config",
            str(cfg),
            "--n",
            "4",
            "--out",
            str(out),
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    assert (out / "events.csv").exists()


def test_cli_reverse(tmp_path):
    out = tmp_path / "reverse"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": 1.0}))
    rc = main(
        ["reverse", "--config", str(cfg), "--n", "2", "--out", str(out), "--seed", "2"]
    )
    assert rc == 0
    assert (out / "events.csv").exists()
    assert (out / "trajectories.csv").exists()


def test_cli_check_deterministic_artifacts(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["check", "wright-malecot", "--replicates", "400", "--seed", "11"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("report.json", "samples.csv"):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False)


def test_cli_method_only_where_read(tmp_path):
    # --method is an option of the commands that read it, not of check
    with pytest.raises(SystemExit) as exc:
        main(["check", "duality", "--method", "x", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("method", ["foo", "spectral", "quadrature"])
def test_cli_normalization_rejects_unknown_method(tmp_path, method):
    # spectral (a second route to N) and quadrature (the Gauss rule that
    # auto takes) are no choice of the command
    with pytest.raises(SystemExit) as exc:
        main(["normalization", "--n", "2", "--method", method, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not (tmp_path / "report.json").exists()


def test_cli_sample_coalescent_rejects_unknown_method(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sample-coalescent", "--method", "sirr", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not (tmp_path / "samples.csv").exists()
