"""Statistical helpers, RNG stream stability, and the command-line surface."""

import filecmp
import json

import numpy as np
import pytest

from spatialcoal.cli import main
from spatialcoal.stats import (
    chi2_counts,
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


def test_chi2_counts_pools_small_cells():
    obs = np.array([50, 48, 52, 1, 2])
    exp = np.array([50, 50, 50, 1.5, 1.5])
    stat, p = chi2_counts(obs, exp)
    assert np.isfinite(stat) and 0.0 <= p <= 1.0
    # a clearly wrong expectation is rejected
    _, p_bad = chi2_counts(np.array([100, 10]), np.array([55, 55]))
    assert p_bad < 1e-6


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
    assert report["method"] == "spectral"
    assert 0.0 < report["value"] < 10.0


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
