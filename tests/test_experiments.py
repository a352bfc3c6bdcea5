"""The check and artifact layer: verdicts, the retry, sample series, spec
validation, and the pinned artifacts of the command line.

The pins run every `spatialcoal check` experiment at the benchmark's tiny
sizes and the other subcommands at seed 3.  Each command's exit code and the
sha256 of every file it writes are fixed, so a change that moves a verdict,
a draw or a byte of output fails here.  Two pinned reports fail on purpose:
`consistency --dim 2` (`pair-vs-quadrature`) and the 2-replicate reversal.
"""

import contextlib
import hashlib
import io
import math

import pytest

from spatialcoal import experiments
from spatialcoal.cli import main
from spatialcoal.experiments import (
    ALPHA,
    RETRY_SEED_OFFSET,
    ExperimentSpec,
    _statistical,
    run_experiment,
)

# renamed, so that pytest does not take them for test classes
Report = experiments.TestReport
Result = experiments.TestResult


def test_verdict_follows_from_the_gate():
    # with a p-value the threshold is the level, else it bounds the statistic
    assert Result("ks", 0.9, ALPHA, ALPHA).passed
    assert not Result("ks", 0.0, ALPHA, 0.5 * ALPHA).passed
    assert Result("gap", 1e-7, 1e-6).passed
    assert Result("gap", 1e-6, 1e-6).passed
    assert not Result("gap", 2e-6, 1e-6).passed
    assert not Result("gap", math.nan, 1e-6).passed
    assert not Result("ks", 0.1, ALPHA, math.nan).passed
    report = Report("x", 0, [Result("a", 0.0, 1.0), Result("b", 2.0, 1.0)])
    assert [r["passed"] for r in report.as_dict()["results"]] == [True, False]
    assert report.as_dict()["passed"] is False


def test_statistical_retries_once_on_the_offset_seed():
    seeds = []

    def test(seed):
        seeds.append(seed)
        return 0.3, (0.001 if seed == 5 else 0.4), seed

    result, kept = _statistical("t", test, 5)
    assert seeds == [5, 5 + RETRY_SEED_OFFSET] and kept == 5 + RETRY_SEED_OFFSET
    assert result.retried and result.passed and result.threshold == ALPHA
    seeds.clear()
    result, kept = _statistical("t", test, 6)
    assert seeds == [6] and not result.retried and result.passed


def test_series_are_long_format_with_one_index_per_value():
    report = Report("x", 0)
    report.series("a", [0.5, 1.5])
    report.series("b", [2.0], ["label"])
    assert report.samples == {
        "series": ["a", "a", "b"],
        "index": [0, 1, "label"],
        "value": [0.5, 1.5, 2.0],
    }
    with pytest.raises(ValueError, match="one index per value"):
        report.series("c", [1.0, 2.0], [0])


def test_spec_rejects_a_dimension_below_one():
    with pytest.raises(ValueError, match="dimension d must be >= 1"):
        ExperimentSpec(name="consistency", d=0)


@pytest.mark.parametrize(
    "experiment, dim, message",
    [
        ("consistency", "0", "dimension d must be >= 1"),
        ("drift-scaling", "1", "requires d >= 2"),
    ],
)
def test_check_rejects_a_spec_before_writing(
    tmp_path, capsys, experiment, dim, message
):
    # as a bad --method does: exit 2 with a usage line, and no --out left
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["check", experiment, "--dim", dim, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and message in err
    assert not out.exists()


def test_drift_scaling_rejects_one_dimension(tmp_path):
    # the drift-SDE needs d >= 2, so a d = 1 spec cannot be honoured
    with pytest.raises(ValueError, match="d >= 2"):
        run_experiment(ExperimentSpec(name="drift-scaling", d=1, replicates=2))

COMMANDS = {
    "check-duality": ["check", "duality", "--dim", "1", "--n", "2", "--replicates", "4"],
    "check-markov-resample": [
        "check", "markov-resample", "--dim", "1", "--n", "3", "--replicates", "8"
    ],
    "check-reversal-stationarity": [
        "check", "reversal-stationarity", "--dim", "1", "--n", "3", "--replicates", "2"
    ],
    "check-drift-scaling": ["check", "drift-scaling", "--dim", "2", "--replicates", "10"],
    "check-consistency-d1": ["check", "consistency", "--dim", "1"],
    "check-consistency-d2": ["check", "consistency", "--dim", "2"],
    "check-wright-malecot": ["check", "wright-malecot", "--replicates", "50"],
    "check-rates-recursion": ["check", "rates-recursion"],
    "rates": ["rates"],
    "normalization": ["normalization", "--n", "3"],
    "sample-coalescent": ["sample-coalescent", "--n", "3", "--replicates", "20"],
    "sample-coalescent-sir": [
        "sample-coalescent", "--n", "3", "--replicates", "20", "--method", "sir"
    ],
    "reverse": ["reverse", "--n", "3"],
    "simulate-cannings": ["simulate-cannings"],
}

# label -> (exit code, {file name: sha256})
PINNED = {
    "check-duality": (0, {
        "report.json": "75f75697e1446f3368b1ecc04cffb9b4587e8f663fe6dec70e880ebb4ae244b8",
        "samples.csv": "ef0f376603642a51e356a00f593f838e37b4a7d8d113d4585be6bfc1cbb62d55",
    }),
    "check-markov-resample": (0, {
        "report.json": "6f5e51f6c5ddb0822239a77b2769daad2cf356b3c439c431fed925a77c52445b",
        "samples.csv": "fa4996f0aa2eb5be51d1a8dbfb5e0f14c27c3d9ec11ce61a639e9524e176abd8",
    }),
    "check-reversal-stationarity": (1, {
        "report.json": "1ec556b197342ca48feb5c9bdd290bf5d8e6a6b136620881301e34f5527259a0",
        "samples.csv": "4b8a510042f63a756e19f1dca73a096b417959ac46442278e1889c84dbc77890",
    }),
    "check-drift-scaling": (0, {
        "report.json": "9b8798c6221e57f3843c67ebbc039f2d22ab2d1790427b0d7104caeefe17439d",
        "samples.csv": "761b5536138a2310c6306cb4e989ec341fa540751a4c8d2cd029ed75d31a74e3",
    }),
    "check-consistency-d1": (0, {
        "report.json": "402e8d88149677ddfd560ccc71d4f550104a91802abcdcabe3f0f05048aa55b0",
        "samples.csv": "c28e3b5f1ee600516fa4b6e62de662c1ce9f2e298eaf635e8703de8ea9136008",
    }),
    "check-consistency-d2": (1, {
        "report.json": "20826c91c14c7f497dc436ccf862de4a250bbc987eb131a43a7890eb0859cc5b",
        "samples.csv": "b08e0e46cb1a74f0c938671ec9dbe055e8fdce6dfd108fe4d4a44f308680630b",
    }),
    "check-wright-malecot": (0, {
        "report.json": "8a7b80df34a1e9df35f37d1be7da01c076d75d70270f8475f967ad7eb4c819c4",
        "samples.csv": "bc0e8cbe729a7a22e722f312077cb795623ea9beca924c700e83be077a07830d",
    }),
    "check-rates-recursion": (0, {
        "report.json": "02140ae8314b0f164e9b6fa18c0720b31ba85567d1214333c8f9a42dc6ab8203",
        "samples.csv": "6927b9ab898360079a4d44cfabf0cef7449181bf5843f5d2378e747a0f1b662f",
    }),
    "rates": (0, {
        "report.json": "393cff6fa6c076faf2b60db6333cf70410d838989fad68c49002218f09eccd40",
        "samples.csv": "759adf186482bd144b73d0146bca83fa61c3b11b1554d42e688c5bc0b3b4c5ae",
    }),
    "normalization": (0, {
        "report.json": "7684ed93a71af5facd79663a1ebd3e1f4a118b2c85b3c9fa26a27661b99dafe8",
    }),
    "sample-coalescent": (0, {
        "events.csv": "5d8e105a47047bf37de7da90909968371c7187bbb8f9ea712d0bd3f3fd188115",
        "samples.csv": "cc644f3c978e17f6f69e4cfad832bb286eb9a88d7049d29967a3faf1c88b5d57",
        "trajectories.csv": "da0bed1133f9ac2138dda1e1df7ad1802134e54921b5b9fd9ceec3588129407b",
    }),
    "sample-coalescent-sir": (0, {
        "events.csv": "b801b79e1501fd1dfbc32e62b741d8b584549c8303443e1b8844cdf500fcd2e5",
        "samples.csv": "0cb33acda5a110b63fe17f7edef8d7b02f5833dfaf13b8886594da3b0d5384f9",
    }),
    "reverse": (0, {
        "events.csv": "11de234bef2473a391b2d3e8d2d34696f7e93e72a88338d97af85e93abc6c196",
        "trajectories.csv": "9d7fada3d6d443bf2de90213578fd8924fb71f64a68a8484861d8a35115d8c55",
    }),
    "simulate-cannings": (0, {
        "events.csv": "f947ee3c7df7e2ade3ae73d2fe2bbf652df8aec245d29aabb0841c7659b5a2ce",
        "samples.csv": "6d4230f61eb3868cd539c3e2bb05c24bd4f74169f451bed97ab88832b594c6ef",
        "trajectories.csv": "43cbce64bdf769b7771183baf25db4c0523430cf48b6a2518c9a5b4bdaa24128",
    }),
}


@pytest.mark.parametrize("label", sorted(COMMANDS))
def test_command_artifacts_are_pinned(label, tmp_path):
    out = tmp_path / label
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(COMMANDS[label] + ["--seed", "3", "--out", str(out)])
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }
    assert (code, digests) == PINNED[label]
