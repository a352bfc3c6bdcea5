"""End-to-end acceptance battery.

Each test covers one acceptance criterion and prints a single pass/fail
line with its headline numbers, bypassing output capture so the verdicts
always appear in the pytest log.
"""

import filecmp
import math

import numpy as np
import pytest
from scipy import integrate

from spatialcoal.experiments import (
    ExperimentSpec,
    quad_pair_reference,
    run_experiment,
)
from spatialcoal.forests import Forest, TimeDecoration
from spatialcoal.kernels import (
    SpatialConfig,
    euclidean_tree_integral,
    gauss_kernel,
    gaussian_product_collapse,
    torus_kernel,
)
from spatialcoal.measures import (
    LambdaMeasure,
    XiMeasure,
    build_rate_table,
    lambda_rate,
    xi_rate,
)
from spatialcoal.normalization import normalization_N
from spatialcoal.partitions import MergerSignature, Partition
from test_kernels import fourier_sum, image_sum


@pytest.fixture
def announce(capsys):
    def _p(line):
        with capsys.disabled():
            print(line)

    return _p


def verdict(announce, num, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({detail})"
    announce(line)
    assert ok, line


def experiment_detail(report):
    bits = []
    for r in report.results:
        pv = "" if r.p_value is None else f" p={r.p_value:.3g}"
        bits.append(f"{r.name}={r.statistic:.3g}{pv}")
    return "; ".join(bits)


def test_criterion_01_rates_exactness(announce):
    kingman = LambdaMeasure.kingman()
    uniform = LambdaMeasure.uniform()
    ok = True
    worst = 0.0
    for n in range(2, 11):
        ok &= lambda_rate(kingman, n, 2) == 1.0
        for k in range(3, n + 1):
            ok &= lambda_rate(kingman, n, k) == 0.0
        for k in range(2, n + 1):
            expected = (
                math.factorial(k - 2)
                * math.factorial(n - k)
                / math.factorial(n - 1)
            )
            err = abs(lambda_rate(uniform, n, k) - expected)
            worst = max(worst, err)
    ok &= worst <= 1e-10
    mass = 1.3
    xi = XiMeasure(atoms=(((0.5, 0.5), mass),))
    err_xi = abs(xi_rate(xi, MergerSignature(4, (2, 2))) - mass / 4.0)
    ok &= err_xi <= 1e-12
    verdict(
        announce, 1, "merger rates exact",
        ok, f"uniform err {worst:.1e}, simplex-atom err {err_xi:.1e}",
    )


def test_criterion_02_consistency_recursion(announce):
    report = run_experiment(ExperimentSpec(name="rates-recursion", seed=0))
    worst = max(r.statistic for r in report.results)
    verdict(
        announce, 2, "subsampling recursion n<=8",
        report.passed and worst <= 1e-10, f"worst rel err {worst:.1e}",
    )


def test_criterion_03_kernels(announce):
    rng = np.random.default_rng(0)
    # 100-point (t, x) grid
    ts = np.linspace(0.05, 1.0, 10)
    xs = np.linspace(-0.5, 0.45, 10)
    worst_methods = max(
        abs(image_sum(t, x) - fourier_sum(t, x))
        for t in ts
        for x in xs
    )
    # semigroup property by direct convolution quadrature
    worst_semi = 0.0
    for s, t, x in [(0.07, 0.23, 0.31), (0.2, 0.4, 0.0), (0.05, 0.05, 0.5)]:
        val, _ = integrate.quad(
            lambda y: torus_kernel(s, [x - y]) * torus_kernel(t, [y]), 0.0, 1.0
        )
        worst_semi = max(worst_semi, abs(val - torus_kernel(s + t, [x])))
    # Gaussian product collapse identity at 50 random configurations
    worst_collapse = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        pts = [rng.normal(size=d) for _ in range(k)]
        ss = rng.uniform(0.05, 2.0, size=k)
        z = rng.normal(size=d)
        s_c, xbar = gaussian_product_collapse(pts, ss)
        lhs = np.prod([gauss_kernel(si, xi - z) for xi, si in zip(pts, ss)])
        rhs = (
            gauss_kernel(s_c, z - xbar)
            / gauss_kernel(s_c, np.zeros(d))
            * np.prod([gauss_kernel(si, xi - xbar) for xi, si in zip(pts, ss)])
        )
        worst_collapse = max(worst_collapse, abs(lhs - rhs) / abs(rhs))
    # closed-form tree integral against a quadrature oracle on a 3-leaf tree
    f = Forest(
        (
            Partition.singletons([1, 2, 3]),
            Partition([{1, 2}, {3}]),
            Partition([{1, 2, 3}]),
        )
    )
    tau = TimeDecoration((0.4, 1.1))
    leafpos = {
        frozenset({1}): np.array([0.0]),
        frozenset({2}): np.array([0.3]),
        frozenset({3}): np.array([-0.2]),
    }
    closed = euclidean_tree_integral(f, tau, leafpos)

    def integrand(z, y):
        out = gauss_kernel(0.4, np.array([0.0 - y]))
        out *= gauss_kernel(0.4, np.array([0.3 - y]))
        out *= gauss_kernel(0.7, np.array([y - z]))
        out *= gauss_kernel(1.1, np.array([-0.2 - z]))
        return out

    oracle, _ = integrate.dblquad(integrand, -6, 6, -6, 6, epsabs=1e-10)
    rel_tree = abs(closed - oracle) / abs(oracle)
    ok = (
        worst_methods <= 1e-12
        and worst_semi <= 1e-8
        and worst_collapse <= 1e-12
        and rel_tree <= 1e-6
    )
    verdict(
        announce, 3, "heat kernels and Gaussian identities",
        ok,
        f"image/fourier {worst_methods:.1e}, semigroup {worst_semi:.1e}, "
        f"collapse {worst_collapse:.1e}, tree {rel_tree:.1e}",
    )


def test_criterion_04_normalization_identities(announce):
    report = run_experiment(ExperimentSpec(name="consistency", seed=0))
    # Monte Carlo pair value against the time quadrature, combined 3 sigma
    table = build_rate_table(LambdaMeasure.kingman(), 2)
    x = SpatialConfig.from_points([[0.1], [0.4]])
    from spatialcoal.stats import make_rng

    est = normalization_N(x, table, method="monte-carlo", rng=make_rng(0))
    direct = quad_pair_reference(0.3, 1.0, 1)
    mc_ok = abs(est.value - direct) <= 3.0 * est.std_error
    ok = report.passed and mc_ok
    verdict(
        announce, 4, "normalization identities",
        ok,
        experiment_detail(report)
        + f"; mc-pair dev {abs(est.value - direct):.2e} "
        f"(3sig {3 * est.std_error:.2e})",
    )


def test_criterion_05_pair_time_law(announce):
    report = run_experiment(
        ExperimentSpec(name="wright-malecot", replicates=10000, seed=0)
    )
    verdict(
        announce, 5, "exact-sampler pair coalescence time law",
        report.passed, experiment_detail(report),
    )


def test_criterion_06_forward_backward_duality(announce):
    report = run_experiment(
        ExperimentSpec(name="duality", replicates=1000, seed=0)
    )
    verdict(
        announce, 6, "forward-backward duality (N=30, n=2 and 3)",
        report.passed, experiment_detail(report),
    )


def test_criterion_07_drift(announce):
    report = run_experiment(
        ExperimentSpec(name="drift-scaling", d=2, replicates=2000, seed=0)
    )
    verdict(
        announce, 7, "drift gradient, slope, and SDE law",
        report.passed, experiment_detail(report),
    )


def test_criterion_08_reversal_stationarity(announce):
    report = run_experiment(
        ExperimentSpec(
            name="reversal-stationarity", n=2, replicates=200, seed=0
        )
    )
    verdict(
        announce, 8, "reversal stationarity and time-reversed forward law",
        report.passed, experiment_detail(report),
    )


def test_criterion_09_markov_resample(announce):
    report = run_experiment(
        ExperimentSpec(name="markov-resample", replicates=600, seed=0)
    )
    verdict(
        announce, 9, "re-rooted runs are statistically indistinguishable",
        report.passed, experiment_detail(report),
    )


def test_criterion_10_determinism(announce, tmp_path):
    sizes = {
        "rates-recursion": 1,
        "consistency": 1,
        "wright-malecot": 500,
        "duality": 60,
        "drift-scaling": 200,
        "reversal-stationarity": 30,
        "markov-resample": 100,
    }
    mismatched = []
    for name, reps in sizes.items():
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            run_experiment(
                ExperimentSpec(
                    name=name, replicates=reps, seed=17, out=out,
                    d=2 if name == "drift-scaling" else 1,
                )
            )
            outs.append(out)
        for art in ("report.json", "samples.csv"):
            if not filecmp.cmp(outs[0] / art, outs[1] / art, shallow=False):
                mismatched.append(f"{name}/{art}")
    verdict(
        announce, 10, "byte-identical artifacts per seed",
        not mismatched, "all experiments" if not mismatched else ", ".join(mismatched),
    )
