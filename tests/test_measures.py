"""Merger rates from Lambda and Xi measures, consistency, and the
non-spatial coalescent."""

import math

import numpy as np
import pytest
from scipy import integrate

from spatialcoal.forests import Forest, TimeDecoration
from spatialcoal.measures import (
    LambdaMeasure,
    XiMeasure,
    build_rate_table,
    check_consistency,
    ftm_density,
    lambda_rate,
    lambda_to_xi,
    measure_from_dict,
    measure_to_dict,
    sample_nonspatial_path,
    xi_rate,
)
from spatialcoal.partitions import MergerSignature, Partition


def test_kingman_rates():
    L = LambdaMeasure.kingman()
    for n in range(2, 8):
        assert lambda_rate(L, n, 2) == 1.0
        for k in range(3, n + 1):
            assert lambda_rate(L, n, k) == 0.0


def test_uniform_rates_closed_form():
    # for the uniform measure, int p^(k-2)(1-p)^(n-k) dp = B(k-1, n-k+1)
    L = LambdaMeasure.uniform()
    for n in range(2, 9):
        for k in range(2, n + 1):
            expected = (
                math.factorial(k - 2) * math.factorial(n - k) / math.factorial(n - 1)
            )
            assert lambda_rate(L, n, k) == pytest.approx(expected, rel=1e-12)


def test_beta_rates_match_quadrature():
    a, b = 2.0, 3.0
    L = LambdaMeasure.beta(a, b, mass=1.7)
    norm = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    for n, k in [(2, 2), (5, 3), (7, 7), (9, 2)]:
        val, _ = integrate.quad(
            lambda p: 1.7 * p ** (k - 2) * (1 - p) ** (n - k)
            * p ** (a - 1) * (1 - p) ** (b - 1) / norm,
            0.0,
            1.0,
        )
        assert lambda_rate(L, n, k) == pytest.approx(val, rel=1e-10)


def test_atom_rates():
    L = LambdaMeasure(atoms=((0.5, 2.0),))
    # 2 * p^(k-2) (1-p)^(n-k) at p = 1/2
    assert lambda_rate(L, 4, 3) == pytest.approx(2.0 * 0.5 * 0.5)
    assert lambda_rate(L, 4, 4) == pytest.approx(2.0 * 0.25)


def test_rate_argument_validation():
    with pytest.raises(ValueError):
        lambda_rate(LambdaMeasure.kingman(), 3, 4)
    with pytest.raises(ValueError):
        LambdaMeasure(atoms=((1.5, 1.0),))
    with pytest.raises(ValueError):
        XiMeasure(atoms=(((0.2, 0.5), 1.0),))  # not non-increasing
    with pytest.raises(ValueError):
        XiMeasure(kingman_mass=-1.0)


def test_xi_atom_rate_half_half():
    # atom at (1/2, 1/2): (xi, xi) = 1/2, and a (4, (2,2)) merger has
    # probability 2! * (1/2)^2 (1/2)^2 = 1/8 across the two group orderings
    X = XiMeasure(atoms=(((0.5, 0.5), 1.0),))
    assert xi_rate(X, MergerSignature(4, (2, 2))) == pytest.approx(0.25)
    # a single pair among n = 2: each of the two baskets squared
    assert xi_rate(X, MergerSignature(2, (2,))) == pytest.approx(1.0)


def test_lambda_to_xi_agrees_on_atomic_measures():
    L = LambdaMeasure(atoms=((0.0, 0.6), (0.5, 1.1)))
    X = lambda_to_xi(L)
    t_l = build_rate_table(L, 6)
    t_x = build_rate_table(X, 6)
    for sig, r in t_l.rates.items():
        assert t_x.rate(sig) == pytest.approx(r, abs=1e-14)
    with pytest.raises(ValueError):
        lambda_to_xi(LambdaMeasure.uniform())


@pytest.mark.parametrize(
    "measure",
    [
        LambdaMeasure.kingman(),
        LambdaMeasure.uniform(),
        LambdaMeasure.beta(2.0, 3.0),
        LambdaMeasure(atoms=((0.5, 1.0),)),
        XiMeasure(kingman_mass=0.3, atoms=(((0.5, 0.5), 1.0),)),
    ],
)
def test_consistency_recursion_holds(measure):
    table = build_rate_table(measure, 8)
    assert check_consistency(table).passed


def test_consistency_detects_perturbation():
    table = build_rate_table(LambdaMeasure.kingman(), 5)
    table.rates[MergerSignature(4, (3,))] += 1e-3
    report = check_consistency(table)
    assert not report.passed
    assert report.failures


def test_total_rate_kingman():
    table = build_rate_table(LambdaMeasure.kingman(), 8)
    for n in range(2, 9):
        assert table.total(n) == pytest.approx(n * (n - 1) / 2.0)
    assert table.total(1) == 0.0
    assert table.is_absorbing(Partition([{1, 2, 3}]))
    with pytest.raises(ValueError):
        table.total(9)


def test_nonspatial_path_holding_times():
    table = build_rate_table(LambdaMeasure.kingman(), 4)
    rng = np.random.default_rng(7)
    p0 = Partition.singletons([1, 2, 3])
    firsts = []
    for _ in range(4000):
        f, tau = sample_nonspatial_path(table, p0, rng)
        assert f.levels[-1] == Partition([{1, 2, 3}])
        firsts.append(tau.times[0])
    firsts = np.asarray(firsts)
    # exponential(3) first holding time: mean 1/3, sd 1/3
    z = (firsts.mean() - 1.0 / 3.0) / (firsts.std(ddof=1) / math.sqrt(firsts.size))
    assert abs(z) < 3.5


def test_ftm_density_kingman_pair():
    table = build_rate_table(LambdaMeasure.kingman(), 2)
    f = Forest((Partition.singletons([1, 2]), Partition([{1, 2}])))
    tau = TimeDecoration((0.7,))
    assert ftm_density(table, f, tau) == pytest.approx(math.exp(-0.7))
    # non-absorbed forests get zero density
    f0 = Forest((Partition.singletons([1, 2]),))
    assert ftm_density(table, f0, TimeDecoration(())) == 0.0


def test_measure_json_roundtrip():
    for m in (
        LambdaMeasure.beta(2.0, 3.0, mass=0.5),
        LambdaMeasure(atoms=((0.25, 1.0),), density={"name": "uniform", "mass": 2.0}),
        XiMeasure(kingman_mass=0.4, atoms=(((0.6, 0.3), 0.9),)),
    ):
        assert measure_from_dict(measure_to_dict(m)) == m
    with pytest.raises(ValueError):
        measure_from_dict({"kind": "gamma"})
