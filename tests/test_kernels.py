"""Torus heat kernel, Gaussian collapse identities, and spatial configs."""

import math

import numpy as np
import pytest
from scipy import integrate

from spatialcoal.forests import Forest, TimeDecoration
from spatialcoal.kernels import (
    SpatialConfig,
    euclidean_tree_integral,
    gauss_kernel,
    gaussian_product_collapse,
    torus_bridge_offset,
    torus_displacement,
    torus_kernel,
    wrap,
)
from spatialcoal.partitions import Partition

ORACLE_CUTOFF = 24


def image_sum(t: float, x: float) -> float:
    """The wrapped 1-d heat kernel as a sum over ORACLE_CUTOFF images a side."""
    z = x + np.arange(-ORACLE_CUTOFF, ORACLE_CUTOFF + 1)
    return float(np.exp(-z * z / (2.0 * t)).sum() / math.sqrt(2.0 * math.pi * t))


def fourier_sum(t: float, x: float) -> float:
    """The wrapped 1-d heat kernel as its Fourier series to ORACLE_CUTOFF."""
    k = np.arange(1, ORACLE_CUTOFF + 1)
    damp = np.exp(-2.0 * math.pi**2 * k**2 * t)
    return float(1.0 + 2.0 * (damp * np.cos(2.0 * math.pi * k * x)).sum())


def test_wrap_and_displacement():
    assert np.allclose(wrap([1.25, -0.25]), [0.25, 0.75])
    d = torus_displacement([0.9], [0.1])
    assert d == pytest.approx(-0.2)
    assert torus_displacement([0.1], [0.9]) == pytest.approx(0.2)


def test_method_validation():
    with pytest.raises(ValueError):
        torus_kernel(0.0, [0.1])


def test_image_sum_matches_fourier():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-0.5, 0.5, size=50)
    for t in (0.05, 1.0 / (2 * math.pi), 0.4, 2.0):
        a = np.array([image_sum(t, x) for x in xs])
        b = np.array([fourier_sum(t, x) for x in xs])
        assert np.max(np.abs(a - b)) < 1e-12
        # the package kernel switches between the two at cutoff 12
        got = np.array([torus_kernel(t, [x]) for x in xs])
        assert np.max(np.abs(got - a)) < 1e-12


def test_kernel_integrates_to_one():
    for t in (0.03, 0.5):
        val, _ = integrate.quad(lambda x: torus_kernel(t, [x]), 0.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-10)


def test_semigroup_property():
    # p_{s+t}(x) = int p_s(x - y) p_t(y) dy on the torus
    s, t = 0.07, 0.23
    for x in (0.0, 0.31, 0.5):
        val, _ = integrate.quad(
            lambda y: torus_kernel(s, [x - y]) * torus_kernel(t, [y]), 0.0, 1.0
        )
        assert val == pytest.approx(torus_kernel(s + t, [x]), rel=1e-8)


def test_multidim_kernel_is_product():
    x = np.array([0.2, -0.4, 0.1])
    t = 0.3
    prod = np.prod([torus_kernel(t, [c]) for c in x])
    assert torus_kernel(t, x) == pytest.approx(prod, rel=1e-14)


def test_gaussian_product_collapse_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = rng.integers(2, 5)
        d = rng.integers(1, 4)
        xs = [rng.normal(size=d) for _ in range(k)]
        ss = rng.uniform(0.05, 2.0, size=k)
        s, xbar = gaussian_product_collapse(xs, ss)
        for z in (rng.normal(size=d), np.zeros(d)):
            lhs = np.prod([gauss_kernel(si, xi - z) for xi, si in zip(xs, ss)])
            rhs = (
                gauss_kernel(s, z - xbar)
                / gauss_kernel(s, np.zeros(d))
                * np.prod([gauss_kernel(si, xi - xbar) for xi, si in zip(xs, ss)])
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)
    with pytest.raises(ValueError):
        gaussian_product_collapse([], [])
    with pytest.raises(ValueError):
        gaussian_product_collapse([np.zeros(1)], [-1.0])


def test_euclidean_tree_integral_matches_quadrature():
    # cherry over three leaves: integrate the product of branch kernels over
    # the two internal locations
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
        out = gauss_kernel(0.4, leafpos[frozenset({1})] - y)
        out *= gauss_kernel(0.4, leafpos[frozenset({2})] - y)
        out *= gauss_kernel(0.7, np.array([y]) - z)
        out *= gauss_kernel(1.1, leafpos[frozenset({3})] - z)
        return out

    val, _ = integrate.dblquad(integrand, -6, 6, -6, 6, epsabs=1e-10)
    assert closed == pytest.approx(val, rel=1e-6)
    # leading axes hold parallel cases: a batch of positions of leaf 3
    leaf3 = frozenset({3})
    shifts = np.array([[-1.0], [-0.2], [0.0], [0.45], [2.0]])
    batch = euclidean_tree_integral(f, tau, {**leafpos, leaf3: leafpos[leaf3] + shifts})
    single = [
        euclidean_tree_integral(f, tau, {**leafpos, leaf3: leafpos[leaf3] + s})
        for s in shifts
    ]
    assert batch.shape == (shifts.shape[0],)
    assert single[2] == closed
    np.testing.assert_allclose(batch, single, rtol=1e-14, atol=0)
    with pytest.raises(ValueError):
        euclidean_tree_integral(
            Forest((Partition.singletons([1]),)), TimeDecoration(()), leafpos
        )


def test_bridge_offset_distribution():
    # for T small relative to the separation, the nearest image dominates
    rng = np.random.default_rng(5)
    # b - a = -0.8, so the nearest image sits at offset k = 1 (displacement 0.2)
    ks = [torus_bridge_offset([0.9], [0.1], 0.01, rng)[0] for _ in range(200)]
    assert all(k == 1 for k in ks)
    # for large T the offsets spread out
    ks = np.array([torus_bridge_offset([0.0], [0.0], 4.0, rng)[0] for _ in range(400)])
    assert len(np.unique(ks)) > 1


def test_bridge_offset_weights_match_image_masses():
    # empirical offset frequencies against the exact image weights; at
    # T = 0.08 the offset range is [-3, 3]
    a, b, T = 0.9, 0.1, 0.08
    ks = np.arange(-3, 4)
    w = np.exp(-((b - a + ks) ** 2) / (2 * T))
    w /= w.sum()
    rng = np.random.default_rng(17)
    draws = np.array(
        [torus_bridge_offset([a], [b], T, rng)[0] for _ in range(3000)]
    )
    freq = np.array([(draws == k).mean() for k in ks])
    assert np.max(np.abs(freq - w)) < 0.03


def test_spatial_config_validation():
    SpatialConfig.from_points([[0.1], [0.1]])  # one coincident pair in d=1 OK
    with pytest.raises(ValueError):
        SpatialConfig.from_points([[0.1], [0.1], [0.1]])
    with pytest.raises(ValueError):
        SpatialConfig.from_points([[0.1, 0.2], [0.1, 0.2]])
    with pytest.raises(ValueError):
        SpatialConfig.from_points([[0.1], [0.2, 0.3]])


def test_spatial_config_queries():
    x = SpatialConfig.from_points([[0.1], [0.4], [0.95]])
    assert x.n == 3
    assert x.d == 1
    assert x.as_matrix().shape == (3, 1)
