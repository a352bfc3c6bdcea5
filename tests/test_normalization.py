"""Tree integrals on the torus, the normalization function, and the
resampling density."""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from spatialcoal.experiments import quad_pair_reference, stationary_pair_separation_cdf
from spatialcoal.forests import Forest, TimeDecoration
from spatialcoal.kernels import SpatialConfig, torus_kernel
from spatialcoal.measures import LambdaMeasure, RateTable, build_rate_table
from spatialcoal.normalization import (
    SPECTRAL_MAX_ELEMENTS,
    _contract,
    extended_config,
    freq_cutoff,
    grad_log_N_spectral,
    mu_density_grid,
    normalization_N,
    normalization_N_spectral,
    pair_normalization_1d,
    spatial_integral_g,
    spatial_integral_g_batch,
)
from spatialcoal.partitions import MergerSignature, Partition

KINGMAN2 = build_rate_table(LambdaMeasure.kingman(), 2)
KINGMAN3 = build_rate_table(LambdaMeasure.kingman(), 3)


def pair_forest():
    return Forest((Partition.singletons([1, 2]), Partition([{1, 2}])))


def cherry_forest():
    return Forest(
        (
            Partition.singletons([1, 2, 3]),
            Partition([{1, 2}, {3}]),
            Partition([{1, 2, 3}]),
        )
    )


def test_freq_cutoff_monotone():
    assert freq_cutoff(1.0) >= 4
    assert freq_cutoff(1e-6) == 64
    assert freq_cutoff(0.1) >= freq_cutoff(1.0)
    with pytest.raises(ValueError):
        freq_cutoff(0.0)


def test_pair_integral_is_heat_kernel():
    # integrating the merge location z of prod_i p_tau(x_i - z) gives
    # p_{2 tau}(x_1 - x_2) by the semigroup property
    f = pair_forest()
    for delta, tau in [(0.3, 0.2), (0.07, 0.9), (0.45, 0.05)]:
        x = SpatialConfig.from_points([[0.1], [0.1 + delta]])
        got = spatial_integral_g(f, TimeDecoration((tau,)), x)
        assert got == pytest.approx(torus_kernel(2 * tau, [delta]), rel=1e-12)


def test_pair_integral_multidim():
    f = pair_forest()
    x = SpatialConfig.from_points([[0.1, 0.7], [0.35, 0.2]])
    tau = 0.3
    want = torus_kernel(2 * tau, [0.25, 0.5])
    assert spatial_integral_g(f, TimeDecoration((tau,)), x) == pytest.approx(
        want, rel=1e-12
    )


def test_batch_matches_pointwise():
    f = cherry_forest()
    x = SpatialConfig.from_points([[0.1], [0.4], [0.8]])
    rng = np.random.default_rng(2)
    t1 = rng.uniform(0.05, 0.5, size=20)
    taus = np.column_stack([t1, t1 + rng.uniform(0.05, 0.5, size=20)])
    batch = spatial_integral_g_batch(f, taus, x)
    point = np.array(
        [spatial_integral_g(f, TimeDecoration(tuple(row)), x) for row in taus]
    )
    assert np.max(np.abs(batch - point)) < 1e-13


def test_grad_matches_finite_differences():
    # the spectral gradient of log N against central differences of log N
    base = [0.12, 0.41, 0.83]
    x = SpatialConfig.from_points([[p] for p in base])
    grads = grad_log_N_spectral(x, KINGMAN3)

    def log_n(pts):
        x = SpatialConfig.from_points(pts)
        return math.log(normalization_N_spectral(x, KINGMAN3))

    h = 1e-6
    for i, b in enumerate(x.partition.blocks):
        pts = [[p] for p in base]
        pts[i] = [base[i] + h]
        up = log_n(pts)
        pts[i] = [base[i] - h]
        dn = log_n(pts)
        assert grads[b][0] == pytest.approx((up - dn) / (2 * h), rel=1e-5, abs=1e-8)


def test_integrate_out_leaves_the_pair():
    # in the cherry ((1,2) at t1, then 3 at t2), integrating leaf 3 over the
    # torus gives unit mass to its branch and then to the root's branch to
    # the (1,2) node, which leaves g = p_{2 t1}(x_1 - x_2)
    f = cherry_forest()
    rng = np.random.default_rng(4)
    t1 = rng.uniform(0.05, 0.5, size=12)
    taus = np.column_stack([t1, t1 + rng.uniform(0.05, 0.5, size=12)])
    for pts in ([[0.1], [0.35], [0.8]], [[0.1, 0.7], [0.35, 0.2], [0.8, 0.45]]):
        x = SpatialConfig.from_points(pts)
        third = x.partition.blocks[2]
        want = np.array([torus_kernel(2 * t, np.subtract(pts[0], pts[1])) for t in t1])
        point = np.array(
            [
                spatial_integral_g(f, TimeDecoration(tuple(row)), x, integrate_out=third)
                for row in taus
            ]
        )
        # spatial_integral_g_batch takes no integrate_out; it passes its rows
        # to the same engine, called here directly on the whole batch
        batch = _contract(f, taus, x, third)
        np.testing.assert_allclose(point, want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(batch, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("t1", [1e-8, 1e-6, 1e-4])
def test_pair_integral_at_short_times(d, t1):
    # at displacements of a few standard deviations of p_{2 t1}, where a
    # truncated Fourier sum rings; the batch mixes in rows past SPLIT_TIME
    f = pair_forest()
    sd = math.sqrt(2 * t1)
    for scale in (0.5, 1.0, 3.0):
        delta = np.array([scale * sd, 0.5 * scale * sd][:d])
        x = SpatialConfig.from_points([[0.1] * d, list(0.1 + delta)])
        want = torus_kernel(2 * t1, delta)
        got = spatial_integral_g(f, TimeDecoration((t1,)), x)
        assert abs(got - want) <= 1e-12 * want
        taus = np.array([[t1], [0.5], [t1 * 1.5]])
        batch = _contract(f, taus, x)
        assert abs(batch[0] - want) <= 1e-12 * want
        want_long = torus_kernel(1.0, delta)
        assert abs(batch[1] - want_long) <= 1e-12 * want_long


def test_marginal_triple_matches_pair_reference_d2():
    # integrating leaf 3 out of a triple leaves the pair; the cherries that
    # carry leaf 3 reach the pair's law through branches of any length
    x3 = SpatialConfig.from_points([[0.1, 0.1], [0.4, 0.1], [0.7, 0.7]])
    third = x3.partition.blocks[2]
    got = normalization_N(x3, KINGMAN3, integrate_out=third).value
    want = quad_pair_reference(0.3, 1.0, 2)
    assert abs(got - want) <= 1e-8 * want


@pytest.mark.parametrize("lam", [1.0, 3.0])
@pytest.mark.parametrize("delta", [1e-3, 0.1, 0.5])
def test_pair_normalization_N_matches_closed_form(delta, lam):
    x = SpatialConfig.from_points([[0.1], [0.1 + delta]])
    got = normalization_N(x, pair_table(lam)).value
    want = float(pair_normalization_1d(delta, lam))
    assert abs(got - want) <= 1e-8 * want


def test_single_lineage_normalization_is_one():
    x = SpatialConfig.from_points([[0.3]])
    assert normalization_N(x, KINGMAN2).value == 1.0
    assert normalization_N_spectral(x, KINGMAN2) == 1.0


def test_pair_normalization_quadrature_vs_spectral():
    for pts in ([[0.1], [0.4]], [[0.2, 0.2], [0.6, 0.9]]):
        x = SpatialConfig.from_points(pts)
        est = normalization_N(x, KINGMAN2)
        assert est.method == "quadrature"
        spec = normalization_N_spectral(x, KINGMAN2)
        assert est.value == pytest.approx(spec, rel=1e-5)


def test_pair_normalization_closed_form():
    # a Kingman pair merges at a unit-rate exponential time, so
    # N = int_0^inf e^{-t} p_{2t}(delta) dt
    delta = 0.27
    x = SpatialConfig.from_points([[0.1], [0.1 + delta]])
    ref, _ = integrate.quad(
        lambda t: math.exp(-t) * torus_kernel(2 * t, [delta]), 0, 60, limit=300
    )
    got = normalization_N_spectral(x, KINGMAN2, cutoff=4096)
    assert got == pytest.approx(ref, rel=1e-7)
    # at the default cutoff only the spectral tail is lost
    assert normalization_N_spectral(x, KINGMAN2) == pytest.approx(ref, rel=1e-4)


def pair_table(lam):
    return RateTable({MergerSignature(2, (2,)): lam}, n_max=2)


@pytest.mark.parametrize("lam", [1.0, 3.0])
def test_pair_normalization_1d_matches_quadrature(lam):
    deltas = [1e-4, 3e-4, 3.7e-4, 0.01, 0.1, 0.27, 0.5]
    got = pair_normalization_1d(deltas, lam)
    for delta, value in zip(deltas, got):
        ref = quad_pair_reference(delta, lam, 1)
        assert abs(value - ref) <= 1e-10 * ref


@pytest.mark.parametrize("lam", [1.0, 3.0])
def test_pair_normalization_1d_unit_mass_and_symmetry(lam):
    mass, _ = integrate.quad(lambda y: float(pair_normalization_1d(y, lam)), 0.0, 1.0)
    assert mass == pytest.approx(1.0, abs=1e-12)
    deltas = np.linspace(0.0, 1.0, 41)
    np.testing.assert_allclose(
        pair_normalization_1d(deltas, lam),
        pair_normalization_1d(1.0 - deltas, lam),
        rtol=1e-13,
    )
    # delta is a torus displacement: whole periods and sign do not matter
    np.testing.assert_allclose(
        pair_normalization_1d(deltas, lam),
        pair_normalization_1d(-deltas - 2.0, lam),
        rtol=1e-13,
    )


@pytest.mark.parametrize("lam", [1.0, 3.0])
def test_stationary_pair_separation_cdf_is_second_order(lam):
    # midpoint sums plus linear interpolation of the closed-form density:
    # the error is at most h^2/8 max|F''| + h^2/24 max|F'''|, h = 1/(2 grid)
    a = math.sqrt(lam)
    r = np.linspace(0.0, 0.5, 1002)
    exact = (np.sinh(a * (r - 0.5)) + np.sinh(a / 2)) / np.sinh(a / 2)
    errs = {}
    for grid in (128, 256):
        cdf = stationary_pair_separation_cdf(pair_table(lam), grid=grid)
        errs[grid] = np.abs(cdf(r) - exact).max()
    h = 1.0 / 256
    assert errs[128] <= h * h * (a * a / 8 + a**3 / math.tanh(a / 2) / 24)
    assert errs[256] < errs[128] / 3


def test_spectral_sum_over_budget_fails_fast():
    # n = 3, d = 2 at cutoff 64 would need 129^4 ~ 2.8e8 elements (2 GiB
    # per array); the cost guard rejects it before allocating anything
    x = SpatialConfig.from_points([[0.1, 0.2], [0.4, 0.5], [0.7, 0.9]])
    assert 129**4 > SPECTRAL_MAX_ELEMENTS >= 49**4
    start = time.perf_counter()
    with pytest.raises(ValueError, match="elements"):
        normalization_N_spectral(x, KINGMAN3, cutoff=64)
    assert time.perf_counter() - start < 0.5


def test_triple_normalization_quadrature_vs_spectral():
    x = SpatialConfig.from_points([[0.1], [0.35], [0.7]])
    est = normalization_N(x, KINGMAN3)
    spec = normalization_N_spectral(x, KINGMAN3)
    assert est.value == pytest.approx(spec, rel=1e-3)


def test_monte_carlo_route_agrees():
    x = SpatialConfig.from_points([[0.1], [0.45]])
    rng = np.random.default_rng(9)
    est = normalization_N(x, KINGMAN2, method="monte-carlo", rng=rng)
    assert est.method == "monte-carlo"
    spec = normalization_N_spectral(x, KINGMAN2)
    assert abs(est.value - spec) < 4 * est.std_error + 1e-12


def test_grad_log_N_translation_invariance():
    x = SpatialConfig.from_points([[0.15, 0.2], [0.55, 0.75]])
    grads = grad_log_N_spectral(x, KINGMAN2)
    total = sum(grads.values())
    assert np.max(np.abs(total)) < 1e-10


def test_mu_density_proportional_to_extended_normalization():
    # the resampling density at y is N(x with extra leaf at y) / const
    x = SpatialConfig.from_points([[0.2], [0.6]])
    table = KINGMAN3
    dens = mu_density_grid(x, table, grid=256)
    ys = [0.05, 0.3, 0.55, 0.9]
    ratios = []
    for y in ys:
        ext, _ = extended_config(x, np.array([y]))
        val = normalization_N_spectral(ext, table)
        idx = int(round(y * 256)) % 256
        ratios.append(dens[idx] / val)
    ratios = np.asarray(ratios)
    assert ratios.std() / ratios.mean() < 1e-3


def test_mu_density_normalized():
    x = SpatialConfig.from_points([[0.2], [0.6]])
    dens = mu_density_grid(x, KINGMAN3, grid=512)
    assert dens.mean() == pytest.approx(1.0, rel=1e-12)
    assert dens.min() >= 0.0
