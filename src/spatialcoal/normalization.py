"""The spatial density along a decorated forest, its torus integral, and the
normalization function that drives sampling, drift and resampling.

The torus integral g(F, tau, x) over internal merge locations has one
implementation, ``_contract``: per coordinate, a Fourier contraction along
the tree over a batch of level-time vectors.  Every branch carries a
frequency, integrating an internal node's location forces the frequencies
of incident branches to balance, and leaves contribute phases.  The
quadrature and Monte Carlo routes of N(x), the sampler's gap tables and its
SIR weights all call it.  The spectral route integrates the level times in
closed form instead, and the d = 1 pair law has its own closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, signal

from .forests import Forest, Node, TimeDecoration, enumerate_forests
from .kernels import SpatialConfig, wrap
from .measures import RateTable, sample_nonspatial_path
from .partitions import Partition

MAX_FREQ_CUTOFF = 64
MIN_FREQ_CUTOFF = 4
MC_SAMPLES = 20000  # proposals of the Monte Carlo route of N(x)


def freq_cutoff(t_min: float) -> int:
    """Frequency cutoff so the tail of exp(-2 pi^2 k^2 t) is below 1e-14."""
    if t_min <= 0:
        raise ValueError("branch length must be positive")
    k = int(math.ceil(4.0 / math.sqrt(2.0 * math.pi**2 * t_min)))
    return max(MIN_FREQ_CUTOFF, min(MAX_FREQ_CUTOFF, k))


# -- Fourier contraction -----------------------------------------------------


def _contract(
    f: Forest,
    taus: np.ndarray,
    x: SpatialConfig,
    integrate_out: Node | None = None,
) -> np.ndarray:
    """The torus tree integral at a batch of level-time vectors, one per row.

    Per coordinate, a leaves-to-root pass carries one frequency vector per
    branch: a leaf contributes its phase exp(-2 pi i k y), the leaf
    ``integrate_out`` a unit mass at k = 0 (its position integrated over
    the circle), and an internal node the convolution of its children's.
    A single row is convolved directly, a batch by FFT.  The frequency
    cutoff is always chosen here, once per batch, by ``freq_cutoff`` of the
    smallest level gap in the batch.
    """
    if f.is_trivial:
        raise ValueError("forest has no internal nodes")
    taus = np.atleast_2d(np.asarray(taus, dtype=float))
    if taus.shape[1] != f.m:
        raise ValueError("level-time batch does not match the forest")
    T = taus.shape[0]
    times = np.zeros((T, f.m + 1))  # column i: level time i
    times[:, 1:] = taus
    K = freq_cutoff(float((times[:, 1:] - times[:, :-1]).min()))
    ks = np.arange(-K, K + 1)
    decay = -2.0 * math.pi**2 * ks**2
    # the children of every internal node with their branch lengths, in
    # birth order, so that children come before their parents
    birth: dict[Node, np.ndarray] = {}
    kids: dict[Node, list[tuple[Node, np.ndarray]]] = {}
    for i, level in enumerate(f.levels):
        for v in level.blocks:
            if v in birth:
                continue
            birth[v] = times[:, i]
            if i:
                kids[v] = [
                    (u, (birth[v] - birth[u])[:, None])
                    for u in f.levels[i - 1].blocks
                    if u <= v
                ]
    leaves = [u for u in f.leaves if u != integrate_out]
    pos = np.array([x.positions[u] for u in leaves])
    phases = np.exp(-2j * math.pi * ks * pos[:, :, None])  # (leaf, coordinate, k)
    unit = np.zeros(2 * K + 1)
    unit[K] = 1.0

    def conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # for one row of 2K+1 values, FFT set-up costs more than it saves;
        # a quadrature of N(x) makes about 1e5 such one-row calls
        if T == 1:
            return np.convolve(a[0], b[0])[None, K : 3 * K + 1]
        return signal.fftconvolve(a, b, axes=1)[:, K : 3 * K + 1]

    out = 1.0
    for c in range(x.d):
        # the frequency vector entering each node from below
        up = {u: phases[j, c] for j, u in enumerate(leaves)}
        if integrate_out is not None:
            up[integrate_out] = unit
        for v, branches in kids.items():
            acc = None
            for u, length in branches:
                m = np.exp(length * decay) * up.pop(u)
                acc = m if acc is None else conv(acc, m)
            up[v] = acc
        vals = 1.0
        for root in f.roots:
            if root in kids:  # an isolated leaf has unit mass
                vals = vals * up[root][:, K]
        out = out * vals.real
    return out


def spatial_integral_g(
    f: Forest,
    tau: TimeDecoration,
    x: SpatialConfig,
    integrate_out: Node | None = None,
) -> float:
    """Integral of the branch-factor product over all internal torus locations.

    With ``integrate_out`` set, that leaf's position is integrated over the
    torus as well, giving the marginal with one leaf removed from view.
    """
    return float(_contract(f, np.array([tau.times]), x, integrate_out)[0])


def spatial_integral_g_batch(
    f: Forest, taus: np.ndarray, x: SpatialConfig
) -> np.ndarray:
    """The torus tree integral at a batch of level-time vectors.

    ``taus`` has shape (T, m); one value per row is returned.  A single
    frequency cutoff is chosen from the smallest level gap in the batch.
    """
    return _contract(f, taus, x)


# -- Normalization -----------------------------------------------------------


@dataclass
class NormalizationEstimate:
    value: float
    std_error: float
    method: str


def _forest_rates(table: RateTable, f: Forest) -> tuple[list[float], list[float]]:
    """(per-transition rates, per-level total rates) along the forest."""
    rates = [
        table.transition_rate(f.levels[i], f.levels[i + 1]) for i in range(f.m)
    ]
    totals = [table.total(len(f.levels[i])) for i in range(f.m)]
    return rates, totals


def _quad_forest(
    f: Forest,
    table: RateTable,
    x: SpatialConfig,
    integrand,
    epsrel: float = 1e-6,
):
    """Integrate rate-weighted integrand(tau) over the time decorations of a
    forest with at most two merge events.  integrand may be vector-valued."""
    rates, totals = _forest_rates(table, f)
    if any(r <= 0 for r in rates):
        return None
    if f.m == 1:

        def fn(t):
            return (
                rates[0]
                * math.exp(-totals[0] * t)
                * integrand(TimeDecoration((t,)))
            )

        val, err = integrate.quad_vec(fn, 0.0, np.inf, epsrel=epsrel)
        return val
    if f.m == 2:

        def outer(t1):
            def inner(s):
                return (
                    rates[0]
                    * rates[1]
                    * math.exp(-totals[0] * t1 - totals[1] * s)
                    * integrand(TimeDecoration((t1, t1 + s)))
                )

            v, _ = integrate.quad_vec(inner, 0.0, np.inf, epsrel=epsrel)
            return v

        val, err = integrate.quad_vec(outer, 0.0, np.inf, epsrel=epsrel)
        return val
    raise ValueError("quadrature only supports up to two merge events")


def normalization_N(
    x: SpatialConfig,
    table: RateTable,
    method: str = "auto",
    rng: np.random.Generator | None = None,
    integrate_out: Node | None = None,
    quad_epsrel: float = 1e-6,
) -> NormalizationEstimate:
    """Total mass of the unnormalized decorated-forest measure at ``x``.

    Per forest, the time integral is done by adaptive quadrature for at most
    two merge events and by Monte Carlo over the exact non-spatial sampler
    otherwise (the non-spatial density is exactly the required weight).
    """
    forests = enumerate_forests(x.partition, table.is_absorbing)
    per_forest: dict[Forest, tuple[float, float]] = {}
    mc_forests = []
    for f in forests:
        if f.is_trivial:
            per_forest[f] = (1.0, 0.0)
        elif method != "monte-carlo" and f.m <= 2:
            val = _quad_forest(
                f,
                table,
                x,
                lambda tau, f=f: spatial_integral_g(f, tau, x, integrate_out),
                epsrel=quad_epsrel,
            )
            per_forest[f] = (0.0, 0.0) if val is None else (float(val), 0.0)
        else:
            mc_forests.append(f)
    used_mc = bool(mc_forests)
    if used_mc:
        rng = rng if rng is not None else np.random.default_rng()
        sums = {f: 0.0 for f in mc_forests}
        sqs = {f: 0.0 for f in mc_forests}
        wanted = {f.levels: f for f in mc_forests}
        for _ in range(MC_SAMPLES):
            fs, tau = sample_nonspatial_path(table, x.partition, rng)
            f = wanted.get(fs.levels)
            if f is None:
                continue
            g = spatial_integral_g(f, tau, x, integrate_out)
            sums[f] += g
            sqs[f] += g * g
        for f in mc_forests:
            mean = sums[f] / MC_SAMPLES
            var = max(sqs[f] / MC_SAMPLES - mean * mean, 0.0) / MC_SAMPLES
            per_forest[f] = (mean, math.sqrt(var))
    value = sum(v for v, _ in per_forest.values())
    std = math.sqrt(sum(e * e for _, e in per_forest.values()))
    if not math.isfinite(value):
        raise ArithmeticError("normalization estimate is not finite")
    return NormalizationEstimate(
        value=value,
        std_error=std,
        method="monte-carlo" if used_mc else "quadrature",
    )


# -- Closed-form pair law (d = 1) -------------------------------------------


def pair_normalization_1d(delta, lam: float) -> np.ndarray:
    """Normalization of a pair on the circle at displacement ``delta``.

    A pair merges at rate ``lam`` and its displacement diffuses with twice
    the one-lineage variance, so

        N(delta) = int_0^inf lam e^{-lam t} p_{2t}(delta) dt
                 = sum_k lam / (lam + 4 pi^2 k^2) e^{2 pi i k delta},

    the Green's function of lam - d^2/dx^2 on the unit circle, times lam.
    Summed, this is the d = 1 Wright-Malecot formula of the paper,

        N(delta) = lam cosh(sqrt(lam) (|delta| - 1/2))
                   / (2 sqrt(lam) sinh(sqrt(lam) / 2)),

    with |delta| the torus distance.  It is evaluated as
    sqrt(lam) (e^{-a r} + e^{-a (1 - r)}) / (2 (1 - e^{-a})), a = sqrt(lam),
    r = |delta|, which does not overflow for large ``lam``.  Vectorized over
    ``delta``; N has unit mass over the circle.
    """
    if not lam > 0:
        raise ValueError("the pair merge rate must be positive")
    a = math.sqrt(lam)
    d = np.asarray(delta, dtype=float)
    r = np.abs(d - np.round(d))
    return a * (np.exp(-a * r) + np.exp(-a * (1.0 - r))) / (-2.0 * math.expm1(-a))


# -- Spectral route ----------------------------------------------------------
#
# For a fixed forest shape, summing the Fourier series of every branch factor
# and integrating the level gaps analytically gives
#
#   int f_tm(F, tau) g(F, tau, x) dtau
#     = sum over balanced frequency assignments of
#       prod_i rate_i / (lambda_i + 2 pi^2 A_i) * cos(2 pi sum_j k_j . x_j)
#
# where A_i is the squared-frequency total of the branches alive in gap i.
# No time quadrature is involved; the only error is the truncation of the
# frequency box, which decays like 1/cutoff.

SPECTRAL_CUTOFF = 64
# Element budget of one spectral frequency box of (2 cutoff + 1)^axes
# elements.  One float array of 2**24 elements is 128 MiB, and a forest's sum
# builds several arrays of the box's shape at once.
SPECTRAL_MAX_ELEMENTS = 2**24


def _spectral_layout(f: Forest, free_leaf: Node | None):
    """Free frequency axes of a forest and the dependent leaf of each root."""
    leaves = list(f.leaves)
    free_axes: list[int] = []  # leaf indices carrying a free frequency axis
    dependent: list[int] = []
    for root in f.roots:
        under = [j for j, u in enumerate(leaves) if u <= root]
        under_fixed = [j for j in under if leaves[j] != free_leaf]
        if not under_fixed:
            raise ValueError("a root contains only the free leaf")
        dependent.append(under_fixed[-1])
        free_axes.extend(under_fixed[:-1])
    return leaves, free_axes, dependent


def _spectral_sum(
    f: Forest,
    table: RateTable,
    x: SpatialConfig,
    cutoff: int,
    free_leaf: Node | None = None,
    want_grads: bool = False,
):
    """Exact time-integrated contribution of one forest, truncated in frequency.

    Returns a float, or (float, grads dict) with ``want_grads``, or (with
    ``free_leaf``) the complex coefficient vector C of the marginal density
    in the free leaf's position, sum_k C[k] exp(-2 pi i k y); d = 1 only
    in that case.
    """
    if f.is_trivial:
        raise ValueError("forest has no internal nodes")
    rates, lams = _forest_rates(table, f)
    if any(r <= 0 for r in rates):
        zero = np.zeros(2 * cutoff + 1, dtype=complex)
        if free_leaf is not None:
            return zero
        if want_grads:
            return 0.0, {u: np.zeros(x.d) for u in f.leaves}
        return 0.0
    d = x.d
    if free_leaf is not None and d != 1:
        raise ValueError("coefficient extraction is one-dimensional")

    leaves, free_axes, dependent = _spectral_layout(f, free_leaf)
    naxes = d * len(free_axes) + (1 if free_leaf is not None else 0)
    elements = (2 * cutoff + 1) ** naxes
    if elements > SPECTRAL_MAX_ELEMENTS:
        raise ValueError(
            f"spectral sum needs a frequency box of {elements:.3g} elements "
            f"({2 * cutoff + 1}^{naxes}), over the budget of "
            f"{SPECTRAL_MAX_ELEMENTS} elements; lower the cutoff"
        )
    kvals = np.arange(-cutoff, cutoff + 1)

    def axis_arr(a: int) -> np.ndarray:
        shape = [1] * naxes
        shape[a] = kvals.size
        return kvals.reshape(shape)

    # k[(j, c)]: frequency of leaf j in coordinate c, broadcastable arrays.
    k: dict[tuple[int, int], np.ndarray] = {}
    for a, j in enumerate(free_axes):
        for c in range(d):
            k[(j, c)] = axis_arr(a * d + c)
    kf = axis_arr(naxes - 1) if free_leaf is not None else None
    for root, j0 in zip(f.roots, dependent):
        under = [j for j, u in enumerate(leaves) if u <= root]
        for c in range(d):
            tot = 0
            for j in under:
                if j == j0 or leaves[j] == free_leaf:
                    continue
                tot = tot + k[(j, c)]
            if free_leaf is not None and free_leaf <= root and c == 0:
                tot = tot + kf
            k[(j0, c)] = -tot

    def node_freq(u: Node, c: int):
        tot = 0
        for j, leaf in enumerate(leaves):
            if leaf == free_leaf:
                if c == 0 and leaf <= u:
                    tot = tot + kf
            elif leaf <= u:
                tot = tot + k[(j, c)]
        return tot

    last_level = {}
    for i, lvl in enumerate(f.levels):
        for b in lvl.blocks:
            last_level[b] = i

    weight = 1.0
    roots = set(f.roots)
    for i in range(1, f.m + 1):
        A = 0
        for u in f.nodes:
            if u in roots:
                continue  # a root's frequency vanishes identically
            # u is alive during gap i iff it is a block of level i-1
            if f.birth_level(u) <= i - 1 <= last_level[u]:
                for c in range(d):
                    A = A + node_freq(u, c) ** 2
        weight = weight * (rates[i - 1] / (lams[i - 1] + 2.0 * math.pi**2 * A))

    phase = 0.0
    for j, leaf in enumerate(leaves):
        if leaf == free_leaf:
            continue
        for c in range(d):
            phase = phase + k[(j, c)] * float(x.positions[leaf][c])

    if free_leaf is not None:
        contrib = weight * np.exp(-2j * math.pi * phase)
        return contrib.sum(axis=tuple(range(naxes - 1)))
    cos = np.cos(2.0 * math.pi * phase)
    value = float((weight * cos).sum())
    if not want_grads:
        return value
    sin = np.sin(2.0 * math.pi * phase)
    grads = {}
    for j, leaf in enumerate(leaves):
        g = np.empty(d)
        for c in range(d):
            g[c] = -2.0 * math.pi * float((weight * k[(j, c)] * sin).sum())
        grads[leaf] = g
    return value, grads


def normalization_N_spectral(
    x: SpatialConfig, table: RateTable, cutoff: int = SPECTRAL_CUTOFF
) -> float:
    """Closed-form normalization, independent of the quadrature route."""
    total = 0.0
    for f in enumerate_forests(x.partition, table.is_absorbing):
        total += 1.0 if f.is_trivial else _spectral_sum(f, table, x, cutoff)
    return total


def grad_log_N_spectral(
    x: SpatialConfig, table: RateTable, cutoff: int = SPECTRAL_CUTOFF
) -> dict[Node, np.ndarray]:
    value = 0.0
    grads = {u: np.zeros(x.d) for u in x.partition.blocks}
    for f in enumerate_forests(x.partition, table.is_absorbing):
        if f.is_trivial:
            value += 1.0
            continue
        v, g = _spectral_sum(f, table, x, cutoff, want_grads=True)
        value += v
        for u, gu in g.items():
            grads[u] += gu
    if value <= 0:
        raise ArithmeticError("normalization value vanished; cannot take log-gradient")
    return {u: g / value for u, g in grads.items()}


# -- The resampling measure --------------------------------------------------

MU_GRID = 4096


def extended_config(x: SpatialConfig, y: np.ndarray) -> tuple[SpatialConfig, Node]:
    new_label = max(x.partition.ground_set, default=0) + 1
    new_block = frozenset({new_label})
    positions = dict(x.positions)
    positions[new_block] = np.atleast_1d(np.asarray(y, dtype=float))
    part = Partition(list(x.partition.blocks) + [new_block])
    return SpatialConfig(part, positions), new_block


def mu_coefficient_vector(x: SpatialConfig, table: RateTable) -> np.ndarray:
    """Fourier coefficients of the unnormalized resampling density (d = 1),
    truncated at SPECTRAL_CUTOFF."""
    cutoff = SPECTRAL_CUTOFF
    if x.d != 1:
        raise ValueError("grid densities are one-dimensional")
    ext, new_block = extended_config(x, np.zeros(1))
    coeffs = np.zeros(2 * cutoff + 1, dtype=complex)
    for f in enumerate_forests(ext.partition, table.is_absorbing):
        if f.is_trivial:
            coeffs[cutoff] += 1.0  # the free leaf never merges: uniform in y
            continue
        if new_block in f.roots and new_block in f.leaves:
            coeffs[cutoff] += _spectral_sum(f, table, ext, cutoff)
            continue
        coeffs += _spectral_sum(f, table, ext, cutoff, free_leaf=new_block)
    return coeffs


def mu_density_grid(
    x: SpatialConfig, table: RateTable, grid: int = MU_GRID
) -> np.ndarray:
    """Normalized density of the resampling measure on a uniform grid (d = 1).

    The density in the new position comes from the Fourier coefficients of
    the tree integral with the new leaf left free; the level-time integrals
    are in closed form, so no quadrature error enters.
    """
    coeffs = mu_coefficient_grid_eval(mu_coefficient_vector(x, table), grid)
    dens = np.maximum(coeffs, 0.0)
    return dens / dens.sum() * grid


def mu_coefficient_grid_eval(coeffs: np.ndarray, grid: int) -> np.ndarray:
    """Evaluate sum_k C[k] exp(-2 pi i k y) on the uniform grid of [0, 1)."""
    K = (coeffs.size - 1) // 2
    ys = np.arange(grid) / grid
    kf = np.arange(-K, K + 1)
    return (coeffs[None, :] * np.exp(-2j * math.pi * ys[:, None] * kf)).sum(1).real


def sample_from_grid_density(dens: np.ndarray, rng: np.random.Generator) -> float:
    """One inverse-CDF draw from a piecewise-constant density on [0,1)."""
    grid = dens.size
    idx = rng.choice(grid, p=dens / dens.sum())
    return (idx + rng.uniform()) / grid


MCMC_STEPS = 305  # 300 burn-in and 5 thinning steps; the last state is drawn
MCMC_STEP = 0.12


@dataclass
class MuSampler:
    """Sampler for the conditional resampling measure given placed positions.

    d = 1 uses an exact inverse CDF on a ``grid``-cell density; d >= 2 a
    Metropolis random walk on the torus of MCMC_STEPS steps with Gaussian
    proposals of scale MCMC_STEP, with the normalization (quadrature route)
    as the unnormalized target.
    """

    x: SpatialConfig
    table: RateTable
    grid: int = MU_GRID

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        if self.x.d == 1:
            dens = mu_density_grid(self.x, self.table, self.grid)
            return np.atleast_1d(sample_from_grid_density(dens, rng))
        return self._sample_mcmc(rng)

    def _logpi(self, y: np.ndarray) -> float:
        ext, _ = extended_config(self.x, y)
        val = normalization_N(ext, self.table).value
        return math.log(val) if val > 0 else -math.inf

    def _sample_mcmc(self, rng: np.random.Generator) -> np.ndarray:
        d = self.x.d
        y = wrap(rng.uniform(size=d))
        lp = self._logpi(y)
        accepted = 0
        for _ in range(MCMC_STEPS):
            prop = wrap(y + MCMC_STEP * rng.normal(size=d))
            lq = self._logpi(prop)
            if math.log(rng.uniform()) < lq - lp:
                y, lp = prop, lq
                accepted += 1
        rate = accepted / MCMC_STEPS
        if not 0.1 <= rate <= 0.9:
            raise RuntimeError(f"MCMC acceptance rate {rate:.2f} outside [0.1, 0.9]")
        return y


def sample_mu(
    x: SpatialConfig, table: RateTable, rng: np.random.Generator, grid: int = MU_GRID
) -> np.ndarray:
    """One draw of the next sampled position given the placed lineages."""
    return MuSampler(x, table, grid).sample(rng)
