"""The spatial density along a decorated forest, its torus integral, and the
normalization function that drives sampling, drift and resampling.

The torus integral g(F, tau, x) over internal merge locations has one
implementation, ``_contract``, over a batch of level-time vectors, per
coordinate and split at SPLIT_TIME (Ewald summation).  A subtree whose
nodes are all born earlier is collapsed in real space: its Gaussians,
unwrapped over a few lattice images of each leaf, multiply into a sum of
Gaussians with known weights, means and variance.  Above it, every branch
carries a frequency vector: integrating an internal node's location forces
the frequencies of incident branches to balance, and leaves contribute
phases.  Every message that reaches the Fourier part is then smooth on the
scale of SPLIT_TIME, so a few dozen frequencies suffice at any level times.
The Monte Carlo route of N(x) and the sampler's SIR weights call it on
rows.  The quadrature route (one fixed tensor product of log-time
Gauss-Legendre rules, one per level gap) and the sampler's gap tables are
tensor grids, and call ``_contract_grid``: it contracts everything below
the last level once per prefix of level times, and then every root born at
the last level as one matrix product over Fourier modes and last gaps, the
few cells whose last level is born before SPLIT_TIME staying on rows.  The
spectral route integrates the level times in closed form instead, and the
d = 1 pair law has its own closed form.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from .forests import Forest, Node, enumerate_forests
from .kernels import (
    SpatialConfig,
    gaussian_product_collapse,
    torus_displacement,
    wrap,
)
from .measures import RateTable, sample_nonspatial_path
from .partitions import Partition

MAX_FREQ_CUTOFF = 64
MIN_FREQ_CUTOFF = 4
MC_SAMPLES = 20000  # proposals of the Monte Carlo route of N(x)
# Nodes born before SPLIT_TIME are collapsed in real space, over the lattice
# offsets IMAGE_OFFSETS of each leaf relative to its subtree's first leaf
# (the next image is e^-75 below the kept ones there); the Fourier part then
# only sees messages of variance at least SPLIT_TIME / (number of leaves).
SPLIT_TIME = 0.02
IMAGE_OFFSETS = np.arange(-2, 3)
CHUNK_ROWS = 512  # level-time rows contracted at once
# The time rule of the quadrature route: per level gap, Gauss-Legendre nodes
# in log time on two panels, GAP_NODES[0] on [GAP_MIN, SPLIT_TIME] and
# GAP_NODES[1] from SPLIT_TIME to GAP_MAX_MEANS mean lengths of the gap.
GAP_NODES = (96, 40)
GAP_MIN = 1e-14
GAP_MAX_MEANS = 60.0


def freq_cutoff(t_min: float) -> int:
    """Frequency cutoff so the tail of exp(-2 pi^2 k^2 t) is below 1e-14."""
    if t_min <= 0:
        raise ValueError("branch length must be positive")
    k = int(math.ceil(4.0 / math.sqrt(2.0 * math.pi**2 * t_min)))
    return max(MIN_FREQ_CUTOFF, min(MAX_FREQ_CUTOFF, k))


# -- Tree contraction ---------------------------------------------------------


def _contract(
    f: Forest,
    taus: np.ndarray,
    x: SpatialConfig,
    integrate_out: Node | None = None,
) -> np.ndarray:
    """The torus tree integral at a batch of level-time vectors, one per row.

    Rows are grouped by how many levels are born before SPLIT_TIME, and
    contracted CHUNK_ROWS at a time by ``_contract_rows``, which rebuilds
    every message per row.  A tensor grid of level times goes to
    ``_contract_grid`` instead, which builds each only once per prefix.
    """
    if f.is_trivial:
        raise ValueError("forest has no internal nodes")
    taus = np.atleast_2d(np.asarray(taus, dtype=float))
    if taus.shape[1] != f.m:
        raise ValueError("level-time batch does not match the forest")
    if not (np.diff(taus, axis=1, prepend=0.0) > 0).all():
        raise ValueError("branch length must be positive")
    out = np.empty(taus.shape[0])
    short = (taus < SPLIT_TIME).sum(axis=1)
    for j in np.unique(short):
        rows = np.flatnonzero(short == j)
        for lo in range(0, rows.size, CHUNK_ROWS):
            chunk = rows[lo : lo + CHUNK_ROWS]
            out[chunk] = _contract_rows(f, taus[chunk], x, integrate_out, int(j))
    return out


def _contract_rows(
    f: Forest,
    taus: np.ndarray,
    x: SpatialConfig,
    integrate_out: Node | None,
    short_levels: int,
) -> np.ndarray:
    """The tree integral at rows whose first ``short_levels`` levels are born
    before SPLIT_TIME: the product over coordinates of every root's value
    from ``_coordinate_factors``.  The frequency cutoff comes from
    ``freq_cutoff`` of the smallest collapsed variance of a long node, which
    is at least SPLIT_TIME / (leaves below)."""
    tree = birth, kids, r = _branches(f, taus, integrate_out)
    long = [v for v in kids if birth[v] > short_levels]
    K = freq_cutoff(min(float(r[v].min()) for v in long)) if long else 0
    out = np.ones(taus.shape[0])
    for values, _ in _coordinate_factors(f, x, integrate_out, tree, short_levels, K):
        for value in values:
            out = out * value
    return out


def _branches(
    f: Forest,
    taus: np.ndarray,
    integrate_out: Node | None,
    open_level: int | None = None,
):
    """The birth level of every node; the kept children of every internal
    node with their branch lengths, per row, in birth order so that children
    come before their parents; and r[v], the variance of the product of the
    messages entering v (0 at a leaf).  r is left out for the nodes born at
    ``open_level``, whose branches may have zero length."""
    T = taus.shape[0]
    times = np.zeros((T, f.m + 1))  # column i: level time i
    times[:, 1:] = taus
    birth: dict[Node, int] = {}
    kids: dict[Node, list[tuple[Node, np.ndarray]]] = {}
    r: dict[Node, np.ndarray] = {}
    for i, level in enumerate(f.levels):
        for v in level.blocks:
            if v in birth:
                continue
            birth[v] = i
            if not i:
                r[v] = np.zeros((T, 1))
                continue
            kids[v] = [
                (u, (times[:, i] - times[:, birth[u]])[:, None])
                for u in f.levels[i - 1].blocks
                if u <= v and u != integrate_out
            ]
            if i != open_level:
                r[v] = 1.0 / sum(1.0 / (r[u] + length) for u, length in kids[v])
    return birth, kids, r


def _coordinate_factors(
    f: Forest,
    x: SpatialConfig,
    integrate_out: Node | None,
    tree: tuple,
    short_levels: int,
    K: int,
    open_level: int | None = None,
):
    """Per coordinate, leaves to roots at cutoff K over the ``_branches`` of
    a batch of rows: the value of every root in order, and for every root
    born at ``open_level``, its children's messages damped by their branches.

    A node born at or before level ``short_levels`` (short) is collapsed in
    real space: its subtree's Gaussians, unwrapped over IMAGE_OFFSETS per
    leaf, combine by ``gaussian_product_collapse`` into weights W_q at means
    xbar_q with one variance r, so the node's message in z is
    sum_q W_q p_r(z - xbar_q) exactly.  A short root contributes sum_q W_q;
    a short node under a long one sends the Fourier series
    sum_q W_q e^{-2 pi i k xbar_q - 2 pi^2 k^2 r}.  Above them, every branch
    carries a frequency vector: a leaf its phase exp(-2 pi i k y), and a long
    internal node the convolution of its children's messages, each damped by
    its branch; a long root takes mode 0 of that product.  The leaf
    ``integrate_out`` has unit mass and drops out of both parts.
    """
    birth, kids, r = tree
    short = [v for v in kids if birth[v] <= short_levels]
    long = [v for v in kids if birth[v] > short_levels]
    ks = np.arange(-K, K + 1)
    decay = -2.0 * math.pi**2 * ks**2
    unit = (ks == 0)[None, :]
    parent = {u: v for v, branches in kids.items() for u, _ in branches}
    # a topmost short node's kept leaves, each with its first leaf and its
    # lattice offset per image, on an axis shared by the whole subtree; the
    # first leaf stays put and the others take every offset
    top = [v for v in short if parent.get(v) not in short]
    images: dict[Node, tuple[Node, np.ndarray]] = {}
    for v in top:
        below = [u for u in f.leaves if u <= v and u != integrate_out]
        offsets = [[0]] + [IMAGE_OFFSETS] * (len(below) - 1)
        combos = np.array(list(itertools.product(*offsets)))
        images.update({u: (below[0], combos[:, j]) for j, u in enumerate(below)})

    for c in range(x.d):
        y = {u: float(x.positions[u][c]) for u in f.leaves}
        # real space: per image, the mean and weight of every short subtree
        xbar = {
            u: y[a] + torus_displacement(y[u], y[a]) + offsets
            for u, (a, offsets) in images.items()
        }
        weight = {u: 1.0 for u in images}
        for v in short:
            ss = [r[u] + length for u, length in kids[v]]
            _, xbar[v] = gaussian_product_collapse([xbar[u] for u, _ in kids[v]], ss)
            w = np.sqrt(2.0 * math.pi * r[v])
            for (u, _), su in zip(kids[v], ss):
                dz = xbar[v] - xbar[u]
                w = w * weight[u] * np.exp(-dz * dz / (2.0 * su))
                w = w / np.sqrt(2.0 * math.pi * su)
            weight[v] = w
        # Fourier space, from the leaves and the topmost short nodes up
        up = {u: np.exp(-2j * math.pi * ks * y[u])[None, :] for u in f.leaves}
        for v in top:
            if v in parent:
                up[v] = _image_series(weight[v], xbar[v], K) * np.exp(r[v] * decay)
        values, opened = [], {}
        for v in long:
            ms = [np.exp(length * decay) * up.pop(u) for u, length in kids[v]]
            if v in parent:
                up[v] = functools.reduce(_convolve_modes, ms)
            elif birth[v] == open_level:
                opened[v] = ms
            else:  # a root needs only k = 0 of the product of its messages
                *rest, last = ms
                acc = functools.reduce(_convolve_modes, rest) if rest else unit
                values.append((acc * last[:, ::-1]).sum(1).real)
        for v in top:
            if v not in parent:
                values.append(weight[v].sum(1))
        yield values, opened


def _convolve_modes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, modes -K..K of the product of two complex Fourier series
    with modes -K..K (rows broadcast): the operations, in order, that
    ``scipy.signal.fftconvolve(a, b, axes=1)[:, K:3K+1]`` performs on complex
    input, without its argument handling."""
    K = (a.shape[1] - 1) // 2
    n = a.shape[1] + b.shape[1] - 1
    m = sp_fft.next_fast_len(n, False)
    spec = sp_fft.fftn(a, [m], axes=[1]) * sp_fft.fftn(b, [m], axes=[1])
    return sp_fft.ifftn(spec, [m], axes=[1])[:, K : 3 * K + 1]


def _image_series(w: np.ndarray, xbar: np.ndarray, K: int) -> np.ndarray:
    """sum_q w_q exp(-2 pi i k xbar_q) for k = -K..K, rows on the first axis
    and images q on the second, by powers of exp(-2 pi i xbar_q); w is real,
    so the coefficient at -k is the conjugate of the one at k."""
    z = np.exp(-2j * math.pi * xbar)
    zk = w.astype(complex)
    out = np.empty((w.shape[0], 2 * K + 1), dtype=complex)
    out[:, K] = w.sum(1)
    for k in range(1, K + 1):
        zk = zk * z
        out[:, K + k] = zk.sum(1)
    out[:, :K] = out[:, : K : -1].conj()
    return out


def _contract_grid(
    f: Forest,
    level_gaps: list[np.ndarray],
    x: SpatialConfig,
    integrate_out: Node | None = None,
) -> np.ndarray:
    """The tree integral on a tensor grid of level gaps, one 1-D array per
    gap: entry (j_1, ..., j_m) has the gaps level_gaps[0][j_1], ...,
    level_gaps[-1][j_m].  A prefix is a cell of the grid of the first m - 1
    gaps, and the last gap s runs over ``level_gaps[-1]``.

    Every branch alive in the last gap ends at the last level, so the gap s
    enters a root born there only through exp(s A(kappa)), with
    A(kappa) = -2 pi^2 sum_l kappa_l^2 over the balanced modes kappa of its
    branches.  Everything below the last level is contracted once per prefix
    by ``_coordinate_factors``, at one cutoff for the whole grid, the
    largest that ``_contract`` would use on any of its rows; such a root is
    then one matrix product over modes (``_root_over_gaps``), roots born
    earlier scale rows, and coordinates multiply.  Cells whose last level is
    born before SPLIT_TIME stay on rows (``spatial_integral_g_batch``), and
    so does a grid whose last level makes a root of four or more branches.
    """
    if f.is_trivial:
        raise ValueError("forest has no internal nodes")
    if len(level_gaps) != f.m:
        raise ValueError("level-gap grid does not match the forest")
    *head, gaps = [np.asarray(g, dtype=float) for g in level_gaps]
    if head:
        mesh = np.meshgrid(*head, indexing="ij")
        prefixes = np.cumsum(np.stack([g.ravel() for g in mesh], axis=1), axis=1)
    else:
        prefixes = np.zeros((1, 0))
    if not ((np.diff(prefixes, axis=1, prepend=0.0) > 0).all() and (gaps > 0).all()):
        raise ValueError("branch length must be positive")
    P = prefixes.shape[0]
    start = prefixes[:, -1] if f.m > 1 else np.zeros(P)
    last = start[:, None] + gaps[None, :]
    out = np.empty((P, gaps.size))
    on_rows = last < SPLIT_TIME
    # a root with p kept children born at the last level has (2K+1)^(p-1)
    # mode vectors; past three children they outnumber the cells, so such a
    # grid stays on rows
    widest = max(
        sum(u <= v and u != integrate_out for u in f.levels[-2].blocks)
        for v in f.levels[-1].blocks
        if f.birth_level(v) == f.m
    )
    if widest > 3:
        on_rows[:] = True
    if on_rows.any():
        i, j = np.nonzero(on_rows)
        rows = np.column_stack([prefixes[i], last[i, j]])
        out[i, j] = spatial_integral_g_batch(f, rows, x, integrate_out)
    shape = [g.size for g in head] + [gaps.size]
    kept = np.flatnonzero(~on_rows.all(axis=1))
    if not kept.size:
        return out.reshape(shape)
    pre = prefixes[kept]
    short = (pre < SPLIT_TIME).sum(axis=1)
    # the collapsed variances grow with the last gap, so each prefix's
    # smallest sits at its shortest gap off the row path
    s_min = np.where(on_rows[kept], np.inf, gaps).min(axis=1)
    birth, kids, r = _branches(
        f, np.column_stack([pre, start[kept] + s_min]), integrate_out
    )
    t_min = np.full(kept.size, np.inf)
    for v in kids:
        t_min = np.minimum(t_min, np.where(birth[v] > short, r[v][:, 0], np.inf))
    K = freq_cutoff(float(t_min.min()))
    for j in np.unique(short):
        sel = kept[short == j]
        times = np.column_stack([prefixes[sel], start[sel]])
        tree = _branches(f, times, integrate_out, open_level=f.m)
        vals = np.ones((sel.size, gaps.size))
        for values, opened in _coordinate_factors(
            f, x, integrate_out, tree, int(j), K, open_level=f.m
        ):
            for value in values:
                vals *= value[:, None]
            for ms in opened.values():
                vals *= _root_over_gaps(ms, gaps)
        out[sel] = np.where(on_rows[sel], out[sel], vals)
    return out.reshape(shape)


@functools.lru_cache(maxsize=None)
def _balanced_modes(p: int, K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mode vectors (kappa_1, ..., kappa_p) in -K..K^p that sum to zero,
    as indices into -K..K of shape (p, n), sorted by sum_l kappa_l^2; with
    the first column of each run of equal sums, and that sum per run."""
    free = np.array(list(itertools.product(range(-K, K + 1), repeat=p - 1)), dtype=int)
    modes = np.column_stack([free, -free.sum(axis=1)])
    modes = modes[np.abs(modes[:, -1]) <= K]
    a = (modes**2).sum(axis=1)
    order = np.argsort(a, kind="stable")
    modes, a = modes[order], a[order]
    starts = np.flatnonzero(np.r_[True, a[1:] != a[:-1]])
    return (modes + K).T, starts, a[starts]


def _root_over_gaps(ms: list[np.ndarray], gaps: np.ndarray) -> np.ndarray:
    """Mode 0 of the product of a root's incoming messages ``ms`` (rows on
    the first axis, modes -K..K on the second) after every branch is damped
    by a further gap s, for each gap: sum_kappa C[i, kappa] exp(s_j A(kappa))
    with C the product of the messages at the modes kappa, summed over the
    kappa of one A first."""
    modes, starts, a = _balanced_modes(len(ms), (ms[0].shape[1] - 1) // 2)
    C = functools.reduce(np.multiply, (m[:, k] for m, k in zip(ms, modes))).real
    damp = np.exp(np.outer(-2.0 * math.pi**2 * a, gaps))
    return np.add.reduceat(C, starts, axis=1) @ damp


def spatial_integral_g_batch(
    f: Forest,
    taus: np.ndarray,
    x: SpatialConfig,
    integrate_out: Node | None = None,
) -> np.ndarray:
    """The torus tree integral at a batch of level-time vectors.

    ``taus`` has shape (T, m); one value per row is returned.
    """
    return _contract(f, taus, x, integrate_out)


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


@functools.lru_cache(maxsize=None)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n."""
    return np.polynomial.legendre.leggauss(n)


def _gap_rule(lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s and weights w with sum_i w_i h(s_i) ~ int_0^inf e^{-lam s} h(s) ds.

    Gauss-Legendre in log s, GAP_NODES per panel.  The panel boundary at
    SPLIT_TIME keeps the switch of ``_contract`` between real and Fourier
    space off the interior of a panel.
    """
    edges = (GAP_MIN, SPLIT_TIME, max(GAP_MAX_MEANS / lam, 2.0 * SPLIT_TIME))
    nodes, weights = [], []
    for a, b, n in zip(edges, edges[1:], GAP_NODES):
        u, w = _legendre(n)
        half = 0.5 * math.log(b / a)
        s = math.sqrt(a * b) * np.exp(half * u)
        nodes.append(s)
        weights.append(half * w * s * np.exp(-lam * s))
    return np.concatenate(nodes), np.concatenate(weights)


def _quad_forest(
    f: Forest, table: RateTable, x: SpatialConfig, integrate_out: Node | None
) -> float:
    """Integrate the rate-weighted tree integral over the time decorations of
    a forest with at most two merge events, by the tensor product of one
    ``_gap_rule`` per level gap, contracted as one grid by ``_contract_grid``."""
    rates, totals = _forest_rates(table, f)
    if any(r <= 0 for r in rates):
        return 0.0
    if f.m > 2:
        raise ValueError("quadrature only supports up to two merge events")
    rules = [_gap_rule(lam) for lam in totals]
    g = _contract_grid(f, [s for s, _ in rules], x, integrate_out)
    for _, w in rules:
        g = w @ g
    return math.prod(rates) * float(g)


def normalization_N(
    x: SpatialConfig,
    table: RateTable,
    method: str = "auto",
    rng: np.random.Generator | None = None,
    integrate_out: Node | None = None,
) -> NormalizationEstimate:
    """Total mass of the unnormalized decorated-forest measure at ``x``.

    Per forest, the time integral is done by a fixed Gauss rule (one
    ``_gap_rule`` per level gap, see ``_quad_forest``) for at most two merge
    events, and by Monte Carlo over the exact non-spatial sampler otherwise
    (the non-spatial density is exactly the required weight).  Either way
    the tree integrals of a forest go to ``_contract`` as one batch.  With
    ``integrate_out``, that leaf's position is integrated over the torus.
    ``method`` is "auto" (the Gauss rule where it applies) or "monte-carlo"
    (Monte Carlo for every forest).
    """
    if method not in ("auto", "monte-carlo"):
        raise ValueError(
            f"unknown normalization method {method!r}: use 'auto' or 'monte-carlo'"
        )
    forests = enumerate_forests(x.partition, table.is_absorbing)
    per_forest: dict[Forest, tuple[float, float]] = {}
    mc_forests = []
    for f in forests:
        if f.is_trivial:
            per_forest[f] = (1.0, 0.0)
        elif method != "monte-carlo" and f.m <= 2:
            per_forest[f] = (_quad_forest(f, table, x, integrate_out), 0.0)
        else:
            mc_forests.append(f)
    used_mc = bool(mc_forests)
    if used_mc:
        rng = rng if rng is not None else np.random.default_rng()
        hits: dict[Forest, list[tuple[float, ...]]] = {f: [] for f in mc_forests}
        wanted = {f.levels: f for f in mc_forests}
        for _ in range(MC_SAMPLES):
            fs, tau = sample_nonspatial_path(table, x.partition, rng)
            if fs.levels in wanted:
                hits[wanted[fs.levels]].append(tau.times)
        for f, taus in hits.items():
            g = _contract(f, np.array(taus), x, integrate_out) if taus else np.zeros(0)
            mean = g.sum() / MC_SAMPLES
            var = max((g * g).sum() / MC_SAMPLES - mean * mean, 0.0) / MC_SAMPLES
            per_forest[f] = (float(mean), math.sqrt(var))
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
    are in closed form, so no quadrature error enters.  The coefficients are
    folded onto the grid and summed by one FFT (``mu_coefficient_grid_eval``).
    """
    coeffs = mu_coefficient_grid_eval(mu_coefficient_vector(x, table), grid)
    dens = np.maximum(coeffs, 0.0)
    return dens / dens.sum() * grid


def mu_coefficient_grid_eval(coeffs: np.ndarray, grid: int) -> np.ndarray:
    """Evaluate sum_k C[k] exp(-2 pi i k y) at y = j / grid, j < grid, as one
    FFT of length ``grid``.

    At those points mode k has the phase of mode k mod grid, so each C[k]
    is added onto residue k mod grid before the transform.  Adding, not
    assigning, keeps the sum exact on grids of fewer than 2K + 1 cells,
    where several modes share a residue.
    """
    K = (coeffs.size - 1) // 2
    folded = np.zeros(grid, dtype=complex)
    np.add.at(folded, np.arange(-K, K + 1) % grid, coeffs)
    return np.fft.fft(folded).real


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

    d = 1 uses an exact inverse CDF on a MU_GRID-cell density, which one FFT
    of the folded Fourier coefficients evaluates (``mu_density_grid``); d >= 2 a
    Metropolis random walk on the torus of MCMC_STEPS steps with Gaussian
    proposals of scale MCMC_STEP, with the normalization (quadrature route,
    a fixed Gauss rule of one grid contraction per forest) as the
    unnormalized target.  One target evaluation for a third point in d = 2
    takes about 0.12 s on a 2-core machine, so a draw of MCMC_STEPS + 1
    evaluations takes about 40 s.
    """

    x: SpatialConfig
    table: RateTable

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        if self.x.d == 1:
            dens = mu_density_grid(self.x, self.table)
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
    x: SpatialConfig, table: RateTable, rng: np.random.Generator
) -> np.ndarray:
    """One draw of the next sampled position given the placed lineages."""
    return MuSampler(x, table).sample(rng)
