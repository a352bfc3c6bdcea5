"""Heat kernels on the torus and on Euclidean space.

All kernels use the standard Brownian scaling: variance t after time t, per
coordinate.  The torus kernel is the wrapped Gaussian, evaluated either as
an image sum (fast for small t) or as its Fourier series (fast for large t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .forests import Forest, Node, TimeDecoration
from .partitions import Partition

DEFAULT_CUTOFF = 12
METHOD_SWITCH_T = 1.0 / (2.0 * math.pi)


def wrap(x: np.ndarray) -> np.ndarray:
    """Wrap coordinates into [0, 1)."""
    return np.asarray(x, dtype=float) % 1.0


def torus_displacement(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Signed shortest displacement a - b, componentwise in [-1/2, 1/2)."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return d - np.round(d)


def torus_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(torus_displacement(a, b)))


@dataclass(frozen=True)
class KernelMethod:
    variant: str = "auto"  # image-sum | fourier | auto
    cutoff: int = DEFAULT_CUTOFF

    def __post_init__(self):
        if self.variant not in ("image-sum", "fourier", "auto"):
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")

    def pick(self, t: float) -> str:
        if self.variant != "auto":
            return self.variant
        return "image-sum" if t < METHOD_SWITCH_T else "fourier"


AUTO = KernelMethod()


def _kernel_1d(t, x, method: KernelMethod) -> np.ndarray:
    """Wrapped 1-d heat kernel, vectorized over t and x, which broadcast.

    Each t picks its branch, image sum or Fourier series, by a mask on t.
    """
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    K = method.cutoff
    if method.variant == "auto":
        image = t < METHOD_SWITCH_T
    else:
        image = np.full(t.shape, method.variant == "image-sum")
    out = np.empty(t.shape)
    ti, xi = t[image][..., None], x[image][..., None]
    z = xi + np.arange(-K, K + 1)
    out[image] = (np.exp(-z * z / (2.0 * ti)) / np.sqrt(2.0 * math.pi * ti)).sum(-1)
    tf, xf = t[~image][..., None], x[~image][..., None]
    k = np.arange(1, K + 1)
    out[~image] = 1.0 + 2.0 * (
        np.exp(-2.0 * math.pi**2 * k**2 * tf) * np.cos(2.0 * math.pi * k * xf)
    ).sum(-1)
    return out


def _grad_log_1d(t: float, x: np.ndarray, method: KernelMethod) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    K = method.cutoff
    if method.pick(t) == "image-sum":
        k = np.arange(-K, K + 1)
        z = x[..., None] + k
        w = np.exp(-z * z / (2.0 * t))
        return -(z * w).sum(-1) / (t * w.sum(-1))
    k = np.arange(1, K + 1)
    damp = np.exp(-2.0 * math.pi**2 * k**2 * t)
    num = -2.0 * (2.0 * math.pi * k * damp * np.sin(2.0 * math.pi * k * x[..., None])).sum(-1)
    den = 1.0 + 2.0 * (damp * np.cos(2.0 * math.pi * k * x[..., None])).sum(-1)
    return num / den


def torus_kernel(t: float, x: np.ndarray, method: KernelMethod = AUTO) -> float:
    """Transition density p_t(x) of Brownian motion on the flat torus."""
    if t <= 0:
        raise ValueError("t must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(np.prod(_kernel_1d(t, x, method)))


def torus_kernel_grad_log(t: float, x: np.ndarray) -> np.ndarray:
    """Componentwise gradient of log p_t at x."""
    if t <= 0:
        raise ValueError("t must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _grad_log_1d(t, x, AUTO)


def gauss_kernel(t: float, x: np.ndarray) -> float:
    """Euclidean heat kernel, variance t per coordinate."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.size
    return float(
        (2.0 * math.pi * t) ** (-d / 2.0) * math.exp(-float(x @ x) / (2.0 * t))
    )


def gaussian_product_collapse(xs, ss) -> tuple[float | np.ndarray, np.ndarray]:
    """Collapse a product of Gaussians in a common variable.

    Returns (s, xbar) with 1/s = sum 1/s_i and xbar the precision-weighted
    mean, so that prod_i p_{s_i}(x_i - z) equals
    p_s(z - xbar)/p_s(0) * prod_i p_{s_i}(x_i - xbar) identically in z.
    The x_i and s_i may carry leading axes of parallel cases, which
    broadcast.
    """
    xs = [np.atleast_1d(np.asarray(x, dtype=float)) for x in xs]
    ss = [np.asarray(s, dtype=float) for s in ss]
    if not xs or len(xs) != len(ss):
        raise ValueError("need matching, nonempty xs and ss")
    if any(np.any(s <= 0) for s in ss):
        raise ValueError("all s_i must be positive")
    inv = sum(1.0 / s for s in ss)
    xbar = sum(x / (si * inv) for x, si in zip(xs, ss))
    return 1.0 / inv, xbar


def tree_collapse(
    f: Forest, tau: TimeDecoration, leafpos: Mapping[Node, np.ndarray]
) -> tuple[dict[Node, float], dict[Node, np.ndarray]]:
    """Leaves-to-root pass computing the effective variance r_v and the
    effective mean position xbar_v of every node's subtree."""
    r: dict[Node, float] = {}
    xbar: dict[Node, np.ndarray] = {}
    for u in f.leaves:
        r[u] = 0.0
        xbar[u] = np.atleast_1d(np.asarray(leafpos[u], dtype=float))
    for i in range(1, f.m + 1):
        tv = tau.level_time(i)
        for v in f.levels[i].blocks:
            if v in r:
                continue
            ch = f.children(v)
            ss = [r[u] + tv - tau.birth_time(f, u) for u in ch]
            r[v], xbar[v] = gaussian_product_collapse([xbar[u] for u in ch], ss)
    return r, xbar


def euclidean_tree_integral(
    f: Forest, tau: TimeDecoration, leafpos: Mapping[Node, np.ndarray]
) -> float | np.ndarray:
    """Closed-form integral of the Gaussian branch-factor product over all
    internal locations in Euclidean space.

    Leaf positions have their coordinates on the last axis.  Leading axes
    hold parallel cases; they broadcast across leaves, and one value is
    returned per case.
    """
    if f.is_trivial:
        raise ValueError("forest has no internal nodes")
    for i in range(1, f.m + 1):
        if tau.level_time(i) <= tau.level_time(i - 1):
            raise ValueError("non-positive branch length")
    r, xbar = tree_collapse(f, tau, leafpos)
    d = xbar[f.leaves[0]].shape[-1]
    w = 1.0
    for v in f.internal_nodes:
        tv = tau.birth_time(f, v)
        w = w * math.sqrt(2.0 * math.pi * r[v]) ** d
        for u in f.children(v):
            su = r[u] + tv - tau.birth_time(f, u)
            dz = xbar[v] - xbar[u]
            w = w * np.exp(-(dz * dz).sum(-1) / (2.0 * su))
            w = w / math.sqrt(2.0 * math.pi * su) ** d
    return w if np.ndim(w) else float(w)


def _offset_range(T: float, cutoff: int | None) -> np.ndarray:
    if cutoff is None:
        cutoff = max(2, int(math.ceil(6.0 * math.sqrt(T))) + 1)
    return np.arange(-cutoff, cutoff + 1)


def torus_bridge_offset(
    a: np.ndarray,
    b: np.ndarray,
    T: float,
    rng: np.random.Generator,
    cutoff: int | None = None,
) -> np.ndarray:
    """Sample the integer unwrapping offset k with P(k) prop. to the Gaussian
    image weight of b - a + k.  A Euclidean bridge from a to b + k, wrapped,
    is then an exact torus Brownian bridge."""
    if T <= 0:
        raise ValueError("T must be positive")
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    ks = _offset_range(T, cutoff)
    out = np.empty(a.size, dtype=int)
    for c in range(a.size):
        z = b[c] - a[c] + ks
        w = np.exp(-(z * z) / (2.0 * T))
        out[c] = ks[rng.choice(ks.size, p=w / w.sum())]
    return out


@dataclass(frozen=True)
class SpatialConfig:
    """Labeled lineage positions on the torus, excluding the diagonal.

    At most one coincident pair is allowed in d = 1, none in d >= 2.
    Coincidence means exact equality of wrapped coordinates.
    """

    partition: Partition
    positions: Mapping[Node, np.ndarray]

    def __post_init__(self):
        pos = {u: wrap(np.atleast_1d(np.asarray(p, dtype=float))) for u, p in self.positions.items()}
        object.__setattr__(self, "positions", pos)
        if set(pos) != set(self.partition.blocks):
            raise ValueError("positions must be given for exactly the blocks")
        dims = {p.size for p in pos.values()}
        if len(dims) > 1:
            raise ValueError("inconsistent dimensions")
        d = dims.pop() if dims else 1
        blocks = self.partition.blocks
        coincident = sum(
            1
            for i in range(len(blocks))
            for j in range(i + 1, len(blocks))
            if np.array_equal(pos[blocks[i]], pos[blocks[j]])
        )
        if coincident > (1 if d == 1 else 0):
            raise ValueError("too many coincident lineage positions")

    @property
    def d(self) -> int:
        return next(iter(self.positions.values())).size

    @property
    def n(self) -> int:
        return len(self.partition)

    def as_matrix(self) -> np.ndarray:
        """Positions stacked in canonical block order, shape (n, d)."""
        return np.stack([self.positions[b] for b in self.partition.blocks])

    def min_separation(self) -> float:
        blocks = self.partition.blocks
        if len(blocks) < 2:
            return math.inf
        return min(
            torus_distance(self.positions[blocks[i]], self.positions[blocks[j]])
            for i in range(len(blocks))
            for j in range(i + 1, len(blocks))
        )

    @classmethod
    def from_points(cls, points, labels=None) -> "SpatialConfig":
        points = [np.atleast_1d(np.asarray(p, dtype=float)) for p in points]
        if labels is None:
            labels = range(1, len(points) + 1)
        blocks = [frozenset({l}) for l in labels]
        return cls(Partition(blocks), dict(zip(blocks, points)))
