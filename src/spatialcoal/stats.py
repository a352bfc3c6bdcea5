"""Goodness-of-fit tests and reproducible RNG plumbing for the experiment drivers.

The Kolmogorov-Smirnov and chi-square tests need only ``numpy`` and
``scipy.special``.  Their statistics are computed as ``scipy.stats`` computes
them.  The chi-square p-value is ``special.chdtrc``.  The KS p-value is the
two-sided one-sample law of D_n, evaluated with the dispatch of Simard &
L'Ecuyer (2011, J. Stat. Softw. 39(11)): Ruben-Gambino at both ends, twice
Smirnov's one-sided law in the upper tail, and elsewhere Durbin's matrix
method as evaluated by Marsaglia, Tsang & Wang (MTW; 2003, J. Stat. Softw.
8(18)).
"""

from __future__ import annotations

import numpy as np
from scipy import special
from scipy.spatial.distance import cdist, pdist

_SCALE_EXP = 128  # power-of-two rescaling of the Durbin matrix powers
_SCALE = np.ldexp(np.longdouble(1), _SCALE_EXP)
_SCALE_INV = np.ldexp(np.longdouble(1), -_SCALE_EXP)
_STIRLING = [
    -2.955065359477124183e-2,
    6.4102564102564102564e-3,
    -1.9175269175269175269e-3,
    8.4175084175084175084e-4,
    -5.952380952380952381e-4,
    7.9365079365079365079e-4,
    -2.7777777777777777778e-3,
    8.3333333333333333333e-2,
]  # B_2j / (2j (2j - 1)) for j = 8, ..., 1


def _clip(p):
    return min(max(p, 0.0), 1.0)


def _durbin_cdf(n: int, d):
    """P(D_n <= d) by Durbin's matrix method, for 1/n < d < 1.

    With d = (k - h)/n, this is n!/n^n times the (k, k) entry of H^n, H the
    (2k-1)-square matrix of Marsaglia, Tsang & Wang.  The power is taken by
    repeated squaring, with power-of-two rescaling against overflow.
    """
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1
    powers = np.arange(1, m + 1)
    v = 1.0 - h**powers  # first column: (1 - h^j) / j!, bar its last entry
    w = np.empty(m)  # w[j] = 1 / j!
    fac = 1.0
    for j in powers:
        w[j - 1] = fac
        fac /= j
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h**m
    v[-1] = (1.0 + tt) * fac
    H = np.zeros([m, m])
    for i in range(1, m):
        H[i - 1 :, i] = w[: m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(m)
    expnt = 0  # Hpwr is scaled by 2^-expnt
    Hexpnt = 0  # H is scaled by 2^-Hexpnt
    nn = n
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _SCALE:
            H /= _SCALE
            Hexpnt += _SCALE_EXP
        nn //= 2
    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):  # times n!/n^n
        p = i * p / n
        if np.abs(p) < _SCALE_INV:
            p *= _SCALE
            expnt -= _SCALE_EXP
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return _clip(p)


def _kolmogorov_sf(n: int, d: float):
    """P(D_n >= d) for the two-sided one-sample KS statistic D_n.

    Exact for every n and d.  Where ``scipy.stats.kstwo.sf`` uses
    Pomeranz's recursion (n <= 140) or the asymptotic Pelz-Good series
    (n > 140) this takes 1 - Durbin, whose matrix has at most 4 sqrt(n) rows
    there, so its cost grows like n^1.5 log n.
    """
    x = np.float64(d)
    if x >= 1.0:
        return 0.0
    t = n * x
    if x <= 0.5 / n or t <= 0.5:
        return 1.0
    if t <= 1.0:  # Ruben-Gambino: P(D_n <= d) = n!/n^n (2t - 1)^n
        if n <= 140:
            cdf = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            rn = 1.0 / n  # log(n!/n^n) by Stirling's series
            log_fac = (
                np.log(n) / 2 - n + np.log(2 * np.pi) / 2
                + rn * np.polyval(_STIRLING, rn / n)
            )
            cdf = np.exp(log_fac + n * np.log(2 * t - 1))
        return _clip(1.0 - cdf)
    if t >= n - 1:  # Ruben-Gambino
        return _clip(2 * (1.0 - x) ** n)
    nxsquared = t * x
    if x >= 0.5 or nxsquared > 4.0 or (n > 140 and nxsquared >= 2.2):
        return _clip(2 * special.smirnov(n, x))
    return _clip(1.0 - _durbin_cdf(n, x))


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic with asymptotic p-value.

    The p-value is the one-sample law at n = round(mn / (m + n)), as in
    ``scipy.stats.ks_2samp(method="asymp")``.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0 or a.size + b.size < 3:
        # two single points give n = round(1/2) = 0, a law of no sample
        raise ValueError("both samples must be nonempty, with three points in all")
    pooled = np.concatenate([a, b])
    diffs = (
        np.searchsorted(a, pooled, side="right") / a.size
        - np.searchsorted(b, pooled, side="right") / b.size
    )
    d = np.abs(diffs).max()
    n = round(a.size * b.size / (a.size + b.size))
    return float(d), float(_kolmogorov_sf(n, d))


def ks_against_cdf(a, cdf) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov test against a callable CDF."""
    a = np.sort(np.asarray(a, dtype=float))
    if a.size == 0:
        raise ValueError("sample must be nonempty")
    n = a.size
    u = cdf(a)
    d_plus = (np.arange(1.0, n + 1) / n - u).max()
    d_minus = (u - np.arange(0.0, n) / n).max()
    d = max(d_minus, d_plus)
    return float(d), float(_kolmogorov_sf(n, d))


def _energy_statistic(a: np.ndarray, b: np.ndarray) -> float:
    ab = cdist(a, b).mean()
    aa = pdist(a).mean() if len(a) > 1 else 0.0
    bb = pdist(b).mean() if len(b) > 1 else 0.0
    return 2.0 * ab - aa - bb


def energy_distance_test(
    a, b, rng: np.random.Generator, n_permutations: int = 200
) -> tuple[float, float]:
    """Permutation test of equality in law via the energy statistic.

    Works for multivariate samples; rows are observations.  The p-value is
    the permutation tail probability with the +1 continuity correction.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("both samples must be nonempty")
    stat = _energy_statistic(a, b)
    pooled = np.vstack([a, b])
    na = a.shape[0]
    exceed = 0
    for _ in range(n_permutations):
        perm = rng.permutation(pooled.shape[0])
        sa = pooled[perm[:na]]
        sb = pooled[perm[na:]]
        if _energy_statistic(sa, sb) >= stat:
            exceed += 1
    p = (exceed + 1) / (n_permutations + 1)
    return float(stat), float(p)


def chi2_table(table) -> tuple[float, float]:
    """Pearson chi-square test of independence in a contingency table.

    With one degree of freedom, each cell moves toward its expected count
    by at most 1/2 (Yates' correction), as in ``scipy.stats.chi2_contingency``.
    """
    observed = np.asarray(table, dtype=float)
    expected = (
        observed.sum(axis=1, keepdims=True)
        * observed.sum(axis=0, keepdims=True)
        / observed.sum()
    )
    if not expected.all():
        raise ValueError("a row or column of the table is empty")
    dof = (observed.shape[0] - 1) * (observed.shape[1] - 1)
    if dof == 0:
        return 0.0, 1.0
    if dof == 1:
        diff = expected - observed
        observed = observed + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    return _pearson(observed, expected, dof)


def _pearson(observed: np.ndarray, expected: np.ndarray, dof: int):
    stat = np.sum((observed - expected) ** 2 / expected)
    return float(stat), float(special.chdtrc(dof, stat))


def fit_loglog_slope(r, y) -> tuple[float, float]:
    """Least-squares slope and intercept of log y against log r."""
    r = np.asarray(r, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(np.log(r), np.log(y), 1)
    return float(slope), float(intercept)


# -- Reproducible splittable RNG ---------------------------------------------


def root_sequence(seed: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; streams split from it are independent."""
    return np.random.Generator(np.random.Philox(root_sequence(seed)))


def spawn_rngs(seed: int, k: int) -> list[np.random.Generator]:
    """k independent streams; stream i is identical no matter how many
    other streams exist or in which order they are consumed."""
    return [
        np.random.Generator(np.random.Philox(child))
        for child in root_sequence(seed).spawn(k)
    ]


def _cdf(p: np.ndarray) -> np.ndarray:
    """The CDF that ``Generator.choice`` builds from probabilities ``p``."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf


def _choose(rng: np.random.Generator, cdf: np.ndarray, size: int | None = None):
    """``rng.choice(cdf.size, size, p=p)`` for ``cdf = _cdf(p)``: numpy's own
    steps (one uniform per index, a right-side search of the CDF, one draw
    even for a single entry), so the same indices and the same stream,
    without rebuilding and checking the CDF on every call."""
    return cdf.searchsorted(rng.random(size), side="right")
