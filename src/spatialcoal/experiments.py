"""Named verification experiments: each driver reproduces one of the exact
identities or dualities of the model at desk scale and emits deterministic
artifacts (report.json plus long-format samples.csv).

A check is a ``TestResult`` whose verdict follows from its gate: with a
p-value it passes when ``p_value >= threshold`` (the threshold is then the
level ALPHA), and otherwise when ``statistic <= threshold``.  Every
statistical test runs through ``_statistical``, which reruns a test whose
p-value falls below ALPHA once, on ``seed + RETRY_SEED_OFFSET``, and keeps
the rerun's verdict.  The two chi-square checks, ``triple-block-structure-chi2``
(duality) and ``lineage-count-chi2`` (markov-resample), are not retried on
their own: they read the draw that their KS partner's test kept.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import integrate

from .forward import (
    ForwardHarvester,
    OffspringLaw,
    _cannings_groups,
    cannings_rate_table,
    cannings_simulate,
)
from .kernels import SpatialConfig, _kernel_1d, torus_displacement
from .measures import (
    LambdaMeasure,
    RateTable,
    XiMeasure,
    build_rate_table,
    check_consistency,
    lambda_rate,
)
from .normalization import (
    grad_log_N_spectral,
    normalization_N,
    normalization_N_spectral,
    pair_normalization_1d,
)
from .partitions import MergerSignature, Partition
from .reversal import simulate_reversal
from .sampler import (
    DRIFT_GRID,
    ExactCoalescentSampler,
    PairDriftField,
    pair_residual_times,
    pair_separation_run,
    sample_paths,
)
from .stats import (
    chi2_table,
    energy_distance_test,
    fit_loglog_slope,
    ks_against_cdf,
    ks_two_sample,
    spawn_rngs,
)

ALPHA = 0.01
RETRY_SEED_OFFSET = 104729  # a fixed prime so the retry stream is disjoint

EXPERIMENT_NAMES = (
    "rates-recursion",
    "consistency",
    "wright-malecot",
    "duality",
    "drift-scaling",
    "reversal-stationarity",
    "markov-resample",
)


def _refusal(name: str, n: int, d: int) -> str | None:
    """Why experiment ``name`` cannot honour the cell (n, d), or None: the
    limit, and the ROADMAP item that would lift it."""
    if name == "drift-scaling" and d < 2:
        return "requires d >= 2: d = 1 has no pair drift SDE"
    if name == "drift-scaling" and d > 2:
        return (
            "runs in d = 2 only: its slope check and SDE step the d = 2 pair "
            "drift (ROADMAP item 5)"
        )
    if name in ("duality", "reversal-stationarity") and n >= 4:
        return "needs n <= 3: the exact sampler stops at two merges (ROADMAP item 10)"
    if name == "duality" and d >= 2:
        return (
            "runs in d = 1 only: in d >= 2 the spectral forest weights of its "
            "n = 3 sampler exceed the memory budget (ROADMAP item 2)"
        )
    if name == "consistency" and d >= 3:
        return (
            "runs in d <= 2 only: in d >= 3 its spectral pair value exceeds "
            "the memory budget (ROADMAP item 2)"
        )
    if name == "reversal-stationarity" and d >= 2:
        return (
            "runs in d = 1 only: in d >= 2 its Metropolis mu chain fails its "
            "acceptance guard (ROADMAP item 7)"
        )
    if name == "markov-resample" and d != 1:
        return "runs its fixed d = 1 triple, so d = 1 only (ROADMAP item 7)"
    return None


@dataclass
class ExperimentSpec:
    name: str
    measure: LambdaMeasure | XiMeasure = field(default_factory=LambdaMeasure.kingman)
    d: int = 1
    n: int = 2
    horizon: float = 2.0
    replicates: int = 1000
    seed: int = 0
    out: str | Path | None = None

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ValueError(f"unknown experiment {self.name!r}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.d < 1:
            raise ValueError("the torus dimension d must be >= 1")
        if limit := _refusal(self.name, self.n, self.d):
            raise ValueError(f"{self.name} {limit}")


@dataclass
class TestResult:
    name: str
    statistic: float
    threshold: float
    p_value: float | None = None
    retried: bool = False

    @property
    def passed(self) -> bool:
        if self.p_value is not None:
            return bool(self.p_value >= self.threshold)
        return bool(self.statistic <= self.threshold)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "statistic": float(self.statistic),
            "threshold": float(self.threshold),
            "p_value": None if self.p_value is None else float(self.p_value),
            "passed": self.passed,
            "retried": bool(self.retried),
        }


@dataclass
class TestReport:
    experiment: str
    seed: int
    results: list[TestResult] = field(default_factory=list)
    samples: dict[str, list] = field(
        default_factory=lambda: {"series": [], "index": [], "value": []}
    )

    def series(self, label: str, values, index=None) -> None:
        """Append ``values`` to the long-format samples under ``label``,
        indexed 0, 1, ... unless ``index`` is given."""
        values = [float(v) for v in values]
        index = list(range(len(values))) if index is None else list(index)
        if len(index) != len(values):
            raise ValueError("a series needs one index per value")
        self.samples["series"] += [label] * len(values)
        self.samples["index"] += index
        self.samples["value"] += values

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "passed": self.passed,
            "results": [r.as_dict() for r in self.results],
        }


def _statistical(name, fn, seed):
    """The level-ALPHA test ``fn(seed) -> (statistic, p_value, samples)``,
    rerun once on ``seed + RETRY_SEED_OFFSET`` when its p-value is below
    ALPHA; returns the kept run's result and samples."""
    stat, p, samples = fn(seed)
    retried = p < ALPHA
    if retried:
        stat, p, samples = fn(seed + RETRY_SEED_OFFSET)
    return TestResult(name, float(stat), ALPHA, float(p), bool(retried)), samples


# -- rates-recursion ---------------------------------------------------------


def _rates_battery() -> list[tuple[str, LambdaMeasure | XiMeasure]]:
    return [
        ("kingman", LambdaMeasure.kingman()),
        ("uniform", LambdaMeasure.uniform()),
        ("beta-2-3", LambdaMeasure.beta(2.0, 3.0)),
        ("atom-0.5", LambdaMeasure(atoms=((0.5, 1.0),))),
        ("xi-half-half", XiMeasure(kingman_mass=0.5, atoms=(((0.5, 0.3), 1.0),))),
    ]


def _run_rates_recursion(spec: ExperimentSpec) -> TestReport:
    report = TestReport("rates-recursion", spec.seed)
    n_max = max(spec.n, 8)
    for label, m in _rates_battery():
        if isinstance(m, LambdaMeasure):
            worst = 0.0
            nks, rates = [], []
            for n in range(2, n_max):
                for k in range(2, n + 1):
                    lhs = lambda_rate(m, n, k)
                    rhs = lambda_rate(m, n + 1, k) + lambda_rate(m, n + 1, k + 1)
                    worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
                    nks.append(f"{n},{k}")
                    rates.append(lhs)
            report.series(f"rate-{label}", rates, nks)
        else:
            checks = check_consistency(build_rate_table(m, n_max)).checks
            worst = max(abs(l - r) / max(1.0, abs(l)) for _, l, r, _ in checks)
        report.results.append(TestResult(f"recursion-{label}", worst, 1e-10))
    return report


# -- consistency (normalization identities) ----------------------------------


def _run_consistency(spec: ExperimentSpec) -> TestReport:
    table = build_rate_table(spec.measure, max(spec.n, 3))
    report = TestReport("consistency", spec.seed)
    # a single lineage never merges: the normalization is exactly one
    single = SpatialConfig.from_points([[0.37] * spec.d])
    n1 = normalization_N(single, table).value
    report.results.append(TestResult("single-lineage-unity", abs(n1 - 1.0), 1e-14))
    # pair value against direct time quadrature
    lam = table.rate(MergerSignature(2, (2,)))
    delta = 0.3
    x2 = SpatialConfig.from_points([[0.1] * spec.d, [0.1 + delta] + [0.1] * (spec.d - 1)])
    n_spec = normalization_N_spectral(x2, table, cutoff=256)
    direct = quad_pair_reference(delta, lam, spec.d)
    rel = abs(n_spec - direct) / abs(direct)
    report.results.append(TestResult("pair-vs-quadrature", rel, 1e-6))
    report.series("pair-N", [n_spec], ["spectral"])
    report.series("pair-N-quadrature", [direct], ["time-quadrature"])
    # integrating one lineage out of a triple recovers the pair; compared
    # with the time quadrature, so no spectral truncation enters
    x3 = SpatialConfig.from_points(
        [[0.1] * spec.d, [0.1 + delta] + [0.1] * (spec.d - 1), [0.7] * spec.d]
    )
    third = x3.partition.blocks[2]
    marg = normalization_N(x3, table, integrate_out=third)
    rel2 = abs(marg.value - direct) / abs(direct)
    tol2 = max(1e-4, 3.0 * marg.std_error / abs(direct))
    report.results.append(TestResult("marginalization", rel2, tol2))
    report.series("marginalized-N", [marg.value], ["quadrature"])
    return report


def quad_pair_reference(delta: float, lam: float, d: int) -> float:
    """N of a pair at displacement (delta, 0, ...) by one time quadrature.

    The heat-kernel factor has a 1/sqrt(t) spike near t = 0 at small
    delta, so the integral is taken in u with t = u^2, dt = 2u du.
    """

    def integrand(u):
        t = u * u
        out = 2.0 * u * lam * math.exp(-lam * t)
        for c in range(d):
            sep = delta if c == 0 else 0.0
            out *= float(_kernel_1d(2.0 * t, np.atleast_1d(sep))[0])
        return out

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=400)
    return val


# -- wright-malecot ----------------------------------------------------------


def pair_time_cdf(delta: float, table: RateTable, d: int = 1):
    """Quadrature CDF of the pair coalescence time at separation delta."""
    lam = table.rate(MergerSignature(2, (2,)))
    ts = np.geomspace(1e-7, 120.0 / lam, 6000)
    vals = lam * np.exp(-lam * ts)
    for c in range(d):
        sep = delta if c == 0 else 0.0
        vals = vals * _kernel_1d(2.0 * ts, sep)
    cum = integrate.cumulative_trapezoid(vals, ts, initial=0.0)
    cum /= cum[-1]

    def cdf(t):
        return np.interp(t, ts, cum)

    return cdf


def _run_wright_malecot(spec: ExperimentSpec) -> TestReport:
    table = build_rate_table(spec.measure, 2)
    delta = 0.3
    x = SpatialConfig.from_points(
        [[0.2] * spec.d, [0.2 + delta] + [0.2] * (spec.d - 1)]
    )
    cdf = pair_time_cdf(delta, table, spec.d)

    def draw(seed):
        rng = spawn_rngs(seed, 1)[0]
        sampler = ExactCoalescentSampler(x, table)
        times = np.array(
            [
                sampler.sample(rng, with_locations=False).tau.times[0]
                for _ in range(spec.replicates)
            ]
        )
        stat, p = ks_against_cdf(times, cdf)
        return stat, p, times

    result, times = _statistical("pair-time-ks", draw, spec.seed)
    report = TestReport("wright-malecot", spec.seed, [result])
    report.series("pair-merge-time", times)
    return report


# -- duality -----------------------------------------------------------------


def stationary_pair_separation_cdf(table: RateTable, grid: int = 2048):
    """CDF of the absolute stationary pair separation in d = 1.

    The stationary pair density is proportional to the normalization as a
    function of the displacement, which in d = 1 is the closed form of
    ``pair_normalization_1d``, lam cosh(sqrt(lam) (r - 1/2)) /
    (2 sqrt(lam) sinh(sqrt(lam) / 2)).  It is tabulated at the ``grid``
    midpoints of [0, 1/2], summed, and interpolated linearly between the
    cell edges; the exact CDF is
    (sinh(sqrt(lam) (r - 1/2)) + sinh(sqrt(lam) / 2)) / sinh(sqrt(lam) / 2).
    """
    lam = table.rate(MergerSignature(2, (2,)))
    seps = (np.arange(grid) + 0.5) / (2.0 * grid)  # (0, 1/2)
    dens = pair_normalization_1d(seps, lam)
    cum = np.concatenate([[0.0], np.cumsum(dens)])
    cum /= cum[-1]
    edges = np.arange(grid + 1) / (2.0 * grid)

    def cdf(r):
        return np.interp(r, edges, cum)

    return cdf


def _pair_resampling() -> tuple[OffspringLaw, float]:
    """The forward model of duality and reversal-stationarity: the N = 30
    pair-resampling Cannings model, at event rate C(N, 2)."""
    N = 30
    return OffspringLaw("pair-resampling", N), N * (N - 1) / 2.0


def _run_duality(spec: ExperimentSpec) -> TestReport:
    law, T_N = _pair_resampling()
    table = cannings_rate_table(law, T_N, 3)
    reps = spec.replicates

    @functools.cache
    def harvest(seed):
        rng = spawn_rngs(seed, 1)[0]
        h = ForwardHarvester(
            law.N, spec.d, T_N, lambda r: _cannings_groups(law, r), rng, warmup=20.0
        )
        obs2, obs3 = [], []
        for _ in range(reps):
            h.advance(6.0)
            obs2.append(h.observe(2))
            obs3.append(h.observe(3))
        return obs2, obs3

    def fwd_sep2(seed):
        obs2, _ = harvest(seed)
        return np.array(
            [torus_displacement(p[0], p[1])[0] for p, *_ in obs2]
        )

    def test_pair_time(seed):
        obs2, _ = harvest(seed)
        t_fwd = np.array([bt for _, bt, *_ in obs2])
        seps = np.abs(fwd_sep2(seed))[:, None]
        ref = pair_residual_times(seps, table, spawn_rngs(seed + 1, 1)[0])
        stat, p = ks_two_sample(t_fwd, ref)
        return stat, p, (t_fwd, ref)

    def test_pair_sep(seed):
        seps = np.abs(fwd_sep2(seed))
        cdf = stationary_pair_separation_cdf(table)
        stat, p = ks_against_cdf(seps, cdf)
        return stat, p, seps

    def test_triple_time(seed):
        _, obs3 = harvest(seed)
        rng = spawn_rngs(seed + 2, 1)[0]
        t_fwd = np.array([bt for _, bt, *_ in obs3])
        ref = np.empty(len(obs3))
        pairs_fwd, pairs_ref = [], []
        for i, (pos, bt, part, _) in enumerate(obs3):
            pairs_fwd.append(_merged_pair(part))
            x = SpatialConfig.from_points(pos)
            df = ExactCoalescentSampler(x, table).sample(rng, with_locations=False)
            ref[i] = df.tau.times[0]
            pairs_ref.append(_merged_pair(df.forest.levels[1]))
        stat, p = ks_two_sample(t_fwd, ref)
        return stat, p, (t_fwd, ref, pairs_fwd, pairs_ref)

    r1, (t_fwd, t_ref) = _statistical("pair-first-merge-time-ks", test_pair_time, spec.seed)
    r2, seps = _statistical("pair-displacement-ks", test_pair_sep, spec.seed)
    r3, (t3_fwd, t3_ref, pf, pr) = _statistical(
        "triple-first-merge-time-ks", test_triple_time, spec.seed
    )
    # the block structure of the triples that the time test kept
    cats = [(1, 2), (1, 3), (2, 3)]
    chi, p_chi = chi2_table([[pf.count(c) for c in cats], [pr.count(c) for c in cats]])
    chi2 = TestResult("triple-block-structure-chi2", chi, ALPHA, p_chi)
    report = TestReport("duality", spec.seed, [r1, r2, r3, chi2])
    report.series("fwd-pair-time", t_fwd)
    report.series("ref-pair-time", t_ref)
    report.series("fwd-pair-sep", seps)
    report.series("fwd-triple-time", t3_fwd)
    report.series("ref-triple-time", t3_ref)
    return report


def _merged_pair(part: Partition) -> tuple[int, ...]:
    for b in part.blocks:
        if len(b) > 1:
            return tuple(sorted(b))
    return ()


# -- drift-scaling -----------------------------------------------------------


def _run_drift_scaling(spec: ExperimentSpec) -> TestReport:
    d = spec.d
    table = build_rate_table(spec.measure, 2)
    report = TestReport("drift-scaling", spec.seed)
    # gradient against central finite differences
    rng = spawn_rngs(spec.seed, 1)[0]
    worst = 0.0
    h = 1e-5
    for _ in range(10):
        pts = rng.uniform(size=(2, d))
        while np.linalg.norm(torus_displacement(pts[0], pts[1])) < 0.05:
            pts = rng.uniform(size=(2, d))
        x = SpatialConfig.from_points(pts)
        grads = grad_log_N_spectral(x, table)
        u = x.partition.blocks[0]
        scale = max(np.linalg.norm(g) for g in grads.values())
        for c in range(d):
            step = np.zeros_like(pts)
            step[0, c] = h
            plus, minus = (
                math.log(normalization_N_spectral(SpatialConfig.from_points(p), table))
                for p in (pts + step, pts - step)
            )
            fd = (plus - minus) / (2.0 * h)
            worst = max(worst, abs(fd - grads[u][c]) / max(scale, 1e-12))
    report.results.append(TestResult("gradient-vs-fd", worst, 1e-3))
    # attraction magnitude slope: |grad N| at nodes on the first axis of the
    # drift table that the SDE below steps with
    nodes = np.round(np.geomspace(0.02, 0.1, 8) * DRIFT_GRID).astype(int)
    rs = nodes / DRIFT_GRID
    field = PairDriftField(table, 2)
    mags = np.linalg.norm(field.table[nodes * DRIFT_GRID, 1:], axis=1)
    slope, _ = fit_loglog_slope(rs, mags)
    report.results.append(TestResult("pair-drift-slope", abs(slope + 1.0), 0.15))
    report.series("attraction", mags, rs)

    # SDE pair coalescence times against the exact sampler
    delta0 = np.array([0.25, 0.1])
    n_paths = min(spec.replicates, 2000)

    def sde_vs_exact(seed):
        r1, r2 = spawn_rngs(seed, 2)
        t_sde = pair_separation_run(
            delta0, table, dt=1e-4, merge_radius=5e-3, n_paths=n_paths, rng=r1
        )
        t_ref = pair_residual_times(
            np.tile(delta0, (n_paths, 1)), table, r2
        )
        stat, p = ks_two_sample(t_sde, t_ref)
        return stat, p, (t_sde, t_ref)

    r, (t_sde, t_ref) = _statistical("sde-pair-time-ks", sde_vs_exact, spec.seed)
    report.results.append(r)
    report.series("sde-time", t_sde)
    report.series("exact-time", t_ref)
    return report


# -- reversal-stationarity ---------------------------------------------------


def _run_reversal_stationarity(spec: ExperimentSpec) -> TestReport:
    table = build_rate_table(spec.measure, max(spec.n, 2))
    n, d = spec.n, spec.d
    horizon = spec.horizon
    grid = np.linspace(0.0, horizon, 5)
    reps = spec.replicates

    @functools.cache
    def rev_records(seed):
        rngs = spawn_rngs(seed, reps)
        recs = np.empty((reps, grid.size, n, d))
        for i, rng in enumerate(rngs):
            run = simulate_reversal(
                table, n, horizon, d, rng, record_times=grid
            )
            recs[i] = run.records
            assert run.records.shape[1] == n
        return recs

    def energy_start_end(seed):
        recs = rev_records(seed)
        a = recs[:, 0].reshape(reps, n * d)
        b = recs[:, -1].reshape(reps, n * d)
        stat, p = energy_distance_test(
            a, b, spawn_rngs(seed + 3, 1)[0], n_permutations=300
        )
        return stat, p, None

    r, _ = _statistical("marginal-energy-distance", energy_start_end, spec.seed)
    report = TestReport("reversal-stationarity", spec.seed, [r])

    # time-reversed forward model comparison at the grid times
    law, T_N = _pair_resampling()

    @functools.cache
    def forward_records(seed):
        rngs = spawn_rngs(seed + 5, reps)
        recs = np.empty((reps, grid.size, n, d))
        for i, rng in enumerate(rngs):
            run = cannings_simulate(
                law, T_N, horizon, d, rng, warmup=20.0,
                grid_dt=horizon / (grid.size - 1),
            )
            recs[i] = run.grid_positions[: grid.size, :n, :]
        return recs

    def sep_of(recs, k):
        return np.abs(
            torus_displacement(recs[:, k, 0, 0], recs[:, k, 1, 0])
        )

    for k in range(grid.size):

        def compare(seed, k=k):
            recs_r = rev_records(seed)
            recs_f = forward_records(seed)
            # reversed time: forward grid index counts from the far end
            stat, p = ks_two_sample(
                sep_of(recs_r, k), sep_of(recs_f, grid.size - 1 - k)
            )
            return stat, p, None

        r, _ = _statistical(f"reversed-forward-sep-ks-t{k}", compare, spec.seed)
        report.results.append(r)
    recs = rev_records(spec.seed)
    for k in range(grid.size):
        report.series(f"reversal-sep-t{k}", sep_of(recs, k))
    return report


# -- markov-resample ---------------------------------------------------------


def _run_markov_resample(spec: ExperimentSpec) -> TestReport:
    table = build_rate_table(spec.measure, 3)
    x = SpatialConfig.from_points([[0.1], [0.45], [0.8]])
    t0 = 0.3
    reps = spec.replicates

    def straight(seed):
        rng = spawn_rngs(seed, 1)[0]
        sampler = ExactCoalescentSampler(x, table)
        counts, next_times = [], []
        for _ in range(reps):
            df = sampler.sample(rng, with_locations=False)
            times = df.tau.times
            alive = 3 - sum(1 for t in times if t <= t0)
            counts.append(alive)
            later = [t for t in times if t > t0]
            next_times.append(later[0] - t0 if later else math.inf)
        return counts, next_times

    def rerooted(seed):
        rng = spawn_rngs(seed + 11, 1)[0]
        sampler = ExactCoalescentSampler(x, table)
        counts, next_times = [], []
        for _ in range(reps):
            df = sampler.sample(rng)
            horizon = max(t0, df.tau.level_time(df.forest.m)) + 1e-9
            cp = sample_paths(df, x, horizon, grid_dt=0.05, rng=rng)
            state = cp.state_at(t0)
            counts.append(state.n)
            if state.n < 2:
                next_times.append(math.inf)
                continue
            df2 = ExactCoalescentSampler(state, table).sample(
                rng, with_locations=False
            )
            next_times.append(df2.tau.times[0])
        return counts, next_times

    def compare(seed):
        c_a, t_a = straight(seed)
        c_b, t_b = rerooted(seed + 1)
        fin_a = [t for t in t_a if math.isfinite(t)]
        fin_b = [t for t in t_b if math.isfinite(t)]
        stat, p = ks_two_sample(fin_a, fin_b)
        return stat, p, (c_a, c_b, fin_a, fin_b)

    r, (c_a, c_b, fin_a, fin_b) = _statistical("next-merge-time-ks", compare, spec.seed)
    # the lineage counts of the draws that the time test kept
    cats = [1, 2, 3]
    tab = [
        [c_a.count(c) for c in cats],
        [c_b.count(c) for c in cats],
    ]
    keep = [j for j in range(len(cats)) if tab[0][j] + tab[1][j] > 0]
    chi, p_chi = chi2_table([[row[j] for j in keep] for row in tab])
    chi2 = TestResult("lineage-count-chi2", chi, ALPHA, p_chi)
    report = TestReport("markov-resample", spec.seed, [r, chi2])
    report.series("straight-next-time", fin_a)
    report.series("rerooted-next-time", fin_b)
    return report


# -- dispatch and artifacts --------------------------------------------------


_RUNNERS = {
    "rates-recursion": _run_rates_recursion,
    "consistency": _run_consistency,
    "wright-malecot": _run_wright_malecot,
    "duality": _run_duality,
    "drift-scaling": _run_drift_scaling,
    "reversal-stationarity": _run_reversal_stationarity,
    "markov-resample": _run_markov_resample,
}


def run_experiment(spec: ExperimentSpec) -> TestReport:
    report = _RUNNERS[spec.name](spec)
    if spec.out is not None:
        write_artifacts(report, Path(spec.out))
    return report


def write_artifacts(report: TestReport, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "report.json", report.as_dict())
    cols = report.samples
    write_csv(out / "samples.csv", list(cols), zip(*cols.values()))


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: Path, header: list[str], rows) -> None:
    """One CSV row per row of values: floats at repr-faithful precision
    (%.17g), everything else by ``str``."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    f"{float(v):.17g}" if isinstance(v, (float, np.floating)) else str(v)
                    for v in row
                )
                + "\n"
            )
