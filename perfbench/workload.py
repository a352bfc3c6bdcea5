"""One round of one benchmark workload, in a fresh interpreter.

Started by run.py; not meant to be run by hand.  The round imports the
package from ./src, builds its inputs from --seed (set-up), then runs the
workload's `spatialcoal check` experiments through `spatialcoal.cli.main`
and the benchmark's own oracle checks (the timed span).  It writes one JSON
object to --result:

  t_ready   CLOCK_MONOTONIC at the end of set-up, for run.py's setup_s
  wall_s    first call into the program to the last verdict
  cpu_s     user+system CPU of this process and its children over that span
  peak_rss_mb  peak resident set of this process, MiB
  verdicts  [name, passed, retried] for every operation of the round
  problems  inconsistencies between a check's report, its exit code and
            its own gates; empty when the outputs are well formed
  layers    per-layer metrics, with --trace only
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ALPHA = 0.01  # the experiments' documented significance level

# Test names each experiment reports, in order.
EXPECTED_TESTS = {
    "duality": (
        "pair-first-merge-time-ks",
        "pair-displacement-ks",
        "triple-first-merge-time-ks",
        "triple-block-structure-chi2",
    ),
    "markov-resample": ("next-merge-time-ks", "lineage-count-chi2"),
    "reversal-stationarity": ("marginal-energy-distance",)
    + tuple(f"reversed-forward-sep-ks-t{k}" for k in range(5)),
    "drift-scaling": ("gradient-vs-fd", "pair-drift-slope", "sde-pair-time-ks"),
    "consistency": ("single-lineage-unity", "pair-vs-quadrature", "marginalization"),
}

# (experiment, dim, n, replicates at full size, replicates at tiny size)
WORKLOADS = {
    "duality": (("duality", 1, 2, 30, 4),),
    "resample": (("markov-resample", 1, 3, 150, 8),),
    "reversal": (("reversal-stationarity", 1, 3, 8, 2),),
    "d2": (("drift-scaling", 2, 2, 50, 10), ("consistency", 2, 2, 1, 1)),
}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# -- closed forms, computed here and not by the package ----------------------


def pair_N_1d(delta, lam: float):
    """Stationary pair normalization on the circle:
    N(d) = lam cosh(sqrt(lam)(|d| - 1/2)) / (2 sqrt(lam) sinh(sqrt(lam)/2)),
    with |d| the torus distance.  It integrates to one over the circle."""
    import numpy as np

    d = np.abs(np.asarray(delta, dtype=float) % 1.0)
    d = np.minimum(d, 1.0 - d)
    s = math.sqrt(lam)
    return lam * np.cosh(s * (d - 0.5)) / (2.0 * s * math.sinh(s / 2.0))


def pair_separation_cdf_1d(r, lam: float):
    """CDF of the torus distance |d| in [0, 1/2] under the density N."""
    import numpy as np

    s = math.sqrt(lam)
    r = np.asarray(r, dtype=float)
    return (np.sinh(s * (r - 0.5)) + math.sinh(s / 2.0)) / math.sinh(s / 2.0)


def pair_N_2d(delta: float, lam: float, images: int = 40) -> float:
    """Pair normalization on the 2-torus at displacement (delta, 0) as the
    image sum lam/(2 pi) sum_kappa K0(sqrt(lam) |delta e1 + kappa|).  With
    40 images a side the omitted terms are below 1e-16."""
    import numpy as np
    from scipy.special import k0

    ks = np.arange(-images, images + 1, dtype=float)
    rho = np.hypot(delta + ks[:, None], ks[None, :])
    return lam / (2.0 * math.pi) * float(k0(math.sqrt(lam) * rho).sum())


def spectral_tail(lam: float, cutoff: int) -> float:
    """Bound on the omitted modes of sum_k lam cos(2 pi k d)/(lam + 4 pi^2 k^2):
    sum_{|k| > K} lam / (4 pi^2 k^2) < lam / (2 pi^2 K)."""
    return lam / (2.0 * math.pi**2 * cutoff)


QUAD_EPS = 1.49e-8  # scipy.integrate.quad's default epsabs and epsrel


# -- oracles: each returns a list of (name, passed, error, tolerance) ---------


def oracle_duality(inputs):
    """The stationary pair-separation CDF of the duality check against its
    closed form.  The CDF is a midpoint sum of quadrature values on cells of
    width h, interpolated linearly: the interpolation costs h^2/8 max|F''|,
    the midpoint sum h^2/24 max|F'''| and each quadrature its tolerance."""
    import numpy as np
    from spatialcoal.experiments import stationary_pair_separation_cdf
    from spatialcoal.forward import OffspringLaw, cannings_rate_table

    N, grid, r = inputs["N"], inputs["grid"], inputs["r"]
    event_rate = N * (N - 1) / 2.0
    table = cannings_rate_table(OffspringLaw("pair-resampling", N), event_rate, 3)
    cdf = stationary_pair_separation_cdf(table, grid=grid)
    # one event per unit of event_rate picks one of C(N, 2) pairs
    lam = event_rate / math.comb(N, 2)
    s = math.sqrt(lam)
    h = 1.0 / (2.0 * grid)
    tol = h * h * (lam / 8.0 + s**3 / math.tanh(s / 2.0) / 24.0) + 2.0 * QUAD_EPS
    err = float(np.max(np.abs(cdf(r) - pair_separation_cdf_1d(r, lam))))
    return [("oracle-separation-cdf", err <= tol, err, tol)]


def oracle_resample(inputs):
    """The exact sampler's normalization on pair configurations against the
    closed-form pair N; the spectral route truncates at the sampler's cutoff."""
    from spatialcoal.kernels import SpatialConfig
    from spatialcoal.measures import LambdaMeasure, build_rate_table
    from spatialcoal.sampler import ExactCoalescentSampler

    table = build_rate_table(LambdaMeasure.kingman(), 3)
    lam = 1.0  # Kingman pair rate
    out = []
    for i, (a, delta) in enumerate(inputs["pairs"]):
        x = SpatialConfig.from_points([[a], [(a + delta) % 1.0]])
        sampler = ExactCoalescentSampler(x, table)
        ref = float(pair_N_1d(delta, lam))
        rel = abs(sampler.normalization - ref) / ref
        tol = spectral_tail(lam, sampler.cutoff) / ref
        out.append((f"oracle-pair-normalization-{i}", rel <= tol, rel, tol))
    return out


def oracle_reversal(inputs):
    """The resampling density given one placed point against the normalized
    pair density N(y - p).  The grid sum of a trigonometric polynomial of
    degree below the grid size is exact, so only spectral truncation enters."""
    import numpy as np
    from spatialcoal.kernels import SpatialConfig
    from spatialcoal.measures import LambdaMeasure, build_rate_table
    from spatialcoal.normalization import SPECTRAL_CUTOFF, mu_density_grid

    table = build_rate_table(LambdaMeasure.kingman(), 3)
    lam = 1.0
    out = []
    for i, p in enumerate(inputs["points"]):
        dens = mu_density_grid(SpatialConfig.from_points([[p]]), table)
        y = np.arange(dens.size) / dens.size
        ref = pair_N_1d(y - p, lam)
        rel = float(np.max(np.abs(dens - ref) / ref))
        tol = spectral_tail(lam, SPECTRAL_CUTOFF) / float(pair_N_1d(0.5, lam))
        out.append((f"oracle-mu-density-{i}", rel <= tol, rel, tol))
    return out


def oracle_d2(inputs):
    """The d = 2 time-quadrature pair reference, which the consistency check
    compares against, against the Bessel image sum; quad's tolerance."""
    from spatialcoal.experiments import quad_pair_reference

    lam = 1.0
    out = []
    for i, delta in enumerate(inputs["deltas"]):
        ref = pair_N_2d(delta, lam)
        val = quad_pair_reference(delta, lam, 2)
        err = abs(val - ref)
        tol = max(QUAD_EPS, QUAD_EPS * abs(ref))
        out.append((f"oracle-pair-reference-2d-{i}", err <= tol, err / ref, tol / ref))
    return out


ORACLES = {
    "duality": oracle_duality,
    "resample": oracle_resample,
    "reversal": oracle_reversal,
    "d2": oracle_d2,
}


def oracle_inputs(workload: str, seed: int) -> dict:
    import numpy as np

    rng = np.random.default_rng([seed, 7])
    if workload == "duality":
        r = np.concatenate([[0.0, 0.5], np.sort(rng.uniform(0.0, 0.5, 1000))])
        return {"N": 30, "grid": 128, "r": r}
    if workload == "resample":
        return {
            "pairs": list(
                zip(rng.uniform(size=4).tolist(), rng.uniform(0.01, 0.5, 4).tolist())
            )
        }
    if workload == "reversal":
        return {"points": rng.uniform(size=2).tolist()}
    return {"deltas": rng.uniform(0.01, 0.5, 3).tolist()}


# -- checking a report against the check's own gates -------------------------


def report_problems(experiment: str, seed: int, code: int, report: dict) -> list[str]:
    problems = []
    names = tuple(r["name"] for r in report["results"])
    if names != EXPECTED_TESTS[experiment]:
        problems.append(f"{experiment}: tests {names}")
    if report["experiment"] != experiment or report["seed"] != seed:
        problems.append(f"{experiment}: report header {report['experiment']} {report['seed']}")
    for r in report["results"]:
        stat, p, thr = r["statistic"], r["p_value"], r["threshold"]
        if p is not None:
            gate = 0.0 <= p <= 1.0 and (p >= ALPHA) == r["passed"]
        else:
            gate = math.isfinite(stat) and (stat <= thr) == r["passed"]
        if not gate:
            problems.append(f"{experiment}/{r['name']}: verdict disagrees with its gate")
    passed = all(r["passed"] for r in report["results"])
    if report["passed"] != passed or (code == 0) != passed:
        problems.append(f"{experiment}: exit code {code} for passed={passed}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", required=True, help="artifact directory")
    ap.add_argument("--result", required=True, help="JSON result file")
    ap.add_argument("--trace", default=None, help="write spans here and trace")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import scipy.special  # noqa: F401  (the oracles' Bessel sums)
    import spatialcoal
    import spatialcoal.cli as cli

    if Path(spatialcoal.__file__).resolve().parent.parent != src:
        print(f"spatialcoal imported from {spatialcoal.__file__}", file=sys.stderr)
        return 2

    tiny = args.size == "tiny"
    checks = []
    for experiment, dim, n, reps, tiny_reps in WORKLOADS[args.workload]:
        out = Path(args.out) / experiment
        argv = [
            "check", experiment, "--dim", str(dim), "--n", str(n),
            "--replicates", str(tiny_reps if tiny else reps),
            "--seed", str(args.seed), "--out", str(out),
        ]
        checks.append((experiment, out, argv))
    inputs = oracle_inputs(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()
    t_ready = clock()
    if args.setup_only:
        Path(args.result).write_text(json.dumps({"t_ready": t_ready}))
        return 0

    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    verdicts, problems = [], []
    for experiment, out, argv in checks:
        code = cli.main(argv)
        report = json.loads((out / "report.json").read_text())
        problems += report_problems(experiment, args.seed, code, report)
        verdicts += [[r["name"], r["passed"], r["retried"]] for r in report["results"]]
    oracles = ORACLES[args.workload](inputs)
    verdicts += [[name, bool(ok), False] for name, ok, _, _ in oracles]
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0

    result = {
        "t_ready": t_ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verdicts": verdicts,
        "oracles": [[name, err, tol] for name, _, err, tol in oracles],
        "problems": problems,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.dump(args.trace)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
