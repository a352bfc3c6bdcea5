"""Layer timings of the d = 1 resampling density and of the package import.

    python3 bench/mu_grid.py --before OLD_CHECKOUT [--after NEW_CHECKOUT]
        [--out BENCH_mu_grid.json]

Each checkout is the root of a spatialcoal source tree; --after defaults to
the tree this script sits in.  Each tree gets REPEATS samples.  Every sample
runs in a fresh interpreter with single-threaded BLAS/OpenMP and
PYTHONPATH=<checkout>/src, alternating between the two trees, so import
time, peak RSS and the cold sampler are measured as a user meets them.  One
sample records:

- import_s: wall time of ``import spatialcoal.cli``;
- import_maxrss_mib: ``ru_maxrss`` right after that import;
- mu_grid_s: one 4096-cell ``mu_coefficient_grid_eval`` (median of
  GRID_CALLS calls) on the coefficients of the n = 2 configuration
  {0.2, 0.6} under Kingman;
- cold_sampler_s: one n = 3, d = 1 ``ExactCoalescentSampler`` built at
  {0.1, 0.45, 0.8}, plus its first draw, the first sampler of the process.

The output holds each tree's samples with their medians and quartiles, and
the machine they ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

GRID = 4096
GRID_CALLS = 21
REPEATS = 7
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

CHILD = f"""
import json, resource, time
t0 = time.perf_counter()
import spatialcoal.cli
import_s = time.perf_counter() - t0
maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
import statistics
import numpy as np
from spatialcoal import ExactCoalescentSampler, LambdaMeasure, SpatialConfig, build_rate_table
from spatialcoal.normalization import mu_coefficient_grid_eval, mu_coefficient_vector
table = build_rate_table(LambdaMeasure.kingman(), 3)
t0 = time.perf_counter()
sampler = ExactCoalescentSampler(SpatialConfig.from_points([[0.1], [0.45], [0.8]]), table)
sampler.sample(np.random.default_rng(0))
cold = time.perf_counter() - t0
coeffs = mu_coefficient_vector(SpatialConfig.from_points([[0.2], [0.6]]), table)
calls = []
for _ in range({GRID_CALLS}):
    t0 = time.perf_counter()
    mu_coefficient_grid_eval(coeffs, {GRID})
    calls.append(time.perf_counter() - t0)
print(json.dumps({{"import_s": import_s, "import_maxrss_mib": maxrss,
                  "mu_grid_s": statistics.median(calls), "cold_sampler_s": cold}}))
"""


def sample(tree: Path) -> dict:
    env = dict(os.environ, **ENV, PYTHONPATH=str(tree / "src"))
    out = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, cwd=tree,
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]:
        vals = [r[name] for r in runs]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                     "samples": vals}
    return out


def main() -> int:
    here = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", type=Path, required=True)
    ap.add_argument("--after", type=Path, default=here)
    ap.add_argument("--out", type=Path, default=here / "BENCH_mu_grid.json")
    args = ap.parse_args()
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "spatialcoal" / "cli.py").is_file():
            ap.error(f"{tree} is not a spatialcoal checkout")
    runs = {label: [] for label in trees}
    for i in range(REPEATS):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for label in order:
            runs[label].append(sample(trees[label]))
    result = {
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "grid": GRID,
        "repeats": REPEATS,
        **{label: summary(r) for label, r in runs.items()},
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    for name in result["before"]:
        b, a = result["before"][name]["median"], result["after"][name]["median"]
        print(f"{name:20s} before {b:.6g}  after {a:.6g}  ratio {a / b:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
