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

import sys

from common import alternate, machine, parse_trees, summary, write

GRID = 4096
GRID_CALLS = 21
REPEATS = 7

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


def main() -> int:
    trees, out = parse_trees(__doc__, "BENCH_mu_grid.json")
    runs = alternate(trees, REPEATS, CHILD)
    write(out, {
        "machine": machine(),
        "grid": GRID,
        "repeats": REPEATS,
        **{label: summary(r) for label, r in runs.items()},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
