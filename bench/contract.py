"""Cost of the torus tree contraction on tensor grids of level times, in ms.

    python3 bench/contract.py --before OLD_CHECKOUT [--after NEW_CHECKOUT]
        [--out BENCH_contract.json]

Each checkout is the root of a spatialcoal source tree; --after defaults to
the tree this script sits in.  Each tree gets REPEATS samples.  Every sample
runs in a fresh interpreter with single-threaded BLAS/OpenMP and
PYTHONPATH=<checkout>/src, alternating between the two trees.  All runs are
under Kingman.  One sample records the least wall time over CALLS calls of:

- gap_table_m1_ms: the exact sampler's one-merge gap table (TIME_GRID
  cells) for the pair {0.1, 0.45}, d = 1, rebuilt from an emptied cache;
- gap_table_m2_ms: the same for the two-merge table of the cherry ((1,2),3)
  at {0.1, 0.45, 0.8}, d = 1;
- cold_sampler_ms: a new n = 3, d = 1 ``ExactCoalescentSampler`` at those
  points plus its first draw (one gap table); the first such sampler of the
  process is left out, so one-time set-up costs are not counted;
- normalization_d1_ms / normalization_d2_ms: ``normalization_N`` (the Gauss
  rule) at n = 3, at those points in d = 1 and at
  {(0.1, 0.7), (0.45, 0.2), (0.8, 0.45)} in d = 2.

On a shared machine the same call can run 1.6 times slower for seconds at
a time, so a sample takes the fastest of its calls.  The output holds each
tree's samples with their medians and quartiles, the same for the ratio
after / before of the two samples of each round (neighbours in time), and
the machine they ran on.
"""

from __future__ import annotations

import sys

from common import alternate, machine, parse_trees, ratios, summary, write

REPEATS = 11
CALLS = 5

CHILD = f"""
import json, time
import numpy as np
from spatialcoal.kernels import SpatialConfig
from spatialcoal.measures import LambdaMeasure, build_rate_table
from spatialcoal.normalization import normalization_N
from spatialcoal.sampler import ExactCoalescentSampler

PAIR = SpatialConfig.from_points([[0.1], [0.45]])
X1 = SpatialConfig.from_points([[0.1], [0.45], [0.8]])
X2 = SpatialConfig.from_points([[0.1, 0.7], [0.45, 0.2], [0.8, 0.45]])
K2 = build_rate_table(LambdaMeasure.kingman(), 2)
K3 = build_rate_table(LambdaMeasure.kingman(), 3)

def least_ms(call):
    best = float("inf")
    for _ in range({CALLS}):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best

def table_ms(x, table, m):
    sampler = ExactCoalescentSampler(x, table)
    f = next(f for f in sampler.forests if f.m == m)
    def build():
        sampler._tables.clear()
        sampler._gap_table(f)
    return least_ms(build)

def cold():
    ExactCoalescentSampler(X1, K3).sample(np.random.default_rng(0))

cold()
print(json.dumps({{
    "gap_table_m1_ms": table_ms(PAIR, K2, 1),
    "gap_table_m2_ms": table_ms(X1, K3, 2),
    "cold_sampler_ms": least_ms(cold),
    "normalization_d1_ms": least_ms(lambda: normalization_N(X1, K3)),
    "normalization_d2_ms": least_ms(lambda: normalization_N(X2, K3)),
}}))
"""


def main() -> int:
    trees, out = parse_trees(__doc__, "BENCH_contract.json")
    runs = alternate(trees, REPEATS, CHILD)
    write(out, {
        "machine": machine(),
        "repeats": REPEATS,
        "calls": CALLS,
        **{label: summary(r) for label, r in runs.items()},
        "after_over_before": summary(ratios(runs["before"], runs["after"])),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
