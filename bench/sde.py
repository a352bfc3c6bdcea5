"""Cost of the pair-separation drift SDE at drift-scaling's inputs.

    python3 bench/sde.py --before OLD_CHECKOUT [--after NEW_CHECKOUT]
        [--out BENCH_sde.json]

Each checkout is the root of a spatialcoal source tree; --after defaults to
the tree this script sits in.  Each tree gets REPEATS samples.  Every sample
runs in a fresh interpreter with single-threaded BLAS/OpenMP and
PYTHONPATH=<checkout>/src, alternating between the two trees.  A sample
runs ``pair_separation_run`` as ``check drift-scaling --dim 2`` does under
Kingman (start (0.25, 0.1), dt = 1e-4, merge radius 5e-3, 50 paths), once
untimed to warm up and then CALLS times on generator seed SEED, and records:

- run_ms: the least wall time of those calls, drift table and residual
  merge times included;
- us_per_step / us_per_row: run_ms over the Euler steps of the run, and
  over its drift rows (one row per running path and step).

The run at one seed is the same draw on every tree whose streams agree, so
the steps and rows are counted once per sample, on an untimed run whose
generator counts its normal draws: one call per step, two normals per row.
The output holds each tree's samples with their medians and quartiles, the
same for the ratio after / before of the two samples of each round
(neighbours in time), and the machine they ran on.
"""

from __future__ import annotations

import sys

from common import alternate, machine, parse_trees, ratios, summary, write

REPEATS = 11
CALLS = 3
SEED = 5

CHILD = f"""
import json, time
import numpy as np
from spatialcoal.measures import LambdaMeasure, build_rate_table
from spatialcoal.sampler import pair_separation_run

K2 = build_rate_table(LambdaMeasure.kingman(), 2)
ARGS = (np.array([0.25, 0.1]), K2, 1e-4, 5e-3, 50)

class Counting:
    # a generator that counts its normal draws
    def __init__(self, rng):
        self.rng, self.steps, self.rows = rng, 0, 0
    def normal(self, size):
        self.steps += 1
        self.rows += int(np.prod(size)) // 2
        return self.rng.normal(size=size)
    def uniform(self, size):
        return self.rng.uniform(size=size)

count = Counting(np.random.default_rng({SEED}))
pair_separation_run(*ARGS, rng=count)
best = float("inf")
for _ in range({CALLS}):
    rng = np.random.default_rng({SEED})
    t0 = time.perf_counter()
    pair_separation_run(*ARGS, rng=rng)
    best = min(best, time.perf_counter() - t0)
print(json.dumps({{
    "run_ms": 1e3 * best,
    "us_per_step": 1e6 * best / count.steps,
    "us_per_row": 1e6 * best / count.rows,
    "steps": count.steps,
    "rows": count.rows,
}}))
"""


def main() -> int:
    trees, out = parse_trees(__doc__, "BENCH_sde.json")
    runs = alternate(trees, REPEATS, CHILD)
    write(out, {
        "machine": machine(),
        "repeats": REPEATS,
        "calls": CALLS,
        "seed": SEED,
        **{label: summary(r) for label, r in runs.items()},
        "after_over_before": summary(ratios(runs["before"], runs["after"])),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
