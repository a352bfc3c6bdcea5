"""Cost per event of the forward models, in microseconds.

    python3 bench/forward.py --before OLD_CHECKOUT [--after NEW_CHECKOUT]
        [--out BENCH_forward.json]

Each checkout is the root of a spatialcoal source tree; --after defaults to
the tree this script sits in.  Each tree gets REPEATS samples.  Every sample
runs in a fresh interpreter with single-threaded BLAS/OpenMP and
PYTHONPATH=<checkout>/src, alternating between the two trees.  One sample
records the least wall time per event over CALLS calls of:

- cannings_us: the reversal check's forward call, ``cannings_simulate`` of
  pair-resampling at N = 30, d = 1, T_N = 435, horizon 2, warm-up 20 and
  grid step 0.5, one seed per call.  A call's event count is its first
  draw, the Poisson number of events over warm-up plus horizon;
- harvester_us: the duality check's ``ForwardHarvester.advance(6.0)`` on the
  same law, after a 20-unit warm-up;
- lookdown_us: ``lookdown_simulate`` under Kingman at n = 5, d = 1, over
  LOOKDOWN_TIME model time with no warm-up, one seed per call.

On a shared machine the same call can run 1.6 times slower for seconds at
a time, so a sample takes the fastest of its calls, the cost with the least
interference.  The output holds each tree's samples with their medians and
quartiles, the same for the ratio after / before of the two samples of each
round (neighbours in time), and the machine they ran on.
"""

from __future__ import annotations

import sys

from common import alternate, machine, parse_trees, ratios, summary, write

REPEATS = 11
CALLS = 5
HARVEST_CALLS = 20
LOOKDOWN_TIME = 400.0

CHILD = f"""
import json, time
import numpy as np
from spatialcoal.forward import (
    ForwardHarvester, OffspringLaw, _cannings_groups, cannings_simulate,
    lookdown_simulate,
)
from spatialcoal.measures import LambdaMeasure
N, T_N = 30, 435.0
law = OffspringLaw("pair-resampling", N)

def us_per_event(calls):
    return 1e6 * min(s / e for s, e in calls)

calls = []
for seed in range({CALLS}):
    t0 = time.perf_counter()
    cannings_simulate(law, T_N, 2.0, 1, np.random.default_rng(seed), warmup=20.0,
                      grid_dt=0.5)
    calls.append((time.perf_counter() - t0,
                  np.random.default_rng(seed).poisson(T_N * 22.0)))
cannings_us = us_per_event(calls)
h = ForwardHarvester(N, 1, T_N, lambda r: _cannings_groups(law, r),
                     np.random.default_rng(0), warmup=20.0)
calls = []
for _ in range({HARVEST_CALLS}):
    before = h.t
    t0 = time.perf_counter()
    h.advance(6.0)
    calls.append((time.perf_counter() - t0, sum(t > before for t in h.ev_times)))
harvester_us = us_per_event(calls)
calls = []
for seed in range({CALLS}):
    t0 = time.perf_counter()
    lookdown_simulate(LambdaMeasure.kingman(), 5, {LOOKDOWN_TIME}, 1,
                      np.random.default_rng(seed), warmup=0.0)
    calls.append((time.perf_counter() - t0,
                  np.random.default_rng(seed).poisson(10.0 * {LOOKDOWN_TIME})))
print(json.dumps({{"cannings_us": cannings_us, "harvester_us": harvester_us,
                  "lookdown_us": us_per_event(calls)}}))
"""


def main() -> int:
    trees, out = parse_trees(__doc__, "BENCH_forward.json")
    runs = alternate(trees, REPEATS, CHILD)
    write(out, {
        "machine": machine(),
        "repeats": REPEATS,
        **{label: summary(r) for label, r in runs.items()},
        "after_over_before": summary(ratios(runs["before"], runs["after"])),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
