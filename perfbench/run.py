"""Benchmark of the `spatialcoal check` workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each round runs workload.py in a
fresh interpreter with single-threaded BLAS/OpenMP and the package on
PYTHONPATH=src.  Rounds repeat until --seconds have passed and at least
MIN_ROUNDS have run; round i runs on a seed derived from (--seed, i).  The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.

--trace 0 reports the end-to-end metrics, medians over rounds (setup_s over
at least SETUP_SAMPLES set-ups).  --trace 1 traces every round and reports
the per-layer metrics, medians over rounds, plus trace.overhead_s: the
traced minus the untraced wall time of round 0, which runs both ways.
Per-round details go to perfbench/results/<workload>-s<seed>-t<trace>.json,
spans to perfbench/results/trace-<workload>-s<seed>-r<round>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER_METRICS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("duality", "resample", "reversal", "d2")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
SETUP_SAMPLES = 3
# A statistical retry reruns most of a resample or reversal round, and their
# rounds are short: a run takes the median of at least three of them.
MIN_ROUNDS = {"duality": 1, "resample": 3, "reversal": 3, "d2": 1}
ROUND_TIMEOUT_S = 170
SINGLE_THREAD = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


def round_seed(seed: int, i: int) -> int:
    return seed if i == 0 else seed * 1000 + i


def run_child(args, seed: int, results: Path, tag: str, extra=()) -> dict:
    """One workload.py process; returns its result with setup_s added."""
    result_file = results / f"round-{args.workload}-{tag}.json"
    result_file.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(seed), "--size", args.size,
        "--out", str(results / f"out-{args.workload}"), "--result", str(result_file),
        *extra,
    ]
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path.cwd() / "src"), env.get("PYTHONPATH")) if p
    )
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=ROUND_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} round exited with {proc.returncode}")
    out = json.loads(result_file.read_text())
    result_file.unlink()
    out["setup_s"] = out["t_ready"] - t_spawn
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: a few replicates per check, for the harness self-test",
    )
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (Path.cwd() / "src" / "spatialcoal" / "cli.py").is_file():
        print("run from the root of a spatialcoal checkout (no src/spatialcoal)",
              file=sys.stderr)
        return 2
    results = HERE / "results"
    results.mkdir(exist_ok=True)

    untraced, traced = [], []
    start = time.monotonic()
    i = 0
    while i < MIN_ROUNDS[args.workload] or time.monotonic() - start < args.seconds:
        seed = round_seed(args.seed, i)
        if args.trace:
            # round 0 also runs untraced, for the tracing overhead
            if i == 0:
                untraced.append(run_child(args, seed, results, "r0"))
            spans = results / f"trace-{args.workload}-s{seed}-r{i}.json"
            traced.append(
                run_child(args, seed, results, f"r{i}t", ("--trace", str(spans)))
            )
        else:
            untraced.append(run_child(args, seed, results, f"r{i}"))
        i += 1
    setups = [r["setup_s"] for r in untraced]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_child(args, args.seed, results, "setup", ("--setup-only",))["setup_s"])

    counted = traced if args.trace else untraced
    verdicts = [v for r in counted for v in r["verdicts"]]
    problems = [p for r in untraced + traced for p in r["problems"]]
    if args.trace:
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead_s"] = traced[0]["wall_s"] - untraced[0]["wall_s"]
        units = PER_LAYER_METRICS
    else:
        metrics = {
            name: statistics.median(r[name] for r in untraced)
            for name in ("wall_s", "cpu_s", "peak_rss_mb")
        }
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END
    summary = {
        "correct": not problems,
        "attempted": len(verdicts),
        "failed": sum(1 for _, ok, _ in verdicts if not ok),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "rounds": untraced,
        "traced_rounds": traced,
        "setups": setups,
        "retries": sum(1 for r in counted for _, _, retried in r["verdicts"] if retried),
        "failed_operations": sorted({n for n, ok, _ in verdicts if not ok}),
        "problems": problems,
        "summary": summary,
    }
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(detail, indent=1)
    )
    for name, m in summary["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
