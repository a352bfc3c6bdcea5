"""Self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py [WORKLOAD ...]

Run from the root of a source checkout.  For each workload (default: all)
it runs run.py with --size tiny, once untraced and once traced, and checks
that

- the last line of output has exactly the keys correct, attempted, failed
  and metrics, and correct is true;
- every end-to-end metric of BENCHMARK.json is emitted untraced, and every
  per-layer metric traced, each with its unit and a finite value; the
  end-to-end values are positive;
- the traced and untraced runs attempt the same operations, under the same
  names, and fail the same ones.

It also checks that run.py exits non-zero, printing no result, in a
directory holding only BENCHMARK.json and the benchmark's files.  Exits
non-zero on the first failed check.  Takes a few minutes: the duality CDF
and the d = 2 consistency check have a fixed cost that no size removes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("duality", "resample", "reversal", "d2")
SEED = 11


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {what}")


def result_of(workload: str, trace: int) -> tuple[dict, dict]:
    proc = run(workload, trace)
    failure = "" if proc.returncode == 0 else f": {proc.stderr[-500:]}"
    check(proc.returncode == 0, f"{workload} trace={trace} exits 0{failure}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(
        (HERE / "results" / f"{workload}-s{SEED}-t{trace}.json").read_text()
    )
    return summary, detail


def operations(detail: dict, trace: int) -> list[tuple[str, bool]]:
    rounds = detail["traced_rounds"] if trace else detail["rounds"]
    return [(name, ok) for r in rounds for name, ok, _ in r["verdicts"]]


def main(argv: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in argv or WORKLOADS:
        check(workload in {w["name"] for w in bench["workloads"]}, f"{workload} listed")
        ops = {}
        for trace in (0, 1):
            summary, detail = result_of(workload, trace)
            tag = f"{workload} trace={trace}"
            check(
                set(summary) == {"correct", "attempted", "failed", "metrics"},
                f"{tag} result keys",
            )
            check(summary["correct"] is True, f"{tag} correct ({detail['problems']})")
            got = {k: v["unit"] for k, v in summary["metrics"].items()}
            check(got == wanted[trace], f"{tag} emits every metric with its unit")
            values = [v["value"] for v in summary["metrics"].values()]
            check(
                all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                f"{tag} values are finite numbers",
            )
            if trace == 0:
                check(all(v > 0 for v in values), f"{tag} end-to-end values positive")
            ops[trace] = operations(detail, trace)
            check(
                summary["attempted"] == len(ops[trace])
                and summary["failed"] == sum(1 for _, ok in ops[trace] if not ok),
                f"{tag} attempted and failed count the operations",
            )
        check(ops[0] == ops[1], f"{workload} traced and untraced runs attempt the same operations")

    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(
        HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results*", "__pycache__")
    )
    proc = run(WORKLOADS[0], 0, cwd=bare)
    shutil.rmtree(bare)
    check(
        proc.returncode != 0 and '"metrics"' not in proc.stdout,
        "without the program's source run.py exits non-zero with no result",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
