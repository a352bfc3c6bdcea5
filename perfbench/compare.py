"""Compare benchmark result files metric by metric.

    python3 perfbench/compare.py BASE [NEW]

BASE and NEW are result files written by run.py
(perfbench/results/<workload>-s<seed>-t<trace>.json) or directories of them.
For each workload and metric it prints the number of runs, the median and
the spread (q3 - q1) / median, with the quartiles of
statistics.quantiles(values, n=4); with two sets of runs, also the change of
the median and, for end-to-end metrics, whether it is worse than the bound in
BENCHMARK.json.  Per workload it prints the retries and the failed share.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict:
    """{(workload, trace): [detail, ...]} for a file or a directory."""
    files = sorted(path.glob("*-s*-t[01].json")) if path.is_dir() else [path]
    runs = defaultdict(list)
    for f in files:
        detail = json.loads(f.read_text())
        runs[(detail["workload"], detail["trace"])].append(detail)
    return runs


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base = load(Path(argv[0]))
    new = load(Path(argv[1])) if len(argv) == 2 else {}
    worse = 0
    for key in sorted(base):
        workload, trace = key
        runs = base[key]
        others = new.get(key, [])
        for label, group in (("base", runs), ("new", others)):
            if not group:
                continue
            att = sum(r["summary"]["attempted"] for r in group)
            fail = sum(r["summary"]["failed"] for r in group)
            ret = sum(r["retries"] for r in group)
            print(
                f"{workload} trace={trace} {label}: {len(group)} runs, "
                f"failed {fail}/{att}, retries {ret}, "
                f"seeds {sorted(r['seed'] for r in group)}"
            )
        for name in runs[0]["summary"]["metrics"]:
            unit = runs[0]["summary"]["metrics"][name]["unit"]
            vals = [r["summary"]["metrics"][name]["value"] for r in runs]
            med, sp = spread(vals)
            line = f"  {name:34s} {med:12.6g} {unit:12s} spread {sp:6.1%} (n={len(vals)})"
            if others:
                nvals = [r["summary"]["metrics"][name]["value"] for r in others]
                nmed, nsp = spread(nvals)
                change = (nmed - med) / abs(med) if med else 0.0
                line += f" -> {nmed:12.6g} spread {nsp:6.1%} change {change:+7.1%}"
                m = spec.get(name, {})
                if "bound" in m:
                    sign = 1.0 if m["better"] == "lower" else -1.0
                    if sign * change > m["bound"]:
                        line += f"  WORSE than bound {m['bound']:.0%}"
                        worse += 1
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
