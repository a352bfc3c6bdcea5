"""What the bench scripts share: samples of two spatialcoal checkouts, each
in a fresh interpreter with single-threaded BLAS/OpenMP and
PYTHONPATH=<checkout>/src, alternating between the trees, and the summary
of those samples (medians and quartiles, after / before ratios of
neighbouring samples, and the machine they ran on)."""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HERE = Path(__file__).resolve().parent.parent


def parse_trees(doc: str, default_out: str) -> tuple[dict[str, Path], Path]:
    """--before, --after (default: the tree this script sits in) and --out."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--before", type=Path, required=True)
    ap.add_argument("--after", type=Path, default=HERE)
    ap.add_argument("--out", type=Path, default=HERE / default_out)
    args = ap.parse_args()
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "spatialcoal" / "cli.py").is_file():
            ap.error(f"{tree} is not a spatialcoal checkout")
    return trees, args.out


def sample(tree: Path, child: str) -> dict:
    """The JSON object that ``child`` prints last, run against ``tree``."""
    env = dict(os.environ, **ENV, PYTHONPATH=str(tree / "src"))
    out = subprocess.run(
        [sys.executable, "-c", child], env=env, cwd=tree,
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def alternate(trees: dict[str, Path], repeats: int, child: str) -> dict[str, list]:
    """``repeats`` samples per tree, the order of the trees flipping each round."""
    runs = {label: [] for label in trees}
    for i in range(repeats):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for label in order:
            runs[label].append(sample(trees[label], child))
    return runs


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]:
        vals = [r[name] for r in runs]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                     "samples": vals}
    return out


def ratios(before: list[dict], after: list[dict]) -> list[dict]:
    return [{name: a[name] / b[name] for name in b} for b, a in zip(before, after)]


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


def write(out: Path, result: dict) -> None:
    """Write ``result`` and print each metric's medians and their ratio."""
    out.write_text(json.dumps(result, indent=2) + "\n")
    for name in result["before"]:
        b, a = result["before"][name]["median"], result["after"][name]["median"]
        line = f"{name:20s} before {b:.4g}  after {a:.4g}"
        if "after_over_before" in result:
            r = result["after_over_before"][name]
            line += f"  after/before median {r['median']:.3g} ({r['q1']:.3g}-{r['q3']:.3g})"
        else:
            line += f"  ratio {a / b:.3g}"
        print(line)
