"""Command-line surface: rate tables, normalizations, samplers, forward
models, reversal runs, and the named verification experiments.

All outputs are deterministic for a fixed seed: floats are serialized with
repr-faithful precision and wall-clock times never enter artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentSpec,
    run_experiment,
    write_csv,
    write_json,
)
from .forward import OffspringLaw, cannings_simulate, extract_genealogy, lookdown_simulate
from .kernels import SpatialConfig
from .measures import (
    LambdaMeasure,
    XiMeasure,
    build_rate_table,
    check_consistency,
    measure_to_dict,
)
from .normalization import normalization_N, normalization_N_spectral
from .partitions import signatures_for
from .reversal import simulate_reversal
from .sampler import ExactCoalescentSampler, sample_paths, sir_sample
from .stats import make_rng


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _measure_from(cfg: dict) -> LambdaMeasure | XiMeasure:
    if "measure" in cfg:
        from .measures import measure_from_dict

        return measure_from_dict(cfg["measure"])
    return LambdaMeasure.kingman()


def _points_from(cfg: dict, args) -> np.ndarray:
    if "points" in cfg:
        return np.asarray(cfg["points"], dtype=float)
    rng = make_rng(args.seed + 991)
    pts = rng.uniform(size=(args.n, args.dim))
    return pts


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path("spatialcoal-out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="JSON configuration file")
    parser.add_argument("--dim", type=int, default=1, help="torus dimension")
    parser.add_argument("--n", type=int, default=2, help="sample size / levels")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--replicates", type=int, default=100)
    parser.add_argument("--out", default=None, help="output directory")


# --method of the subcommands that take one.  auto is normalization_N's
# own choice (the Gauss rule up to two merge events, Monte Carlo beyond)
# and the exact sampler of sample-coalescent.
METHOD_CHOICES = {
    "normalization": ("auto", "spectral", "quadrature", "monte-carlo"),
    "sample-coalescent": ("auto", "sir"),
}


def cmd_rates(args) -> int:
    cfg = _load_config(args.config)
    measure = _measure_from(cfg)
    table = build_rate_table(measure, max(args.n, 2))
    rows = []
    for n in range(2, table.n_max + 1):
        for sig in signatures_for(n):
            rows.append((n, "+".join(map(str, sig.ks)), table.rate(sig)))
    out = _out_dir(args)
    write_csv(out / "samples.csv", ["n", "merger", "rate"], rows)
    report = check_consistency(table)
    payload = {
        "measure": measure_to_dict(measure),
        "n_max": table.n_max,
        "consistency": report.passed,
    }
    write_json(out / "report.json", payload)
    print(f"rates written to {out}; consistency: {report.passed}")
    return 0 if report.passed else 1


def cmd_normalization(args) -> int:
    cfg = _load_config(args.config)
    measure = _measure_from(cfg)
    pts = _points_from(cfg, args)
    table = build_rate_table(measure, max(len(pts), 2))
    x = SpatialConfig.from_points(pts)
    if args.method == "spectral":
        value = normalization_N_spectral(x, table)
        err = 0.0
        method = "spectral"
    else:
        est = normalization_N(x, table, method=args.method, rng=make_rng(args.seed))
        value, err, method = est.value, est.std_error, est.method
    out = _out_dir(args)
    payload = {
        "points": [list(map(float, p)) for p in pts],
        "value": value,
        "std_error": err,
        "method": method,
    }
    write_json(out / "report.json", payload)
    print(f"N = {value:.12g} (method {method})")
    return 0


def cmd_sample_coalescent(args) -> int:
    cfg = _load_config(args.config)
    measure = _measure_from(cfg)
    pts = _points_from(cfg, args)
    table = build_rate_table(measure, max(len(pts), 2))
    x = SpatialConfig.from_points(pts)
    rng = make_rng(args.seed)
    out = _out_dir(args)
    if args.method == "sir":
        forests, report = sir_sample(x, table, rng, batch=args.replicates)
        print(f"SIR effective sample size {report.ess:.1f} of {args.replicates}")
    else:
        sampler = ExactCoalescentSampler(x, table)
        forests = [sampler.sample(rng) for _ in range(args.replicates)]
        # trajectories of one more draw
        df = sampler.sample(rng)
        horizon = (
            df.tau.level_time(df.forest.m) if not df.forest.is_trivial else 1.0
        )
        cp = sample_paths(df, x, horizon + 0.1, grid_dt=0.01, rng=rng)
        rows = []
        for b, (ts, ps) in sorted(
            cp.paths.items(), key=lambda kv: sorted(kv[0])
        ):
            label = "|".join(map(str, sorted(b)))
            for t, p in zip(ts, ps):
                rows.append((label, t, *p))
        write_csv(
            out / "trajectories.csv",
            ["lineage", "time"] + [f"x{c}" for c in range(x.d)],
            rows,
        )
    events, samples = [], []
    for i, df in enumerate(forests):
        for lvl, t in enumerate(df.tau.times, start=1):
            events.append((i, t, len(df.forest.levels[lvl])))
            samples.append((i, lvl, t))
    write_csv(out / "events.csv", ["replicate", "time", "blocks_after"], events)
    write_csv(out / "samples.csv", ["replicate", "level", "merge_time"], samples)
    print(f"{args.replicates} coalescent draws written to {out}")
    return 0


def _forward_csv(run, out: Path, d: int) -> None:
    events = []
    for i, (t, groups) in enumerate(zip(run.times, run.groups)):
        desc = ";".join("|".join(map(str, g)) for g in groups)
        events.append((i, t, desc))
    write_csv(out / "events.csv", ["event", "time", "groups"], events)
    if run.grid_times is not None:
        rows = []
        for j, t in enumerate(run.grid_times):
            for lvl in range(run.n_levels):
                rows.append((t, lvl + 1, *run.grid_positions[j, lvl]))
        write_csv(
            out / "trajectories.csv",
            ["time", "level"] + [f"x{c}" for c in range(d)],
            rows,
        )
    rows = [(lvl + 1, *run.end_positions[lvl]) for lvl in range(run.n_levels)]
    write_csv(
        out / "samples.csv", ["level"] + [f"x{c}" for c in range(d)], rows
    )


def cmd_simulate_cannings(args) -> int:
    cfg = _load_config(args.config)
    N = cfg.get("population", 30)
    law_cfg = cfg.get("offspring", {"kind": "pair-resampling"})
    law = OffspringLaw(
        kind=law_cfg.get("kind", "pair-resampling"),
        N=N,
        vector=tuple(law_cfg["vector"]) if "vector" in law_cfg else None,
    )
    T_N = cfg.get("event_rate", N * (N - 1) / 2.0)
    horizon = cfg.get("horizon", 2.0)
    rng = make_rng(args.seed)
    run = cannings_simulate(
        law, T_N, horizon, args.dim, rng, grid_dt=cfg.get("grid_dt", horizon / 8)
    )
    out = _out_dir(args)
    _forward_csv(run, out, args.dim)
    gen = extract_genealogy(run, min(args.n, N))
    print(
        f"cannings run: {run.times.size} events, genealogy of {args.n} "
        f"coalesced: {gen.fully_coalesced}; artifacts in {out}"
    )
    return 0


def cmd_simulate_lookdown(args) -> int:
    cfg = _load_config(args.config)
    measure = _measure_from(cfg)
    horizon = cfg.get("horizon", 2.0)
    rng = make_rng(args.seed)
    run = lookdown_simulate(
        measure, args.n, horizon, args.dim, rng,
        grid_dt=cfg.get("grid_dt", horizon / 8),
    )
    out = _out_dir(args)
    _forward_csv(run, out, args.dim)
    print(f"lookdown run: {run.times.size} events; artifacts in {out}")
    return 0


def cmd_reverse(args) -> int:
    cfg = _load_config(args.config)
    measure = _measure_from(cfg)
    horizon = cfg.get("horizon", 2.0)
    rng = make_rng(args.seed)
    run = simulate_reversal(measure, args.n, horizon, args.dim, rng)
    out = _out_dir(args)
    epochs = [
        (
            e.epoch,
            e.merge_time,
            "+".join(map(str, e.signature.ks)),
            "|".join(map(str, [lvl for grp in e.merged_levels for lvl in grp])),
            "|".join(map(str, e.resampled_levels)),
        )
        for e in run.epochs
    ]
    write_csv(
        out / "events.csv",
        ["epoch", "merge_time", "signature", "merged_levels", "resampled_levels"],
        epochs,
    )
    rows = []
    for j, t in enumerate(run.record_times):
        for lvl in range(run.records.shape[1]):
            rows.append((t, lvl + 1, *run.records[j, lvl]))
    write_csv(
        out / "trajectories.csv",
        ["time", "level"] + [f"x{c}" for c in range(args.dim)],
        rows,
    )
    print(f"reversal run: {len(run.epochs)} epochs; artifacts in {out}")
    return 0


def cmd_check(args, parser: argparse.ArgumentParser) -> int:
    cfg = _load_config(args.config)
    try:
        spec = ExperimentSpec(
            name=args.experiment,
            measure=_measure_from(cfg),
            d=args.dim,
            n=args.n,
            horizon=cfg.get("horizon", 2.0),
            replicates=args.replicates,
            seed=args.seed,
            out=Path(args.out or "spatialcoal-out"),
        )
    except ValueError as exc:
        parser.error(str(exc))  # exit 2 with a usage line, writing nothing
    report = run_experiment(spec)
    for r in report.results:
        verdict = "PASS" if r.passed else "FAIL"
        pv = "" if r.p_value is None else f" p={r.p_value:.4g}"
        retry = " (retried)" if r.retried else ""
        print(f"[{verdict}] {r.name}: stat={r.statistic:.4g}{pv}{retry}")
    print(f"experiment {args.experiment}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatialcoal",
        description="Simulation and verification toolkit for coalescents "
        "with Brownian motion on the torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("rates", cmd_rates),
        ("normalization", cmd_normalization),
        ("sample-coalescent", cmd_sample_coalescent),
        ("simulate-cannings", cmd_simulate_cannings),
        ("simulate-lookdown", cmd_simulate_lookdown),
        ("reverse", cmd_reverse),
    ):
        p = sub.add_parser(name)
        _common(p)
        p.set_defaults(fn=fn)
        if name in METHOD_CHOICES:
            p.add_argument("--method", default="auto", choices=METHOD_CHOICES[name])
    p = sub.add_parser("check")
    p.add_argument("experiment", choices=EXPERIMENT_NAMES)
    _common(p)
    p.set_defaults(fn=lambda args, p=p: cmd_check(args, p))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
