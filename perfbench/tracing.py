"""In-memory span tracing of spatialcoal, installed from outside the package.

`Tracer.install` wraps the public functions of each layer module, plus the
methods named in METHODS, and rebinds every name in every spatialcoal module
that refers to the original, so calls made through a `from .x import f`
binding are traced too.  A span is (name, parent, start, end); all spans of
one traced round share the tracer's run identifier.  Spans are kept in
arrays and written out once, by `Tracer.dump`.

`Tracer.metrics` turns the spans into the per-layer metrics of
PER_LAYER_METRICS: function metrics are inclusive times of the named
functions (outermost calls only), layer metrics are self times (span time
minus the time covered by child spans) summed over the layer's spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

PACKAGE = "spatialcoal"
LAYERS = (
    "forward",
    "experiments",
    "kernels",
    "sampler",
    "normalization",
    "reversal",
    "stats",
    "forests",
    "measures",
)
# Public methods worth a span.  Small accessors (Forest.children,
# RateTable.rate, ...) are left out: they run in the innermost loops, where
# a span would cost more than the call.
METHODS = {
    "forward": {"ForwardHarvester": ("__init__", "advance", "observe")},
    "sampler": {
        "ExactCoalescentSampler": ("__init__", "sample"),
        "PairDriftField": ("__init__", "grad_log_N"),
    },
    "normalization": {"MuSampler": ("sample",)},
    "measures": {"RateTable": ("total",)},
}


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _model_time_of_simulate(args, kwargs):
    horizon = _arg(args, kwargs, 2, "horizon")
    warmup = _arg(args, kwargs, 5, "warmup")
    if warmup is None:
        from spatialcoal.forward import cannings_p_rates, default_warmup
        from spatialcoal.partitions import MergerSignature

        law, t_n = args[0], _arg(args, kwargs, 1, "T_N")
        warmup = default_warmup(
            t_n * cannings_p_rates(law, MergerSignature(2, (2,))).value
        )
    return float(horizon) + float(warmup)


def _len_rows(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is None:
        return len(value)
    return int(shape[0]) if len(shape) == 2 else 1


# span name -> function(args, kwargs, result) -> {counter: increment}
COUNTERS = {
    "forward.ForwardHarvester.advance": lambda a, k, r: {
        "forward.model_time": float(_arg(a, k, 1, "span"))
    },
    "forward.cannings_simulate": lambda a, k, r: {
        "forward.model_time": _model_time_of_simulate(a, k)
    },
    "experiments.run_experiment": lambda a, k, r: {
        "experiments.tests": len(r.results),
        "experiments.retries": sum(1 for t in r.results if t.retried),
    },
    "sampler.PairDriftField.grad_log_N": lambda a, k, r: {
        "sampler.drift_evals": _len_rows(_arg(a, k, 1, "delta"))
    },
    "normalization.spatial_integral_g_batch": lambda a, k, r: {
        "normalization.gap_table_rows": _len_rows(_arg(a, k, 1, "taus"))
    },
    "reversal.simulate_reversal": lambda a, k, r: {"reversal.epochs": len(r.epochs)},
    "forests.enumerate_forests": lambda a, k, r: {"forests.forests": len(r)},
}

# metric -> (unit, kind, spans).  kind "time" sums inclusive span time,
# "calls" counts spans, "counter" reads COUNTERS.
_FUNCTION_METRICS = {
    "forward.harvest_s": ("s", "time", ("forward.ForwardHarvester.advance",)),
    "forward.observe_s": ("s", "time", ("forward.ForwardHarvester.observe",)),
    "forward.simulate_s": ("s", "time", ("forward.cannings_simulate",)),
    "forward.model_time": ("model-time", "counter", ()),
    "experiments.sep_cdf_s": (
        "s", "time", ("experiments.stationary_pair_separation_cdf",)
    ),
    "experiments.pair_reference_s": ("s", "time", ("experiments.quad_pair_reference",)),
    "experiments.pair_reference_calls": (
        "count", "calls", ("experiments.quad_pair_reference",)
    ),
    "experiments.tests": ("count", "counter", ()),
    "experiments.retries": ("count", "counter", ()),
    "sampler.init_s": ("s", "time", ("sampler.ExactCoalescentSampler.__init__",)),
    "sampler.inits": ("count", "calls", ("sampler.ExactCoalescentSampler.__init__",)),
    "sampler.draw_s": ("s", "time", ("sampler.ExactCoalescentSampler.sample",)),
    "sampler.draws": ("count", "calls", ("sampler.ExactCoalescentSampler.sample",)),
    "sampler.locations_s": ("s", "time", ("sampler.sample_merge_locations",)),
    "sampler.paths_s": ("s", "time", ("sampler.sample_paths",)),
    "sampler.residual_s": ("s", "time", ("sampler.pair_residual_times",)),
    "sampler.sde_s": ("s", "time", ("sampler.pair_separation_run",)),
    "sampler.drift_s": ("s", "time", ("sampler.PairDriftField.grad_log_N",)),
    "sampler.drift_evals": ("count", "counter", ()),
    "normalization.gap_table_s": (
        "s", "time", ("normalization.spatial_integral_g_batch",)
    ),
    "normalization.gap_table_rows": ("count", "counter", ()),
    "normalization.spectral_s": (
        "s",
        "time",
        ("normalization.normalization_N_spectral", "normalization.grad_log_N_spectral"),
    ),
    "normalization.quadrature_s": ("s", "time", ("normalization.normalization_N",)),
    "normalization.quadrature_calls": (
        "count", "calls", ("normalization.normalization_N",)
    ),
    "normalization.mu_grid_s": ("s", "time", ("normalization.mu_density_grid",)),
    "normalization.mu_grids": ("count", "calls", ("normalization.mu_density_grid",)),
    "reversal.run_s": ("s", "time", ("reversal.simulate_reversal",)),
    "reversal.epochs": ("count", "counter", ()),
    "reversal.resample_s": ("s", "time", ("reversal.resample_levels",)),
    "stats.energy_s": ("s", "time", ("stats.energy_distance_test",)),
    "stats.ks_s": ("s", "time", ("stats.ks_two_sample", "stats.ks_against_cdf")),
    "forests.enumerate_s": ("s", "time", ("forests.enumerate_forests",)),
    "forests.forests": ("count", "counter", ()),
    "measures.rate_table_s": (
        "s", "time", ("measures.build_rate_table", "forward.cannings_rate_table")
    ),
    "measures.total_calls": ("count", "calls", ("measures.RateTable.total",)),
}

# every per-layer metric with its unit, in output order
PER_LAYER_METRICS = dict(
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{layer}.calls", "count") for layer in LAYERS]
    + [(name, spec[0]) for name, spec in _FUNCTION_METRICS.items()]
    + [
        ("forward.s_per_model_time", "s/model-time"),
        ("reversal.s_per_epoch", "s"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
    ]
)


class Tracer:
    """Span recorder for one traced round."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, span_name: str, fn):
        name_id = len(self.names)
        self.names.append(span_name)
        count = COUNTERS.get(span_name)
        stack, names, parents = self._stack, self.name, self.parent
        starts, ends, clock = self.start, self.end, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if count is not None:
                self.counters.update(count(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced callable and rebind it wherever it is named."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    replace[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    original = vars(cls)[meth]
                    setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", original))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (overhead excluded)."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        layer_self: Counter = Counter()
        layer_calls: Counter = Counter()
        # a span is outermost for its name when no ancestor has the same name
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            layer = name.split(".", 1)[0]
            layer_self[layer] += dur[i] - child[i]
            layer_calls[layer] += 1
            p = self.parent[i]
            while p >= 0 and self.name[p] != self.name[i]:
                p = self.parent[p]
            if p < 0:
                inclusive[name] += dur[i]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
            out[f"{layer}.calls"] = layer_calls[layer]
        for metric, (_, kind, spans) in _FUNCTION_METRICS.items():
            if kind == "time":
                out[metric] = sum(inclusive[s] for s in spans)
            elif kind == "calls":
                out[metric] = sum(calls[s] for s in spans)
            else:
                out[metric] = self.counters[metric]
        model_time = out["forward.model_time"]
        busy = out["forward.harvest_s"] + out["forward.simulate_s"]
        out["forward.s_per_model_time"] = busy / model_time if model_time else 0.0
        epochs = out["reversal.epochs"]
        out["reversal.s_per_epoch"] = out["reversal.run_s"] / epochs if epochs else 0.0
        out["trace.spans"] = n
        return out

    def dump(self, path) -> None:
        """Write every span, columnwise, with the run identifier."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "run": self.run_id,
                    "names": self.names,
                    "name": list(self.name),
                    "parent": list(self.parent),
                    "start": list(self.start),
                    "end": list(self.end),
                },
                fh,
            )
