"""Out-of-program tracing of edgerace's modules, and the per-layer metrics.

`install` replaces every binding of each public function across the
`edgerace.*` namespaces with a wrapper that records a span (name, start,
end, parent span, iteration) and the work counts of that call.  Modules
that import a function by name (`from .streams import generator`) hold
their own binding, so every namespace is patched, not only the defining
one.  `TailIntensity.inverse` is patched on its class and the closure that
`tail_curve` returns is wrapped as `poissonization.curve`.  Spans stay in
memory until `Tracer.dump`; `layer_metrics` turns a dump into the metrics
listed in `LAYER_METRICS`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable

import numpy as np

MODULES = ("streams", "numerics", "increments", "configurations", "dynamics",
           "laplace", "poissonization", "stats", "experiments", "cli")

ITEM = "streams.replica_map.item"  # one replica inside replica_map

_C = "wall_s, items_per_s on contraction"
_P = "wall_s on poissonize"
_S = "wall_s, items_per_s on stationarity"
_E = "wall_s on every workload"

# (metric, unit, better, exact at a fixed seed, end-to-end metric it should move)
LAYER_METRICS: tuple[tuple[str, str, str, bool, str], ...] = (
    ("streams.replica_map.calls", "count", "lower", True, _S),
    ("streams.replica_map.self_s", "s", "lower", False, _S),
    ("streams.replica_map.item_p50_ms", "ms", "lower", False, _S),
    ("streams.replica_map.item_p99_ms", "ms", "lower", False, _S + " (p99 per replica)"),
    ("streams.generator.calls", "count", "lower", True, _S),
    ("streams.generator.self_s", "s", "lower", False, _S),
    ("numerics.adaptive_gauss.calls", "count", "lower", True, _C),
    ("numerics.adaptive_gauss.self_s", "s", "lower", False, _C),
    ("numerics.gauss_panels.calls", "count", "lower", True, _C),
    ("numerics.gauss_panels.self_s", "s", "lower", False, _C),
    ("numerics.gauss_panels.points", "count", "lower", True, _C),
    ("numerics.monotone_root.calls", "count", "lower", True, _C),
    ("numerics.monotone_root.self_s", "s", "lower", False, _C),
    ("increments.cumulant.calls", "count", "lower", True, _C + " (uniform model only)"),
    ("increments.cumulant.self_s", "s", "lower", False, _C + " (uniform model only)"),
    ("increments.legendre_many.calls", "count", "lower", True, _P),
    ("increments.legendre_many.self_s", "s", "lower", False, _P),
    ("increments.sample.calls", "count", "lower", True, _S),
    ("increments.sample.self_s", "s", "lower", False, _S),
    ("increments.sample.draws", "count", "lower", True, _S),
    ("configurations.sample_from_tail_intensity.calls", "count", "lower", True, _S),
    ("configurations.sample_from_tail_intensity.self_s", "s", "lower", False, _S),
    ("configurations.sample_from_tail_intensity.particles", "count", "lower", True,
     _S + "; batching also shows in peak_rss_mb"),
    ("dynamics.evolve.calls", "count", "lower", True, _S),
    ("dynamics.evolve.self_s", "s", "lower", False, _S),
    ("dynamics.evolve.particles", "count", "lower", True, _S),
    ("dynamics.evolve.retained_ratio", "ratio", "higher", True, _S),
    ("laplace.log_transform.calls", "count", "lower", True, _C),
    ("laplace.log_transform.self_s", "s", "lower", False, _C),
    ("laplace.log_transform.elements", "count", "lower", True, _C),
    ("laplace.TailIntensity.inverse.calls", "count", "lower", True,
     _C + "; also wall_s, peak_rss_mb on poissonize"),
    ("laplace.TailIntensity.inverse.self_s", "s", "lower", False,
     _C + "; also wall_s, peak_rss_mb on poissonize"),
    ("laplace.TailIntensity.inverse.levels", "count", "lower", True,
     _C + "; also wall_s, peak_rss_mb on poissonize"),
    ("laplace.convolve_g.calls", "count", "lower", True, _C),
    ("laplace.convolve_g.self_s", "s", "lower", False, _C),
    ("laplace.convolution_shift.calls", "count", "lower", True, _C),
    ("laplace.convolution_shift.self_s", "s", "lower", False, _C),
    ("laplace.gap_functional.calls", "count", "lower", True, _C),
    ("laplace.gap_functional.self_s", "s", "lower", False, _C),
    ("laplace.steeper.calls", "count", "lower", True, _C),
    ("laplace.steeper.self_s", "s", "lower", False, _C),
    ("laplace.normalize.calls", "count", "lower", True, _C),
    ("laplace.normalize.self_s", "s", "lower", False, _C),
    ("laplace.normalize.errors", "count", "lower", True, _C),
    ("laplace.random_corpus.calls", "count", "lower", True, _C),
    ("laplace.random_corpus.self_s", "s", "lower", False, _C),
    ("laplace.random_corpus.accept_ratio", "ratio", "higher", True, _C),
    ("poissonization.leader_laws.calls", "count", "lower", True, _P),
    ("poissonization.leader_laws.self_s", "s", "lower", False, _P),
    ("poissonization.leader_laws.cells", "count", "lower", True, _P),
    ("poissonization.z_front.calls", "count", "lower", True, _P),
    ("poissonization.z_front.self_s", "s", "lower", False, _P),
    ("poissonization.curve.calls", "count", "lower", True, _P),
    ("poissonization.curve.self_s", "s", "lower", False, _P),
    ("poissonization.curve.cells", "count", "lower", True, _P),
    ("poissonization.extract_laplace.calls", "count", "lower", True, _P),
    ("poissonization.extract_laplace.self_s", "s", "lower", False, _P),
    ("stats.ks_two_sample.calls", "count", "lower", True, _S),
    ("stats.ks_two_sample.self_s", "s", "lower", False, _S),
    ("stats.ks_two_sample.samples", "count", "lower", True, _S),
    ("stats.ks_distance.calls", "count", "lower", True, _S),
    ("stats.ks_distance.self_s", "s", "lower", False, _S),
    ("experiments.run.calls", "count", "lower", True, _E),
    ("experiments.run.self_s", "s", "lower", False, _E),
    ("experiments.write_report.calls", "count", "lower", True, _E),
    ("experiments.write_report.self_s", "s", "lower", False, _E),
    ("experiments.write_report.bytes", "B", "lower", True, _E),
    ("cli.main.calls", "count", "lower", True, _E),
    ("cli.main.self_s", "s", "lower", False, _E),
    ("trace.overhead_ratio", "ratio", "lower", False, "none: traced wall_s over untraced wall_s"),
)


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _size(x) -> int:
    return int(np.size(x))


def _points(a, k, result, exc):
    lo, hi = _arg(a, k, 1, "lo"), _arg(a, k, 2, "hi")
    return {"points": int(_arg(a, k, 3, "panels")) * int(_arg(a, k, 4, "order", 32))
            if hi > lo else 0}


def _evolve(a, k, result, exc):
    drawn = _arg(a, k, 0, "config").size
    return {"particles": drawn, "retained": result.post.size if exc is None else 0}


def _report_bytes(a, k, result, exc):
    return {"bytes": sum(os.path.getsize(p) for p in result) if exc is None else 0}


# span name -> counts of one call, from (args, kwargs, result, exception)
COUNTERS: dict[str, Callable] = {
    "numerics.gauss_panels": _points,
    "increments.sample": lambda a, k, r, e: {"draws": int(_arg(a, k, 1, "n"))},
    "configurations.sample_from_tail_intensity":
        lambda a, k, r, e: {"particles": r.size if e is None else 0},
    "dynamics.evolve": _evolve,
    "laplace.log_transform":
        lambda a, k, r, e: {"elements": _size(_arg(a, k, 1, "x"))
                            * _arg(a, k, 0, "rho").n_atoms},
    "laplace.TailIntensity.inverse": lambda a, k, r, e: {"levels": _size(_arg(a, k, 1, "t"))},
    "laplace.normalize": lambda a, k, r, e: {"errors": int(e is not None)},
    "laplace.random_corpus": lambda a, k, r, e: {"accepted": len(r) if e is None else 0},
    "poissonization.leader_laws":
        lambda a, k, r, e: {"cells": r[0].grid.size * _arg(a, k, 0, "config").size
                            if e is None else 0},
    "poissonization.curve": lambda a, k, r, e: {"cells": _size(_arg(a, k, 0, "y"))},
    "stats.ks_two_sample":
        lambda a, k, r, e: {"samples": _size(_arg(a, k, 0, "a")) + _size(_arg(a, k, 1, "b"))},
    "experiments.write_report": _report_bytes,
}


class Tracer:
    """Spans in memory; the parent of a span is the top of a per-thread stack."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, iteration, name, start, end, counts)
        self.iteration = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        result = exc = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as err:
            exc = err
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            counter = COUNTERS.get(name)
            counts = counter(args, kwargs, result, exc) if counter else None
            self.spans.append((sid, parent, self.iteration, name, start, end, counts))

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap every public edgerace function in every namespace that binds it."""
    package = importlib.import_module("edgerace")
    modules = {name: importlib.import_module(f"edgerace.{name}") for name in MODULES}
    wrappers: dict[Callable, Callable] = {}
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                wrappers[obj] = tracer.wrap(f"{short}.{name}", obj)

    replica_map = modules["streams"].replica_map

    @functools.wraps(replica_map)
    def traced_replica_map(fn, *args, **kwargs):
        item = functools.wraps(fn)(lambda r: tracer.call(ITEM, fn, (r,), {}))
        return tracer.call("streams.replica_map", replica_map, (item, *args), kwargs)

    tail_curve = modules["poissonization"].tail_curve

    @functools.wraps(tail_curve)
    def traced_tail_curve(*args, **kwargs):
        curve = tracer.call("poissonization.tail_curve", tail_curve, args, kwargs)
        return tracer.wrap("poissonization.curve", curve)

    wrappers[replica_map] = traced_replica_map
    wrappers[tail_curve] = traced_tail_curve
    for mod in (package, *modules.values()):
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])
    intensity = modules["laplace"].TailIntensity
    intensity.inverse = tracer.wrap("laplace.TailIntensity.inverse", intensity.inverse)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _iteration_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of the spans of one iteration."""
    covered: dict[int, float] = defaultdict(float)
    names = {}
    for sid, parent, _, name, start, end, _ in spans:
        covered[parent] += end - start
        names[sid] = name
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    items_ms = []
    corpus_normalizes = 0
    for sid, parent, _, name, start, end, span_counts in spans:
        own = end - start - covered[sid]
        if name == ITEM:
            # replica closures are experiment-body glue, like the rest of run's self time
            items_ms.append(1e3 * (end - start))
            name = "experiments.run"
        else:
            calls[name] += 1
        self_s[name] += own
        for key, value in (span_counts or {}).items():
            counts[f"{name}.{key}"] += value
        if name == "laplace.normalize" and names.get(parent) == "laplace.random_corpus":
            corpus_normalizes += 1
    out: dict[str, float] = {}
    for metric, *_ in LAYER_METRICS:
        fn, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls[fn]
        elif stat == "self_s":
            out[metric] = self_s[fn]
        elif metric in counts:
            out[metric] = counts[metric]
    drawn = counts["dynamics.evolve.particles"]
    out["dynamics.evolve.retained_ratio"] = (
        counts["dynamics.evolve.retained"] / drawn if drawn else 0.0)
    out["laplace.random_corpus.accept_ratio"] = (
        counts["laplace.random_corpus.accepted"] / corpus_normalizes
        if corpus_normalizes else 0.0)
    out["streams.replica_map.item_p50_ms"] = _percentile(items_ms, 50)
    out["streams.replica_map.item_p99_ms"] = _percentile(items_ms, 99)
    for metric, *_ in LAYER_METRICS:
        out.setdefault(metric, 0)
    return out


def layer_metrics(span_path: str, overhead_ratio: float) -> dict[str, float]:
    """Metrics of a span dump.

    Times are medians over the traced iterations.  Exact counts are those of
    the first traced iteration, which runs the run's own config seed, so they
    repeat identically across runs at the same seed.
    """
    with open(span_path) as fh:
        spans = json.load(fh)
    by_iteration: dict[int, list] = defaultdict(list)
    for span in spans:
        by_iteration[span[2]].append(span)
    per_iteration = [_iteration_metrics(by_iteration[i]) for i in sorted(by_iteration)]
    out = {metric: per_iteration[0][metric] if exact
           else statistics.median(m[metric] for m in per_iteration)
           for metric, _, _, exact, _ in LAYER_METRICS}
    out["trace.overhead_ratio"] = overhead_ratio
    return out
