"""Spans and counters recorded around rydex's layers from outside the package.

``install`` replaces every public function of each layer module (the
package modules ``atoms`` .. ``cli``) with a wrapper that records a
span, in every rydex module that holds a reference to it, so calls made
through imported names (``rydex.harness.channel_c6``) and calls inside a
module are both seen. Two private harness stages get spans of their own.
Counters come from probes outside the spans: ``mpmath.angerj`` calls,
``numpy.linalg.eigh`` calls and batch sizes, and the radial element
cache's ``cache_info``. A probe whose target no longer exists is
reported as null with a reason, never as zero.

Spans are folded into (parent, name) aggregates as they close, so memory
stays bounded however many calls a run makes. A span's self time is its
duration minus the durations of its direct children; a layer's self time
is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import logging
import time

TRACE_MARK = "perfbench-trace "  # prefix of the trace line a CLI shim writes to stderr

LAYERS = ("atoms", "radial", "vdw", "dynamics", "protocols", "harness", "cli")

# private stages timed on their own: attribute -> span name
PRIVATE_STAGES = {
    "harness": {
        "_sample_omegas": "harness.sampler",
        "_batched_pulse3_fidelities": "harness.pulse3_batch",
    },
}

SERIALIZERS = frozenset(
    f"harness.{name}"
    for name in (
        "to_jsonable",
        "dumps_json",
        "write_json",
        "rows_to_csv",
        "write_csv",
        "histogram_payload",
        "histogram_rows",
    )
)


class RecordCounter(logging.Handler):
    """Counts a logger's records instead of letting them reach stderr."""

    def __init__(self, logger_name: str) -> None:
        super().__init__()
        self.count = 0
        self.logger = logging.getLogger(logger_name)
        self.logger.addHandler(self)

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1

    def close(self) -> None:
        self.logger.removeHandler(self)
        super().close()


class Tracer:
    """Span aggregates, counters and the reasons for absent probes."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, child_seconds]
        self.edges: dict[tuple[str | None, str], list] = {}  # -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self.missing: dict[str, str] = {}
        self._cache_start = None
        self._radial = None

    def span(self, name: str, fn):
        stack, edges, clock = self.stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent = None
                if stack:
                    parent = stack[-1][0]
                    stack[-1][1] += dur
                rec = edges.get((parent, name))
                if rec is None:
                    edges[(parent, name)] = [1, dur, dur - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[1]

        return wrapper

    def _count(self, key: str, fn, size=None):
        counters = self.counters
        counters[key] = 0
        if size is not None:
            counters[size[0]] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            if size is not None:
                counters[size[0]] += size[1](args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        import mpmath
        import numpy

        import rydex

        modules = {layer: importlib.import_module(f"rydex.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    replaced[obj] = self.span(f"{layer}.{attr}", obj)
            for attr, name in PRIVATE_STAGES.get(layer, {}).items():
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj):
                    replaced[obj] = self.span(name, obj)
                else:
                    self.missing[f"{name}_s"] = f"rydex.{layer}.{attr} no longer exists"
        for mod in (rydex, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

        radial = modules["radial"]
        if getattr(radial, "mpmath", None) is mpmath:
            mpmath.angerj = self._count("radial.anger.calls", mpmath.angerj)
        else:
            self.missing["radial.anger.calls"] = "rydex.radial no longer calls mpmath.angerj"
        kaulakys = getattr(radial, "_kaulakys", None)
        if hasattr(kaulakys, "cache_info"):
            self._radial = kaulakys
            self._cache_start = kaulakys.cache_info()
        else:
            reason = "rydex.radial._kaulakys has no cache_info"
            self.missing["radial.kaulakys.hits"] = reason
            self.missing["radial.kaulakys.misses"] = reason

        def matrices(args, kwargs):
            a = args[0] if args else kwargs["a"]
            shape = numpy.shape(a)[:-2]
            return int(numpy.prod(shape)) if shape else 1

        numpy.linalg.eigh = self._count(
            "dynamics.eigh.calls", numpy.linalg.eigh, ("dynamics.eigh.matrices", matrices)
        )

    def snapshot(self) -> dict:
        """The aggregates as plain JSON data."""
        counters = dict(self.counters)
        if self._radial is not None:
            info = self._radial.cache_info()
            counters["radial.kaulakys.hits"] = info.hits - self._cache_start.hits
            counters["radial.kaulakys.misses"] = info.misses - self._cache_start.misses
        return {
            "edges": [[p, n, *rec] for (p, n), rec in self.edges.items()],
            "counters": counters,
            "missing": dict(self.missing),
        }


# per-layer metric -> unit; the order is the order of the report
LAYER_METRICS = {
    "atoms.level_energy.calls": "count",
    "atoms.self_s": "s",
    "radial.rrr_coefficient.calls": "count",
    "radial.anger.calls": "count",
    "radial.kaulakys.hits": "count",
    "radial.kaulakys.misses": "count",
    "radial.self_s": "s",
    "vdw.channel_c6.calls": "count",
    "vdw.interaction_matrix.calls": "count",
    "vdw.critical_radius.calls": "count",
    "vdw.near_resonant.excluded": "count",
    "vdw.self_s": "s",
    "dynamics.eigh.calls": "count",
    "dynamics.eigh.matrices": "count",
    "dynamics.propagate.calls": "count",
    "dynamics.self_s": "s",
    "protocols.pairwise_entangle.calls": "count",
    "protocols.optimize.evals": "count",
    "protocols.self_s": "s",
    "harness.sampler_s": "s",
    "harness.pulse3_batch_s": "s",
    "harness.serialize_s": "s",
    "harness.self_s": "s",
    "cli.self_s": "s",
    "cli.warnings": "count",
    "trace.overhead": "ratio",
}


def layer_metrics(snapshots: list[dict], extra: dict) -> dict:
    """Per-layer metrics of one or more traced processes.

    ``extra`` holds the counts kept outside the tracer (logger records,
    captured warnings) and ``trace.overhead``.
    """
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    serialize, optimize_evals = 0.0, 0
    counters: dict[str, int] = {}
    missing: dict[str, str] = {}
    for snap in snapshots:
        for parent, name, n, total, self_s in snap["edges"]:
            calls[name] = calls.get(name, 0) + n
            inclusive[name] = inclusive.get(name, 0.0) + total
            layer = name.split(".", 1)[0]
            if layer in self_by_layer:
                self_by_layer[layer] += self_s
            if name in SERIALIZERS and parent not in SERIALIZERS:
                serialize += total
            if parent == "protocols.optimize_pairwise" and name == "protocols.pairwise_entangle":
                optimize_evals += n
        for key, value in snap["counters"].items():
            counters[key] = counters.get(key, 0) + value
        missing.update(snap["missing"])

    values = {
        "atoms.level_energy.calls": calls.get("atoms.level_energy", 0),
        "radial.rrr_coefficient.calls": calls.get("radial.rrr_coefficient", 0),
        "vdw.channel_c6.calls": calls.get("vdw.channel_c6", 0),
        "vdw.interaction_matrix.calls": calls.get("vdw.interaction_matrix", 0),
        "vdw.critical_radius.calls": calls.get("vdw.critical_radius", 0),
        "dynamics.propagate.calls": calls.get("dynamics.propagate", 0),
        "protocols.pairwise_entangle.calls": calls.get("protocols.pairwise_entangle", 0),
        "protocols.optimize.evals": optimize_evals,
        "harness.sampler_s": inclusive.get("harness.sampler", 0.0),
        "harness.pulse3_batch_s": inclusive.get("harness.pulse3_batch", 0.0),
        "harness.serialize_s": serialize,
    }
    values.update({f"{layer}.self_s": s for layer, s in self_by_layer.items()})
    values.update(counters)
    values.update(extra)
    out = {}
    for name, unit in LAYER_METRICS.items():
        if name in missing:
            out[name] = {"value": None, "unit": unit, "reason": missing[name]}
        else:
            out[name] = {"value": values[name], "unit": unit}
    return out
