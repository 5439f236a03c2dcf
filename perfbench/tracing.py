"""Span tracing of flowfield's public functions, installed from outside.

The library has no instrumentation of its own, so the traced run wraps the
functions listed in `LAYERS` and rebinds every module attribute that holds
the original function object. Modules bind imported names at import time
(`flowfield.compose.apply`, `flowfield.ops.grid_from_unstructured_data`,
`flowfield.verify.from_matrix`, the `combine_flows` alias in the CLI, ...),
so wrapping only the package attribute would miss every internal call.

Each call records one span (name, start, end, parent span, op id) in
memory. Self time is a span's duration minus the durations of its direct
children. Counter hooks (samples kept, coverage in and out, bytes) run in a
child span named `trace.counters`, so their cost lands in the tracing
overhead and not in the self time of the layer that called them.

Importing this module wraps nothing: only `Tracer.install` does, and
`Tracer.uninstall` restores every binding it changed. The untraced run
never calls it.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

import flowfield
import flowfield.cli
import flowfield.compose
import flowfield.core
import flowfield.demo
import flowfield.fileio
import flowfield.interp
import flowfield.ops
import flowfield.verify
import flowfield.viz

COUNTER_SPAN = "trace.counters"

# Wrapped functions, named <module>.<function> after src/flowfield/<module>.py.
LAYERS = (
    "compose.combine",
    "ops.apply",
    "ops.invert",
    "ops.switch_reference",
    "ops.valid_source",
    "interp.grid_from_unstructured_data",
    "interp.bilinear_sample",
    "interp.masked_bilinear_sample",
    "core.FlowField.__init__",
    "core.from_matrix",
    "verify.run_trials",
    "fileio.save_flow",
    "fileio.load_flow",
    "fileio.read_image",
    "fileio.write_image",
    "viz.render_colorwheel",
    "viz.render_arrows",
    "demo.run_synthetic_demo",
    "cli.main",
)


def _frac(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _mask_count(field) -> tuple[int, int]:
    return int(np.count_nonzero(field.mask)), field.mask.size


# Counter hooks: (args, kwargs, result) -> {counter: int}. Ratios are formed
# from the pooled counts when the run ends.
def _count_splat(args, kwargs, result):
    positions = np.asarray(args[0], dtype=np.float64).reshape(-1, 2)
    h, w = (int(v) for v in (args[2] if len(args) > 2 else kwargs["shape"]))
    x, y = positions[:, 0], positions[:, 1]
    kept = (x >= -1.0) & (x <= w) & (y >= -1.0) & (y <= h)
    return {"samples": len(positions), "kept": int(np.count_nonzero(kept))}


def _count_sample(args, kwargs, result):
    in_bounds = result[1]
    return {"points": in_bounds.size, "in_bounds": int(np.count_nonzero(in_bounds))}


def _count_apply(args, kwargs, result):
    field = args[0]
    data_mask = args[2] if len(args) > 2 else kwargs.get("data_mask")
    mask_in = field.mask if data_mask is None else field.mask & np.asarray(data_mask, dtype=bool)
    mask_out = result[1]
    return {
        "valid_in": int(np.count_nonzero(mask_in)),
        "cells_in": mask_in.size,
        "valid_out": int(np.count_nonzero(mask_out)),
        "cells_out": mask_out.size,
    }


def _count_field_to_field(args, kwargs, result):
    valid_in, cells_in = _mask_count(args[0])
    valid_out, cells_out = _mask_count(result)
    return {"valid_in": valid_in, "cells_in": cells_in, "valid_out": valid_out, "cells_out": cells_out}


def _count_ctor(args, kwargs, result):
    # args[0] is the instance; the constructor copies the float64 vectors and,
    # when a mask is passed, the bool mask.
    vectors = args[1] if len(args) > 1 else kwargs["vectors"]
    mask = args[3] if len(args) > 3 else kwargs.get("mask")
    n_cells = int(np.prod(np.shape(vectors)[:2]))
    return {"bytes_copied": n_cells * 2 * 8 + (n_cells if mask is not None else 0)}


def _count_file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


COUNTERS = {
    "interp.grid_from_unstructured_data": _count_splat,
    "interp.bilinear_sample": _count_sample,
    "ops.apply": _count_apply,
    "ops.invert": _count_field_to_field,
    "ops.switch_reference": _count_field_to_field,
    "core.FlowField.__init__": _count_ctor,
    "fileio.save_flow": _count_file_bytes,
    "fileio.load_flow": _count_file_bytes,
    "fileio.read_image": _count_file_bytes,
    "fileio.write_image": _count_file_bytes,
}

FLOWFIELD_MODULES = (
    flowfield,
    flowfield.cli,
    flowfield.compose,
    flowfield.core,
    flowfield.demo,
    flowfield.fileio,
    flowfield.interp,
    flowfield.ops,
    flowfield.verify,
    flowfield.viz,
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op_id]
        self.counts: dict[str, dict[str, int]] = {}
        self.op_id = -1
        self.active = False  # True only while an op runs, not while it is checked
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                inner = self._open(COUNTER_SPAN)
                try:
                    bucket = self.counts.setdefault(name, {})
                    for key, value in counter(args, kwargs, result).items():
                        bucket[key] = bucket.get(key, 0) + value
                finally:
                    self._close(inner)
            return result

        return wrapper

    def install(self, *callers) -> None:
        """Wrap every layer function and rebind it wherever it is bound.

        `callers` are the benchmark's own modules that imported flowfield
        names; their bindings are rebound too, so the calls they make into
        the library are traced.
        """
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = FLOWFIELD_MODULES + callers
        for layer in LAYERS:
            module_name, _, attr = layer.partition(".")
            if attr == "FlowField.__init__":
                cls = flowfield.core.FlowField
                original = cls.__init__
                cls.__init__ = self._wrap(layer, original)
                self._restore.append((cls, "__init__", original))
                continue
            original = getattr(getattr(flowfield, module_name), attr)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, tuple[int, float]] = {}
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            calls, seconds = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, seconds + (end - start) - children)
        return totals

    def layer_metrics(self, traced_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)} for every layer."""
        totals = self.self_times()
        metrics: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            calls, seconds = totals.get(layer, (0, 0.0))
            metrics[f"{layer}.calls"] = (calls, "count")
            metrics[f"{layer}.self_ms"] = (seconds * 1e3, "ms")
            metrics[f"{layer}.self_frac"] = (_frac(seconds, traced_wall_s), "1")
        def count(layer: str, key: str) -> int:
            return self.counts.get(layer, {}).get(key, 0)

        splat = "interp.grid_from_unstructured_data"
        metrics[f"{splat}.samples"] = (count(splat, "samples"), "count")
        metrics[f"{splat}.kept_frac"] = (_frac(count(splat, "kept"), count(splat, "samples")), "1")
        sample = "interp.bilinear_sample"
        metrics[f"{sample}.points"] = (count(sample, "points"), "count")
        metrics[f"{sample}.in_bounds_frac"] = (
            _frac(count(sample, "in_bounds"), count(sample, "points")),
            "1",
        )
        for layer in ("ops.apply", "ops.invert", "ops.switch_reference"):
            metrics[f"{layer}.valid_frac_in"] = (
                _frac(count(layer, "valid_in"), count(layer, "cells_in")),
                "1",
            )
            metrics[f"{layer}.valid_frac_out"] = (
                _frac(count(layer, "valid_out"), count(layer, "cells_out")),
                "1",
            )
        ctor = "core.FlowField.__init__"
        metrics[f"{ctor}.bytes_copied"] = (count(ctor, "bytes_copied"), "B")
        for layer in ("fileio.save_flow", "fileio.load_flow", "fileio.read_image", "fileio.write_image"):
            metrics[f"{layer}.bytes"] = (count(layer, "bytes"), "B")
        return metrics
