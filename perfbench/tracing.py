"""Spans around the public functions of each tracechan layer.

The benchmark measures from outside the program: ``Tracer.install`` replaces
every public function of the layer modules (and a few hot methods) with a
wrapper that records a span, then rebinds that wrapper under every name that
any ``tracechan`` module imported it as. ``Tracer.uninstall`` puts the
originals back, so untraced passes run the program untouched.

A span has a name, a layer, a start, an end and the index of its parent
span. A layer's self time is the summed duration of its spans minus the time
covered by their direct children. Some wrappers also inspect arguments or
results (shapes, record counts, near-tied sweep winners); that inspection
runs with the span clock paused, so it is not charged to any span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import statistics
import sys
import time
from collections import Counter

__all__ = ["LAYERS", "PER_LAYER", "ROOT_LAYER", "Span", "Tracer", "layer_metrics"]

LAYERS = ("scenario", "raytrace", "traces", "arrays", "channel", "beams", "link", "trajectory")
# Methods traced besides the module-level functions: (layer, class, method).
METHODS = (("trajectory", "Trajectory", "state_at"), ("traces", "TraceSet", "group"))
NEAR_TIE_RTOL = 1e-12
ROOT_LAYER = "cli"


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "child", "info")

    def __init__(self, name: str, layer: str, parent: int):
        self.name = name
        self.layer = layer
        self.parent = parent  # index into Tracer.spans, -1 for a root
        self.start = self.end = self.child = 0.0
        self.info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _generate_trace_info(args, kwargs, result) -> dict:
    scenario = _arg(args, kwargs, 0, "scenario")
    n = len(scenario.environment.rectangles)
    order = scenario.max_reflection_order
    kinds = Counter(r.path_type.name for r in result.records)
    return {
        "face_sequences": sum(n * (n - 1) ** (k - 1) for k in range(1, order + 1)),
        "snapshots": len(scenario.times),
        "los": kinds["LOS"], "reflection": kinds["REFLECTION"], "diffraction": kinds["DIFFRACTION"],
    }


def _sweep_info(args, kwargs, result) -> dict:
    import numpy as np

    channel = _arg(args, kwargs, 0, "channel")
    n_tx_b = len(_arg(args, kwargs, 1, "tx_codebook"))
    n_rx_b = len(_arg(args, kwargs, 2, "rx_codebook"))
    k, n_rx, n_tx = channel.matrices.shape
    # the two contraction orders sweep_power_table chooses between
    right_first = n_rx * n_tx * n_tx_b + n_rx_b * n_rx * n_tx_b
    left_first = n_rx_b * n_rx * n_tx + n_rx_b * n_tx * n_tx_b
    flat = np.asarray(result).ravel()
    runner_up, best = np.partition(flat, flat.size - 2)[-2:] if flat.size > 1 else (0.0, flat.max())
    return {
        "pairs": n_tx_b * n_rx_b,
        "macs": k * (right_first if right_first <= left_first else left_first),
        "near_tie": bool(best > 0 and best - runner_up <= NEAR_TIE_RTOL * best),
    }


def _build_info(args, kwargs, result) -> dict:
    tx_array = _arg(args, kwargs, 1, "tx_array")
    rx_array = _arg(args, kwargs, 2, "rx_array")
    grid = _arg(args, kwargs, 5, "grid")
    return {
        "paths": len(_arg(args, kwargs, 0, "records")),
        "bytes": grid.n_subbands * rx_array.n_elements * tx_array.n_elements * 16,
    }


def _simulate_info(args, kwargs, result) -> dict:
    return {"rows": len(result), "outages": sum(1 for m in result if m.mcs is None)}


def _parse_info(args, kwargs, result) -> dict:
    return {"records": len(result), "bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _write_info(args, kwargs, result) -> dict:
    return {
        "records": len(_arg(args, kwargs, 0, "trace")),
        "bytes": os.path.getsize(_arg(args, kwargs, 1, "path")),
    }


INFO = {
    "raytrace.generate_trace": _generate_trace_info,
    "beams.sweep_power_table": _sweep_info,
    "channel.build_channel_matrices": _build_info,
    "link.run_simulation": _simulate_info,
    "traces.parse_trace": _parse_info,
    "traces.write_trace": _write_info,
}


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._paused = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self.uninspected: set[str] = set()

    def _now(self) -> float:
        return time.perf_counter() - self._paused

    def _open(self, name: str, layer: str) -> Span:
        span = Span(name, layer, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = self._now()
        return span

    def _close(self, span: Span) -> None:
        span.end = self._now()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child += span.end - span.start

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span; used for the root span."""
        span = self._open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, fn, name: str, layer: str):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                paused_at = time.perf_counter()
                try:
                    span.info = info(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError):
                    self.uninspected.add(name)  # signature or result type changed
                self._paused += time.perf_counter() - paused_at
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions and rebind them everywhere."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"tracechan.{layer}")
            except ModuleNotFoundError:
                continue  # reported as a layer with zero calls
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "tracechan" or mod_name.startswith("tracechan.")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])
        for layer, cls_name, method in METHODS:
            module = sys.modules.get(f"tracechan.{layer}")
            original = vars(getattr(module, cls_name, object)).get(method)
            if original is None:
                continue  # reported as zero calls
            cls = getattr(module, cls_name)
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(original, f"{layer}.{cls_name}.{method}", layer))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# name -> unit, in print order. Time metrics name the span they sum, so a
# wrapper that a refactor bypasses is flagged as zero calls, not zero time.
PER_LAYER = {
    "raytrace.generate_s": "s",
    "raytrace.ms_per_snapshot": "ms",
    "raytrace.face_sequences": "count",
    "raytrace.paths.los": "count",
    "raytrace.paths.reflection": "count",
    "raytrace.paths.diffraction": "count",
    "raytrace.paths_per_sequence": "ratio",
    "beams.sweep_calls": "count",
    "beams.sweep_s": "s",
    "beams.sweep_ms.p50": "ms",
    "beams.sweep_ms.p95": "ms",
    "beams.pairs_per_s": "1/s",
    "beams.macs_per_sweep": "count",
    "beams.near_tie_sweeps": "count",
    "beams.codebook_s": "s",
    "arrays.steering_calls": "count",
    "arrays.steering_s": "s",
    "scenario.load_s": "s",
    "scenario.build_setup_s": "s",
    "channel.build_calls": "count",
    "channel.build_s": "s",
    "channel.builds_per_snapshot": "ratio",
    "channel.paths_per_build": "count",
    "channel.bytes_per_build": "B",
    "channel.beamformed_calls": "count",
    "channel.beamformed_s": "s",
    "traces.write_s": "s",
    "traces.parse_s": "s",
    "traces.records": "count",
    "traces.bytes": "B",
    "link.simulate_s": "s",
    "link.self_s": "s",
    "link.training_sweeps": "count",
    "link.outage_rows": "count",
    "link.rows_per_grid_snapshot": "ratio",
    "link.csv_s": "s",
    "trajectory.state_at_calls": "count",
    **{f"layer.{layer}.calls": "count" for layer in LAYERS},
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "cli.self_s": "s",
    "trace_overhead_ratio": "ratio",
}

# time metric -> span whose calls back it
TIME_SPANS = {
    "raytrace.generate_s": "raytrace.generate_trace",
    "raytrace.ms_per_snapshot": "raytrace.generate_trace",
    "beams.sweep_s": "beams.sweep_power_table",
    "beams.codebook_s": "beams.generate_codebook",
    "arrays.steering_s": "arrays.steering_vector",
    "scenario.load_s": "scenario.load_config",
    "scenario.build_setup_s": "scenario.build_setup",
    "channel.build_s": "channel.build_channel_matrices",
    "channel.beamformed_s": "channel.beamformed_power",
    "traces.write_s": "traces.write_trace",
    "traces.parse_s": "traces.parse_trace",
    "link.simulate_s": "link.run_simulation",
    "link.self_s": "link.run_simulation",
    "link.csv_s": "link.metrics_to_csv",
}


def _pass_metrics(spans: list[Span], grid_snapshots: int) -> dict[str, float]:
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def info_sum(name, key):
        return sum(s.info[key] for s in by_name.get(name, ()) if s.info)

    def info_mean(name, key):
        n = calls(name)
        return info_sum(name, key) / n if n else 0.0

    def under(span, ancestor):
        while span.parent >= 0:
            span = spans[span.parent]
            if span.name == ancestor:
                return True
        return False

    gen = by_name.get("raytrace.generate_trace", ())
    face_sequences = gen[0].info["face_sequences"] if gen and gen[0].info else 0
    traced_snapshots = info_sum("raytrace.generate_trace", "snapshots")
    reflections = info_sum("raytrace.generate_trace", "reflection")
    sweep_s = total("beams.sweep_power_table")
    out = {
        "raytrace.generate_s": total("raytrace.generate_trace"),
        "raytrace.ms_per_snapshot": (
            1e3 * total("raytrace.generate_trace") / traced_snapshots if traced_snapshots else 0.0),
        "raytrace.face_sequences": face_sequences,
        "raytrace.paths.los": info_sum("raytrace.generate_trace", "los"),
        "raytrace.paths.reflection": reflections,
        "raytrace.paths.diffraction": info_sum("raytrace.generate_trace", "diffraction"),
        "raytrace.paths_per_sequence": (
            reflections / (face_sequences * traced_snapshots) if face_sequences else 0.0),
        "beams.sweep_calls": calls("beams.sweep_power_table"),
        "beams.sweep_s": sweep_s,
        "beams.pairs_per_s": info_sum("beams.sweep_power_table", "pairs") / sweep_s if sweep_s else 0.0,
        "beams.macs_per_sweep": info_mean("beams.sweep_power_table", "macs"),
        "beams.near_tie_sweeps": info_sum("beams.sweep_power_table", "near_tie"),
        "beams.codebook_s": total("beams.generate_codebook"),
        "arrays.steering_calls": calls("arrays.steering_vector"),
        "arrays.steering_s": total("arrays.steering_vector"),
        "scenario.load_s": total("scenario.load_config"),
        "scenario.build_setup_s": total("scenario.build_setup"),
        "channel.build_calls": calls("channel.build_channel_matrices"),
        "channel.build_s": total("channel.build_channel_matrices"),
        "channel.builds_per_snapshot": calls("channel.build_channel_matrices") / grid_snapshots,
        "channel.paths_per_build": info_mean("channel.build_channel_matrices", "paths"),
        "channel.bytes_per_build": info_mean("channel.build_channel_matrices", "bytes"),
        "channel.beamformed_calls": calls("channel.beamformed_power"),
        "channel.beamformed_s": total("channel.beamformed_power"),
        "traces.write_s": total("traces.write_trace"),
        "traces.parse_s": total("traces.parse_trace"),
        "traces.records": info_sum("traces.parse_trace", "records") + info_sum("traces.write_trace", "records"),
        "traces.bytes": info_sum("traces.parse_trace", "bytes") + info_sum("traces.write_trace", "bytes"),
        "link.simulate_s": total("link.run_simulation"),
        "link.self_s": sum(s.self_time for s in by_name.get("link.run_simulation", ())),
        "link.training_sweeps": sum(
            1 for s in by_name.get("beams.ideal_beam_sweep", ()) if under(s, "link.run_simulation")),
        "link.outage_rows": info_sum("link.run_simulation", "outages"),
        "link.rows_per_grid_snapshot": info_sum("link.run_simulation", "rows") / grid_snapshots,
        "link.csv_s": total("link.metrics_to_csv"),
        "trajectory.state_at_calls": calls("trajectory.Trajectory.state_at"),
    }
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        out[f"layer.{layer}.calls"] = len(mine)
        out[f"layer.{layer}.self_s"] = sum(s.self_time for s in mine)
    out["cli.self_s"] = sum(s.self_time for s in spans if s.layer == ROOT_LAYER)
    return out


def layer_metrics(
    passes: list[list[Span]], grid_snapshots: int, overhead_ratio: float, uninspected=()
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics over traced passes, and the zero-call flags.

    Each metric is the median over passes of its per-pass value, except the
    sweep percentiles, which pool every sweep of every pass.
    """
    per_pass = [_pass_metrics(spans, grid_snapshots) for spans in passes]
    out = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    sweeps = sorted(
        1e3 * s.duration for spans in passes for s in spans if s.name == "beams.sweep_power_table")
    out["beams.sweep_ms.p50"] = _percentile(sweeps, 0.50)
    out["beams.sweep_ms.p95"] = _percentile(sweeps, 0.95)
    out["trace_overhead_ratio"] = overhead_ratio
    names = {s.name for spans in passes for s in spans}
    flags = [f"layer {layer}: 0 calls" for layer in LAYERS if out[f"layer.{layer}.calls"] == 0]
    flags += [f"{metric}: 0 calls to {span}" for metric, span in TIME_SPANS.items() if span not in names]
    flags += [f"{name}: arguments or result not inspectable, its counts read 0" for name in sorted(uninspected)]
    return {name: out[name] for name in PER_LAYER}, flags


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]
