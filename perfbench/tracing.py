"""Spans around calls into the program's public functions.

``Tracer.install`` replaces each traced function under every name a module
of the package binds it to (``sweep`` calls ``los_gains`` through its own
namespace, ``cli`` calls ``run_scenario`` through its own, and so on), so
calls made inside the program are recorded too. Nothing inside the package
changes; ``uninstall`` restores the original bindings.

A span is ``[name, start, end, parent, label, count]``: ``parent`` is the
index of the enclosing span or -1, ``label`` names the benchmark phase
(``setup`` or an operation number), and ``count`` is a per-call figure
taken from the call's result (entries computed, bytes written, rows read,
elements built). Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

import spherebeam

LAYERS = {
    "geometry": ("golden_spiral_saa", "upa", "ring_saa", "polyhedral_saa", "spiral_curve_saa"),
    "channel": ("los_gains", "los_channel", "channel_energy"),
    "beamforming": ("conjugate_weights", "beam_response", "normalize_pattern", "to_db"),
    "sweep": ("angular_sweep", "multi_focal_overlay", "distance_sweep"),
    "metrics": ("angular_metrics", "focus_metrics", "isotropy_report"),
    "fileio": (
        "write_geometry_csv", "write_angular_csv", "write_distance_csv", "write_meta",
        "write_metrics_csv", "write_focus_csv", "read_meta", "read_angular_csv", "read_distance_csv",
    ),
    "scenario": (
        "parse_scenario", "parse_focal_text", "load_preset", "emit_scenario",
        "geometry_from_fields", "build_geometry", "run_scenario",
    ),
    "cli": ("main",),
}

PARSE = {"scenario.parse_scenario", "scenario.parse_focal_text", "scenario.load_preset"}
READS = {"fileio.read_meta", "fileio.read_angular_csv", "fileio.read_distance_csv"}
MIB = float(1 << 20)


def _count(name: str, args, result):
    """Per-call figure recorded on a span, or None."""
    if name == "channel.los_gains":
        g, visible, _ = result
        return (g.size, int(np.count_nonzero(visible)), g.nbytes)
    if name.startswith("fileio.write_"):
        return os.path.getsize(args[0])
    if name == "fileio.read_angular_csv":
        return int(result[2].size)
    if name == "fileio.read_distance_csv":
        return int(result[1].size)
    if name.startswith("geometry."):
        return int(result.n)
    return None


class Tracer:
    """Records spans while ``label`` is set and the wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.label: str | None = None
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.label is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.label, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            spans[index][5] = _count(name, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [spherebeam] + [sys.modules[f"spherebeam.{layer}"] for layer in LAYERS]
        for layer, names in LAYERS.items():
            home = sys.modules[f"spherebeam.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._bindings.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "label", "count")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)

    def layer_metrics(self, op_labels) -> dict[str, float]:
        """Per-layer figures: per timed operation for ``op_labels``, and
        totals over the ``setup`` phase for parsing and geometry."""
        spans = self.spans
        n_ops = max(len(op_labels), 1)
        ops = set(op_labels)
        covered = defaultdict(float)
        for s in spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]

        def layer(i):
            return spans[i][0].split(".", 1)[0]

        def outermost(i):
            """No enclosing span belongs to the same layer."""
            p = spans[i][3]
            while p >= 0:
                if layer(p) == layer(i):
                    return False
                p = spans[p][3]
            return True

        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        parse_s = build_s = elements = 0
        read_s = write_s = rows = write_bytes = 0
        entries = visible = max_bytes = 0
        for i, (name, start, end, _, label, count) in enumerate(spans):
            lay = layer(i)
            if label == "setup":
                if name in PARSE and outermost(i):
                    parse_s += end - start
                elif lay == "geometry":
                    build_s += end - start
                    elements += count
                continue
            if label not in ops:
                continue
            calls[name] += 1
            self_time[lay] += end - start - covered[i]
            if outermost(i):
                inclusive[lay] += end - start
            if name in READS:
                read_s += end - start
                rows += count or 0
            elif name.startswith("fileio.write_"):
                write_s += end - start
                write_bytes += count
            elif name == "channel.los_gains":
                entries += count[0]
                visible += count[1]
                max_bytes = max(max_bytes, count[2])
        return {
            "channel.calls": calls["channel.los_gains"] / n_ops,
            "channel.entries": entries / n_ops,
            "channel.s": inclusive["channel"] / n_ops,
            "channel.visible_share": visible / entries if entries else 0.0,
            "channel.max_call_mb": max_bytes / MIB,
            "sweep.self_s": self_time["sweep"] / n_ops,
            "beamforming.s": inclusive["beamforming"] / n_ops,
            "metrics.s": inclusive["metrics"] / n_ops,
            "metrics.calls": sum(v for k, v in calls.items() if k.startswith("metrics.")) / n_ops,
            "fileio.write_s": write_s / n_ops,
            "fileio.write_mb": write_bytes / MIB / n_ops,
            "fileio.read_s": read_s / n_ops,
            "fileio.rows_read": rows / n_ops,
            "cli.self_s": self_time["cli"] / n_ops,
            "scenario.self_s": self_time["scenario"] / n_ops,
            "scenario.parse_s": parse_s,
            "geometry.build_s": build_s,
            "geometry.elements": elements,
        }
