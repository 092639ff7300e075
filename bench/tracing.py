"""Span tracing of the toolkit's public functions, from outside the program.

``Tracer.install`` replaces each target function in every ``satpinhole.*``
module that binds it, so calls between modules (``equate`` calling
``build_virtual_grid``) are caught too. A span records name, start, end and
the span it ran under; spans opened in a worker thread with no span of their
own hang under the span the main thread has open. Spans stay in memory until
``write`` puts them out as JSON lines.

A span's self time is its duration minus the part of it that its child spans
cover. On the main thread the duration is wall time. Worker threads (the
tile writers of ``partition``) run side by side under one interpreter lock,
so their spans' wall times overlap and would add up to several times the
time spent; there the duration is the thread's CPU time instead.

With ``memory=True`` the tracer also records each span's tracemalloc peak
above the traced memory at its start. tracemalloc has a single peak counter,
so before any span resets it, the current peak is folded into every open
span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
import tracemalloc
from math import prod

import numpy as np


def _size(*arrays) -> int:
    return int(np.broadcast(*(np.asarray(a) for a in arrays)).size)


def _error_field_points(a, result, children):
    if a["grid"] is not None:
        return a["grid"].n_points
    return sum(c["counts"].get("nodes_kept", 0) for c in children if c["name"] == "equivalence.build_virtual_grid")


# name -> (counts taken from (bound arguments, result, child spans), keeps a memory peak)
TARGETS = {
    "cli.main": ({"calls": lambda a, r, c: 1}, False),
    "raster.load_ascii_grid": ({"values": lambda a, r, c: r.values.size}, True),
    "raster.save_ascii_grid": ({"values": lambda a, r, c: a["raster"].values.size}, True),
    "raster.sample_bilinear": ({"points": lambda a, r, c: _size(a["x"], a["y"])}, False),
    "geodesy.ecef_to_geodetic": ({"points": lambda a, r, c: _size(a["x"], a["y"], a["z"])}, False),
    "geodesy.geodetic_to_enu": ({"points": lambda a, r, c: _size(a["lat"], a["lon"], a["alt"])}, False),
    "synth.render_image": ({"pixels": lambda a, r, c: r.values.size}, True),
    "synth.fit_scene_rpc": ({"calls": lambda a, r, c: 1}, False),
    "rpc.project_forward": ({"points": lambda a, r, c: _size(a["lat"], a["lon"], a["alt"])}, False),
    "rpc.project_inverse": ({"points": lambda a, r, c: _size(a["samp"], a["line"], a["alt"])}, False),
    "equivalence.build_virtual_grid": (
        {
            "calls": lambda a, r, c: 1,
            "nodes_requested": lambda a, r, c: prod(int(d) for d in a["dims"]),
            "nodes_kept": lambda a, r, c: r.n_points,
        },
        False,
    ),
    "equivalence.solve_projection": ({"calls": lambda a, r, c: 1}, False),
    "equivalence.decompose_projection": ({"calls": lambda a, r, c: 1}, False),
    "equivalence.equate": ({"calls": lambda a, r, c: 1}, False),
    "refinement.build_refinement": ({"calls": lambda a, r, c: 1}, False),
    "refinement.resample": ({"pixels": lambda a, r, c: a["image"].values.size}, True),
    "error_analysis.measure_equivalence_error": ({"points": lambda a, r, c: a["grid"].n_points}, False),
    "error_analysis.error_field": ({"points": _error_field_points}, True),
    "tiling.crop_raster": ({"calls": lambda a, r, c: 1}, False),
    "fusion.fuse_views": ({"cells": lambda a, r, c: r.values.size}, True),
    "fusion.dsm_metrics": ({"cells": lambda a, r, c: a["estimate"].values.size}, False),
}


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "satpinhole" or n.startswith("satpinhole.")]


class Tracer:
    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: list[dict] = []
        self._local = threading.local()
        self._main_stack: list[dict] = []
        self._open: list[dict] = []
        self._lock = threading.Lock()
        self._swapped: list[tuple] = []

    def _stack(self) -> list[dict]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _fold_peak(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self._open:
            frame["max"] = max(frame["max"], peak)
        tracemalloc.reset_peak()

    def _wrap(self, name, fn, counters, keeps_peak):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = {"name": name, "parent": parent["id"] if parent else None,
                    "children": [], "counts": {}, "worker": stack is not self._main_stack}
            with self._lock:
                span["id"] = len(self.spans)
                self.spans.append(span)
                if self.memory:
                    self._fold_peak()
                    span["base"] = tracemalloc.get_traced_memory()[0]
                    span["max"] = span["base"]
                    self._open.append(span)
            stack.append(span)
            span["start"] = time.perf_counter()
            cpu = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["cpu"] = time.thread_time() - cpu
                stack.pop()
                with self._lock:
                    if parent is not None:
                        parent["children"].append(span)
                    if self.memory:
                        self._fold_peak()
                        self._open.remove(span)
                        if keeps_peak:
                            span["peak_bytes"] = span["max"] - span["base"]
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            for key, count in counters.items():
                span["counts"][key] = count(bound.arguments, result, span["children"])
            return result

        return wrapper

    def install(self) -> None:
        modules = _package_modules()
        for name, (counters, keeps_peak) in TARGETS.items():
            mod_name, attr = name.split(".")
            original = getattr(sys.modules[f"satpinhole.{mod_name}"], attr)
            wrapper = self._wrap(name, original, counters, keeps_peak)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._swapped.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._swapped):
            setattr(mod, key, original)
        self._swapped.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per target: summed self time and counts, and the largest memory peak."""
        out: dict[str, float] = {}
        for name, (counters, keeps_peak) in TARGETS.items():
            out[f"{name}.self_s"] = 0.0
            for key in counters:
                out[f"{name}.{key}"] = 0
            if keeps_peak:
                out[f"{name}.peak_mb"] = 0.0
        for span in self.spans:
            name = span["name"]
            out[f"{name}.self_s"] += _self_time(span)
            for key, value in span["counts"].items():
                out[f"{name}.{key}"] += value
            if "peak_bytes" in span:
                out[f"{name}.peak_mb"] = max(out[f"{name}.peak_mb"], span["peak_bytes"] / 2**20)
        grid = "equivalence.build_virtual_grid"
        requested = out[f"{grid}.nodes_requested"]
        out[f"{grid}.kept_share"] = out[f"{grid}.nodes_kept"] / requested if requested else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                row = {k: s[k] for k in ("id", "name", "parent", "start", "end", "cpu", "worker", "counts")}
                if "peak_bytes" in s:
                    row["peak_bytes"] = s["peak_bytes"]
                fh.write(json.dumps(row) + "\n")


def _self_time(span) -> float:
    """Span duration minus the union of its children's intervals."""
    if span["worker"]:
        return span["cpu"] - sum(c["cpu"] for c in span["children"])
    start, end = span["start"], span["end"]
    covered = 0.0
    reach = start
    for c in sorted(span["children"], key=lambda c: c["start"]):
        lo, hi = max(c["start"], reach), min(c["end"], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered
