"""In-process span tracing of closeeval's layers, driven from outside.

A layer is a closeeval module.  The tracer wraps every public function a
layer defines, plus a few methods that other layers call, and rebinds the
wrapper under every name in every ``closeeval.*`` namespace that binds the
original, so calls between modules (and within one) record a span.  Spans
are kept in memory as [layer, name, parent, start, end] and written out
once the study has finished.  A few boundaries also count work (points,
nodes, rows) so that ratios are measured where the work happens.

The program is single-threaded with no queues, so no layer waits on
another and the tracer records no wait time.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "harness", "geometry2d", "bie2d", "closeeval2d",
          "geometry3d", "spectral", "bie3d", "closeeval3d", "hgscatter")

# Methods that other layers call, traced alongside the public functions.
METHODS = {
    "closeeval2d": ("CloseEvalRequest2D.__post_init__",),
    "closeeval3d": ("CloseEvalRequest3D.__post_init__",),
    "bie3d": ("Density3D.load", "Density3D.save"),
}

COUNTERS = ("geometry2d.inside_tests", "geometry2d.polygon_edges",
            "closeeval2d.requests", "closeeval3d.requests",
            "spectral.basis_values", "spectral.rule_nodes_built",
            "geometry3d.frame_nodes", "bie3d.galerkin_rows",
            "harness.density_cache_hits", "harness.density_cache_misses",
            "hgscatter.quadrature_nodes", "harness.rows_written")


def _size(*arrays) -> int:
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


# Work counted at a traced call: span name -> f(bound arguments, name of
# the calling span) giving the amount to add to each counter.
COUNTS = {
    "geometry2d.point_inside": lambda a, caller: {
        "geometry2d.inside_tests": 1,
        "geometry2d.polygon_edges": int(a["samples"])},
    "closeeval2d.CloseEvalRequest2D.__post_init__": lambda a, caller: {
        "closeeval2d.requests": 1},
    "closeeval3d.CloseEvalRequest3D.__post_init__": lambda a, caller: {
        "closeeval3d.requests": 1},
    "spectral.sph_basis_matrix": lambda a, caller: {
        "spectral.basis_values": int(np.size(a["theta"]))*a["N"]**2},
    "spectral.roots_legendre": lambda a, caller: {
        "spectral.rule_nodes_built": int(a["n"])},
    "geometry3d.rotated_frame": lambda a, caller: {
        "geometry3d.frame_nodes": _size(a["s"], a["t"])},
    # polar x azimuth nodes of each direct application of the HG operator
    "geometry3d.rotated_angles": lambda a, caller: {
        "hgscatter.quadrature_nodes": _size(a["s"], a["t"])
        if caller == "hgscatter.apply_L_direct" else 0},
    "bie3d.subtracted_weights": lambda a, caller: {"bie3d.galerkin_rows": 1},
    "bie3d.Density3D.load": lambda a, caller: {
        "harness.density_cache_hits": 1},
    "bie3d.solve_density3d": lambda a, caller: {
        "harness.density_cache_misses": 1},
    "harness.write_outputs": lambda a, caller: {
        "harness.rows_written": len(a["result"].rows)},
}


def self_times(spans) -> list:
    """Self time of each span: its duration minus the durations of its
    direct children.  spans holds [layer, name, parent, start, end] with
    parent the index of the enclosing span, or -1."""
    out = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[2] >= 0:
            out[s[2]] -= s[4] - s[3]
    return out


class Tracer:
    """Records spans and counts for calls into closeeval's layers."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patched = []  # (namespace, attribute, original)
        self._cache_before = None

    # -- recording ---------------------------------------------------------

    def wrap(self, layer: str, name: str, fn):
        """fn wrapped so that each call records a span named name."""
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTS.get(name)
        sig = inspect.signature(fn) if count else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if count:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts.update(count(bound.arguments,
                                    spans[parent][1] if stack else ""))
            span = [layer, name, parent, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        return traced

    # -- installing --------------------------------------------------------

    def _rebind(self, original, wrapped) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "closeeval" and not modname.startswith("closeeval."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer's public functions and the listed methods.

        A listed method, scipy's rule builder or the rule cache that a
        later closeeval no longer has is skipped, so its counter reads 0
        instead of the run failing.
        """
        for layer in LAYERS:
            module = importlib.import_module(f"closeeval.{layer}")
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                self._rebind(value, self.wrap(layer, f"{layer}.{attr}", value))
            for path in METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name, None)
                raw = cls.__dict__.get(meth) if cls is not None else None
                if raw is None:
                    continue
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                wrapped = self.wrap(layer, f"{layer}.{path}", fn)
                self._patched.append((cls, meth, raw))
                setattr(cls, meth, classmethod(wrapped) if is_cm else wrapped)
        spectral = sys.modules["closeeval.spectral"]
        if hasattr(spectral, "roots_legendre"):
            self._rebind(spectral.roots_legendre,
                         self.wrap("spectral", "spectral.roots_legendre",
                                   spectral.roots_legendre))
        cache = getattr(spectral, "_gl_cached", None)
        if hasattr(cache, "cache_info"):
            self._cache_before = cache.cache_info()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reporting ---------------------------------------------------------

    def rule_cache_hit_ratio(self) -> float:
        """Hits over lookups of spectral's Gauss-Legendre rule cache since
        install(), read from the cache's own statistics."""
        cache = getattr(sys.modules.get("closeeval.spectral"), "_gl_cached",
                        None)
        if self._cache_before is None or not hasattr(cache, "cache_info"):
            return 0.0
        now = cache.cache_info()
        hits = now.hits - self._cache_before.hits
        lookups = hits + now.misses - self._cache_before.misses
        return hits/lookups if lookups else 0.0

    def layer_metrics(self) -> dict:
        """Per-layer calls and self time, plus every counter."""
        selfs = self_times(self.spans)
        out = {f"{layer}.{kind}": 0 for layer in LAYERS
               for kind in ("calls", "self_s")}
        for span, own in zip(self.spans, selfs):
            out[f"{span[0]}.calls"] += 1
            out[f"{span[0]}.self_s"] += own
        for name in COUNTERS:
            out[name] = int(self.counts[name])
        out["harness.write_s"] = sum(s[4] - s[3] for s in self.spans
                                     if s[1] == "harness.write_outputs")
        out["spectral.rule_cache_hit_ratio"] = self.rule_cache_hit_ratio()
        return out

    def write(self, path: str) -> None:
        """Write the spans as CSV: index, parent, layer, name, start, end,
        self time (seconds, relative to the first span)."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "parent", "layer", "name", "start_s",
                          "end_s", "self_s"])
            for i, (span, own) in enumerate(zip(self.spans,
                                                self_times(self.spans))):
                out.writerow([i, span[2], span[0], span[1],
                              f"{span[3] - t0:.9f}", f"{span[4] - t0:.9f}",
                              f"{own:.9f}"])

