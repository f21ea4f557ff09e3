"""Span recorder for the traced run, fed by wrappers at layer boundaries.

The wrappers replace each layer's public functions at the names their
callers import (psm.cli.chamfer_distance, psm.meanshape.ordered_map, ...),
so the program itself is unchanged. A span is (id, parent id, name, start,
end); the parent is the span open on the calling thread, and work that
ordered_map sends to pool threads is parented to the ordered_map span, so a
layer's self time (its span minus the union of its children) stays right
when children run in parallel. Spans and counts stay in memory until the
run ends.
"""

import functools
import importlib
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def current(self):
        return getattr(self._local, "span", 0)

    def set_current(self, sid):
        self._local.span = sid

    @contextmanager
    def span(self, name):
        sid = next(self._ids)
        parent = self.current()
        self._local.span = sid
        t0 = perf_counter()
        try:
            yield sid
        finally:
            t1 = perf_counter()
            self._local.span = parent
            self.spans.append((sid, parent, name, t0, t1))

    def add(self, key, n):
        with self._lock:
            self.counts[key] += n

    def peak(self, key, v):
        with self._lock:
            self.peaks[key] = max(self.peaks[key], float(v))

    def durations(self):
        """(total seconds, self seconds) per span name."""
        children = defaultdict(list)
        for sid, parent, _, t0, t1 in self.spans:
            children[parent].append((t0, t1))
        total = defaultdict(float)
        own = defaultdict(float)
        for sid, _, name, t0, t1 in self.spans:
            total[name] += t1 - t0
            own[name] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        return total, own


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    length = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            length += b - a
            end = b
    return length


def _wrap(rec, orig, name, count=None):
    @functools.wraps(orig)
    def traced(*args, **kwargs):
        if not rec.active:
            return orig(*args, **kwargs)
        with rec.span(name(args, kwargs) if callable(name) else name):
            result = orig(*args, **kwargs)
        if count is not None:
            count(rec, args, kwargs, result)
        return result
    return traced


def _wrap_ordered_map(rec, orig):
    @functools.wraps(orig)
    def ordered_map(fn, items, threads=1):
        if not rec.active:
            return orig(fn, items, threads)
        with rec.span("core.ordered_map") as sid:
            def under(x):
                prev = rec.current()
                rec.set_current(sid)
                try:
                    return fn(x)
                finally:
                    rec.set_current(prev)
            return orig(under, items, threads)
    return ordered_map


def _chamfer_name(args, kwargs):
    # every caller passes backend by keyword; the library default is kdtree
    return "chamfer." + kwargs.get("backend", "kdtree")


def _chamfer_count(rec, args, kwargs, result):
    n, m = len(args[0]), len(args[1])
    if kwargs.get("backend", "kdtree") == "kdtree":
        rec.add("chamfer.kdtree_queries", n + m)
    else:
        rec.add("chamfer.brute_pair_evals", 2 * n * m)


def _exact_count(rec, args, kwargs, result):
    rec.add("emd.exact_calls", 1)
    rec.peak("emd.cost_matrix_bytes", 8 * len(args[0]) * len(args[1]))


def _auction_count(rec, args, kwargs, result):
    rec.add("emd.auction_calls", 1)
    rec.peak("emd.auction_eps_max", result[2])
    rec.peak("emd.cost_matrix_bytes", 8 * len(args[0]) * len(args[1]))


def _counter(key, size):
    def count(rec, args, kwargs, result):
        rec.add(key, size(args, result))
    return count


_READ_XYZ = _counter("io.points_read", lambda args, res: len(res))
_WRITE_XYZ = _counter("io.points_written", lambda args, res: len(args[0]))
_READ_GRID = _counter("io.grid_values_read", lambda args, res: res.values.size)
_FPS = _counter("sampling.fps_distance_evals",
                lambda args, res: len(args[0]) * int(args[1]))
_SPLAT = _counter("voxel.points_splatted", lambda args, res: len(args[0]))

# (module, attribute its callers look up, span name, count hook)
WRAPPED = [
    ("psm.cli", "main", "cli", None),
    ("psm.io", "read_xyz", "io.read_xyz", _READ_XYZ),
    ("psm.io", "write_xyz", "io.write_xyz", _WRITE_XYZ),
    ("psm.io", "read_grid", "io.read_grid", _READ_GRID),
    ("psm.io", "write_grid", "io.write_grid", None),
    ("psm.cli", "farthest_point_sample", "sampling.fps", _FPS),
    ("psm.cli", "chamfer_distance", _chamfer_name, _chamfer_count),
    ("psm.losses", "chamfer_distance", _chamfer_name, _chamfer_count),
    ("psm.meanshape", "chamfer_distance", _chamfer_name, _chamfer_count),
    ("psm.cli", "emd_exact", "emd.exact", _exact_count),
    ("psm.cli", "emd_auction", "emd.auction", _auction_count),
    ("psm.emd", "emd_exact", "emd.exact", _exact_count),
    ("psm.emd", "emd_auction", "emd.auction", _auction_count),
    ("psm.cli", "splat", "voxel.splat", _SPLAT),
    ("psm.cli", "binarize", "voxel.binarize", None),
    ("psm.cli", "iou", "voxel.iou", None),
    ("psm.cli", "mon_loss", "losses.mon", None),
    ("psm.meanshape", "draw_shape", "meanshape.draw_shape", None),
    ("psm.meanshape", "optimize_mean_shape", "meanshape", None),
]
ORDERED_MAP_CALLERS = ["psm.losses", "psm.meanshape"]


@contextmanager
def installed(rec):
    """Wrap every layer boundary for the duration of the block."""
    saved = []
    try:
        for mod_name, attr, name, count in WRAPPED:
            mod = importlib.import_module(mod_name)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, _wrap(rec, getattr(mod, attr), name, count))
        for mod_name in ORDERED_MAP_CALLERS:
            mod = importlib.import_module(mod_name)
            saved.append((mod, "ordered_map", mod.ordered_map))
            mod.ordered_map = _wrap_ordered_map(rec, mod.ordered_map)
        yield rec
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


# per-layer metric -> (kind, key, unit); "total" and "self" are span
# seconds reported in ms, "count" a counter, "peak" a maximum over calls
LAYER_METRICS = {
    "cli.self_ms": ("self", "cli", "ms"),
    "io.read_xyz_ms": ("total", "io.read_xyz", "ms"),
    "io.points_read": ("count", "io.points_read", "count"),
    "io.write_xyz_ms": ("total", "io.write_xyz", "ms"),
    "io.points_written": ("count", "io.points_written", "count"),
    "io.read_grid_ms": ("total", "io.read_grid", "ms"),
    "io.grid_values_read": ("count", "io.grid_values_read", "count"),
    "io.write_grid_ms": ("total", "io.write_grid", "ms"),
    "sampling.fps_ms": ("total", "sampling.fps", "ms"),
    "sampling.fps_distance_evals": ("count", "sampling.fps_distance_evals", "count"),
    "chamfer.kdtree_ms": ("total", "chamfer.kdtree", "ms"),
    "chamfer.kdtree_queries": ("count", "chamfer.kdtree_queries", "count"),
    "chamfer.brute_ms": ("total", "chamfer.brute", "ms"),
    "chamfer.brute_pair_evals": ("count", "chamfer.brute_pair_evals", "count"),
    "emd.exact_ms": ("total", "emd.exact", "ms"),
    "emd.exact_calls": ("count", "emd.exact_calls", "count"),
    "emd.auction_ms": ("total", "emd.auction", "ms"),
    "emd.auction_calls": ("count", "emd.auction_calls", "count"),
    "emd.auction_eps_max": ("peak", "emd.auction_eps_max", "ratio"),
    "emd.cost_matrix_bytes": ("peak", "emd.cost_matrix_bytes", "bytes"),
    "voxel.splat_ms": ("total", "voxel.splat", "ms"),
    "voxel.points_splatted": ("count", "voxel.points_splatted", "count"),
    "voxel.binarize_ms": ("total", "voxel.binarize", "ms"),
    "voxel.iou_ms": ("total", "voxel.iou", "ms"),
    "losses.mon_self_ms": ("self", "losses.mon", "ms"),
    "core.ordered_map_self_ms": ("self", "core.ordered_map", "ms"),
    "meanshape.draw_shape_ms": ("total", "meanshape.draw_shape", "ms"),
    "meanshape.self_ms": ("self", "meanshape", "ms"),
}


def layer_metrics(rec, units):
    """Times and counts per unit of work (SGD step or record); peaks as is."""
    total, own = rec.durations()
    out = {}
    for metric, (kind, key, _) in LAYER_METRICS.items():
        if kind == "total":
            out[metric] = 1e3 * total[key] / units
        elif kind == "self":
            out[metric] = 1e3 * own[key] / units
        elif kind == "count":
            out[metric] = rec.counts[key] / units
        else:
            out[metric] = rec.peaks[key]
    return out
