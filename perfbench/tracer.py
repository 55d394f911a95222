"""Span tracing installed from outside the pointspec package.

`Tracer.install()` replaces public entry points of each layer with
wrappers that record a span (name, start, end, parent); `uninstall()`
restores the originals.  `install(count_work=True)` also counts exact
work (points windowed, pair and amplitude terms, `QuadField.sign` calls).
Those counters run inside the spans and would inflate their times, so a
pass that counts work is not timed: the self times come from passes
installed without them.  Spans stay in memory and are reduced to
per-layer metrics by `Tracer.metrics()` when the run ends.
A wrapper is set on every attribute that resolves to the wrapped function
in any loaded pointspec module (for example `verify` imports
`_count_in_patch` by name), so callers see it however they reach it.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

SOURCE_TYPES = ("CutProjectSource", "LatticeSource", "SubstitutionSource", "PoissonSource")
CHECKS = ("lattice_frequency", "autocorr_equivalence", "lattice_peaks", "weighted_comb",
          "cylinder_measure", "partition", "dworkin", "product_identity", "metric",
          "negative_controls")
COMMANDS = ("generate", "classes", "freq", "autocorr", "diffract", "metric", "partition")
TOL_PAD = 1e-9  # the window slack pointspec uses (coords.TOL_EQ)


def _metric_table():
    """(name, unit, better) for every per-layer metric, in report order."""
    rows = []
    for t in SOURCE_TYPES:
        base = "sources.window.%s." % t
        rows += [(base + "s", "s", "lower"), (base + "calls", "count", "lower"),
                 (base + "points", "count", "lower"), (base + "points_per_s", "1/s", "higher")]
    rows += [("sources.window.TranslatedSource.s", "s", "lower"),
             ("sources.window.TranslatedSource.calls", "count", "lower"),
             ("coords.sign.calls", "count", "lower"),
             ("geometry.restrict.s", "s", "lower"), ("geometry.restrict.calls", "count", "lower"),
             ("geometry.patch_arrays.s", "s", "lower"),
             ("geometry.enumerate_cluster_classes.s", "s", "lower"),
             ("geometry.delone_params.s", "s", "lower"),
             ("stats.estimate_frequency.s", "s", "lower"),
             ("stats.count_in_patch.s", "s", "lower"), ("stats.count_in_patch.calls", "count", "lower"),
             ("hull.hull_metric.s", "s", "lower"), ("hull.hull_metric.calls", "count", "lower"),
             ("hull.match_predicate.s", "s", "lower"), ("hull.match_predicate.calls", "count", "lower"),
             ("hull.predicate_calls_per_metric", "ratio", "lower"),
             ("hull.build_partition_1d.s", "s", "lower"), ("hull.scan_pieces.s", "s", "lower"),
             ("hull.cylinder_contains.s", "s", "lower"),
             ("hull.cylinder_contains.calls", "count", "lower"),
             ("hull.locate.s", "s", "lower"), ("hull.empirical_cylinder_measure.s", "s", "lower"),
             ("spectra.autocorr_direct.s", "s", "lower"),
             ("spectra.autocorr_direct.terms", "count", "lower"),
             ("spectra.autocorr_from_frequencies.s", "s", "lower"),
             ("spectra.autocorr_from_frequencies.terms", "count", "lower"),
             ("spectra.amplitudes_grid.s", "s", "lower"),
             ("spectra.amplitudes_grid.calls", "count", "lower"),
             ("spectra.amplitudes_grid.terms", "count", "lower"),
             ("spectra.peak_scan.s", "s", "lower"), ("spectra.peak_scan.candidates", "count", "lower"),
             ("spectra.peak_scan.retained_ratio", "ratio", "higher"),
             ("spectra.smoothed_density.s", "s", "lower"),
             ("spectra.smoothed_density.calls", "count", "lower"),
             ("spectra.kernel_autocorr.s", "s", "lower"),
             ("spectra.kernel_autocorr.calls", "count", "lower"),
             ("spectra.dworkin_report.s", "s", "lower")]
    rows += [("verify.%s.s" % c, "s", "lower") for c in CHECKS]
    rows += [("cli.%s.s" % c, "s", "lower") for c in COMMANDS]
    rows += [("cli.output_bytes", "count", "lower"),
             ("trace.untraced_wall_s", "s", "lower"), ("trace.traced_wall_s", "s", "lower"),
             ("trace.overhead_s", "s", "lower"), ("trace.counting_wall_s", "s", "lower"),
             ("trace.ceiling_failures", "count", "lower")]
    return rows


METRICS = _metric_table()
UNITS = {name: unit for name, unit, _ in METRICS}
# work counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = tuple(n for n, unit, _ in METRICS
                     if unit == "count" and not n.startswith("trace."))


def _floats(points):
    """Sorted float positions, read without the (wrapped) patch array methods."""
    return np.sort(np.array([float(p[0]) for p in points], dtype=float))


def _pair_terms(pos_a, pos_b, radius):
    """Pairs (x in a, y in b) with |x - y| <= radius + slack, as the engines scan them."""
    hi = np.searchsorted(pos_b, pos_a + radius + TOL_PAD)
    lo = np.searchsorted(pos_b, pos_a - radius - TOL_PAD)
    return int(np.sum(hi - lo))


class Tracer:
    def __init__(self):
        self._name_ids = {}
        self._names = []
        self._span_name = array("i")
        self._span_parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self.counts = defaultdict(int)
        self._captured = {}        # span id -> patches returned by its direct window children
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._restore = []

    # -- spans ----------------------------------------------------------------
    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, capture=False):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # a pool worker's span belongs to the main-thread span that is waiting on it
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self._names)
                self._names.append(name)
            sid = len(self._span_name)
            self._span_name.append(nid)
            self._span_parent.append(parent)
            self._end.append(math.nan)
            if capture:
                self._captured[sid] = []
            self._start.append(time.perf_counter())
        stack.append(sid)
        return sid

    def _close(self, sid):
        self._end[sid] = time.perf_counter()
        self._stack().pop()

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def wrap(self, fn, name, after=None, capture=False):
        """Wrapper recording a span; `name` may be a function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name(args) if callable(name) else name, capture)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if after is not None:
                after(tracer, sid, args, kwargs, result)
            return result

        return traced

    # -- installation ---------------------------------------------------------
    def _patch_function(self, module, attr, name, **kw):
        orig = getattr(module, attr)
        wrapper = self.wrap(orig, name, **kw)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "pointspec" or modname.startswith("pointspec.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._restore.append((mod, key, orig))
                    setattr(mod, key, wrapper)
        return wrapper

    def _patch_method(self, cls, attr, name, **kw):
        orig = cls.__dict__[attr]
        self._restore.append((cls, attr, orig))
        setattr(cls, attr, self.wrap(orig, name, **kw))

    def _patch_dict(self, table, prefix):
        for key, fn in list(table.items()):
            self._restore.append((table, key, fn))
            table[key] = self.wrap(fn, prefix + key)

    def install(self, count_work=False):
        from pointspec import cli, coords, geometry, hull, sources, spectra, stats, verify

        def hook(after):
            return after if count_work else None

        def window_after(tr, sid, args, kwargs, patch):
            name = tr._names[tr._span_name[sid]]
            tr.count(name + ".points", patch.total_points)
            parent = tr._span_parent[sid]
            if parent in tr._captured:
                tr._captured[parent].append(patch)

        self._patch_method(sources.PointSource, "window",
                           lambda a: "sources.window." + type(a[0]).__name__,
                           after=hook(window_after))
        self._patch_method(sources.TranslatedSource, "window", "sources.window.TranslatedSource",
                           after=hook(window_after))

        if count_work:
            sign = coords.QuadField.__dict__["sign"]
            tracer = self

            def counted_sign(self_, a, b):
                with tracer._lock:
                    tracer.counts["coords.sign.calls"] += 1
                return sign(self_, a, b)

            self._restore.append((coords.QuadField, "sign", sign))
            coords.QuadField.sign = counted_sign

        self._patch_method(geometry.MultiSetPatch, "restrict", "geometry.restrict")
        self._patch_method(geometry.MultiSetPatch, "positions", "geometry.patch_arrays")
        self._patch_method(geometry.MultiSetPatch, "all_positions", "geometry.patch_arrays")
        self._patch_function(geometry, "enumerate_cluster_classes",
                             "geometry.enumerate_cluster_classes")
        self._patch_function(geometry, "delone_params", "geometry.delone_params")

        self._patch_function(stats, "estimate_frequency", "stats.estimate_frequency")
        self._patch_function(stats, "_count_in_patch", "stats.count_in_patch")

        self._patch_function(hull, "hull_metric", "hull.hull_metric")
        self._patch_function(hull, "_match_predicate", "hull.match_predicate")
        self._patch_function(hull, "build_partition_1d", "hull.build_partition_1d")
        self._patch_function(hull, "_scan_pieces", "hull.scan_pieces")
        self._patch_function(hull, "cylinder_contains", "hull.cylinder_contains")
        self._patch_method(hull.HullPartition, "locate", "hull.locate")
        self._patch_function(hull, "empirical_cylinder_measure",
                             "hull.empirical_cylinder_measure")

        def direct_after(tr, sid, args, kwargs, meas):
            (patch,) = tr._captured.pop(sid)
            pos = _floats([p for part in patch.parts for p in part])
            tr.count("spectra.autocorr_direct.terms", _pair_terms(pos, pos, meas.radius))

        def freq_route_after(tr, sid, args, kwargs, meas):
            (patch,) = tr._captured.pop(sid)
            pos = [_floats(part) for part in patch.parts]
            tr.count("spectra.autocorr_from_frequencies.terms",
                     sum(_pair_terms(a, b, meas.radius) for a in pos for b in pos))

        def grid_after(tr, sid, args, kwargs, out):
            pos, _wvals, ks = args[:3]
            tr.count("spectra.amplitudes_grid.terms", len(ks) * len(pos))

        def scan_after(tr, sid, args, kwargs, est):
            tr.count("spectra.peak_scan.candidates", len(est.entries))
            tr.count("spectra.peak_scan.retained", len(est.retained()))

        self._patch_function(spectra, "autocorr_direct", "spectra.autocorr_direct",
                             after=hook(direct_after), capture=count_work)
        self._patch_function(spectra, "autocorr_from_frequencies",
                             "spectra.autocorr_from_frequencies", after=hook(freq_route_after),
                             capture=count_work)
        self._patch_function(spectra, "_amplitudes_grid", "spectra.amplitudes_grid",
                             after=hook(grid_after))
        self._patch_function(spectra, "peak_scan", "spectra.peak_scan", after=hook(scan_after))
        self._patch_function(spectra, "smoothed_density", "spectra.smoothed_density")
        self._patch_method(spectra.SmoothingKernel, "autocorr", "spectra.kernel_autocorr")
        self._patch_function(spectra, "dworkin_report", "spectra.dworkin_report")

        self._patch_dict(verify.CHECKS, "verify.")
        self._patch_dict(cli.COMMANDS, "cli.")

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._restore = []

    # -- reduction ------------------------------------------------------------
    def self_times(self):
        """Per span name: (calls, summed self time).

        Self time is a span's duration minus the part of it covered by the
        union of its child spans, so children running concurrently in a
        pool are not subtracted twice.
        """
        start = np.frombuffer(self._start, dtype=float)
        end = np.frombuffer(self._end, dtype=float)
        parent = np.frombuffer(self._span_parent, dtype=np.int32)
        names = np.frombuffer(self._span_name, dtype=np.int32)
        if np.isnan(end).any():
            raise RuntimeError("a traced span was never closed")
        own = end - start
        order = np.lexsort((start, parent))
        covered = np.zeros(len(own))
        cur_parent, cur_end, acc = -1, -math.inf, 0.0
        for sid in order[np.searchsorted(parent[order], 0):]:
            p = parent[sid]
            if p != cur_parent:
                if cur_parent >= 0:
                    covered[cur_parent] = acc
                cur_parent, cur_end, acc = p, start[p], 0.0
            lo, hi = max(start[sid], cur_end), min(end[sid], end[p])
            if hi > lo:
                acc += hi - lo
                cur_end = hi
        if cur_parent >= 0:
            covered[cur_parent] = acc
        selft = own - covered
        out = {}
        for nid, name in enumerate(self._names):
            mask = names == nid
            out[name] = (int(mask.sum()), float(selft[mask].sum()))
        return out

    def metrics(self, seconds=None):
        """Every per-layer metric name -> value (0 where the layer did not run).

        `seconds` maps `.s` metric names to self times measured in other
        passes; it replaces this pass's own times, which the work counters
        inflate.
        """
        spans = self.self_times()
        values = {}
        for name in UNITS:
            stem, _, suffix = name.rpartition(".")
            if seconds is not None and name in seconds:
                values[name] = seconds[name]
            elif suffix == "s" and stem in spans:
                values[name] = spans[stem][1]
            elif suffix == "calls" and stem in spans:
                values[name] = spans[stem][0]
            else:
                values[name] = self.counts.get(name, 0)
        for t in SOURCE_TYPES:
            base = "sources.window.%s." % t
            secs = values[base + "s"]
            values[base + "points_per_s"] = values[base + "points"] / secs if secs > 0 else 0.0
        metric_calls = values["hull.hull_metric.calls"]
        values["hull.predicate_calls_per_metric"] = (
            values["hull.match_predicate.calls"] / metric_calls if metric_calls else 0.0)
        cand = values["spectra.peak_scan.candidates"]
        values["spectra.peak_scan.retained_ratio"] = (
            self.counts.get("spectra.peak_scan.retained", 0) / cand if cand else 0.0)
        return values
