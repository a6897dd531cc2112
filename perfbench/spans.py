"""Timing spans around calls into polarjiou's modules, and the per-layer
metrics derived from them.

A `Tracer` wraps each public function in `TRACED` at every module attribute
of the package that refers to it, so calls from inside the library (for
example `rotated_nms` looking up `polarjiou.oracle.exact_rect_iou`) are
seen as well as calls from the benchmark.  Each span records its name,
start, end, parent span and op id, plus an optional count taken from the
call's arguments or result.  Spans stay in memory until the run writes
them out.  Untraced runs never install the wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

PACKAGE = "polarjiou"


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


def _pairs(arguments, result):
    return len(arguments["preds"])


def _grid(arguments, result):
    return arguments["n"]


def _overlapping(arguments, result):
    return int(result > 0.0)


def _samples(arguments, result):
    return arguments["samples"]


def _heatmap(arguments, result):
    return (len(arguments["objects"]), arguments["height"] * arguments["width"])


def _peaks(arguments, result):
    return len(result)


def _accepted(arguments, result):
    return len(result.steps) - 1


# (module, function, count taken from the call or None).  The module is the
# one that defines the function; the span is named "<module>.<function>".
TRACED = (
    ("polar", "radius_at", None),
    ("loss", "batch_jiou", _pairs),
    ("loss", "jiou_bar", _grid),
    ("loss", "jiou_gradient", _grid),
    ("oracle", "exact_rect_iou", _overlapping),
    ("oracle", "rotated_nms", None),
    ("oracle", "mc_ellipse_iou", _samples),
    ("boxes", "decode_corners", None),
    ("boxes", "canonicalize", None),
    ("boxes", "parse_dota_record", None),
    ("boxes", "corners_to_box", None),
    ("codec", "render_heatmap", _heatmap),
    ("codec", "encode_targets", None),
    ("codec", "extract_peaks", _peaks),
    ("codec", "decode_detections", None),
    ("codec", "smooth_l1", None),
    ("fitting", "fit_box", _accepted),
    ("fitting", "deviation_sweep", None),
    ("cli", "main", None),
    ("cli", "parse_detections_csv", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int     # index of the enclosing span, -1 at the top
    op: int
    count: object = None


class Tracer:
    """Collects spans for wrapped calls.  `clock` is replaceable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.op = -1
        self._stack = []

    def wrap(self, name, fn, count=None):
        arguments = _bound(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op)
            self.spans.append(span)
            self._stack.append(index)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if count is not None:
                span.count = count(arguments(args, kwargs), result)
            return result

        return traced


@contextlib.contextmanager
def installed(tracer):
    """Wrap every target at every package module attribute bound to it;
    restore the originals on exit."""
    patched = []
    try:
        for module, func, count in TRACED:
            original = getattr(importlib.import_module(f"{PACKAGE}.{module}"), func)
            wrapper = tracer.wrap(f"{module}.{func}", original, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)


# Per-layer metrics reported by a traced run: (name, unit).
LAYER_METRICS = (
    ("polar.radius_at.calls", "count"),
    ("polar.radius_at.self_ms", "ms"),
    ("loss.batch_jiou.self_ms", "ms"),
    ("loss.jiou_bar.calls", "count"),
    ("loss.jiou_bar.self_ms", "ms"),
    ("loss.jiou_gradient.calls", "count"),
    ("loss.jiou_gradient.self_ms", "ms"),
    ("loss.angles_per_pair", "count"),
    ("oracle.exact_rect_iou.calls", "count"),
    ("oracle.exact_rect_iou.self_ms", "ms"),
    ("oracle.rotated_nms.self_ms", "ms"),
    ("oracle.nms.pairs_clipped", "count"),
    ("oracle.nms.pairs_overlapping", "count"),
    ("oracle.nms.overlap_ratio", "ratio"),
    ("oracle.mc_ellipse_iou.calls", "count"),
    ("oracle.mc_ellipse_iou.self_ms", "ms"),
    ("oracle.mc.samples", "count"),
    ("boxes.decode_corners.calls", "count"),
    ("boxes.decode_corners.self_ms", "ms"),
    ("boxes.canonicalize.calls", "count"),
    ("boxes.canonicalize.self_ms", "ms"),
    ("boxes.parse_dota_record.self_ms", "ms"),
    ("boxes.corners_to_box.self_ms", "ms"),
    ("codec.render_heatmap.self_ms", "ms"),
    ("codec.encode_targets.self_ms", "ms"),
    ("codec.extract_peaks.self_ms", "ms"),
    ("codec.decode_detections.self_ms", "ms"),
    ("codec.heatmap_cells", "count"),
    ("codec.peaks_per_object", "ratio"),
    ("codec.smooth_l1.calls", "count"),
    ("codec.smooth_l1.self_ms", "ms"),
    ("fitting.fit_box.self_ms", "ms"),
    ("fitting.evaluations", "count"),
    ("fitting.steps_accepted", "count"),
    ("fitting.accept_ratio", "ratio"),
    ("fitting.deviation_sweep.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.parse_detections_csv.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap: calls nest on a single thread.
    """
    covered = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            covered[sp.parent] += sp.end - sp.start
    return [sp.end - sp.start - c for sp, c in zip(spans, covered)]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, overhead_ratio):
    """Per-layer counts and self times (ms, summed over the traced ops).

    Computed counts:
    - loss.angles_per_pair: radius evaluations per scored pair.  Every
      jiou_bar or jiou_gradient call evaluates both boxes' profiles on its
      n angles; a batch_jiou call scores one pair per prediction, and a
      jiou_bar call outside batch_jiou scores one pair.
    - oracle.nms.*: exact_rect_iou calls made by rotated_nms, and those
      with a non-zero result.
    - codec.heatmap_cells: objects x H x W over render_heatmap calls.
    - fitting.evaluations: loss evaluations (jiou_bar or smooth_l1 calls)
      made directly by fit_box; steps_accepted counts its recorded steps.
    """
    calls = Counter(sp.name for sp in spans)
    self_ms = defaultdict(float)
    for sp, t in zip(spans, self_times(spans)):
        self_ms[sp.name] += t * 1e3

    def parent_name(sp):
        return spans[sp.parent].name if sp.parent >= 0 else None

    def total(name, pick=lambda sp: sp.count):
        return sum(pick(sp) for sp in spans if sp.name == name and sp.count is not None)

    pairs = total("loss.batch_jiou") + sum(
        1 for sp in spans if sp.name == "loss.jiou_bar" and not _under(spans, sp, "loss.batch_jiou"))
    angles = 2 * (total("loss.jiou_bar") + total("loss.jiou_gradient"))
    clipped = [sp for sp in spans
               if sp.name == "oracle.exact_rect_iou" and parent_name(sp) == "oracle.rotated_nms"]
    overlapping = sum(sp.count for sp in clipped if sp.count is not None)
    objects = total("codec.render_heatmap", lambda sp: sp.count[0])
    evaluations = sum(1 for sp in spans if sp.name in ("loss.jiou_bar", "codec.smooth_l1")
                      and parent_name(sp) == "fitting.fit_box")
    accepted = total("fitting.fit_box")

    values = {
        "loss.angles_per_pair": _ratio(angles, pairs),
        "oracle.nms.pairs_clipped": len(clipped),
        "oracle.nms.pairs_overlapping": overlapping,
        "oracle.nms.overlap_ratio": _ratio(overlapping, len(clipped)),
        "oracle.mc.samples": total("oracle.mc_ellipse_iou"),
        "codec.heatmap_cells": total("codec.render_heatmap", lambda sp: sp.count[0] * sp.count[1]),
        "codec.peaks_per_object": _ratio(total("codec.extract_peaks"), objects),
        "fitting.evaluations": evaluations,
        "fitting.steps_accepted": accepted,
        "fitting.accept_ratio": _ratio(accepted, evaluations),
        "trace.overhead_ratio": overhead_ratio,
    }
    out = {}
    for name, unit in LAYER_METRICS:
        if name in values:
            value = values[name]
        elif name.endswith(".calls"):
            value = calls[name[:-len(".calls")]]
        else:
            value = self_ms[name[:-len(".self_ms")]]
        out[name] = {"value": value, "unit": unit}
    return out


def _under(spans, sp, name):
    while sp.parent >= 0:
        sp = spans[sp.parent]
        if sp.name == name:
            return True
    return False
