"""Spans around finegraph's public functions, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
finegraph module that holds it by name (``from .geom_core import
segment_intersection`` copies the binding, so patching the defining module
alone would miss those callers), and replaces traced methods on their
class.  A span has an operation id, its own id, its parent's id, a name, a
start and an end; all spans live in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

MODULES = ("geom_core", "surfaces", "curves_ops", "routing", "fine_graph",
           "arc_graphs", "germs_width", "homeo_action", "generators", "cli")

# (module, attribute path, span name)
TARGETS = [
    ("geom_core", "segment_intersection", "geom_core.segment_intersection"),
    ("geom_core", "orient", "geom_core.orient"),
    ("geom_core", "bbox_candidate_pairs", "geom_core.bbox_candidate_pairs"),
    ("surfaces", "torus_curve_simple", "surfaces.torus_curve_simple"),
    ("surfaces", "complement_components", "surfaces.complement_components"),
    ("surfaces", "lift_translates_hit", "surfaces.lift_translates_hit"),
    ("curves_ops", "intersect_curves", "curves_ops.intersect_curves"),
    ("curves_ops", "push_aside", "curves_ops.push_aside"),
    ("routing", "SegmentSet.hits", "routing.SegmentSet.hits"),
    ("routing", "torus_route", "routing.torus_route"),
    ("fine_graph", "is_edge", "fine_graph.is_edge"),
    ("fine_graph", "classify_clique3", "fine_graph.classify_clique3"),
    ("fine_graph", "_FaceLocator.locate", "fine_graph.locate"),
    ("fine_graph", "faces_met", "fine_graph.faces_met"),
    ("fine_graph", "refute_N", "fine_graph.refute_N"),
    ("arc_graphs", "bouquet_chain", "arc_graphs.bouquet_chain"),
    ("arc_graphs", "verify_chain", "arc_graphs.verify_chain"),
    ("arc_graphs", "unicorn_path", "arc_graphs.unicorn_path"),
    ("germs_width", "relative_width", "germs_width.relative_width"),
    ("germs_width", "distance_path", "germs_width.distance_path"),
    ("germs_width", "germ_width", "germs_width.germ_width"),
    ("homeo_action", "apply", "homeo_action.apply"),
    ("homeo_action", "check_automorphism", "homeo_action.check_automorphism"),
    ("cli", "main", "cli.main"),
    ("cli", "load_operand", "cli.load_operand"),
]

# generator functions: the wrapper drains them inside the span
GENERATORS = {"geom_core.bbox_candidate_pairs"}


def _by_value(name, args):
    """The argument value a call works on, for the distinct-call ratios."""
    if name == "surfaces.torus_curve_simple":
        return args[0].lift
    if name == "fine_graph.is_edge":
        return frozenset((args[0].lift, args[1].lift))
    return None


DISTINCT = {"surfaces.torus_curve_simple", "fine_graph.is_edge"}
FOUND = {"routing.torus_route"}

# per-layer metrics reported, as (span name, statistic)
METRICS = [
    ("geom_core.segment_intersection", "calls"), ("geom_core.segment_intersection", "self_ms"),
    ("geom_core.orient", "calls"), ("geom_core.orient", "self_ms"),
    ("geom_core.bbox_candidate_pairs", "calls"), ("geom_core.bbox_candidate_pairs", "self_ms"),
    ("surfaces.torus_curve_simple", "calls"), ("surfaces.torus_curve_simple", "total_ms"),
    ("surfaces.torus_curve_simple", "distinct_ratio"),
    ("surfaces.complement_components", "calls"), ("surfaces.complement_components", "total_ms"),
    ("surfaces.lift_translates_hit", "calls"), ("surfaces.lift_translates_hit", "total_ms"),
    ("curves_ops.intersect_curves", "calls"), ("curves_ops.intersect_curves", "total_ms"),
    ("curves_ops.push_aside", "calls"), ("curves_ops.push_aside", "total_ms"),
    ("routing.SegmentSet.hits", "calls"), ("routing.SegmentSet.hits", "self_ms"),
    ("routing.torus_route", "calls"), ("routing.torus_route", "total_ms"),
    ("routing.torus_route", "found_ratio"),
    ("fine_graph.is_edge", "calls"), ("fine_graph.is_edge", "total_ms"),
    ("fine_graph.is_edge", "distinct_ratio"),
    ("fine_graph.classify_clique3", "calls"), ("fine_graph.classify_clique3", "total_ms"),
    ("fine_graph.locate", "calls"), ("fine_graph.locate", "total_ms"),
    ("fine_graph.faces_met", "calls"), ("fine_graph.faces_met", "total_ms"),
    ("fine_graph.refute_N", "total_ms"),
    ("arc_graphs.bouquet_chain", "total_ms"), ("arc_graphs.verify_chain", "total_ms"),
    ("arc_graphs.unicorn_path", "total_ms"),
    ("germs_width.relative_width", "calls"), ("germs_width.relative_width", "total_ms"),
    ("germs_width.distance_path", "total_ms"), ("germs_width.germ_width", "total_ms"),
    ("homeo_action.apply", "calls"), ("homeo_action.apply", "total_ms"),
    ("homeo_action.check_automorphism", "total_ms"),
    ("cli.main", "total_ms"),
    ("cli.load_operand", "calls"), ("cli.load_operand", "total_ms"),
]

UNITS = {"calls": "count", "self_ms": "ms", "total_ms": "ms",
         "distinct_ratio": "ratio", "found_ratio": "ratio"}

_FIELDS = 7  # op, span, parent, name, start_ns, end_ns, outermost


class Tracer:
    def __init__(self):
        self.names = [t[2] for t in TARGETS]
        self.spans = array("q")
        self.stack = []
        self.depth = [0] * len(self.names)
        self.op = 0
        self.keys = set()
        self.found = 0

    def _wrap(self, idx, fn):
        name = self.names[idx]
        spans, stack, depth, clock = self.spans, self.stack, self.depth, time.perf_counter_ns
        drain = name in GENERATORS
        distinct = name in DISTINCT
        found = name in FOUND
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if distinct:
                tracer.keys.add((tracer.op, idx, _by_value(name, args)))
            sid = len(spans) // _FIELDS
            parent = stack[-1] if stack else -1
            outer = depth[idx] == 0
            spans.extend((tracer.op, sid, parent, idx, clock(), 0, outer))
            stack.append(sid)
            depth[idx] += 1
            try:
                res = fn(*args, **kwargs)
                if drain:
                    res = iter(list(res))
            finally:
                depth[idx] -= 1
                stack.pop()
                spans[sid * _FIELDS + 5] = clock()
            if found and tracer.op >= 1 and res is not None:
                tracer.found += 1
            return res

        return wrapper

    def install(self):
        mods = {m: importlib.import_module(f"finegraph.{m}") for m in MODULES}
        for idx, (mod, attr, _) in enumerate(TARGETS):
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod], cls_name)
                setattr(cls, meth, self._wrap(idx, getattr(cls, meth)))
                continue
            orig = getattr(mods[mod], attr)
            wrapped = self._wrap(idx, orig)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def metrics(self):
        """Per-layer statistics over the spans of the timed operations."""
        n = len(self.spans) // _FIELDS
        s = self.spans
        child = [0] * n
        for i in range(n):
            parent = s[i * _FIELDS + 2]
            if parent >= 0:
                child[parent] += s[i * _FIELDS + 5] - s[i * _FIELDS + 4]
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        for i in range(n):
            b = i * _FIELDS
            if s[b] < 1:
                continue
            idx = s[b + 3]
            dur = s[b + 5] - s[b + 4]
            calls[idx] += 1
            own[idx] += dur - child[i]
            if s[b + 6]:
                total[idx] += dur
        distinct = [0] * len(self.names)
        for op, idx, _ in self.keys:
            if op >= 1:
                distinct[idx] += 1
        out = {}
        for name, stat in METRICS:
            idx = self.names.index(name)
            if stat == "calls":
                v = calls[idx]
            elif stat == "self_ms":
                v = own[idx] / 1e6
            elif stat == "total_ms":
                v = total[idx] / 1e6
            elif stat == "distinct_ratio":
                v = distinct[idx] / calls[idx] if calls[idx] else 0.0
            else:
                v = self.found / calls[idx] if calls[idx] else 0.0
            out[f"{name}.{stat}"] = v
        return out

    def write(self, path):
        s = self.spans
        with open(path, "w") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for i in range(len(s) // _FIELDS):
                b = i * _FIELDS
                fh.write(f"{s[b]},{s[b + 1]},{s[b + 2]},{self.names[s[b + 3]]},"
                         f"{s[b + 4]},{s[b + 5]}\n")
