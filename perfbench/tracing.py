"""Spans recorded from the benchmark's own files, around the public
functions and methods of each darboux layer.  Nothing in ``src/`` changes:
``Tracer.install`` swaps wrappers in for the duration of a traced pass and
``Tracer.uninstall`` puts the originals back.

A span is (id, parent id, call id, name, start, end, thread id).  Spans are
kept in memory; ``write`` stores them once when the run ends.  A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
import types
from collections import defaultdict

import darboux.classify
import darboux.cli
import darboux.expr
import darboux.frames
import darboux.surface
import darboux.trace
from darboux.frames import ArclengthMap, CurveOnSurface
from darboux.surface import ImplicitSurface, ParametricSurface

LAYERS = ("expr", "surface", "frames", "classify", "trace", "cli")


def _targets():
    """(owner, attribute, span name).  The span name's prefix is its layer.

    trace.py binds ``project_to_implicit``, ``first_form`` and
    ``unit_normal`` by name and classify.py binds ``sample_frames``, so those
    are wrapped on the calling module; the CLI reaches every other module
    function through a module attribute.  Spec parsing and curve building
    are CLI work even where the code lives in ``surface``."""
    ex, su, fr, cl, tr, cli = (darboux.expr, darboux.surface, darboux.frames,
                               darboux.classify, darboux.trace, darboux.cli)
    return [
        (ex, "evaluate", "expr.evaluate"),
        (ex, "parse", "expr.parse"),
        (ex, "differentiate", "expr.differentiate"),
        (ParametricSurface, "chart_jet", "surface.chart_jet"),
        (ParametricSurface, "jet3", "surface.jet3"),
        (ParametricSurface, "normal_derivatives", "surface.normal_derivatives"),
        (ParametricSurface, "normal_second_derivatives", "surface.normal_second_derivatives"),
        (ParametricSurface, "unit_normal", "surface.unit_normal"),
        (ImplicitSurface, "value", "surface.implicit_eval"),
        (ImplicitSurface, "gradient", "surface.implicit_eval"),
        (ImplicitSurface, "hessian", "surface.implicit_eval"),
        (ImplicitSurface, "unit_normal", "surface.unit_normal"),
        (ImplicitSurface, "normal_jacobian", "surface.normal_jacobian"),
        (tr, "project_to_implicit", "surface.project_to_implicit"),
        (tr, "first_form", "surface.first_form"),
        (tr, "unit_normal", "surface.unit_normal"),
        (fr, "unit_speed_chart_curve", "frames.curve_build"),
        (fr, "resample_unit_speed", "frames.curve_build"),
        (ArclengthMap, "t_of_s", "frames.t_of_s"),
        (CurveOnSurface, "gamma_jet", "frames.gamma_jet"),
        (fr, "darboux", "frames.darboux"),
        (fr, "sample_frames", "frames.sample_frames"),
        (cl, "sample_frames", "frames.sample_frames"),
        (cl, "classify_report", "classify.classify_report"),
        (tr, "isophote_direction_parametric", "trace.field"),
        (tr, "isophote_direction_implicit", "trace.field"),
        (tr, "direction_scalars_parametric", "trace.direction_scalars"),
        (tr, "direction_scalars_implicit", "trace.direction_scalars"),
        (tr, "delta_coefficients", "trace.verify_coefficients"),
        (tr, "omega_coefficients", "trace.verify_coefficients"),
        (tr, "find_seed", "trace.find_seed"),
        (tr, "trace_isophote", "trace.trace_isophote"),
        (su, "parse_surface_spec", "cli.parse_spec"),
        (cli, "build_curve", "cli.build_curve"),
        (cli, "trace_csv", "cli.write"),
        (cli, "trace_json", "cli.write"),
        (cli, "trace_obj", "cli.write"),
        (cli, "frames_csv", "cli.write"),
        (cli, "frames_json", "cli.write"),
        (cli, "_write", "cli.write"),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._call_id: int | None = None
        self._saved: list[tuple] = []

    def _wrap(self, fn, name):
        local, ids, record = self._local, self._ids, self.spans.append
        clock, ident = time.perf_counter, threading.get_ident
        tracer = self

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            sid = next(ids)
            # worker threads of the --family pool start with an empty stack:
            # their spans hang off the call's root span
            parent = stack[-1] if stack else tracer._root
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((sid, parent, tracer._call_id, name, start, end, ident()))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        # the classify report is serialised with json.dumps inside the CLI
        self._saved.append((darboux.cli, "json", darboux.cli.json))
        darboux.cli.json = types.SimpleNamespace(
            dumps=self._wrap(json.dumps, "cli.write"), loads=json.loads)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def call(self, call_id: int, fn, *args):
        """Run one top-level call under a root span named ``cli.main``."""
        sid = next(self._ids)
        self._root, self._call_id = sid, call_id
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.spans.append((sid, None, call_id, "cli.main", start, end,
                               threading.get_ident()))
            self._root = self._call_id = None

    def write(self, path):
        """Store the spans as gzipped CSV, one line per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,call,name,start,end,thread\n")
            fh.writelines(f"{s[0]},{'' if s[1] is None else s[1]},{s[2]},{s[3]},"
                          f"{s[4]!r},{s[5]!r},{s[6]}\n" for s in self.spans)


def layer_metrics(spans, calls: dict[int, dict]) -> dict[str, float]:
    """Per-layer metrics over one traced pass.

    ``calls`` maps call id to {"rows": output rows, "kind": "trace" |
    "curve" | "family"}.  Counts include memo hits; times are summed over
    the pass; ``us_per_call`` includes child spans."""
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    sample_frames_child = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] += s[5] - s[4]
            if s[3] == "frames.sample_frames":
                sample_frames_child[s[1]] += s[5] - s[4]

    def self_time(s):
        return max(0.0, (s[5] - s[4]) - child_time[s[0]])

    count = defaultdict(int)
    total = defaultdict(float)
    layer_self = defaultdict(float)
    for s in spans:
        count[s[3]] += 1
        total[s[3]] += s[5] - s[4]
        layer_self[s[3].split(".")[0]] += self_time(s)

    busy = sum(layer_self.values())
    trace_rows = sum(c["rows"] for c in calls.values() if c["kind"] in ("trace", "family"))
    curve_rows = sum(c["rows"] for c in calls.values() if c["kind"] == "curve")

    def under_frames(s):
        parent = s[1]
        while parent is not None:
            if by_id[parent][3].startswith("frames."):
                return True
            parent = by_id[parent][1]
        return False

    frames_jets = sum(1 for s in spans if s[3] == "surface.chart_jet" and under_frames(s))
    report_self = sum((s[5] - s[4]) - sample_frames_child[s[0]]
                      for s in spans if s[3] == "classify.classify_report")

    family_ids = {cid for cid, c in calls.items() if c["kind"] == "family"}
    family_wall = sum(s[5] - s[4] for s in spans if s[3] == "cli.main" and s[2] in family_ids)
    family_traces = sum(s[5] - s[4] for s in spans
                        if s[3] == "trace.trace_isophote" and s[2] in family_ids)
    threads = defaultdict(set)
    for s in spans:
        threads[s[2]].add(s[6])

    def per_call_us(name):
        return 1e6 * total[name] / count[name] if count[name] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "expr.evaluate.calls": count["expr.evaluate"],
        "expr.evaluate.us_per_call": per_call_us("expr.evaluate"),
        "expr.parse_diff_s": total["expr.parse"] + total["expr.differentiate"],
    }
    for name in ("chart_jet", "normal_derivatives", "implicit_eval", "project_to_implicit"):
        out[f"surface.{name}.calls"] = count[f"surface.{name}"]
        out[f"surface.{name}.us_per_call"] = per_call_us(f"surface.{name}")
    out.update({
        "frames.curve_build_s": total["frames.curve_build"],
        "frames.t_of_s.calls": count["frames.t_of_s"],
        "frames.t_of_s.us_per_call": per_call_us("frames.t_of_s"),
        "frames.sample_frames_s": total["frames.sample_frames"],
        "frames.jets_per_sample": ratio(frames_jets, curve_rows),
        "classify.report_self_s": report_self,
        "trace.field.calls": count["trace.field"],
        "trace.field.us_per_call": per_call_us("trace.field"),
        "trace.field_per_sample": ratio(count["trace.field"], trace_rows),
        "trace.direction_scalars_per_sample": ratio(count["trace.direction_scalars"], trace_rows),
        "trace.find_seed.calls": count["trace.find_seed"],
        "trace.find_seed_s": total["trace.find_seed"],
        "cli.write_s": sum(self_time(s) for s in spans if s[3] == "cli.write"),
        "cli.family_span_ratio": ratio(family_traces, family_wall),
        "cli.threads_seen": max((len(t) for t in threads.values()), default=0),
    })
    # shares of the summed self time of all spans: that sum is the call's
    # wall time on one thread, and more when --family threads overlap
    for layer in LAYERS:
        out[f"{layer}.busy_share"] = ratio(layer_self[layer], busy)
    return out


# metrics taken from the first traced pass and required to repeat exactly
COUNT_METRICS = ("expr.evaluate.calls", "surface.chart_jet.calls",
                 "surface.normal_derivatives.calls", "surface.implicit_eval.calls",
                 "surface.project_to_implicit.calls", "frames.t_of_s.calls",
                 "trace.field.calls", "trace.find_seed.calls", "cli.threads_seen")
