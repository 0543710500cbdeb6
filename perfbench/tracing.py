"""Span tracing of liftedmap's layers from outside the package.

`Tracer.installed()` replaces the public module-level functions and methods
of each layer (listed in TARGETS) by wrappers that record a span per call,
and puts the originals back on exit. A function imported into another
liftedmap module by name is replaced there too, so calls through `cli` and
calls inside the defining module are both seen. Spans are kept in memory as
(name, start, end, parent span, instance, counts) and written out at the
end of a run.

`layer_metrics` turns one pass's spans into the per-layer metrics. Every
`_s` metric is a self time: a span's duration minus the durations of its
direct child spans. Self times therefore partition the traced calls, and
with `trace.unattributed_s` (pass time outside every span) they add up to
the traced pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name, counts taken from the result)
TARGETS = (
    ("liftedmap.model", "parse_model", "model.parse", None),
    ("liftedmap.model", "OvercompleteLayout.__init__", "model.layout", None),
    ("liftedmap.mln", "parse_mln", "mln.parse", None),
    ("liftedmap.mln", "ground_mln", "mln.ground", lambda r: {"features": r[0].num_features}),
    ("liftedmap.mln", "RenamingSymmetries.bundle", "mln.bundle", None),
    ("liftedmap.mln", "RenamingSymmetries.stabilized_light", "mln.stabilized_light", None),
    ("liftedmap.symmetry", "build_colored_factor_graph", "symmetry.graph", None),
    ("liftedmap.symmetry", "refine_colors", "symmetry.refine", None),
    ("liftedmap.symmetry", "search_automorphisms", "symmetry.search",
     lambda r: {"generators": len(r.generators)}),
    ("liftedmap.symmetry", "verify_generator", "symmetry.verify", None),
    ("liftedmap.symmetry", "stabilizer_generators", "symmetry.stabilizer", None),
    ("liftedmap.symmetry", "GeneratorSymmetries.stabilized_light", "symmetry.stabilized_light", None),
    ("liftedmap.symmetry", "compute_orbit_bundle", "symmetry.bundle", None),
    ("liftedmap.symmetry", "GeneratorSymmetries.bundle", "symmetry.source_bundle", None),
    ("liftedmap.lift", "build_lifted_model", "lift.build",
     lambda r: {"cells": r.num_cells, "ground_coords": r.index.layout.size}),
    ("liftedmap.solve", "build_local_lp", "solve.lp_build",
     lambda r: {"lp_vars": r.num_vars, "lp_rows": len(r.rows)}),
    ("liftedmap.solve", "simplex_solve", "solve.simplex", None),
    ("liftedmap.solve", "build_stabilized_graphs", "solve.stabilized", None),
    ("liftedmap.solve", "separate_cycles_ground", "solve.separate", None),
    ("liftedmap.solve", "separate_cycles_lifted", "solve.separate", None),
    ("liftedmap.solve", "decode", "solve.decode", None),
    ("liftedmap.solve", "cutting_plane_map", "solve.map",
     lambda r: {"cuts": len(r.cuts_added), "solve_ms": r.timings_ms["solve_ms"]}),
)

# span name -> metric its self time adds to
SELF_TIME = {
    "cli.main": "cli.self_s",
    "model.parse": "model.parse_s",
    "model.layout": "model.layout_s",
    "mln.parse": "mln.parse_s",
    "mln.ground": "mln.ground_s",
    "mln.bundle": "mln.renaming_s",
    "mln.stabilized_light": "mln.renaming_s",
    "symmetry.graph": "symmetry.graph_s",
    "symmetry.refine": "symmetry.refine_s",
    "symmetry.search": "symmetry.search_s",
    "symmetry.verify": "symmetry.verify_s",
    "symmetry.stabilizer": "symmetry.stabilizer_s",
    "symmetry.stabilized_light": "symmetry.stabilizer_s",
    "symmetry.bundle": "symmetry.bundle_s",
    "symmetry.source_bundle": "symmetry.bundle_s",
    "lift.build": "lift.build_s",
    "solve.lp_build": "solve.lp_build_s",
    "solve.simplex": "solve.simplex_s",
    "solve.stabilized": "solve.stabilized_s",
    "solve.separate": "solve.separate_s",
    "solve.decode": "solve.decode_s",
    "solve.map": "solve.map_self_s",
}

# span name -> metric counting its calls
CALLS = {
    "model.layout": "model.layout_builds",
    "mln.stabilized_light": "mln.stabilized_calls",
    "symmetry.search": "symmetry.search_calls",
    "symmetry.refine": "symmetry.refine_calls",
    "symmetry.verify": "symmetry.verify_calls",
    "symmetry.stabilizer": "symmetry.stabilizer_calls",
    "solve.simplex": "solve.simplex_calls",
    "solve.separate": "solve.separate_calls",
}

# count taken from a span's result -> metric summing it
COUNTS = {
    "features": "mln.ground_features",
    "generators": "symmetry.generators",
    "cells": "lift.cells",
    "ground_coords": "lift.ground_coords",
    "lp_vars": "solve.lp_vars",
    "lp_rows": "solve.lp_rows",
    "cuts": "solve.cuts",
}

# ratio metric -> (numerator, base)
RATIOS = {
    "lift.cell_ratio": ("lift.cells", "lift.ground_coords"),
    "solve.cut_yield": ("solve.cuts", "solve.separate_calls"),
}

TRACE_METRICS = (
    "trace.pass_s",
    "trace.untraced_pass_s",
    "trace.overhead_s",
    "trace.unattributed_s",
    "trace.spans",
    "solve.simplex_reported_s",
)


def metric_names() -> list:
    """Every per-layer metric, in report order."""
    names = list(dict.fromkeys(SELF_TIME.values()))
    names += list(CALLS.values()) + list(COUNTS.values()) + list(RATIOS)
    return names + list(TRACE_METRICS)


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name in RATIOS else "count"


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, instance, counts]
        self._stack = []
        self.instance = None  # "<pass>:<instance name>", set by the caller

    def wrap(self, name, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), None, stack[-1] if stack else -1, self.instance, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[5] = counter(out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Replace every TARGETS entry by a traced wrapper; restore on exit."""
        undo = []
        try:
            for modname, attr, name, counter in TARGETS:
                mod = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    undo.append((cls, meth, orig))
                    setattr(cls, meth, self.wrap(name, orig, counter))
                    continue
                orig = getattr(mod, attr)
                traced = self.wrap(name, orig, counter)
                for other in [m for n, m in sys.modules.items() if n.split(".")[0] == "liftedmap"]:
                    for key, value in list(vars(other).items()):
                        if value is orig:
                            undo.append((other, key, orig))
                            setattr(other, key, traced)
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def dump(self, path: str):
        """Write every span as one JSON line."""
        keys = ("name", "start", "end", "parent", "instance", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(dict(zip(keys, span), id=i)) + "\n")


def layer_metrics(spans, first: int, last: int, pass_s: float) -> dict:
    """Per-layer metrics of the spans with index in [first, last), one pass."""
    out = {name: 0.0 for name in metric_names()}
    child_time = {}
    for i in range(first, last):
        _, start, end, parent, _, _ = spans[i]
        if parent >= first:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    covered = 0.0
    for i in range(first, last):
        name, start, end, parent, _, counts = spans[i]
        if parent < first:
            covered += end - start
        out[SELF_TIME[name]] += (end - start) - child_time.get(i, 0.0)
        if name in CALLS:
            out[CALLS[name]] += 1
        for key, value in (counts or {}).items():
            if key in COUNTS:
                out[COUNTS[key]] += value
            elif key == "solve_ms":
                out["solve.simplex_reported_s"] += value / 1000.0
    for name, (num, base) in RATIOS.items():
        out[name] = out[num] / out[base] if out[base] else 0.0
    out["trace.pass_s"] = pass_s
    out["trace.unattributed_s"] = pass_s - covered
    out["trace.spans"] = last - first
    return out
