"""An outside-in tracer for tropinf's layers.

`Tracer.install` replaces public functions of tropinf's modules by wrappers
that record one span per call, also when the call raises: its name, start,
end and parent.  A function is wrapped in the module whose namespace its
callers look it up in, since several modules import each other's functions by
name.  Spans
are kept in memory until `report` turns them into per-layer self times; a
layer's self time is its span time minus the time of wrapped spans nested in
it.

Counters (rows, points, cells, ...) are read from the arguments and results of
completed calls.  Work done inside a round of the typing search that raises
(a deadline expiring mid-round) is not counted, so counts repeat exactly as
long as the same rounds complete.  A function that no longer exists, or whose
arguments or result no longer have the expected shape, makes its metrics
`absent` rather than failing the run.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import defaultdict

# The first rounds of the bound schedule (1,1), (2,1), (2,2), ...; later
# rounds are summed under "later".
ROUNDS = ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4))

# Work inside a raised span of this layer is left out of the counts.
UNIT = "typesys.search"

# Layers that are counted but get no span: merging rows is bookkeeping of the
# typing rules, so its time stays in the self time of the search.
COUNT_ONLY = {"typesys.merge"}


def _len_first(args, kwargs):
    return len(args[0])


def _search_round(args, kwargs):
    return (args[2], args[3]) if len(args) >= 4 else (kwargs["n"], kwargs["p"])


def _vertices(result):
    return len(getattr(result, "vertices", result))


def _product(polys):
    return math.prod(len(p.coeffs) for p in polys)


# (module, attribute, span name, {counter: f(args, kwargs)}, {counter: f(result)})
# The counter ".calls" is implicit for every layer.
LAYERS = (
    ("lang", "parse", "lang.parse", {}, {}),
    ("typesys", "annotate", "lang.annotate", {}, {}),
    ("infer", "replay_word", "lang.replay_word", {}, {}),
    ("infer", "find_word", "lang.find_word", {}, {}),
    ("typesys", "search", "typesys.search", {}, {
        "entries": lambda r: len(r.conclusion.entries)}),
    ("typesys", "refinements", "typesys.refinements", {}, {"out": len}),
    ("typesys", "merge", "typesys.merge", {"rows_in": _len_first}, {"rows_out": len}),
    ("typesys", "conclusion_entry", "typesys.conclusion_entry", {}, {}),
    ("typesys", "np_min", "geometry.np_min", {}, {}),
    ("typesys", "vn_with_witness", "geometry.vn_with_witness",
     {"candidates": lambda a, kw: _product(a[0])},
     {"monomials_out": lambda r: len(r[0].coeffs)}),
    ("geometry", "hull_vertices", "geometry.hull_vertices",
     {"points_in": _len_first}, {"vertices_out": _vertices}),
    ("geometry", "lp_solve", "geometry.lp_solve",
     {"cells": lambda a, kw: len(a[0].rows) * len(a[0].objective)}, {}),
    ("infer", "normal_cone", "geometry.normal_cone", {}, {}),
    ("infer", "reduce_rows", "geometry.reduce_rows",
     {"rows_in": lambda a, kw: len(a[0].rows)}, {"rows_out": lambda r: len(r.rows)}),
    ("infer", "analyze", "infer.analyze", {}, {"selected": lambda r: len(r.selected)}),
    ("infer", "report_to_json", "infer.report_to_json", {}, {}),
    ("infer", "solve_i1", "infer.solve_i1", {}, {}),
    ("infer", "solve_i2", "infer.solve_i2", {}, {}),
    ("infer", "i2_contains", "infer.i2_contains", {}, {}),
)

# Per-layer metrics reported by `report`, with units.  Times are per
# operation; ".self_s" is self time and ".s" is time including nested layers.
METRICS = (
    ("lang.parse.self_s", "s"),
    ("lang.annotate.self_s", "s"),
    ("lang.annotate.calls", "count"),
    ("lang.replay_word.self_s", "s"),
    ("lang.find_word.self_s", "s"),
    ("lang.find_word.calls", "count"),
    ("lang.replay_hit_ratio", "ratio"),
    ("typesys.search.self_s", "s"),
    ("typesys.search.calls", "count"),
    *((f"typesys.search.n{n}p{p}.s", "s") for n, p in ROUNDS),
    ("typesys.search.later.s", "s"),
    ("typesys.search.last_completed", "count"),
    ("typesys.entries", "count"),
    ("typesys.refinements.self_s", "s"),
    ("typesys.refinements.calls", "count"),
    ("typesys.refinements.out", "count"),
    ("typesys.merge.calls", "count"),
    ("typesys.merge.rows_in", "count"),
    ("typesys.merge.rows_out", "count"),
    ("typesys.conclusion_entry.s", "s"),
    ("typesys.conclusion_entry.calls", "count"),
    ("geometry.lp_solve.self_s", "s"),
    ("geometry.lp_solve.calls", "count"),
    ("geometry.lp_solve.cells", "count"),
    ("geometry.hull_vertices.self_s", "s"),
    ("geometry.hull_vertices.calls", "count"),
    ("geometry.hull_vertices.points_in", "count"),
    ("geometry.hull_vertices.vertices_out", "count"),
    ("geometry.hull_vertex_ratio", "ratio"),
    ("geometry.np_min.self_s", "s"),
    ("geometry.np_min.calls", "count"),
    ("geometry.vn_with_witness.self_s", "s"),
    ("geometry.vn_with_witness.calls", "count"),
    ("geometry.vn_with_witness.candidates", "count"),
    ("geometry.vn_with_witness.monomials_out", "count"),
    ("geometry.normal_cone.self_s", "s"),
    ("geometry.reduce_rows.self_s", "s"),
    ("geometry.reduce_rows.rows_in", "count"),
    ("geometry.reduce_rows.rows_out", "count"),
    ("infer.analyze.s", "s"),
    ("infer.report_to_json.self_s", "s"),
    ("infer.solve_i1.self_s", "s"),
    ("infer.solve_i2.self_s", "s"),
    ("infer.i2_contains.self_s", "s"),
)


class Tracer:
    """Spans and counters of one traced pass over a list of operations."""

    def __init__(self):
        self.names = [layer[2] for layer in LAYERS]
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_round = {}  # span index of a search call -> (n, p)
        self.stack = []
        self.counts = defaultdict(int)
        self.pending = None  # counts of the search round in progress
        self.absent = set()
        self.ops = 0
        self.op_last_round = 0
        self.last_rounds = []
        self._saved = []

    # -- installation -------------------------------------------------------

    def install(self, modules: dict):
        """Wrap every layer found in `modules` (name -> module object)."""
        for module_name, attr, name, on_call, on_return in LAYERS:
            module = modules[module_name]
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.add(name)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, on_call, on_return))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def _wrap(self, fn, name, on_call, on_return):
        nid = self.name_id[name]
        counters = (name, on_call, on_return)

        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                self._count(-1, counters, args, kwargs, result)
                return result

            counted.__wrapped__ = fn
            return counted

        def traced(*args, **kwargs):
            idx = self._open(nid, name, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                raise
            self._close(idx, False)
            self._count(idx, counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- spans --------------------------------------------------------------

    def _open(self, nid, name, args, kwargs):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0.0)
        if name == UNIT:
            try:
                self.span_round[idx] = _search_round(args, kwargs)
            except (IndexError, KeyError):
                self.absent.add("typesys.search.rounds")
            self.pending = defaultdict(int)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx, raised):
        self.span_end[idx] = time.perf_counter()
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()
        if self.names[self.span_name[idx]] == UNIT:
            if not raised:
                for key, value in self.pending.items():
                    self.counts[key] += value
                n, p = self.span_round.get(idx, (0, 0))
                self.op_last_round = max(self.op_last_round, n + p - 1)
            self.pending = None

    def _count(self, idx, counters, args, kwargs, result):
        name, on_call, on_return = counters
        parent = self.span_parent[idx] if idx >= 0 else -1
        if parent >= 0 and self.span_name[parent] == self.span_name[idx]:
            return  # count only the outermost call of a recursion
        sink = self.pending if self.pending is not None else self.counts
        sink[name + ".calls"] += 1
        for key, f in on_call.items():
            self._add(sink, f"{name}.{key}", f, args, kwargs)
        for key, f in on_return.items():
            self._add(sink, f"{name}.{key}", f, result)

    def _add(self, sink, key, f, *values):
        try:
            sink[key] += f(*values)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.absent.add(key)

    # -- operations ---------------------------------------------------------

    def begin_op(self):
        self.stack = []
        self.pending = None
        self.op_last_round = 0

    def end_op(self):
        """Close spans an interrupted operation left open."""
        now = time.perf_counter()
        for idx in self.stack:
            self.span_end[idx] = now
        self.stack = []
        self.pending = None
        self.ops += 1
        self.last_rounds.append(self.op_last_round)

    # -- results ------------------------------------------------------------

    def count_totals(self) -> dict:
        """Raw counter totals, to compare two passes over the same operations."""
        totals = dict(self.counts)
        totals["typesys.search.last_completed"] = sum(self.last_rounds)
        return totals

    def report(self, scale: float = 1.0) -> tuple:
        """({metric: value per operation}, set of absent metric names), with
        span times multiplied by `scale`."""
        n = len(self.span_name)
        dur = [(self.span_end[i] - self.span_start[i]) * scale for i in range(n)]
        self_time = list(dur)
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                self_time[parent] -= dur[i]
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            self_s[name] += self_time[i]
            parent = self.span_parent[i]
            if parent < 0 or self.span_name[parent] != self.span_name[i]:
                incl_s[name] += dur[i]
        rounds = defaultdict(float)
        for i, (n_, p_) in self.span_round.items():
            key = f"n{n_}p{p_}" if (n_, p_) in ROUNDS else "later"
            rounds[key] += dur[i]

        ops = max(self.ops, 1)
        c = self.count_totals()
        values = {}
        for name in self.names:
            values[name + ".self_s"] = self_s[name] / ops
            values[name + ".s"] = incl_s[name] / ops
        for key, total in c.items():
            values[key] = total / ops
        for n_, p_ in ROUNDS:
            values[f"typesys.search.n{n_}p{p_}.s"] = rounds[f"n{n_}p{p_}"] / ops
        values["typesys.search.later.s"] = rounds["later"] / ops
        values["typesys.entries"] = c.get("typesys.search.entries", 0) / ops

        # A ratio with nothing to divide by is absent.
        selected = c.get("infer.analyze.selected", 0)
        if selected:
            values["lang.replay_hit_ratio"] = (
                selected - c.get("lang.find_word.calls", 0)) / selected
        else:
            self.absent.add("lang.replay_hit_ratio")
        points = c.get("geometry.hull_vertices.points_in", 0)
        if points:
            values["geometry.hull_vertex_ratio"] = (
                c.get("geometry.hull_vertices.vertices_out", 0) / points)
        else:
            self.absent.add("geometry.hull_vertex_ratio")

        out, absent = {}, set()
        for metric, _unit in METRICS:
            if metric in self.absent or any(d in self.absent for d in _inputs(metric)):
                absent.add(metric)
            out[metric] = 0.0 if metric in absent else values.get(metric, 0.0)
        return out, absent


# What derived metrics are computed from, besides their own layer.
DERIVED = {
    "lang.replay_hit_ratio": ("infer.analyze", "lang.find_word", "infer.analyze.selected"),
    "geometry.hull_vertex_ratio": ("geometry.hull_vertices",
                                   "geometry.hull_vertices.points_in",
                                   "geometry.hull_vertices.vertices_out"),
    "typesys.entries": ("typesys.search", "typesys.search.entries"),
}


def _inputs(metric: str) -> tuple:
    """The layers and counters a metric is made from."""
    layer = ".".join(metric.split(".")[:2])
    if metric.startswith("typesys.search.") and metric.split(".")[2] not in (
            "self_s", "calls"):
        return (layer, "typesys.search.rounds")  # per-round times and last round
    return (layer, *DERIVED.get(metric, ()))
