"""Span tracing for the per-layer run.

The traced pass rebinds the public functions of each intersets module to
wrappers that record one span per call: name, start, end, parent span and
the id of the benchmark operation that caused it.  Spans live in flat
arrays while the pass runs and are folded into per-layer metrics (calls,
self seconds and a few counts) after the timed phase ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

# (module, function) pairs whose every binding in an intersets.* namespace
# is replaced by a tracing wrapper
FUNCTIONS = (
    ("symbolic", "normalize"),
    ("symbolic", "contains"),
    ("symbolic", "is_subset"),
    ("symbolic", "materialize"),
    ("sumsets", "sum2"),
    ("sumsets", "symbolic_hfold_sum"),
    ("sumsets", "windowed_hfold_sum"),
    ("sumsets", "representation_count"),
    ("analyzer", "compute_H"),
    ("analyzer", "truncated_layer_fold"),
    ("analyzer", "compute_H_product"),
    ("analyzer", "verify_out_witness"),
    ("analyzer", "pullback_check"),
    ("continuum", "verify_rational_theorem"),
    ("continuum", "verify_open_theorem"),
    ("groups", "group_hfold"),
    ("lattices", "min_norm_inequality"),
    ("lattices", "verify_lattice_theorem"),
    ("serialize", "family_from_json"),
    ("serialize", "report_to_json"),
    ("cli", "main"),
)

# Family methods, wrapped on every class that defines them
METHODS = ("set_at", "certificate")


class Tracer:
    """In-memory span store for one pass of one workload."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current_op = -1
        self.enabled = False
        self.counts: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, fn, name: str, count=None):
        """A wrapper that records a span per call of fn while enabled.

        count, when given, is called as count(tracer, args, kwargs, result)
        after the span closes, so its own cost stays out of the span.
        """
        nid = self.name_id(name)
        stack, clock = self._stack, self.clock
        names, parents, ops, starts, ends = (
            self.name, self.parent, self.op, self.start, self.end
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def spans(self):
        """(id, op, parent, name, start, end) for every recorded span."""
        return [
            (i, self.op[i], self.parent[i], self.names[self.name[i]],
             self.start[i], self.end[i])
            for i in range(len(self.start))
        ]

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_s per span name, plus the recorded counts."""
        selfs = self_times(self.parent, self.start, self.end)
        out: dict[str, float] = {}
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + selfs[i]
        for name in self.names:
            out.setdefault(name + ".calls", 0)
            out.setdefault(name + ".self_s", 0.0)
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\top\tparent\tname\tstart\tend\n")
            for span in self.spans():
                fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % span)


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and merged where they
    overlap, so the result never goes negative.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [0.0] * len(start)
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0.0
        kids = children.get(i)
        if kids:
            edge = lo
            for k in sorted(kids, key=start.__getitem__):
                a, b = max(start[k], edge), min(end[k], hi)
                if b > a:
                    covered += b - a
                    edge = b
        out[i] = max(hi - lo - covered, 0.0)
    return out


# ---------------------------------------------------------------------------
# counts recorded beside the spans


def _count_materialize(tr, args, kwargs, result):
    tr.add("symbolic.materialize.elements", len(result))


def _count_sum2(tr, args, kwargs, result):
    tr.add("sumsets.sum2.fired", result is not None)


def _count_hfold(closed_cls):
    def count(tr, args, kwargs, result):
        tr.add("sumsets.symbolic_hfold_sum.closed", isinstance(result, closed_cls))

    return count


def _count_windowed(tr, args, kwargs, result):
    w = result.window
    tr.add("sumsets.windowed_hfold_sum.cells", w.hi - w.lo + 1)
    tr.add("sumsets.windowed_hfold_sum.gen_cells", 2 * result.generation_radius + 1)
    tr.add("sumsets.windowed_hfold_sum.members", len(result.members))
    tr.add("sumsets.windowed_hfold_sum.complete", bool(result.complete))


def _count_layers(fn):
    sig = inspect.signature(fn)

    def count(tr, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        q, depth = bound.arguments["Q"], bound.arguments["family"].depth
        tr.add("analyzer.truncated_layer_fold.layers", q if depth is None else min(q, depth))

    return count


def _count_points(tr, args, kwargs, result):
    tr.add("continuum.verify_rational_theorem.intersection_points", result.intersection_size)


def _rebind(original, wrapper) -> None:
    """Replace original by wrapper in every loaded intersets namespace."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "intersets" or modname.startswith("intersets.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def instrument(tracer: Tracer) -> None:
    """Wrap every listed function and Family method of the loaded package."""
    mods = {name: importlib.import_module("intersets." + name) for name, _ in FUNCTIONS}
    counts = {
        ("symbolic", "materialize"): _count_materialize,
        ("sumsets", "sum2"): _count_sum2,
        ("sumsets", "symbolic_hfold_sum"): _count_hfold(mods["sumsets"].Closed),
        ("sumsets", "windowed_hfold_sum"): _count_windowed,
        ("analyzer", "truncated_layer_fold"): _count_layers(
            mods["analyzer"].truncated_layer_fold
        ),
        ("continuum", "verify_rational_theorem"): _count_points,
    }
    for modname, fname in FUNCTIONS:
        original = getattr(mods[modname], fname)
        wrapper = tracer.wrap(original, f"{modname}.{fname}", counts.get((modname, fname)))
        _rebind(original, wrapper)
    for cls in _subclasses(importlib.import_module("intersets.families").Family):
        for meth in METHODS:
            fn = cls.__dict__.get(meth)
            if fn is not None:
                setattr(cls, meth, tracer.wrap(fn, f"families.{meth}"))


def normalize_cache_info():
    """(hits, misses) of the normalize cache, or None when it has none."""
    sym = sys.modules.get("intersets.symbolic")
    info = getattr(getattr(sym, "_normalize", None), "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses


def finish(tracer: Tracer, cache_before) -> dict[str, float]:
    """Per-layer metrics of a finished traced pass, with derived ratios."""
    m = tracer.layer_metrics()

    def frac(num_key, den_key):
        den = m.get(den_key, 0)
        return m.pop(num_key, 0) / den if den else 0.0

    m["sumsets.sum2.fired_frac"] = frac("sumsets.sum2.fired", "sumsets.sum2.calls")
    m["sumsets.symbolic_hfold_sum.closed_frac"] = frac(
        "sumsets.symbolic_hfold_sum.closed", "sumsets.symbolic_hfold_sum.calls"
    )
    m["sumsets.windowed_hfold_sum.complete_frac"] = frac(
        "sumsets.windowed_hfold_sum.complete", "sumsets.windowed_hfold_sum.calls"
    )
    for key in (
        "symbolic.materialize.elements",
        "sumsets.windowed_hfold_sum.cells",
        "sumsets.windowed_hfold_sum.gen_cells",
        "sumsets.windowed_hfold_sum.members",
        "analyzer.truncated_layer_fold.layers",
        "continuum.verify_rational_theorem.intersection_points",
    ):
        m.setdefault(key, 0)
    after = normalize_cache_info()
    if cache_before is not None and after is not None:
        hits = after[0] - cache_before[0]
        total = hits + after[1] - cache_before[1]
        m["symbolic.normalize.cache_hit_frac"] = hits / total if total else 0.0
    m["trace.spans"] = len(tracer.start)
    return m
