"""Span tracer that wraps polydiv's layer functions from outside.

Every public function of every ``polydiv`` module, and a fixed list of class
methods, is replaced by a wrapper that records one span per call: name,
start, end, parent span and operation id.  A name that one polydiv module
imported from another (``convex`` binds ``bareiss_det`` from ``linalg``) is
replaced in the importing module too, and :meth:`Tracer.uninstall` puts every
original object back.  The source tree is never modified.

Spans live in flat arrays while the run lasts and are written out only when
it ends (:meth:`Tracer.write`).  A span's self time is its duration minus the
durations of its direct children; a layer's self time is the sum over its
functions.

A few tiny vector helpers are called millions of times and cost about as
much as the wrapper itself; wrapping them would triple the run time and
distort every other layer's share, so they stay unwrapped (``UNWRAPPED``)
and their time counts towards their caller's self time.
"""

from __future__ import annotations

import inspect
import json
import os
from array import array
from time import perf_counter

LAYERS = ("cli", "serialize", "divisors", "curves", "ideals", "gaactions",
          "convex", "linalg", "polynomials")

UNWRAPPED = {
    "linalg": {"dot", "vadd", "vsub", "vscale", "vneg", "is_zero_vector",
               "to_fraction_vector", "primitive"},
    "polynomials": {"poly", "degree", "is_zero", "leading", "add", "neg",
                    "sub", "scale"},
}

# (module, class, attribute, span name)
METHODS = (
    ("convex", "Cone", "from_rays", "convex.from_rays"),
    ("convex", "Cone", "from_halfspaces", "convex.from_halfspaces"),
    ("convex", "Polyhedron", "from_vertices_and_tail",
     "convex.Polyhedron.from_vertices_and_tail"),
    ("convex", "Polyhedron", "from_halfspaces", "convex.Polyhedron.from_halfspaces"),
    ("curves", "RationalFunction", "__mul__", "curves.RationalFunction.mul"),
    ("curves", "RationalFunction", "__truediv__", "curves.RationalFunction.truediv"),
    ("curves", "RationalFunction", "same_as", "curves.RationalFunction.same_as"),
    ("curves", "RationalFunction", "ord_at", "curves.RationalFunction.ord_at"),
    ("curves", "RationalFunction", "from_factored", "curves.RationalFunction.from_factored"),
)


def _box_size(lo, hi) -> int:
    size = 1
    for a, b in zip(lo, hi):
        size *= max(0, b - a + 1)
    return size


class Tracer:
    """Records spans for every wrapped call between install and uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.op = -1
        self._restore: list[tuple[object, str, object]] = []
        # counters kept per operation id: {op: value}
        self.cone_keys: dict[int, list] = {}
        self.box_points: dict[int, int] = {}
        self.box_hits: dict[int, int] = {}
        self.hilbert_out: dict[int, int] = {}

    # -- recording ---------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._trim()
        self.op = op
        self._stack.clear()

    def _trim(self) -> None:
        """Drop a span whose recording a timeout cut short.

        The budget alarm can fire between the appends of a wrapper's
        prologue, leaving the span arrays of unequal length; the span it cut
        belongs to the operation that timed out, which is never summarised."""
        arrays = (self.span_name, self.span_parent, self.span_op,
                  self.span_start, self.span_end)
        n = min(len(a) for a in arrays)
        for a in arrays:
            del a[n:]

    def _wrap(self, name: str, fn):
        before, after = OBSERVERS.get(name, (None, None))
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_op.append(self.op)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                span_start[idx] = t0
                span_end[idx] = t1
                if stack and stack[-1] == idx:
                    stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the layer functions of ``modules`` ({layer: module})."""
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and attr not in UNWRAPPED.get(layer, ())):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, attr, wrapped[id(obj)])
        commands = getattr(modules.get("cli"), "COMMANDS", None)
        if commands is not None:
            for key, (handler, help_text) in list(commands.items()):
                if id(handler) in wrapped:
                    self._set_item(commands, key, (wrapped[id(handler)], help_text))
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            self._set(cls, attr, new, raw)

    def _set(self, owner, attr, new, old=None) -> None:
        self._restore.append((owner, attr, vars(owner)[attr] if old is None else old))
        setattr(owner, attr, new)

    def _set_item(self, mapping, key, new) -> None:
        self._restore.append((mapping, key, mapping[key]))
        mapping[key] = new

    def uninstall(self) -> None:
        self._trim()
        for owner, attr, old in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._restore.clear()

    # -- aggregation -------------------------------------------------------

    def summary(self, ops: set[int]) -> dict[str, float]:
        """Counts and self times of the spans that belong to ``ops``."""
        n = len(self.span_name)
        child = [0.0] * n
        parent, start, end = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i in range(n):
            if self.span_op[i] not in ops:
                continue
            name = self.names[self.span_name[i]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end[i] - start[i]) - child[i]
        out: dict[str, float] = {}
        for layer in LAYERS:
            prefix = layer + "."
            out[f"{layer}.calls"] = sum(c for k, c in calls.items() if k.startswith(prefix))
            out[f"{layer}.self_s"] = sum(s for k, s in self_s.items() if k.startswith(prefix))
        for name in self.names:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        keys = [k for op in sorted(ops) for k in self.cone_keys.get(op, ())]
        out["convex.cone_builds"] = len(keys)
        out["convex.cone_repeat_share"] = 1 - len(set(keys)) / len(keys) if keys else 0.0
        points = sum(self.box_points.get(op, 0) for op in ops)
        hits = sum(self.box_hits.get(op, 0) for op in ops)
        out["convex.lattice_points_in_box.box_points"] = points
        out["convex.lattice_points_in_box.hits"] = hits
        out["convex.lattice_points_in_box.hit_ratio"] = hits / points if points else 0.0
        out["convex.hilbert_basis.out_size"] = sum(self.hilbert_out.get(op, 0) for op in ops)
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            for i in range(len(self.span_name)):
                fh.write(json.dumps([self.names[self.span_name[i]], self.span_start[i],
                                     self.span_end[i], self.span_parent[i],
                                     self.span_op[i]]) + "\n")


def _cone_build(kind: str):
    """Count a cone construction and keep its input as the repeat key."""
    def before(tracer: Tracer, args):
        vectors = [tuple(v) for v in args[0]]
        tracer.cone_keys.setdefault(tracer.op, []).append((kind, args[1], tuple(vectors)))
        return (vectors,) + tuple(args[1:])
    return before, None


def _lattice_box(tracer: Tracer, args, result) -> None:
    _, lo, hi = args
    tracer.box_points[tracer.op] = tracer.box_points.get(tracer.op, 0) + _box_size(lo, hi)
    tracer.box_hits[tracer.op] = tracer.box_hits.get(tracer.op, 0) + len(result)


def _hilbert_out(tracer: Tracer, args, result) -> None:
    tracer.hilbert_out[tracer.op] = tracer.hilbert_out.get(tracer.op, 0) + len(result)


# span name -> (before(tracer, args) -> args, after(tracer, args, result))
OBSERVERS = {
    "convex.from_rays": _cone_build("rays"),
    "convex.from_halfspaces": _cone_build("halfspaces"),
    "convex.lattice_points_in_box": (None, _lattice_box),
    "convex.hilbert_basis": (None, _hilbert_out),
}
