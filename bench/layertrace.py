"""Per-layer tracing for the benchmark's traced run.

`Tracer.install()` wraps the public functions and methods of every layer
(module) of ecgroups and binds each wrapper in every module that holds the
original by name, since modules import each other's functions directly
(`from .point import add`). Each wrapper counts its calls. A call that
crosses from one layer into another (or from the benchmark into the first
layer) also records a span: its function name, start, end, the span it ran
inside, and the job it belongs to. Calls within one layer only count, so a
span covers one stay in its layer and its self time is its duration minus
that of its child spans.

Spans are kept in memory in flat arrays and written out by `save()`.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "structure", "count", "zeta", "divpoly", "curve", "point", "poly",
          "field", "intutil")

# operators through which other layers do field, polynomial and point work
_DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__pow__", "__call__"}
# Point.__post_init__ runs once per Point built and re-checks the curve equation
_EXTRA_METHODS = {("Point", "__post_init__")}

# work counts: metric name -> wrapped function names whose calls it sums
WORK_COUNTS = {
    "point.add": ["point.add"],
    "point.scalar_mul": ["point.scalar_mul"],
    "point.constructed": ["point.Point.__post_init__"],
    "field.mul": ["field.FieldElement.__mul__"],
    "field.inverse": ["field.FieldElement.inverse"],
    "field.sqrt": ["field.square_root"],
    "curve.discriminant": ["curve.discriminant"],
    "count.random_point": ["count.random_point"],
    "count.point_order": ["count.point_order"],
    "intutil.factorize": ["intutil.factorize"],
    "poly.roots": ["poly.Poly.roots"],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []       # function id -> "layer.qualname"
        self.fn_layer: list[int] = []    # function id -> layer index
        self.calls: list[int] = []       # function id -> calls (all callers)
        self.starts = array("d")
        self.ends = array("d")
        self.span_fn = array("i")
        self.parents = array("i")
        self.jobs = array("i")
        # current span, current layer, current job
        self.state = [-1, -1, -1]
        # elements yielded by FieldSpec.elements; sum of OrderResult.ops;
        # random_point nesting depth, square roots inside it, points returned
        self.tally = {"elements": 0, "bsgs_ops": 0, "rp_depth": 0, "rp_sqrt": 0,
                      "rp_points": 0}
        self.modules = {}

    # -- wrapping ----------------------------------------------------------

    def _span_wrapper(self, fn, layer: int, name: str):
        fid = len(self.names)
        self.names.append(name)
        self.fn_layer.append(layer)
        self.calls.append(0)
        calls, state = self.calls, self.state
        starts, ends, span_fn = self.starts, self.ends, self.span_fn
        parents, jobs = self.parents, self.jobs
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[fid] += 1
            if state[1] == layer:
                return fn(*args, **kwargs)
            outer_span, outer_layer = state[0], state[1]
            idx = len(starts)
            starts.append(0.0)
            ends.append(0.0)
            span_fn.append(fid)
            parents.append(outer_span)
            jobs.append(state[2])
            state[0], state[1] = idx, layer
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                state[0], state[1] = outer_span, outer_layer

        return functools.update_wrapper(wrapper, fn)

    def _generator_wrapper(self, fn, name: str):
        """FieldSpec.elements is lazy: count its items, open no span (the
        consumer's layer pays for the iteration)."""
        fid = len(self.names)
        self.names.append(name)
        self.fn_layer.append(-1)
        self.calls.append(0)
        calls, tally = self.calls, self.tally

        def wrapper(*args, **kwargs):
            calls[fid] += 1
            for item in fn(*args, **kwargs):
                tally["elements"] += 1
                yield item

        return functools.update_wrapper(wrapper, fn)

    def _hooked(self, name: str, wrapper):
        tally = self.tally
        if name == "count.bsgs_order":
            def hooked(*args, **kwargs):
                res = wrapper(*args, **kwargs)
                tally["bsgs_ops"] += res.ops or 0
                return res
        elif name == "count.random_point":
            def hooked(*args, **kwargs):
                tally["rp_depth"] += 1
                try:
                    res = wrapper(*args, **kwargs)
                finally:
                    tally["rp_depth"] -= 1
                tally["rp_points"] += 1
                return res
        elif name == "field.square_root":
            def hooked(*args, **kwargs):
                if tally["rp_depth"]:
                    tally["rp_sqrt"] += 1
                return wrapper(*args, **kwargs)
        else:
            return wrapper
        return functools.update_wrapper(hooked, wrapper)

    def _wrap(self, fn, layer: int, name: str):
        if inspect.isgeneratorfunction(fn):
            return self._generator_wrapper(fn, name)
        return self._hooked(name, self._span_wrapper(fn, layer, name))

    def install(self):
        """Wrap every layer and rebind the wrappers wherever the originals
        are referenced by name. Call once, after importing ecgroups."""
        replace = {}
        for li, layer in enumerate(LAYERS):
            mod = importlib.import_module(f"ecgroups.{layer}")
            self.modules[layer] = mod
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, li, layer, replace)
                elif callable(obj) and id(obj) not in replace:
                    replace[id(obj)] = self._wrap(obj, li, f"{layer}.{name}")
        for modname, mod in list(sys.modules.items()):
            if modname == "ecgroups" or modname.startswith("ecgroups."):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in replace and not inspect.isclass(obj):
                        setattr(mod, name, replace[id(obj)])
        self.discriminant_cache = getattr(self.modules["curve"].discriminant,
                                          "__wrapped__", None)

    def _wrap_class(self, cls, li, layer, replace):
        for name, attr in list(vars(cls).items()):
            public = not name.startswith("_")
            if isinstance(attr, staticmethod) and public:
                fn = attr.__func__
                if id(fn) not in replace:
                    replace[id(fn)] = self._wrap(fn, li, f"{layer}.{cls.__name__}.{name}")
                setattr(cls, name, staticmethod(replace[id(fn)]))
            elif inspect.isfunction(attr) and (
                    public or name in _DUNDERS or (cls.__name__, name) in _EXTRA_METHODS):
                if id(attr) not in replace:
                    replace[id(attr)] = self._wrap(attr, li, f"{layer}.{cls.__name__}.{name}")
                setattr(cls, name, replace[id(attr)])

    # -- recording ---------------------------------------------------------

    def reset(self):
        """Drop everything recorded so far (the warm-up)."""
        for arr in (self.starts, self.ends, self.span_fn, self.parents, self.jobs):
            del arr[:]
        for i in range(len(self.calls)):
            self.calls[i] = 0
        for k in self.tally:
            self.tally[k] = 0
        self._disc0 = self._disc_info()

    def set_job(self, job_id: int):
        self.state[2] = job_id

    def _disc_info(self):
        info = getattr(self.discriminant_cache, "cache_info", None)
        return info() if info else None

    # -- results -----------------------------------------------------------

    def metrics(self, n_jobs: int) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        n = len(self.starts)
        starts = np.frombuffer(self.starts, dtype=np.float64, count=n)
        ends = np.frombuffer(self.ends, dtype=np.float64, count=n)
        fns = np.frombuffer(self.span_fn, dtype=np.int32, count=n)
        parents = np.frombuffer(self.parents, dtype=np.int32, count=n)
        dur = ends - starts
        child = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        span_layer = np.asarray(self.fn_layer, dtype=np.int64)[fns] if n else fns
        out = {}
        for li, layer in enumerate(LAYERS):
            mask = span_layer == li
            out[f"{layer}.calls"] = (int(mask.sum()), "count")
            out[f"{layer}.self_s"] = (float(self_time[mask].sum()), "s")
        by_name = dict(zip(self.names, self.calls))
        for metric, names in WORK_COUNTS.items():
            out[metric] = (sum(by_name.get(nm, 0) for nm in names), "count")
        out["field.elements"] = (self.tally["elements"], "count")
        out["count.bsgs_ops"] = (self.tally["bsgs_ops"], "count")
        rp = self.tally["rp_points"]
        out["count.sqrt_per_random_point"] = (self.tally["rp_sqrt"] / rp if rp else 0.0,
                                              "ratio")
        out["field.elements_per_job"] = (self.tally["elements"] / max(n_jobs, 1), "ratio")
        before, after = self._disc0, self._disc_info()
        if before and after:
            hits = after.hits - before.hits
            lookups = hits + after.misses - before.misses
            out["curve.discriminant_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
        else:
            out["curve.discriminant_hit_ratio"] = (0.0, "ratio")
        entries, nbytes = _cache_arrays(getattr(self.modules["count"], "_chi_table", None))
        out["count.chi_tables"] = (entries, "count")
        out["count.chi_table_mb"] = (nbytes / 1e6, "MB")
        out["divpoly.tables"] = (len(getattr(self.modules["divpoly"], "_tables", {})), "count")
        return out

    def save(self, path):
        n = len(self.starts)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(LAYERS),
            fn_layer=np.array(self.fn_layer, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64, count=n),
            end=np.frombuffer(self.ends, dtype=np.float64, count=n),
            fn=np.frombuffer(self.span_fn, dtype=np.int32, count=n),
            parent=np.frombuffer(self.parents, dtype=np.int32, count=n),
            job=np.frombuffer(self.jobs, dtype=np.int32, count=n),
        )


def _cache_arrays(cached_fn):
    """(entries, bytes of numpy arrays held) of a functools.lru_cache."""
    info = getattr(cached_fn, "cache_info", None)
    if info is None:
        return 0, 0
    nbytes = 0
    for ref in gc.get_referents(cached_fn):
        if isinstance(ref, dict):
            for v in ref.values():
                if isinstance(v, np.ndarray):
                    nbytes += v.nbytes
                else:
                    nbytes += sum(r.nbytes for r in gc.get_referents(v)
                                  if isinstance(r, np.ndarray))
    return info().currsize, nbytes
