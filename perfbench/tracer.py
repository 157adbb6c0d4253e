"""Span tracing of the cemix package, installed from outside.

`Tracer.install()` replaces every public function bound in a loaded
`cemix.*` module, and every public method of a class defined there, with a
wrapper that records one span per call.  A span's layer is the module that
defines the callable (`__module__`), so a layer's numbers survive code
moving between functions of that module.  Spans stay in memory; `write_jsonl`
writes them out when the run ends.

Exact counts are taken at the same boundaries from call arguments and
return values (see `_count`).
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter

import numpy as np

LAYERS = ("rng", "mixture", "models", "engine", "initialization", "estimate",
          "numerics", "experiments")

# Functions whose self time is reported on its own, as (layer, name).  A
# function's figure also takes the self time of the helpers of its own layer
# that it calls, unless they are named here themselves; so likelihood_ratio
# includes log_mixture_density, and a payoff includes terminal_prices.
FUNCTIONS = (
    ("mixture", "sample_mixture"),
    ("mixture", "likelihood_ratio"),
    ("mixture", "posterior"),
    ("engine", "mixture_update"),
    ("engine", "surrogate_objective"),
    ("estimate", "is_estimate"),
    ("models", "payoff"),
)

# experiments' calls into these (layer, name) pairs give the phase times;
# None matches every function of the layer
PHASES = (
    ("init", "initialization", None),
    ("ce", "engine", "run_ce"),
    ("final_is", "estimate", "is_estimate"),
    ("baseline", "estimate", "plain_mc_estimate"),
)

_LOGJOINT = {"likelihood_ratio", "posterior", "log_mixture_density"}
_UPDATES = {"mixture_update", "basic_update"}

# span record fields, kept as a list for speed
_NAME, _LAYER, _FUNC, _START, _END, _PARENT, _ROW = range(7)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(x) -> int:
    shape = np.shape(x)
    return shape[0] if len(shape) == 2 else 1


class Tracer:
    """Records spans and counts for calls into the cemix package."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.row = None
        self.wrapped = set()   # (layer, name) of every installed wrapper
        self._stack = []
        self._restore = []     # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the public callables of every loaded cemix module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cemix" or name.startswith("cemix.")]
        wrappers, classes = {}, set()
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and _layer(obj):
                    if obj not in wrappers:
                        wrappers[obj] = self._wrap(obj)
                    self._replace(module, attr, wrappers[obj])
                elif (isinstance(obj, type) and _layer(obj) and obj not in classes
                        and not issubclass(obj, BaseException)):
                    classes.add(obj)
                    self._wrap_methods(obj)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_methods(self, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, types.FunctionType):
                self._replace(cls, attr, self._wrap(obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._replace(cls, attr, type(obj)(self._wrap(obj.__func__)))

    def _wrap(self, fn):
        layer = _layer(fn)
        name = f"{layer}.{fn.__qualname__}"
        func = fn.__name__
        self.wrapped.add((layer, func))
        spans, stack, count = self.spans, self._stack, self._count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, layer, func, 0.0, 0.0, parent, self.row]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                stack.pop()
            count(func, spans[parent] if parent is not None else None,
                  args, kwargs, result)
            return result

        return wrapper

    # -- counts -------------------------------------------------------------

    def _count(self, func, parent, args, kwargs, result):
        parent_layer = parent[_LAYER] if parent else None
        parent_func = parent[_FUNC] if parent else None
        c = self.counts
        if func == "sample_mixture":
            n, d = result.x.shape
            c["mixture.rows_drawn"] += n
            c["mixture.coords_drawn"] += n * d
            if parent_layer == "estimate":
                c["estimate.chunks"] += 1
        elif func in _LOGJOINT and parent_layer != "mixture":
            c["mixture.logjoint_rows"] += _rows(_arg(args, kwargs, 1, "x"))
        elif func == "payoff" and parent_layer != "models":
            c["models.payoff_rows"] += _rows(_arg(args, kwargs, 1, "x"))
        elif func in _UPDATES and parent_func not in _UPDATES:
            ev = _arg(args, kwargs, 0, "ev")
            n, d = ev.x.shape
            c["engine.updates"] += 1
            c["engine.update_nmd"] += n * ev.posteriors.shape[1] * d

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer, per-function, phase and count metrics of all spans.

        A function-level self time is None when no callable of that name
        exists in its layer any more, and reads "absent" in the report.
        """
        selfs = self_times(self.spans)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        for layer, func in FUNCTIONS:
            out[f"{layer}.{func}.self_s"] = 0.0 if (layer, func) in self.wrapped else None
        for phase, _, _ in PHASES:
            out[f"phase.{phase}_s"] = 0.0
        named = set(FUNCTIONS)
        owner = []  # the named function a span's self time counts toward
        for span, own in zip(self.spans, selfs):
            layer, func = span[_LAYER], span[_FUNC]
            parent = span[_PARENT]
            if (layer, func) in named:
                owner.append((layer, func))
            elif parent is not None and self.spans[parent][_LAYER] == layer:
                owner.append(owner[parent])
            else:
                owner.append(None)
            if layer in LAYERS:
                out[f"{layer}.self_s"] += own
                out[f"{layer}.calls"] += 1
            if owner[-1] is not None:
                out["{}.{}.self_s".format(*owner[-1])] += own
            if parent is not None and self.spans[parent][_LAYER] == "experiments":
                for phase, p_layer, p_func in PHASES:
                    if layer == p_layer and p_func in (None, func):
                        out[f"phase.{phase}_s"] += span[_END] - span[_START]
        for key in ("mixture.rows_drawn", "mixture.coords_drawn",
                    "mixture.logjoint_rows", "models.payoff_rows",
                    "engine.updates", "engine.update_nmd", "estimate.chunks"):
            out[key] = self.counts[key]
        drawn = self.counts["mixture.rows_drawn"]
        out["mixture.logjoint_per_row"] = (
            self.counts["mixture.logjoint_rows"] / drawn if drawn else 0.0)
        return out

    def write_jsonl(self, fh, pass_index):
        """One JSON object per span, in call order; ids are per pass."""
        for i, s in enumerate(self.spans):
            fh.write(json.dumps({
                "pass": pass_index, "id": i, "name": s[_NAME],
                "layer": s[_LAYER], "start": s[_START], "end": s[_END],
                "parent": s[_PARENT], "row": s[_ROW],
            }) + "\n")


def _layer(obj):
    """Layer of a callable defined in cemix, or None for anything else."""
    module = getattr(obj, "__module__", None) or ""
    return module[len("cemix."):] if module.startswith("cemix.") else None


def self_times(spans) -> list:
    """Duration of each span minus the union of its direct children's intervals.

    `spans` holds records [name, layer, func, start, end, parent, row] whose
    parent is an index into the same list, or None.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[_PARENT] is not None:
            children[s[_PARENT]].append(i)
    out = []
    for s, kids in zip(spans, children):
        start, end = s[_START], s[_END]
        covered, reach = 0.0, start
        for k in sorted(kids, key=lambda k: spans[k][_START]):
            lo = max(spans[k][_START], reach)
            hi = min(spans[k][_END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out
