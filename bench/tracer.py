"""Tracing of graycyl from outside the library.

Both tracers wrap the public functions of each layer module (a module-level
``def`` whose name does not start with ``_``) at every place the function is
bound: its own module and every module that imported it with
``from .x import y``.  Methods, private helpers and memoised helpers are not
wrapped; their time and calls are billed to the nearest wrapped caller.

``SpanTimer`` records a span per call of the timed functions: its caller, its
duration and its self time (duration minus the time of the spans it caused).
Summed self times never count a recursive call twice.  ``CallCounter`` counts
calls of every public function, with no clock, so that wrapper overhead on the
hot table primitives stays out of the layer seconds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("theta", "dac", "nu", "gray", "intlin", "pr", "span", "cli")

# Leaf helpers called up to millions of times per workload.  The timed pass
# only counts them; their time falls into the self time of their caller.
COUNT_ONLY = frozenset({
    "nu.nu_composable", "nu.nu_compose", "nu.nu_boundary", "nu.nu_source",
    "nu.nu_target", "nu.nu_identity",
    "dac.gclean", "dac.gadd", "dac.gneg", "dac.gsub", "dac.gscale",
    "dac.is_nonneg", "dac.support", "dac.sign_split", "dac.render_name",
    "dac.render_element", "dac.point_complex",
})

# Functions whose distinct first arguments are counted, to show repeated work.
DISTINCT_ARGS = ("dac.lambda_cell", "gray.lax_shuffle_diagram")


def public_functions():
    """[(name "layer.function", function)] for every layer module."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"graycyl.{layer}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append((f"{layer}.{name}", obj))
    return out


class _Tracer:
    """Context manager that puts wrappers in place of the public functions
    at every binding site in the package, and puts the originals back."""

    def __enter__(self):
        wrapped = {id(fn): (fn, self._wrap(name, fn))
                   for name, fn in public_functions() if self._wants(name)}
        self._undo = []
        for mod in [importlib.import_module("graycyl")] + [
                importlib.import_module(f"graycyl.{layer}") for layer in LAYERS]:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, obj))
        return self

    def __exit__(self, *exc):
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        return False

    def _wants(self, name: str) -> bool:
        return True


class SpanTimer(_Tracer):
    """Spans of every public function outside COUNT_ONLY."""

    def __init__(self):
        self.edges: dict = {}            # (caller, name) -> [calls, seconds, self seconds]
        self.outermost = defaultdict(float)  # name -> seconds, recursion counted once
        self._stack: list = []           # [name, seconds of child spans]
        self._active: Counter = Counter()

    def _wants(self, name):
        return name not in COUNT_ONLY

    def _wrap(self, name, fn):
        stack, active, edges, outermost = self._stack, self._active, self.edges, self.outermost

        @functools.wraps(fn)
        def span(*args, **kwargs):
            caller = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][1] += dur
                rec = edges.get((caller, name))
                if rec is None:
                    rec = edges[(caller, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if not active[name]:
                    outermost[name] += dur
        return span

    def layer_self(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for (_, name), (_, _, self_s) in self.edges.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def root_seconds(self) -> float:
        return sum(rec[1] for (caller, _), rec in self.edges.items() if caller is None)

    def table(self) -> list:
        return [{"caller": c, "name": n, "calls": r[0], "s": r[1], "self_s": r[2]}
                for (c, n), r in sorted(self.edges.items(), key=lambda kv: -kv[1][2])]


class CallCounter(_Tracer):
    """Calls per function, calls into each layer from outside it, and the
    closure counters of ``nu.enumerate_cells``."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.entries: Counter = Counter()    # layer -> calls from another layer
        self.distinct = {name: set() for name in DISTINCT_ARGS}
        self.intlin_rows = 0
        self.nu_cells = 0                    # cells returned by the closure
        self.nu_seeds = 0                    # of which atoms and identities
        self.probed = 0                      # nu_composable calls made by the closure itself
        self.composed = 0                    # nu_compose calls made by the closure
        self._layers: list = []
        self._closure = 0
        self._compose = 0

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        layers, calls, entries = self._layers, self.calls, self.entries
        seen = self.distinct.get(name)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            if not layers or layers[-1] != layer:
                entries[layer] += 1
                if layer == "intlin":
                    self.intlin_rows += len(args[0])
            if seen is not None:
                seen.add(args[0])
            if name == "nu.nu_composable" and self._closure and not self._compose:
                self.probed += 1
            elif name == "nu.nu_compose":
                self.composed += bool(self._closure)
                self._compose += 1
            elif name == "nu.enumerate_cells":
                self._closure += 1
            layers.append(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                layers.pop()
                if name == "nu.nu_compose":
                    self._compose -= 1
                elif name == "nu.enumerate_cells":
                    self._closure -= 1
            if name == "nu.enumerate_cells":
                self._count_closure(args, kwargs, out)
            return out
        return counted

    def _count_closure(self, args, kwargs, layers):
        K = args[0] if args else kwargs["K"]
        self.nu_cells += sum(len(cells) for cells in layers)
        self.nu_seeds += sum(len(K.basis(d)) for d in range(len(layers)))
        self.nu_seeds += sum(len(cells) for cells in layers[:-1])
