"""Spans around the calls that cross trihex's layer boundaries, recorded from outside.

`Tracer.install` rebinds names in the package's modules: every function or
module of one layer that another layer imported is replaced by a wrapper
that records a span (name, start, end, parent) and calls through.  Calls
inside one layer stay unwrapped, except the few in `INTERNAL` that the
per-layer metrics need (`canonical_rep` reaches `orbit`, and `build`
reaches `faces`, from inside their own modules).  Spans go to flat arrays
while the commands run and are reduced to per-name totals at the end.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
import types
from array import array

LAYERS = ("numtheory", "signature", "counting", "enumeration", "graph", "cli")
INTERNAL = {"signature": ("orbit",), "graph": ("faces",)}
# Spans whose tracemalloc peak is kept; the scans allocate ~16 B per residue.
MEMORY_SPANS = ("numtheory.solve_fast", "numtheory.solve_naive")


def _traceable(value) -> bool:
    return (
        callable(value)
        and not isinstance(value, type)
        and getattr(value, "__module__", "").startswith("trihex.")
        and not value.__name__.startswith("_")
    )


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.originals: dict[str, object] = {}
        self.solve_peak = 0
        self._wrappers: dict[int, object] = {}

    def wrap(self, span: str, fn):
        """Return fn wrapped so that each call records one span named `span`."""
        nid = len(self.names)
        self.names.append(span)
        self.originals[span] = fn
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        if span not in MEMORY_SPANS:
            return traced

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return traced(*args, **kwargs)
            finally:
                self.solve_peak = max(self.solve_peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    def _wrapper_for(self, fn):
        key = id(fn)
        if key not in self._wrappers:
            layer = fn.__module__.rsplit(".", 1)[1]
            self._wrappers[key] = self.wrap(f"{layer}.{fn.__name__}", fn)
        return self._wrappers[key]

    def _proxy(self, module):
        """A stand-in for `module` whose public functions are traced."""
        return types.SimpleNamespace(
            **{
                k: self._wrapper_for(v) if _traceable(v) and v.__module__ == module.__name__ else v
                for k, v in vars(module).items()
            }
        )

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"trihex.{layer}") for layer in LAYERS}
        layer_names = {mod.__name__ for mod in modules.values()}
        originals = {layer: dict(vars(mod)) for layer, mod in modules.items()}
        for layer, mod in modules.items():
            for attr, value in originals[layer].items():
                if isinstance(value, types.ModuleType) and value.__name__ in layer_names:
                    setattr(mod, attr, self._proxy(value))
                elif _traceable(value) and value.__module__ in layer_names - {mod.__name__}:
                    setattr(mod, attr, self._wrapper_for(value))
        for layer, attrs in INTERNAL.items():
            for attr in attrs:
                setattr(modules[layer], attr, self._wrapper_for(originals[layer][attr]))

    def summary(self) -> dict:
        """Calls, total and self seconds per span name; self = duration minus children."""
        n = len(self.start)
        durations = [self.end[i] - self.start[i] for i in range(n)]
        children = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children[p] += durations[i]
        spans: dict[str, dict] = {}
        for i in range(n):
            entry = spans.setdefault(self.names[self.name[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += durations[i]
            entry["self_s"] += durations[i] - children[i]
        verify_id = self.names.index("enumeration.verify") if "enumeration.verify" in self.names else -1
        factorize = self.originals.get("numtheory.factorize")
        info = factorize.cache_info() if factorize is not None else None
        return {
            "spans": spans,
            "verify_item_ms": [1000 * durations[i] for i in range(n) if self.name[i] == verify_id],
            "factorize_cache": [info.hits, info.misses] if info else [0, 0],
            "solve_peak_mib": self.solve_peak / 2**20,
        }
