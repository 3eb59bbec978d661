"""Outside-in tracing of the ``groupedbh`` package.

:func:`instrument` wraps every public function of the traced modules and
rebinds each wrapper under every name in every ``groupedbh`` module that
holds the original, so calls made through ``from .x import f`` are seen
too. Spans (function, start, end, parent span) are kept in memory and
written once, at the end. :func:`self_times` turns them into per-function
self time: a span's duration minus the part of it covered by its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("classification", "weights", "stepup", "simulate", "identities", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.func: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.func)
            self.func.append(fid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(float("nan"))
            self._stack.append(span)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                self._stack.pop()

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": [self.func, self.start, self.end, self.parent]}, fh)


def public_functions(module) -> list[tuple[str, object]]:
    return [
        (name, obj)
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    ]


def instrument(tracer: Tracer, package: str = "groupedbh") -> None:
    """Wrap the public functions of every traced layer, in place."""
    modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
    loaded = [
        mod
        for name, mod in list(sys.modules.items())
        if name == package or name.startswith(package + ".")
    ]
    for layer, mod in zip(LAYERS, modules):
        for name, fn in public_functions(mod):
            wrapped = tracer.wrap(f"{layer}.{name}", fn)
            for holder in loaded:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, attr, wrapped)


def self_times(func, start, end, parent) -> list[float]:
    """Per-span self time: duration minus the union of its children's
    intervals, each clipped to the parent's interval."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(func)):
        lo, hi = start[i], end[i]
        covered, reach = 0.0, lo
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            c_lo, c_hi = max(start[c], reach), min(end[c], hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                reach = c_hi
        out.append((hi - lo) - covered)
    return out


def per_function(trace: dict) -> dict[str, tuple[float, int]]:
    """name -> (total self seconds, call count) from a dumped trace."""
    func, start, end, parent = trace["spans"]
    totals = {name: [0.0, 0] for name in trace["names"]}
    for fid, s in zip(func, self_times(func, start, end, parent)):
        entry = totals[trace["names"][fid]]
        entry[0] += s
        entry[1] += 1
    return {name: (t, c) for name, (t, c) in totals.items()}
