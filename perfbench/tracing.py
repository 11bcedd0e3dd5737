"""Timing wrappers around the public functions of each `dispersal` layer.

Every module binds the names it imports when it loads, so wrapping a
function means replacing every module attribute that refers to it: the
defining module (for calls inside it) and each caller, for example
`dispersal.continuation.jacobian` or `dispersal.cli.trace_branch`.
Spans (name, start, end, parent index) stay in memory until `restore`
puts the original functions back; `summarize` turns them into call
counts, inclusive times and per-layer self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = (
    "geometry",
    "model",
    "operator",
    "logistic",
    "continuation",
    "regularized",
    "verification",
    "cli",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][1] = start
                spans[idx][2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        package = importlib.import_module("dispersal")
        modules = [package] + [
            importlib.import_module(f"dispersal.{layer}") for layer in LAYERS
        ]
        for layer, module in zip(LAYERS, modules[1:]):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for target in modules:
                    for key, value in list(vars(target).items()):
                        if value is fn:
                            self._patched.append((target, key, fn))
                            setattr(target, key, traced)

    def restore(self) -> None:
        for target, key, fn in reversed(self._patched):
            setattr(target, key, fn)
        self._patched.clear()


def summarize(spans: list) -> dict:
    """Calls and inclusive seconds per function, self seconds per layer.

    A function's inclusive time counts only its outermost spans, so a
    call nested inside another call of the same function is not counted
    twice.  A layer's self time is the time of its spans minus the time
    of their child spans.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        layer_self[name.split(".", 1)[0]] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
    return {"calls": calls, "inclusive_s": inclusive, "layer_self_s": layer_self}
