"""Span tracing around the public functions of the dualpolsim layers.

:meth:`Tracer.install` replaces every public function of the layer
modules with a wrapper that records one span per call: name, start,
end, the index of the enclosing span and the exception type, if the
call raised. A function is patched in the module that defines it and in
every package module that imported it by name, so calls through either
binding are seen. :meth:`Tracer.uninstall` puts the original objects
back. Spans stay in memory until :meth:`Tracer.collect` folds them into
per-function statistics.
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

PACKAGE = "dualpolsim"

#: Modules whose public functions are traced. ``cli`` only dispatches to
#: ``harness`` and is not on the timed path.
LAYERS = ("harness", "link", "chanmodel", "correlation", "pattern")


@dataclass
class FunctionStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str | None] | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, error)

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        wrappers = {}  # id(original) -> (original, wrapper); keeps the ids alive
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def collect(self) -> dict[str, FunctionStats]:
        """Fold the recorded spans into per-function statistics and clear them.

        A span's self time is its duration minus the durations of its
        direct children, which are themselves disjoint.
        """
        if self._stack:
            raise RuntimeError("cannot collect while a traced call is open")
        spans = self.spans
        names = [s[0] for s in spans]
        start = np.array([s[1] for s in spans])
        end = np.array([s[2] for s in spans])
        parent = np.array([s[3] for s in spans], dtype=np.int64)
        duration = end - start
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested],
                                 minlength=len(spans))
        self_time = duration - child_time
        stats: dict[str, FunctionStats] = {}
        for k, name in enumerate(names):
            st = stats.setdefault(name, FunctionStats())
            st.calls += 1
            st.total_s += float(duration[k])
            st.self_s += float(self_time[k])
            st.errors += spans[k][4] is not None
        spans.clear()
        return stats
