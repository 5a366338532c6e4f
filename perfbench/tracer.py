"""Span tracing of eqdesign's public functions, installed from outside.

Every function a module lists in `__all__` and defines itself is wrapped,
and the wrapper is set at every module attribute that holds the original:
the defining module and each eqdesign module that imported the name. Calls
resolve names through those module globals, so `design_filter` calling
`reduce_to_rtf`, or `cmd_sweep` calling `evaluate`, go through the wrapper.
The program's code is not changed; `uninstall` puts the originals back.

A span is [name, parent index, start, end], kept in memory. Self time is a
span's duration minus the durations of its direct children; calls run on one
thread, so children nest inside their parent.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import time
import warnings

import numpy as np
from scipy.linalg import LinAlgWarning

# functions whose argument contents are digested, to count distinct inputs
DIGESTED = ("design.reduce_to_rtf",)


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for item in obj:
            _feed(h, item)
        h.update(b")")
    else:
        h.update(repr(obj).encode())


def content_digest(args, kwargs) -> str:
    h = hashlib.sha256()
    _feed(h, args)
    _feed(h, sorted(kwargs.items()))
    return h.hexdigest()


class Tracer:
    def __init__(self, modules: dict):
        """modules maps a short layer name ('design') to its module."""
        self.modules = modules
        self.spans: list[list] = []
        self.digests: dict[str, set] = {name: set() for name in DIGESTED}
        self.distinct: dict[str, int] = {name: 0 for name in DIGESTED}
        self.linalg_warnings = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        digests = self.digests.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, time.perf_counter(), 0.0])
            stack.append(idx)
            try:
                if digests is not None:
                    digests.add(content_digest(args, kwargs))
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter()

        return traced

    def install(self) -> None:
        wrappers = {}
        for short, mod in self.modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def end_round(self) -> None:
        """Close a round: distinct inputs are counted within each round, so
        repeating identical rounds leaves distinct-per-call unchanged."""
        for name, seen in self.digests.items():
            self.distinct[name] += len(seen)
            seen.clear()

    def call(self, fn, *args):
        """Run fn(*args), counting scipy LinAlgWarnings raised inside it."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", LinAlgWarning)
            result = fn(*args)
        self.linalg_warnings += sum(issubclass(w.category, LinAlgWarning) for w in caught)
        return result

    def layers(self) -> dict[str, dict]:
        """Per function: calls, inclusive seconds (outermost spans of that
        name only, so recursion is not counted twice) and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, parent, start, end) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[idx]
            if not self._has_ancestor(parent, name):
                row["s"] += end - start
        for name, count in self.distinct.items():
            if name in out:
                out[name]["distinct"] = count
        return out

    def _has_ancestor(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False
