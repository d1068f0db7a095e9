"""In-memory span tracer that wraps the public functions of ``mpgraphs``.

Every public function defined in an ``mpgraphs`` module is replaced, at
every module-level name that refers to it (``mpgraphs.witness.build_crossing_graph``
as well as ``mpgraphs.crossing.build_crossing_graph``), by a wrapper that
records a span (name, start, end, parent).  Calls inside a module go
through its globals, so they are traced too.  Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` puts every original back and checks it.

A span's self time is its duration minus the durations of its direct
children, so self times add up to the traced wall time less whatever ran
outside any wrapped function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from math import comb

MODULES = ("core", "crossing", "cograph", "witness", "census", "family", "cli")
CHECKERS = ("check_zhang", "check_lower_bound", "check_replace", "check_redrawing")


def _public_functions() -> dict[int, tuple[str, object]]:
    """id(function) -> (layer name ``module.function``, function)."""
    out = {}
    for short in MODULES:
        mod = importlib.import_module(f"mpgraphs.{short}")
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                out[id(obj)] = (f"{short}.{name}", obj)
    return out


def _bindings() -> list[tuple[object, str, object]]:
    """(namespace, attribute, function) for every module-level name in the
    package that refers to a public mpgraphs function."""
    funcs = _public_functions()
    namespaces = [sys.modules["mpgraphs"]] + [sys.modules[f"mpgraphs.{m}"] for m in MODULES]
    out = []
    for ns in namespaces:
        for attr, obj in vars(ns).items():
            if id(obj) in funcs and funcs[id(obj)][1] is obj:
                out.append((ns, attr, obj))
    return out


class Tracer:
    """Records nested spans while installed.  Spans are kept as parallel
    lists; ``parents[i]`` is the index of the enclosing span or -1."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str, start: int | None = None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter_ns() if start is None else start)
        self.ends.append(0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: int | None = None) -> None:
        self._stack.pop()
        self.ends[idx] = time.perf_counter_ns() if end is None else end

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__traced_original__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        funcs = _public_functions()
        wrappers: dict[int, object] = {}
        for ns, attr, fn in _bindings():
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(funcs[id(fn)][0], fn)
            self._saved.append((ns, attr, fn))
            setattr(ns, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for ns, attr, fn in self._saved:
            setattr(ns, attr, fn)
        saved, self._saved = self._saved, []
        leftover = [
            f"{ns.__name__}.{attr}"
            for ns, attr, _ in saved
            if hasattr(getattr(ns, attr), "__traced_original__")
        ]
        if leftover or len(_bindings()) != len(saved):
            raise RuntimeError(f"wrappers left installed: {leftover}")

    # -- merging and reporting -----------------------------------------------

    def merge_child(self, child: dict, spawned: int) -> None:
        """Append the spans and counters a traced subprocess dumped (see
        trace_child.py), under a ``startup.interpreter`` span from its spawn
        to its first statement.  perf_counter_ns reads the system-wide
        monotonic clock, so the two processes' times agree."""
        idx = self.open("startup.interpreter", spawned)
        self.close(idx, child["t0"])
        base = len(self.names)
        self.names.extend(child["names"])
        self.starts.extend(child["starts"])
        self.ends.extend(child["ends"])
        self.parents.extend(p if p < 0 else p + base for p in child["parents"])
        for name, n in child["counters"].items():
            self.count(name, n)

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "counters": self.counters,
        }

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and total self time in ms."""
        n = len(self.names)
        child_ns = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_ns[p] += self.ends[i] - self.starts[i]
        stats: dict[str, dict[str, float]] = {}
        for i in range(n):
            s = stats.setdefault(self.names[i], {"calls": 0, "self_ms": 0.0})
            s["calls"] += 1
            s["self_ms"] += (self.ends[i] - self.starts[i] - child_ns[i]) / 1e6
        return stats

    def nested_count(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have an ``ancestor`` span above them."""
        total = 0
        for i, nm in enumerate(self.names):
            if nm != name:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] != ancestor:
                p = self.parents[p]
            total += p >= 0
        return total

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)


def _count_census(tracer: Tracer, args: tuple, result) -> None:
    G = args[0]
    tracer.count("census.subsets_examined", comb(G.m, 5) if G.m >= 5 else 0)
    tracer.count("census.witnesses_found", len(result))


# Counters taken at a layer boundary, from the call's arguments and result.
_HOOKS = {"census.enumerate_m_p10": _count_census}
