"""In-memory span tracing around calls the benchmark makes into fqrank.

A span is (name, start, end, parent, op): the parent is the index of the
enclosing span (-1 for a top-level span) and op is the index of the op the
span belongs to (-1 during set-up).  Spans stay in memory until the run ends;
self times are derived from them afterwards.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter


class NullTracer:
    """Calls straight through; used by the timed (untraced) runs."""

    traced = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: int) -> None:
        pass


class Tracer(NullTracer):
    """Keeps spans in flat per-field lists, which the garbage collector does
    not have to walk span by span."""

    traced = True

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counters[name] += n

    @property
    def spans(self):
        """(name, start, end, parent, op) per span, in start order."""
        return zip(self.names, self.starts, self.ends, self.parents, self.ops)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds.

    Self time is a span's duration minus the time its child spans cover;
    the benchmark is serial, so children never overlap."""
    spans = list(spans)
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child[i]
    return out


def top_level_seconds(spans) -> float:
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
