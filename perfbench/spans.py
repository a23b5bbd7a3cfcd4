"""In-memory spans around the benchmark's calls into qtrellis.

A span has a name, a start, an end, a parent and free-form attributes.
Spans are kept in memory and written out once, at the end of a run.  A
disabled tracer hands out one shared no-op context, so an untraced run
pays a method call per span and records nothing.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_OFF = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "attrs", "index")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent, self.attrs])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._stack.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self._stack: list[int] = []

    def span(self, name: str, **attrs):
        return _Span(self, name, attrs) if self.enabled else _OFF

    def durations(self, name: str, **match) -> list[float]:
        """Durations of the closed spans called ``name`` whose attributes match."""
        return [
            end - start
            for n, start, end, _, attrs in self.spans
            if n == name and end is not None and all(attrs.get(k) == v for k, v in match.items())
        ]

    def total(self, name: str, **match) -> float:
        return sum(self.durations(name, **match))

    def export(self) -> dict:
        """Spans plus per-name totals of duration and self time.

        A span's self time is its duration minus the time its children
        cover; children of one span never overlap, so that is the sum of
        their durations.
        """
        t0 = self.spans[0][1] if self.spans else 0.0
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        by_name: dict[str, dict] = {}
        rows = []
        for i, (name, start, end, parent, attrs) in enumerate(self.spans):
            end = start if end is None else end
            self_s = (end - start) - child_time[i]
            agg = by_name.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += self_s
            rows.append(
                {
                    "name": name,
                    "start_s": start - t0,
                    "end_s": end - t0,
                    "parent": parent,
                    "self_s": self_s,
                    **attrs,
                }
            )
        return {"by_name": by_name, "spans": rows}
