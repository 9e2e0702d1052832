"""In-memory span tracer that wraps spikefusion entry points from outside.

Each wrapped call records one span ``[name, start, end, parent]``; spans stay
in memory until :meth:`Tracer.dump` writes them out.  A layer's self time is
its spans' duration minus the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextlib.contextmanager
    def region(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, n: float = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def maximum(self, key: str, value: float):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace ``owner.attr`` by a spanning wrapper until :meth:`unwrap_all`.

        ``before(args, kwargs)`` runs ahead of the span and ``after(args,
        kwargs, result)`` after it, so hook work is not billed to the layer.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            with self.region(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap_all(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in milliseconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            totals[name] = totals.get(name, 0.0) + 1000.0 * (end - start - child)
        return totals

    def dump(self, path: str):
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[name, round(start - origin, 7), round(end - origin, 7), parent]
                for name, start, end, parent in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh)
