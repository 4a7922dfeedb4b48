"""In-memory spans and counters recorded around the program's functions.

The benchmark patches each traced function at the name its caller looks
up (``kginfuse.pipeline.train_step``, not ``kginfuse.nlm.train_step``,
because the pipeline imports it by name). A span records its name, start,
end, parent span and operation id; a layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time its children cover inside it."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        inside = [(max(c.start, span.start), min(c.end, span.end))
                  for c in children[span.id]]
        out[span.id] = (span.end - span.start) - covered(
            (s, e) for s, e in inside if e > s)
    return out


class Tracer:
    """Spans and counters for one process, installed around module functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict = defaultdict(float)
        self.values: dict = defaultdict(list)
        self.op = ""
        self._stack: list[int] = []
        self._patches: list = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(span_id, name, self.clock(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(span_id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self.clock()

    def innermost(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self.spans[self._stack[-1]].name if self._stack else None

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[(self.op, name)] += amount

    def record(self, name: str, value: float) -> None:
        """Keep one observed value (a residual, an iteration count)."""
        self.values[(self.op, name)].append(float(value))

    def wrap(self, target: str, name: str | None, on_return=None) -> None:
        """Patch ``module.attr`` with a recording wrapper until ``unpatch``.

        name=None records no span, only what on_return does with the
        result: on_return(tracer, result, args, kwargs).
        """
        module_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                with self.span(name):
                    result = original(*args, **kwargs)
            if on_return is not None:
                on_return(self, result, args, kwargs)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def dump(self, path: str) -> None:
        """Write spans (with self time) and counters as JSON lines."""
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "span": s.name, "id": s.id, "parent": s.parent, "op": s.op,
                    "start": s.start, "end": s.end, "self": selfs[s.id],
                }) + "\n")
            for (op, name), value in sorted(self.counters.items()):
                handle.write(json.dumps({"counter": name, "op": op, "value": value}) + "\n")
            for (op, name), values in sorted(self.values.items()):
                handle.write(json.dumps({"values": name, "op": op, "list": values}) + "\n")
