"""In-memory spans around the benchmark's calls into the program's layers.

A span is ``(name, start, end, parent, op)``: ``start`` and ``end`` come from
``time.perf_counter``, ``parent`` is the index of the span that caused it (-1
for none) and ``op`` is the id of the benchmark op it belongs to.  Calls made
inside a traced call nest under it; calls replayed after a composite call on
the same inputs are attached to the composite's span with ``under``.  A
layer's self time is its span's duration minus the durations of its children.

Spans stay in memory until ``write`` dumps them at the end of a run.
"""

from __future__ import annotations

import contextlib
import gzip
import time


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    enabled = False
    last = -1

    def next_op(self) -> None:
        pass

    def call(self, name, fn, *args):
        return fn(*args)

    def under(self, span: int):
        return contextlib.nullcontext()

    def count(self, name: str, value: float) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, list] = {}
        self.op = 0
        self.last = -1
        self._parent = -1

    def next_op(self) -> None:
        self.op += 1

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` inside a span named ``name``."""
        index = len(self.spans)
        self.spans.append(None)
        parent, self._parent = self._parent, index
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._parent = parent
            self.spans[index] = (name, start, end, parent, self.op)
            self.last = index

    @contextlib.contextmanager
    def under(self, span: int):
        """Attach the spans recorded in this block to ``span``."""
        parent, self._parent = self._parent, span
        try:
            yield
        finally:
            self._parent = parent

    def count(self, name: str, value: float) -> None:
        """Add one observation to the counter ``name`` (sum, count, max)."""
        entry = self.counters.get(name)
        if entry is None:
            self.counters[name] = [value, 1, value]
        else:
            entry[0] += value
            entry[1] += 1
            entry[2] = max(entry[2], value)

    def summary(self) -> Summary:
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        by_name: dict[str, list] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = by_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - children[index]
        return Summary(by_name, self.counters)

    def write(self, path: str) -> None:
        """Dump every span as gzip-compressed CSV, times in microseconds."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("span,name,start_us,end_us,parent,op\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(
                    f"{index},{name},{(start - origin) * 1e6:.3f},"
                    f"{(end - origin) * 1e6:.3f},{parent},{op}\n"
                )


class Summary:
    """Per-name call counts, total and self times, and counters of one trace."""

    def __init__(self, spans: dict[str, list], counters: dict[str, list]):
        self.spans = spans
        self.counters = counters

    def calls(self, prefix: str) -> int:
        return sum(v[0] for k, v in self.spans.items() if _matches(k, prefix))

    def total_us(self, prefix: str) -> float:
        return 1e6 * sum(v[1] for k, v in self.spans.items() if _matches(k, prefix))

    def self_us(self, prefix: str) -> float:
        return 1e6 * sum(v[2] for k, v in self.spans.items() if _matches(k, prefix))

    def mean_us(self, prefix: str) -> float:
        return self.total_us(prefix) / self.calls(prefix)

    def counter_sum(self, name: str) -> float:
        return self.counters[name][0]

    def counter_mean(self, name: str) -> float:
        return self.counters[name][0] / self.counters[name][1]

    def counter_max(self, name: str) -> float:
        return self.counters[name][2]

    def to_document(self) -> dict:
        return {
            "spans": {
                name: {"calls": calls, "total_us": 1e6 * total, "self_us": 1e6 * own}
                for name, (calls, total, own) in sorted(self.spans.items())
            },
            "counters": {
                name: {"sum": total, "n": n, "max": high}
                for name, (total, n, high) in sorted(self.counters.items())
            },
        }


def _matches(name: str, prefix: str) -> bool:
    """``prefix`` names one span, or with a trailing ``.*`` a family."""
    if prefix.endswith(".*"):
        return name.startswith(prefix[:-1])
    return name == prefix
