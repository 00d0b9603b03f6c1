"""In-memory spans around calls into pendavg, and their self-time arithmetic.

A *span* records one call at a layer boundary: its name, start, end, the
span it ran inside, and the op it belongs to.  Calls too frequent to keep
one record each (compiled-expression evaluations, orbit formulas) are
*leaves*: their count and time are summed per name, and their time is
charged to the enclosing span as covered child time.  Counters record the
work done at the same boundaries (points, columns, panels, bytes).

A span's self time is its duration minus the time its child spans and
leaves cover.  Spans stay in memory until :meth:`Tracer.write` at the end
of a run.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# Span record fields.
NAME, START, END, PARENT, OP, LEAF_S = range(6)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.op = -1
        self.leaf_calls = defaultdict(int)
        self.leaf_s = defaultdict(float)
        self.counts = defaultdict(float)

    def begin(self, name):
        record = [name, self.clock(), None, self.stack[-1] if self.stack else -1, self.op, 0.0]
        self.spans.append(record)
        self.stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self.stack.pop()][END] = self.clock()

    def leaf(self, name, seconds):
        self.leaf_calls[name] += 1
        self.leaf_s[name] += seconds
        if self.stack:
            self.spans[self.stack[-1]][LEAF_S] += seconds

    def count(self, name, amount=1):
        self.counts[name] += amount

    def wrap(self, name, fn, note=None):
        """``fn`` inside a span; ``note(tracer, args, kwargs, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if note is not None:
                note(self, args, kwargs, result)
            return result

        return traced

    def wrap_leaf(self, name, fn, note=None):
        """``fn`` summed as a leaf; ``note(tracer, args, kwargs)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leaf(name, self.clock() - start)
                if note is not None:
                    note(self, args, kwargs)

        return traced

    def self_times(self):
        """Self time of every span, in record order."""
        covered = [span[LEAF_S] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        return [span[END] - span[START] - c for span, c in zip(self.spans, covered)]

    def totals(self):
        """Per span name: calls, total seconds and self seconds; leaves included."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for span, self_s in zip(self.spans, self.self_times()):
            entry = out[span[NAME]]
            entry[0] += 1
            entry[1] += span[END] - span[START]
            entry[2] += self_s
        for name, calls in self.leaf_calls.items():
            out[name] = [calls, self.leaf_s[name], self.leaf_s[name]]
        return dict(out)

    def write(self, path):
        """Spans as CSV: id, name, start, end, parent, op, self seconds."""
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("id,name,start,end,parent,op,self_s\n")
            for i, (span, self_s) in enumerate(zip(self.spans, self.self_times())):
                handle.write(
                    f"{i},{span[NAME]},{span[START]:.9f},{span[END]:.9f},"
                    f"{span[PARENT]},{span[OP]},{self_s:.9f}\n"
                )
