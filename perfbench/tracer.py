"""In-memory span tracer for the benchmark's traced runs.

A span records (id, name, op, parent, start, end) around one call the
benchmark makes into a module of the package.  Callables that the package
calls once per simulation step (``Potential.grad``, ``DriftField.eval``,
the observable ``f``) would produce millions of spans, so they are rolled
up instead: one record per (parent, name) with a call count and the summed
duration.  Rolled-up calls are children of the span (or roll-up) that was
open when they ran, so nesting such as ``DriftField.eval -> Potential.grad``
is kept.  Everything stays in memory until ``to_json`` at the end of a run.

All clocks are ``time.perf_counter``, which is the system-wide monotonic
clock on Linux, so spans measured in a child process can be added as they
are.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class NullTracer:
    """Tracing switched off: spans cost one generator, callables are untouched."""

    enabled = False

    @contextmanager
    def span(self, name, **attrs):
        yield attrs

    def wrap(self, name, fn):
        return fn


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.rollups: dict[tuple, list] = {}  # (parent, name) -> [id, count, total_s, op]
        self._stack: list = [None]
        self._op = None
        self._next_id = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _open(self, name, attrs):
        sid = self._new_id()
        if name == "op":
            self._op = sid
        return {"id": sid, "name": name, "op": self._op,
                "parent": self._stack[-1], "attrs": attrs}

    @contextmanager
    def span(self, name, **attrs):
        rec = self._open(name, attrs)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def add(self, name, start, end, **attrs):
        """Record a span measured elsewhere (e.g. in a child process)."""
        rec = self._open(name, attrs)
        rec["start"], rec["end"] = start, end
        self.spans.append(rec)

    def wrap(self, name, fn):
        """Return ``fn`` with its calls rolled up under the open span."""
        stack, rollups, clock = self._stack, self.rollups, time.perf_counter

        def traced(*args, **kwargs):
            key = (stack[-1], name)
            rec = rollups.get(key)
            if rec is None:
                rec = rollups[key] = [self._new_id(), 0, 0.0, self._op]
            stack.append(rec[0])
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] += clock() - t0
                rec[1] += 1
                stack.pop()

        return traced

    # -- queries -------------------------------------------------------------

    def named(self, name) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def rollup_records(self) -> list[dict]:
        return [{"id": rid, "parent": parent, "name": name, "op": op,
                 "count": count, "total_s": total}
                for (parent, name), (rid, count, total, op) in self.rollups.items()]

    def direct_rollups(self, parent_id) -> list[dict]:
        return [r for r in self.rollup_records() if r["parent"] == parent_id]

    def subtree_rollups(self, parent_id) -> list[dict]:
        """Roll-ups below ``parent_id`` at any depth (through nested roll-ups)."""
        records = self.rollup_records()
        out, frontier = [], {parent_id}
        while frontier:
            level = [r for r in records if r["parent"] in frontier]
            out.extend(level)
            frontier = {r["id"] for r in level}
        return out

    def self_time(self, span) -> float:
        """Span duration minus the time covered by its direct children."""
        children = sum(s["end"] - s["start"] for s in self.spans
                       if s["parent"] == span["id"])
        children += sum(r["total_s"] for r in self.direct_rollups(span["id"]))
        return span["end"] - span["start"] - children

    def to_json(self) -> dict:
        return {"spans": sorted(self.spans, key=lambda s: s["id"]),
                "rollups": self.rollup_records()}


def duration(span) -> float:
    return span["end"] - span["start"]
