"""In-memory spans recorded by the benchmark around its calls into the program.

A span has a name, a start and end in perf_counter nanoseconds, the index
of its parent span (-1 for an op's root span) and the id of the op it
belongs to. Spans nest strictly, so a stack tracks the open ones. They are
kept in flat integer arrays, a few dozen bytes each, and written out once
when the run ends.
"""
from __future__ import annotations

import gzip
import json
import time
from array import array
from pathlib import Path


class Tracer:
    """Records nested spans; use ``with tracer.span(name):`` around a call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self._stack: list[int] = []
        self._next: str = ""
        self.op_id = -1
        self.counts: dict[str, int] = {}

    def add(self, name: str, count: int) -> None:
        """Add to a named count kept beside the spans."""
        self.counts[name] = self.counts.get(name, 0) + count

    def span(self, name: str) -> Tracer:
        self._next = name
        return self

    def __enter__(self) -> None:
        name = self._next
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self._stack.append(len(self.name))
        self.name.append(nid)
        self.parent.append(self._stack[-2] if len(self._stack) > 1 else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())

    def __exit__(self, *exc) -> None:
        self.end[self._stack.pop()] = time.perf_counter_ns()

    def __len__(self) -> int:
        return len(self.name)

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration minus that of its children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        totals = dict.fromkeys(self.names, 0.0)
        for nid, ns in zip(self.name, own):
            totals[self.names[nid]] += ns / 1e9
        return totals

    def write(self, path: Path) -> None:
        """Write every span as gzipped JSON: names plus one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start_ns", "end_ns", "parent", "op"],
                    "spans": list(
                        zip(self.name, self.start, self.end, self.parent, self.op)
                    ),
                },
                f,
                separators=(",", ":"),
            )
