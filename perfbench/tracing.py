"""In-memory spans around the benchmark's calls into blbc modules.

A span records its name (``<module>.<part>``), start and end on the
``perf_counter`` clock, the index of the span that was open when it
began, and the op it belongs to.  Spans stay in memory until the run
ends; `Tracer.dump` writes them out and `Tracer.self_times` turns them
into per-layer time: a span's duration minus the time its direct child
spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class Tracer:
    """Span recorder for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self.spans.append(record)
        self._stack.append(idx)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, op: int) -> dict[str, float]:
        """Summed self time per span name over the spans of one op."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["op"] == op and s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for idx, s in enumerate(self.spans):
            if s["op"] == op:
                out[s["name"]] += s["end"] - s["start"] - child_time[idx]
        return dict(out)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n", encoding="utf-8")
