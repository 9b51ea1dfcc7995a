"""Layer-boundary spans, kept in memory and written as Chrome trace-event
JSON (open the file in chrome://tracing or https://ui.perfetto.dev).

The benchmark records spans around its own calls into each layer; the
program is not instrumented.  A span's *self time* is its duration minus
the part its child spans cover.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "args")

    def __init__(self, span_id: int, name: str, parent: Optional[int],
                 args: Dict[str, object]) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = self.start
        self.args = args

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **args) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, parent, dict(args))
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_seconds(self, span: Span) -> float:
        return span.seconds - sum(s.seconds for s in self.spans
                                  if s.parent == span.id)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def write_chrome(self, path: Path) -> None:
        """Complete ("X") events in microseconds from the first span; the
        span and parent ids ride in ``args`` so tools can rebuild the
        tree."""
        origin = min((s.start for s in self.spans), default=0.0)
        pid = os.getpid()
        events = []
        for s in self.spans:
            args = dict(s.args)
            args.update(span=s.id, parent=s.parent,
                        self_us=round(self.self_seconds(s) * 1e6, 3))
            events.append({"name": s.name, "cat": s.name.split(".")[0],
                           "ph": "X", "pid": pid, "tid": 1,
                           "ts": round((s.start - origin) * 1e6, 3),
                           "dur": round(s.seconds * 1e6, 3), "args": args})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}) + "\n")
