"""In-memory spans around the benchmark's calls into semistream.

Spans are kept in a list while the run goes and written once at the end
as Chrome trace-event JSON, which Perfetto and chrome://tracing open.
The benchmark drives the program from one thread, so one stack of open
spans gives every span its parent.
"""
from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    frame: int | None
    args: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    """Records one Span per `with tracer.span(name, **args)` block."""

    def __init__(self):
        self.spans: list[Span] = []
        self.frame: int | None = None
        self._open: list[int] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, **args):
        sid = next(self._ids)
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.frame, args))

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write_chrome(self, path: Path) -> None:
        t0 = min((s.start_ns for s in self.spans), default=0)
        events = [{
            "name": s.name, "ph": "X", "pid": 1, "tid": 1,
            "ts": (s.start_ns - t0) / 1e3, "dur": (s.end_ns - s.start_ns) / 1e3,
            "args": {"id": s.id, "parent": s.parent, "frame": s.frame, **s.args},
        } for s in sorted(self.spans, key=lambda s: s.start_ns)]
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


class NullTracer:
    """Stands in for Tracer in the untraced run: records nothing."""

    frame = None

    def span(self, name: str, **args):
        return nullcontext()
