"""In-memory span recorder for the traced pass.

Spans are recorded by the harness around calls into the program's public
functions (nothing under ``src/`` is instrumented), kept in memory, and
written once at exit as Chrome trace-event JSON (open in Perfetto or
``chrome://tracing``).  A span's *self time* is its duration minus the part
of that interval its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    #: Counts recorded at the same boundary (rows, probes, requests ...).
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Records nested spans per thread; ``enabled=False`` records nothing
    (the untraced pass runs the same workload code through a disabled
    recorder, so both passes execute identical harness statements)."""

    def __init__(self, workload: str, enabled: bool = True) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **counts: float) -> Iterator[dict]:
        """Time the enclosed block.  Yields the span's ``counts`` dict so
        the caller can add counts known only at the closing boundary."""
        if not self.enabled:
            yield counts
            return
        stack = self._stack()
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0,
                    stack[-1] if stack else None,
                    threading.get_ident(), counts)
        self.spans.append(span)
        stack.append(index)
        try:
            yield counts
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def current(self) -> int | None:
        """Index of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if self.enabled and stack else None

    def add(self, name: str, start: float, end: float,
            parent: int | None, **counts: float) -> None:
        """Record a span whose boundaries were observed elsewhere (a
        request timed from its due time to its done-callback)."""
        if self.enabled:
            self.spans.append(Span(name, start, end, parent,
                                   threading.get_ident(), counts))

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end))
        out = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            reach = span.start
            for start, end in sorted(children.get(index, ())):
                start, end = max(start, reach), min(end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(span.duration - covered)
        return out

    def breakdown(self) -> list[dict]:
        """One row per span name: calls, total and self seconds, ordered
        by self time — the per-workload stage table."""
        rows: dict[str, dict] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            row = rows.setdefault(
                span.name, {"name": span.name, "calls": 0,
                            "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += self_s
        return sorted(rows.values(), key=lambda r: -r["self_s"])

    def write_chrome_trace(self, path: Path) -> None:
        if not self.spans:
            return
        t0 = min(s.start for s in self.spans)
        threads: dict[int, int] = {}
        events = []
        for index, span in enumerate(self.spans):
            tid = threads.setdefault(span.thread, len(threads) + 1)
            events.append({
                "name": span.name, "ph": "X", "pid": 1, "tid": tid,
                "ts": (span.start - t0) * 1e6,
                "dur": span.duration * 1e6,
                "args": {"workload": self.workload, "id": index,
                         "parent": span.parent, **span.counts},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}))
