"""In-memory span tracer for the benchmark's traced replicas.

The replicas wrap one span around each call they make into a layer of
the library; nothing under ``src/`` is instrumented.  A span records
its name, start, end, parent span and request id.  Spans stay in memory
while the workload runs and are written out as JSON lines once it ends,
so tracing does no I/O on the measured path.

Self time is a span's duration minus the time its direct children
cover.  Because every layer call sits inside a root span (one request,
or one fit), the self times of a root's subtree sum to the root's
duration; the root's own self time is the ``unattributed`` residual.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Iterator


class Tracer:
    """Collects nested spans from any number of threads.

    Nesting is tracked per thread, so two sender threads tracing
    concurrent requests never adopt each other's spans as parents.
    """

    def __init__(self) -> None:
        self._spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: int | None = None
             ) -> Iterator[dict]:
        """Time the enclosed block as span ``name``.

        ``request`` tags a root span; child spans inherit their
        parent's request id.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent["request"]
        with self._lock:
            span_id = next(self._ids)
        record = {"id": span_id, "name": name,
                  "parent": parent["id"] if parent is not None else None,
                  "request": request, "start": perf_counter(), "end": None}
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            stack.pop()
            with self._lock:
                self._spans.append(record)

    @property
    def spans(self) -> list[dict]:
        with self._lock:
            return sorted(self._spans, key=lambda span: span["start"])

    def durations(self, name: str) -> list[float]:
        """Durations (seconds) of every finished span called ``name``."""
        return [span["end"] - span["start"] for span in self.spans
                if span["name"] == name]

    def self_times(self) -> dict[int, float]:
        """Span id -> self time: duration minus direct children's."""
        spans = self.spans
        own = {span["id"]: span["end"] - span["start"] for span in spans}
        for span in spans:
            if span["parent"] is not None and span["parent"] in own:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def self_time_by_name(self) -> dict[str, list[float]]:
        """Span name -> self times of its spans, in start order."""
        own = self.self_times()
        grouped: dict[str, list[float]] = defaultdict(list)
        for span in self.spans:
            grouped[span["name"]].append(own[span["id"]])
        return dict(grouped)

    def root_totals(self, name: str) -> tuple[float, float]:
        """``(summed duration, summed self time)`` of the root spans
        called ``name``.

        The self times of a root's subtree add up to the root's
        duration, so the first value is what the layers plus the
        residual account for, and the second is the residual itself.
        """
        own = self.self_times()
        roots = [span for span in self.spans
                 if span["parent"] is None and span["name"] == name]
        return (sum(span["end"] - span["start"] for span in roots),
                sum(own[span["id"]] for span in roots))

    def write_jsonl(self, path: Path) -> None:
        """Write one JSON object per span, in start order."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
