"""Telemetry: counters, gauges, latency histograms, and span traces.

The observability layer behind training and serving.  Every hot
subsystem (`CollapsedGibbsSampler`, `FoldInEngine`, `ParallelFoldIn`,
`ModelRegistry`, `InferenceSession`) takes ``recorder=None`` and runs
with the zero-overhead :data:`NULL_RECORDER` by default; pass an
:class:`InMemoryRecorder` to collect metrics and read them back with
``snapshot()`` (plain dicts, exact p50/p95/p99 quantiles of the raw
samples).  Instrumentation never touches RNG streams: outputs are
bit-identical with and without a recorder, and the enabled-recorder
overhead on the fold-in workload is gated at <= 5% by
``benchmarks/test_bench_telemetry_overhead.py``.

Typical wiring::

    from repro.telemetry import InMemoryRecorder, JsonlTraceWriter

    rec = InMemoryRecorder(trace=JsonlTraceWriter("spans.jsonl"))
    session = InferenceSession(model, recorder=rec)
    session.infer(["new document ..."])
    print(rec.snapshot()["histograms"]["serving.request_seconds"])
"""

from repro.telemetry.recorder import (
    NULL_RECORDER,
    Histogram,
    InMemoryRecorder,
    NullRecorder,
    Recorder,
    Span,
    ensure_recorder,
)
from repro.telemetry.trace import JsonlTraceWriter

__all__ = [
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "InMemoryRecorder",
    "Histogram",
    "Span",
    "JsonlTraceWriter",
    "ensure_recorder",
]
