"""Recorders: the metric sinks every instrumented subsystem writes to.

Three metric families, one protocol:

* **counters** — monotonically accumulating totals (``count``):
  documents served, tokens sampled, cache hits.  Values may be floats
  (``busy_seconds`` accumulates fractional seconds);
* **gauges** — last-write-wins instantaneous values (``gauge``):
  ``mapped_bytes`` of a sharded phi, worker-pool size;
* **histograms** — distributions of observations (``observe``), held as
  the raw samples, so ``p50``/``p95``/``p99`` are **exact** order
  statistics rather than interpolations.

plus **spans** (``span``): context-manager timers that observe their
wall-clock duration into the histogram of the same name and, when the
recorder carries a :class:`~repro.telemetry.trace.JsonlTraceWriter`,
append one JSONL trace record per span.  The clock is injectable
(``clock=``) so span timing is deterministic under test.

Every metric accepts ``**labels`` keyword dimensions; a distinct label
set is a distinct series (``serving.worker.busy_seconds{worker=1234}``).

The default everywhere is :data:`NULL_RECORDER`, whose methods are
no-ops and whose spans are a shared reusable null context manager —
instrumented code paths run draw-for-draw identically with and without
a recorder attached, because recording never touches the RNG stream
(pinned by ``tests/test_telemetry.py`` and gated at <= 5% throughput
overhead *with* a live recorder by
``benchmarks/test_bench_telemetry_overhead.py``).

:class:`InMemoryRecorder` is the process-local implementation behind
benches and tests: thread-safe, read back with
:meth:`~InMemoryRecorder.snapshot` (plain dicts).  It keeps every
histogram sample in memory for exactness, which suits bounded runs;
``reset()`` drops what a long run no longer needs.
"""

from __future__ import annotations

import math
import threading
from bisect import insort
from time import perf_counter
from typing import Any, Callable, Mapping

__all__ = ["Recorder", "NullRecorder", "NULL_RECORDER",
           "InMemoryRecorder", "Histogram", "Span", "ensure_recorder"]

#: Exact quantiles every histogram snapshot reports.
SNAPSHOT_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def _series_key(name: str, labels: Mapping[str, Any]
                ) -> tuple[str, tuple[tuple[str, str], ...]]:
    """Hashable identity of one labeled series."""
    if not labels:
        return name, ()
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def render_key(key: tuple[str, tuple[tuple[str, str], ...]]) -> str:
    """``name`` or ``name{k=v,...}`` — the snapshot's series key."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Histogram:
    """Latency/size histogram with exact quantiles.

    Observations are kept as a sorted sample list, so ``quantile(q)``
    is the nearest-rank order statistic of everything observed, with
    no interpolation error.  Not thread-safe on its own; the owning
    recorder serializes access.
    """

    __slots__ = ("_sorted", "total")

    def __init__(self) -> None:
        self._sorted: list[float] = []
        self.total = 0.0

    @property
    def count(self) -> int:
        return len(self._sorted)

    @property
    def values(self) -> tuple[float, ...]:
        """All observations, ascending."""
        return tuple(self._sorted)

    def observe(self, value: float) -> None:
        value = float(value)
        insort(self._sorted, value)
        self.total += value

    def quantile(self, q: float) -> float:
        """Exact nearest-rank quantile of everything observed."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._sorted:
            raise ValueError("quantile of an empty histogram")
        rank = max(1, math.ceil(q * self.count))
        return self._sorted[rank - 1]

    def summary(self) -> dict[str, float | int]:
        """The snapshot row: count/sum/min/max/mean + exact quantiles."""
        if not self._sorted:
            return {"count": 0, "sum": 0.0}
        row: dict[str, float | int] = {
            "count": self.count,
            "sum": self.total,
            "min": self._sorted[0],
            "max": self._sorted[-1],
            "mean": self.total / self.count,
        }
        for label, q in SNAPSHOT_QUANTILES:
            row[label] = self.quantile(q)
        return row


class Span:
    """One timed region: ``with recorder.span("name") as s: ...``.

    On exit the duration (by the recorder's clock) is observed into the
    histogram ``name`` and, when the recorder has a trace writer, one
    JSONL record ``{"name", "start", "duration", "labels"}`` is
    appended.  Reentrant use of the same *recorder* is fine; a single
    ``Span`` object times one region at a time.
    """

    __slots__ = ("_recorder", "name", "labels", "start", "duration")

    def __init__(self, recorder: "InMemoryRecorder", name: str,
                 labels: Mapping[str, Any]) -> None:
        self._recorder = recorder
        self.name = name
        self.labels = dict(labels)
        self.start: float | None = None
        self.duration: float | None = None

    def __enter__(self) -> "Span":
        self.start = self._recorder.clock()
        return self

    def __exit__(self, *_exc: object) -> bool:
        self.duration = self._recorder.clock() - self.start
        self._recorder._finish_span(self)
        return False


class _NullSpan:
    """The reusable no-op span of the null recorder."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Recorder:
    """The metric-sink protocol instrumented subsystems write to.

    Subclasses implement :meth:`count`, :meth:`gauge`, :meth:`observe`
    and :meth:`span`; all take a dotted metric ``name`` plus optional
    ``**labels`` dimensions.  See the module docstring for the three
    metric families and :data:`NULL_RECORDER` for the zero-overhead
    default.
    """

    def count(self, name: str, value: float = 1, /,
              **labels: Any) -> None:
        """Add ``value`` to the counter ``name`` (monotonic total)."""
        raise NotImplementedError

    def gauge(self, name: str, value: float, /, **labels: Any) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        raise NotImplementedError

    def observe(self, name: str, value: float, /,
                **labels: Any) -> None:
        """Record one observation into the histogram ``name``."""
        raise NotImplementedError

    def span(self, name: str, /, **labels: Any):
        """A context manager timing one region into histogram ``name``."""
        raise NotImplementedError


class NullRecorder(Recorder):
    """Discards everything; the zero-overhead default.

    Every method is a no-op and :meth:`span` returns one shared
    reusable null context manager, so an instrumented hot path pays a
    single attribute lookup + call per record point.  Use the module
    singleton :data:`NULL_RECORDER` rather than constructing new ones.
    """

    __slots__ = ()

    def count(self, name: str, value: float = 1, /,
              **labels: Any) -> None:
        pass

    def gauge(self, name: str, value: float, /, **labels: Any) -> None:
        pass

    def observe(self, name: str, value: float, /,
                **labels: Any) -> None:
        pass

    def span(self, name: str, /, **labels: Any) -> _NullSpan:
        return _NULL_SPAN

    def snapshot(self) -> dict[str, dict]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_RECORDER = NullRecorder()


def ensure_recorder(recorder: Recorder | None) -> Recorder:
    """``None`` -> the shared :data:`NULL_RECORDER`; recorders pass
    through.  The canonical coercion at every ``recorder=`` parameter."""
    if recorder is None:
        return NULL_RECORDER
    if not isinstance(recorder, Recorder):
        raise TypeError(
            f"recorder must be a telemetry Recorder or None, got "
            f"{type(recorder).__name__}")
    return recorder


class InMemoryRecorder(Recorder):
    """Thread-safe in-process recorder with a plain-dict snapshot.

    Parameters
    ----------
    clock:
        Zero-argument callable returning monotonic seconds; spans time
        with it.  Defaults to :func:`time.perf_counter`; tests inject a
        fake for deterministic durations.
    trace:
        Optional :class:`~repro.telemetry.trace.JsonlTraceWriter` (or
        anything with a ``write(record: dict)`` method); every finished
        span appends one record.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter,
                 trace: Any = None) -> None:
        self.clock = clock
        self.trace = trace
        self._lock = threading.Lock()
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._histograms: dict[tuple, Histogram] = {}

    # ------------------------------------------------------------- sinks
    def count(self, name: str, value: float = 1, /,
              **labels: Any) -> None:
        key = _series_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) \
                + float(value)

    def gauge(self, name: str, value: float, /, **labels: Any) -> None:
        key = _series_key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float, /,
                **labels: Any) -> None:
        key = _series_key(name, labels)
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram()
            histogram.observe(value)

    def span(self, name: str, /, **labels: Any) -> Span:
        return Span(self, name, labels)

    def _finish_span(self, span: Span) -> None:
        self.observe(span.name, span.duration, **span.labels)
        if self.trace is not None:
            self.trace.write({"name": span.name, "start": span.start,
                              "duration": span.duration,
                              "labels": span.labels})

    # ----------------------------------------------------------- readout
    def counter_value(self, name: str, /, **labels: Any) -> float:
        """Current value of one counter series (0 if never written)."""
        with self._lock:
            return self._counters.get(_series_key(name, labels), 0.0)

    def counter_total(self, name: str, /) -> float:
        """Sum of a counter across all of its label series."""
        with self._lock:
            return sum(value for key, value in self._counters.items()
                       if key[0] == name)

    def counter_series(self, name: str, /) -> dict[tuple[tuple[str, str],
                                                      ...], float]:
        """``labels -> value`` for every series of counter ``name``."""
        with self._lock:
            return {key[1]: value
                    for key, value in self._counters.items()
                    if key[0] == name}

    def histogram(self, name: str, /, **labels: Any) -> Histogram | None:
        """The histogram of one series, or ``None`` if never observed."""
        with self._lock:
            return self._histograms.get(_series_key(name, labels))

    def snapshot(self) -> dict[str, dict]:
        """Plain-dict readout of everything recorded so far.

        ``{"counters": {key: value}, "gauges": {key: value},
        "histograms": {key: {count, sum, min, max, mean, p50, p95,
        p99}}}`` with series keys rendered ``name`` /
        ``name{label=value,...}``.  JSON-serializable; benches stamp it
        into their result payloads via ``record(..., telemetry=...)``.
        """
        with self._lock:
            return {
                "counters": {render_key(k): v
                             for k, v in sorted(self._counters.items())},
                "gauges": {render_key(k): v
                           for k, v in sorted(self._gauges.items())},
                "histograms": {render_key(k): h.summary()
                               for k, h in
                               sorted(self._histograms.items())},
            }

    def reset(self) -> None:
        """Drop every series, e.g. between the phases of one run."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __repr__(self) -> str:
        with self._lock:
            return (f"InMemoryRecorder(counters={len(self._counters)}, "
                    f"gauges={len(self._gauges)}, "
                    f"histograms={len(self._histograms)})")
