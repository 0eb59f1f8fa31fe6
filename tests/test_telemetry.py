"""Tests for repro.telemetry: the recorder core (counters, gauges,
exact-quantile histograms, spans, JSONL traces, Prometheus export) and
the end-to-end instrumentation contract — recording is off by default,
costs one branch when off, and never changes a single sampled bit."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.models.lda import LdaKernel
from repro.sampling.gibbs import CollapsedGibbsSampler
from repro.sampling.state import GibbsState
from repro.serving import (FoldInEngine, InferenceSession, ModelRegistry,
                           ParallelFoldIn)
from repro.telemetry import (InMemoryRecorder, JsonlTraceWriter,
                             NullRecorder, Recorder, default_buckets,
                             ensure_recorder, sanitize_metric_name)
from repro.telemetry.recorder import NULL_RECORDER, Histogram


class FakeClock:
    """Deterministic monotonic clock: each read advances by ``step``."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


# ----------------------------------------------------------------------
# Buckets and histograms
# ----------------------------------------------------------------------
class TestBuckets:
    def test_default_ladder_is_log_spaced_thirds(self):
        bounds = default_buckets()
        assert bounds[0] == pytest.approx(1e-6)
        assert bounds[-1] == pytest.approx(1e3)
        assert len(bounds) == 28  # 9 decades * 3 + 1
        ratios = np.diff(np.log10(bounds))
        np.testing.assert_allclose(ratios, 1 / 3, atol=1e-12)

    def test_custom_range(self):
        bounds = default_buckets(low=1e-3, high=10.0, per_decade=1)
        np.testing.assert_allclose(bounds, [1e-3, 1e-2, 1e-1, 1.0, 10.0])

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="low < high"):
            default_buckets(low=1.0, high=0.5)
        with pytest.raises(ValueError, match="per_decade"):
            default_buckets(per_decade=0)


class TestHistogram:
    def test_quantiles_are_exact_order_statistics(self):
        """Quantiles come from the raw samples (nearest rank), not from
        bucket-edge interpolation — p99 of 1..100 is exactly 99."""
        h = Histogram(default_buckets())
        for value in np.random.default_rng(0).permutation(
                np.arange(1.0, 101.0)):
            h.observe(value)
        assert h.quantile(0.50) == 50.0
        assert h.quantile(0.95) == 95.0
        assert h.quantile(0.99) == 99.0
        assert h.quantile(0.0) == 1.0   # rank floor: the minimum
        assert h.quantile(1.0) == 100.0

    def test_summary_row(self):
        h = Histogram((1.0, 10.0))
        for value in (0.5, 2.0, 3.0, 20.0):
            h.observe(value)
        row = h.summary()
        assert row["count"] == 4
        assert row["sum"] == pytest.approx(25.5)
        assert row["min"] == 0.5 and row["max"] == 20.0
        assert row["mean"] == pytest.approx(25.5 / 4)
        assert row["p50"] == 2.0
        assert row["p99"] == 20.0

    def test_empty_histogram(self):
        h = Histogram((1.0,))
        assert h.summary() == {"count": 0, "sum": 0.0}
        with pytest.raises(ValueError, match="empty"):
            h.quantile(0.5)
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(1.5)

    def test_cumulative_buckets_end_at_inf_total(self):
        h = Histogram((1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 100.0):
            h.observe(value)
        rows = h.cumulative_buckets()
        assert rows == [(1.0, 2), (10.0, 3), (float("inf"), 4)]

    def test_boundary_lands_in_its_own_bucket(self):
        # le-semantics: an observation equal to a bound counts under it.
        h = Histogram((1.0, 10.0))
        h.observe(1.0)
        assert h.cumulative_buckets()[0] == (1.0, 1)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            Histogram((1.0, 1.0, 2.0))


# ----------------------------------------------------------------------
# Recorders
# ----------------------------------------------------------------------
class TestInMemoryRecorder:
    def test_counters_accumulate_per_label_series(self):
        rec = InMemoryRecorder()
        rec.count("served")
        rec.count("served", 4)
        rec.count("served", 2, worker=1)
        rec.count("served", 3, worker=2)
        assert rec.counter_value("served") == 5
        assert rec.counter_value("served", worker=1) == 2
        assert rec.counter_total("served") == 10
        assert rec.counter_series("served") == {
            (): 5.0, (("worker", "1"),): 2.0, (("worker", "2"),): 3.0}

    def test_gauges_are_last_write_wins(self):
        rec = InMemoryRecorder()
        rec.gauge("bytes", 100)
        rec.gauge("bytes", 42)
        assert rec.snapshot()["gauges"] == {"bytes": 42.0}

    def test_labels_named_name_and_value_do_not_collide(self):
        """Metric name/value are positional-only, so ``name=``/``value=``
        stay available as label dimensions (the registry labels its
        publish counter by model ``name``)."""
        rec = InMemoryRecorder()
        rec.count("publishes", name="news", value="x")
        assert rec.counter_value("publishes", name="news",
                                 value="x") == 1
        NULL_RECORDER.count("publishes", name="news")  # must not raise

    def test_snapshot_is_json_serializable_and_sorted(self):
        rec = InMemoryRecorder(clock=FakeClock())
        rec.count("b")
        rec.count("a", 2, mode="sparse")
        rec.gauge("g", 1.5)
        with rec.span("latency", mode="exact"):
            pass
        snap = rec.snapshot()
        json.dumps(snap)  # round-trips as plain data
        assert list(snap["counters"]) == ["a{mode=sparse}", "b"]
        hist = snap["histograms"]["latency{mode=exact}"]
        assert hist["count"] == 1
        assert hist["p50"] == hist["p99"] == 1.0  # one FakeClock step

    def test_reset_drops_everything(self):
        rec = InMemoryRecorder()
        rec.count("a")
        rec.gauge("b", 1)
        rec.observe("c", 2)
        rec.reset()
        assert rec.snapshot() == {"counters": {}, "gauges": {},
                                  "histograms": {}}
        assert rec.histogram("c") is None

    def test_ensure_recorder_coercion(self):
        assert ensure_recorder(None) is NULL_RECORDER
        rec = InMemoryRecorder()
        assert ensure_recorder(rec) is rec
        with pytest.raises(TypeError, match="Recorder or None"):
            ensure_recorder("prometheus")

    def test_null_recorder_is_inert_and_reuses_one_span(self):
        null = NullRecorder()
        null.count("x", 5, worker=1)
        null.gauge("y", 2)
        null.observe("z", 3)
        a, b = null.span("s"), NULL_RECORDER.span("t", mode="exact")
        assert a is b  # one shared no-op context manager
        with a:
            pass
        assert null.snapshot() == {"counters": {}, "gauges": {},
                                   "histograms": {}}
        assert isinstance(NULL_RECORDER, Recorder)


class TestSpans:
    def test_span_times_with_injected_clock(self):
        clock = FakeClock(step=0.25)
        rec = InMemoryRecorder(clock=clock)
        with rec.span("op") as span:
            pass
        assert span.start == 0.0
        assert span.duration == pytest.approx(0.25)
        assert rec.histogram("op").values == (0.25,)

    def test_nested_and_labeled_spans_are_distinct_series(self):
        rec = InMemoryRecorder(clock=FakeClock())
        with rec.span("outer"):
            with rec.span("inner", mode="sparse"):
                pass
        assert rec.histogram("outer").count == 1
        assert rec.histogram("inner", mode="sparse").count == 1
        assert rec.histogram("inner") is None  # unlabeled: never seen
        # The inner span opened and closed inside the outer one, so it
        # consumed 2 of the outer span's clock ticks.
        assert rec.histogram("outer").values[0] == pytest.approx(3.0)

    def test_exceptions_propagate_and_still_record(self):
        rec = InMemoryRecorder(clock=FakeClock())
        with pytest.raises(RuntimeError, match="boom"):
            with rec.span("op"):
                raise RuntimeError("boom")
        assert rec.histogram("op").count == 1


# ----------------------------------------------------------------------
# JSONL traces
# ----------------------------------------------------------------------
class TestJsonlTrace:
    def test_spans_append_one_json_line_each(self):
        buffer = io.StringIO()
        trace = JsonlTraceWriter(buffer)
        rec = InMemoryRecorder(clock=FakeClock(), trace=trace)
        with rec.span("a", mode="exact"):
            pass
        with rec.span("b"):
            pass
        trace.close()  # borrowed stream stays open
        lines = [json.loads(line)
                 for line in buffer.getvalue().splitlines()]
        assert lines == [
            {"name": "a", "start": 0.0, "duration": 1.0,
             "labels": {"mode": "exact"}},
            {"name": "b", "start": 2.0, "duration": 1.0, "labels": {}},
        ]
        assert trace.records_written == 2

    def test_path_target_is_owned_and_appended(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceWriter(path) as trace:
            trace.write({"name": "x"})
        with JsonlTraceWriter(path) as trace:  # append, not truncate
            trace.write({"name": "y"})
        names = [json.loads(line)["name"]
                 for line in path.read_text().splitlines()]
        assert names == ["x", "y"]

    def test_rejects_unwritable_target(self):
        with pytest.raises(TypeError, match="path or a writable"):
            JsonlTraceWriter(42)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
class TestPrometheusExport:
    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("serving.foldin.batch_seconds") \
            == "serving_foldin_batch_seconds"
        assert sanitize_metric_name("9lives") == "_9lives"
        assert sanitize_metric_name("a:b") == "a:b"

    def test_format_round_trip_sanity(self):
        """The exposition text must follow the Prometheus grammar: a
        ``# TYPE`` line per metric, ``_total`` counters, cumulative
        non-decreasing ``_bucket`` series ending at ``le="+Inf"`` equal
        to ``_count``, and a parseable ``name{labels} value`` shape on
        every sample line."""
        rec = InMemoryRecorder(buckets=(0.1, 1.0))
        rec.count("serving.requests", 3)
        rec.count("serving.worker.docs", 5, worker=101)
        rec.gauge("serving.foldin.mapped_bytes", 2048)
        for value in (0.05, 0.5, 2.0):
            rec.observe("serving.foldin.batch_seconds", value,
                        mode="sparse")
        text = rec.to_prometheus()
        assert text.endswith("\n")
        lines = text.splitlines()
        types = {line.split()[2]: line.split()[3]
                 for line in lines if line.startswith("# TYPE")}
        assert types["serving_requests_total"] == "counter"
        assert types["serving_foldin_mapped_bytes"] == "gauge"
        assert types["serving_foldin_batch_seconds"] == "histogram"
        samples = {}
        for line in lines:
            if line.startswith("#"):
                continue
            series, value = line.rsplit(" ", 1)
            samples[series] = value
        assert samples["serving_requests_total"] == "3"
        assert samples['serving_worker_docs_total{worker="101"}'] == "5"
        assert samples["serving_foldin_mapped_bytes"] == "2048"
        buckets = [int(samples[f'serving_foldin_batch_seconds_bucket'
                               f'{{mode="sparse",le="{le}"}}'])
                   for le in ("0.1", "1", "+Inf")]
        assert buckets == [1, 2, 3]  # cumulative, ending at count
        assert samples[
            'serving_foldin_batch_seconds_count{mode="sparse"}'] == "3"
        assert float(samples[
            'serving_foldin_batch_seconds_sum{mode="sparse"}']) \
            == pytest.approx(2.55)

    def test_label_values_are_escaped(self):
        rec = InMemoryRecorder()
        rec.count("hits", 1, path='say "hi"\nback\\slash')
        text = rec.to_prometheus()
        assert r'path="say \"hi\"\nback\\slash"' in text

    def test_empty_recorder_renders_empty(self):
        assert InMemoryRecorder().to_prometheus() == ""


# ----------------------------------------------------------------------
# Training instrumentation
# ----------------------------------------------------------------------
def _train(corpus, engine, recorder, sweeps=4, num_topics=5,
           make_kernel=lambda state: LdaKernel(state, alpha=0.5,
                                               beta=0.1)):
    state = GibbsState(corpus, num_topics)
    state.initialize_random(np.random.default_rng(0))
    kernel = make_kernel(state)
    sampler = CollapsedGibbsSampler(state, kernel,
                                    np.random.default_rng(1),
                                    engine=engine, recorder=recorder)
    sampler.run(sweeps)
    return state


def _bijective_source(source, corpus):
    """``(num_topics, make_kernel)`` of a bijective Source-LDA kernel,
    the one layout the alias engine has a lane for."""
    from repro.core.kernels import SourceTopicsKernel
    from repro.core.priors import SourcePrior
    from repro.sampling.integration import LambdaGrid
    prior = SourcePrior(source, corpus.vocabulary)
    grid = LambdaGrid.from_prior(0.7, 0.3, 3)
    tables = prior.grid_tables(grid.nodes)
    return prior.num_topics, lambda state: SourceTopicsKernel(
        state, num_free=0, alpha=0.5, beta=0.1, tables=tables, grid=grid)


class TestSamplerInstrumentation:
    @pytest.mark.parametrize("engine",
                             ["fast", "alias", "reference"])
    def test_recording_never_changes_the_chain(self, engine,
                                               wiki_corpus):
        """Draw-for-draw identity recorder-on vs off, per engine."""
        off = _train(wiki_corpus, engine, None)
        on = _train(wiki_corpus, engine, InMemoryRecorder())
        assert np.array_equal(off.z, on.z)
        assert np.array_equal(off.nw, on.nw)

    def test_recording_never_changes_the_alias_lane(self, wiki_source,
                                                    wiki_corpus):
        num_topics, make_kernel = _bijective_source(wiki_source,
                                                    wiki_corpus)
        off = _train(wiki_corpus, "alias", None, num_topics=num_topics,
                     make_kernel=make_kernel)
        on = _train(wiki_corpus, "alias", InMemoryRecorder(),
                    num_topics=num_topics, make_kernel=make_kernel)
        assert np.array_equal(off.z, on.z)
        assert np.array_equal(off.nw, on.nw)

    def test_sweep_counters_and_latency(self, wiki_corpus):
        rec = InMemoryRecorder()
        state = _train(wiki_corpus, "fast", rec, sweeps=3)
        assert rec.counter_value("train.sweeps", engine="fast") == 3
        assert rec.counter_value("train.tokens_sampled",
                                 engine="fast") == 3 * state.num_tokens
        hist = rec.histogram("train.sweep_seconds", engine="fast")
        assert hist.count == 3
        assert all(v >= 0 for v in hist.values)

    def test_alias_engine_reports_mh_and_rebuild_counters(
            self, wiki_source, wiki_corpus):
        num_topics, make_kernel = _bijective_source(wiki_source,
                                                    wiki_corpus)
        rec = InMemoryRecorder()
        _train(wiki_corpus, "alias", rec, sweeps=4, num_topics=num_topics,
               make_kernel=make_kernel)
        proposals = rec.counter_value("train.mh_proposals")
        accepted = rec.counter_value("train.mh_accepted")
        rebuilds = rec.counter_value("train.alias_rebuilds")
        assert proposals > 0
        assert 0 < accepted <= proposals
        assert rebuilds >= 0
        # The fast engine has no MH machinery, and neither has the
        # alias engine's fast fallback (LDA): no MH series appear.
        for engine in ("fast", "alias"):
            rec2 = InMemoryRecorder()
            _train(wiki_corpus, engine, rec2, sweeps=2)
            assert rec2.counter_series("train.mh_proposals") == {}

    @pytest.mark.parametrize("engine", ["fast", "alias"])
    def test_source_lanes_report_lambda_column_misses(
            self, engine, wiki_source, wiki_corpus):
        num_topics, make_kernel = _bijective_source(wiki_source,
                                                    wiki_corpus)
        off = _train(wiki_corpus, engine, None, sweeps=2,
                     num_topics=num_topics, make_kernel=make_kernel)
        rec = InMemoryRecorder()
        state = GibbsState(wiki_corpus, num_topics)
        state.initialize_random(np.random.default_rng(0))
        sampler = CollapsedGibbsSampler(state, make_kernel(state),
                                        np.random.default_rng(1),
                                        engine=engine, recorder=rec)
        sampler.sweep()
        cold = rec.counter_value("train.lambda_column_misses")
        sampler.sweep()
        warm = rec.counter_value("train.lambda_column_misses") - cold
        # Bijective layout: every topic change refreshes a source
        # column, plus one refresh per topic at each sweep start.
        refreshes = 2 * state.num_tokens + num_topics
        assert cold > 0
        assert 0 < warm < refreshes
        assert np.array_equal(off.z, state.z)
        # Kernels without lambda caches report no miss series.
        rec_lda = InMemoryRecorder()
        _train(wiki_corpus, engine, rec_lda, sweeps=1)
        assert rec_lda.counter_series("train.lambda_column_misses") == {}


# ----------------------------------------------------------------------
# Serving instrumentation
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def frozen_phi():
    rng = np.random.default_rng(11)
    return rng.dirichlet(np.full(30, 0.4), size=6)


@pytest.fixture(scope="module")
def query_docs():
    rng = np.random.default_rng(3)
    return [rng.integers(0, 30, size=n)
            for n in (14, 0, 25, 1, 9, 17, 0, 6)]


@pytest.fixture(scope="module")
def served_model(frozen_phi):
    from repro.models.base import FittedTopicModel
    from repro.text.vocabulary import Vocabulary
    num_topics, vocab_size = frozen_phi.shape
    vocab = Vocabulary(f"w{i}" for i in range(vocab_size))
    vocab.freeze()
    rng = np.random.default_rng(1)
    return FittedTopicModel(
        phi=frozen_phi,
        theta=rng.dirichlet(np.full(num_topics, 0.5), size=3),
        assignments=[rng.integers(0, num_topics, size=6)
                     for _ in range(3)],
        vocabulary=vocab,
        metadata={"alpha": 0.4})


class TestFoldInInstrumentation:
    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_theta_is_bit_identical_recorder_on_vs_off(self, mode,
                                                       frozen_phi,
                                                       query_docs):
        off = FoldInEngine(frozen_phi, 0.4, iterations=5, mode=mode)
        on = FoldInEngine(frozen_phi, 0.4, iterations=5, mode=mode,
                          recorder=InMemoryRecorder())
        assert np.array_equal(
            off.theta(query_docs, rng=np.random.default_rng(7)),
            on.theta(query_docs, rng=np.random.default_rng(7)))

    def test_batch_counters_and_latency_histogram(self, frozen_phi,
                                                  query_docs):
        """One ``batch_seconds`` observation per fold call, whether the
        engine's ``theta`` or an inline ``ParallelFoldIn`` task makes
        it."""
        rec = InMemoryRecorder()
        engine = FoldInEngine(frozen_phi, 0.4, iterations=4,
                              mode="sparse", recorder=rec)
        engine.theta(query_docs, rng=np.random.default_rng(0))
        assert rec.counter_value("serving.foldin.documents") \
            == len(query_docs)
        assert rec.counter_value("serving.foldin.tokens") \
            == sum(len(doc) for doc in query_docs)
        hist = rec.histogram("serving.foldin.batch_seconds",
                             mode="sparse")
        assert hist.count == 1
        summary = hist.summary()
        assert {"p50", "p95", "p99"} <= set(summary)
        engine.theta(query_docs, rng=np.random.default_rng(0))
        ParallelFoldIn(engine, recorder=rec).theta(query_docs, seed=0)
        assert rec.histogram("serving.foldin.batch_seconds",
                             mode="sparse").count == 3

    def test_four_worker_snapshot_exposes_latency_and_utilization(
            self, frozen_phi, query_docs):
        """The acceptance readout: after a 4-worker run, one snapshot
        carries p50/p99 fold-in batch latency and per-worker
        utilization (docs/tokens/busy_seconds keyed by worker)."""
        rec = InMemoryRecorder()
        engine = FoldInEngine(frozen_phi, 0.4, iterations=5,
                              mode="sparse")
        with ParallelFoldIn(engine, num_workers=4,
                            recorder=rec) as foldin:
            theta = foldin.theta(query_docs, seed=17)
        plain = FoldInEngine(frozen_phi, 0.4, iterations=5,
                             mode="sparse")
        with ParallelFoldIn(plain, num_workers=4) as silent:
            assert np.array_equal(theta,
                                  silent.theta(query_docs, seed=17))
        snap = rec.snapshot()
        latency = snap["histograms"][
            "serving.foldin.batch_seconds{mode=sparse}"]
        assert latency["count"] >= 1
        assert 0 <= latency["p50"] <= latency["p99"]
        workers = rec.counter_series("serving.worker.docs")
        assert workers  # at least one worker reported
        nonempty = sum(1 for doc in query_docs if len(doc))
        assert sum(workers.values()) == nonempty
        busy = rec.counter_series("serving.worker.busy_seconds")
        assert set(busy) == set(workers)
        assert all(seconds >= 0 for seconds in busy.values())
        for key in workers:
            assert key[0][0] == "worker"

    def test_inline_worker_path_uses_recorder_clock(self, frozen_phi,
                                                    query_docs):
        rec = InMemoryRecorder(clock=FakeClock(step=0.5))
        engine = FoldInEngine(frozen_phi, 0.4, iterations=3,
                              mode="sparse")
        foldin = ParallelFoldIn(engine, num_workers=1, recorder=rec)
        foldin.theta(query_docs, seed=1)
        busy = rec.counter_total("serving.worker.busy_seconds")
        assert busy == pytest.approx(0.5)  # exactly one tick pair


class TestSessionInstrumentation:
    def test_infer_is_bit_identical_recorder_on_vs_off(self,
                                                       served_model):
        queries = [" ".join(f"w{i}" for i in range(j, j + 8))
                   for j in range(5)]
        with InferenceSession(served_model, iterations=5,
                              seed=13) as off:
            expected = off.theta(queries)
        with InferenceSession(served_model, iterations=5, seed=13,
                              recorder=InMemoryRecorder()) as on:
            assert np.array_equal(expected, on.theta(queries))

    def test_request_latency_and_oov_counters(self, served_model):
        rec = InMemoryRecorder()
        with InferenceSession(served_model, iterations=4, seed=0,
                              recorder=rec) as session:
            session.infer(["w0 w1 w2 unknown-token", "w3 w4"])
            session.infer(["w5"])
        assert rec.counter_value("serving.requests") == 2
        assert rec.counter_value("serving.documents") == 3
        assert rec.counter_value("serving.tokens") == 6
        assert rec.counter_value("serving.oov_tokens") == 1
        hist = rec.histogram("serving.request_seconds")
        assert hist.count == 2
        # The engine shares the sink: fold-in series landed too.
        assert rec.counter_value("serving.foldin.documents") == 3

    def test_invalid_recorder_is_rejected(self, served_model):
        with pytest.raises(TypeError, match="Recorder or None"):
            InferenceSession(served_model, recorder=object())


class TestRegistryInstrumentation:
    def test_cache_and_mmap_lifecycle_counters(self, served_model,
                                               tmp_path):
        rec = InMemoryRecorder()
        registry = ModelRegistry(tmp_path, cache_size=1, recorder=rec)
        registry.publish("news", served_model)
        registry.publish("news", served_model, mmap_phi=True)
        assert rec.counter_value("registry.publishes",
                                 name="news") == 2
        registry.load("news", version=1)
        registry.load("news", version=1)          # hit
        assert rec.counter_value("registry.cache_hits") == 1
        assert rec.counter_value("registry.cache_misses") == 1
        registry.load("news", version=2, mmap_phi=True)  # evicts v1
        assert rec.counter_value("registry.cache_misses") == 2
        assert rec.counter_value("registry.cache_evictions") == 1
        assert rec.counter_value("registry.mmap_opens") == 1
        assert rec.counter_value("registry.mmap_closes") == 0
        registry.clear_cache()                    # closes the mmap
        assert rec.counter_value("registry.cache_evictions") == 2
        assert rec.counter_value("registry.mmap_closes") == 1
