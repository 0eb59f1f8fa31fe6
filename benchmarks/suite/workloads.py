"""The benchmark's four workloads.

Every workload builds its inputs from the seed alone, measures through
the public API with tracing off, and checks its outputs.  A traced run
measures the same inputs untraced first, then again through the traced
replica (:mod:`replica`): the replica must reproduce the untraced
outputs bit for bit, and only the traced pass feeds the per-layer
metrics.

* ``serve-batch`` -- one client, closed loop, 32-document requests,
  inline fold-in from a v2 (mmap) artifact.  The token loop is nearly
  all of the time.
* ``serve-open`` -- an open loop of small requests on a seeded
  schedule, sent from two threads to a two-worker pool over a 16-shard
  v3 artifact.  Dispatch, IPC, shard touch and encoding matter here.
* ``train-mixed`` -- the Fig. 8 mixed condition on the default engine.
  The paper's quality workload.
* ``train-superset`` -- the Section IV.E random-topic superset on the
  alias engine.  Prior tables dominate set-up, the alias/MH lane
  dominates sweeps.

A workload returns a :class:`Outcome`: the end-to-end (or, traced, the
per-layer) metric values, workload-scoped extras for the results file,
and the named checks.  Metrics a workload never exercises read 0.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import resource
import shutil
import statistics
import sys
import threading
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter, sleep
from typing import Callable

import numpy as np

from repro.core.bijective import BijectiveSourceLDA
from repro.core.source_lda import SourceLDA
from repro.datasets.synthetic import (SyntheticCorpus,
                                      generate_source_lda_corpus)
from repro.experiments import LAPTOP
from repro.experiments.performance import random_topic_source
from repro.experiments.wikipedia_corpus import (generate_experiment_corpus,
                                                make_medline_style_source)
from repro.knowledge.wikipedia import make_lexicon, zipf_probabilities
from repro.metrics.accuracy import labeled_accuracy
from repro.models.base import FittedTopicModel, default_alpha, default_beta
from repro.sampling.rng import document_rng
from repro.serving import (FoldInEngine, InferenceSession, ModelRegistry,
                           load_model)
from repro.telemetry import InMemoryRecorder
from repro.text.corpus import Corpus

from replica import ServingReplica, traced_fit
from tracing import Tracer

#: Cold set-ups per run; setup_s reports their median.
SETUP_REPEATS = 5
#: Response rows must sum to 1 within this.
ROW_SUM_ATOL = 1e-9
#: Allowed gap between summed self times and traced root wall.
ATTRIBUTION_TOLERANCE = 0.05
#: Seed of the served model, fixed so that --seed varies only traffic.
MODEL_SEED = 0
#: Rank offset of the reported tail latency: the highest percentile
#: with at least this many samples beyond it.
TAIL_SAMPLES = 10

#: Metrics of an untraced run (BENCHMARK.json ``end_to_end``).
END_TO_END = ("setup_s", "latency_p50_ms", "tokens_per_s", "peak_rss_mb")

#: Metrics of a traced run (BENCHMARK.json ``per_layer``).
PER_LAYER = (
    "text.encode_us_per_token", "foldin.ns_per_token_sweep",
    "foldin.engine_build_ms", "registry.publish_ms", "registry.load_ms",
    "sharding.first_touch_ms", "sharding.shards_touched",
    "sharding.mapped_bytes", "parallel.call_ms", "parallel.busy_ms",
    "parallel.overhead_ms", "parallel.pool_start_ms",
    "parallel.pool_utilization",
    "parallel.worker_peak_rss_mb", "session.unattributed_ms",
    "loadgen.lag_p99_ms", "loadgen.requests_attempted",
    "loadgen.latency_p99_ms", "loadgen.slo_attainment",
    "core.prior_build_s", "core.calibrate_s", "core.finalize_s",
    "core.unattributed_s", "sampling.sampler_build_s", "sampling.sweep_s",
    "sampling.ns_per_token", "sampling.mh_acceptance",
    "sampling.alias_rebuilds_per_sweep", "metrics.label_accuracy",
    "telemetry.trace_overhead",
)


@dataclass(frozen=True)
class ServeSpec:
    """A serving workload: the served model, the traffic, the pool."""

    name: str
    num_topics: int
    vocab_size: int
    docs_per_request: int
    doc_length: float
    num_workers: int
    #: Phi shards of the v3 artifact; ``None`` publishes a v2 artifact.
    shards: int | None
    #: Open-loop request rate (1/s); ``None`` runs one closed-loop client.
    rate: float | None
    senders: int
    iterations: int = 20
    probe_docs: int = 64
    slo_seconds: float = 0.1
    train_docs: int = 100
    train_doc_length: float = 80.0
    train_iterations: int = 8


@dataclass(frozen=True)
class TrainSpec:
    """A training workload: knowledge source, corpus and fit."""

    name: str
    #: ``"mixed"`` (Fig. 8 MedlinePlus-style superset plus unlabeled
    #: topics) or ``"superset"`` (Section IV.E random topics, alias).
    kind: str
    topics: int
    generating_topics: int
    num_documents: int
    doc_length: float
    iterations: int
    vocab_size: int = 0
    article_length: int = 400


WORKLOADS: dict[str, ServeSpec | TrainSpec] = {
    "serve-batch": ServeSpec(
        "serve-batch", num_topics=200, vocab_size=2000,
        docs_per_request=32, doc_length=100.0, num_workers=1,
        shards=None, rate=None, senders=1),
    "serve-open": ServeSpec(
        "serve-open", num_topics=200, vocab_size=2000,
        docs_per_request=4, doc_length=50.0, num_workers=2, shards=16,
        rate=20.0, senders=2),
    # FIG8_SCALE of benchmarks/_shared.py.
    "train-mixed": TrainSpec(
        "train-mixed", kind="mixed", topics=60, generating_topics=10,
        num_documents=120, doc_length=200.0, iterations=40),
    "train-superset": TrainSpec(
        "train-superset", kind="superset", topics=2000,
        generating_topics=20, num_documents=400, doc_length=50.0,
        iterations=40, vocab_size=1000),
}

#: Small sizes for the self-test: same code paths, seconds not minutes.
SMOKE = {
    "serve-batch": dict(num_topics=30, vocab_size=300, docs_per_request=8,
                        doc_length=20.0, probe_docs=8, train_docs=20,
                        train_doc_length=30.0, train_iterations=2),
    "serve-open": dict(num_topics=30, vocab_size=300, docs_per_request=4,
                       doc_length=15.0, probe_docs=8, train_docs=20,
                       train_doc_length=30.0, train_iterations=2),
    "train-mixed": dict(topics=8, generating_topics=3, num_documents=20,
                        doc_length=30.0, iterations=4, article_length=80),
    "train-superset": dict(topics=100, generating_topics=5,
                           num_documents=30, doc_length=20.0,
                           iterations=4, vocab_size=200),
}


def spec_for(name: str, smoke: bool = False) -> ServeSpec | TrainSpec:
    spec = WORKLOADS[name]
    return replace(spec, **SMOKE[name]) if smoke else spec


@dataclass
class Outcome:
    """What one run of one workload produced."""

    metrics: dict[str, float]
    extra: dict[str, object] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    @property
    def correct(self) -> bool:
        return all(self.checks.values()) and self.failed == 0


def run(name: str, seed: int, seconds: float, trace: bool,
        workdir: Path, pins: dict, smoke: bool = False) -> tuple[
            Outcome, Tracer | None]:
    """Run workload ``name``; returns its outcome and, traced, the
    tracer holding the replica's spans."""
    spec = spec_for(name, smoke)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if isinstance(spec, ServeSpec):
            return _run_serving(spec, seed, seconds, trace, workdir,
                                pins, smoke)
        return _run_training(spec, seed, seconds, trace, pins, smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------- helpers
def _peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    # ru_maxrss is kilobytes on Linux and bytes on macOS.
    scale = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(who).ru_maxrss * scale / 2**20


def _nearest_rank(values: list[float], q: float) -> float:
    data = sorted(values)
    return data[max(1, math.ceil(q * len(data))) - 1]


def _tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_SAMPLES samples beyond it, and
    that percentile; the maximum when there are too few samples."""
    data = sorted(values)
    rank = max(1, len(data) - TAIL_SAMPLES)
    return data[rank - 1], 100.0 * rank / len(data)


def _row_stochastic(matrix: np.ndarray, rows: int | None = None) -> bool:
    matrix = np.asarray(matrix)
    return bool(matrix.ndim == 2
                and (rows is None or matrix.shape[0] == rows)
                and np.all(np.isfinite(matrix)) and np.all(matrix >= 0)
                and np.allclose(matrix.sum(axis=1), 1.0, rtol=0.0,
                                atol=ROW_SUM_ATOL))


def _digest(*arrays: np.ndarray) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def _attribution_checks(tracer: Tracer, root: str, wall: float,
                        extra: dict, checks: dict) -> None:
    """The layers plus the residual must account for the traced wall
    measured outside the replica, and the residual must stay small."""
    attributed, residual = tracer.root_totals(root)
    extra.update({"traced_wall_s": wall, "attributed_s": attributed,
                  "unattributed_s": residual})
    checks["attribution_within_5pct"] = \
        abs(attributed - wall) <= ATTRIBUTION_TOLERANCE * wall
    checks["unattributed_below_5pct"] = \
        residual <= ATTRIBUTION_TOLERANCE * attributed


def _stream(seed: int, key: int) -> np.random.Generator:
    """An input stream of this seed, independent per ``key``."""
    return document_rng(np.random.SeedSequence(seed), key)


# ---------------------------------------------------------------- serving
@dataclass
class _ServingInputs:
    fitted: FittedTopicModel
    lexicon: list[str]
    pmf: np.ndarray
    probe: list[str]


class _Requests:
    """Raw-text requests: Zipf draws over the source lexicon, whose
    tail words never made it into the model vocabulary (OOV)."""

    def __init__(self, spec: ServeSpec, inputs: _ServingInputs,
                 rng: np.random.Generator) -> None:
        self._spec = spec
        self._inputs = inputs
        self._rng = rng
        #: Raw tokens (OOV included) of every document drawn so far.
        self.raw_tokens = 0

    def document(self) -> str:
        rng = self._rng
        length = max(1, int(rng.poisson(self._spec.doc_length)))
        self.raw_tokens += length
        words = rng.choice(len(self._inputs.lexicon), size=length,
                           p=self._inputs.pmf)
        return " ".join(self._inputs.lexicon[w] for w in words)

    def next(self) -> list[str]:
        return [self.document() for _ in range(self._spec.docs_per_request)]


def _serving_inputs(spec: ServeSpec, seed: int) -> _ServingInputs:
    """Fit the served bijective Source-LDA model and draw the probe.

    The model is a fixture fitted from ``MODEL_SEED`` on every run: it
    is the deployment under test, so runs at different seeds differ
    only in their traffic.  ``random_topic_source`` builds its articles
    from ``make_lexicon(vocab_size, seed)``, so queries drawn from the
    same lexicon are mostly in-vocabulary with an OOV tail.
    """
    source = random_topic_source(spec.num_topics,
                                 vocab_size=spec.vocab_size,
                                 seed=MODEL_SEED)
    corpus = generate_source_lda_corpus(
        source, num_topics=None, num_documents=spec.train_docs,
        avg_document_length=spec.train_doc_length,
        seed=MODEL_SEED).corpus
    fitted = BijectiveSourceLDA(
        source, alpha=default_alpha(spec.num_topics)).fit(
        corpus, iterations=spec.train_iterations, seed=MODEL_SEED)
    inputs = _ServingInputs(
        fitted=fitted,
        lexicon=make_lexicon(spec.vocab_size, seed=MODEL_SEED),
        pmf=zipf_probabilities(spec.vocab_size), probe=[])
    probe = _Requests(spec, inputs, _stream(seed, 2))
    inputs.probe = [probe.document() for _ in range(spec.probe_docs)]
    return inputs


def _shard_words(spec: ServeSpec, fitted: FittedTopicModel) -> int | None:
    if spec.shards is None:
        return None
    return -(-fitted.vocab_size // spec.shards)


def _publish(spec: ServeSpec, registry: ModelRegistry,
             fitted: FittedTopicModel):
    shard_words = _shard_words(spec, fitted)
    return registry.publish(spec.name, fitted,
                            model_class="BijectiveSourceLDA",
                            mmap_phi=shard_words is None,
                            shard_words=shard_words)


def _session(spec: ServeSpec, loaded, seed: int,
             num_workers: int | None = None) -> InferenceSession:
    return InferenceSession(loaded, iterations=spec.iterations,
                            mode="sparse", seed=seed,
                            num_workers=num_workers or spec.num_workers)


Serve = Callable[[list[str], int], tuple[np.ndarray, int]]


def _session_client(session: InferenceSession) -> Serve:
    def serve(documents: list[str], _request: int):
        result = session.infer(documents)
        return result.theta, int(result.num_tokens.sum())
    return serve


@dataclass
class _Phase:
    """Per-request records of one measured serving phase."""

    #: request index -> (due, sent, done, ok, tokens, theta digest)
    records: dict[int, tuple[float, float, float, bool, int, str]] = \
        field(default_factory=dict)
    wall: float = 0.0
    #: Raw tokens (OOV included) of every request sent.
    raw_tokens: int = 0
    errors: list[str] = field(default_factory=list)

    def latencies(self) -> list[float]:
        return [done - due for due, _, done, ok, _, _ in
                self.records.values() if ok]

    def lags(self) -> list[float]:
        return [sent - due for due, sent, *_ in self.records.values()]


def _send(serve: Serve, documents: list[str], request: int,
          num_topics: int, phase: _Phase, due: float) -> None:
    sent = perf_counter()
    ok, tokens, digest = False, 0, ""
    try:
        theta, tokens = serve(documents, request)
        done = perf_counter()
        ok = _row_stochastic(theta, len(documents)) \
            and theta.shape[1] == num_topics
        digest = _digest(theta)
    except Exception:  # a failed request is counted, never fatal
        done = perf_counter()
        phase.errors.append(traceback.format_exc())
    phase.records[request] = (due, sent, done, ok, tokens, digest)


def _closed_loop(serve: Serve, requests: _Requests, seconds: float,
                 num_topics: int) -> _Phase:
    """One client: each request is due when the previous one returns."""
    phase = _Phase()
    start = perf_counter()
    due = start
    for request in itertools.count():
        if due - start >= seconds:
            break
        documents = requests.next()
        _send(serve, documents, request, num_topics, phase, due)
        due = phase.records[request][2]
    phase.wall = due - start
    return phase


def _open_loop(serve: Serve, requests: list[list[str]],
               offsets: np.ndarray, senders: int,
               num_topics: int) -> _Phase:
    """Send every scheduled request at its due time from ``senders``
    threads, however late; latency counts from the due time."""
    phase = _Phase()
    counter = itertools.count()
    lock = threading.Lock()
    start = perf_counter() + 0.05

    def sender() -> None:
        while True:
            with lock:
                request = next(counter)
            if request >= len(requests):
                return
            due = start + float(offsets[request])
            delay = due - perf_counter()
            if delay > 0:
                sleep(delay)
            _send(serve, requests[request], request, num_topics, phase,
                  due)

    threads = [threading.Thread(target=sender) for _ in range(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.wall = max(done for _, _, done, *_ in
                     phase.records.values()) - start
    return phase


def _serve_phase(spec: ServeSpec, serve: Serve, inputs: _ServingInputs,
                 seed: int, seconds: float) -> _Phase:
    requests = _Requests(spec, inputs, _stream(seed, 1))
    if spec.rate is None:
        phase = _closed_loop(serve, requests, seconds, spec.num_topics)
    else:
        # A Poisson process conditioned on its count: exactly
        # rate*seconds arrivals at sorted uniform times, so the offered
        # load is the same for every seed.  Inputs are drawn before the
        # clock starts.
        count = max(1, round(spec.rate * seconds))
        offsets = np.sort(_stream(seed, 3).uniform(0.0, seconds, count))
        batch = [requests.next() for _ in range(count)]
        phase = _open_loop(serve, batch, offsets, spec.senders,
                           spec.num_topics)
    phase.raw_tokens = requests.raw_tokens
    return phase


def _first_touch(spec: ServeSpec, path: Path,
                 tracer: Tracer) -> dict[str, float]:
    """Time ``FoldInEngine.touch`` over the whole model vocabulary on a
    fresh load: the shard maps and sparse tables a worker builds the
    first time its documents reach each shard."""
    fresh = load_model(path, mmap_phi=True)
    try:
        model = fresh.model
        engine = FoldInEngine(model.phi, float(model.metadata["alpha"]),
                              iterations=spec.iterations, mode="sparse",
                              validate=not isinstance(model.phi,
                                                      np.ndarray))
        with tracer.span("sharding.first_touch") as span:
            shards = engine.touch(np.arange(model.vocab_size))
        return {"seconds": span["end"] - span["start"],
                "shards": len(shards),
                "mapped_bytes": engine.sharded.mapped_bytes
                if engine.sharded is not None else 0}
    finally:
        fresh.close()


def _probe_theta(spec: ServeSpec, loaded, inputs: _ServingInputs,
                 seed: int, num_workers: int | None = None) -> np.ndarray:
    with _session(spec, loaded, seed, num_workers) as session:
        session.warm_up()
        return session.theta(inputs.probe)


def _phase_summary(spec: ServeSpec, phase: _Phase) -> dict[str, object]:
    attempted = len(phase.records)
    completed = [r for r in phase.records.values() if r[3]]
    latencies = phase.latencies()
    tail, tail_percentile = _tail(latencies) if latencies else (0.0, 0.0)
    tokens = sum(r[4] for r in completed)
    summary: dict[str, object] = {
        "requests_attempted": attempted,
        "requests_failed": attempted - len(completed),
        "failed_frac": (attempted - len(completed)) / max(attempted, 1),
        "latency_samples": len(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies)
        if latencies else 0.0,
        "latency_p99_ms": 1e3 * _nearest_rank(latencies, 0.99)
        if latencies else 0.0,
        "latency_tail_ms": 1e3 * tail,
        "latency_tail_percentile": tail_percentile,
        "tokens_per_s": tokens / phase.wall if phase.wall > 0 else 0.0,
        "docs_per_s": len(completed) * spec.docs_per_request / phase.wall
        if phase.wall > 0 else 0.0,
        "lag_p99_ms": 1e3 * _nearest_rank(phase.lags(), 0.99)
        if phase.records else 0.0,
        "wall_s": phase.wall,
        "errors": phase.errors[:3],
    }
    if spec.rate is not None:
        within = sum(1 for due, _, done, ok, *_ in phase.records.values()
                     if ok and done - due <= spec.slo_seconds)
        summary["slo_attainment"] = within / max(attempted, 1)
        summary["offered_docs_per_s"] = spec.rate * spec.docs_per_request
    return summary


def _probe_checks(spec: ServeSpec, theta: np.ndarray, seed: int,
                  pins: dict, smoke: bool, extra: dict,
                  checks: dict) -> None:
    digest = _digest(theta)
    extra["probe_sha256"] = digest
    checks["probe_row_stochastic"] = _row_stochastic(theta, spec.probe_docs)
    pinned = pins.get("probe_sha256", {}).get(spec.name)
    if seed == 0 and not smoke and pinned is not None:
        checks["probe_matches_pin"] = digest == pinned


def _run_serving(spec: ServeSpec, seed: int, seconds: float, trace: bool,
                 workdir: Path, pins: dict, smoke: bool
                 ) -> tuple[Outcome, Tracer | None]:
    inputs = _serving_inputs(spec, seed)
    registry = ModelRegistry(workdir / "registry")
    try:
        if trace:
            return _trace_serving(spec, inputs, registry, seed, seconds,
                                  pins, smoke)
        return _measure_serving(spec, inputs, registry, seed, seconds,
                                pins, smoke), None
    finally:
        registry.clear_cache()


def _measure_serving(spec: ServeSpec, inputs: _ServingInputs,
                     registry: ModelRegistry, seed: int, seconds: float,
                     pins: dict, smoke: bool) -> Outcome:
    # Set-up is publish + load + session + warm-up + a first request,
    # repeated cold; the last session goes on to serve the measured
    # phase with its caches warm.
    first_request = inputs.probe[:spec.docs_per_request]
    setups: list[float] = []
    session = None
    try:
        for _ in range(SETUP_REPEATS):
            if session is not None:
                session.close()
            start = perf_counter()
            loaded = registry.load(spec.name, _publish(
                spec, registry, inputs.fitted).version, mmap_phi=True)
            session = _session(spec, loaded, seed).warm_up()
            session.infer(first_request)
            setups.append(perf_counter() - start)
        phase = _serve_phase(spec, _session_client(session), inputs,
                             seed, seconds)
    finally:
        if session is not None:
            session.close()
    summary = _phase_summary(spec, phase)
    extra = {"setup_samples_s": setups, **summary}
    checks: dict[str, bool] = {}
    _probe_checks(spec, _probe_theta(spec, loaded, inputs, seed), seed,
                  pins, smoke, extra, checks)
    if spec.num_workers > 1:
        checks["probe_worker_invariant"] = np.array_equal(
            _probe_theta(spec, loaded, inputs, seed, num_workers=1),
            _probe_theta(spec, loaded, inputs, seed))
    metrics = {"setup_s": statistics.median(setups),
               "latency_p50_ms": summary["latency_p50_ms"],
               "tokens_per_s": summary["tokens_per_s"],
               "peak_rss_mb": _peak_rss_mb()}
    return Outcome(metrics=metrics, extra=extra, checks=checks,
                   attempted=summary["requests_attempted"],
                   failed=summary["requests_failed"])


def _trace_serving(spec: ServeSpec, inputs: _ServingInputs,
                   registry: ModelRegistry, seed: int, seconds: float,
                   pins: dict, smoke: bool
                   ) -> tuple[Outcome, Tracer]:
    # Untraced reference: same inputs, fresh session at the same seed.
    loaded = registry.load(spec.name, _publish(
        spec, registry, inputs.fitted).version, mmap_phi=True)
    with _session(spec, loaded, seed).warm_up() as session:
        untraced = _serve_phase(spec, _session_client(session), inputs,
                                seed, seconds)
    untraced_probe = _probe_theta(spec, loaded, inputs, seed)

    tracer = Tracer()
    recorder = InMemoryRecorder()
    with tracer.span("registry.publish"):
        record = _publish(spec, registry, inputs.fitted)
    with tracer.span("registry.load"):
        loaded = registry.load(spec.name, record.version, mmap_phi=True)
    replica = ServingReplica(loaded, iterations=spec.iterations,
                             mode="sparse", num_workers=spec.num_workers,
                             seed=seed, tracer=tracer, recorder=recorder)
    try:
        traced = _serve_phase(spec, replica.infer, inputs, seed, seconds)
    finally:
        replica.close()
    probe_replica = ServingReplica(loaded, iterations=spec.iterations,
                                   mode="sparse",
                                   num_workers=spec.num_workers,
                                   seed=seed, tracer=Tracer())
    try:
        traced_probe, _ = probe_replica.infer(inputs.probe, -1)
    finally:
        probe_replica.close()
    touch = _first_touch(spec, record.path, tracer)

    summary = _phase_summary(spec, untraced)
    traced_summary = _phase_summary(spec, traced)
    extra: dict[str, object] = {"untraced": summary,
                                "traced": traced_summary}
    checks: dict[str, bool] = {}
    _probe_checks(spec, untraced_probe, seed, pins, smoke, extra, checks)
    checks["replica_probe_identical"] = np.array_equal(untraced_probe,
                                                       traced_probe)
    if spec.rate is None:
        # The closed loop's request sequence is deterministic, so every
        # request both passes served must match bit for bit.
        common = sorted(set(untraced.records) & set(traced.records))
        checks["replica_requests_identical"] = bool(common) and all(
            untraced.records[i][5] == traced.records[i][5]
            for i in common)
    _attribution_checks(
        tracer, "session.request",
        sum(done - sent for _, sent, done, *_ in traced.records.values()),
        extra, checks)

    own = tracer.self_time_by_name()
    requests = own.get("session.request", [])
    calls = tracer.durations("parallel.call")
    busy = recorder.counter_total("serving.worker.busy_seconds")
    folded = recorder.counter_total("serving.foldin.tokens")
    busy_per_call = busy / len(calls) if calls else 0.0
    # Worker time is only known in total, so the overhead is taken on
    # means: a call's wall minus its busiest worker's share, assuming
    # its tasks spread evenly over the workers it can use.
    parallelism = min(spec.num_workers, spec.docs_per_request)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update({
        "text.encode_us_per_token":
            1e6 * sum(tracer.durations("text.encode"))
            / max(traced.raw_tokens, 1),
        "foldin.ns_per_token_sweep":
            1e9 * busy / max(folded * spec.iterations, 1),
        "foldin.engine_build_ms":
            1e3 * sum(tracer.durations("foldin.engine_build")),
        "registry.publish_ms":
            1e3 * sum(tracer.durations("registry.publish")),
        "registry.load_ms": 1e3 * sum(tracer.durations("registry.load")),
        "sharding.first_touch_ms": 1e3 * touch["seconds"],
        "sharding.shards_touched": touch["shards"],
        "sharding.mapped_bytes": touch["mapped_bytes"],
        "parallel.call_ms": 1e3 * statistics.median(calls)
        if calls else 0.0,
        "parallel.busy_ms": 1e3 * busy_per_call,
        "parallel.overhead_ms":
            1e3 * (statistics.mean(calls) - busy_per_call / parallelism)
            if calls else 0.0,
        "parallel.pool_start_ms":
            1e3 * sum(tracer.durations("parallel.pool_start")),
        "parallel.pool_utilization":
            busy / (traced.wall * spec.num_workers)
            if traced.wall > 0 else 0.0,
        "parallel.worker_peak_rss_mb":
            _peak_rss_mb(resource.RUSAGE_CHILDREN),
        "session.unattributed_ms": 1e3 * statistics.median(requests)
        if requests else 0.0,
        "loadgen.lag_p99_ms": summary["lag_p99_ms"],
        "loadgen.requests_attempted": summary["requests_attempted"],
        "loadgen.latency_p99_ms": summary["latency_p99_ms"],
        "loadgen.slo_attainment": summary.get("slo_attainment", 0.0),
        "telemetry.trace_overhead":
            traced_summary["latency_p50_ms"] / summary["latency_p50_ms"]
            if summary["latency_p50_ms"] else 0.0,
    })
    failed = summary["requests_failed"] + traced_summary["requests_failed"]
    return Outcome(metrics=metrics, extra=extra, checks=checks,
                   attempted=summary["requests_attempted"]
                   + traced_summary["requests_attempted"],
                   failed=failed), tracer


# --------------------------------------------------------------- training
@dataclass
class _TrainingInputs:
    model: SourceLDA
    corpus: Corpus
    truth: SyntheticCorpus


def _training_inputs(spec: TrainSpec, seed: int) -> _TrainingInputs:
    if spec.kind == "mixed":
        # run_mixed_condition's SRC-Unk model at the FIG8_SCALE sizes.
        scale = LAPTOP.scaled(num_documents=spec.num_documents,
                              iterations=spec.iterations,
                              superset_size=spec.topics,
                              generating_topics=spec.generating_topics,
                              avg_document_length=spec.doc_length,
                              article_length=spec.article_length)
        source = make_medline_style_source(scale, seed)
        data = generate_experiment_corpus(scale, source, seed=seed)
        k = data.num_topics
        model = SourceLDA(source, num_unlabeled_topics=k, mu=0.7, sigma=0.3,
                          alpha=default_alpha(k + len(source)),
                          beta=default_beta(data.corpus.vocab_size),
                          calibration_draws=4, reduce_topics=True)
    else:
        source = random_topic_source(spec.topics,
                                     vocab_size=spec.vocab_size, seed=seed)
        data = generate_source_lda_corpus(
            source, num_topics=spec.generating_topics,
            num_documents=spec.num_documents,
            avg_document_length=spec.doc_length, alpha=0.5, mu=0.7,
            sigma=0.3, seed=seed)
        model = SourceLDA(source, alpha=default_alpha(spec.topics),
                          engine="alias", reduce_topics=True)
    return _TrainingInputs(model=model, corpus=data.corpus, truth=data)


def _fit_digest(fitted: FittedTopicModel) -> str:
    return _digest(fitted.phi, fitted.theta, fitted.flat_assignments(),
                   np.asarray(fitted.metadata.get("active_topics", ())))


def _accuracy(fitted: FittedTopicModel, inputs: _TrainingInputs) -> float:
    truth = inputs.truth
    return labeled_accuracy(fitted.flat_assignments(), fitted.topic_labels,
                            truth.token_topics, truth.chosen_topics)


def _fit_checks(spec: TrainSpec, fitted: FittedTopicModel,
                accuracy: float, seed: int, pins: dict, smoke: bool,
                checks: dict) -> None:
    checks["phi_row_stochastic"] = _row_stochastic(fitted.phi)
    checks["theta_row_stochastic"] = _row_stochastic(fitted.theta)
    floor = pins.get("label_accuracy_floor", {}).get(spec.name)
    if floor is not None and not smoke:
        checks["label_accuracy_above_floor"] = accuracy >= floor


def _run_training(spec: TrainSpec, seed: int, seconds: float, trace: bool,
                  pins: dict, smoke: bool
                  ) -> tuple[Outcome, Tracer | None]:
    inputs = _training_inputs(spec, seed)
    num_tokens = inputs.corpus.num_tokens
    if trace:
        return _trace_training(spec, inputs, seed, pins, smoke)
    # Set-up is everything a fit does before its first sweep.
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        inputs.model.fit(inputs.corpus, iterations=0, seed=seed)
        setups.append(perf_counter() - start)
    # Whole fits until the next one would overrun the run length.
    walls: list[float] = []
    sweeps: list[float] = []
    digests: set[str] = set()
    failed = 0
    checks: dict[str, bool] = {}
    begin = perf_counter()
    fitted = None
    while not walls or (perf_counter() - begin + walls[-1] <= seconds):
        start = perf_counter()
        try:
            fitted = inputs.model.fit(inputs.corpus,
                                      iterations=spec.iterations,
                                      seed=seed)
        except Exception:  # a failed fit is counted, never fatal
            failed += 1
            traceback.print_exc()
            walls.append(perf_counter() - start)
            continue
        walls.append(perf_counter() - start)
        sweeps.extend(fitted.metadata["iteration_seconds"])
        digests.add(_fit_digest(fitted))
    checks["fits_deterministic"] = len(digests) == 1
    extra: dict[str, object] = {"setup_samples_s": setups,
                                "fit_samples_s": walls,
                                "num_tokens": num_tokens,
                                "fits_attempted": len(walls)}
    if fitted is not None:
        accuracy = _accuracy(fitted, inputs)
        _fit_checks(spec, fitted, accuracy, seed, pins, smoke, checks)
        extra.update({
            "fit_s": statistics.median(walls),
            "train_tokens_per_s": num_tokens / statistics.median(sweeps),
            "label_accuracy": accuracy,
            "active_topics": len(fitted.metadata.get("active_topics",
                                                     ())),
            "fit_sha256": _fit_digest(fitted),
        })
    extra["failed_frac"] = failed / len(walls)
    metrics = {"setup_s": statistics.median(setups),
               "latency_p50_ms": 1e3 * statistics.median(walls),
               "tokens_per_s": num_tokens / statistics.median(sweeps)
               if sweeps else 0.0,
               "peak_rss_mb": _peak_rss_mb()}
    return Outcome(metrics=metrics, extra=extra, checks=checks,
                   attempted=len(walls), failed=failed), None


def _trace_training(spec: TrainSpec, inputs: _TrainingInputs, seed: int,
                    pins: dict, smoke: bool) -> tuple[Outcome, Tracer]:
    start = perf_counter()
    untraced = inputs.model.fit(inputs.corpus, iterations=spec.iterations,
                                seed=seed)
    untraced_wall = perf_counter() - start

    tracer = Tracer()
    recorder = InMemoryRecorder()
    start = perf_counter()
    traced = traced_fit(inputs.model, inputs.corpus, spec.iterations,
                        seed, tracer, recorder)
    traced_wall = perf_counter() - start

    accuracy = _accuracy(untraced, inputs)
    checks: dict[str, bool] = {}
    _fit_checks(spec, untraced, accuracy, seed, pins, smoke, checks)
    checks["replica_fit_identical"] = \
        _fit_digest(untraced) == _fit_digest(traced)
    extra: dict[str, object] = {}
    _attribution_checks(tracer, "core.fit", traced_wall, extra, checks)

    own = {name: sum(times)
           for name, times in tracer.self_time_by_name().items()}
    sweeps = tracer.durations("sampling.sweep")
    proposals = recorder.counter_total("train.mh_proposals")
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update({
        "core.prior_build_s": own.get("core.prior_build", 0.0),
        "core.calibrate_s": own.get("core.calibrate", 0.0),
        "core.finalize_s": own.get("core.finalize", 0.0),
        "core.unattributed_s": own.get("core.fit", 0.0),
        "sampling.sampler_build_s": own.get("sampling.sampler_build", 0.0),
        "sampling.sweep_s": statistics.median(sweeps),
        "sampling.ns_per_token":
            1e9 * statistics.median(sweeps) / inputs.corpus.num_tokens,
        "sampling.mh_acceptance":
            recorder.counter_total("train.mh_accepted") / proposals
            if proposals else 0.0,
        "sampling.alias_rebuilds_per_sweep":
            recorder.counter_total("train.alias_rebuilds") / len(sweeps),
        "metrics.label_accuracy": accuracy,
        "telemetry.trace_overhead": traced_wall / untraced_wall,
    })
    extra.update({"untraced_fit_s": untraced_wall,
                  "traced_fit_s": traced_wall, "label_accuracy": accuracy,
                  "fit_sha256": _fit_digest(untraced),
                  "num_tokens": inputs.corpus.num_tokens})
    return Outcome(metrics=metrics, extra=extra, checks=checks,
                   attempted=2), tracer
