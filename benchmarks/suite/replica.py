"""Traced replicas of the two end-to-end paths.

Each replica rebuilds one public entry point from the public
constructors underneath it and wraps a span around every call into a
layer.  The replicas must produce bit-identical outputs to the entry
point they copy; the workloads check that on every traced run, so a
replica that drifts from the library fails loudly instead of
mis-attributing time.

* :class:`ServingReplica` is ``InferenceSession.infer``: vocabulary
  encode, one spawned call seed, then ``ParallelFoldIn.theta``.
* :func:`traced_fit` is ``SourceLDA.fit``: prior build, smoothing
  calibration, sampler build, sweeps, and the finalize step.

Neither replica adds instrumentation to the library.  Worker busy time
and MH counters come from the library's own telemetry through its
public ``recorder=`` parameters.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.kernels import SourceTopicsKernel
from repro.core.lambda_calibration import calibrate_smoothing
from repro.core.priors import SourcePrior, informed_word_topic_probs
from repro.core.source_lda import SourceLDA
from repro.core.superset import (reduce_by_count_frequency,
                                 topic_document_frequencies_from_counts)
from repro.models.base import FittedTopicModel
from repro.models.lda import posterior_theta
from repro.sampling.gibbs import CollapsedGibbsSampler
from repro.sampling.integration import LambdaGrid
from repro.sampling.rng import ensure_rng
from repro.sampling.state import GibbsState
from repro.serving import (FoldInEngine, LoadedModel, ParallelFoldIn,
                           validate_phi)
from repro.telemetry import Recorder
from repro.text.corpus import Corpus

from tracing import Tracer


class ServingReplica:
    """``InferenceSession`` over a loaded artifact, one span per layer.

    Construction mirrors the session's: validate an in-memory phi once,
    build the :class:`FoldInEngine`, then the :class:`ParallelFoldIn`
    front (warmed up, so workers fork before any sender thread starts).
    :meth:`infer` mirrors ``InferenceSession.infer`` under the session
    defaults the workloads use (whitespace tokenizer, ``oov="ignore"``).
    """

    def __init__(self, loaded: LoadedModel, *, iterations: int,
                 mode: str, num_workers: int, seed: int,
                 tracer: Tracer, recorder: Recorder | None = None) -> None:
        model = loaded.model
        self.tracer = tracer
        self.vocabulary = model.vocabulary
        with tracer.span("foldin.engine_build"):
            phi = model.phi
            validate = not isinstance(phi, np.ndarray)
            if not validate:
                phi = validate_phi(phi)
            self.engine = FoldInEngine(
                phi, float(model.metadata["alpha"]),
                iterations=iterations, mode=mode, validate=validate)
        with tracer.span("parallel.pool_start"):
            self.foldin = ParallelFoldIn(self.engine,
                                         num_workers=num_workers,
                                         phi_path=loaded.phi_path,
                                         recorder=recorder)
            self.foldin.warm_up()
        self._seed = np.random.SeedSequence(seed)
        self._seed_lock = threading.Lock()

    def infer(self, documents: list[str], request: int
              ) -> tuple[np.ndarray, int]:
        """Fold in one request; returns theta and its in-vocabulary
        token count."""
        tracer = self.tracer
        with tracer.span("session.request", request=request):
            with tracer.span("text.encode"):
                encoded = [self.vocabulary.encode(document.split(),
                                                  skip_unknown=True)
                           for document in documents]
            with self._seed_lock:
                call_seed = self._seed.spawn(1)[0]
            with tracer.span("parallel.call"):
                theta = self.foldin.theta(encoded, seed=call_seed)
        return theta, sum(ids.shape[0] for ids in encoded)

    def close(self) -> None:
        self.foldin.close()


def traced_fit(model: SourceLDA, corpus: Corpus, iterations: int,
               seed: int, tracer: Tracer,
               recorder: Recorder | None = None) -> FittedTopicModel:
    """``model.fit(corpus, iterations, seed)`` with a span per layer.

    Covers the configuration the training workloads use: calibrated
    smoothing, informed initialization, the serial scan and no final
    topic cap.  Anything else raises rather than silently diverging.
    """
    if (not model.calibrate or model.smoothing is not None
            or model.init != "informed" or model.final_topics is not None):
        raise ValueError("traced_fit replicates calibrated, informed, "
                         "uncapped SourceLDA fits only")
    with tracer.span("core.fit"):
        rng = ensure_rng(seed)
        with tracer.span("core.prior_build"):
            prior = SourcePrior(model.source, corpus.vocabulary,
                                model.epsilon)
        with tracer.span("core.calibrate"):
            smoothing = calibrate_smoothing(prior.hyperparameters,
                                            draws=model.calibration_draws,
                                            rng=rng)
        with tracer.span("core.prior_build"):
            grid = LambdaGrid.from_prior(model.mu, model.sigma,
                                         model.approximation_steps)
            tables = prior.grid_tables(np.asarray(smoothing(grid.nodes)))
        with tracer.span("sampling.sampler_build"):
            num_free = model.num_unlabeled_topics
            state = GibbsState(corpus, num_free + prior.num_topics)
            state.initialize_informed(
                informed_word_topic_probs(prior, num_free), rng)
            kernel = SourceTopicsKernel(state, num_free=num_free,
                                        alpha=model.alpha, beta=model.beta,
                                        tables=tables, grid=grid)
            sampler = CollapsedGibbsSampler(state, kernel, rng,
                                            engine=model.engine,
                                            backend=model.backend,
                                            recorder=recorder)
        for _ in range(iterations):
            with tracer.span("sampling.sweep"):
                sampler.sweep()
        with tracer.span("core.finalize"):
            phi = kernel.phi()
            theta = posterior_theta(state, model.alpha)
            labels = (None,) * num_free + prior.labels
            metadata: dict[str, object] = {
                "source_word_counts": state.nw.T.copy()}
            if model.reduce_topics:
                metadata["document_frequencies"] = \
                    topic_document_frequencies_from_counts(
                        state.nd_view, state.doc_lengths,
                        model.min_proportion)
                metadata["active_topics"] = reduce_by_count_frequency(
                    state.nd_view, state.doc_lengths,
                    model.min_documents, model.min_proportion)
            fitted = FittedTopicModel(
                phi=phi, theta=theta,
                assignments=state.assignments_by_document(),
                vocabulary=corpus.vocabulary, topic_labels=labels,
                metadata=metadata)
    return fitted
