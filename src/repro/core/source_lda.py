"""Source-LDA — the paper's full model (Section III.C, Algorithm 1).

The complete generative story: ``K`` unlabeled topics draw their word
distributions from a symmetric ``Dir(beta)``; every knowledge-source topic
``t`` draws ``lambda_t ~ N(mu, sigma)``, maps it through the linear-
smoothing function ``g`` (Section III.C.2), raises its source
hyperparameters to ``g(lambda_t)`` and draws its word distribution from the
resulting Dirichlet.  Inference integrates lambda out numerically on a
:class:`LambdaGrid` (Equation 3), and superset topic reduction
(Section III.C.3) selects which candidate source topics actually live in
the corpus.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import source_topics_chain
from repro.core.lambda_calibration import (SmoothingFunction,
                                           calibrate_smoothing)
from repro.core.priors import SourcePrior
from repro.core.superset import (cluster_topics_js,
                                 reduce_by_count_frequency,
                                 topic_document_frequencies_from_counts)
from repro.knowledge.distributions import DEFAULT_EPSILON
from repro.knowledge.source import KnowledgeSource
from repro.models.base import FittedTopicModel, GibbsChain, TopicModel
from repro.sampling.integration import DEFAULT_STEPS, LambdaGrid
from repro.sampling.scans import ScanStrategy
from repro.sampling.state import GibbsState
from repro.text.corpus import Corpus


class SourceLDA(TopicModel):
    """The full Source-LDA model.

    Parameters
    ----------
    source:
        The candidate topic superset (Wikipedia-style articles).
    num_unlabeled_topics:
        ``K`` — unlabeled topics mixed in alongside the source topics.
    mu, sigma:
        Gaussian prior on each source topic's lambda.
    approximation_steps:
        ``A`` — quadrature nodes for the lambda integral.
    alpha, beta:
        Document-topic prior and the unlabeled topics' word prior.
    calibrate:
        Whether to fit the smoothing function ``g`` from the source
        hyperparameters (Fig. 4 behaviour); ``False`` uses the identity
        map (Fig. 3 behaviour).  A pre-built :class:`SmoothingFunction`
        may also be supplied via ``smoothing``.
    reduce_topics:
        Apply superset reduction after sampling; surviving topic indices
        are reported in ``metadata['active_topics']``.
    min_documents, min_proportion:
        Document-frequency threshold for reduction: a topic survives when
        at least ``min_documents`` (>= 0) documents give it
        ``min_proportion`` (in ``[0, 1]``) of their mass.
    final_topics:
        Optional hard cap (``None`` or >= 1): cluster survivors down to
        this many topics (``select_final_topics``).
    epsilon:
        Smoothing constant of Definition 3.
    init:
        ``"informed"`` (default) seeds token topics from the source
        distributions; ``"random"`` matches Algorithm 1's uniform
        initialization.
    scan:
        Optional parallel scan strategy (Algorithms 2/3).
    engine:
        Sweep engine: ``"fast"`` (default) uses the incremental
        lambda-integration caches of
        :class:`~repro.core.kernels.SourceTopicsFastPath` (O(S) per
        token, draw-identical to the reference); ``"alias"`` uses the
        stale-alias/MH proposals of
        :class:`~repro.core.kernels.SourceTopicsAliasPath` (amortized
        O(1) per token, distributionally equivalent; layouts with
        unlabeled topics or negative quadrature exponents have no alias
        path and run the fast engine); ``"reference"`` runs the literal
        Algorithm 1 loop (O(S * A) per token), kept as the exactness
        oracle.  Any other value raises ``ValueError`` here.
    backend:
        Deprecated and ignored (the token loops have a single
        implementation); see
        :func:`~repro.sampling.runtime.check_backend`.
    """

    _records_word_counts = True

    def __init__(self, source: KnowledgeSource,
                 num_unlabeled_topics: int = 0,
                 mu: float = 0.7, sigma: float = 0.3,
                 approximation_steps: int = DEFAULT_STEPS,
                 alpha: float = 0.5, beta: float = 0.1,
                 calibrate: bool = True,
                 smoothing: SmoothingFunction | None = None,
                 calibration_draws: int = 10,
                 reduce_topics: bool = True,
                 min_documents: int = 2,
                 min_proportion: float = 0.05,
                 final_topics: int | None = None,
                 epsilon: float = DEFAULT_EPSILON,
                 init: str = "informed",
                 scan: ScanStrategy | None = None,
                 engine: str = "fast",
                 backend: str | None = None) -> None:
        if num_unlabeled_topics < 0:
            raise ValueError(
                f"num_unlabeled_topics must be >= 0, got "
                f"{num_unlabeled_topics}")
        if init not in ("informed", "random"):
            raise ValueError(
                f"init must be 'informed' or 'random', got {init!r}")
        # The reduction settings act only after the last sweep, so they
        # are checked here rather than after sampling.
        if final_topics is not None and final_topics < 1:
            raise ValueError(
                f"final_topics must be None or >= 1, got {final_topics}")
        if min_documents < 0:
            raise ValueError(
                f"min_documents must be >= 0, got {min_documents}")
        if not 0.0 <= min_proportion <= 1.0:
            raise ValueError(
                f"min_proportion must be in [0, 1], got {min_proportion}")
        self.init = init
        self.source = source
        self.num_unlabeled_topics = num_unlabeled_topics
        self.mu = mu
        self.sigma = sigma
        self.approximation_steps = approximation_steps
        self.alpha = alpha
        self.beta = beta
        self.calibrate = calibrate
        self.smoothing = smoothing
        self.calibration_draws = calibration_draws
        self.reduce_topics = reduce_topics
        self.min_documents = min_documents
        self.min_proportion = min_proportion
        self.final_topics = final_topics
        self.epsilon = epsilon
        super().__init__(scan, engine, backend)

    # ------------------------------------------------------------------
    def _smoothing_function(self, prior: SourcePrior,
                            rng: np.random.Generator) -> SmoothingFunction:
        if self.smoothing is not None:
            return self.smoothing
        if not self.calibrate:
            return SmoothingFunction.identity()
        return calibrate_smoothing(prior.hyperparameters,
                                   draws=self.calibration_draws, rng=rng)

    def _chain(self, corpus: Corpus,
               rng: np.random.Generator) -> GibbsChain:
        # Calibration draws from rng before the state is initialized.
        prior = SourcePrior(self.source, corpus.vocabulary, self.epsilon)
        smoothing = self._smoothing_function(prior, rng)
        grid = LambdaGrid.from_prior(self.mu, self.sigma,
                                     self.approximation_steps)
        return source_topics_chain(
            corpus, prior, grid, smoothing(grid.nodes),
            num_free=self.num_unlabeled_topics, alpha=self.alpha,
            beta=self.beta, init=self.init, rng=rng,
            metadata={"beta": self.beta, "mu": self.mu,
                      "sigma": self.sigma, "grid_nodes": grid.nodes,
                      "grid_weights": grid.weights,
                      "smoothing_xs": smoothing.xs,
                      "smoothing_ys": smoothing.ys,
                      "epsilon": self.epsilon})

    def _finish(self, fitted: FittedTopicModel, state: GibbsState,
                rng: np.random.Generator) -> None:
        """Superset topic reduction (Section III.C.3), if enabled."""
        if not self.reduce_topics:
            return
        metadata = fitted.metadata
        metadata["document_frequencies"] = \
            topic_document_frequencies_from_counts(
                state.nd_view, state.doc_lengths, self.min_proportion)
        active = reduce_by_count_frequency(
            state.nd_view, state.doc_lengths, self.min_documents,
            self.min_proportion)
        if self.final_topics is not None and \
                active.size > self.final_topics:
            cluster_labels, _ = cluster_topics_js(
                fitted.phi[active], num_clusters=self.final_topics,
                seed=rng)
            usage = state.nd.sum(axis=0)[active]
            kept = []
            for cluster in range(self.final_topics):
                members = np.flatnonzero(cluster_labels == cluster)
                if members.size:
                    kept.append(int(
                        active[members[np.argmax(usage[members])]]))
            active = np.sort(np.asarray(kept, dtype=np.int64))
        metadata["active_topics"] = active
        metadata["active_labels"] = tuple(
            fitted.topic_labels[int(t)] for t in active)
