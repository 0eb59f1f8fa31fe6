"""The known-mixture model (Section III.B).

A corpus is assumed to contain a *known* number of unknown topics alongside
the knowledge-source topics: the first ``K`` topics carry the symmetric
``Dir(beta)`` prior of plain LDA, the remaining ``S`` carry the fixed source
hyperparameters.  Equation 2 gives both Gibbs cases.  This fixes the
bijective model's inability to absorb content that matches no known topic,
while still binding source topics tightly to their articles.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.kernels import SourceTopicsKernel
from repro.core.priors import SourcePrior, informed_word_topic_probs
from repro.knowledge.distributions import DEFAULT_EPSILON
from repro.knowledge.source import KnowledgeSource
from repro.models.base import FittedTopicModel, TopicModel
from repro.models.lda import posterior_theta
from repro.sampling.gibbs import CollapsedGibbsSampler, check_engine
from repro.sampling.integration import LambdaGrid
from repro.sampling.rng import ensure_rng
from repro.sampling.runtime import check_backend
from repro.sampling.scans import ScanStrategy
from repro.sampling.state import GibbsState
from repro.text.corpus import Corpus


class MixtureSourceLDA(TopicModel):
    """Known mixture of ``num_free_topics`` unknown + source topics.

    Parameters
    ----------
    source:
        Knowledge source supplying the known topics.
    num_free_topics:
        ``T`` in the paper's Section III.B notation — how many unknown
        (symmetric-prior) topics to allocate.
    alpha, beta:
        Document-topic prior and the unknown topics' word prior.
    lambda_:
        Fixed exponent on source hyperparameters (1.0 = raw counts).
    engine:
        ``"fast"`` (default, draw-identical to the reference) or
        ``"reference"``; ``"alias"`` is accepted but the mixed layout
        has no alias path, so it runs on the fast engine.  Any other
        value raises ``ValueError`` here; see
        :class:`~repro.sampling.gibbs.CollapsedGibbsSampler`.
    backend:
        Deprecated and ignored (the token loops have a single
        implementation); see
        :func:`~repro.sampling.runtime.check_backend`.
    """

    def __init__(self, source: KnowledgeSource, num_free_topics: int,
                 alpha: float = 0.5, beta: float = 0.1,
                 lambda_: float = 1.0,
                 epsilon: float = DEFAULT_EPSILON,
                 init: str = "informed",
                 scan: ScanStrategy | None = None,
                 engine: str = "fast",
                 backend: str | None = None) -> None:
        if num_free_topics < 1:
            raise ValueError(
                f"num_free_topics must be >= 1, got {num_free_topics}; "
                "use BijectiveSourceLDA when no unknown topics are wanted")
        if not 0.0 <= lambda_ <= 1.0:
            raise ValueError(f"lambda_ must be in [0, 1], got {lambda_}")
        if init not in ("informed", "random"):
            raise ValueError(
                f"init must be 'informed' or 'random', got {init!r}")
        self.init = init
        self.source = source
        self.num_free_topics = num_free_topics
        self.alpha = alpha
        self.beta = beta
        self.lambda_ = lambda_
        self.epsilon = epsilon
        self._scan = scan
        check_engine(engine)
        self.engine = engine
        check_backend(backend)
        self.backend = backend

    def fit(self, corpus: Corpus, iterations: int = 100,
            seed: int | np.random.Generator | None = None,
            track_log_likelihood: bool = False,
            snapshot_iterations: Sequence[int] = (),
            ) -> FittedTopicModel:
        rng = ensure_rng(seed)
        prior = SourcePrior(self.source, corpus.vocabulary, self.epsilon)
        grid = LambdaGrid.fixed(self.lambda_)
        tables = prior.grid_tables(grid.nodes)
        num_topics = self.num_free_topics + prior.num_topics
        state = GibbsState(corpus, num_topics)
        if self.init == "informed":
            state.initialize_informed(
                informed_word_topic_probs(prior, self.num_free_topics), rng)
        else:
            state.initialize_random(rng)
        # The sweeps need only the labels; drop the dense (S, V) prior.
        labels = ((None,) * self.num_free_topics) + prior.labels
        del prior
        kernel = SourceTopicsKernel(state, num_free=self.num_free_topics,
                                    alpha=self.alpha, beta=self.beta,
                                    tables=tables, grid=grid)
        sampler = CollapsedGibbsSampler(state, kernel, rng, scan=self._scan,
                                        engine=self.engine)
        log_likelihoods, snapshots = sampler.run_with_snapshots(
            iterations, snapshot_iterations, track_log_likelihood)
        return FittedTopicModel(
            phi=kernel.phi(),
            theta=posterior_theta(state, self.alpha),
            assignments=state.assignments_by_document(),
            vocabulary=corpus.vocabulary,
            topic_labels=labels,
            log_likelihoods=log_likelihoods,
            metadata={"snapshots": snapshots,
                      "source_word_counts": state.nw.T,
                      "iteration_seconds": sampler.timings.seconds,
                      "alpha": self.alpha, "beta": self.beta,
                      "lambda": self.lambda_, "epsilon": self.epsilon})
