"""The known-mixture model (Section III.B).

A corpus is assumed to contain a *known* number of unknown topics alongside
the knowledge-source topics: the first ``K`` topics carry the symmetric
``Dir(beta)`` prior of plain LDA, the remaining ``S`` carry the fixed source
hyperparameters.  Equation 2 gives both Gibbs cases.  This fixes the
bijective model's inability to absorb content that matches no known topic,
while still binding source topics tightly to their articles.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import source_topics_chain
from repro.core.priors import SourcePrior
from repro.knowledge.distributions import DEFAULT_EPSILON
from repro.knowledge.source import KnowledgeSource
from repro.models.base import GibbsChain, TopicModel
from repro.sampling.integration import LambdaGrid
from repro.sampling.scans import ScanStrategy
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

    _records_word_counts = True

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
        super().__init__(scan, engine, backend)

    def _chain(self, corpus: Corpus,
               rng: np.random.Generator) -> GibbsChain:
        prior = SourcePrior(self.source, corpus.vocabulary, self.epsilon)
        grid = LambdaGrid.fixed(self.lambda_)
        return source_topics_chain(
            corpus, prior, grid, grid.nodes,
            num_free=self.num_free_topics, alpha=self.alpha,
            beta=self.beta, init=self.init, rng=rng,
            metadata={"beta": self.beta, "lambda": self.lambda_,
                      "epsilon": self.epsilon})
