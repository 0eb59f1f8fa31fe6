"""The bijective-mapping model (Section III.A).

The simplest Source-LDA variant: a 1-to-1 mapping between knowledge-source
topics and corpus topics is assumed, so *every* topic's Dirichlet prior is
the source hyperparameter vector ``delta_k = (X_k1, ..., X_kV)``.  The Gibbs
update is Equation 2's source-topic case.

Two extensions from Section III.C are exposed because the paper's Fig. 7
experiment runs them under the bijective layout:

* a fixed exponent ``lambda`` applied to the hyperparameters
  (``delta = X^lambda``);
* full lambda integration over a Gaussian prior (``lambda_grid``), the
  "dynamic lambda" baseline.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import source_topics_chain
from repro.core.lambda_calibration import SmoothingFunction
from repro.core.priors import SourcePrior
from repro.knowledge.distributions import DEFAULT_EPSILON
from repro.knowledge.source import KnowledgeSource
from repro.models.base import GibbsChain, TopicModel
from repro.sampling.integration import LambdaGrid
from repro.sampling.scans import ScanStrategy
from repro.text.corpus import Corpus


class BijectiveSourceLDA(TopicModel):
    """Source-LDA under the bijective mapping of Section III.A.

    Parameters
    ----------
    source:
        Knowledge source; one topic per article, all assumed present.
    alpha:
        Symmetric document-topic prior.
    lambda_:
        Fixed exponent on the source hyperparameters (1.0 reproduces the
        plain bijective model).  Ignored when ``lambda_grid`` is given.
    lambda_grid:
        Optional quadrature of a lambda prior — the Fig. 7 "dynamic
        lambda" baseline under the bijective layout.
    smoothing:
        Optional ``g`` applied to the grid nodes (Section III.C.2).
    init:
        ``"informed"`` (default) seeds each token's topic from the source
        distributions; ``"random"`` is the uniform initialization of
        Algorithm 1.
    engine:
        ``"fast"`` (default, draw-identical to the reference),
        ``"alias"`` (stale-alias/MH proposals, amortized O(1) per
        token, distributionally equivalent) or ``"reference"``; any
        other value raises ``ValueError`` here; see
        :class:`~repro.sampling.gibbs.CollapsedGibbsSampler`.
    backend:
        Deprecated and ignored (the token loops have a single
        implementation); see
        :func:`~repro.sampling.runtime.check_backend`.
    """

    _records_word_counts = True

    def __init__(self, source: KnowledgeSource, alpha: float = 0.5,
                 lambda_: float = 1.0,
                 lambda_grid: LambdaGrid | None = None,
                 smoothing: SmoothingFunction | None = None,
                 epsilon: float = DEFAULT_EPSILON,
                 init: str = "informed",
                 scan: ScanStrategy | None = None,
                 engine: str = "fast",
                 backend: str | None = None) -> None:
        if not 0.0 <= lambda_ <= 1.0:
            raise ValueError(f"lambda_ must be in [0, 1], got {lambda_}")
        if init not in ("informed", "random"):
            raise ValueError(
                f"init must be 'informed' or 'random', got {init!r}")
        self.source = source
        self.alpha = alpha
        self.lambda_ = lambda_
        self.lambda_grid = lambda_grid
        self.smoothing = smoothing
        self.epsilon = epsilon
        self.init = init
        super().__init__(scan, engine, backend)

    def _chain(self, corpus: Corpus,
               rng: np.random.Generator) -> GibbsChain:
        prior = SourcePrior(self.source, corpus.vocabulary, self.epsilon)
        grid = self.lambda_grid or LambdaGrid.fixed(self.lambda_)
        exponents = (self.smoothing(grid.nodes) if self.smoothing
                     else grid.nodes)
        return source_topics_chain(
            corpus, prior, grid, exponents, num_free=0, alpha=self.alpha,
            beta=1.0, init=self.init, rng=rng,
            metadata={"lambda": self.lambda_, "grid_nodes": grid.nodes,
                      "epsilon": self.epsilon})
