"""Explicit Dirichlet Allocation (EDA), Hansen et al. 2013.

The "too strict" end of the spectrum the paper positions Source-LDA against
(Section I): every topic's word distribution *is* the knowledge-source
distribution — Wikipedia article counts, normalized — and inference only
fits document mixtures and token assignments.  EDA can label topics
perfectly when the corpus follows the articles exactly, but "does not allow
for variance from the Wikipedia distribution", which is what the graphical
experiment (Fig. 6) and the Section IV.D accuracy comparisons exercise.
"""

from __future__ import annotations

import numpy as np

from repro.knowledge.distributions import (DEFAULT_EPSILON,
                                           source_hyperparameters)
from repro.knowledge.source import KnowledgeSource
from repro.models.base import GibbsChain, TopicModel
from repro.sampling.fast_engine import FastKernelPath
from repro.sampling.gibbs import TopicWeightKernel
from repro.sampling.scans import ScanStrategy
from repro.sampling.state import GibbsState
from repro.text.corpus import Corpus


class EdaKernel(TopicWeightKernel):
    """Fixed-phi kernel: ``P(z=j) ∝ phi_j(w) · (n_dj + α)``."""

    def __init__(self, state: GibbsState, phi: np.ndarray,
                 alpha: float) -> None:
        super().__init__(state)
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        phi = np.asarray(phi, dtype=np.float64)
        if phi.shape != (state.num_topics, state.vocab_size):
            raise ValueError(
                f"phi must have shape "
                f"({state.num_topics}, {state.vocab_size}), got {phi.shape}")
        self.alpha = alpha
        self._phi = phi
        self._phi_by_word = phi.T.copy()  # (V, T) for row gathers
        self._log_phi_by_word = np.log(self._phi_by_word)

    def weights(self, word: int, doc: int) -> np.ndarray:
        return self._phi_by_word[word] * (self.state.nd[doc] + self.alpha)

    def phi(self) -> np.ndarray:
        return self._phi

    def log_likelihood(self) -> float:
        # phi is fixed, so log P(w | z) decomposes over word-topic counts.
        return float((self.state.nw * self._log_phi_by_word).sum())

    def fast_path(self) -> "EdaFastPath":
        return EdaFastPath(self)


class EdaFastPath(FastKernelPath):
    """EDA fast path: phi is fixed, so there is nothing to cache — the
    weight is a row of the precomputed ``(V, T)`` phi table times the
    engine's document row, written into a reused buffer (bit-identical
    to the reference)."""

    def __init__(self, kernel: EdaKernel) -> None:
        super().__init__(kernel.state)
        self.alpha = kernel.alpha
        self._phi_by_word = kernel._phi_by_word
        self._out = np.empty(kernel.state.num_topics)

    def begin_sweep(self) -> None:
        pass

    def weights(self, word: int, doc_row: np.ndarray) -> np.ndarray:
        return np.multiply(self._phi_by_word[word], doc_row,
                           out=self._out)


class EDA(TopicModel):
    """Explicit Dirichlet allocation over a knowledge source.

    Parameters
    ----------
    source:
        Knowledge source whose articles become the (fixed) topics.
    alpha:
        Symmetric document-topic prior.
    epsilon:
        Smoothing added to article counts so every vocabulary word has
        non-zero probability under every topic (otherwise a corpus word
        absent from all articles would have zero total mass).
    engine:
        ``"fast"`` (default, draw-identical to the reference) or
        ``"reference"``.  ``"alias"`` is accepted but EDA has no alias
        path, so it runs the fast engine and matches the reference draw
        for draw.  Any other value raises ``ValueError`` here; see
        :class:`~repro.sampling.gibbs.CollapsedGibbsSampler`.
    backend:
        Deprecated and ignored (the token loops have a single
        implementation); see
        :func:`~repro.sampling.runtime.check_backend`.
    """

    def __init__(self, source: KnowledgeSource, alpha: float = 0.5,
                 epsilon: float = DEFAULT_EPSILON,
                 scan: ScanStrategy | None = None,
                 engine: str = "fast",
                 backend: str | None = None) -> None:
        self.source = source
        self.alpha = alpha
        self.epsilon = epsilon
        super().__init__(scan, engine, backend)

    def _chain(self, corpus: Corpus,
               rng: np.random.Generator) -> GibbsChain:
        counts = self.source.count_matrix(corpus.vocabulary)
        smoothed = source_hyperparameters(counts, self.epsilon)
        phi = smoothed / smoothed.sum(axis=1, keepdims=True)
        state = GibbsState(corpus, len(self.source))
        state.initialize_random(rng)
        return GibbsChain(state, EdaKernel(state, phi, self.alpha),
                          self.source.labels, {"epsilon": self.epsilon})
