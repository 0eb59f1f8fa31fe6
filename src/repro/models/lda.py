"""Vanilla Latent Dirichlet Allocation with collapsed Gibbs sampling.

The unsupervised baseline of every experiment in the paper (Section II.B).
Implements the standard Griffiths-Steyvers sampler:

    P(z_i = j | z_-i, w)  ∝  (n^wi_-i,j + β) / (n^(.)_-i,j + V β)
                             · (n^di_-i,j + α)

with symmetric ``Dir(α)`` and ``Dir(β)`` priors.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import GibbsChain, TopicModel, posterior_theta
from repro.sampling.fast_engine import FastKernelPath
from repro.sampling.gibbs import (TopicWeightKernel,
                                  symmetric_dirichlet_log_likelihood)
from repro.sampling.scans import ScanStrategy
from repro.sampling.state import GibbsState
from repro.text.corpus import Corpus

__all__ = ["LDA", "LdaFastPath", "LdaKernel", "posterior_theta"]


class LdaKernel(TopicWeightKernel):
    """Equation 2's unlabeled-topic case, for all topics."""

    def __init__(self, state: GibbsState, alpha: float, beta: float) -> None:
        super().__init__(state)
        if alpha <= 0 or beta <= 0:
            raise ValueError(
                f"alpha and beta must be positive, got {alpha}, {beta}")
        self.alpha = alpha
        self.beta = beta
        self._beta_sum = beta * state.vocab_size

    def weights(self, word: int, doc: int) -> np.ndarray:
        state = self.state
        word_part = (state.nw[word] + self.beta) / (state.nt + self._beta_sum)
        return word_part * (state.nd[doc] + self.alpha)

    def phi(self) -> np.ndarray:
        state = self.state
        phi = (state.nw + self.beta) / (state.nt + self._beta_sum)
        return phi.T

    def log_likelihood(self) -> float:
        return symmetric_dirichlet_log_likelihood(
            self.state.nw, self.state.nt, self.beta)

    def fast_path(self) -> "LdaFastPath":
        return LdaFastPath(self)


class LdaFastPath(FastKernelPath):
    """Incremental LDA weights for the fast sweep engine.

    The only cache is the denominator row ``nt + V * beta``: a Gibbs step
    changes ``nt`` for at most two topics, so the two touched entries are
    recomputed (with the reference's exact ``count + constant``
    expression, keeping the weights bit-identical) instead of re-adding
    the constant across all ``T`` topics per token.
    """

    def __init__(self, kernel: LdaKernel) -> None:
        super().__init__(kernel.state)
        self.alpha = kernel.alpha
        self.beta = kernel.beta
        self._beta_sum = kernel._beta_sum
        self._nt_beta = np.empty(kernel.state.num_topics)
        self._out = np.empty(kernel.state.num_topics)

    def begin_sweep(self) -> None:
        np.add(self.state.nt, self._beta_sum, out=self._nt_beta)

    def topic_changed(self, topic: int) -> None:
        self._nt_beta[topic] = self.state.nt[topic] + self._beta_sum

    def weights(self, word: int, doc_row: np.ndarray) -> np.ndarray:
        out = self._out
        np.add(self.state.nw[word], self.beta, out=out)
        out /= self._nt_beta
        out *= doc_row
        return out


class LDA(TopicModel):
    """Unsupervised LDA.

    Parameters
    ----------
    num_topics:
        Number of latent topics ``K``.
    alpha, beta:
        Symmetric Dirichlet priors; the paper's experiments use
        ``α = 50/T`` and ``β = 200/V`` (see :func:`default_alpha` /
        :func:`default_beta`), applied by the experiment drivers.
    scan:
        Optional scan strategy (Algorithms 2/3); defaults to serial.
    engine:
        Sweep engine: ``"fast"`` (default, draw-identical to the
        reference) or ``"reference"`` (the literal Algorithm 1 loop).
        ``"alias"`` is accepted but LDA has no alias path, so it runs
        the fast engine and matches the reference draw for draw.  Any
        other value raises ``ValueError`` here; see
        :class:`~repro.sampling.gibbs.CollapsedGibbsSampler`.
    backend:
        Deprecated and ignored (the token loops have a single
        implementation); see
        :func:`~repro.sampling.runtime.check_backend`.
    """

    def __init__(self, num_topics: int, alpha: float = 0.5,
                 beta: float = 0.1,
                 scan: ScanStrategy | None = None,
                 engine: str = "fast",
                 backend: str | None = None) -> None:
        if num_topics < 1:
            raise ValueError(f"num_topics must be >= 1, got {num_topics}")
        self.num_topics = num_topics
        self.alpha = alpha
        self.beta = beta
        super().__init__(scan, engine, backend)

    def _chain(self, corpus: Corpus,
               rng: np.random.Generator) -> GibbsChain:
        state = GibbsState(corpus, self.num_topics)
        state.initialize_random(rng)
        return GibbsChain(state, LdaKernel(state, self.alpha, self.beta),
                          metadata={"beta": self.beta})
