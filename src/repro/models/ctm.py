"""Concept-Topic Model (CTM), Chemudugunta et al. 2008.

The "too lenient" end of the paper's spectrum (Section I): each known
concept contributes only a *word set* — a bag of words with no frequency
information — and a token may be assigned to a concept only if its word
belongs to that concept's bag.  Unconstrained latent topics can be mixed in
alongside the concepts.  Because the bags carry no distribution, CTM
"assigns more weight to less important words" (Section IV.C), which is the
failure mode the Reuters and Wikipedia experiments measure.

Following the paper's setup, concept bags are built from the top-``N`` most
frequent words of each knowledge-source article.
"""

from __future__ import annotations

import numpy as np

from repro.knowledge.source import KnowledgeSource
from repro.models.base import GibbsChain, TopicModel
from repro.sampling.fast_engine import FastKernelPath
from repro.sampling.gibbs import (TopicWeightKernel,
                                  symmetric_dirichlet_log_likelihood)
from repro.sampling.scans import ScanStrategy
from repro.sampling.state import GibbsState
from repro.text.corpus import Corpus
from scipy.special import gammaln


def concept_word_mask(source: KnowledgeSource, vocabulary,
                      top_n_words: int) -> np.ndarray:
    """Boolean ``(V, C)`` mask: may word ``w`` be assigned to concept ``c``?

    A concept's bag is the ``top_n_words`` most frequent words of its
    article, intersected with the corpus vocabulary.
    """
    if top_n_words < 1:
        raise ValueError(f"top_n_words must be >= 1, got {top_n_words}")
    counts = source.count_matrix(vocabulary)
    mask = np.zeros_like(counts, dtype=bool)
    for concept in range(counts.shape[0]):
        present = np.flatnonzero(counts[concept] > 0)
        if present.size == 0:
            continue
        order = present[np.argsort(-counts[concept, present],
                                   kind="stable")]
        mask[concept, order[:top_n_words]] = True
    return mask.T  # (V, C)


class CtmKernel(TopicWeightKernel):
    """Free latent topics plus word-set-restricted concept topics.

    Topic layout matches the paper's mixed models: indices
    ``[0, num_free)`` are unconstrained topics, ``[num_free, T)`` are the
    concepts.
    """

    def __init__(self, state: GibbsState, mask: np.ndarray, num_free: int,
                 alpha: float, beta: float) -> None:
        super().__init__(state)
        if alpha <= 0 or beta <= 0:
            raise ValueError(
                f"alpha and beta must be positive, got {alpha}, {beta}")
        num_concepts = state.num_topics - num_free
        if num_free < 0 or num_concepts < 1:
            raise ValueError(
                f"invalid split: {num_free} free topics of "
                f"{state.num_topics} total")
        if mask.shape != (state.vocab_size, num_concepts):
            raise ValueError(
                f"mask must have shape ({state.vocab_size}, {num_concepts}),"
                f" got {mask.shape}")
        self.alpha = alpha
        self.beta = beta
        self.num_free = num_free
        self.mask = mask.astype(np.float64)
        self._bag_sizes = self.mask.sum(axis=0)  # |W_c|
        self._beta_sum_free = beta * state.vocab_size
        # Concepts whose bag misses the corpus vocabulary entirely would
        # divide 0/0; their mask already zeroes the numerator, so any
        # positive denominator is safe.
        self._beta_sum_concepts = np.where(self._bag_sizes > 0,
                                           beta * self._bag_sizes, 1.0)

    def weights(self, word: int, doc: int) -> np.ndarray:
        state = self.state
        k = self.num_free
        out = np.empty(state.num_topics, dtype=np.float64)
        doc_part = state.nd[doc] + self.alpha
        if k:
            out[:k] = ((state.nw[word, :k] + self.beta)
                       / (state.nt[:k] + self._beta_sum_free))
        concept_word = (self.mask[word]
                        * (state.nw[word, k:] + self.beta)
                        / (state.nt[k:] + self._beta_sum_concepts))
        out[k:] = concept_word
        out *= doc_part
        if not out.any():
            # The word is outside every concept bag and there are no free
            # topics: the model cannot explain it.  Keep the sampler
            # well-defined with a uniform draw over concepts (the token
            # contributes "dropout" noise, mirroring the paper's
            # observation about small bags).
            out[k:] = doc_part[k:]
        return out

    def phi(self) -> np.ndarray:
        state = self.state
        k = self.num_free
        phi = np.empty((state.num_topics, state.vocab_size))
        if k:
            phi[:k] = ((state.nw[:, :k] + self.beta)
                       / (state.nt[:k] + self._beta_sum_free)).T
        concept = (self.mask * (state.nw[:, k:] + self.beta)).T
        concept /= (state.nt[k:] + self._beta_sum_concepts)[:, np.newaxis]
        # Concepts whose bag misses the vocabulary entirely normalize to 0;
        # leave them as uniform so phi rows always sum to 1.
        empty = concept.sum(axis=1) == 0
        concept[empty] = 1.0 / state.vocab_size
        phi[k:] = concept / concept.sum(axis=1, keepdims=True)
        return phi

    def log_likelihood(self) -> float:
        state = self.state
        k = self.num_free
        total = 0.0
        if k:
            total += symmetric_dirichlet_log_likelihood(
                state.nw[:, :k], state.nt[:k], self.beta)
        # Concepts: symmetric Dirichlet restricted to each bag.  Empty
        # bags (no vocabulary overlap) contribute nothing.
        bag = self._bag_sizes
        counts = state.nw[:, k:]
        inside = (self.mask > 0)
        nonempty = bag > 0
        per_concept = np.where(
            nonempty,
            (gammaln(np.maximum(bag, 1) * self.beta)
             - bag * gammaln(self.beta)
             + (gammaln(counts + self.beta) * inside).sum(axis=0)
             - gammaln(state.nt[k:] + bag * self.beta)),
            0.0)
        return float(total + per_concept.sum())

    def fast_path(self) -> "CtmFastPath":
        return CtmFastPath(self)


class CtmFastPath(FastKernelPath):
    """CTM fast path: incremental denominator rows for the free topics
    (``nt + V * beta``) and the concepts (``nt + |W_c| * beta``); only
    the (at most two) entries whose ``nt`` changed are recomputed per
    token, with the reference's exact expressions so the weights stay
    bit-identical — including the uniform-over-concepts fallback for
    words outside every bag."""

    def __init__(self, kernel: CtmKernel) -> None:
        super().__init__(kernel.state)
        self.alpha = kernel.alpha
        self.beta = kernel.beta
        self.num_free = kernel.num_free
        self._mask = kernel.mask
        self._beta_sum_free = kernel._beta_sum_free
        self._beta_sum_concepts = kernel._beta_sum_concepts
        self._nt_free = np.empty(self.num_free)
        self._nt_concepts = np.empty(
            kernel.state.num_topics - self.num_free)
        self._out = np.empty(kernel.state.num_topics)

    def begin_sweep(self) -> None:
        state = self.state
        k = self.num_free
        np.add(state.nt[:k], self._beta_sum_free, out=self._nt_free)
        np.add(state.nt[k:], self._beta_sum_concepts,
               out=self._nt_concepts)

    def topic_changed(self, topic: int) -> None:
        state = self.state
        k = self.num_free
        if topic < k:
            self._nt_free[topic] = state.nt[topic] + self._beta_sum_free
        else:
            self._nt_concepts[topic - k] = (
                state.nt[topic] + self._beta_sum_concepts[topic - k])

    def weights(self, word: int, doc_row: np.ndarray) -> np.ndarray:
        state = self.state
        k = self.num_free
        out = self._out
        if k:
            np.divide(state.nw[word, :k] + self.beta, self._nt_free,
                      out=out[:k])
        out[k:] = (self._mask[word] * (state.nw[word, k:] + self.beta)
                   / self._nt_concepts)
        out *= doc_row
        if not out.any():
            out[k:] = doc_row[k:]
        return out


class CTM(TopicModel):
    """Concept-topic model over a knowledge source.

    Parameters
    ----------
    source:
        Knowledge source whose articles define the concept word sets.
    num_free_topics:
        Unconstrained latent topics mixed in alongside the concepts
        (0 reproduces the "Exact"/bijective runs).
    top_n_words:
        Bag size per concept; the paper uses the top 10,000 words by
        frequency.
    engine:
        ``"fast"`` (default) or ``"reference"``; ``"alias"`` is
        accepted but the alias engine has a lane only for bijective
        Source-LDA, so CTM runs on the fast engine and stays
        draw-identical to the reference.  Any other value raises
        ``ValueError`` here.  See
        :class:`~repro.sampling.gibbs.CollapsedGibbsSampler`.
    backend:
        Deprecated and ignored (the token loops have a single
        implementation); see
        :func:`~repro.sampling.runtime.check_backend`.
    """

    def __init__(self, source: KnowledgeSource, num_free_topics: int = 0,
                 top_n_words: int = 10_000, alpha: float = 0.5,
                 beta: float = 0.1,
                 scan: ScanStrategy | None = None,
                 engine: str = "fast",
                 backend: str | None = None) -> None:
        if num_free_topics < 0:
            raise ValueError(
                f"num_free_topics must be >= 0, got {num_free_topics}")
        self.source = source
        self.num_free_topics = num_free_topics
        self.top_n_words = top_n_words
        self.alpha = alpha
        self.beta = beta
        super().__init__(scan, engine, backend)

    def _chain(self, corpus: Corpus,
               rng: np.random.Generator) -> GibbsChain:
        mask = concept_word_mask(self.source, corpus.vocabulary,
                                 self.top_n_words)
        state = GibbsState(corpus, self.num_free_topics + len(self.source))
        state.initialize_random(rng)
        kernel = CtmKernel(state, mask, self.num_free_topics,
                           self.alpha, self.beta)
        labels = ((None,) * self.num_free_topics) + self.source.labels
        return GibbsChain(state, kernel, labels,
                          {"beta": self.beta,
                           "top_n_words": self.top_n_words})
