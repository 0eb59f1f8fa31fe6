"""Source priors: delta construction and fast lambda-grid evaluation.

The Source-LDA Gibbs kernel (Equation 3) needs, for every token, the values
``delta_t^{g(lambda_a)}[w]`` for all source topics ``t`` and quadrature
nodes ``a``.  Raising the ``(S, V)`` hyperparameter matrix to ``A`` powers
per token would dominate the running time, so :class:`SourcePrior` exploits
the fact that hyperparameters are *counts plus epsilon*: the number of
distinct values ``U`` is tiny (bounded by the largest article count).  A
``(U, S, A)`` power table is built once per fit; per-token evaluation is a
single fancy-indexed gather.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from repro.knowledge.distributions import (DEFAULT_EPSILON,
                                           source_hyperparameters)
from repro.knowledge.source import KnowledgeSource
from repro.text.vocabulary import Vocabulary


class SourcePrior:
    """Per-topic Dirichlet hyperparameters derived from a knowledge source.

    Everything is built from the source's nonzero article counts
    (:meth:`KnowledgeSource.count_pairs`), a few percent of the ``(S, V)``
    entries at superset scale.  Every other entry holds the count 0, so
    each dense table is a fill plus an ``O(nnz)`` scatter:

    * ``hyperparameters`` is ``epsilon`` everywhere, with ``count +
      epsilon`` scattered in;
    * the distinct values (``_unique``) and each entry's index into them
      (``_inverse``) come from the counts present: a count ``k`` is
      present or not, and its value is ``k + epsilon``; the count 0 is
      present iff some entry was not scattered.  This equals
      ``np.unique(hyperparameters, return_inverse=True)`` without sorting
      the ``(S, V)`` matrix;
    * ``_value_counts[t, u]`` counts the entries of topic ``t`` holding
      value ``u``;
    * ``_above_floor`` lists the entries whose value sits above the
      floor ``_unique[0]`` (index ``!= 0``), as ``(words, topics,
      ranks)`` sorted by word and then topic.

    Parameters
    ----------
    source:
        The knowledge source (one article per topic).
    vocabulary:
        Corpus vocabulary; hyperparameters are indexed by it
        (Definition 3).
    epsilon:
        Smoothing constant added to the counts.
    """

    def __init__(self, source: KnowledgeSource, vocabulary: Vocabulary,
                 epsilon: float = DEFAULT_EPSILON) -> None:
        topics, words, counts = source.count_pairs(vocabulary)
        num_topics, vocab_size = len(source), len(vocabulary)
        self.labels = source.labels
        self.epsilon = epsilon
        self.vocab_size = vocab_size
        self.hyperparameters = np.full((num_topics, vocab_size), epsilon,
                                       dtype=np.float64)
        self.hyperparameters[topics, words] = source_hyperparameters(
            counts, epsilon)
        present = np.bincount(counts, minlength=1) > 0
        present[0] = counts.shape[0] < num_topics * vocab_size
        self._unique = np.flatnonzero(present).astype(np.float64) + epsilon
        ranks = (np.cumsum(present) - 1)[counts]
        self._inverse = np.zeros((num_topics, vocab_size), dtype=np.int32)
        self._inverse[topics, words] = ranks
        num_unique = self._unique.shape[0]
        value_counts = np.bincount(topics * num_unique + ranks,
                                   minlength=num_topics * num_unique)
        value_counts = value_counts.reshape(num_topics, num_unique)
        if num_unique:
            # Unscattered entries hold the count 0, the floor value.
            value_counts[:, 0] += vocab_size - np.bincount(
                topics, minlength=num_topics)
        self._value_counts = value_counts.astype(np.float64)
        above = ranks != 0
        order = np.argsort(words[above], kind="stable")
        self._above_floor = (words[above][order], topics[above][order],
                             ranks[above][order])

    @property
    def num_topics(self) -> int:
        return int(self.hyperparameters.shape[0])

    @property
    def num_unique_values(self) -> int:
        return int(self._unique.shape[0])

    def source_distributions(self) -> np.ndarray:
        """Normalized source distributions (Definition 2), ``(S, V)``."""
        return self.hyperparameters / self.hyperparameters.sum(
            axis=1, keepdims=True)

    def delta(self, exponent: float | np.ndarray = 1.0) -> np.ndarray:
        """The prior matrix ``X ** exponent``, shape ``(S, V)``.

        ``exponent`` may be scalar or per-topic ``(S,)``.
        """
        exponent = np.asarray(exponent, dtype=np.float64)
        if exponent.ndim == 0:
            return np.power(self.hyperparameters, exponent)
        if exponent.shape != (self.num_topics,):
            raise ValueError(
                f"per-topic exponent must have shape ({self.num_topics},), "
                f"got {exponent.shape}")
        return np.power(self.hyperparameters, exponent[:, np.newaxis])

    def grid_tables(self, exponents: np.ndarray) -> "GridDeltaTables":
        """Precompute powered-delta lookups for quadrature exponents.

        ``exponents`` is ``(A,)`` for a shared smoothing function or
        ``(S, A)`` for per-topic smoothing (``g_t`` of Algorithm 1).
        """
        exponents = np.asarray(exponents, dtype=np.float64)
        if exponents.ndim == 1:
            exponents = np.broadcast_to(
                exponents, (self.num_topics, exponents.shape[0]))
        if exponents.ndim != 2 or exponents.shape[0] != self.num_topics:
            raise ValueError(
                f"exponents must be (A,) or ({self.num_topics}, A), got "
                f"{exponents.shape}")
        return GridDeltaTables(self, exponents)


def informed_word_topic_probs(prior: SourcePrior,
                              num_free: int) -> np.ndarray:
    """Initialization affinities: uniform free topics + source rows.

    Used with :meth:`GibbsState.initialize_informed` so every source topic
    starts the chain anchored on its own article vocabulary instead of a
    uniform share of everything.  The source rows are the (epsilon-
    smoothed) source distributions, so every word has positive mass under
    every topic and the initializer is always well-defined.
    """
    if num_free < 0:
        raise ValueError(f"num_free must be >= 0, got {num_free}")
    source_rows = prior.source_distributions()
    if num_free == 0:
        return source_rows
    free_rows = np.full((num_free, prior.vocab_size),
                        1.0 / prior.vocab_size)
    return np.vstack([free_rows, source_rows])


class GridDeltaTables:
    """Powered source hyperparameters evaluated at quadrature nodes.

    Holds ``table[u, t, a] = unique_value_u ** exponent[t, a]`` plus the
    per-topic totals ``sum_delta[t, a] = sum_w delta_t^{exp[t,a]}[w]``, the
    denominator of Equation 3, which weighs each powered value by how
    often it occurs in the topic (the prior's value counts).  The prior's
    above-floor entries (:attr:`above_floor`) let the kernels build their
    dense per-word tables as a fill of the floor value plus a scatter.
    """

    def __init__(self, prior: SourcePrior, exponents: np.ndarray) -> None:
        inverse = prior._inverse
        num_topics, vocab_size = inverse.shape
        self.num_topics = num_topics
        self.vocab_size = vocab_size
        self.num_nodes = int(exponents.shape[1])
        self.exponents = exponents
        # (U, S, A): distinct-hyperparameter-value ** per-topic exponents.
        self._table = np.power(prior._unique[:, np.newaxis, np.newaxis],
                               exponents[np.newaxis, :, :])
        self._inverse = inverse
        self._above_floor = prior._above_floor
        self._topic_range = np.arange(num_topics)
        self.sum_delta = np.einsum("tu,uta->ta", prior._value_counts,
                                   self._table)
        self._log_gamma_table: np.ndarray | None = None

    @property
    def power_table(self) -> np.ndarray:
        """The ``(U, S, A)`` powered unique-value table."""
        return self._table

    @property
    def inverse(self) -> np.ndarray:
        """``(S, V)`` indices of each word's unique value per topic."""
        return self._inverse

    @property
    def above_floor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(words, topics, ranks)`` of the entries with ``inverse != 0``,
        sorted by word and then topic; every other entry has rank 0."""
        return self._above_floor

    @property
    def log_gamma_table(self) -> np.ndarray:
        """``gammaln`` of the power table, computed once and cached.

        The likelihood evaluation needs ``gammaln(delta)`` for every
        (word, topic, node) triple; since delta values come from the tiny
        unique table this reduces to ``U * S * A`` gammaln calls total.
        """
        if self._log_gamma_table is None:
            self._log_gamma_table = gammaln(self._table)
        return self._log_gamma_table

    def delta_for_word(self, word: int) -> np.ndarray:
        """``delta_t^{exp[t,a]}[word]`` for all topics/nodes, ``(S, A)``."""
        return self._table[self._inverse[:, word], self._topic_range, :]

    def delta_for_words(self, words: np.ndarray) -> np.ndarray:
        """Batch variant: shape ``(len(words), S, A)``."""
        words = np.asarray(words, dtype=np.int64)
        return self._table[self._inverse[:, words].T[:, :, np.newaxis],
                           self._topic_range[np.newaxis, :, np.newaxis],
                           np.arange(self.num_nodes)[np.newaxis,
                                                     np.newaxis, :]]

    def delta_for_pairs(self, topics: np.ndarray,
                        words: np.ndarray) -> np.ndarray:
        """``delta_t^{exp[t,a]}[w]`` for parallel (topic, word) arrays.

        Returns shape ``(len(topics), A)`` — the sparse gather the
        vectorized likelihood uses for nonzero word-topic counts.
        """
        return self._table[self._inverse[topics, words], topics, :]

    def log_gamma_for_pairs(self, topics: np.ndarray,
                            words: np.ndarray) -> np.ndarray:
        """``gammaln(delta)`` for parallel (topic, word) arrays, from the
        cached table; shape ``(len(topics), A)``."""
        return self.log_gamma_table[self._inverse[topics, words],
                                    topics, :]
