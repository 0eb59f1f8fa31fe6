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

    The distinct hyperparameter values (``_unique``) and each entry's
    index into them (``_inverse``) come straight from the integral article
    counts: a count ``k`` is present or not, and its value is
    ``k + epsilon``.  This equals ``np.unique(hyperparameters,
    return_inverse=True)`` without sorting the ``(S, V)`` matrix.

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
        counts = source.count_matrix(vocabulary)
        self.labels = source.labels
        self.epsilon = epsilon
        self.hyperparameters = source_hyperparameters(counts, epsilon)
        self.vocab_size = len(vocabulary)
        integral = counts.astype(np.int64)
        present = np.bincount(integral.ravel()) > 0
        self._unique = np.flatnonzero(present).astype(np.float64) + epsilon
        self._inverse = (np.cumsum(present) - 1)[integral].astype(np.int32)

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
        return GridDeltaTables(self._unique, self._inverse, exponents)


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
    denominator of Equation 3.
    """

    def __init__(self, unique: np.ndarray, inverse: np.ndarray,
                 exponents: np.ndarray) -> None:
        num_topics, vocab_size = inverse.shape
        self.num_topics = num_topics
        self.vocab_size = vocab_size
        self.num_nodes = int(exponents.shape[1])
        self.exponents = exponents
        # (U, S, A): distinct-hyperparameter-value ** per-topic exponents.
        self._table = np.power(unique[:, np.newaxis, np.newaxis],
                               exponents[np.newaxis, :, :])
        self._inverse = inverse
        self._topic_range = np.arange(num_topics)
        # Count how often each distinct value occurs in each topic row,
        # then total the powered values: sum_delta[t, a].
        value_counts = np.zeros((num_topics, unique.shape[0]))
        for topic in range(num_topics):
            value_counts[topic] = np.bincount(
                inverse[topic], minlength=unique.shape[0])
        self.sum_delta = np.einsum("tu,uta->ta", value_counts, self._table)
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
