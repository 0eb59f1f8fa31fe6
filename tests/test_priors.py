"""Tests for repro.core.priors (SourcePrior, GridDeltaTables)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.priors import (GridDeltaTables, SourcePrior,
                               informed_word_topic_probs)
from repro.knowledge.source import KnowledgeSource
from repro.text.vocabulary import Vocabulary


@pytest.fixture
def prior(small_source) -> SourcePrior:
    vocab = small_source.vocabulary()
    return SourcePrior(small_source, vocab)


class TestSourcePrior:
    def test_hyperparameters_are_counts_plus_epsilon(self, small_source):
        vocab = small_source.vocabulary()
        prior = SourcePrior(small_source, vocab, epsilon=0.5)
        counts = small_source.count_matrix(vocab)
        np.testing.assert_allclose(prior.hyperparameters, counts + 0.5)

    def test_labels_preserved(self, prior, small_source):
        assert prior.labels == small_source.labels

    def test_source_distributions_normalized(self, prior):
        dists = prior.source_distributions()
        np.testing.assert_allclose(dists.sum(axis=1), 1.0)

    def test_delta_scalar_exponent(self, prior):
        np.testing.assert_allclose(prior.delta(1.0),
                                   prior.hyperparameters)
        np.testing.assert_allclose(prior.delta(0.0),
                                   np.ones_like(prior.hyperparameters))

    def test_delta_per_topic_exponent(self, prior):
        exponents = np.array([0.0, 0.5, 1.0])
        delta = prior.delta(exponents)
        np.testing.assert_allclose(delta[0], 1.0)
        np.testing.assert_allclose(delta[2], prior.hyperparameters[2])

    def test_delta_per_topic_shape_check(self, prior):
        with pytest.raises(ValueError, match="per-topic"):
            prior.delta(np.array([1.0, 2.0]))

    def test_unique_values_compact(self, prior):
        # Counts are small integers, so few distinct values exist.
        assert prior.num_unique_values <= 6


#: Per-topic word counts: small counts with gaps, all-zero rows (an
#: article with no in-vocabulary word) and occasionally one large count.
count_rows = st.lists(
    st.lists(st.one_of(st.integers(0, 3), st.sampled_from([0, 7, 40]),
                       st.just(5000)),
             min_size=5, max_size=5),
    min_size=1, max_size=6)


@given(count_rows, st.sampled_from([0.01, 0.5, 1e-6]))
@settings(max_examples=60, deadline=None)
def test_unique_values_match_np_unique(rows, epsilon):
    vocab = Vocabulary([f"w{i}" for i in range(5)])
    articles = {f"topic-{t}": [vocab.word(w) for w, count in enumerate(row)
                               for _ in range(count)] + ["unseen"]
                for t, row in enumerate(rows)}
    prior = SourcePrior(KnowledgeSource(articles), vocab, epsilon=epsilon)
    unique, inverse = np.unique(prior.hyperparameters, return_inverse=True)
    np.testing.assert_array_equal(prior._unique, unique)
    assert prior._unique.dtype == unique.dtype
    np.testing.assert_array_equal(
        prior._inverse, inverse.reshape(prior.hyperparameters.shape))
    assert prior._inverse.dtype == np.int32


@given(count_rows, st.sampled_from([0.01, 0.5, 1e-6]))
@settings(max_examples=60, deadline=None)
def test_sparse_built_tables_match_dense_formulas(rows, epsilon):
    vocab = Vocabulary([f"w{i}" for i in range(5)])
    articles = {f"topic-{t}": [vocab.word(w) for w, count in enumerate(row)
                               for _ in range(count)] + ["unseen"]
                for t, row in enumerate(rows)}
    source = KnowledgeSource(articles)
    prior = SourcePrior(source, vocab, epsilon=epsilon)
    assert np.array_equal(prior.hyperparameters,
                          source.count_matrix(vocab) + epsilon)
    exponents = np.array([[0.3, 1.0, 1.7]] * len(rows))
    tables = prior.grid_tables(exponents)
    # sum_delta: each topic's value histogram against the power table.
    value_counts = np.zeros((len(rows), prior.num_unique_values))
    for topic in range(len(rows)):
        value_counts[topic] = np.bincount(
            prior._inverse[topic], minlength=prior.num_unique_values)
    assert np.array_equal(
        tables.sum_delta,
        np.einsum("tu,uta->ta", value_counts, tables.power_table))
    # The above-floor entries, word-major.
    words, topics, ranks = tables.above_floor
    expected_words, expected_topics = np.nonzero(prior._inverse.T)
    assert np.array_equal(words, expected_words)
    assert np.array_equal(topics, expected_topics)
    assert np.array_equal(ranks, prior._inverse[topics, words])


def test_prior_peak_memory_below_two_dense_matrices(superset_source):
    # numpy reports its buffers to tracemalloc.  The prior keeps 16 MB
    # of float64 hyperparameters and 8 MB of int32 indices at this
    # shape; a build through a dense count matrix and its integral copy
    # peaks near 69 MB.
    source, vocab = superset_source
    dense_bytes = len(source) * len(vocab) * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        SourcePrior(source, vocab)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * dense_bytes


class TestGridDeltaTables:
    def test_delta_for_word_matches_direct_power(self, prior):
        exponents = np.array([0.3, 0.8])
        tables = prior.grid_tables(exponents)
        for word in range(prior.vocab_size):
            expected = np.power(prior.hyperparameters[:, word][:, None],
                                exponents[None, :])
            np.testing.assert_allclose(tables.delta_for_word(word),
                                       expected, rtol=1e-12)

    def test_sum_delta_matches_direct_power(self, prior):
        exponents = np.array([0.0, 0.5, 1.0])
        tables = prior.grid_tables(exponents)
        for node, exponent in enumerate(exponents):
            expected = np.power(prior.hyperparameters, exponent).sum(axis=1)
            np.testing.assert_allclose(tables.sum_delta[:, node], expected,
                                       rtol=1e-12)

    def test_delta_for_words_batch(self, prior):
        exponents = np.array([0.4, 0.9])
        tables = prior.grid_tables(exponents)
        words = np.array([0, 3, 5])
        batch = tables.delta_for_words(words)
        assert batch.shape == (3, prior.num_topics, 2)
        for i, word in enumerate(words):
            np.testing.assert_allclose(batch[i],
                                       tables.delta_for_word(int(word)))

    def test_per_topic_exponents(self, prior):
        exponents = np.array([[0.0, 1.0]] * prior.num_topics)
        exponents[1] = [0.5, 0.5]
        tables = prior.grid_tables(exponents)
        word = 2
        direct = np.power(prior.hyperparameters[1, word], 0.5)
        np.testing.assert_allclose(tables.delta_for_word(word)[1],
                                   [direct, direct])

    def test_exponent_shape_validation(self, prior):
        with pytest.raises(ValueError, match="exponents"):
            prior.grid_tables(np.zeros((99, 2)))

    def test_single_node_grid(self, prior):
        tables = prior.grid_tables(np.array([1.0]))
        assert tables.num_nodes == 1
        np.testing.assert_allclose(tables.sum_delta[:, 0],
                                   prior.hyperparameters.sum(axis=1))


class TestInformedWordTopicProbs:
    def test_source_only(self, prior):
        probs = informed_word_topic_probs(prior, num_free=0)
        assert probs.shape == (prior.num_topics, prior.vocab_size)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_with_free_topics(self, prior):
        probs = informed_word_topic_probs(prior, num_free=2)
        assert probs.shape == (prior.num_topics + 2, prior.vocab_size)
        np.testing.assert_allclose(probs[0], 1.0 / prior.vocab_size)

    def test_all_positive(self, prior):
        assert np.all(informed_word_topic_probs(prior, 1) > 0)

    def test_negative_free_rejected(self, prior):
        with pytest.raises(ValueError, match="num_free"):
            informed_word_topic_probs(prior, -1)

    def test_source_words_weighted_by_counts(self, small_source):
        vocab = small_source.vocabulary()
        prior = SourcePrior(small_source, vocab)
        probs = informed_word_topic_probs(prior, 0)
        pencil = vocab["pencil"]
        baseball = vocab["baseball"]
        # "pencil" belongs to School Supplies (topic 0), not Baseball.
        assert probs[0, pencil] > probs[1, pencil]
        assert probs[1, baseball] > probs[0, baseball]


class TestVocabularyInteraction:
    def test_corpus_vocabulary_restriction(self, small_source):
        vocab = Vocabulary.from_tokens(["pencil", "baseball", "unseen"])
        prior = SourcePrior(small_source, vocab)
        assert prior.vocab_size == 3
        # "unseen" appears in no article: hyperparameter = epsilon only.
        assert np.all(prior.hyperparameters[:, vocab["unseen"]]
                      == prior.epsilon)
