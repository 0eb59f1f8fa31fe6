"""Tests for repro.knowledge.source."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.knowledge.source import KnowledgeSource
from repro.text.tokenizer import Tokenizer
from repro.text.vocabulary import Vocabulary


class TestKnowledgeSource:
    def test_labels_preserve_insertion_order(self, small_source):
        assert small_source.labels == \
            ("School Supplies", "Baseball", "Cooking")

    def test_tokens_returns_copy(self, small_source):
        tokens = small_source.tokens("Baseball")
        tokens.append("mutated")
        assert "mutated" not in small_source.tokens("Baseball")

    def test_len_and_contains(self, small_source):
        assert len(small_source) == 3
        assert "Baseball" in small_source
        assert "Chess" not in small_source

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError, match="at least one article"):
            KnowledgeSource({})

    def test_empty_article_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            KnowledgeSource({"X": []})

    def test_from_texts_tokenizes(self):
        source = KnowledgeSource.from_texts(
            {"Baseball": "The umpire called a strike!"},
            tokenizer=Tokenizer())
        assert source.tokens("Baseball") == ["umpire", "called", "strike"]

    def test_vocabulary_covers_all_articles(self, small_source):
        vocab = small_source.vocabulary()
        for label in small_source.labels:
            for token in small_source.tokens(label):
                assert token in vocab

    def test_count_matrix_shape_and_totals(self, small_source):
        vocab = small_source.vocabulary()
        matrix = small_source.count_matrix(vocab)
        assert matrix.shape == (3, len(vocab))
        for row, label in enumerate(small_source.labels):
            assert matrix[row].sum() == len(small_source.tokens(label))

    def test_count_matrix_ignores_oov_words(self, small_source):
        vocab = Vocabulary.from_tokens(["pencil"])
        matrix = small_source.count_matrix(vocab)
        assert matrix.shape == (3, 1)
        assert matrix[0, 0] == 3  # three "pencil" in School Supplies
        assert matrix[1, 0] == 0

    def test_subset_preserves_order(self, small_source):
        subset = small_source.subset(["Cooking", "Baseball"])
        assert subset.labels == ("Cooking", "Baseball")

    def test_subset_unknown_label(self, small_source):
        with pytest.raises(KeyError, match="Chess"):
            small_source.subset(["Chess"])

    def test_merged_with(self, small_source):
        other = KnowledgeSource({"Chess": ["board", "pawn"]})
        merged = small_source.merged_with(other)
        assert len(merged) == 4
        assert merged.tokens("Chess") == ["board", "pawn"]

    def test_merged_with_duplicate_label(self, small_source):
        other = KnowledgeSource({"Baseball": ["bat"]})
        with pytest.raises(ValueError, match="duplicate"):
            small_source.merged_with(other)

    def test_count_matrix_is_float(self, small_source):
        matrix = small_source.count_matrix(small_source.vocabulary())
        assert matrix.dtype == np.float64


#: Articles over in-vocabulary words ``v*`` and out-of-vocabulary words
#: ``x*``, with repeats and words shared across articles.
article_lists = st.lists(
    st.lists(st.sampled_from(["v0", "v1", "v2", "v3", "x0", "x1"]),
             min_size=1, max_size=12),
    min_size=1, max_size=6)


@given(article_lists, st.permutations(["v0", "v1", "v2", "v3"]),
       st.integers(1, 4))
@example([["x0", "x1"], ["v0", "v0", "x0"]], ["v0", "v1", "v2", "v3"], 4)
@example([["v1", "v0"], ["v0", "v1", "v1"]], ["v0", "v1", "v2", "v3"], 2)
@settings(max_examples=80, deadline=None)
def test_count_pairs_match_counter_reference(articles, vocab_words, size):
    # The examples pin an article with no in-vocabulary word, and a
    # source whose count matrix has no zero entry.
    vocab = Vocabulary(vocab_words[:size])
    source = KnowledgeSource({f"a{i}": tokens
                              for i, tokens in enumerate(articles)})
    expected = np.zeros((len(articles), len(vocab)))
    triples = set()
    for row, tokens in enumerate(articles):
        for word, count in Counter(tokens).items():
            if word in vocab:
                expected[row, vocab[word]] = count
                triples.add((row, vocab[word], count))
    rows, words, counts = source.count_pairs(vocab)
    for array in (rows, words, counts):
        assert array.dtype == np.int64
    assert set(zip(rows.tolist(), words.tolist(),
                   counts.tolist())) == triples
    assert len(rows) == len(triples)
    assert np.all(np.diff(rows) >= 0)
    matrix = source.count_matrix(vocab)
    assert matrix.dtype == np.float64
    assert np.array_equal(matrix, expected)
