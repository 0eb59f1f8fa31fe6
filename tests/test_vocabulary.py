"""Tests for repro.text.vocabulary."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text.vocabulary import Vocabulary

words = st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                min_size=1, max_size=8)


class TestVocabulary:
    def test_ids_assigned_in_first_seen_order(self):
        vocab = Vocabulary.from_tokens(["b", "a", "b", "c"])
        assert (vocab["b"], vocab["a"], vocab["c"]) == (0, 1, 2)

    def test_add_returns_existing_id(self):
        vocab = Vocabulary()
        first = vocab.add("pencil")
        assert vocab.add("pencil") == first
        assert len(vocab) == 1

    def test_word_roundtrip(self):
        vocab = Vocabulary.from_tokens(["x", "y"])
        assert vocab.word(vocab.id("y")) == "y"

    def test_from_documents(self):
        vocab = Vocabulary.from_documents([["a", "b"], ["b", "c"]])
        assert vocab.words == ("a", "b", "c")

    def test_contains(self):
        vocab = Vocabulary.from_tokens(["a"])
        assert "a" in vocab
        assert "b" not in vocab

    def test_get_default(self):
        vocab = Vocabulary()
        assert vocab.get("missing") is None
        assert vocab.get("missing", -1) == -1

    def test_freeze_blocks_new_words(self):
        vocab = Vocabulary.from_tokens(["a"]).freeze()
        assert vocab.frozen
        with pytest.raises(ValueError, match="frozen"):
            vocab.add("b")

    def test_freeze_allows_existing_words(self):
        vocab = Vocabulary.from_tokens(["a"]).freeze()
        assert vocab.add("a") == 0

    def test_encode_skips_unknown(self):
        vocab = Vocabulary.from_tokens(["a", "b"])
        np.testing.assert_array_equal(vocab.encode(["a", "zzz", "b"]),
                                      [0, 1])

    def test_encode_raises_when_strict(self):
        vocab = Vocabulary.from_tokens(["a"])
        with pytest.raises(KeyError):
            vocab.encode(["zzz"], skip_unknown=False)

    def test_decode(self):
        vocab = Vocabulary.from_tokens(["a", "b"])
        assert vocab.decode([1, 0, 1]) == ["b", "a", "b"]

    def test_equality(self):
        assert Vocabulary.from_tokens(["a", "b"]) == \
            Vocabulary.from_tokens(["a", "b"])
        assert Vocabulary.from_tokens(["a", "b"]) != \
            Vocabulary.from_tokens(["b", "a"])

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            Vocabulary().add(3)  # type: ignore[arg-type]

    def test_iteration_order(self):
        vocab = Vocabulary.from_tokens(["c", "a", "b"])
        assert list(vocab) == ["c", "a", "b"]

    def test_as_mapping(self):
        vocab = Vocabulary.from_tokens(["a", "b"])
        assert vocab.as_mapping() == {"a": 0, "b": 1}

    @given(st.lists(words, max_size=50))
    def test_ids_dense_and_consistent(self, tokens: list[str]):
        vocab = Vocabulary.from_tokens(tokens)
        assert sorted(vocab.as_mapping().values()) == \
            list(range(len(vocab)))
        for word in tokens:
            assert vocab.word(vocab.id(word)) == word

    @given(st.lists(words, min_size=1, max_size=50))
    def test_encode_decode_roundtrip(self, tokens: list[str]):
        vocab = Vocabulary.from_tokens(tokens)
        ids = vocab.encode(tokens)
        assert vocab.decode(ids) == tokens
