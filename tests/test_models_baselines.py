"""Tests for the baseline models: LDA, EDA, CTM and the shared base API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mixture import MixtureSourceLDA
from repro.models.base import (FittedTopicModel, default_alpha,
                               default_beta)
from repro.models.ctm import CTM, concept_word_mask
from repro.models.eda import EDA
from repro.models.lda import LDA
from repro.text.vocabulary import Vocabulary


class TestDefaults:
    def test_paper_priors(self):
        assert default_alpha(50) == 1.0       # 50 / T
        assert default_beta(200) == 1.0       # 200 / V

    def test_validation(self):
        with pytest.raises(ValueError):
            default_alpha(0)
        with pytest.raises(ValueError):
            default_beta(0)


class TestFittedTopicModel:
    def _make(self) -> FittedTopicModel:
        vocab = Vocabulary.from_tokens(["a", "b", "c"])
        phi = np.array([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])
        theta = np.array([[0.5, 0.5]])
        return FittedTopicModel(
            phi=phi, theta=theta,
            assignments=[np.array([0, 1, 1])],
            vocabulary=vocab, topic_labels=("X", None))

    def test_top_words(self):
        model = self._make()
        assert model.top_words(0, 2) == ["a", "b"]
        assert model.top_words(1, 1) == ["c"]

    def test_label_accessors(self):
        model = self._make()
        assert model.label_of(0) == "X"
        assert model.label_of(1) is None
        assert model.labeled_topic_indices() == [0]

    def test_topics_used(self):
        model = self._make()
        assert model.topics_used(min_tokens=1) == [0, 1]
        assert model.topics_used(min_tokens=2) == [1]

    def test_flat_assignments(self):
        np.testing.assert_array_equal(self._make().flat_assignments(),
                                      [0, 1, 1])

    def test_default_labels_all_none(self):
        vocab = Vocabulary.from_tokens(["a"])
        model = FittedTopicModel(phi=np.array([[1.0]]),
                                 theta=np.array([[1.0]]),
                                 assignments=[], vocabulary=vocab)
        assert model.topic_labels == (None,)

    def test_shape_validation(self):
        vocab = Vocabulary.from_tokens(["a"])
        with pytest.raises(ValueError, match="topics"):
            FittedTopicModel(phi=np.ones((2, 1)) / 1,
                             theta=np.ones((1, 3)) / 3,
                             assignments=[], vocabulary=vocab)

    def test_label_count_validation(self):
        vocab = Vocabulary.from_tokens(["a"])
        with pytest.raises(ValueError, match="labels"):
            FittedTopicModel(phi=np.array([[1.0]]),
                             theta=np.array([[1.0]]), assignments=[],
                             vocabulary=vocab, topic_labels=("a", "b"))


class TestLDA:
    def test_output_shapes(self, wiki_corpus):
        fitted = LDA(3, alpha=0.5, beta=0.1).fit(wiki_corpus,
                                                 iterations=5, seed=0)
        assert fitted.phi.shape == (3, wiki_corpus.vocab_size)
        assert fitted.theta.shape == (len(wiki_corpus), 3)

    def test_distributions_normalized(self, wiki_corpus):
        fitted = LDA(3).fit(wiki_corpus, iterations=5, seed=0)
        np.testing.assert_allclose(fitted.phi.sum(axis=1), 1.0)
        np.testing.assert_allclose(fitted.theta.sum(axis=1), 1.0)

    def test_no_labels(self, wiki_corpus):
        fitted = LDA(2).fit(wiki_corpus, iterations=2, seed=0)
        assert all(label is None for label in fitted.topic_labels)

    def test_deterministic(self, wiki_corpus):
        a = LDA(3).fit(wiki_corpus, iterations=5, seed=9)
        b = LDA(3).fit(wiki_corpus, iterations=5, seed=9)
        np.testing.assert_array_equal(a.flat_assignments(),
                                      b.flat_assignments())

    def test_log_likelihood_improves(self, wiki_corpus):
        fitted = LDA(5, alpha=0.5, beta=0.1).fit(
            wiki_corpus, iterations=25, seed=1,
            track_log_likelihood=True)
        lls = fitted.log_likelihoods
        assert lls[-1] > lls[0]

    def test_snapshots(self, wiki_corpus):
        fitted = LDA(2).fit(wiki_corpus, iterations=5, seed=0,
                            snapshot_iterations=[1, 3])
        assert set(fitted.metadata["snapshots"]) == {1, 3}

    def test_separates_planted_topics(self, wiki_source, wiki_corpus):
        """LDA should discover roughly the planted per-article structure."""
        fitted = LDA(5, alpha=0.5, beta=0.1).fit(wiki_corpus,
                                                 iterations=40, seed=3)
        # Each fitted topic's top words should be dominated by one article.
        counts = wiki_source.count_matrix(wiki_corpus.vocabulary)
        hits = 0
        for topic in range(5):
            ids = fitted.top_word_ids(topic, 5)
            per_article = counts[:, ids].sum(axis=1)
            hits += per_article.max() >= 0.6 * per_article.sum()
        assert hits >= 3

    def test_invalid_topic_count(self):
        with pytest.raises(ValueError, match="num_topics"):
            LDA(0)

    def test_invalid_priors(self, wiki_corpus):
        with pytest.raises(ValueError, match="alpha and beta"):
            LDA(2, alpha=-1).fit(wiki_corpus, iterations=1, seed=0)


class TestEDA:
    def test_phi_fixed_to_source(self, wiki_source, wiki_corpus):
        fitted = EDA(wiki_source).fit(wiki_corpus, iterations=5, seed=0)
        counts = wiki_source.count_matrix(wiki_corpus.vocabulary)
        expected = (counts + 0.01) / (counts + 0.01).sum(axis=1,
                                                         keepdims=True)
        np.testing.assert_allclose(fitted.phi, expected)

    def test_labels_from_source(self, wiki_source, wiki_corpus):
        fitted = EDA(wiki_source).fit(wiki_corpus, iterations=3, seed=0)
        assert fitted.topic_labels == wiki_source.labels

    def test_classifies_generated_documents(self, wiki_source,
                                            wiki_corpus):
        fitted = EDA(wiki_source, alpha=0.5).fit(wiki_corpus,
                                                 iterations=20, seed=0)
        # Documents were generated round-robin from the 5 articles; theta
        # should put its argmax on the generating article most of the time.
        correct = sum(
            1 for index in range(len(wiki_corpus))
            if fitted.theta[index].argmax() == index % 5)
        assert correct >= 0.8 * len(wiki_corpus)

    def test_theta_normalized(self, wiki_source, wiki_corpus):
        fitted = EDA(wiki_source).fit(wiki_corpus, iterations=3, seed=0)
        np.testing.assert_allclose(fitted.theta.sum(axis=1), 1.0)


class TestConceptWordMask:
    def test_mask_top_words_only(self, small_source):
        vocab = small_source.vocabulary()
        mask = concept_word_mask(small_source, vocab, top_n_words=2)
        assert mask.shape == (len(vocab), 3)
        assert mask[vocab["pencil"], 0]
        # top-2 of School Supplies are pencil (3) and ruler (2)
        assert mask[:, 0].sum() == 2

    def test_validation(self, small_source):
        with pytest.raises(ValueError, match="top_n_words"):
            concept_word_mask(small_source, small_source.vocabulary(), 0)


class TestCTM:
    def test_concept_phi_respects_mask(self, small_source, tiny_corpus):
        fitted = CTM(small_source, num_free_topics=0, top_n_words=3).fit(
            tiny_corpus, iterations=5, seed=0)
        mask = concept_word_mask(small_source, tiny_corpus.vocabulary, 3)
        outside = fitted.phi * (~mask.T.astype(bool))
        # Words outside a concept's bag carry (almost) no probability.
        assert outside.max() < 1e-9 or np.allclose(
            fitted.phi[outside.max(axis=1) > 0].sum(axis=1), 1.0)

    def test_free_topics_unrestricted(self, small_source, wiki_corpus):
        fitted = CTM(small_source, num_free_topics=2, top_n_words=5).fit(
            wiki_corpus, iterations=3, seed=0)
        assert fitted.num_topics == 2 + len(small_source)
        assert fitted.topic_labels[:2] == (None, None)
        assert fitted.topic_labels[2:] == small_source.labels

    def test_phi_rows_normalized(self, small_source, tiny_corpus):
        fitted = CTM(small_source, num_free_topics=1, top_n_words=3).fit(
            tiny_corpus, iterations=5, seed=0)
        np.testing.assert_allclose(fitted.phi.sum(axis=1), 1.0)

    def test_invalid_free_topics(self, small_source):
        with pytest.raises(ValueError, match="num_free_topics"):
            CTM(small_source, num_free_topics=-1)

    def test_word_outside_all_bags_still_sampled(self, small_source):
        """A corpus word in no concept bag must not crash the sampler."""
        from repro.text.corpus import Corpus
        corpus = Corpus.from_texts(["pencil zzz zzz baseball"],
                                   tokenizer=None)
        fitted = CTM(small_source, num_free_topics=0, top_n_words=2).fit(
            corpus, iterations=5, seed=0)
        assert fitted.phi.shape[0] == 3


@pytest.mark.parametrize("make_model", [
    lambda source: EDA(source),
    lambda source: CTM(source, num_free_topics=1),
    lambda source: MixtureSourceLDA(source, num_free_topics=1),
], ids=["EDA", "CTM", "MixtureSourceLDA"])
def test_snapshots_recorded_by_every_model(make_model, wiki_source,
                                           wiki_corpus):
    """``TopicModel.fit`` promises ``metadata['snapshots']`` for every
    model, not only LDA and the bijective and full Source-LDA."""
    model = make_model(wiki_source)
    fitted = model.fit(wiki_corpus, iterations=5, seed=0,
                       snapshot_iterations=[1, 3])
    assert set(fitted.metadata["snapshots"]) == {1, 3}
    plain = model.fit(wiki_corpus, iterations=5, seed=0)
    # Snapshots only read phi: the chain itself must not move.
    assert np.array_equal(fitted.flat_assignments(),
                          plain.flat_assignments())
    assert fitted.metadata["snapshots"][3].shape == fitted.phi.shape
