"""Tests for the Source-LDA model family (core contribution)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bijective import BijectiveSourceLDA
from repro.core.mixture import MixtureSourceLDA
from repro.core.source_lda import SourceLDA
from repro.sampling.integration import LambdaGrid
from repro.serving import load_model, save_model
from repro.text.corpus import Corpus


class TestBijectiveSourceLDA:
    def test_topic_count_equals_source(self, wiki_source, wiki_corpus):
        fitted = BijectiveSourceLDA(wiki_source).fit(wiki_corpus,
                                                     iterations=5, seed=0)
        assert fitted.num_topics == len(wiki_source)
        assert fitted.topic_labels == wiki_source.labels

    def test_distributions_normalized(self, wiki_source, wiki_corpus):
        fitted = BijectiveSourceLDA(wiki_source).fit(wiki_corpus,
                                                     iterations=5, seed=0)
        np.testing.assert_allclose(fitted.phi.sum(axis=1), 1.0,
                                   atol=1e-9)
        np.testing.assert_allclose(fitted.theta.sum(axis=1), 1.0)

    def test_classifies_generated_documents(self, wiki_source,
                                            wiki_corpus):
        fitted = BijectiveSourceLDA(wiki_source, alpha=0.5).fit(
            wiki_corpus, iterations=20, seed=0)
        correct = sum(1 for index in range(len(wiki_corpus))
                      if fitted.theta[index].argmax() == index % 5)
        assert correct >= 0.85 * len(wiki_corpus)

    def test_phi_tracks_source_distribution(self, wiki_source,
                                            wiki_corpus):
        from repro.metrics.divergence import js_divergence
        from repro.knowledge.distributions import (source_distribution,
                                                   source_hyperparameters)
        fitted = BijectiveSourceLDA(wiki_source).fit(
            wiki_corpus, iterations=20, seed=0)
        counts = wiki_source.count_matrix(wiki_corpus.vocabulary)
        refs = source_distribution(source_hyperparameters(counts))
        for topic in range(fitted.num_topics):
            assert js_divergence(fitted.phi[topic], refs[topic]) < 0.25

    def test_lambda_grid_integration(self, wiki_source, wiki_corpus):
        grid = LambdaGrid.from_prior(0.5, 0.5, steps=5)
        fitted = BijectiveSourceLDA(wiki_source, lambda_grid=grid).fit(
            wiki_corpus, iterations=5, seed=0)
        np.testing.assert_allclose(fitted.phi.sum(axis=1), 1.0,
                                   atol=1e-9)

    def test_lambda_validation(self, wiki_source):
        with pytest.raises(ValueError, match="lambda_"):
            BijectiveSourceLDA(wiki_source, lambda_=1.5)

    def test_init_validation(self, wiki_source):
        with pytest.raises(ValueError, match="init"):
            BijectiveSourceLDA(wiki_source, init="magic")

    def test_random_init_supported(self, wiki_source, wiki_corpus):
        fitted = BijectiveSourceLDA(wiki_source, init="random").fit(
            wiki_corpus, iterations=5, seed=0)
        assert fitted.num_topics == len(wiki_source)

    def test_deterministic(self, wiki_source, wiki_corpus):
        a = BijectiveSourceLDA(wiki_source).fit(wiki_corpus,
                                                iterations=5, seed=3)
        b = BijectiveSourceLDA(wiki_source).fit(wiki_corpus,
                                                iterations=5, seed=3)
        np.testing.assert_array_equal(a.flat_assignments(),
                                      b.flat_assignments())

    def test_snapshots_recorded(self, wiki_source, wiki_corpus):
        fitted = BijectiveSourceLDA(wiki_source).fit(
            wiki_corpus, iterations=5, seed=0,
            snapshot_iterations=[0, 2])
        assert set(fitted.metadata["snapshots"]) == {0, 2}


class TestMixtureSourceLDA:
    def test_topic_layout(self, wiki_source, wiki_corpus):
        fitted = MixtureSourceLDA(wiki_source, num_free_topics=2).fit(
            wiki_corpus, iterations=5, seed=0)
        assert fitted.num_topics == 2 + len(wiki_source)
        assert fitted.topic_labels[:2] == (None, None)
        assert fitted.topic_labels[2:] == wiki_source.labels

    def test_requires_free_topics(self, wiki_source):
        with pytest.raises(ValueError, match="num_free_topics"):
            MixtureSourceLDA(wiki_source, num_free_topics=0)

    def test_unknown_content_lands_in_free_topic(self, wiki_source):
        rng = np.random.default_rng(0)
        unknown = ["qqxy" + str(i % 7) for i in range(400)]
        texts = []
        labels = wiki_source.labels
        for index in range(30):
            article = wiki_source.tokens(labels[index % len(labels)])
            texts.append(" ".join(rng.choice(article, size=25)))
        for _ in range(10):
            texts.append(" ".join(rng.choice(unknown, size=25)))
        corpus = Corpus.from_texts(texts, tokenizer=None)
        fitted = MixtureSourceLDA(wiki_source, num_free_topics=1,
                                  alpha=0.3, beta=0.1).fit(
            corpus, iterations=30, seed=1)
        # The unknown-vocabulary tokens should mostly sit in topic 0.
        unknown_ids = {corpus.vocabulary[w] for w in set(unknown)}
        flat_words = np.concatenate([d.word_ids for d in corpus])
        flat_topics = fitted.flat_assignments()
        in_free = np.mean([t == 0 for w, t in zip(flat_words, flat_topics)
                           if int(w) in unknown_ids])
        assert in_free > 0.9

    def test_lambda_validation(self, wiki_source):
        with pytest.raises(ValueError, match="lambda_"):
            MixtureSourceLDA(wiki_source, 1, lambda_=-0.1)


class TestSourceLDA:
    def test_full_model_shapes(self, wiki_source, wiki_corpus):
        fitted = SourceLDA(wiki_source, num_unlabeled_topics=2,
                           calibration_draws=3).fit(
            wiki_corpus, iterations=5, seed=0)
        assert fitted.num_topics == 2 + len(wiki_source)
        np.testing.assert_allclose(fitted.phi.sum(axis=1), 1.0,
                                   atol=1e-9)

    def test_metadata_contents(self, wiki_source, wiki_corpus):
        fitted = SourceLDA(wiki_source, calibration_draws=3).fit(
            wiki_corpus, iterations=5, seed=0)
        for key in ("active_topics", "document_frequencies", "grid_nodes",
                    "smoothing_xs", "smoothing_ys"):
            assert key in fitted.metadata

    def test_reduction_drops_absent_topics(self, wiki_source):
        """Only 2 of 5 source topics generate the corpus; reduction should
        keep those 2 and drop (most of) the rest."""
        rng = np.random.default_rng(2)
        texts = []
        for index in range(40):
            label = wiki_source.labels[index % 2]
            article = wiki_source.tokens(label)
            texts.append(" ".join(rng.choice(article, size=40)))
        corpus = Corpus.from_texts(texts, tokenizer=None)
        fitted = SourceLDA(wiki_source, num_unlabeled_topics=0, mu=0.8,
                           sigma=0.2, alpha=0.3, min_documents=4,
                           min_proportion=0.2, calibration_draws=3).fit(
            corpus, iterations=25, seed=2)
        active_labels = set(fitted.metadata["active_labels"])
        assert {wiki_source.labels[0], wiki_source.labels[1]} <= \
            active_labels
        assert len(active_labels) <= 3

    def test_final_topics_cap(self, wiki_source, wiki_corpus):
        fitted = SourceLDA(wiki_source, num_unlabeled_topics=0,
                           final_topics=2, min_documents=0,
                           min_proportion=0.0, calibration_draws=3).fit(
            wiki_corpus, iterations=8, seed=0)
        assert len(fitted.metadata["active_topics"]) <= 2

    def test_no_reduction_mode(self, wiki_source, wiki_corpus):
        fitted = SourceLDA(wiki_source, reduce_topics=False,
                           calibration_draws=3).fit(
            wiki_corpus, iterations=3, seed=0)
        assert "active_topics" not in fitted.metadata

    def test_identity_smoothing_when_calibration_off(self, wiki_source,
                                                     wiki_corpus):
        fitted = SourceLDA(wiki_source, calibrate=False,
                           reduce_topics=False).fit(
            wiki_corpus, iterations=2, seed=0)
        np.testing.assert_allclose(fitted.metadata["smoothing_xs"],
                                   [0.0, 1.0])
        np.testing.assert_allclose(fitted.metadata["smoothing_ys"],
                                   [0.0, 1.0])

    def test_custom_smoothing_respected(self, wiki_source, wiki_corpus):
        from repro.core.lambda_calibration import SmoothingFunction
        g = SmoothingFunction(xs=np.array([0.0, 1.0]),
                              ys=np.array([0.0, 0.5]))
        fitted = SourceLDA(wiki_source, smoothing=g,
                           reduce_topics=False).fit(
            wiki_corpus, iterations=2, seed=0)
        np.testing.assert_allclose(fitted.metadata["smoothing_ys"],
                                   [0.0, 0.5])

    def test_validation(self, wiki_source):
        with pytest.raises(ValueError, match="num_unlabeled"):
            SourceLDA(wiki_source, num_unlabeled_topics=-1)
        with pytest.raises(ValueError, match="init"):
            SourceLDA(wiki_source, init="bogus")

    @pytest.mark.parametrize("kwargs", [
        {"final_topics": 0}, {"min_documents": -1},
        {"min_proportion": 2.0}, {"min_proportion": -0.1}])
    def test_reduction_settings_rejected_at_construction(self, wiki_source,
                                                         kwargs):
        # Reduction runs after the last sweep, so a bad setting must
        # fail here, naming the constructor argument, not after sampling.
        (name, _), = kwargs.items()
        with pytest.raises(ValueError, match=f"^{name} must be"):
            SourceLDA(wiki_source, **kwargs)

    def test_reduction_setting_bounds_accepted(self, wiki_source):
        SourceLDA(wiki_source, final_topics=1, min_documents=0,
                  min_proportion=0.0)
        SourceLDA(wiki_source, min_proportion=1.0)

    def test_log_likelihood_tracking(self, wiki_source, wiki_corpus):
        fitted = SourceLDA(wiki_source, num_unlabeled_topics=1,
                           calibration_draws=3, reduce_topics=False).fit(
            wiki_corpus, iterations=4, seed=0,
            track_log_likelihood=True)
        assert len(fitted.log_likelihoods) == 4
        assert all(np.isfinite(v) for v in fitted.log_likelihoods)

    def test_beats_lda_on_label_recovery(self, wiki_source, wiki_corpus):
        """The headline behaviour: source topics come out on-label."""
        fitted = SourceLDA(wiki_source, num_unlabeled_topics=0,
                           calibration_draws=3, reduce_topics=False).fit(
            wiki_corpus, iterations=20, seed=0)
        counts = wiki_source.count_matrix(wiki_corpus.vocabulary)
        correct = 0
        for topic in range(fitted.num_topics):
            ids = fitted.top_word_ids(topic, 5)
            per_article = counts[:, ids].sum(axis=1)
            correct += per_article.argmax() == topic
        assert correct >= 4


class TestSourceWordCounts:
    """``metadata["source_word_counts"]`` is the final ``(T, V)`` count
    matrix, stored as the transposed view of the sampler's ``(V, T)``
    counts (an F-ordered array), not a copy."""

    @pytest.mark.parametrize("make", [
        lambda source: BijectiveSourceLDA(source),
        lambda source: MixtureSourceLDA(source, num_free_topics=2),
        lambda source: SourceLDA(source, num_unlabeled_topics=1,
                                 calibration_draws=2),
    ], ids=["bijective", "mixture", "source"])
    def test_equals_assignment_counts_and_round_trips(
            self, wiki_source, wiki_corpus, tmp_path, make):
        fitted = make(wiki_source).fit(wiki_corpus, iterations=3, seed=0)
        counts = fitted.metadata["source_word_counts"]
        words = np.concatenate([doc.word_ids
                                for doc in wiki_corpus.documents])
        expected = np.zeros((fitted.num_topics, wiki_corpus.vocab_size))
        np.add.at(expected, (fitted.flat_assignments(), words), 1.0)
        assert counts.dtype == np.float64
        assert counts.flags.f_contiguous and not counts.flags.c_contiguous
        assert np.array_equal(counts, expected)
        loaded = load_model(save_model(fitted, tmp_path / "model")).model
        assert np.array_equal(loaded.metadata["source_word_counts"],
                              expected)
