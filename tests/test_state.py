"""Tests for repro.sampling.state (GibbsState)."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.sampling.state import GibbsState
from repro.text.corpus import Corpus
from repro.text.vocabulary import Vocabulary


@pytest.fixture
def state(tiny_corpus: Corpus) -> GibbsState:
    return GibbsState(tiny_corpus, num_topics=2)


class TestConstruction:
    def test_flattening(self, state: GibbsState):
        assert state.num_tokens == 6
        assert state.num_documents == 2
        np.testing.assert_array_equal(state.doc_ids, [0, 0, 0, 1, 1, 1])

    def test_doc_lengths(self, state: GibbsState):
        np.testing.assert_array_equal(state.doc_lengths, [3.0, 3.0])

    def test_invalid_topic_count(self, tiny_corpus: Corpus):
        with pytest.raises(ValueError, match="num_topics"):
            GibbsState(tiny_corpus, 0)

    def test_empty_corpus(self):
        from repro.text.vocabulary import Vocabulary
        state = GibbsState(Corpus([], Vocabulary(["x"])), 2)
        assert state.num_tokens == 0


class TestInitialization:
    def test_random_init_counts_consistent(self, state: GibbsState, rng):
        state.initialize_random(rng)
        assert state.counts_consistent()
        assert state.nw.sum() == state.num_tokens
        assert state.nd.sum() == state.num_tokens

    def test_informed_init_counts_consistent(self, state: GibbsState, rng):
        probs = np.array([[1.0, 0.0, 1.0, 0.0],
                          [0.0, 1.0, 0.0, 1.0]])
        state.initialize_informed(probs, rng)
        assert state.counts_consistent()

    def test_informed_init_respects_zero_mass(self, state: GibbsState,
                                              rng):
        # Topic 1 forbidden for word 0 ("pencil"); all pencil tokens must
        # land on topic 0.
        probs = np.ones((2, 4))
        probs[1, 0] = 0.0
        state.initialize_informed(probs, rng)
        pencil_tokens = state.words == 0
        assert np.all(state.z[pencil_tokens] == 0)

    def test_informed_init_rejects_zero_column(self, state: GibbsState,
                                               rng):
        probs = np.ones((2, 4))
        probs[:, 0] = 0.0
        with pytest.raises(ValueError, match="zero mass"):
            state.initialize_informed(probs, rng)

    def test_informed_init_on_empty_corpus(self, rng):
        state = GibbsState(Corpus([], Vocabulary(["x", "y"])), 3)
        state.initialize_informed(np.ones((3, 2)), rng)
        assert state.z.shape == (0,)
        assert state.counts_consistent()

    def test_informed_init_shape_validation(self, state: GibbsState, rng):
        with pytest.raises(ValueError, match="shape"):
            state.initialize_informed(np.ones((3, 4)), rng)

    def test_initialize_assignments(self, state: GibbsState):
        state.initialize_assignments(np.array([0, 1, 0, 1, 0, 1]))
        assert state.counts_consistent()
        assert state.nd[0, 0] == 2

    def test_initialize_assignments_range_check(self, state: GibbsState):
        with pytest.raises(ValueError, match="out-of-range"):
            state.initialize_assignments(np.array([0, 1, 0, 1, 0, 9]))

    def test_initialize_assignments_shape_check(self, state: GibbsState):
        with pytest.raises(ValueError, match="shape"):
            state.initialize_assignments(np.array([0, 1]))


class TestInformedInitAtScale:
    """Section IV.E shape: T=2000, V=1000, 400 documents of 50 tokens."""

    @pytest.fixture
    def superset_state(self) -> GibbsState:
        rng = np.random.default_rng(0)
        vocab = Vocabulary([f"w{i:04d}" for i in range(1000)])
        ids = [rng.integers(0, 1000, size=50) for _ in range(400)]
        return GibbsState(Corpus.from_word_id_lists(ids, vocab), 2000)

    @pytest.fixture
    def superset_probs(self, superset_hyperparameters) -> np.ndarray:
        return superset_hyperparameters / superset_hyperparameters.sum(
            axis=1, keepdims=True)

    def test_initial_assignments_pinned(self, superset_state,
                                        superset_probs):
        # Digest computed with the chunked gather-and-cumsum initializer.
        superset_state.initialize_informed(superset_probs,
                                           np.random.default_rng(0))
        digest = hashlib.sha256(superset_state.z.tobytes()).hexdigest()
        assert digest == ("8e6ec13ed6bedc51951a39d0ec4c1c15"
                          "a4962ea5f1b7a6cfb9af82438870b8df")
        assert superset_state.counts_consistent()

    def test_peak_memory_bounded_by_word_topic_table(self, superset_state,
                                                     superset_probs):
        # numpy reports its buffers to tracemalloc.  Gathering a
        # (tokens, T) block per chunk peaked near 130 MB here; one (V, T)
        # cumulative table is 16 MB.
        table_bytes = superset_probs.nbytes
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            superset_state.initialize_informed(superset_probs,
                                               np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * table_bytes


@pytest.mark.parametrize("seed", range(5))
def test_informed_init_matches_token_by_token_search(seed):
    """Per-word search draws what a per-token cumulative count draws."""
    rng = np.random.default_rng(seed)
    num_topics, vocab_size = 7, 12
    vocab = Vocabulary([f"w{i}" for i in range(vocab_size)])
    ids = [rng.integers(0, vocab_size, size=int(rng.integers(1, 40)))
           for _ in range(6)]
    state = GibbsState(Corpus.from_word_id_lists(ids, vocab), num_topics)
    probs = rng.random((num_topics, vocab_size))
    probs[rng.random(probs.shape) < 0.4] = 0.0  # flat cumulative steps
    probs[0] += 1e-3  # every column keeps some mass
    state.initialize_informed(probs, np.random.default_rng(seed))
    cumulative = np.cumsum(probs[:, state.words].T, axis=1)
    u = (np.random.default_rng(seed).random(state.num_tokens)
         * cumulative[:, -1])
    expected = (cumulative < u[:, np.newaxis]).sum(axis=1)
    np.testing.assert_array_equal(state.z, expected)
    assert np.all(probs[state.z, state.words] > 0)


class TestIncrementDecrement:
    def test_roundtrip_preserves_counts(self, state: GibbsState, rng):
        state.initialize_random(rng)
        before_nw = state.nw.copy()
        word, doc, topic = state.decrement(2)
        assert state.nw[word, topic] == before_nw[word, topic] - 1
        state.increment(2, topic)
        np.testing.assert_array_equal(state.nw, before_nw)
        assert state.counts_consistent()

    def test_reassignment_moves_counts(self, state: GibbsState, rng):
        state.initialize_assignments(np.zeros(6, dtype=np.int64))
        word, doc, old = state.decrement(0)
        state.increment(0, 1)
        assert state.z[0] == 1
        assert state.nd[0, 1] == 1
        assert state.counts_consistent()

    def test_nt_tracks_nw(self, state: GibbsState, rng):
        state.initialize_random(rng)
        for i in range(state.num_tokens):
            _, _, topic = state.decrement(i)
            state.increment(i, (topic + 1) % 2)
        np.testing.assert_array_equal(state.nt, state.nw.sum(axis=0))


class TestAssignmentsByDocument:
    def test_shapes(self, state: GibbsState, rng):
        state.initialize_random(rng)
        per_doc = state.assignments_by_document()
        assert [len(a) for a in per_doc] == [3, 3]
        np.testing.assert_array_equal(np.concatenate(per_doc), state.z)

    def test_returns_copies(self, state: GibbsState, rng):
        state.initialize_random(rng)
        per_doc = state.assignments_by_document()
        per_doc[0][0] = -99
        assert state.z[0] != -99


class TestReadOnlyViews:
    """State accessors must not hand out mutable sufficient statistics."""

    @pytest.fixture
    def state(self) -> GibbsState:
        corpus = Corpus.from_texts(["a b c", "b c d"], tokenizer=None)
        state = GibbsState(corpus, 2)
        state.initialize_random(np.random.default_rng(0))
        return state

    def test_doc_lengths_not_writable(self, state):
        with pytest.raises(ValueError, match="read-only"):
            state.doc_lengths[0] = 99.0

    def test_doc_lengths_tracks_internal_values(self, state):
        np.testing.assert_array_equal(state.doc_lengths, [3.0, 3.0])

    @pytest.mark.parametrize("view_name,raw_name", [
        ("nw_view", "nw"), ("nt_view", "nt"), ("nd_view", "nd")])
    def test_count_views_read_only_but_live(self, state, view_name,
                                            raw_name):
        view = getattr(state, view_name)
        raw = getattr(state, raw_name)
        with pytest.raises(ValueError, match="read-only"):
            view[(0,) * view.ndim] = 5.0
        np.testing.assert_array_equal(view, raw)
        # The view is live: engine mutations through the raw array are
        # visible without copying.
        raw[(0,) * raw.ndim] += 1.0
        np.testing.assert_array_equal(view, raw)
        raw[(0,) * raw.ndim] -= 1.0
