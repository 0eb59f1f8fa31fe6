"""Tests for repro.core.kernels (Equations 2, 3 and 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import RING, SourceTopicsKernel
from repro.core.priors import SourcePrior
from repro.sampling.gibbs import CollapsedGibbsSampler
from repro.sampling.integration import LambdaGrid
from repro.sampling.state import GibbsState
from repro.text.corpus import Corpus


@pytest.fixture
def setup(small_source, tiny_corpus):
    prior = SourcePrior(small_source, tiny_corpus.vocabulary)
    return prior, tiny_corpus


def _kernel(prior, corpus, num_free, grid, rng_seed=0):
    tables = prior.grid_tables(grid.nodes)
    state = GibbsState(corpus, num_free + prior.num_topics)
    state.initialize_random(np.random.default_rng(rng_seed))
    kernel = SourceTopicsKernel(state, num_free=num_free, alpha=0.5,
                                beta=0.1, tables=tables, grid=grid)
    return state, kernel


class TestSingleNodeEquivalence:
    """With one grid node the kernel must equal the closed-form
    fixed-delta expressions of Equation 2."""

    def test_weights_match_manual_formula(self, setup):
        prior, corpus = setup
        grid = LambdaGrid.fixed(1.0)
        state, kernel = _kernel(prior, corpus, num_free=0, grid=grid)
        delta = prior.hyperparameters
        word, doc = int(state.words[0]), int(state.doc_ids[0])
        state.decrement(0)
        expected = ((state.nw[word] + delta[:, word])
                    / (state.nt + delta.sum(axis=1))
                    * (state.nd[doc] + 0.5))
        np.testing.assert_allclose(kernel.weights(word, doc), expected,
                                   rtol=1e-12)
        state.increment(0, 0)

    def test_phi_matches_equation_one(self, setup):
        prior, corpus = setup
        grid = LambdaGrid.fixed(1.0)
        state, kernel = _kernel(prior, corpus, num_free=0, grid=grid)
        delta = prior.hyperparameters
        expected = ((state.nw + delta.T)
                    / (state.nt + delta.sum(axis=1))).T
        np.testing.assert_allclose(kernel.phi(), expected, rtol=1e-12)


class TestMixedLayout:
    def test_free_topics_use_symmetric_beta(self, setup):
        prior, corpus = setup
        grid = LambdaGrid.fixed(1.0)
        state, kernel = _kernel(prior, corpus, num_free=2, grid=grid)
        word, doc = int(state.words[0]), int(state.doc_ids[0])
        state.decrement(0)
        weights = kernel.weights(word, doc)
        vocab_size = corpus.vocab_size
        expected_free = ((state.nw[word, :2] + 0.1)
                         / (state.nt[:2] + 0.1 * vocab_size)
                         * (state.nd[doc, :2] + 0.5))
        np.testing.assert_allclose(weights[:2], expected_free, rtol=1e-12)
        state.increment(0, 0)

    def test_phi_rows_all_normalized(self, setup):
        prior, corpus = setup
        grid = LambdaGrid.from_prior(0.7, 0.3, steps=5)
        _, kernel = _kernel(prior, corpus, num_free=2, grid=grid)
        np.testing.assert_allclose(kernel.phi().sum(axis=1), 1.0,
                                   atol=1e-9)


class TestGridIntegration:
    def test_weights_are_weighted_average_over_nodes(self, setup):
        prior, corpus = setup
        grid = LambdaGrid(nodes=np.array([0.0, 1.0]),
                          weights=np.array([0.3, 0.7]))
        state, kernel = _kernel(prior, corpus, num_free=0, grid=grid)
        word, doc = int(state.words[0]), int(state.doc_ids[0])
        state.decrement(0)
        combined = kernel.weights(word, doc)
        parts = []
        for node in (0.0, 1.0):
            delta = prior.delta(node)
            parts.append((state.nw[word] + delta[:, word])
                         / (state.nt + delta.sum(axis=1)))
        expected = (0.3 * parts[0] + 0.7 * parts[1]) \
            * (state.nd[doc] + 0.5)
        np.testing.assert_allclose(combined, expected, rtol=1e-12)
        state.increment(0, 0)

    def test_log_likelihood_finite(self, setup):
        prior, corpus = setup
        grid = LambdaGrid.from_prior(0.7, 0.3, steps=4)
        _, kernel = _kernel(prior, corpus, num_free=1, grid=grid)
        assert np.isfinite(kernel.log_likelihood())

    def test_log_likelihood_single_node_matches_closed_form(self, setup):
        from repro.sampling.gibbs import \
            asymmetric_dirichlet_log_likelihood
        prior, corpus = setup
        grid = LambdaGrid.fixed(1.0)
        state, kernel = _kernel(prior, corpus, num_free=0, grid=grid)
        expected = asymmetric_dirichlet_log_likelihood(
            state.nw, state.nt, prior.hyperparameters)
        assert kernel.log_likelihood() == pytest.approx(expected,
                                                        rel=1e-9)


class TestLambdaColumnMemo:
    """The fast path memoizes each source topic's lambda-integral column
    by ``(topic, count)``; every refresh must leave exactly the bits a
    fresh integral of the current count produces, also when two counts
    share a memo slot (``RING`` apart) and after external count edits.
    """

    @staticmethod
    def fresh_columns(kernel):
        """``(U + 1, S)``: unit-row-augmented integrals at the current
        counts, by the buffered add/divide/matmul of the refresh."""
        tables = kernel.tables
        nt = kernel.state.nt
        num_unique = tables.power_table.shape[0]
        columns = np.empty((num_unique + 1, kernel.num_source))
        ratio = np.empty(tables.num_nodes)
        column = np.empty(num_unique + 1)
        for t in range(kernel.num_source):
            aug = np.empty((num_unique + 1, tables.num_nodes))
            aug[0] = 1.0
            aug[1:] = tables.power_table[:, t, :]
            np.add(nt[kernel.num_free + t], tables.sum_delta[t], out=ratio)
            np.divide(kernel.grid.weights, ratio, out=ratio)
            np.matmul(aug, ratio, out=column)
            columns[:, t] = column
        return columns

    def assert_exact(self, path, kernel):
        k = kernel.num_free
        assert np.array_equal(path._E, self.fresh_columns(kernel))
        assert np.array_equal(path._C, path._E[0])
        assert np.array_equal(path._nt_free,
                              kernel.state.nt[:k] + kernel._beta_sum)

    @pytest.mark.parametrize("num_free", [0, 2])
    def test_every_refresh_matches_a_fresh_integral(
            self, wiki_source, wiki_corpus, num_free):
        prior = SourcePrior(wiki_source, wiki_corpus.vocabulary)
        grid = LambdaGrid.from_prior(0.7, 0.3, steps=5)
        state, kernel = _kernel(prior, wiki_corpus, num_free, grid)
        path = kernel.fast_path()
        path.begin_sweep()
        self.assert_exact(path, kernel)
        rng = np.random.default_rng(5)
        nt = state.nt
        # Mostly +-1 steps (the sampler's moves), plus jumps of exactly
        # RING and 2 * RING that land on an occupied slot with a
        # different count.
        moves = [1, -1, RING, -RING, 2 * RING, -2 * RING]
        for _ in range(800):
            topic = int(rng.integers(state.num_topics))
            move = moves[rng.choice(6, p=[0.4, 0.4, 0.05, 0.05,
                                          0.05, 0.05])]
            nt[topic] = max(nt[topic] + move, 0.0)
            path.topic_changed(topic)
            self.assert_exact(path, kernel)
        # External count edits, absorbed by the next sweep start.
        state.z[:300] = rng.integers(state.num_topics, size=300)
        state.rebuild_counts()
        path.begin_sweep()
        self.assert_exact(path, kernel)
        assert path.lambda_column_misses > 0


def _dense_phi(kernel):
    """Equation 4 through the dense inverse table: the gather of the
    integrated unique values plus the scatter over ``nonzero(nw)``."""
    state, tables, k = kernel.state, kernel.tables, kernel.num_free
    phi = np.empty((state.num_topics, state.vocab_size))
    if k:
        phi[:k] = ((state.nw[:, :k] + kernel.beta)
                   / (state.nt[:k] + kernel._beta_sum)).T
    ratio = kernel._omega / (state.nt[k:, np.newaxis] + tables.sum_delta)
    integrated = np.einsum("uta,ta->ut", tables.power_table, ratio)
    phi[k:] = integrated[tables.inverse,
                         np.arange(kernel.num_source)[:, np.newaxis]]
    counts = state.nw[:, k:]
    word_idx, topic_idx = np.nonzero(counts)
    phi[k + topic_idx, word_idx] += (counts[word_idx, topic_idx]
                                     * ratio.sum(axis=1)[topic_idx])
    return phi


class TestSparseBuiltTables:
    """The fill-plus-scatter tables equal the dense-inverse formulas."""

    @pytest.fixture(scope="class")
    def superset_kernel(self, superset_source):
        # Section IV.E shape: T=2000, V=1000, 400 documents of 50 tokens,
        # after one alias sweep.
        source, vocab = superset_source
        prior = SourcePrior(source, vocab)
        rng = np.random.default_rng(3)
        ids = [rng.integers(0, len(vocab), size=50) for _ in range(400)]
        corpus = Corpus.from_word_id_lists(ids, vocab)
        grid = LambdaGrid.from_prior(0.7, 0.3, steps=5)
        state, kernel = _kernel(prior, corpus, 0, grid)
        CollapsedGibbsSampler(state, kernel, rng, engine="alias").sweep()
        return kernel

    def test_flat_matches_dense_inverse(self, superset_kernel):
        tables = superset_kernel.tables
        num_unique = tables.power_table.shape[0]
        expected = (tables.inverse.T.astype(np.int64) + 1
                    + (num_unique + 1) * np.arange(
                        tables.num_topics, dtype=np.int64)[np.newaxis, :])
        flat = superset_kernel.fast_path()._flat
        assert flat.dtype == np.int64
        assert np.array_equal(flat, expected)

    def test_corrections_match_dense_inverse(self, superset_kernel):
        path = superset_kernel.alias_path()
        topic_idx, word_idx = np.nonzero(superset_kernel.tables.inverse)
        order = np.argsort(word_idx, kind="stable")
        expected_ptr = np.searchsorted(
            word_idx[order],
            np.arange(superset_kernel.state.vocab_size + 1)).tolist()
        assert path._corr_ptr == expected_ptr
        assert path._corr_topics.dtype == np.int64
        assert np.array_equal(path._corr_topics, topic_idx[order])

    def test_phi_after_a_sweep_matches_dense_formula(self,
                                                     superset_kernel):
        assert np.array_equal(superset_kernel.phi(),
                              _dense_phi(superset_kernel))

    def test_mixed_layout_phi_matches_dense_formula(self, wiki_source,
                                                    wiki_corpus):
        prior = SourcePrior(wiki_source, wiki_corpus.vocabulary)
        grid = LambdaGrid.from_prior(0.7, 0.3, steps=5)
        state, kernel = _kernel(prior, wiki_corpus, 2, grid)
        CollapsedGibbsSampler(state, kernel, np.random.default_rng(4)
                              ).sweep()
        assert np.array_equal(kernel.phi(), _dense_phi(kernel))


class TestValidation:
    def test_rejects_bad_split(self, setup):
        prior, corpus = setup
        grid = LambdaGrid.fixed(1.0)
        tables = prior.grid_tables(grid.nodes)
        state = GibbsState(corpus, prior.num_topics)  # no room for free
        state.initialize_random(np.random.default_rng(0))
        with pytest.raises(ValueError, match="invalid split"):
            SourceTopicsKernel(state, num_free=prior.num_topics,
                               alpha=0.5, beta=0.1, tables=tables,
                               grid=grid)

    def test_rejects_node_count_mismatch(self, setup):
        prior, corpus = setup
        tables = prior.grid_tables(np.array([1.0]))
        state = GibbsState(corpus, prior.num_topics)
        state.initialize_random(np.random.default_rng(0))
        with pytest.raises(ValueError, match="nodes"):
            SourceTopicsKernel(state, num_free=0, alpha=0.5, beta=0.1,
                               tables=tables,
                               grid=LambdaGrid.from_prior(0.5, 0.5, 3))

    def test_rejects_nonpositive_priors(self, setup):
        prior, corpus = setup
        grid = LambdaGrid.fixed(1.0)
        tables = prior.grid_tables(grid.nodes)
        state = GibbsState(corpus, prior.num_topics)
        state.initialize_random(np.random.default_rng(0))
        with pytest.raises(ValueError, match="positive"):
            SourceTopicsKernel(state, num_free=0, alpha=0.0, beta=0.1,
                               tables=tables, grid=grid)
