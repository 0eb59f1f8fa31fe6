"""Draw-for-draw exactness of the fast sweep engine.

The fast engine (`repro.sampling.fast_engine`) must reproduce the
reference Algorithm 1 sweep *exactly*: same seed in, byte-identical
``z``/``nw``/``nd``/``nt`` out, for every kernel in the model family.
These tests are the oracle the ISSUE's incremental-cache algebra is held
against.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.kernels import SourceTopicsKernel
from repro.core.priors import SourcePrior
from repro.models.ctm import CtmKernel, concept_word_mask
from repro.models.eda import EdaKernel
from repro.models.lda import LdaKernel
from repro.sampling import runtime
from repro.sampling.fast_engine import FastKernelPath
from repro.sampling.gibbs import (ENGINES, CollapsedGibbsSampler,
                                  TopicWeightKernel)
from repro.sampling.integration import LambdaGrid
from repro.sampling.state import GibbsState

SWEEPS = 4
INIT_SEED = 3
DRAW_SEED = 11


def run_engines(corpus, make_kernel, num_topics, sweeps=SWEEPS):
    """Run reference and fast sweeps from identical seeds; return states."""
    states = {}
    for engine in ("reference", "fast"):
        state = GibbsState(corpus, num_topics)
        state.initialize_random(np.random.default_rng(INIT_SEED))
        kernel = make_kernel(state)
        sampler = CollapsedGibbsSampler(
            state, kernel, np.random.default_rng(DRAW_SEED), engine=engine)
        for _ in range(sweeps):
            sampler.sweep()
        states[engine] = state
    return states["reference"], states["fast"]


def assert_identical(reference: GibbsState, fast: GibbsState) -> None:
    assert np.array_equal(reference.z, fast.z)
    assert np.array_equal(reference.nw, fast.nw)
    assert np.array_equal(reference.nd, fast.nd)
    assert np.array_equal(reference.nt, fast.nt)
    assert fast.counts_consistent()


class TestLdaExactness:
    def test_byte_identical(self, wiki_corpus):
        ref, fast = run_engines(
            wiki_corpus, lambda s: LdaKernel(s, alpha=0.5, beta=0.1),
            num_topics=6)
        assert_identical(ref, fast)

    def test_single_topic(self, tiny_corpus):
        ref, fast = run_engines(
            tiny_corpus, lambda s: LdaKernel(s, alpha=0.5, beta=0.1),
            num_topics=1)
        assert_identical(ref, fast)


class TestEdaExactness:
    def test_byte_identical(self, wiki_source, wiki_corpus):
        from repro.knowledge.distributions import source_hyperparameters
        counts = wiki_source.count_matrix(wiki_corpus.vocabulary)
        smoothed = source_hyperparameters(counts, 0.01)
        phi = smoothed / smoothed.sum(axis=1, keepdims=True)
        ref, fast = run_engines(
            wiki_corpus, lambda s: EdaKernel(s, phi, alpha=0.5),
            num_topics=len(wiki_source))
        assert_identical(ref, fast)


class TestCtmExactness:
    def test_mixed_layout(self, wiki_source, wiki_corpus):
        num_free = 2
        mask = concept_word_mask(wiki_source, wiki_corpus.vocabulary,
                                 top_n_words=20)
        ref, fast = run_engines(
            wiki_corpus,
            lambda s: CtmKernel(s, mask, num_free, alpha=0.5, beta=0.1),
            num_topics=num_free + len(wiki_source))
        assert_identical(ref, fast)

    def test_out_of_bag_fallback(self, wiki_source, wiki_corpus):
        # Bags of one word leave most tokens outside every bag; with no
        # free topics this exercises the uniform-over-concepts fallback
        # branch on both engines.
        mask = concept_word_mask(wiki_source, wiki_corpus.vocabulary,
                                 top_n_words=1)
        ref, fast = run_engines(
            wiki_corpus,
            lambda s: CtmKernel(s, mask, 0, alpha=0.5, beta=0.1),
            num_topics=len(wiki_source))
        assert_identical(ref, fast)


class TestSourceTopicsExactness:
    def _make(self, source, corpus, num_free, grid):
        prior = SourcePrior(source, corpus.vocabulary)
        tables = prior.grid_tables(grid.nodes)
        return (lambda s: SourceTopicsKernel(
            s, num_free=num_free, alpha=0.5, beta=0.1, tables=tables,
            grid=grid), num_free + prior.num_topics)

    def test_bijective_fixed_lambda(self, wiki_source, wiki_corpus):
        make, num_topics = self._make(wiki_source, wiki_corpus, 0,
                                      LambdaGrid.fixed(1.0))
        ref, fast = run_engines(wiki_corpus, make, num_topics)
        assert_identical(ref, fast)

    def test_mixture_fixed_lambda(self, wiki_source, wiki_corpus):
        make, num_topics = self._make(wiki_source, wiki_corpus, 3,
                                      LambdaGrid.fixed(0.7))
        ref, fast = run_engines(wiki_corpus, make, num_topics)
        assert_identical(ref, fast)

    def test_full_grid(self, wiki_source, wiki_corpus):
        grid = LambdaGrid.from_prior(0.7, 0.3, steps=5)
        make, num_topics = self._make(wiki_source, wiki_corpus, 2, grid)
        ref, fast = run_engines(wiki_corpus, make, num_topics)
        assert_identical(ref, fast)

    def test_small_corpus(self, small_source, tiny_corpus):
        prior = SourcePrior(small_source, tiny_corpus.vocabulary)
        grid = LambdaGrid.from_prior(0.7, 0.3, steps=4)
        tables = prior.grid_tables(grid.nodes)
        ref, fast = run_engines(
            tiny_corpus,
            lambda s: SourceTopicsKernel(s, num_free=1, alpha=0.5,
                                         beta=0.1, tables=tables,
                                         grid=grid),
            prior.num_topics + 1)
        assert_identical(ref, fast)


class TestSourceChainDigest:
    """The fast lane's mixed-layout Source chain, pinned bit for bit.

    24 sweeps over the 1200-token corpus walk each topic count back
    over values it held before (and past values ``RING`` apart), so
    the lambda-column cache is refreshed from both fresh and revisited
    counts.  The digest was recorded while every refresh still
    recomputed its column, so it also pins that the (topic, count)
    memo moved no draw.
    """

    DIGEST = ("9bc1cafb462f8d8b8c3896e4f502193c"
              "4457e1e77d3ac374a5b208d0a39041b0")

    def test_mixed_layout_chain_digest(self, wiki_source, wiki_corpus):
        grid = LambdaGrid.from_prior(0.7, 0.3, steps=5)
        prior = SourcePrior(wiki_source, wiki_corpus.vocabulary)
        state = GibbsState(wiki_corpus, 2 + prior.num_topics)
        state.initialize_random(np.random.default_rng(INIT_SEED))
        kernel = SourceTopicsKernel(
            state, num_free=2, alpha=0.5, beta=0.1,
            tables=prior.grid_tables(grid.nodes), grid=grid)
        sampler = CollapsedGibbsSampler(
            state, kernel, np.random.default_rng(DRAW_SEED), engine="fast")
        sampler.run(24)
        assert state.z.dtype == np.int64
        digest = hashlib.sha256(state.z.tobytes()).hexdigest()
        assert digest == self.DIGEST

    #: The same chain with no free topics (the bijective layout, where
    #: the fast path's weights take their ``K == 0`` branch), recorded
    #: before the lane and the path called ufunc methods directly.
    BIJECTIVE_DIGEST = ("022ab60e14052b163e55a338d39b1a79"
                        "a57c9c67d2fa11ec8337236ae9dca052")

    def test_bijective_layout_chain_digest(self, wiki_source,
                                           wiki_corpus):
        grid = LambdaGrid.from_prior(0.7, 0.3, steps=5)
        prior = SourcePrior(wiki_source, wiki_corpus.vocabulary)
        state = GibbsState(wiki_corpus, prior.num_topics)
        state.initialize_random(np.random.default_rng(INIT_SEED))
        kernel = SourceTopicsKernel(
            state, num_free=0, alpha=0.5, beta=0.1,
            tables=prior.grid_tables(grid.nodes), grid=grid)
        sampler = CollapsedGibbsSampler(
            state, kernel, np.random.default_rng(DRAW_SEED), engine="fast")
        sampler.run(24)
        digest = hashlib.sha256(state.z.tobytes()).hexdigest()
        assert digest == self.BIJECTIVE_DIGEST


class PlainKernel(TopicWeightKernel):
    """A kernel without a fast path — exercises the generic fallback."""

    def __init__(self, state, alpha=0.5, beta=0.1):
        super().__init__(state)
        self.alpha = alpha
        self.beta = beta

    def weights(self, word, doc):
        state = self.state
        return ((state.nw[word] + self.beta)
                / (state.nt + self.beta * state.vocab_size)
                * (state.nd[doc] + self.alpha))

    def phi(self):
        raise NotImplementedError

    def log_likelihood(self):
        raise NotImplementedError


class Float32Kernel(PlainKernel):
    """:class:`PlainKernel` with float32 weights and a fast path that
    returns the same float32 weights from the lane's ``doc_row``."""

    def weights(self, word, doc):
        return super().weights(word, doc).astype(np.float32)

    def fast_path(self):
        return Float32Path(self)


class Float32Path(FastKernelPath):
    def __init__(self, kernel):
        super().__init__(kernel.state)
        self.alpha = kernel.alpha
        self.beta = kernel.beta

    def begin_sweep(self):
        pass

    def weights(self, word, doc_row):
        state = self.state
        return ((state.nw[word] + self.beta)
                / (state.nt + self.beta * state.vocab_size)
                * doc_row).astype(np.float32)


class TestFloat32Weights:
    def test_dense_lane_matches_reference(self, wiki_corpus):
        # The dense lane accumulates a path's weights in float64 exactly
        # as the reference scan's ``np.cumsum(w, dtype=float64)`` does.
        ref, fast = run_engines(wiki_corpus, Float32Kernel, num_topics=5)
        assert_identical(ref, fast)


class TestGenericFallback:
    def test_kernel_without_fast_path(self, wiki_corpus):
        ref, fast = run_engines(wiki_corpus, PlainKernel, num_topics=4)
        assert_identical(ref, fast)

    def test_engine_uses_generic_loop(self, tiny_corpus, rng):
        state = GibbsState(tiny_corpus, 2)
        state.initialize_random(rng)
        engine = CollapsedGibbsSampler(state, PlainKernel(state),
                                       np.random.default_rng(0))
        assert engine._path is None
        engine.sweep()
        assert state.counts_consistent()


def _build_model(name, source, engine):
    from repro.core.bijective import BijectiveSourceLDA
    from repro.core.mixture import MixtureSourceLDA
    from repro.core.source_lda import SourceLDA
    from repro.models.ctm import CTM
    from repro.models.eda import EDA
    from repro.models.lda import LDA
    factories = {
        "lda": lambda: LDA(3, engine=engine),
        "eda": lambda: EDA(source, engine=engine),
        "ctm": lambda: CTM(source, num_free_topics=1, engine=engine),
        "bijective": lambda: BijectiveSourceLDA(source, engine=engine),
        "mixture": lambda: MixtureSourceLDA(source, num_free_topics=1,
                                            engine=engine),
        "source": lambda: SourceLDA(source, engine=engine),
    }
    return factories[name]()


class TestEngineSelection:
    def test_engines_tuple(self):
        assert ENGINES == ("fast", "alias", "reference")

    def test_invalid_engine_rejected(self, tiny_corpus, rng):
        state = GibbsState(tiny_corpus, 2)
        state.initialize_random(rng)
        kernel = LdaKernel(state, alpha=0.5, beta=0.1)
        with pytest.raises(ValueError, match="engine"):
            CollapsedGibbsSampler(state, kernel, rng, engine="warp")

    def test_removed_sparse_engine_rejected(self, tiny_corpus, rng):
        state = GibbsState(tiny_corpus, 2)
        state.initialize_random(rng)
        kernel = LdaKernel(state, alpha=0.5, beta=0.1)
        with pytest.raises(ValueError, match="engine"):
            CollapsedGibbsSampler(state, kernel, rng, engine="sparse")

    @pytest.mark.parametrize("engine", ["sparse", "bogus"])
    @pytest.mark.parametrize("model", ["lda", "eda", "ctm", "bijective",
                                       "mixture", "source"])
    def test_model_rejects_unknown_engine_at_construction(
            self, small_source, tiny_corpus, rng, model, engine):
        # The models validate through the same function as the sampler,
        # so both fail with one message, before any prior is built.
        state = GibbsState(tiny_corpus, 2)
        state.initialize_random(rng)
        with pytest.raises(ValueError) as from_sampler:
            CollapsedGibbsSampler(state, LdaKernel(state, 0.5, 0.1), rng,
                                  engine=engine)
        with pytest.raises(ValueError) as from_model:
            _build_model(model, small_source, engine)
        assert str(from_model.value) == str(from_sampler.value)
        assert repr(engine) in str(from_model.value)

    def test_lda_model_engines_agree(self, wiki_corpus):
        from repro.models.lda import LDA
        fast = LDA(3, engine="fast").fit(wiki_corpus, iterations=2, seed=5)
        ref = LDA(3, engine="reference").fit(wiki_corpus, iterations=2,
                                             seed=5)
        for a, b in zip(fast.assignments, ref.assignments):
            assert np.array_equal(a, b)
        np.testing.assert_array_equal(fast.phi, ref.phi)

    def test_bijective_model_engines_agree(self, wiki_source, wiki_corpus):
        from repro.core.bijective import BijectiveSourceLDA
        fast = BijectiveSourceLDA(wiki_source, engine="fast").fit(
            wiki_corpus, iterations=2, seed=5)
        ref = BijectiveSourceLDA(wiki_source, engine="reference").fit(
            wiki_corpus, iterations=2, seed=5)
        for a, b in zip(fast.assignments, ref.assignments):
            assert np.array_equal(a, b)
        np.testing.assert_array_equal(fast.phi, ref.phi)

    def test_zero_mass_raises_like_reference(self, tiny_corpus, rng):
        state = GibbsState(tiny_corpus, 2)
        state.initialize_random(rng)
        phi = np.zeros((2, tiny_corpus.vocab_size))
        kernel = EdaKernel(state, phi + 1e-300, alpha=1e-9)
        kernel._phi_by_word[:] = 0.0  # force zero mass
        sampler = CollapsedGibbsSampler(state, kernel,
                                        np.random.default_rng(0),
                                        engine="fast")
        with pytest.raises(ValueError, match="positive finite mass"):
            sampler.sweep()


class TestChunkedLoop:
    def test_tiny_chunks_match_reference(self, wiki_corpus, monkeypatch):
        # Chunk boundaries must not perturb the draw stream: consecutive
        # rng.random(c) batches concatenate to one rng.random(N).
        reference = GibbsState(wiki_corpus, 4)
        reference.initialize_random(np.random.default_rng(INIT_SEED))
        sampler = CollapsedGibbsSampler(
            reference, LdaKernel(reference, 0.5, 0.1),
            np.random.default_rng(DRAW_SEED), engine="reference")
        chunked = GibbsState(wiki_corpus, 4)
        chunked.initialize_random(np.random.default_rng(INIT_SEED))
        monkeypatch.setattr(runtime, "CHUNK_SIZE", 7)
        engine = CollapsedGibbsSampler(chunked, LdaKernel(chunked, 0.5, 0.1),
                                       np.random.default_rng(DRAW_SEED))
        for _ in range(SWEEPS):
            sampler.sweep()
            engine.sweep()
        assert_identical(reference, chunked)

    def test_mid_sweep_error_keeps_z_synced(self, wiki_corpus):
        # If a kernel raises mid-sweep, z must reflect every completed
        # reassignment — the only inconsistency is the one token that
        # was decremented but never re-incremented (the reference
        # engine's failure state).
        state = GibbsState(wiki_corpus, 4)
        state.initialize_random(np.random.default_rng(INIT_SEED))
        kernel = LdaKernel(state, 0.5, 0.1)
        real_weights = kernel.fast_path().__class__.weights
        calls = {"n": 0}

        class Exploding(type(kernel.fast_path())):
            def weights(self, word, doc_row):
                calls["n"] += 1
                if calls["n"] > 10:
                    raise RuntimeError("boom")
                return real_weights(self, word, doc_row)

        engine = CollapsedGibbsSampler(state, kernel,
                                       np.random.default_rng(DRAW_SEED))
        engine._path = Exploding(kernel)
        with pytest.raises(RuntimeError, match="boom"):
            engine.sweep()
        # Re-incrementing the failing (11th) token restores consistency.
        state.increment(10, int(state.z[10]))
        assert state.counts_consistent()


class TestStateInvariants:
    def test_rebuild_counts_keeps_nt_identity(self, tiny_corpus, rng):
        state = GibbsState(tiny_corpus, 3)
        state.initialize_random(rng)
        nt_ref = state.nt
        state.initialize_random(rng)
        assert state.nt is nt_ref
        assert np.array_equal(state.nt, state.nw.sum(axis=0))

    def test_counts_consistent_after_fast_sweeps(self, wiki_corpus):
        state = GibbsState(wiki_corpus, 4)
        state.initialize_random(np.random.default_rng(0))
        kernel = LdaKernel(state, alpha=0.5, beta=0.1)
        sampler = CollapsedGibbsSampler(state, kernel,
                                        np.random.default_rng(1),
                                        engine="fast")
        sampler.run(3)
        assert state.counts_consistent()

    def test_fast_engine_survives_external_rebuild(self, wiki_corpus):
        # Caches rebuild per sweep, and state.nt is never rebound — an
        # external rebuild_counts between sweeps must not desync them.
        state = GibbsState(wiki_corpus, 4)
        state.initialize_random(np.random.default_rng(0))
        kernel = LdaKernel(state, alpha=0.5, beta=0.1)
        sampler = CollapsedGibbsSampler(state, kernel,
                                        np.random.default_rng(1),
                                        engine="fast")
        sampler.sweep()
        state.rebuild_counts()
        sampler.sweep()
        assert state.counts_consistent()


class FakeNearOneRng:
    """An rng whose every uniform is the largest double below 1.

    Drives boundary draws: ``u * total`` rounds up to exactly ``total``
    whenever ``total < 1``, which must select the last positive-weight
    topic — never a zero-weight tail entry.
    """

    U = 1.0 - 2.0 ** -53

    def random(self, size=None):
        if size is None:
            return self.U
        return np.full(size, self.U)


class TestBoundaryDraws:
    """u rounding up to the total with zero-weight tails, on both exact
    engines (scan-level coverage lives in test_scans.py)."""

    @pytest.fixture
    def corpus(self):
        from repro.text.corpus import Corpus
        return Corpus.from_texts(["a b a b", "b a b a"], tokenizer=None)

    @pytest.fixture
    def phi(self):
        # Word "b" has zero mass under topic 1 (a zero-weight tail in
        # its column) and all weights are small enough that every
        # u * total rounds to total.
        return np.array([[0.05, 0.05],
                         [0.10, 0.00]])

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_zero_tail_never_selected(self, corpus, phi, engine):
        state = GibbsState(corpus, 2)
        state.initialize_random(np.random.default_rng(INIT_SEED))
        with np.errstate(divide="ignore"):  # log of the zero phi entry
            kernel = EdaKernel(state, phi, alpha=0.5)
        sampler = CollapsedGibbsSampler(state, kernel, FakeNearOneRng(),
                                        engine=engine)
        for _ in range(2):
            sampler.sweep()
        assert state.counts_consistent()
        b_id = corpus.vocabulary.encode(["b"])[0]
        b_tokens = state.words == b_id
        # topic 1 has zero weight for word "b": the boundary clamp must
        # land on the last *positive* topic, which is topic 0.
        assert np.all(state.z[b_tokens] == 0)

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_positive_tail_boundary_is_last_topic(self, corpus, engine):
        # Without a zero tail the boundary draw clamps to the final
        # topic on every engine.
        phi = np.array([[0.05, 0.05],
                        [0.04, 0.06]])
        state = GibbsState(corpus, 2)
        state.initialize_random(np.random.default_rng(INIT_SEED))
        kernel = EdaKernel(state, phi, alpha=0.5)
        sampler = CollapsedGibbsSampler(state, kernel, FakeNearOneRng(),
                                        engine=engine)
        sampler.sweep()
        assert state.counts_consistent()
        assert np.all(state.z == 1)
