"""Correctness of the alias/MH sweep engine.

The alias engine (`repro.sampling.alias_engine`) has one lane: bijective
Source-LDA (all source topics, non-negative quadrature exponents).  It
samples each token with two Metropolis-Hastings sub-steps against
*stale* proposal tables, so it is not draw-for-draw identical to the
reference.  Its contract is pinned in five layers:

* **invariance pin**: one alias/MH transition applied to a state drawn
  from the exact per-token conditional must leave that conditional
  invariant (detailed balance of the MH correction) — verified by a
  chi-squared test on frozen counts, at several staleness settings;
* **chain digest**: a fixed-seed chain hashes to a pinned digest, so a
  refactor of the lane that moves a single draw fails;
* **staleness/rebuild invariants**: per-word rebuilds snapshot the live
  counts, the acceptance rate is recorded and bounded away from zero,
  and the rebuild cadence never shifts the shared RNG stream (exactly
  four uniforms per token, rebuilds draw none);
* **chain validity**: sweeps preserve the count-matrix invariants,
  chunk boundaries included;
* **distributional parity**: alias chains land on the same posterior
  summaries (log likelihood, held-out perplexity, theta) as fast (and
  hence reference) chains.

Kernels without an alias path (LDA, EDA, CTM, mixed-layout source
kernels, bijective layouts with negative quadrature exponents, custom
kernels) fall back to the fast engine, reproducing its chain
byte-for-byte.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from scipy import stats

from repro.core.bijective import BijectiveSourceLDA
from repro.core.kernels import SourceTopicsKernel
from repro.core.priors import SourcePrior
from repro.metrics.divergence import js_divergence
from repro.metrics.perplexity import perplexity_heldout_gibbs
from repro.sampling import runtime
from repro.sampling.alias_engine import DEFAULT_REBUILD_EVERY
from repro.sampling.gibbs import CollapsedGibbsSampler, TopicWeightKernel
from repro.sampling.integration import LambdaGrid
from repro.sampling.runtime import rebuild_alias_word, run_alias_mh_chunk
from repro.sampling.state import GibbsState

INIT_SEED = 3
DRAW_SEED = 11


def make_state(corpus, num_topics, seed=INIT_SEED):
    state = GibbsState(corpus, num_topics)
    state.initialize_random(np.random.default_rng(seed))
    return state


def source_kernel_factory(source, corpus, num_free, grid):
    prior = SourcePrior(source, corpus.vocabulary)
    tables = prior.grid_tables(grid.nodes)
    return (lambda s: SourceTopicsKernel(
        s, num_free=num_free, alpha=0.5, beta=0.1, tables=tables,
        grid=grid), num_free + prior.num_topics)


def bijective_kernel(source, corpus, steps=5):
    """A fresh state and bijective source kernel on a lambda-prior
    grid of ``steps`` nodes."""
    make, num_topics = source_kernel_factory(
        source, corpus, 0, LambdaGrid.from_prior(0.7, 0.3, steps))
    state = make_state(corpus, num_topics)
    return state, make(state)


def floor_row(kernel):
    """``E1``, the epsilon-floor part of every ``D[w, t]``, evaluated
    from the kernel's tables instead of the alias lane's cache."""
    state = kernel.state
    tables = kernel.tables
    ratio = kernel._omega / (state.nt[:, np.newaxis] + tables.sum_delta)
    return (tables.power_table[0] * ratio).sum(axis=1)


class TestInvariancePin:
    """One MH transition leaves the exact conditional invariant.

    The MH correction guarantees the per-token conditional ``pi`` is
    the stationary distribution of the word/doc proposal cycle *no
    matter how stale the proposal tables are*.  Pin exactly that: with
    every other token frozen, draw the current token's topic from the
    exact ``pi``, push it through one alias/MH transition, and
    chi-squared the resulting topic frequencies against ``pi``.  The
    proposal tables are left to drift with whatever staleness the
    ``rebuild_every`` cadence produces, so the pin covers fresh and
    heavily stale tables alike.
    """

    def _pin(self, state, kernel, num_draws, rebuild_every, token,
             seed=29):
        rng = np.random.default_rng(seed)
        word = int(state.words[token])
        doc = int(state.doc_ids[token])
        s0 = int(state.z[token])
        nw, nt, nd = state.nw, state.nt, state.nd
        # Freeze the "all other tokens" state: remove the pinned token.
        nw[word, s0] -= 1.0
        nt[s0] -= 1.0
        nd[doc, s0] -= 1.0
        pi = kernel.weights(word, doc)
        probs = pi / pi.sum()
        path = kernel.alias_path()
        assert path is not None
        path.rebuild_every = rebuild_every
        table = path.alias_table()
        path.begin_sweep()
        # The lane refreshes only the E columns it touches, so every
        # count change made here must refresh its column too.
        topic_changed = path._fast.topic_changed
        num_topics = state.num_topics
        counts = np.zeros(num_topics)
        doc_start = int(table.doc_starts[doc])
        doc_len = int(table.doc_lengths[doc])
        pin_position = token - doc_start
        initial = rng.choice(num_topics, size=num_draws, p=probs)
        for s in initial:
            s = int(s)
            nw[word, s] += 1.0
            nt[s] += 1.0
            nd[doc, s] += 1.0
            topic_changed(s)
            state.z[token] = s
            # Park the doc cursor on the pinned token's own slot: the
            # chunk's doc proposal skips ``doc_z[position]``, exactly
            # where a real sweep's cursor would sit for this token.
            table.current_doc = doc
            table.doc_len = doc_len
            table.position = pin_position
            table.nd_row = nd[doc]
            table.doc_z[:doc_len] = state.z[doc_start:doc_start
                                            + doc_len]
            out: list[int] = []
            run_alias_mh_chunk(state, table, [word], [doc], [s],
                               rng.random(4).tolist(), out)
            t = out[0]
            counts[t] += 1.0
            # Back to the frozen base for the next trial.
            nw[word, t] -= 1.0
            nt[t] -= 1.0
            nd[doc, t] -= 1.0
            topic_changed(t)
        assert not state.counts_consistent()  # token still removed
        expected = probs * num_draws
        keep = expected >= 5.0
        assert keep.sum() >= 2
        observed = counts[keep]
        rescaled = expected[keep] * observed.sum() / expected[keep].sum()
        _, pvalue = stats.chisquare(observed, rescaled)
        assert pvalue > 1e-3

    @pytest.mark.parametrize("rebuild_every", [1, 64])
    def test_source(self, wiki_source, wiki_corpus, rebuild_every):
        # Token 207's conditional is broad (largest probability about
        # 0.37), so a biased transition shows in several topics, and
        # its word is rare (four other tokens), so a stale component
        # that snapshots the token's own count skews the proposal
        # enough to fail the pin at rebuild_every=1.  A frequent word
        # hides that defect.
        state, kernel = bijective_kernel(wiki_source, wiki_corpus)
        self._pin(state, kernel, num_draws=10000,
                  rebuild_every=rebuild_every, token=207)


class TestChainDigest:
    """The lane's draws, pinned bit for bit.

    The digests were recorded when the lane still carried LDA and EDA
    modes, so they also pin that removing those modes moved no draw.
    """

    DIGESTS = {
        1: "b2804cd82413fc7ba287dd7e3db4e22b"
           "bda30494418f46f2cf41b435070ca8eb",
        64: "f31453ea3933a59a503f6d2cd29accfe"
            "4fabdb0cafdf17e66deb6d7060774ea6",
    }

    @pytest.mark.parametrize("rebuild_every", [1, 64])
    def test_source_chain_digest(self, wiki_source, wiki_corpus,
                                 rebuild_every):
        state, kernel = bijective_kernel(wiki_source, wiki_corpus, steps=4)
        engine = CollapsedGibbsSampler(state, kernel,
                                       np.random.default_rng(DRAW_SEED),
                                       engine="alias",
                                       rebuild_every=rebuild_every)
        for _ in range(3):
            engine.sweep()
        assert state.z.dtype == np.int64
        digest = hashlib.sha256(state.z.tobytes()).hexdigest()
        assert digest == self.DIGESTS[rebuild_every]


class TestRebuildInvariants:
    def expected_component(self, kernel, word):
        """The sparse component a rebuild of ``word`` must freeze: its
        support (nonzero counts plus article-correction topics) and
        ``nw * C + D - E1`` there, from the reference weights."""
        state = kernel.state
        in_article = np.flatnonzero(kernel.tables.inverse[:, word])
        support = np.union1d(np.flatnonzero(state.nw[word]), in_article)
        factor = kernel.weights(word, 0) / (state.nd[0] + kernel.alpha)
        values = factor - floor_row(kernel)
        return support, np.maximum(values.take(support), 0.0)

    def assert_snapshot(self, table, kernel, word):
        support, expected = self.expected_component(kernel, word)
        np.testing.assert_array_equal(table.word_topics[word], support)
        np.testing.assert_allclose(table.word_vals[word], expected,
                                   rtol=1e-9, atol=1e-12)
        assert table.word_mass[word] == pytest.approx(expected.sum())
        assert table.draws_since[word] == 0

    def test_rebuild_snapshots_live_counts(self, wiki_source, wiki_corpus):
        state, kernel = bijective_kernel(wiki_source, wiki_corpus)
        path = kernel.alias_path()
        table = path.alias_table()
        path.begin_sweep()
        word = int(state.words[0])
        rebuild_alias_word(table, state, word)
        self.assert_snapshot(table, kernel, word)

    def test_rebuild_after_count_change_reflects_update(
            self, wiki_source, wiki_corpus):
        # A rebuild after K draws must reflect counts as updated in the
        # meantime, not the stale snapshot.
        state, kernel = bijective_kernel(wiki_source, wiki_corpus)
        path = kernel.alias_path()
        table = path.alias_table()
        path.begin_sweep()
        word = int(state.words[0])
        rebuild_alias_word(table, state, word)
        stale_vals = list(table.word_vals[word])
        # Move one token of this word to a fresh topic.
        token = int(np.flatnonzero(state.words == word)[0])
        old = int(state.z[token])
        new = (old + 1) % state.num_topics
        doc = int(state.doc_ids[token])
        for row, delta in ((old, -1.0), (new, 1.0)):
            state.nw[word, row] += delta
            state.nt[row] += delta
            state.nd[doc, row] += delta
            path._fast.topic_changed(row)
        state.z[token] = new
        rebuild_alias_word(table, state, word)
        self.assert_snapshot(table, kernel, word)
        assert list(table.word_vals[word]) != stale_vals

    def test_acceptance_rate_recorded_and_positive(self, wiki_source,
                                                   wiki_corpus):
        state, kernel = bijective_kernel(wiki_source, wiki_corpus)
        engine = CollapsedGibbsSampler(state, kernel,
                                       np.random.default_rng(DRAW_SEED),
                                       engine="alias")
        assert engine.acceptance_rate is None  # no proposals yet
        for _ in range(3):
            engine.sweep()
        rate = engine.acceptance_rate
        proposals = int(engine._path.alias_table().mh_counts[0])
        assert proposals == 2 * 3 * state.num_tokens  # 2 sub-steps/token
        # The MH correction must not degenerate into rejecting nearly
        # everything (which would silently stop mixing).
        assert 0.05 < rate <= 1.0

    @pytest.mark.parametrize("make_rng", [
        lambda: np.random.default_rng(DRAW_SEED)])
    def test_rebuild_cadence_never_shifts_rng_stream(self, wiki_source,
                                                     wiki_corpus,
                                                     make_rng):
        # Four uniforms per token, rebuilds draw none: the stream
        # position after N sweeps is a function of the token count
        # alone, so every rebuild cadence leaves the generator in the
        # same state (the chains differ, the stream does not).
        states = []
        for rebuild_every in (1, 7, DEFAULT_REBUILD_EVERY):
            state, kernel = bijective_kernel(wiki_source, wiki_corpus)
            rng = make_rng()
            engine = CollapsedGibbsSampler(state, kernel, rng,
                                           engine="alias",
                                           rebuild_every=rebuild_every)
            for _ in range(3):
                engine.sweep()
            states.append(rng.bit_generator.state)
        assert states[0] == states[1] == states[2]

    def test_invalid_rebuild_every_rejected(self, wiki_source,
                                            wiki_corpus):
        state, kernel = bijective_kernel(wiki_source, wiki_corpus)
        with pytest.raises(ValueError, match="rebuild_every"):
            CollapsedGibbsSampler(state, kernel,
                                  np.random.default_rng(DRAW_SEED),
                                  engine="alias", rebuild_every=0)


class TestChainValidity:
    def run_alias(self, corpus, make_kernel, num_topics, sweeps=4):
        state = make_state(corpus, num_topics)
        kernel = make_kernel(state)
        sampler = CollapsedGibbsSampler(
            state, kernel, np.random.default_rng(DRAW_SEED),
            engine="alias")
        sampler.run(sweeps)
        assert sampler.acceptance_rate is not None  # the alias lane ran
        assert state.counts_consistent()
        assert state.z.min() >= 0
        assert state.z.max() < num_topics
        return state

    def test_source_bijective(self, wiki_source, wiki_corpus):
        make, num_topics = source_kernel_factory(
            wiki_source, wiki_corpus, 0, LambdaGrid.from_prior(0.7, 0.3, 5))
        self.run_alias(wiki_corpus, make, num_topics)

    def test_single_document_corpus(self, small_source):
        # Exercises the source lane's doc-cursor reset across sweeps
        # when document boundaries never change.
        from repro.text.corpus import Corpus
        corpus = Corpus.from_texts(
            ["pencil ruler baseball umpire recipe oven pencil bake"],
            tokenizer=None)
        make, num_topics = source_kernel_factory(
            small_source, corpus, 0, LambdaGrid.from_prior(0.7, 0.3, 3))
        self.run_alias(corpus, make, num_topics, sweeps=5)

    def _chunked_chains(self, monkeypatch, corpus, make_kernel, num_topics,
                        rebuild_every=DEFAULT_REBUILD_EVERY):
        states = {}
        for chunk_size in (7, 65536):
            monkeypatch.setattr(runtime, "CHUNK_SIZE", chunk_size)
            state = make_state(corpus, num_topics)
            engine = CollapsedGibbsSampler(
                state, make_kernel(state), np.random.default_rng(DRAW_SEED),
                engine="alias", rebuild_every=rebuild_every)
            for _ in range(3):
                engine.sweep()
            states[chunk_size] = state
        np.testing.assert_array_equal(states[7].z, states[65536].z)

    def test_chunk_boundaries_preserve_chain(self, wiki_source,
                                             wiki_corpus, monkeypatch):
        # The alias lane carries the doc cursor and per-word staleness
        # counters across chunk boundaries; a tiny chunk size must
        # reproduce the default chain exactly — here on the fixed-lambda
        # bijective layout, with a rebuild on every draw.
        make, num_topics = source_kernel_factory(
            wiki_source, wiki_corpus, 0, LambdaGrid.fixed(1.0))
        self._chunked_chains(monkeypatch, wiki_corpus, make, num_topics,
                             rebuild_every=1)

    def test_source_chunk_boundaries_preserve_chain(self, wiki_source,
                                                    wiki_corpus,
                                                    monkeypatch):
        make, num_topics = source_kernel_factory(
            wiki_source, wiki_corpus, 0, LambdaGrid.from_prior(0.7, 0.3, 4))
        self._chunked_chains(monkeypatch, wiki_corpus, make, num_topics)


class TestDistributionalParity:
    """Alias chains must land where fast (= reference) chains land."""

    def test_source_log_likelihood_agrees(self, wiki_source, wiki_corpus):
        make, num_topics = source_kernel_factory(
            wiki_source, wiki_corpus, 0, LambdaGrid.from_prior(0.7, 0.3, 5))
        finals = {}
        for engine in ("fast", "alias"):
            state = make_state(wiki_corpus, num_topics)
            kernel = make(state)
            lls = CollapsedGibbsSampler(
                state, kernel, np.random.default_rng(DRAW_SEED),
                engine=engine, rebuild_every=1).run(
                    25, track_log_likelihood=True)
            finals[engine] = np.mean(lls[-8:])
        assert finals["alias"] == pytest.approx(finals["fast"],
                                                rel=0.02)

    def test_source_default_cadence_stays_in_envelope(self, wiki_source,
                                                      wiki_corpus):
        # At the default cadence the stale snapshots lag the counts by
        # rebuild_every draws per word; the resulting chain-level bias
        # scales with staleness over per-word token count, which this
        # toy corpus makes about as large as it ever gets.  Pin a
        # loose envelope so a real regression (systematic drift away
        # from the fast chain) still fails.
        make, num_topics = source_kernel_factory(
            wiki_source, wiki_corpus, 0, LambdaGrid.from_prior(0.7, 0.3, 5))
        finals = {}
        for engine in ("fast", "alias"):
            state = make_state(wiki_corpus, num_topics)
            lls = CollapsedGibbsSampler(
                state, make(state), np.random.default_rng(DRAW_SEED),
                engine=engine).run(15, track_log_likelihood=True)
            finals[engine] = np.mean(lls[-5:])
        assert finals["alias"] == pytest.approx(finals["fast"],
                                                rel=0.08)

    def test_source_theta_js_parity(self, wiki_source, wiki_corpus):
        # Source topics are anchored by their articles, so per-document
        # theta rows are comparable across independent chains.
        thetas = {}
        for engine in ("fast", "alias"):
            fitted = BijectiveSourceLDA(wiki_source, engine=engine).fit(
                wiki_corpus, iterations=15, seed=5)
            thetas[engine] = fitted.theta
        mean_js = float(np.mean(js_divergence(thetas["alias"],
                                              thetas["fast"])))
        assert mean_js < 0.05

    def test_source_heldout_perplexity_parity(self, wiki_source,
                                              wiki_corpus):
        perplexities = {}
        for engine in ("fast", "alias"):
            fitted = BijectiveSourceLDA(wiki_source, engine=engine).fit(
                wiki_corpus, iterations=15, seed=5)
            perplexities[engine] = perplexity_heldout_gibbs(
                fitted.phi, wiki_corpus, alpha=0.1, iterations=10,
                rng=DRAW_SEED)
        assert perplexities["alias"] == pytest.approx(
            perplexities["fast"], rel=0.05)


class TestEngineSelection:
    def test_all_six_models_accept_alias(self, wiki_source, wiki_corpus):
        from repro.core.mixture import MixtureSourceLDA
        from repro.core.source_lda import SourceLDA
        from repro.models.ctm import CTM
        from repro.models.eda import EDA
        from repro.models.lda import LDA

        models = [
            LDA(4, engine="alias"),
            EDA(wiki_source, engine="alias"),
            CTM(wiki_source, num_free_topics=1, top_n_words=20,
                engine="alias"),
            BijectiveSourceLDA(wiki_source, engine="alias"),
            MixtureSourceLDA(wiki_source, num_free_topics=2,
                             engine="alias"),
            SourceLDA(wiki_source, num_unlabeled_topics=1,
                      approximation_steps=3, engine="alias"),
        ]
        for model in models:
            fitted = model.fit(wiki_corpus, iterations=2, seed=5)
            np.testing.assert_allclose(fitted.theta.sum(axis=1), 1.0)
            assignments = fitted.flat_assignments()
            assert assignments.min() >= 0
            assert assignments.max() < fitted.num_topics


class PlainKernel(TopicWeightKernel):
    """No fast or alias path — exercises both fallbacks."""

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


def negative_exponent_kernel(source, corpus, state):
    """A bijective source kernel whose quadrature has a negative
    exponent: powered values are no longer ordered like the raw ones,
    so the epsilon-floor/correction split (and with it the alias
    lane) does not apply."""
    prior = SourcePrior(source, corpus.vocabulary)
    grid = LambdaGrid(nodes=np.array([0.3, 0.6]),
                      weights=np.array([0.5, 0.5]))
    tables = prior.grid_tables(np.array([-0.3, 0.6]))
    return SourceTopicsKernel(state, num_free=0, alpha=0.5, beta=0.1,
                              tables=tables, grid=grid)


class TestFallback:
    """Kernels without an alias path run the fast engine's chain, which
    is the reference chain draw for draw."""

    def run_engines(self, corpus, make_kernel, num_topics, engines,
                    sweeps=3):
        states = {}
        for engine in engines:
            state = make_state(corpus, num_topics)
            CollapsedGibbsSampler(
                state, make_kernel(state),
                np.random.default_rng(DRAW_SEED), engine=engine).run(sweeps)
            states[engine] = state.z.copy()
        return states

    @pytest.mark.parametrize("model", ["lda", "eda"])
    def test_lda_eda_fall_back_to_fast(self, wiki_source, wiki_corpus,
                                       model):
        # LDA and EDA have no alias lane: engine="alias" fits exactly
        # what engine="fast" fits and runs no MH machinery.
        from repro.models.eda import EDA, EdaKernel
        from repro.models.lda import LDA, LdaKernel
        build = {"lda": lambda engine: LDA(6, engine=engine),
                 "eda": lambda engine: EDA(wiki_source, engine=engine)}
        fits = {engine: build[model](engine).fit(wiki_corpus,
                                                 iterations=3, seed=5)
                for engine in ("fast", "alias")}
        np.testing.assert_array_equal(fits["alias"].flat_assignments(),
                                      fits["fast"].flat_assignments())
        np.testing.assert_array_equal(fits["alias"].theta,
                                      fits["fast"].theta)
        np.testing.assert_array_equal(fits["alias"].phi, fits["fast"].phi)
        phi = fits["fast"].phi
        state = make_state(wiki_corpus, phi.shape[0])
        kernel = (LdaKernel(state, 0.5, 0.1) if model == "lda"
                  else EdaKernel(state, phi, 0.5))
        assert kernel.alias_path() is None
        sampler = CollapsedGibbsSampler(
            state, kernel, np.random.default_rng(DRAW_SEED),
            engine="alias")
        sampler.run(1)
        assert sampler.acceptance_rate is None

    def test_ctm_falls_back_and_matches_fast(self, wiki_source,
                                             wiki_corpus):
        from repro.models.ctm import CtmKernel, concept_word_mask
        mask = concept_word_mask(wiki_source, wiki_corpus.vocabulary,
                                 top_n_words=20)
        states = self.run_engines(
            wiki_corpus,
            lambda s: CtmKernel(s, mask, num_free=1, alpha=0.5, beta=0.1),
            len(wiki_source) + 1, ("fast", "alias"))
        np.testing.assert_array_equal(states["alias"], states["fast"])

    def test_ctm_falls_back_to_fast(self, wiki_source, wiki_corpus):
        # Two free topics next to the concept topics: all three engines
        # must walk the same chain.
        from repro.models.ctm import CtmKernel, concept_word_mask
        mask = concept_word_mask(wiki_source, wiki_corpus.vocabulary,
                                 top_n_words=20)
        states = self.run_engines(
            wiki_corpus,
            lambda s: CtmKernel(s, mask, 2, alpha=0.5, beta=0.1),
            2 + len(wiki_source), ("reference", "fast", "alias"))
        np.testing.assert_array_equal(states["reference"], states["alias"])
        np.testing.assert_array_equal(states["fast"], states["alias"])

    def test_mixed_source_falls_back_to_fast(self, wiki_source,
                                             wiki_corpus):
        make, num_topics = source_kernel_factory(
            wiki_source, wiki_corpus, 2, LambdaGrid.fixed(1.0))
        states = self.run_engines(wiki_corpus, make, num_topics,
                                  ("fast", "alias"))
        np.testing.assert_array_equal(states["alias"], states["fast"])

    def test_negative_exponents_fall_back_to_fast(self, small_source,
                                                  tiny_corpus):
        state = make_state(tiny_corpus, len(small_source))
        kernel = negative_exponent_kernel(small_source, tiny_corpus, state)
        assert kernel.alias_path() is None
        states = self.run_engines(
            tiny_corpus,
            lambda s: negative_exponent_kernel(small_source, tiny_corpus,
                                               s),
            len(small_source), ("fast", "alias"))
        np.testing.assert_array_equal(states["alias"], states["fast"])

    def test_custom_kernel_matches_reference(self, wiki_corpus):
        states = self.run_engines(wiki_corpus, PlainKernel, 4,
                                  ("reference", "alias"))
        np.testing.assert_array_equal(states["alias"], states["reference"])

    def test_fallback_engine_reports_no_path(self, tiny_corpus):
        # No alias path and no fast path: the pick falls back two
        # steps, to the reference lane.
        state = make_state(tiny_corpus, 2)
        engine = CollapsedGibbsSampler(state, PlainKernel(state),
                                       np.random.default_rng(0),
                                       engine="alias")
        assert engine._path is None
        assert engine._lane is runtime.sweep_reference
        engine.sweep()
        assert state.counts_consistent()
        assert engine.acceptance_rate is None

    def test_fallback_reports_no_acceptance_rate(self, wiki_source,
                                                 wiki_corpus):
        make, num_topics = source_kernel_factory(
            wiki_source, wiki_corpus, 2, LambdaGrid.fixed(1.0))
        state = make_state(wiki_corpus, num_topics)
        engine = CollapsedGibbsSampler(state, make(state),
                                       np.random.default_rng(DRAW_SEED),
                                       engine="alias")
        engine.sweep()
        assert engine.acceptance_rate is None
