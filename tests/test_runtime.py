"""The unified sampling runtime: kernel tables, lanes, deprecated keyword.

Covers:

* the deprecated ``backend=`` keyword — ``None`` is silent, ``"auto"``
  and ``"python"`` warn and change nothing, anything else (``"numba"``
  included) raises, on every public constructor that still accepts it
  (the six models and the sampler);
* kernel tables aliasing the live path caches (data, not code);
* the fold-in lane functions, called directly, reproducing the engine
  that wraps them;
* the vectorized alias-row builder staying bit-identical to the
  sequential Vose reference;
* ``np.add.accumulate``/``np.add.reduce``, which the lanes call
  directly, giving the bits of ``cumsum``/``sum``;
* the lockstep fold-in driver: its bit-exact ``np.sum`` replica, the
  RNG pre-draw contract it rests on, row-for-row identity with the
  per-document lanes, the engine's group routing around
  ``LOCKSTEP_MIN_DOCS`` and ``LOCKSTEP_MAX_BYTES``, the memory bound
  that cap sets, and the top-of-range boundary clamp.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bijective import BijectiveSourceLDA
from repro.core.mixture import MixtureSourceLDA
from repro.core.source_lda import SourceLDA
from repro.models.base import FittedTopicModel
from repro.models.ctm import CTM
from repro.models.eda import EDA
from repro.models.lda import LDA, LdaKernel
from repro.sampling.alias import build_alias_rows, build_alias_table
from repro.sampling.gibbs import CollapsedGibbsSampler
from repro.sampling.rng import document_rng
from repro.sampling.runtime import (check_backend, foldin_exact,
                                    foldin_lockstep, foldin_sparse,
                                    pairwise_row_sums)
from repro.sampling.state import GibbsState
from repro.serving import foldin, load_model, save_model
from repro.serving.foldin import FoldInEngine
from repro.text.vocabulary import Vocabulary


def make_state(corpus, num_topics, seed=3):
    state = GibbsState(corpus, num_topics)
    state.initialize_random(np.random.default_rng(seed))
    return state


#: (name, factory) for all six model classes; factories take the
#: knowledge source plus engine/backend kwargs.
def _model_factories(wiki_source):
    return [
        ("lda", lambda **kw: LDA(4, **kw)),
        ("eda", lambda **kw: EDA(wiki_source, **kw)),
        ("ctm", lambda **kw: CTM(wiki_source, num_free_topics=1,
                                 top_n_words=20, **kw)),
        ("bijective", lambda **kw: BijectiveSourceLDA(wiki_source, **kw)),
        ("mixture", lambda **kw: MixtureSourceLDA(wiki_source,
                                                  num_free_topics=2,
                                                  **kw)),
        ("source", lambda **kw: SourceLDA(wiki_source,
                                          num_unlabeled_topics=1,
                                          approximation_steps=3, **kw)),
    ]


def _phi(num_topics=6, vocab_size=30, seed=11):
    phi = np.random.default_rng(seed).random((num_topics, vocab_size))
    return phi / phi.sum(axis=1, keepdims=True)


def _fitted_model(phi):
    vocabulary = Vocabulary()
    for i in range(phi.shape[1]):
        vocabulary.add(f"w{i}")
    return FittedTopicModel(
        phi=phi, theta=np.full((2, phi.shape[0]), 1 / phi.shape[0]),
        assignments=[np.zeros(3, dtype=np.int64)],
        vocabulary=vocabulary.freeze(), metadata={"alpha": 0.4})


class TestRegistry:
    """The deprecated keyword's check, all that remains of the backend
    registry: one implementation, and two legacy names that select it."""

    def test_python_backend_always_available(self):
        with pytest.warns(DeprecationWarning, match="backend"):
            check_backend("python")
        with pytest.warns(DeprecationWarning, match="backend"):
            check_backend("auto")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            check_backend("fortran")

    def test_missing_numba_is_loud_when_explicit(self):
        with pytest.raises(ValueError, match="numba"):
            check_backend("numba")

    def test_auto_fallback_fits_every_model(self, wiki_source,
                                            wiki_corpus):
        # The legacy "auto" must still fit cleanly, with a warning.
        for name, factory in _model_factories(wiki_source):
            with pytest.warns(DeprecationWarning):
                model = factory(engine="fast", backend="auto")
            fitted = model.fit(wiki_corpus, iterations=1, seed=5)
            np.testing.assert_allclose(fitted.theta.sum(axis=1), 1.0,
                                       err_msg=name)


#: Public constructors that still accept the deprecated keyword, as
#: ``(name, build(backend_kwargs))`` with every other argument fixed.
def _constructors(wiki_source, tiny_corpus):
    def sampler(**kw):
        state = make_state(tiny_corpus, 2)
        return CollapsedGibbsSampler(state, LdaKernel(state, 0.5, 0.1),
                                     np.random.default_rng(0), **kw)

    return dict(_model_factories(wiki_source)) | {"sampler": sampler}


MODELS = ("lda", "eda", "ctm", "bijective", "mixture", "source")
CONSTRUCTORS = MODELS + ("sampler",)


class TestDeprecatedBackend:
    @pytest.mark.parametrize("name", CONSTRUCTORS)
    def test_constructor_keyword(self, wiki_source, tiny_corpus, name):
        build = _constructors(wiki_source, tiny_corpus)[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build()
        with pytest.warns(DeprecationWarning, match="backend") as caught:
            legacy = build(backend="python")
        # stacklevel lands the warning on the constructor call above.
        assert caught[0].filename == __file__
        if name in MODELS:
            # Models keep the keyword as passed; nothing reads it.
            assert legacy.backend == "python"
        with pytest.raises(ValueError, match="numba"):
            build(backend="numba")


class TestKernelTables:
    """Tables are views of the live caches — data, not copies."""

    def test_source_table_aliases_caches(self, small_source, tiny_corpus):
        from repro.core.kernels import SourceTopicsKernel
        from repro.core.priors import SourcePrior
        from repro.sampling.integration import LambdaGrid
        prior = SourcePrior(small_source, tiny_corpus.vocabulary)
        grid = LambdaGrid.from_prior(0.7, 0.3, steps=3)
        tables = prior.grid_tables(grid.nodes)
        state = make_state(tiny_corpus, prior.num_topics)
        kernel = SourceTopicsKernel(state, num_free=0, alpha=0.5,
                                    beta=0.1, tables=tables, grid=grid)
        alias_path = kernel.alias_path()
        table = alias_path.alias_table()
        # Live-cache sharing: the alias table reads the fast path's
        # topic-major rows, its floor entries are a view of them, not a
        # copy, and it refreshes them through the path's own method.
        fast = alias_path._fast
        assert table.E_flat is fast._E_flat
        assert table.E1.base is fast._rows
        assert table.topic_changed.__self__ is fast
        alias_path.begin_sweep()
        np.testing.assert_array_equal(table.E1, fast._E[1])


class TestPythonBackendIsPrePrBehavior:
    """The deprecated backend="python" selects nothing: the chain is
    byte-identical to the default's."""

    @pytest.mark.parametrize("engine", ["fast", "alias"])
    def test_explicit_python_matches_default(self, wiki_source,
                                             wiki_corpus, engine):
        for name, factory in _model_factories(wiki_source):
            default = factory(engine=engine).fit(
                wiki_corpus, iterations=2, seed=5)
            with pytest.warns(DeprecationWarning):
                model = factory(engine=engine, backend="python")
            explicit = model.fit(wiki_corpus, iterations=2, seed=5)
            np.testing.assert_array_equal(
                default.flat_assignments(), explicit.flat_assignments(),
                err_msg=name)


class TestFoldInLanes:
    """The lane functions, called directly, are what the engine runs."""

    @pytest.mark.parametrize("mode, lane", [("exact", foldin_exact),
                                            ("sparse", foldin_sparse)])
    def test_lane_matches_engine(self, mode, lane):
        engine = FoldInEngine(_phi(), alpha=0.4, iterations=20, mode=mode)
        docs = [np.random.default_rng(12).integers(0, 30, size=n)
                for n in (14, 3, 25)]
        for doc in docs:
            direct = lane(engine._table, doc, np.random.default_rng(7))
            np.testing.assert_array_equal(
                direct, engine.fold([doc], [np.random.default_rng(7)])[0])
            np.testing.assert_allclose(direct.sum(), 1.0)


class TestVectorizedAliasRows:
    """The lockstep builder must replay Vose bit-for-bit per row."""

    def test_bit_identical_to_sequential(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            rows = int(rng.integers(1, 30))
            n = int(rng.integers(1, 40))
            weights = rng.random((rows, n))
            weights *= rng.random((rows, n)) < 0.7  # sprinkle zeros
            if trial % 4 == 0:
                weights[0] = 0.0  # all-zero poison row
            accept, alias = build_alias_rows(weights)
            for row in range(rows):
                ref_accept, ref_alias = build_alias_table(weights[row])
                np.testing.assert_array_equal(accept[row], ref_accept)
                np.testing.assert_array_equal(alias[row], ref_alias)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="2-d"):
            build_alias_rows(np.ones(3))
        with pytest.raises(ValueError, match="non-empty"):
            build_alias_rows(np.ones((2, 0)))
        with pytest.raises(ValueError, match="finite"):
            build_alias_rows(np.array([[1.0, -0.5]]))

    def test_empty_row_matrix(self):
        accept, alias = build_alias_rows(np.empty((0, 4)))
        assert accept.shape == (0, 4)
        assert alias.shape == (0, 4)


class TestPairwiseRowSums:
    """The lockstep sparse rule's document-bucket mass must equal the
    per-document ``r_weights.sum()`` bit for bit.  A last-bit error
    almost never flips a draw, so theta pins alone cannot catch it."""

    @staticmethod
    def _led(rng, lengths, spare=5):
        """Rows of random magnitudes after a zero column, zero-padded
        past each length."""
        led = np.zeros((len(lengths), int(max(lengths)) + 2 + spare))
        for row, n in zip(led, lengths):
            # Magnitudes spread over 16 decades make the summation
            # order visible in the last bits.
            row[1:n + 1] = rng.random(n) * 10.0 ** rng.integers(-8, 8, n)
        return led

    def test_matches_np_sum_for_every_length(self):
        rng = np.random.default_rng(3)
        for n in range(301):
            lengths = np.full(4, n)
            led = self._led(rng, lengths)
            sums = pairwise_row_sums(led, lengths)
            for row, total in zip(led, sums):
                assert total == np.sum(row[1:n + 1]), n

    def test_mixed_lengths_in_one_call(self):
        rng = np.random.default_rng(4)
        lengths = rng.integers(0, 400, size=50)
        led = self._led(rng, lengths, spare=0)
        assert np.array_equal(
            pairwise_row_sums(led, lengths),
            [np.sum(row[1:n + 1]) for row, n in zip(led, lengths)])

    def test_ignores_entries_past_each_length(self):
        led = np.arange(40.0).reshape(2, 20)
        led[:, 0] = 0.0
        sums = pairwise_row_sums(led, np.array([3, 0]))
        assert np.array_equal(sums, [6.0, 0.0])


class TestUfuncMethodIdentities:
    """The lanes call ``np.add.accumulate``/``np.add.reduce`` where the
    code they replaced called ``cumsum``/``sum``: the same C kernels,
    so the same bits, at every length (including numpy's 8-lane and
    128-entry pairwise block edges) and for float32 weights too."""

    @given(length=st.one_of(
               st.integers(min_value=1, max_value=5000),
               st.sampled_from([1, 7, 8, 9, 15, 16, 17, 127, 128, 129,
                                255, 256, 257, 1023, 1024, 1025, 5000])),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_bit_equal(self, length, dtype, seed):
        rng = np.random.default_rng(seed)
        # Magnitudes spread over 16 decades make the summation order
        # visible in the last bits.
        x = (rng.random(length)
             * 10.0 ** rng.integers(-8, 8, length)).astype(dtype)
        accumulated = np.add.accumulate(x, dtype=np.float64)
        assert accumulated.tobytes() == \
            x.cumsum(dtype=np.float64).tobytes()
        assert np.add.accumulate(x).tobytes() == x.cumsum().tobytes()
        reduced, summed = np.add.reduce(x), x.sum()
        assert reduced.dtype == summed.dtype
        assert reduced.tobytes() == summed.tobytes()
        block = np.stack([x, x[::-1]])
        assert np.add.accumulate(block, axis=1).tobytes() == \
            np.cumsum(block, axis=1).tobytes()


class TestPreDrawContract:
    """The lockstep driver draws each document's stream up front; PCG64
    must give the same bits as the per-document lane's chunked calls."""

    LENGTHS = (14, 1, 25, 3)
    ITERATIONS = 7

    def _lane_order(self, rng, length):
        initial = rng.integers(0, 200, size=length)
        return initial, np.concatenate(
            [rng.random(length) for _ in range(self.ITERATIONS)])

    def _pre_drawn(self, rng, length):
        return (rng.integers(0, 200, size=length),
                rng.random(self.ITERATIONS * length))

    def test_per_document_streams(self):
        root = np.random.SeedSequence(5)
        for index, length in enumerate(self.LENGTHS):
            lane = self._lane_order(document_rng(root, index), length)
            ahead = self._pre_drawn(document_rng(root, index), length)
            assert np.array_equal(lane[0], ahead[0])
            assert np.array_equal(lane[1], ahead[1])

    def test_one_shared_generator(self):
        lane_rng = np.random.default_rng(9)
        ahead_rng = np.random.default_rng(9)
        for length in self.LENGTHS:
            lane = self._lane_order(lane_rng, length)
            ahead = self._pre_drawn(ahead_rng, length)
            assert np.array_equal(lane[0], ahead[0])
            assert np.array_equal(lane[1], ahead[1])
        assert lane_rng.random() == ahead_rng.random()


def _group(vocab_size, seed=12):
    """Mixed lengths, length-1 documents, repeated words, and rows with
    more than 128 member topics at T = 300."""
    rng = np.random.default_rng(seed)
    lengths = [14, 1, 25, 3, 1, 9, 40, 2, 17, 6, 30, 11, 220, 160]
    docs = [rng.integers(0, vocab_size, size=n) for n in lengths]
    docs.append(np.full(12, 4))
    docs.append(np.array([7, 7, 3, 7, 3, 7]))
    return docs


@pytest.mark.parametrize("mode", ["exact", "sparse"])
class TestLockstepFoldIn:
    """The lockstep driver against the per-document lanes it replays."""

    @pytest.mark.parametrize("num_topics", [6, 300])
    def test_matches_per_document_lane(self, mode, num_topics):
        engine = FoldInEngine(_phi(num_topics, 500), alpha=0.3,
                              iterations=9, mode=mode)
        lane = foldin_sparse if mode == "sparse" else foldin_exact
        docs = _group(500)
        root = np.random.SeedSequence(21)
        expected = []
        for index, doc in enumerate(docs):
            expected.append(lane(engine._table, doc,
                                 document_rng(root, index)))
        got = foldin_lockstep(
            engine._table, docs,
            [document_rng(root, index) for index in range(len(docs))],
            sparse=mode == "sparse")
        assert np.array_equal(np.array(expected), got)

    @pytest.mark.parametrize("count, cap_docs, lockstep_groups", [
        (1, 64, 0), (11, 64, 0), (12, 64, 1), (13, 64, 1), (20, 16, 1),
        (64, 64, 1)])
    def test_engine_routes_groups_by_size(self, mode, count, cap_docs,
                                          lockstep_groups, monkeypatch):
        """``fold`` cuts the non-empty documents into groups that fit
        ``LOCKSTEP_MAX_BYTES`` (here ``cap_docs`` documents of the
        longest length); only groups of ``LOCKSTEP_MIN_DOCS`` or more
        run in lockstep, and every row matches the per-document
        lane."""
        cycle = _group(30)
        docs = [cycle[i % len(cycle)] for i in range(count)]
        docs[1:1] = [np.empty(0, dtype=np.int64)]
        docs.append(np.empty(0, dtype=np.int64))
        engine = FoldInEngine(_phi(), alpha=0.4, iterations=6, mode=mode)
        longest = max(doc.shape[0] for doc in docs)
        monkeypatch.setattr(foldin, "LOCKSTEP_MAX_BYTES",
                            foldin.lockstep_bytes(cap_docs, longest, 6, 6))
        lane = foldin_sparse if mode == "sparse" else foldin_exact
        root = np.random.SeedSequence(2)
        expected = np.full((len(docs), 6), 1 / 6)
        for index, doc in enumerate(docs):
            if doc.shape[0]:
                expected[index] = lane(engine._table, doc,
                                       document_rng(root, index))
        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[1]))
            return foldin_lockstep(*args, **kwargs)

        monkeypatch.setattr(foldin, "foldin_lockstep", counting)
        got = engine.fold(
            engine.check_documents(docs),
            [document_rng(root, i) for i in range(len(docs))])
        assert np.array_equal(got, expected)
        assert len(calls) == lockstep_groups
        assert all(size >= foldin.LOCKSTEP_MIN_DOCS for size in calls)

    def _spy_lockstep(self, monkeypatch) -> list:
        """Patch the engine's lockstep driver to record each call's
        document lengths."""
        calls = []

        def spying(table, documents, rngs, sparse):
            calls.append([doc.shape[0] for doc in documents])
            return foldin_lockstep(table, documents, rngs, sparse)

        monkeypatch.setattr(foldin, "foldin_lockstep", spying)
        return calls

    def _per_document(self, engine, docs, root):
        lane = foldin_sparse if engine.mode == "sparse" else foldin_exact
        rows = []
        for index, doc in enumerate(docs):
            rows.append(lane(engine._table, doc,
                             document_rng(root, index)))
        return np.array(rows)

    def test_hundred_documents_fold_as_one_group(self, mode, monkeypatch):
        """The byte cap, not a document count, closes groups: 100
        short documents fit under ``LOCKSTEP_MAX_BYTES`` together."""
        cycle = _group(30)
        docs = [cycle[i % len(cycle)] for i in range(100)]
        engine = FoldInEngine(_phi(), alpha=0.4, iterations=6, mode=mode)
        root = np.random.SeedSequence(8)
        expected = self._per_document(engine, docs, root)
        calls = self._spy_lockstep(monkeypatch)
        got = engine.fold(docs, [document_rng(root, i)
                                 for i in range(len(docs))])
        assert [len(call) for call in calls] == [100]
        assert np.array_equal(got, expected)

    def test_long_document_closes_the_group_before_it(self, mode,
                                                      monkeypatch):
        """A long document that would push the group past the cap
        starts a new group; it never pads the short ones before it."""
        rng = np.random.default_rng(4)
        short = [rng.integers(0, 30, size=10) for _ in range(30)]
        docs = short[:15] + [rng.integers(0, 30, size=200)] + short[15:]
        engine = FoldInEngine(_phi(), alpha=0.4, iterations=6, mode=mode)
        # 30 short documents fit; 16 documents padded to 200 do not,
        # two do.
        monkeypatch.setattr(foldin, "LOCKSTEP_MAX_BYTES",
                            foldin.lockstep_bytes(30, 10, 6, 6))
        root = np.random.SeedSequence(5)
        expected = self._per_document(engine, docs, root)
        calls = self._spy_lockstep(monkeypatch)
        got = engine.fold(docs, [document_rng(root, i)
                                 for i in range(len(docs))])
        # [15 short] | [long, short] on the per-document lane |
        # [14 short].
        assert calls == [[10] * 15, [10] * 14]
        assert np.array_equal(got, expected)

    def test_zero_mass_raises_like_the_lane(self, mode):
        phi = _phi(6, 30)
        phi[:, 0] = 0.0  # word 0 carries no mass under any topic
        engine = FoldInEngine(phi, alpha=0.4, iterations=3, mode=mode,
                              validate=False)
        lane = foldin_sparse if mode == "sparse" else foldin_exact
        docs = [np.array([1, 2]), np.array([3, 0, 5])]
        with pytest.raises(ValueError, match="positive finite mass") \
                as per_document:
            lane(engine._table, docs[1], np.random.default_rng(0))
        with pytest.raises(ValueError, match="positive finite mass") \
                as lockstep:
            foldin_lockstep(engine._table, docs,
                            [np.random.default_rng(0)] * 2,
                            sparse=mode == "sparse")
        assert str(lockstep.value) == str(per_document.value)

    def test_shared_stream_theta(self, mode, monkeypatch):
        docs = _group(30) + [np.empty(0, dtype=np.int64)]
        engine = FoldInEngine(_phi(), alpha=0.4, iterations=5, mode=mode)
        monkeypatch.setattr(foldin, "LOCKSTEP_MIN_DOCS", 1)
        lockstep = engine.theta(docs, rng=17)
        monkeypatch.setattr(foldin, "LOCKSTEP_MIN_DOCS", len(docs) + 1)
        assert np.array_equal(lockstep, engine.theta(docs, rng=17))

    def test_sharded_engine(self, mode, monkeypatch, tmp_path):
        """Exact lockstep gathers through the lazy shards; multi-shard
        sparse engines stay on the per-document lane."""
        path = save_model(_fitted_model(_phi(6, 30)), tmp_path / "m",
                          shard_words=7)
        loaded = load_model(path)
        try:
            sharded = FoldInEngine(loaded.model.phi, alpha=0.4,
                                   iterations=5, mode=mode)
            assert sharded.sharded.num_shards == 5
            dense = FoldInEngine(_phi(6, 30), alpha=0.4, iterations=5,
                                 mode=mode)
            docs = _group(30)
            monkeypatch.setattr(foldin, "LOCKSTEP_MIN_DOCS", 1)
            assert np.array_equal(sharded.theta(docs, rng=3),
                                  dense.theta(docs, rng=3))
        finally:
            loaded.close()


class TestLockstepMemory:
    def test_long_document_peak_is_bounded(self, monkeypatch):
        """One long document among 63 short ones: the fold's peak stays
        within ``LOCKSTEP_MAX_BYTES`` (patched to 1 MiB) plus what the
        long document costs alone on the per-document lane.  One group
        of all 64 padded to its 1,500 tokens would hold
        ``lockstep_bytes(64, 1500, 20, 3)`` (5.4 MB)."""
        import tracemalloc
        monkeypatch.setattr(foldin, "LOCKSTEP_MAX_BYTES", 1 << 20)
        rng = np.random.default_rng(6)
        engine = FoldInEngine(_phi(20, 300), alpha=0.4, iterations=3)
        long_doc = rng.integers(0, 300, size=1_500)
        docs = [rng.integers(0, 300, size=60) for _ in range(63)]
        docs.insert(31, long_doc)
        root = np.random.SeedSequence(3)

        def peak(documents):
            tracemalloc.start()
            try:
                engine.fold(documents, [document_rng(root, i)
                                        for i in range(len(documents))])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        alone = peak([long_doc])
        assert peak(docs) <= foldin.LOCKSTEP_MAX_BYTES + alone
        assert foldin.lockstep_bytes(64, 1_500, 20, 3) \
            > 4 * foldin.LOCKSTEP_MAX_BYTES


class _BoundaryRng:
    """Fixed initial topics, and every uniform ``u``."""

    def __init__(self, initial, u):
        self._initial = np.asarray(initial, dtype=np.int64)
        self._u = u

    def integers(self, low, high, size):
        return self._initial[:size].copy()

    def random(self, size):
        return np.full(size, self._u)


class TestBoundaryClamp:
    """A uniform at the top of [0, 1) must land on the last
    positive-weight topic, never on a zero-weight tail topic.

    Every token is word 0.  Topics 0-8 carry weight on it (one heavy,
    seven tiny, then 0.5 on topic 8, so the sparse rule's pairwise
    bucket mass exceeds its sequential walk and ``u * total`` falls
    past the walk's end); topic 9 carries none.  The tiny ``alpha``
    keeps the sparse draws in the document bucket.  Every draw lands on
    topic 8.  ``u = 1.0`` (outside ``random``'s range) drives the
    exact rule through its clamp branch directly.
    """

    NUM_TOPICS = 10
    ALPHA = 1e-300
    INITIAL = [9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]

    def _engine(self, mode):
        tiny = 0.75 * 2.0 ** -53
        column = np.array([1.0] + [tiny] * 7 + [0.5, 0.0])
        phi = np.zeros((self.NUM_TOPICS, 3))
        phi[:, 0] = column
        phi[:, 1] = 1.0 - column
        phi[9] = [0.0, 0.0, 1.0]
        return FoldInEngine(phi, alpha=self.ALPHA, iterations=2,
                            mode=mode, validate=False)

    def _expected(self, length):
        counts = np.zeros(self.NUM_TOPICS)
        counts[8] = length
        return (counts + self.ALPHA) / (length
                                        + self.NUM_TOPICS * self.ALPHA)

    @pytest.mark.parametrize("mode, u", [
        ("exact", np.nextafter(1.0, 0.0)), ("exact", 1.0),
        ("sparse", np.nextafter(1.0, 0.0))])
    def test_lands_on_last_positive_topic(self, mode, u):
        engine = self._engine(mode)
        lane = foldin_sparse if mode == "sparse" else foldin_exact
        doc = np.zeros(len(self.INITIAL), dtype=np.int64)
        expected = self._expected(doc.shape[0])
        per_document = lane(engine._table, doc,
                            _BoundaryRng(self.INITIAL, u))
        assert np.array_equal(per_document, expected)
        lockstep = foldin_lockstep(
            engine._table, [doc, doc[:4], doc],
            [_BoundaryRng(self.INITIAL, u) for _ in range(3)],
            sparse=mode == "sparse")
        assert np.array_equal(lockstep[0], expected)
        assert np.array_equal(lockstep[2], expected)
        short = lane(engine._table, doc[:4],
                     _BoundaryRng(self.INITIAL, u))
        assert np.array_equal(lockstep[1], short)
