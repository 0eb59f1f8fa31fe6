"""The unified sampling runtime: kernel tables, lanes, deprecated keyword.

Covers:

* the deprecated ``backend=`` keyword — ``None`` is silent, ``"auto"``
  and ``"python"`` warn and change nothing, anything else (``"numba"``
  included) raises, on every public constructor that still accepts it;
* kernel tables aliasing the live path caches (data, not code);
* the fold-in lane functions, called directly, reproducing the engine
  that wraps them;
* the vectorized alias-row builder staying bit-identical to the
  sequential Vose reference.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.bijective import BijectiveSourceLDA
from repro.core.mixture import MixtureSourceLDA
from repro.core.source_lda import SourceLDA
from repro.models.base import FittedTopicModel
from repro.models.ctm import CTM
from repro.models.eda import EDA
from repro.models.lda import LDA, LdaKernel
from repro.sampling.alias import build_alias_rows, build_alias_table
from repro.sampling.gibbs import CollapsedGibbsSampler
from repro.sampling.runtime import check_backend, foldin_exact, foldin_sparse
from repro.sampling.state import GibbsState
from repro.serving.foldin import FoldInEngine
from repro.serving.session import InferenceSession
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

    phi = _phi()
    return dict(_model_factories(wiki_source)) | {
        "sampler": sampler,
        "foldin_engine": lambda **kw: FoldInEngine(phi, alpha=0.4, **kw),
        "session": lambda **kw: InferenceSession(_fitted_model(phi),
                                                 **kw),
    }


MODELS = ("lda", "eda", "ctm", "bijective", "mixture", "source")
CONSTRUCTORS = MODELS + ("sampler", "foldin_engine", "session")


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
        sparse_path = kernel.sparse_path()
        bij = sparse_path.sparse_table()
        assert bij is not None and bij.kind == "source_bijective"
        # Live-cache sharing: the sparse table reads the fast path's E.
        assert bij.E is sparse_path._fast._E
        # The SparseKernelPath driver protocol (begin_document) must
        # stay callable on a bijective path even though the runtime
        # chunk loop does its own document bookkeeping.
        sparse_path.begin_sweep()
        sparse_path.begin_document(0)


class TestPythonBackendIsPrePrBehavior:
    """The deprecated backend="python" selects nothing: the chain is
    byte-identical to the default's."""

    @pytest.mark.parametrize("engine", ["fast", "sparse"])
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
            scratch = engine.new_scratch()
            scratch.ensure_gather(doc.shape[0])
            direct = lane(engine._table, doc, np.random.default_rng(7),
                          scratch)
            np.testing.assert_array_equal(
                direct, engine.theta_document(doc, 7))
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
