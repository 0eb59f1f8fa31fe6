"""Tests for the serving subsystem (persistence, registry, fold-in,
sessions)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.bijective import BijectiveSourceLDA
from repro.core.mixture import MixtureSourceLDA
from repro.core.source_lda import SourceLDA
from repro.metrics.perplexity import heldout_gibbs_theta
from repro.models.base import FittedTopicModel
from repro.models.ctm import CTM
from repro.models.eda import EDA
from repro.models.lda import LDA
from repro.sampling.rng import categorical, ensure_rng
from repro.serving import (ARTIFACT_FORMAT, SCHEMA_VERSION, ArtifactError,
                           FoldInEngine, InferenceSession, ManifestError,
                           ModelRegistry, foldin, load_model,
                           read_manifest, save_model, validate_phi)
from repro.text.corpus import Corpus
from repro.text.vocabulary import Vocabulary

# ----------------------------------------------------------------------
# Fitted models of all six classes (module-scoped: fitting is the
# expensive part, round-trip assertions are cheap).
# ----------------------------------------------------------------------
MODEL_CLASSES = ("LDA", "EDA", "CTM", "BijectiveSourceLDA",
                 "MixtureSourceLDA", "SourceLDA")

#: Sentinel for "remove the metadata key entirely" in alpha tests.
_ABSENT = object()


@pytest.fixture(scope="module")
def serving_corpus_and_source():
    from repro.knowledge.source import KnowledgeSource
    from repro.knowledge.wikipedia import SyntheticWikipedia
    wiki = SyntheticWikipedia([f"Topic {i}" for i in range(4)],
                              article_length=100, core_vocab_size=8,
                              background_vocab_size=30, seed=5)
    source = wiki.knowledge_source()
    rng = np.random.default_rng(3)
    labels = source.labels
    texts = [" ".join(rng.choice(source.tokens(labels[i % 4]), size=25))
             for i in range(16)]
    corpus = Corpus.from_texts(texts, tokenizer=None)
    assert isinstance(source, KnowledgeSource)
    return corpus, source


@pytest.fixture(scope="module")
def fitted_models(serving_corpus_and_source):
    corpus, source = serving_corpus_and_source
    fits = {
        "LDA": LDA(num_topics=4).fit(
            corpus, iterations=4, seed=0, track_log_likelihood=True),
        "EDA": EDA(source).fit(corpus, iterations=4, seed=0),
        "CTM": CTM(source, num_free_topics=1, top_n_words=20).fit(
            corpus, iterations=4, seed=0),
        "BijectiveSourceLDA": BijectiveSourceLDA(source).fit(
            corpus, iterations=4, seed=0),
        "MixtureSourceLDA": MixtureSourceLDA(source, num_free_topics=1)
        .fit(corpus, iterations=4, seed=0),
        "SourceLDA": SourceLDA(source, num_unlabeled_topics=1,
                               calibration_draws=3).fit(
            corpus, iterations=4, seed=0,
            snapshot_iterations=(1, 3)),
    }
    assert set(fits) == set(MODEL_CLASSES)
    return fits


def _assert_metadata_equal(left, right, path="metadata"):
    assert type(left) is type(right), path
    if isinstance(left, dict):
        assert set(left) == set(right), path
        for key in left:
            _assert_metadata_equal(left[key], right[key],
                                   f"{path}[{key!r}]")
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right), path
        for index, (a, b) in enumerate(zip(left, right)):
            _assert_metadata_equal(a, b, f"{path}[{index}]")
    elif isinstance(left, np.ndarray):
        assert left.dtype == right.dtype, path
        assert np.array_equal(left, right), path
    else:
        assert left == right, path


class TestArtifactRoundTrip:
    @pytest.mark.parametrize("model_class", MODEL_CLASSES)
    def test_round_trip_bit_exact(self, model_class, fitted_models,
                                  tmp_path):
        fitted = fitted_models[model_class]
        path = save_model(fitted, tmp_path / model_class,
                          model_class=model_class)
        loaded = load_model(path)
        assert loaded.model_class == model_class
        # Default saves stamp the minimum version their layout needs
        # (v1: everything in the npz), not the newest supported.
        assert loaded.schema_version == 1
        model = loaded.model
        assert model.phi.dtype == np.float64
        assert np.array_equal(model.phi, fitted.phi)
        assert np.array_equal(model.theta, fitted.theta)
        assert model.topic_labels == fitted.topic_labels
        assert model.vocabulary == fitted.vocabulary
        assert model.log_likelihoods == fitted.log_likelihoods
        assert len(model.assignments) == len(fitted.assignments)
        for a, b in zip(model.assignments, fitted.assignments):
            assert np.array_equal(a, b)
        _assert_metadata_equal(model.metadata, fitted.metadata)

    @pytest.mark.parametrize("model_class", MODEL_CLASSES)
    def test_manifest_hyperparameters(self, model_class, fitted_models,
                                      tmp_path):
        fitted = fitted_models[model_class]
        path = save_model(fitted, tmp_path / model_class)
        manifest = read_manifest(path)
        hyper = manifest["hyperparameters"]
        assert hyper["alpha"] == fitted.metadata["alpha"]
        for key, value in fitted.metadata.items():
            if isinstance(value, (bool, int, float, str)):
                assert hyper[key] == value, key
        assert manifest["num_topics"] == fitted.num_topics
        assert manifest["vocabulary"] == list(fitted.vocabulary.words)
        assert manifest["topic_labels"] == list(fitted.topic_labels)

    def test_snapshot_metadata_round_trips_int_keys(self, fitted_models,
                                                    tmp_path):
        fitted = fitted_models["SourceLDA"]
        loaded = load_model(save_model(fitted, tmp_path / "m"))
        snapshots = loaded.model.metadata["snapshots"]
        assert set(snapshots) == {1, 3}
        assert np.array_equal(snapshots[3],
                              fitted.metadata["snapshots"][3])

    def test_refuses_overwrite(self, fitted_models, tmp_path):
        fitted = fitted_models["LDA"]
        save_model(fitted, tmp_path / "m")
        with pytest.raises(ArtifactError, match="already exists"):
            save_model(fitted, tmp_path / "m")
        save_model(fitted, tmp_path / "m", overwrite=True)

    def test_rejects_unserializable_metadata(self, fitted_models,
                                             tmp_path):
        fitted = fitted_models["LDA"]
        bad = FittedTopicModel(
            phi=fitted.phi, theta=fitted.theta,
            assignments=fitted.assignments,
            vocabulary=fitted.vocabulary,
            metadata={"callback": lambda: None})
        with pytest.raises(ArtifactError, match="cannot serialize"):
            save_model(bad, tmp_path / "bad")

    def test_rejects_object_dtype_metadata_array(self, fitted_models,
                                                 tmp_path):
        """An object array would pickle on save but be unloadable."""
        fitted = fitted_models["LDA"]
        bad = FittedTopicModel(
            phi=fitted.phi, theta=fitted.theta,
            assignments=fitted.assignments,
            vocabulary=fitted.vocabulary,
            metadata={"ragged": np.asarray([[1, 2], [3]], dtype=object)})
        with pytest.raises(ArtifactError, match="object-dtype"):
            save_model(bad, tmp_path / "bad")


class TestMmapArtifacts:
    """Schema-v2 artifacts: the uncompressed, mappable phi member."""

    def _memmap_backed(self, array):
        base = array
        while base is not None:
            if isinstance(base, np.memmap):
                return True
            base = getattr(base, "base", None)
        return False

    def test_v2_round_trip_bit_exact(self, fitted_models, tmp_path):
        fitted = fitted_models["SourceLDA"]
        path = save_model(fitted, tmp_path / "m", mmap_phi=True)
        assert (path / "phi_word_major.npy").is_file()
        loaded = load_model(path)
        assert loaded.schema_version == 2
        assert loaded.phi_path == path / "phi_word_major.npy"
        assert not loaded.phi_mmapped
        assert np.array_equal(loaded.model.phi, fitted.phi)
        assert np.array_equal(loaded.model.theta, fitted.theta)
        _assert_metadata_equal(loaded.model.metadata, fitted.metadata)

    def test_mmap_load_shares_the_file(self, fitted_models, tmp_path):
        fitted = fitted_models["LDA"]
        path = save_model(fitted, tmp_path / "m", mmap_phi=True)
        loaded = load_model(path, mmap_phi=True)
        assert loaded.phi_mmapped
        assert np.array_equal(loaded.model.phi, fitted.phi)
        assert self._memmap_backed(loaded.model.phi)
        # Two loads of the same artifact map the same file rather than
        # materializing two copies.
        again = load_model(path, mmap_phi=True)
        assert self._memmap_backed(again.model.phi)

    def test_mmap_request_on_v1_artifact_warns_and_falls_back(
            self, fitted_models, tmp_path):
        path = save_model(fitted_models["LDA"], tmp_path / "m")
        with pytest.warns(RuntimeWarning,
                          match="cannot be memory-mapped"):
            loaded = load_model(path, mmap_phi=True)
        assert not loaded.phi_mmapped
        assert loaded.phi_path is None
        assert np.array_equal(loaded.model.phi,
                              fitted_models["LDA"].phi)

    def test_overwrite_v2_with_v1_drops_stale_member(self, fitted_models,
                                                     tmp_path):
        fitted = fitted_models["LDA"]
        path = save_model(fitted, tmp_path / "m", mmap_phi=True)
        save_model(fitted, tmp_path / "m", overwrite=True)
        assert not (path / "phi_word_major.npy").exists()
        assert load_model(path).schema_version == 1

    def test_missing_phi_member_is_loud(self, fitted_models, tmp_path):
        path = save_model(fitted_models["LDA"], tmp_path / "m",
                          mmap_phi=True)
        (path / "phi_word_major.npy").unlink()
        with pytest.raises(ArtifactError, match="phi member missing"):
            load_model(path)

    @pytest.mark.parametrize("mmap_phi", [False, True])
    def test_phi_member_shape_must_match_manifest(self, fitted_models,
                                                  tmp_path, mmap_phi):
        path = save_model(fitted_models["LDA"], tmp_path / "m",
                          mmap_phi=True)
        member = path / "phi_word_major.npy"
        # One word short of the manifest's vocab_size.
        np.save(member, np.load(member)[:-1])
        with pytest.raises(ArtifactError,
                           match="phi_word_major.npy gives phi shape"):
            load_model(path, mmap_phi=mmap_phi)

    @pytest.mark.parametrize("mmap_phi", [False, True])
    def test_phi_member_must_be_float64(self, fitted_models, tmp_path,
                                        mmap_phi):
        path = save_model(fitted_models["LDA"], tmp_path / "m",
                          mmap_phi=True)
        member = path / "phi_word_major.npy"
        np.save(member, np.load(member).astype(np.float32))
        with pytest.raises(ArtifactError, match="dtype float32"):
            load_model(path, mmap_phi=mmap_phi)

    def test_v1_phi_shape_must_match_manifest(self, fitted_models,
                                              tmp_path):
        path = save_model(fitted_models["LDA"], tmp_path / "m")
        with np.load(path / "arrays.npz") as arrays:
            contents = dict(arrays)
        contents["phi"] = contents["phi"][:, :-1]
        with open(path / "arrays.npz", "wb") as handle:
            np.savez_compressed(handle, **contents)
        with pytest.raises(ArtifactError,
                           match="arrays.npz gives phi shape"):
            load_model(path)

    def test_bad_phi_storage_manifest_is_rejected(self, fitted_models,
                                                  tmp_path):
        path = save_model(fitted_models["LDA"], tmp_path / "m",
                          mmap_phi=True)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["phi_storage"] = {"layout": "column_crazy"}
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match="phi_storage"):
            load_model(path)

    def test_mmap_session_serves_identically_to_v1(self, fitted_models,
                                                   tmp_path):
        fitted = fitted_models["BijectiveSourceLDA"]
        v1 = load_model(save_model(fitted, tmp_path / "v1"))
        v2 = load_model(save_model(fitted, tmp_path / "v2",
                                   mmap_phi=True), mmap_phi=True)
        queries = [" ".join(fitted.vocabulary.words[:8])]
        theta_v1 = InferenceSession(v1, seed=4).theta(queries)
        theta_v2 = InferenceSession(v2, seed=4).theta(queries)
        assert np.array_equal(theta_v1, theta_v2)


class TestManifestValidation:
    def _saved(self, fitted_models, tmp_path):
        return save_model(fitted_models["LDA"], tmp_path / "m")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ManifestError, match="no artifact manifest"):
            load_model(tmp_path / "nowhere")

    def test_rejects_newer_schema_version(self, fitted_models, tmp_path):
        path = self._saved(fitted_models, tmp_path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["schema_version"] = SCHEMA_VERSION + 999
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match="newer than"):
            load_model(path)

    def test_rejects_invalid_schema_version(self, fitted_models,
                                            tmp_path):
        path = self._saved(fitted_models, tmp_path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["schema_version"] = "one"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match="invalid schema_version"):
            load_model(path)

    def test_rejects_foreign_format(self, fitted_models, tmp_path):
        path = self._saved(fitted_models, tmp_path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format"] = "someone/else"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ManifestError,
                           match=ARTIFACT_FORMAT.replace("/", ".")):
            load_model(path)

    def test_rejects_unparseable_manifest(self, fitted_models, tmp_path):
        path = self._saved(fitted_models, tmp_path)
        (path / "manifest.json").write_text("{not json")
        with pytest.raises(ManifestError, match="not valid JSON"):
            load_model(path)

    def test_missing_metadata_entry_loads_empty(self, fitted_models,
                                                tmp_path):
        path = self._saved(fitted_models, tmp_path)
        manifest = json.loads((path / "manifest.json").read_text())
        del manifest["metadata"]
        (path / "manifest.json").write_text(json.dumps(manifest))
        assert load_model(path).model.metadata == {}


class TestModelRegistry:
    def test_publish_resolve_versions(self, fitted_models, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        record1 = registry.publish("demo", fitted_models["LDA"],
                                   model_class="LDA")
        record2 = registry.publish("demo", fitted_models["EDA"],
                                   model_class="EDA")
        assert (record1.version, record2.version) == (1, 2)
        assert registry.versions("demo") == [1, 2]
        assert registry.names() == ["demo"]
        assert registry.resolve("demo").version == 2
        assert registry.resolve("demo", 1).path == record1.path
        assert registry.load("demo").model_class == "EDA"
        assert registry.load("demo", 1).model_class == "LDA"

    def test_unknown_name_and_version(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        with pytest.raises(KeyError, match="no versions"):
            registry.resolve("ghost")
        with pytest.raises(ValueError, match="invalid model name"):
            registry.publish("../escape", None)

    def test_missing_version(self, fitted_models, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("demo", fitted_models["LDA"])
        with pytest.raises(KeyError, match="no version 9"):
            registry.resolve("demo", 9)

    def test_republish_version_is_immutable(self, fitted_models,
                                            tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("demo", fitted_models["LDA"])
        with pytest.raises(ArtifactError, match="immutable"):
            registry.publish("demo", fitted_models["LDA"], version=1)

    def test_lru_cache_hits_and_eviction(self, fitted_models, tmp_path):
        registry = ModelRegistry(tmp_path / "registry", cache_size=2)
        for name in ("a", "b", "c"):
            registry.publish(name, fitted_models["LDA"])
        first = registry.load("a")
        assert registry.load("a") is first          # cache hit
        registry.load("b")
        registry.load("c")                          # evicts "a"
        assert registry.cached_keys == (("b", 1, False, "v1:npz"),
                                        ("c", 1, False, "v1:npz"))
        assert registry.load("a") is not first      # reloaded from disk
        registry.clear_cache()
        assert registry.cached_keys == ()

    def test_cache_disabled(self, fitted_models, tmp_path):
        registry = ModelRegistry(tmp_path / "registry", cache_size=0)
        registry.publish("demo", fitted_models["LDA"])
        assert registry.load("demo") is not registry.load("demo")

    def test_names_skips_clutter_directories(self, fitted_models,
                                             tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("demo", fitted_models["LDA"])
        (tmp_path / "registry" / ".cache").mkdir()
        (tmp_path / "registry" / "not a model!").mkdir()
        assert registry.names() == ["demo"]

    def test_publish_mmap_artifact_and_cache_flavors(self, fitted_models,
                                                     tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.publish("demo", fitted_models["LDA"],
                                  mmap_phi=True)
        assert (record.path / "phi_word_major.npy").is_file()
        plain = registry.load("demo")
        mapped = registry.load("demo", mmap_phi=True)
        assert plain is registry.load("demo")
        assert mapped is registry.load("demo", mmap_phi=True)
        assert plain is not mapped
        assert mapped.phi_mmapped
        assert registry.cached_keys == (
            ("demo", 1, False, "v2:word_major"),
            ("demo", 1, True, "v2:word_major"))


class TestRegistryConcurrentPublish:
    """The scan-then-write race: versions must be claimed atomically."""

    def test_publish_skips_versions_claimed_by_others(self, fitted_models,
                                                      tmp_path):
        """A claim directory without a manifest — a concurrent publisher
        mid-save, or a crashed one — must never be overwritten."""
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("demo", fitted_models["LDA"])
        # Simulate a second publisher that claimed v2 and has not yet
        # (or will never) finish writing.
        claim = tmp_path / "registry" / "demo" / "v2"
        claim.mkdir()
        record = registry.publish("demo", fitted_models["EDA"])
        assert record.version == 3
        assert not (claim / "manifest.json").exists()
        # The dead claim is invisible to readers.
        assert registry.versions("demo") == [1, 3]
        assert registry.resolve("demo").version == 3

    def test_failed_save_releases_its_claim(self, fitted_models,
                                            tmp_path):
        """A publish whose save_model raises must not wedge the version
        number on an empty claim directory."""
        registry = ModelRegistry(tmp_path / "registry")
        bad = FittedTopicModel(
            phi=fitted_models["LDA"].phi,
            theta=fitted_models["LDA"].theta,
            assignments=fitted_models["LDA"].assignments,
            vocabulary=fitted_models["LDA"].vocabulary,
            metadata={"callback": lambda: None})  # unserializable
        with pytest.raises(ArtifactError, match="cannot serialize"):
            registry.publish("demo", bad, version=1)
        assert not (tmp_path / "registry" / "demo" / "v1").exists()
        # The number is free again for a good publish.
        assert registry.publish("demo", fitted_models["LDA"],
                                version=1).version == 1

    def test_explicit_version_claim_collision_is_loud(self, fitted_models,
                                                      tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        (tmp_path / "registry" / "demo").mkdir(parents=True)
        (tmp_path / "registry" / "demo" / "v1").mkdir()
        with pytest.raises(ArtifactError, match="immutable"):
            registry.publish("demo", fitted_models["LDA"], version=1)

    def test_interleaved_publishers_never_overwrite(self, fitted_models,
                                                    tmp_path):
        """Two publishers hammering one name from two threads: every
        publish gets a distinct version and every artifact survives."""
        from concurrent.futures import ThreadPoolExecutor

        registry_a = ModelRegistry(tmp_path / "registry")
        registry_b = ModelRegistry(tmp_path / "registry")
        per_publisher = 6

        def publish_many(registry, model_class):
            return [registry.publish("demo",
                                     fitted_models[model_class],
                                     model_class=model_class).version
                    for _ in range(per_publisher)]

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(publish_many, registry_a, "LDA"),
                       pool.submit(publish_many, registry_b, "EDA")]
            versions_a, versions_b = [f.result() for f in futures]
        claimed = sorted(versions_a + versions_b)
        assert claimed == list(range(1, 2 * per_publisher + 1))
        assert registry_a.versions("demo") == claimed
        # Each version still carries the class its publisher wrote —
        # nobody's artifact was clobbered by the other publisher.
        for version in versions_a:
            assert registry_a.manifest("demo", version)["model_class"] \
                == "LDA"
        for version in versions_b:
            assert registry_a.manifest("demo", version)["model_class"] \
                == "EDA"


# ----------------------------------------------------------------------
# Fold-in engine
# ----------------------------------------------------------------------
def _legacy_heldout_gibbs_theta(phi, corpus, alpha, iterations=30,
                                rng=None):
    """The pre-serving per-token loop, verbatim — the seed-pin oracle."""
    phi = validate_phi(phi)
    rng = ensure_rng(rng)
    num_topics = phi.shape[0]
    theta = np.empty((len(corpus), num_topics))
    for index, doc in enumerate(corpus):
        length = len(doc)
        if length == 0:
            theta[index] = 1.0 / num_topics
            continue
        assignments = rng.integers(0, num_topics, size=length)
        doc_counts = np.bincount(assignments, minlength=num_topics) \
            .astype(np.float64)
        word_probs = phi[:, doc.word_ids].T
        burn_in = min(max(1, iterations // 2), iterations - 1)
        accumulated = np.zeros(num_topics)
        samples = 0
        for iteration in range(iterations):
            for position in range(length):
                topic = assignments[position]
                doc_counts[topic] -= 1.0
                weights = word_probs[position] * (doc_counts + alpha)
                topic = categorical(weights, rng)
                assignments[position] = topic
                doc_counts[topic] += 1.0
            if iteration >= burn_in:
                accumulated += doc_counts
                samples += 1
        mean_counts = accumulated / max(samples, 1)
        theta[index] = (mean_counts + alpha) / (length
                                                + num_topics * alpha)
    return theta


@pytest.fixture
def foldin_phi_and_corpus():
    rng = np.random.default_rng(11)
    num_topics, vocab_size = 6, 30
    phi = rng.dirichlet(np.full(vocab_size, 0.4), size=num_topics)
    vocab = Vocabulary(f"w{i}" for i in range(vocab_size))
    id_lists = [rng.integers(0, vocab_size, size=n).tolist()
                for n in (14, 0, 25, 1, 9)]
    return phi, Corpus.from_word_id_lists(id_lists, vocab)


class TestFoldInEngine:
    @pytest.mark.parametrize("iterations", [1, 2, 7, 30])
    def test_exact_lane_seed_pinned_to_legacy(self, iterations,
                                              foldin_phi_and_corpus):
        phi, corpus = foldin_phi_and_corpus
        expected = _legacy_heldout_gibbs_theta(
            phi, corpus, alpha=0.4, iterations=iterations, rng=99)
        via_metric = heldout_gibbs_theta(
            phi, corpus, alpha=0.4, iterations=iterations, rng=99)
        engine = FoldInEngine(phi, alpha=0.4, iterations=iterations)
        direct = engine.theta([doc.word_ids for doc in corpus], rng=99)
        assert np.array_equal(expected, via_metric)
        assert np.array_equal(expected, direct)

    @pytest.mark.parametrize("iterations", [1, 2, 7, 30])
    def test_exact_lane_seed_pinned_to_legacy_lockstep(
            self, iterations, foldin_phi_and_corpus, monkeypatch):
        """The legacy pin again, with every document group forced
        through the lockstep driver on the shared stream."""
        monkeypatch.setattr(foldin, "LOCKSTEP_MIN_DOCS", 1)
        self.test_exact_lane_seed_pinned_to_legacy(iterations,
                                                   foldin_phi_and_corpus)

    def test_batch_size_does_not_change_draws(self,
                                              foldin_phi_and_corpus,
                                              monkeypatch):
        """The lockstep group size (set by ``LOCKSTEP_MAX_BYTES``) moves
        no draw of the shared stream: one group per document, two per
        group, or all in one."""
        phi, corpus = foldin_phi_and_corpus
        docs = [doc.word_ids for doc in corpus]
        engine = FoldInEngine(phi, 0.4, iterations=5)
        longest = max(doc.shape[0] for doc in docs)
        monkeypatch.setattr(foldin, "LOCKSTEP_MIN_DOCS", 1)
        thetas = []
        for group_docs in (1, 2, len(docs)):
            monkeypatch.setattr(foldin, "LOCKSTEP_MAX_BYTES",
                                foldin.lockstep_bytes(
                                    group_docs, longest,
                                    engine.num_topics, 5))
            thetas.append(engine.theta(docs, rng=5))
        assert all(np.array_equal(thetas[0], theta) for theta in thetas)

    def test_engine_reuse_matches_fresh_engine(self,
                                               foldin_phi_and_corpus):
        """Buffer reuse across calls must not leak state between them."""
        phi, corpus = foldin_phi_and_corpus
        docs = [doc.word_ids for doc in corpus]
        engine = FoldInEngine(phi, 0.4, iterations=5)
        first = engine.theta(docs, rng=5)
        again = engine.theta(docs, rng=5)
        assert np.array_equal(first, again)

    def test_sparse_lane_valid_and_close_to_exact(self,
                                                  foldin_phi_and_corpus):
        phi, corpus = foldin_phi_and_corpus
        docs = [doc.word_ids for doc in corpus]
        sparse = FoldInEngine(phi, 0.4, iterations=200, mode="sparse")
        exact = FoldInEngine(phi, 0.4, iterations=200, mode="exact")
        theta_sparse = sparse.theta(docs, rng=1)
        theta_exact = exact.theta(docs, rng=1)
        np.testing.assert_allclose(theta_sparse.sum(axis=1), 1.0)
        assert np.all(theta_sparse > 0)
        # Same conditional distribution, different draw association: the
        # long-run averages agree to sampling noise.
        assert np.abs(theta_sparse - theta_exact).max() < 0.12

    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_theta_is_reentrant_across_threads(self, mode,
                                               foldin_phi_and_corpus):
        """Two threads hammering ONE engine must each get the
        single-threaded answer, on the per-document lane and on a
        lockstep group.

        Sampling buffers once lived on the engine, so concurrent callers
        silently corrupted each other's theta; each call now allocates
        its own.
        """
        from concurrent.futures import ThreadPoolExecutor

        phi, corpus = foldin_phi_and_corpus
        docs = [doc.word_ids for doc in corpus]
        # Three copies hold 12 non-empty documents: one lockstep group.
        group = docs * 3
        assert sum(doc.shape[0] > 0 for doc in group) \
            >= foldin.LOCKSTEP_MIN_DOCS
        engine = FoldInEngine(phi, 0.4, iterations=8, mode=mode)
        cases = [(inputs, seed) for seed in range(12)
                 for inputs in (0, 1)]
        batches = (docs, group)
        expected = {case: engine.theta(batches[case[0]], rng=case[1])
                    for case in cases}
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [(case, pool.submit(engine.theta, batches[case[0]],
                                          case[1]))
                       for case in cases * 4]
            for case, future in futures:
                assert np.array_equal(future.result(), expected[case]), \
                    f"case {case} corrupted under concurrency"

    def test_empty_document_is_uniform_prior(self,
                                             foldin_phi_and_corpus):
        phi, corpus = foldin_phi_and_corpus
        for mode in ("exact", "sparse"):
            engine = FoldInEngine(phi, 0.4, mode=mode)
            theta = engine.theta([np.empty(0, dtype=np.int64)], rng=0)
            np.testing.assert_allclose(theta[0], 1.0 / phi.shape[0])

    def test_validation_errors(self, foldin_phi_and_corpus):
        phi, _ = foldin_phi_and_corpus
        with pytest.raises(ValueError, match="alpha"):
            FoldInEngine(phi, alpha=0.0)
        with pytest.raises(ValueError, match="iterations"):
            FoldInEngine(phi, 0.4, iterations=0)
        with pytest.raises(ValueError, match="mode"):
            FoldInEngine(phi, 0.4, mode="warp")
        with pytest.raises(ValueError, match="rows must sum"):
            FoldInEngine(np.full((2, 4), 0.5), 0.4)
        engine = FoldInEngine(phi, 0.4)
        with pytest.raises(ValueError, match="outside the model"):
            engine.theta([np.asarray([10_000])], rng=0)
        # Non-integer word ids are rejected, not truncated; bool counts
        # as non-integer, and an empty list (float64 to NumPy) is valid.
        for bad in (np.array([1.7, 2.2, 9.9]), [1.0, 2.0],
                    np.array([True, False])):
            with pytest.raises(ValueError, match="must be integers"):
                engine.theta([bad], rng=0)
        assert engine.theta([[]], rng=0).shape == (1, phi.shape[0])


# ----------------------------------------------------------------------
# Inference sessions
# ----------------------------------------------------------------------
class TestInferenceSession:
    @pytest.fixture(scope="class")
    def session_model(self, fitted_models):
        return fitted_models["BijectiveSourceLDA"]

    def test_serves_raw_text_batches(self, session_model):
        session = InferenceSession(session_model, iterations=20, seed=0)
        vocab_words = session.vocabulary.words
        queries = [" ".join(vocab_words[:6]),
                   " ".join(vocab_words[6:10])]
        result = session.infer(queries)
        assert result.theta.shape == (2, session.num_topics)
        np.testing.assert_allclose(result.theta.sum(axis=1), 1.0)
        assert result.num_tokens.tolist() == [6, 4]
        assert result.num_oov.tolist() == [0, 0]

    def test_oov_ignore_counts_and_uniform_fallback(self, session_model):
        session = InferenceSession(session_model, seed=0)
        known = session.vocabulary.words[0]
        result = session.infer([f"{known} zzz-unknown qqq-unknown",
                                "zzz-unknown qqq-unknown",
                                ""])
        assert result.num_oov.tolist() == [2, 2, 0]
        assert result.num_tokens.tolist() == [1, 0, 0]
        # OOV-only and empty documents fall back to the uniform prior.
        np.testing.assert_allclose(result.theta[1],
                                   1.0 / session.num_topics)
        np.testing.assert_allclose(result.theta[2],
                                   1.0 / session.num_topics)

    @pytest.mark.parametrize("keyword", [{"batch_size": 8},
                                         {"backend": "python"}])
    def test_retired_keywords_rejected(self, session_model, keyword):
        """``batch_size`` (the lockstep group size is bounded by bytes
        now) and the ignored ``backend`` are gone from both serving
        constructors."""
        with pytest.raises(TypeError, match=next(iter(keyword))):
            InferenceSession(session_model, **keyword)
        with pytest.raises(TypeError, match=next(iter(keyword))):
            FoldInEngine(session_model.phi, 0.4, **keyword)

    def test_oov_error_policy(self, session_model):
        session = InferenceSession(session_model, oov="error", seed=0)
        with pytest.raises(KeyError, match="zzz-unknown"):
            session.infer(["zzz-unknown"])

    def test_pretokenized_input(self, session_model):
        session = InferenceSession(session_model, seed=0)
        tokens = list(session.vocabulary.words[:5])
        result = session.infer([tokens])
        assert result.num_tokens.tolist() == [5]

    def test_top_topics_and_labels(self, session_model):
        session = InferenceSession(session_model, iterations=20, seed=0)
        labels = session_model.topic_labels
        # Query text drawn from one topic's most probable words should
        # rank that topic first.
        topic = 2
        words = [session.vocabulary.word(int(i))
                 for i in session_model.top_word_ids(topic, 8)]
        scores = session.top_topics([" ".join(words * 3)], top_n=3)[0]
        assert len(scores) == 3
        assert scores[0].topic == topic
        assert scores[0].label == labels[topic]
        assert scores[0].probability >= scores[1].probability
        assert session.top_labels([" ".join(words * 3)]) \
            == [labels[topic]]

    def test_ranking_from_result_reuses_theta(self, session_model):
        """Passing an InferenceResult ranks without re-sampling, so the
        labels are consistent with the theta the caller holds."""
        session = InferenceSession(session_model, iterations=10, seed=0)
        words = session.vocabulary.words
        result = session.infer([" ".join(words[:6]),
                                " ".join(words[6:12])])
        scores = session.top_topics(result, top_n=1)
        for row, (top,) in zip(result.theta, scores):
            assert top.topic == int(np.argmax(row))
            assert top.probability == float(row.max())
        # Same via a bare theta array, and stable across repeat calls.
        assert session.top_topics(result.theta, top_n=1) == scores
        assert session.top_topics(result, top_n=1) == scores
        with pytest.raises(ValueError, match="theta must have shape"):
            session.top_topics(np.zeros((2, 3)))

    def test_top_labels_none_for_unlabeled_model(self, fitted_models):
        session = InferenceSession(fitted_models["LDA"], seed=0)
        word = session.vocabulary.words[0]
        assert session.top_labels([word]) == [None]

    def test_session_from_loaded_model_matches_fitted(self, fitted_models,
                                                      tmp_path):
        fitted = fitted_models["BijectiveSourceLDA"]
        loaded = load_model(save_model(fitted, tmp_path / "m"))
        queries = [" ".join(fitted.vocabulary.words[:8])]
        theta_fitted = InferenceSession(fitted, seed=4).theta(queries)
        theta_loaded = InferenceSession(loaded, seed=4).theta(queries)
        assert np.array_equal(theta_fitted, theta_loaded)

    def test_alpha_defaults_to_fit_metadata(self, session_model):
        session = InferenceSession(session_model)
        assert session.alpha == session_model.metadata["alpha"]

    def _with_alpha(self, model, recorded):
        metadata = dict(model.metadata)
        if recorded is _ABSENT:
            metadata.pop("alpha", None)
        else:
            metadata["alpha"] = recorded
        return FittedTopicModel(
            phi=model.phi, theta=model.theta,
            assignments=model.assignments, vocabulary=model.vocabulary,
            topic_labels=model.topic_labels, metadata=metadata)

    def test_alpha_recovery_rejects_bools(self, session_model):
        """``metadata["alpha"] = True`` used to sail through the
        ``isinstance(..., (int, float))`` check as alpha = 1.0."""
        for bad in (True, np.True_):
            with pytest.warns(RuntimeWarning, match="unusable alpha"):
                session = InferenceSession(
                    self._with_alpha(session_model, bad))
            assert session.alpha == 50.0 / session.num_topics

    def test_alpha_recovery_accepts_numpy_scalars(self, session_model):
        for recorded, expected in ((np.float32(0.25), 0.25),
                                   (np.float64(0.7), 0.7),
                                   (np.int64(2), 2.0)):
            session = InferenceSession(
                self._with_alpha(session_model, recorded))
            assert session.alpha == pytest.approx(expected)

    def test_alpha_recovery_warns_on_fallback(self, session_model):
        for bad in ("high", -1.0, 0.0, float("nan"), float("inf")):
            with pytest.warns(RuntimeWarning, match="unusable alpha"):
                session = InferenceSession(
                    self._with_alpha(session_model, bad))
            assert session.alpha == 50.0 / session.num_topics

    def test_alpha_absent_falls_back_silently(self, session_model):
        import warnings as warnings_module
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            session = InferenceSession(
                self._with_alpha(session_model, _ABSENT))
        assert session.alpha == 50.0 / session.num_topics

    def test_invalid_arguments(self, session_model):
        with pytest.raises(ValueError, match="oov"):
            InferenceSession(session_model, oov="explode")
        with pytest.raises(TypeError, match="FittedTopicModel"):
            InferenceSession("not a model")

    def test_bare_string_batch_rejected(self, session_model):
        session = InferenceSession(session_model, seed=0)
        with pytest.raises(TypeError, match="bare string"):
            session.infer("a single query passed without a list")
