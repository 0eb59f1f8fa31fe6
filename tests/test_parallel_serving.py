"""Tests for worker-sharded serving: per-document RNG streams, the
process pool, alias-table prior draws, and end-to-end determinism."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.sampling.alias import (alias_draw, build_alias_rows,
                                  build_alias_table)
from repro.sampling.rng import (document_rng, document_seed_sequence,
                                ensure_seed_sequence)
from repro.serving import (EngineSpec, FoldInEngine, InferenceSession,
                           ParallelFoldIn, load_model, save_model)
from repro.serving import foldin as foldin_module
from repro.text.vocabulary import Vocabulary

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def frozen_phi():
    rng = np.random.default_rng(11)
    return rng.dirichlet(np.full(30, 0.4), size=6)


@pytest.fixture(scope="module")
def query_docs():
    rng = np.random.default_rng(3)
    return [rng.integers(0, 30, size=n)
            for n in (14, 0, 25, 1, 9, 17, 0, 6)]


# ----------------------------------------------------------------------
# Per-document seed sequences
# ----------------------------------------------------------------------
class TestDocumentStreams:
    def test_matches_seed_sequence_spawn(self):
        """`document_seed_sequence` is the stateless twin of
        `SeedSequence.spawn`: same children, any derivation order."""
        root = np.random.SeedSequence(42)
        spawned = np.random.SeedSequence(42).spawn(5)
        for index in (4, 0, 2, 3, 1):  # deliberately out of order
            direct = document_seed_sequence(root, index)
            assert direct.entropy == spawned[index].entropy
            assert direct.spawn_key == spawned[index].spawn_key
            assert np.array_equal(
                np.random.default_rng(direct).random(8),
                np.random.default_rng(spawned[index]).random(8))

    def test_streams_are_distinct_per_document(self):
        root = ensure_seed_sequence(7)
        draws = [document_rng(root, i).random(4) for i in range(6)]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_ensure_seed_sequence_flavors(self):
        sequence = np.random.SeedSequence(1)
        assert ensure_seed_sequence(sequence) is sequence
        assert ensure_seed_sequence(5).entropy == 5
        # A Generator is consumed for entropy — deterministically.
        a = ensure_seed_sequence(np.random.default_rng(3))
        b = ensure_seed_sequence(np.random.default_rng(3))
        assert a.entropy == b.entropy
        assert ensure_seed_sequence(None).entropy is not None
        with pytest.raises(ValueError, match="non-negative"):
            document_seed_sequence(sequence, -1)


# ----------------------------------------------------------------------
# Walker alias tables
# ----------------------------------------------------------------------
class TestAliasTables:
    def test_table_reproduces_weights_exactly(self):
        """Cell acceptance masses must reassemble the normalized
        weights: p[k] = (accept[k] + sum of alias mass pointed at k)/n."""
        rng = np.random.default_rng(0)
        weights = rng.random(17) * np.asarray(
            [0, 1] * 8 + [1])  # include zeros
        accept, alias = build_alias_table(weights)
        n = weights.shape[0]
        rebuilt = accept.copy()
        for cell in range(n):
            rebuilt[alias[cell]] += 1.0 - accept[cell]
        np.testing.assert_allclose(rebuilt / n,
                                   weights / weights.sum(), atol=1e-12)

    def test_zero_row_is_poisoned(self):
        accept, alias = build_alias_table(np.zeros(4))
        assert np.all(accept == -1.0)
        with pytest.raises(ValueError, match="all-zero"):
            alias_draw(accept, alias, 0.5)

    def test_invalid_weights(self):
        with pytest.raises(ValueError, match="non-negative"):
            build_alias_table(np.asarray([1.0, -0.5]))
        with pytest.raises(ValueError, match="non-empty"):
            build_alias_table(np.empty(0))
        with pytest.raises(ValueError, match="2-d"):
            build_alias_rows(np.ones(3))

    def test_draws_match_binary_search_lane_chi_squared(self, frozen_phi):
        """Alias-table prior draws follow the same distribution as the
        binary search over the per-word cumulative sum they replaced."""
        word_major = np.ascontiguousarray(frozen_phi.T)
        accept, alias = build_alias_rows(word_major)
        cumsums = np.cumsum(word_major, axis=1)
        rng = np.random.default_rng(99)
        num_draws = 20_000
        num_topics = frozen_phi.shape[0]
        for word in (0, 7, 29):
            uniforms = rng.random(num_draws)
            alias_topics = np.asarray(
                [alias_draw(accept[word], alias[word], u)
                 for u in uniforms])
            search_topics = np.searchsorted(
                cumsums[word], uniforms * cumsums[word, -1],
                side="right")
            expected = word_major[word] / word_major[word].sum()
            alias_counts = np.bincount(alias_topics,
                                       minlength=num_topics)
            search_counts = np.bincount(search_topics,
                                        minlength=num_topics)
            keep = expected * num_draws >= 5  # chi-squared validity
            for counts in (alias_counts, search_counts):
                result = stats.chisquare(
                    counts[keep],
                    expected[keep] / expected[keep].sum()
                    * counts[keep].sum())
                assert result.pvalue > 1e-3, (word, result)


# ----------------------------------------------------------------------
# Worker-sharded fold-in
# ----------------------------------------------------------------------
class TestParallelFoldIn:
    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_bit_identical_at_every_worker_count(self, mode, frozen_phi,
                                                 query_docs):
        engine = FoldInEngine(frozen_phi, 0.4, iterations=6, mode=mode)
        reference = None
        for workers in WORKER_COUNTS:
            with ParallelFoldIn(engine, num_workers=workers) as foldin:
                theta = foldin.theta(query_docs, seed=17)
            if reference is None:
                reference = theta
            else:
                assert np.array_equal(reference, theta), \
                    f"{mode} diverged at num_workers={workers}"
        np.testing.assert_allclose(reference.sum(axis=1), 1.0)
        # Empty documents got the uniform row.
        np.testing.assert_allclose(reference[1],
                                   1.0 / frozen_phi.shape[0])

    def test_independent_of_document_order_coupling(self, frozen_phi,
                                                    query_docs):
        """Each document's row depends only on (seed, index, words):
        repeating a call never perturbs it, unlike the legacy
        sequential stream where every document shifted its successors."""
        engine = FoldInEngine(frozen_phi, 0.4, iterations=5,
                              mode="sparse")
        foldin = ParallelFoldIn(engine, num_workers=1)
        full = foldin.theta(query_docs, seed=8)
        again = foldin.theta(query_docs, seed=8)
        assert np.array_equal(full, again)

    def test_seed_flavors_agree(self, frozen_phi, query_docs):
        engine = FoldInEngine(frozen_phi, 0.4, iterations=4,
                              mode="sparse")
        foldin = ParallelFoldIn(engine, num_workers=1)
        by_int = foldin.theta(query_docs, seed=23)
        by_sequence = foldin.theta(query_docs,
                                   seed=np.random.SeedSequence(23))
        assert np.array_equal(by_int, by_sequence)

    def test_invalid_arguments(self, frozen_phi):
        engine = FoldInEngine(frozen_phi, 0.4)
        with pytest.raises(ValueError, match="num_workers"):
            ParallelFoldIn(engine, num_workers=0)
        with pytest.raises(ValueError, match="exactly one"):
            EngineSpec(alpha=0.4, iterations=5, mode="sparse")
        with pytest.raises(ValueError, match="exactly one"):
            EngineSpec(alpha=0.4, iterations=5, mode="sparse",
                       phi=np.ones((2, 2)), phi_path="somewhere.npy")

    @pytest.mark.parametrize("mode", ["exact", "sparse"])
    def test_inline_theta_is_reentrant_across_threads(self, mode,
                                                      frozen_phi,
                                                      query_docs):
        """Two threads hammering ONE ParallelFoldIn's inline
        (workers == 1) path must each get the single-threaded answer.

        When the inline path reused one set of sampling buffers across
        calls, both threads wrote them and silently corrupted each
        other's theta — exactly where sessions default to running.
        Every fold-in call now allocates its own buffers.
        """
        from concurrent.futures import ThreadPoolExecutor

        engine = FoldInEngine(frozen_phi, 0.4, iterations=6, mode=mode)
        foldin = ParallelFoldIn(engine, num_workers=1)
        seeds = list(range(12))
        expected = {seed: foldin.theta(query_docs, seed=seed)
                    for seed in seeds}
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [(seed, pool.submit(foldin.theta, query_docs,
                                          seed))
                       for seed in seeds * 4]
            for seed, future in futures:
                assert np.array_equal(future.result(), expected[seed]), \
                    f"seed {seed} corrupted under concurrency"

    def test_pool_context_avoids_fork_in_threaded_parent(self,
                                                         monkeypatch):
        """Forking a multi-threaded parent is deadlock-prone; a
        threaded parent must get a non-fork start method."""
        import sys

        from repro.serving import parallel

        monkeypatch.setattr(parallel.threading, "active_count",
                            lambda: 3)
        assert parallel._pool_context().get_start_method() != "fork"
        monkeypatch.setattr(parallel.threading, "active_count",
                            lambda: 1)
        method = parallel._pool_context().get_start_method()
        if sys.version_info >= (3, 11) and sys.platform != "win32":
            # Only 3.11+ launches every fork worker at the first
            # (locked) submit; older executors fork incrementally and
            # must not get fork even when single-threaded.
            assert method == "fork"
        else:
            assert method != "fork"

    def test_warm_up_spawns_the_pool_before_queries(self, frozen_phi,
                                                    query_docs):
        """warm_up() forks the workers at a chosen safe moment; later
        queries reuse that pool and answer identically."""
        engine = FoldInEngine(frozen_phi, 0.4, iterations=3,
                              mode="sparse")
        with ParallelFoldIn(engine, num_workers=2) as foldin:
            assert foldin.warm_up() is foldin
            assert foldin._pool is not None
            warm = foldin.theta(query_docs, seed=4)
        cold = ParallelFoldIn(engine, num_workers=2)
        assert np.array_equal(warm, cold.theta(query_docs, seed=4))
        cold.close()

    def test_phi_path_must_match_the_mapped_file(self, frozen_phi,
                                                 tmp_path):
        """Workers are handed phi_path only when the parent engine is
        mapping that very file — a path to a *different* artifact (or
        an engine serving a private renormalized copy) must ship the
        parent's array instead, or workers would silently serve
        different phi than the inline path."""
        word_major = np.ascontiguousarray(frozen_phi.T)
        for name in ("a.npy", "b.npy"):
            np.save(tmp_path / name, word_major)
        mapped = np.load(tmp_path / "a.npy", mmap_mode="r")
        engine = FoldInEngine(mapped.T, 0.4, validate=False)
        same = ParallelFoldIn(engine, phi_path=tmp_path / "a.npy")
        assert same._spec.phi_path is not None
        foreign = ParallelFoldIn(engine, phi_path=tmp_path / "b.npy")
        assert foreign._spec.phi_path is None
        assert foreign._spec.phi is not None

    def test_close_during_concurrent_theta_is_safe(self, frozen_phi,
                                                   query_docs):
        """close() racing in-flight multi-worker theta calls must
        neither crash them ('cannot schedule new futures after
        shutdown') nor leak a pool: submission happens under the same
        lock that swaps the pool out, and shutdown drains already
        submitted shards."""
        from concurrent.futures import ThreadPoolExecutor

        engine = FoldInEngine(frozen_phi, 0.4, iterations=3,
                              mode="sparse")
        foldin = ParallelFoldIn(engine, num_workers=2)
        expected = foldin.theta(query_docs, seed=6)
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(foldin.theta, query_docs, 6)
                       for _ in range(6)]
            for _ in range(3):
                foldin.close()
            for future in futures:
                assert np.array_equal(future.result(), expected)
        foldin.close()

    def test_engine_spec_rebuilds_identical_engine(self, frozen_phi,
                                                   query_docs):
        """What a worker builds from the spec answers exactly like the
        parent engine."""
        engine = FoldInEngine(frozen_phi, 0.4, iterations=5,
                              mode="sparse")
        spec = EngineSpec(alpha=engine.alpha,
                          iterations=engine.iterations,
                          mode=engine.mode, phi=engine._phi_by_word)
        rebuilt = spec.build_engine()
        root = ensure_seed_sequence(5)
        for index, doc in enumerate(query_docs):
            assert np.array_equal(
                engine.fold([doc], [document_rng(root, index)])[0],
                rebuilt.fold([doc], [document_rng(root, index)])[0])


# ----------------------------------------------------------------------
# Per-worker utilization stats
# ----------------------------------------------------------------------
class TestWorkerUtilization:
    def test_merged_stats_are_invariant_to_worker_count(self,
                                                        frozen_phi,
                                                        query_docs):
        """Workers report ``{docs, tokens, busy_seconds}`` per task and
        the parent merges them into per-worker counter series; however
        the documents are sharded, the merged docs/tokens totals must
        equal the single-worker totals (and theta must not move)."""
        from repro.telemetry import InMemoryRecorder

        totals = {}
        reference = None
        for workers in WORKER_COUNTS:
            recorder = InMemoryRecorder()
            engine = FoldInEngine(frozen_phi, 0.4, iterations=5,
                                  mode="sparse")
            with ParallelFoldIn(engine, num_workers=workers,
                                recorder=recorder) as foldin:
                theta = foldin.theta(query_docs, seed=12)
            if reference is None:
                reference = theta
            else:
                assert np.array_equal(reference, theta), workers
            totals[workers] = {
                "docs": recorder.counter_total("serving.worker.docs"),
                "tokens": recorder.counter_total(
                    "serving.worker.tokens"),
            }
            busy = recorder.counter_series(
                "serving.worker.busy_seconds")
            assert busy, workers
            assert len(busy) <= workers
            assert all(seconds >= 0 for seconds in busy.values())
            # The shared fold-in totals mirror the per-worker sums:
            # merging happens once, in the parent, with no double
            # counting from worker-side recorders.
            assert recorder.counter_value("serving.foldin.documents") \
                == totals[workers]["docs"]
            assert recorder.counter_value("serving.foldin.tokens") \
                == totals[workers]["tokens"]
        single = totals[WORKER_COUNTS[0]]
        assert single["docs"] == sum(1 for d in query_docs if len(d))
        assert single["tokens"] == sum(len(d) for d in query_docs)
        for workers in WORKER_COUNTS[1:]:
            assert totals[workers] == single, workers


# ----------------------------------------------------------------------
# One-task-per-worker dispatch and worker-death recovery
# ----------------------------------------------------------------------
class TestElasticHedgedServing:
    """Theta is a pure function of (seed, index, words) — so no
    scheduling decision (task size, completion order, a rerun after a
    worker died) may move a single bit."""

    def _reference(self, frozen_phi, query_docs, seed):
        engine = FoldInEngine(frozen_phi, 0.4, iterations=5,
                              mode="sparse")
        return ParallelFoldIn(engine).theta(query_docs, seed=seed)

    @pytest.mark.parametrize("group_docs", [1, 2, 7, 64])
    def test_bit_identical_across_task_sizes(self, group_docs,
                                             frozen_phi, query_docs,
                                             monkeypatch):
        """The per-worker split (the worker count sets the task size)
        and the fold groups inside each task (``LOCKSTEP_MAX_BYTES``,
        patched to ``group_docs`` documents of the longest length, with
        every group in lockstep) are invisible in the output.  Forked
        workers inherit the patched constants."""
        expected = self._reference(frozen_phi, query_docs, seed=31)
        longest = max(doc.shape[0] for doc in query_docs)
        monkeypatch.setattr(foldin_module, "LOCKSTEP_MIN_DOCS", 1)
        monkeypatch.setattr(foldin_module, "LOCKSTEP_MAX_BYTES",
                            foldin_module.lockstep_bytes(
                                group_docs, longest, frozen_phi.shape[0],
                                5))
        engine = FoldInEngine(frozen_phi, 0.4, iterations=5,
                              mode="sparse")
        for num_workers in (1, 2, 3, 4):
            with ParallelFoldIn(engine,
                                num_workers=num_workers) as foldin:
                assert np.array_equal(
                    foldin.theta(query_docs, seed=31),
                    expected), (group_docs, num_workers)

    def test_one_task_per_worker(self, frozen_phi):
        """A pool call ships one task per worker, so each worker's
        share is big enough to fold in lockstep."""
        from repro.serving.foldin import LOCKSTEP_MIN_DOCS
        from repro.telemetry import InMemoryRecorder

        rng = np.random.default_rng(8)
        docs = [rng.integers(0, 30, size=n)
                for n in rng.integers(1, 20, size=2 * LOCKSTEP_MIN_DOCS)]
        engine = FoldInEngine(frozen_phi, 0.4, iterations=5,
                              mode="sparse")
        expected = ParallelFoldIn(engine).theta(docs, seed=4)
        recorder = InMemoryRecorder()
        with ParallelFoldIn(engine, num_workers=2,
                            recorder=recorder) as foldin:
            assert np.array_equal(foldin.theta(docs, seed=4), expected)
        assert recorder.histogram("serving.task.seconds").count == 2

    @pytest.mark.parametrize("mid_call", [False, True])
    def test_survives_worker_death(self, mid_call, frozen_phi,
                                   query_docs):
        """SIGKILL one pool worker: the call drops the broken pool,
        reruns its unresolved tasks once on a fresh pool and answers
        bit-identically, and later calls keep working.  Killed between
        calls, the break surfaces at submit; killed mid-call, it
        surfaces from the harvested futures."""
        import multiprocessing
        import os
        import signal
        import threading
        import time

        from repro.telemetry import InMemoryRecorder

        docs = list(query_docs) * 4
        # Mid-call, the batch must outlast the kill timer by a wide
        # margin (~0.5 s of sampling against a 0.05 s timer).
        engine = FoldInEngine(frozen_phi, 0.4,
                              iterations=200 if mid_call else 5,
                              mode="sparse")
        expected = ParallelFoldIn(engine).theta(docs, seed=9)
        recorder = InMemoryRecorder()
        with ParallelFoldIn(engine, num_workers=2,
                            recorder=recorder) as foldin:
            foldin.warm_up()
            workers = [child for child in multiprocessing.active_children()
                       if child.pid in foldin._pool._processes]
            assert len(workers) == 2
            if mid_call:
                killer = threading.Timer(
                    0.05, os.kill, (workers[0].pid, signal.SIGKILL))
                killer.start()
            else:
                os.kill(workers[0].pid, signal.SIGKILL)
                # The executor flags the pool broken, then terminates
                # the surviving worker: once both are gone, the next
                # submit is guaranteed to see the break.
                deadline = time.monotonic() + 30.0
                while any(child.is_alive() for child in workers):
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            assert np.array_equal(foldin.theta(docs, seed=9), expected)
            if mid_call:
                killer.join(timeout=30.0)
                assert not killer.is_alive()
            assert recorder.counter_total("serving.pool.restarts") == 1
            assert np.array_equal(foldin.theta(docs[:8], seed=9),
                                  expected[:8])
        assert recorder.counter_total("serving.pool.restarts") == 1

    def test_validation(self, frozen_phi):
        engine = FoldInEngine(frozen_phi, 0.4)
        with pytest.raises(ValueError, match="num_workers"):
            ParallelFoldIn(engine, num_workers=0)


# ----------------------------------------------------------------------
# End-to-end serving determinism
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served_model(frozen_phi):
    """A minimal fitted model wrapping the frozen phi."""
    from repro.models.base import FittedTopicModel
    num_topics, vocab_size = frozen_phi.shape
    vocab = Vocabulary(f"w{i}" for i in range(vocab_size))
    vocab.freeze()
    rng = np.random.default_rng(1)
    return FittedTopicModel(
        phi=frozen_phi,
        theta=rng.dirichlet(np.full(num_topics, 0.5), size=3),
        assignments=[rng.integers(0, num_topics, size=6)
                     for _ in range(3)],
        vocabulary=vocab,
        metadata={"alpha": 0.4})


@pytest.fixture(scope="module")
def raw_queries(served_model):
    words = served_model.vocabulary.words
    rng = np.random.default_rng(2)
    return [" ".join(words[i] for i in rng.integers(0, len(words),
                                                    size=12))
            for _ in range(7)] + [""]


class TestServingDeterminism:
    def test_theta_invariant_to_workers_and_batch_size(self, served_model,
                                                       raw_queries,
                                                       monkeypatch):
        """Same seed ⇒ identical theta for num_workers ∈ {1, 2, 4} and
        any lockstep group size (``LOCKSTEP_MAX_BYTES`` patched to 1, 3
        or 64 twelve-token documents, every group in lockstep)."""
        num_topics = served_model.num_topics
        monkeypatch.setattr(foldin_module, "LOCKSTEP_MIN_DOCS", 1)
        reference = None
        for workers in WORKER_COUNTS:
            for group_docs in (1, 3, 64):
                monkeypatch.setattr(
                    foldin_module, "LOCKSTEP_MAX_BYTES",
                    foldin_module.lockstep_bytes(group_docs, 12,
                                                 num_topics, 6))
                with InferenceSession(served_model, iterations=6,
                                      seed=0,
                                      num_workers=workers) as session:
                    theta = session.theta(raw_queries)
                if reference is None:
                    reference = theta
                else:
                    assert np.array_equal(reference, theta), \
                        (workers, group_docs)

    def test_v1_and_mmap_v2_serve_identical_theta(self, served_model,
                                                  raw_queries, tmp_path):
        """A v1 artifact load and a mmap v2 load serve the same bits at
        every worker count."""
        v1 = load_model(save_model(served_model, tmp_path / "v1"))
        v2 = load_model(save_model(served_model, tmp_path / "v2",
                                   mmap_phi=True), mmap_phi=True)
        assert v2.phi_mmapped
        reference = None
        for loaded in (v1, v2):
            for workers in WORKER_COUNTS:
                with InferenceSession(loaded, iterations=6, seed=3,
                                      num_workers=workers) as session:
                    theta = session.theta(raw_queries)
                if reference is None:
                    reference = theta
                else:
                    assert np.array_equal(reference, theta), \
                        (loaded.schema_version, workers)
        v2.close()

    def test_mmap_session_ships_path_not_array(self, served_model,
                                               tmp_path):
        loaded = load_model(save_model(served_model, tmp_path / "m",
                                       mmap_phi=True), mmap_phi=True)
        session = InferenceSession(loaded, num_workers=2, seed=0)
        spec = session._foldin._spec
        assert spec.phi_path is not None and spec.phi is None
        session.close()
        loaded.close()

    def test_session_is_reentrant_across_threads(self, served_model,
                                                 raw_queries):
        """Two threads sharing ONE seeded session produce exactly the
        thetas the same session produces sequentially.

        Covers both concurrency fixes at the session level: per-call
        sampling buffers (no corrupted rows — every concurrent theta is
        bit-identical to some sequential one) and the lock-guarded
        ``SeedSequence.spawn`` (no duplicated child streams — the
        sequential thetas are pairwise distinct, so any spawn race
        would surface as a duplicate breaking the multiset match).
        """
        from concurrent.futures import ThreadPoolExecutor

        calls = 8
        with InferenceSession(served_model, iterations=5,
                              seed=21) as session:
            sequential = [session.theta(raw_queries)
                          for _ in range(calls)]
        assert len({theta.tobytes() for theta in sequential}) == calls
        with InferenceSession(served_model, iterations=5,
                              seed=21) as session:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(session.theta, raw_queries)
                           for _ in range(calls)]
                concurrent = [future.result() for future in futures]
        assert sorted(theta.tobytes() for theta in sequential) \
            == sorted(theta.tobytes() for theta in concurrent)

    def test_successive_calls_continue_the_stream(self, served_model,
                                                  raw_queries):
        """Two infer calls draw different streams, but the whole
        session replays identically from the same seed."""
        def run():
            with InferenceSession(served_model, iterations=5,
                                  seed=9) as session:
                return (session.theta(raw_queries[:3]),
                        session.theta(raw_queries[:3]))

        first_a, second_a = run()
        first_b, second_b = run()
        assert np.array_equal(first_a, first_b)
        assert np.array_equal(second_a, second_b)
        assert not np.array_equal(first_a, second_a)
