"""Worker-sharded fold-in: answer query batches with N processes,
bit-identical at every worker count.

The per-document fold-in of :class:`~repro.serving.foldin.FoldInEngine`
is embarrassingly parallel — documents share only the frozen ``phi`` —
but the engine's legacy :meth:`~repro.serving.foldin.FoldInEngine.theta`
runs every document on **one sequential RNG stream**, so each document's
draws depend on every document before it.  Sharding that over workers
would change results with the worker count, and re-running a batch in a
different order would change them again.

:class:`ParallelFoldIn` removes the coupling at the RNG layer: every
document gets its **own stream**, derived from the call's
``SeedSequence`` and the document's index alone
(:func:`repro.sampling.rng.document_rng` — the stateless equivalent of
``SeedSequence.spawn`` keyed by index).  A document's draws are then a
pure function of ``(call seed, document index, document words)``, so

* ``num_workers=1`` inline, 2 processes, or 8 processes produce the
  **same bits**;
* task boundaries and completion order are free scheduling choices;
* tasks lost to a dead worker can be rerun on a fresh pool without any
  risk of divergent results, because the rerun samples identical
  per-document streams.

Scheduling is one contiguous task per worker over a fixed-size pool:
pending documents are cut into ``min(num_workers, pending)`` tasks of
near-equal size, all submitted at once and harvested in completion
order.  There are no micro-batches and no work stealing — each worker's
:meth:`~repro.serving.foldin.FoldInEngine.fold` gets its whole share in
one call and applies the engine's one group rule to it (contiguous
groups bounded by :data:`~repro.serving.foldin.LOCKSTEP_MAX_BYTES`,
each of at least :data:`~repro.serving.foldin.LOCKSTEP_MIN_DOCS`
documents sampled in lockstep), and a call costs one synchronisation
point per worker.

Workers are OS processes (the per-token loop is Python, so threads
would serialize on the GIL).  Each worker holds one engine, inherited
at fork or rebuilt at pool start from an :class:`EngineSpec`, and
nothing else: every fold-in call allocates its own sampling buffers,
so a worker keeps no state between tasks.  When the spec points at a
schema-v2 artifact's uncompressed phi member, workers
``np.load(..., mmap_mode="r")`` it and the OS page cache shares one
physical copy of the model across the whole pool.
"""

from __future__ import annotations

import os
import sys
import threading
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Sequence

import multiprocessing

import numpy as np

from repro.sampling.rng import document_rng, ensure_seed_sequence
from repro.serving.foldin import MODES, FoldInEngine
from repro.serving.sharding import ShardedPhi
from repro.telemetry import NULL_RECORDER, Recorder, ensure_recorder

def _pool_context():
    """The cheapest *safe* multiprocessing context for this process.

    ``fork`` inherits the parent's memory (no spec pickling beyond the
    executor's own plumbing: phi, prior masses and alias tables exist
    once, copy-on-write) — but forking a multi-threaded parent can
    deadlock the children on locks held by threads that do not survive
    the fork, and a serving process with concurrent callers is exactly
    that.  So ``fork`` backs only single-threaded-at-pool-start
    parents; a threaded parent gets ``forkserver`` (workers rebuild
    from the picklable :class:`EngineSpec`, with an mmap'd phi still
    shared through the file).  Non-POSIX platforms fall back to the
    default context.

    Fork additionally requires Python >= 3.11, where a fork-context
    executor launches **all** its workers at the first submit
    (python/cpython#90622) — which happens under :class:`ParallelFoldIn`'s
    pool lock immediately after this thread count check, so every fork
    occurs while the process is still provably single-threaded.
    Earlier executors fork workers incrementally, one per submit,
    possibly long after the caller has started threads.  The check
    cannot see non-Python threads (BLAS pools, embedding hosts); such
    processes should pass ``num_workers=1`` or call
    :meth:`ParallelFoldIn.warm_up` at startup.

    As with any non-fork start method, the serving program's entry
    point must be import-safe (the standard ``if __name__ ==
    "__main__"`` guard) when pools are created from a threaded parent.
    """
    try:
        if sys.version_info >= (3, 11) and threading.active_count() == 1:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


@dataclass(frozen=True)
class EngineSpec:
    """Everything a worker needs to rebuild the fold-in engine.

    Exactly one of ``phi`` / ``phi_path`` / ``sharded`` is set — all in
    the word-major ``(V, T)`` layout the engine gathers from, so
    rebuilding an engine from any of them is copy-free.  ``phi`` ships
    the validated array to the worker (pickled once at pool start);
    ``phi_path`` names the uncompressed ``.npy`` member written by
    ``save_model(..., mmap_phi=True)``, which every worker maps
    read-only so a large model exists once in physical memory;
    ``sharded`` is a schema-v3 lazy
    :class:`~repro.serving.sharding.ShardedPhi` whose pickle carries
    only the shard *map* — each worker unpickles an unmapped view and
    lazily maps just the shards its own documents touch.
    ``phi`` is stored pre-validated, so workers skip re-validation (and
    can never renormalize differently than the parent did).
    """

    alpha: float
    iterations: int
    mode: str
    phi: np.ndarray | None = None
    phi_path: str | None = None
    sharded: ShardedPhi | None = None

    def __post_init__(self) -> None:
        provided = sum(source is not None
                       for source in (self.phi, self.phi_path,
                                      self.sharded))
        if provided != 1:
            raise ValueError(
                "exactly one of phi / phi_path / sharded must be "
                "provided")
        if self.mode not in MODES:
            raise ValueError(
                f"mode must be one of {MODES}, got {self.mode!r}")

    def build_engine(self) -> FoldInEngine:
        if self.sharded is not None:
            word_major = self.sharded
        elif self.phi_path is not None:
            word_major = np.load(self.phi_path, mmap_mode="r")
        else:
            word_major = self.phi
        # The engine re-transposes to word-major internally; handing it
        # the (T, V) transpose view makes that a no-op, not a copy.
        return FoldInEngine(word_major.T, self.alpha,
                            iterations=self.iterations,
                            mode=self.mode, validate=False)


# Per-process worker state, installed by the pool initializer.  One
# engine per worker process; documents are independent and each fold
# allocates its own buffers, so that is the entire worker-side state.
_WORKER_ENGINE: FoldInEngine | None = None


def _init_worker(engine_or_spec: FoldInEngine | EngineSpec) -> None:
    """Install the worker's engine.

    Under the ``fork`` context the parent passes its *engine object*,
    which the worker inherits copy-on-write — phi, prior masses and the
    O(V * T) alias tables exist once in physical memory across the
    whole pool and are never rebuilt.  Non-fork contexts receive the
    picklable :class:`EngineSpec` and rebuild (paying the alias
    construction per worker, but keeping mmap'd phi shared via the
    file).
    """
    global _WORKER_ENGINE
    _WORKER_ENGINE = (engine_or_spec if isinstance(engine_or_spec,
                                                   FoldInEngine)
                      else engine_or_spec.build_engine())
    # A fork-inherited engine carries the parent's recorder — whose
    # lock may have been mid-acquire at fork, and whose metrics would
    # land in a dead copy anyway.  Workers never record directly; their
    # accounting flows back to the parent as plain stats dicts.
    _WORKER_ENGINE.recorder = NULL_RECORDER


def _fold_shard(documents: list[np.ndarray], indices: list[int],
                call_seed: np.random.SeedSequence
                ) -> tuple[np.ndarray, dict[str, Any]]:
    """Fold one shard of (already validated) documents in a worker.

    ``indices`` are the documents' positions in the full batch — the
    only thing their RNG streams are keyed by, which is what makes the
    shard assignment irrelevant to the result.

    Returns ``(rows, stats)`` where ``stats`` is this task's
    utilization accounting — ``{"worker": pid, "docs", "tokens",
    "busy_seconds"}`` — merged by the parent into per-worker counters
    (workers themselves never hold a live recorder).
    """
    start = perf_counter()
    rows = _WORKER_ENGINE.fold(
        documents, [document_rng(call_seed, index) for index in indices])
    tokens = sum(doc.shape[0] for doc in documents)
    stats = {"worker": os.getpid(), "docs": len(documents),
             "tokens": tokens, "busy_seconds": perf_counter() - start}
    return rows, stats


class ParallelFoldIn:
    """Shards fold-in batches over a fixed pool of worker processes.

    :meth:`theta` is safe to call from concurrent threads: the inline
    path folds on the shared engine, whose calls each allocate their
    own buffers, and the worker pool is built exactly once under a lock
    (in a threaded parent it uses the ``forkserver`` start method,
    since forking a multi-threaded process is deadlock-prone).

    Parameters
    ----------
    engine:
        The parent-side :class:`FoldInEngine` (already validated).  With
        one worker it does all the work inline; with more, each worker
        process rebuilds an identical engine from the spec.
    num_workers:
        Process count.  Results are bit-identical for every value; the
        right number is roughly the machine's core count.
    phi_path:
        Optional path to the artifact's uncompressed word-major phi
        member.  When given (and the engine's phi actually is that
        mapping — renormalized copies disqualify), workers re-map the
        file instead of receiving a pickled copy.
    recorder:
        Optional :class:`~repro.telemetry.Recorder` collecting
        per-worker utilization (``serving.worker.{docs,tokens,
        busy_seconds}`` keyed by worker pid), batch totals, task
        latency (``serving.task.seconds``), pool size
        (``serving.pool.workers``) and broken pools replaced after a
        worker died (``serving.pool.restarts``).  Recorders never cross
        the process boundary — workers return plain stats dicts and
        the parent merges them — so any recorder (locks and all) is
        safe here with every pool context.
    """

    def __init__(self, engine: FoldInEngine, num_workers: int = 1,
                 phi_path: str | Path | None = None,
                 recorder: Recorder | None = None) -> None:
        if num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1, got {num_workers}")
        self.engine = engine
        self.num_workers = int(num_workers)
        self.recorder = ensure_recorder(recorder)
        if engine.sharded is not None:
            # Sharded engines ship the shard map, never the matrix: the
            # ShardedPhi pickle is a few paths + offsets, and each
            # non-fork worker maps only the shards its documents touch.
            # (Fork workers inherit the parent's view copy-on-write and
            # do the same.)
            self._spec = EngineSpec(
                alpha=engine.alpha, iterations=engine.iterations,
                mode=engine.mode, sharded=engine.sharded)
        else:
            phi_by_word = engine._phi_by_word
            share_file = False
            if phi_path is not None:
                # Only hand workers the file if the parent engine is
                # really serving from *this* file: validate_phi may
                # have renormalized into a private copy, and an engine
                # built from one artifact could be paired with another
                # artifact's path — either way workers would silently
                # serve different phi than the parent, so the mapped
                # filename must match.
                target = Path(phi_path).resolve()
                base = phi_by_word
                while base is not None:
                    if isinstance(base, np.memmap):
                        mapped = getattr(base, "filename", None)
                        share_file = (mapped is not None
                                      and Path(mapped).resolve()
                                      == target)
                        break
                    base = getattr(base, "base", None)
            # Ship the *resolved* path: a relative one would be
            # resolved against whatever cwd a non-fork worker (or a
            # later chdir) happens to have.
            self._spec = EngineSpec(
                alpha=engine.alpha, iterations=engine.iterations,
                mode=engine.mode,
                phi=None if share_file else phi_by_word,
                phi_path=str(target) if share_file else None)
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The worker pool, created on first use.

        Caller must hold ``_pool_lock`` — and keep holding it through
        its ``submit`` calls: two racing callers must never both build
        a pool (the loser's worker processes would leak), and a
        concurrent :meth:`close` must never shut the pool down between
        lookup and submission (its ``shutdown(wait=True)`` still
        drains work submitted before the swap).
        """
        if self._pool is None:
            context = _pool_context()
            # fork: hand workers the parent engine itself (inherited
            # copy-on-write, alias tables and all); otherwise ship
            # the picklable spec and let workers rebuild.
            payload = (self.engine
                       if context.get_start_method() == "fork"
                       else self._spec)
            self._pool = ProcessPoolExecutor(
                self.num_workers, mp_context=context,
                initializer=_init_worker, initargs=(payload,))
            self.recorder.gauge("serving.pool.workers",
                                self.num_workers)
        return self._pool

    def theta(self, documents: Sequence[np.ndarray],
              seed: int | np.random.SeedSequence
              | np.random.Generator | None = None) -> np.ndarray:
        """Fold-in ``theta`` rows, shape ``(len(documents), T)``.

        ``seed`` names the call's root ``SeedSequence``; document ``i``
        samples on the stream keyed ``(seed, i)`` regardless of which
        worker runs it, so the result is a pure function of the seed
        and the documents — not of worker count, task boundaries,
        completion order or reruns after a worker died.  Empty
        documents get the uniform row and are never shipped to a
        worker.
        """
        call_seed = ensure_seed_sequence(seed)
        documents = self.engine.check_documents(documents)
        theta = np.empty((len(documents), self.engine.num_topics))
        pending: list[int] = []
        for index, doc in enumerate(documents):
            if doc.shape[0] == 0:
                theta[index] = 1.0 / self.engine.num_topics
            else:
                pending.append(index)
        if not pending:
            return theta
        if self.num_workers == 1 or len(pending) == 1:
            # Inline execution is one task run by this process: time it
            # with the recorder's clock (injectable for deterministic
            # tests) and merge it exactly like a worker's stats dict.
            recorder = self.recorder
            clock = getattr(recorder, "clock", perf_counter)
            start_time = clock()
            theta[pending] = self.engine.fold(
                [documents[index] for index in pending],
                [document_rng(call_seed, index) for index in pending])
            if recorder is not NULL_RECORDER:
                self._record_task({
                    "worker": os.getpid(), "docs": len(pending),
                    "tokens": sum(documents[index].shape[0]
                                  for index in pending),
                    "busy_seconds": clock() - start_time})
            return theta
        return self._dispatch(documents, theta, pending, call_seed)

    def _dispatch(self, documents: Sequence[np.ndarray],
                  theta: np.ndarray, pending: list[int],
                  call_seed: np.random.SeedSequence) -> np.ndarray:
        """One contiguous task per worker over the fixed pool.

        ``pending`` is cut into at most ``num_workers`` tasks of
        near-equal size, with no micro-batches and no work stealing;
        tasks are harvested in completion order.  A worker that dies
        breaks its whole pool: the broken pool is dropped and the
        call's unresolved tasks are resubmitted once to a fresh one — a
        second break is raised.  Every document samples its own
        index-keyed stream, so neither the split nor the rerun can
        change theta.
        """
        task_size = -(-len(pending) // min(self.num_workers,
                                           len(pending)))
        tasks = [pending[start:start + task_size]
                 for start in range(0, len(pending), task_size)]
        record = self.recorder is not NULL_RECORDER
        retried = False
        while True:
            inflight: dict[Future, tuple[list[int], float]] = {}
            unresolved: list[list[int]] = []
            error: BrokenProcessPool | None = None
            with self._pool_lock:
                pool = self._ensure_pool()
                for position, indices in enumerate(tasks):
                    try:
                        future = pool.submit(
                            _fold_shard,
                            [documents[i] for i in indices], indices,
                            call_seed)
                    except BrokenProcessPool as exc:
                        error = exc
                        unresolved.extend(tasks[position:])
                        break
                    inflight[future] = (indices, perf_counter())
            for future in as_completed(inflight):
                indices, submitted = inflight[future]
                try:
                    rows, stats = future.result()
                except BrokenProcessPool as exc:
                    error = exc
                    unresolved.append(indices)
                    continue
                theta[indices] = rows
                if record:
                    self._record_task(stats)
                    self.recorder.observe("serving.task.seconds",
                                          perf_counter() - submitted)
            if error is None:
                return theta
            with self._pool_lock:
                # A concurrent call may already have replaced it.
                if self._pool is pool:
                    self._pool = None
                    pool.shutdown(wait=False)
                    self.recorder.count("serving.pool.restarts")
            if retried:
                raise error
            retried = True
            tasks = unresolved

    def _record_task(self, stats: dict[str, Any]) -> None:
        """Merge one task's worker-side stats into the recorder.

        Per-worker series are keyed by the worker's pid — summing
        ``serving.worker.busy_seconds`` across workers against wall
        time gives pool utilization; the per-pid split shows balance.
        Batch totals and one ``serving.foldin.batch_seconds``
        observation per task are also fed here, so inline, pool and
        :meth:`~repro.serving.foldin.FoldInEngine.theta` serving
        expose the same series (one observation per fold call).
        """
        recorder = self.recorder
        worker = stats["worker"]
        recorder.count("serving.worker.docs", stats["docs"],
                       worker=worker)
        recorder.count("serving.worker.tokens", stats["tokens"],
                       worker=worker)
        recorder.count("serving.worker.busy_seconds",
                       stats["busy_seconds"], worker=worker)
        recorder.count("serving.foldin.documents", stats["docs"])
        recorder.count("serving.foldin.tokens", stats["tokens"])
        recorder.observe("serving.foldin.batch_seconds",
                         stats["busy_seconds"], mode=self.engine.mode)

    # ------------------------------------------------------------------
    def warm_up(self) -> "ParallelFoldIn":
        """Spawn the worker pool now (no-op for one worker).

        Call this at process startup — before request threads or
        native (BLAS, embedding-host) thread pools exist — to pin
        every worker fork to a provably safe moment instead of the
        first multi-document :meth:`theta` call.  The empty submit
        matters: fork-context executors launch their workers at the
        first submit, not at executor construction.
        """
        if self.num_workers > 1:
            with self._pool_lock:
                future = self._ensure_pool().submit(
                    _fold_shard, [], [], np.random.SeedSequence(0))
            future.result()
        return self

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        Safe to call while other threads are mid-:meth:`theta`: they
        submit under the same lock that swaps the pool out, already
        submitted shards drain before shutdown completes, and any
        later call simply respawns a pool on demand.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelFoldIn":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ParallelFoldIn(num_workers={self.num_workers}, "
                f"mode={self.engine.mode!r}, "
                f"mmap={self._spec.phi_path is not None}, "
                f"pool={'up' if self._pool is not None else 'down'})")


def available_cpus() -> int:
    """CPUs this process can actually use.

    ``os.cpu_count()`` reports the host's cores; a pinned or
    container-throttled process may be allowed far fewer.  Honors the
    scheduler affinity mask and (best-effort) a cgroup-v2 CPU quota, so
    worker-count decisions and benchmark speedup gates reflect reality
    in CI containers.
    """
    try:
        count = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        count = os.cpu_count()
    count = count or 1
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max") \
            .read_text().split()[:2]
        if quota != "max":
            count = min(count, max(1, int(int(quota) / int(period))))
    except (OSError, ValueError):
        pass
    return max(1, count)
