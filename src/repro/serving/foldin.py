"""Batched fold-in Gibbs inference for unseen documents.

Query-time inference ("fold-in") estimates a document-topic mixture
``theta`` for documents the model never trained on, by Gibbs-sampling
token assignments against the *frozen* topic-word distributions ``phi``
— the paper's held-out treatment where the training counts folded into
phi stand in for the ``n + ñ`` numerators (see
:mod:`repro.metrics.perplexity`).

The legacy implementation lived inside ``heldout_gibbs_theta`` as a dense
per-token Python loop that re-validated ``phi``, re-gathered a
``(Nd, T)`` probability block and re-drew a scalar uniform per token for
*every* document of *every* call.  :class:`FoldInEngine` productizes it:

* ``phi`` is validated (and, for float32-drift snapshots, renormalized)
  **once per engine**, not per call — sessions serving many batches pay
  the ``O(T * V)`` checks a single time;
* each call owns its buffers: a lane allocates its own
  ``phi[:, word_ids]`` gather and its weight, cumulative-sum and
  accumulator rows per document — a few microseconds against
  milliseconds of sampling, so reusing them across calls bought
  nothing measurable;
* the per-token uniforms are **pre-drawn in chunks** (one
  ``rng.random(Nd)`` call per document sweep).  NumPy's
  ``Generator.random`` consumes the bit stream identically whether
  called ``Nd`` times or once with size ``Nd`` (the same contract the
  training engines rely on), so the draw stream matches the legacy loop
  exactly;
* :meth:`FoldInEngine.fold` cuts the documents of a call (inline, or
  one worker's share of a :mod:`repro.serving.parallel` call) into
  contiguous groups in input order; a group closes before the document
  that would push its lockstep allocation past
  :data:`LOCKSTEP_MAX_BYTES`;
* the token loops themselves live in the unified sampling runtime
  (:mod:`repro.sampling.runtime`): the engine compiles its frozen state
  into a :class:`~repro.sampling.runtime.FoldInTable`, and the
  runtime's fold-in lanes (:func:`~repro.sampling.runtime.foldin_exact`,
  :func:`~repro.sampling.runtime.foldin_sparse`) execute the
  per-document sampling;
* a group of at least :data:`LOCKSTEP_MIN_DOCS` documents is sampled in
  **lockstep** instead (:func:`~repro.sampling.runtime.foldin_lockstep`):
  one numpy step advances every document of the group by one position,
  with each document's stream drawn up front in the order its lane
  would consume it — ``integers(0, T, L)``, then
  ``random(iterations * L)``, the same bits as ``iterations`` calls of
  ``random(L)``.  The rows are bit-identical to the per-document lanes
  for both modes, on per-document streams and on the shared stream
  alike, so the group size only decides speed and memory.  The
  constant is the measured crossover: below about ten documents the
  per-step numpy overhead costs more than the per-token interpreter
  work it saves.  :meth:`FoldInEngine.fold` is the one entry point
  that makes this choice for every fold-in path.

Concurrency contract: the engine holds **no per-caller state**.  Apart
from its recorder and the lock-guarded cache of per-shard sparse tables,
everything on it (the validated ``phi`` layouts, the sparse lane's
prior masses and alias tables) is frozen after construction, and every
mutable sampling buffer is allocated by the call that writes it.  So
many threads, or forked worker processes, may call
:meth:`FoldInEngine.theta` / :meth:`FoldInEngine.fold` on one engine
concurrently without sharing a buffer.

Two sampling lanes:

``mode="exact"``
    The legacy dense draw, bit-for-bit: weights
    ``phi[:, w] * (nd + alpha)`` cumulative-summed over all ``T`` topics
    with the reference boundary clamp.  ``heldout_gibbs_theta`` now
    delegates here, and ``tests/test_serving.py`` pins seed-for-seed
    equality against the legacy loop.
``mode="sparse"``
    Bucketed draws in the style of SparseLDA (Yao, Mimno & McCallum,
    KDD 2009): because ``phi`` is frozen, the
    weight splits into a static per-word prior mass
    (``alpha * sum_t phi[t, w]``, precomputed for the whole vocabulary)
    plus a document bucket over the nonzero ``nd`` topics — O(nnz) per
    token instead of O(T), the serving default.  Prior-bucket hits are
    answered in O(1) by per-word Walker alias tables
    (:mod:`repro.sampling.alias`), precomputed once per engine;
    previously each hit paid a binary search over a per-word cumulative
    sum.  Statistically equivalent to the exact lane (same conditional
    distribution), not draw-for-draw identical.

Sharded phi (schema-v3 artifacts): when ``phi`` is the lazy
``(T, V)`` face of a :class:`~repro.serving.sharding.ShardedPhi`, the
engine goes **shard-aware** instead of materializing.  The exact lane,
per document or in lockstep, gathers through the view's shard-local
``take``; the sparse lane samples per document (its lockstep rule
gathers from one flat phi array), and its prior masses and alias
tables are built **per shard, on first touch**
(:class:`_ShardedFoldInTables`) — per-word row sums and
:func:`~repro.sampling.alias.build_alias_rows` are row-independent, so
the per-shard tables are bit-identical to whole-matrix tables row for
row and the served theta never depends on the shard layout (pinned by
``tests/test_sharded_serving.py``).  A single-shard view takes the
dense fast path (its one block *is* the v2 word-major matrix), keeping
shards=1 serving throughput at parity with unsharded.
:meth:`FoldInEngine.touch` prefetches exactly the shards a call
needs; :meth:`FoldInEngine.theta` touches them once before sampling.
"""

from __future__ import annotations

import threading
import warnings
from typing import Sequence

import numpy as np

from repro.sampling.alias import build_alias_rows
from repro.sampling.rng import ensure_rng
from repro.sampling.runtime import (FoldInTable, foldin_exact,
                                    foldin_lockstep, foldin_sparse)
from repro.serving.sharding import ShardedPhi, TransposedShardedPhi
from repro.telemetry import NULL_RECORDER, Recorder, ensure_recorder

#: Fold-in sampling lanes.
MODES = ("exact", "sparse")

#: Smallest document group :meth:`FoldInEngine.fold` samples in
#: lockstep.  Below it the per-step numpy overhead outweighs the
#: per-token interpreter cost it saves: on a 2-core x86 host, with
#: T = 200 and 100-token documents, the sparse rule breaks even near
#: 10 documents and the exact rule near 6.
LOCKSTEP_MIN_DOCS = 12

#: Most bytes :meth:`FoldInEngine.fold` lets one lockstep group
#: allocate, as estimated by :func:`lockstep_bytes`.  The pre-drawn
#: uniforms grow with the group's *longest* document, so without a cap
#: one long document among many short ones would pad every row to its
#: length.  The value was set by timing on a 2-core x86 host: with
#: 100-token documents and 20 sweeps it keeps groups near 80 documents
#: at T = 2000, where an 8 MiB cap (55) was slower on the sparse rule,
#: and lets them grow to about 340 at T = 200.
LOCKSTEP_MAX_BYTES = 12 << 20

#: Row sums within this tolerance of 1 are accepted as exact.
PHI_SUM_ATOL = 1e-6
#: Row sums within this looser tolerance are renormalized with a warning
#: — the drift signature of phi snapshots stored in float32 and upcast.
PHI_RENORM_ATOL = 1e-3


def validate_phi(phi: np.ndarray, *, stacklevel: int = 2) -> np.ndarray:
    """Check and return ``phi`` as a float64 ``(T, V)`` stochastic matrix.

    Rows must be non-negative and sum to 1 within ``PHI_SUM_ATOL``; rows
    within the looser ``PHI_RENORM_ATOL`` (a float32 round-trip
    signature) are renormalized with a warning.  Shared by the fold-in
    engine and every perplexity estimator in
    :mod:`repro.metrics.perplexity`.

    ``stacklevel`` positions the renormalization warning and follows
    the :func:`warnings.warn` convention counted from this function:
    the default 2 points at the direct caller; wrappers validating on a
    caller's behalf pass 3 so the warning lands on *their* caller's
    line.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim != 2:
        raise ValueError(f"phi must be 2-d, got shape {phi.shape}")
    if np.any(phi < 0):
        raise ValueError("phi has negative entries")
    sums = phi.sum(axis=1)
    if not np.allclose(sums, 1.0, rtol=0.0, atol=PHI_SUM_ATOL):
        if not np.allclose(sums, 1.0, rtol=0.0, atol=PHI_RENORM_ATOL):
            raise ValueError("phi rows must sum to 1")
        warnings.warn(
            "phi row sums drift from 1 by more than "
            f"{PHI_SUM_ATOL:g} (max |sum - 1| = "
            f"{float(np.abs(sums - 1.0).max()):.2e}, consistent with a "
            "float32 round-trip); renormalizing rows",
            RuntimeWarning, stacklevel=stacklevel)
        phi = phi / sums[:, np.newaxis]
    return phi


def lockstep_bytes(count: int, longest: int, num_topics: int,
                   iterations: int) -> int:
    """What :func:`~repro.sampling.runtime.foldin_lockstep` allocates
    for ``count`` documents padded to ``longest`` tokens, in bytes.

    Two parts, both 8-byte entries: the position-major blocks — the
    pre-drawn uniforms (``iterations * longest`` per document) plus
    the word, topic and mask blocks (counted as ``4 * longest``) — and
    eight ``(count, T)`` step blocks (counts, accumulator, weights,
    cumulative sums and their temporaries).  Under ``tracemalloc`` the
    estimate sits within 15% above the measured peak on both lockstep
    rules, from T = 50 to T = 2000.
    """
    return 8 * count * ((iterations + 4) * longest + 8 * num_topics)


def _as_sharded(phi) -> ShardedPhi | None:
    """The word-major sharded view behind a ``phi`` argument, if any.

    Engines take phi in the canonical ``(T, V)`` orientation, so a
    sharded model arrives as the lazy transpose face; a bare
    (word-major) :class:`ShardedPhi` is rejected rather than silently
    served transposed.
    """
    if isinstance(phi, TransposedShardedPhi):
        return phi.T
    if isinstance(phi, ShardedPhi):
        raise TypeError(
            "FoldInEngine takes phi in (T, V) orientation; pass the "
            "sharded view's transpose face (sharded.T), not the bare "
            "word-major ShardedPhi")
    return None


class _ShardedFoldInTables:
    """Sparse-lane tables for a sharded phi, built per shard on first
    touch.

    Holds one ``(prior_mass, alias_accept, alias_topic)`` triple per
    shard — the same arrays an unsharded engine precomputes for the
    whole vocabulary, restricted to the shard's word rows.  Both are
    row-independent constructions (per-word sums;
    :func:`~repro.sampling.alias.build_alias_rows` replays an identical
    per-row pop/push sequence whatever rows share a block), so every
    row is bit-identical to its whole-matrix counterpart — the
    foundation of the sharded == unsharded serving contract.

    The :class:`_ShardedRows` views expose the ``table[word]`` surface
    the runtime's sparse fold-in lane already uses, so
    :class:`~repro.sampling.runtime.FoldInTable` carries them in place
    of arrays and the lane samples unchanged.  Construction
    is lock-guarded (engines are shared across threads); reads are
    lock-free.
    """

    def __init__(self, sharded: ShardedPhi, alpha: float,
                 owner: "FoldInEngine | None" = None) -> None:
        self._sharded = sharded
        self._alpha = alpha
        # The owning engine, read (not captured) at build time so each
        # shard-table construction lands on the engine's *current*
        # recorder — workers reset theirs to NULL after fork.
        self._owner = owner
        self._tables: list[tuple[np.ndarray, np.ndarray, np.ndarray]
                           | None] = [None] * sharded.num_shards
        self._lock = threading.Lock()
        self.prior_mass = _ShardedRows(self, 0)
        self.alias_accept = _ShardedRows(self, 1)
        self.alias_topic = _ShardedRows(self, 2)

    @property
    def sharded(self) -> ShardedPhi:
        return self._sharded

    def shard(self, index: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        tables = self._tables[index]
        if tables is None:
            tables = self._build(index)
        return tables

    def _build(self, index: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        with self._lock:
            tables = self._tables[index]
            if tables is not None:
                return tables
            block = self._sharded.block(index)
            prior_mass = self._alpha * block.sum(axis=1)
            accept, alias = build_alias_rows(block)
            tables = (prior_mass, accept, alias)
            self._tables[index] = tables
            if self._owner is not None:
                self._owner.recorder.count(
                    "serving.foldin.shard_table_builds")
            return tables

    def ensure(self, shard_ids: Sequence[int]) -> None:
        """Build the tables of the given shards now (prefetch)."""
        for index in shard_ids:
            self.shard(int(index))


class _ShardedRows:
    """Word-indexed view over one column of a
    :class:`_ShardedFoldInTables` triple (0 = prior mass, 1 = alias
    accept rows, 2 = alias topic rows).

    ``view[word]`` answers the sparse lane's per-token lookups with the
    same values the unsharded arrays would.
    """

    __slots__ = ("_tables", "_column")

    def __init__(self, tables: _ShardedFoldInTables, column: int) -> None:
        self._tables = tables
        self._column = column

    def __getitem__(self, word):
        shard, local = self._tables.sharded.locate(word)
        return self._tables.shard(shard)[self._column][local]


class FoldInEngine:
    """Estimates ``theta`` for batches of unseen documents against a
    frozen ``phi``.

    The engine holds no per-caller state and is safe to share across
    threads and forked worker processes; see the module docstring's
    concurrency contract.

    Parameters
    ----------
    phi:
        Topic-word distributions ``(T, V)``; validated once here (pass
        ``validate=False`` when the caller already ran
        :func:`validate_phi`).  A read-only memory-map (from
        ``load_model(..., mmap_phi=True)``, whose word-major layout
        transposes to ``(T, V)`` as a zero-copy view) is kept as-is, so
        many worker processes share one physical copy.
    alpha:
        Symmetric document-topic prior of the fold-in sampler.
    iterations:
        Gibbs sweeps per document; the first half burns in and the rest
        are averaged (always at least the final sweep).
    mode:
        ``"exact"`` (the legacy dense draw, seed-pinned to
        ``heldout_gibbs_theta``) or ``"sparse"`` (bucketed O(nnz)
        draws with O(1) alias-table prior hits, the serving default
        through :class:`~repro.serving.session.InferenceSession`).
    recorder:
        Optional :class:`~repro.telemetry.Recorder`; :meth:`theta`
        records per-call latency, document/token counts, shard
        touches, the ``mapped_bytes`` gauge and lazy shard-table
        builds.  ``None`` (default) runs with the zero-overhead null
        recorder.  Recording never draws randomness, so theta is
        bit-identical with and without one.  Worker processes reset
        the attribute to the null recorder so a forked engine never
        writes into the parent's (locked) sink.
    """

    def __init__(self, phi: np.ndarray, alpha: float,
                 iterations: int = 30, mode: str = "exact",
                 validate: bool = True,
                 recorder: Recorder | None = None) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if iterations < 1:
            raise ValueError(
                f"iterations must be >= 1, got {iterations}")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        # Telemetry sink (NULL_RECORDER by default); mutable on purpose
        # so worker processes can neutralize an inherited recorder.
        # Assigned before table construction: lazy shard-table builds
        # read it through their owner reference.
        self.recorder = ensure_recorder(recorder)
        sharded = _as_sharded(phi)
        if sharded is None:
            phi = validate_phi(phi, stacklevel=3) if validate \
                else np.asarray(phi, dtype=np.float64)
            num_topics, vocab_size = phi.shape
        else:
            # Row-stochasticity checks would map every shard, defeating
            # the lazy view; the shard map itself was validated at load
            # (contiguous coverage) and the manifest's per-shard masses
            # give a whole-matrix stochasticity check for free.
            vocab_size, num_topics = sharded.shape
            if validate:
                masses = sharded.shard_masses
                if masses is not None and not np.isclose(
                        sum(masses), num_topics, rtol=0.0,
                        atol=PHI_RENORM_ATOL * num_topics):
                    raise ValueError(
                        f"sharded phi mass {sum(masses):.6g} is not the "
                        f"topic count {num_topics}; the artifact's phi "
                        f"rows cannot all sum to 1")
        self.alpha = float(alpha)
        self.iterations = int(iterations)
        self.mode = mode
        self.num_topics = int(num_topics)
        self.vocab_size = int(vocab_size)
        self._sharded = sharded
        self._sparse_tables: _ShardedFoldInTables | None = None
        if sharded is not None and sharded.num_shards == 1:
            # One shard *is* the v2 word-major matrix: serve the dense
            # fast path off its block so the per-token loop is
            # byte-for-byte the unsharded one (no per-word shard
            # lookups), while touch()/mapped-bytes accounting keep
            # working through the view.
            phi_by_word = sharded.block(0)
        elif sharded is not None:
            phi_by_word = sharded
        else:
            #: ``(V, T)`` layout for per-word row gathers.  When ``phi``
            #: is the transpose view of an already word-major array (the
            #: mmap artifact layout), this is that array itself — no
            #: copy.
            phi_by_word = np.ascontiguousarray(phi.T)
        self._phi_by_word = phi_by_word
        if mode != "sparse":
            self._prior_mass = None
            self._alias_accept = None
            self._alias_topic = None
        elif isinstance(phi_by_word, ShardedPhi):
            # Multi-shard sparse lane: per-shard tables, built on first
            # touch of each shard so cold start maps nothing and a
            # batch's table-build cost tracks its shard working set.
            self._sparse_tables = _ShardedFoldInTables(phi_by_word,
                                                       self.alpha,
                                                       owner=self)
            self._prior_mass = self._sparse_tables.prior_mass
            self._alias_accept = self._sparse_tables.alias_accept
            self._alias_topic = self._sparse_tables.alias_topic
        else:
            #: Static prior-bucket mass per word: ``alpha * sum_t phi``.
            self._prior_mass = self.alpha * phi_by_word.sum(axis=1)
            #: Per-word Walker alias tables over ``phi[:, w]`` — a
            #: prior-bucket hit costs one table lookup instead of a
            #: binary search over a per-word cumulative sum.  Built once
            #: per engine (O(V * T), same as the cumulative sums they
            #: replace) and frozen thereafter.
            self._alias_accept, self._alias_topic = \
                build_alias_rows(phi_by_word)
        #: The frozen-phi prior/doc split as a flat runtime kernel
        #: table — what the lanes (in every worker process) actually
        #: sample from.
        self._table = FoldInTable(
            alpha=self.alpha, iterations=self.iterations,
            num_topics=self.num_topics, phi_by_word=self._phi_by_word,
            prior_mass=self._prior_mass,
            alias_accept=self._alias_accept,
            alias_topic=self._alias_topic)

    @property
    def sharded(self) -> ShardedPhi | None:
        """The lazy sharded phi this engine serves from, if any."""
        return self._sharded

    def touch(self, word_ids: np.ndarray) -> tuple[int, ...]:
        """Prefetch the shards (and their sparse-lane tables) that
        ``word_ids`` touch; returns the touched shard indices.

        No-op (empty tuple) for unsharded engines.  :meth:`theta` calls
        this once per call, so the call's phi working set is mapped in
        one pass rather than one page fault at a time mid-sampling; callers
        that know a request's vocabulary ahead of time can warm shards
        explicitly the same way.
        """
        if self._sharded is None:
            return ()
        shards = self._sharded.touch(word_ids)
        if self._sparse_tables is not None:
            self._sparse_tables.ensure(shards)
        return shards

    # ------------------------------------------------------------------
    def check_documents(self, documents: Sequence[np.ndarray]
                        ) -> list[np.ndarray]:
        """Coerce word-id documents to int64 and bounds-check them.

        A non-empty document must already hold integer word ids: a
        float or bool array would otherwise be truncated silently.
        """
        checked = []
        for index, doc in enumerate(documents):
            doc = np.asarray(doc)
            if doc.size and not np.issubdtype(doc.dtype, np.integer):
                raise ValueError(
                    f"document {index} word ids must be integers, got "
                    f"dtype {doc.dtype}")
            doc = doc.astype(np.int64, copy=False)
            if doc.ndim != 1:
                raise ValueError(
                    f"document {index} word ids must be 1-d, got shape "
                    f"{doc.shape}")
            if doc.size and (int(doc.min()) < 0
                             or int(doc.max()) >= self.vocab_size):
                raise ValueError(
                    f"document {index} references word ids outside the "
                    f"model vocabulary (size {self.vocab_size})")
            checked.append(doc)
        return checked

    # ------------------------------------------------------------------
    def theta(self, documents: Sequence[np.ndarray],
              rng: int | np.random.Generator | None = None
              ) -> np.ndarray:
        """Fold-in ``theta`` rows, shape ``(len(documents), T)``.

        ``documents`` are word-id arrays over the model vocabulary.
        Empty documents get the uniform row ``1 / T`` without consuming
        any randomness (matching the legacy loop).  All documents share
        the single sequential ``rng`` stream (the legacy contract that
        ``heldout_gibbs_theta`` is seed-pinned to); worker-shardable
        per-document streams live in :mod:`repro.serving.parallel`.

        One :meth:`fold` per call, after one :meth:`touch` of the
        call's shards on multi-shard engines.
        """
        rng = ensure_rng(rng)
        documents = self.check_documents(documents)
        recorder = self.recorder
        shards: tuple[int, ...] = ()
        # Instrumentation is per call (a handful of recorder calls),
        # never per token — the <= 5% overhead gate in
        # benchmarks/test_bench_telemetry_overhead rides on this
        # granularity.
        with recorder.span("serving.foldin.batch_seconds",
                           mode=self.mode):
            if self._sharded is not None and self._sharded.num_shards > 1:
                # Map the call's shard working set up front (and build
                # its sparse tables), instead of faulting shards in
                # token by token mid-sampling.  Single-shard engines
                # already run the dense fast path; scanning the word
                # ids would be pure overhead there.
                occupied = [doc for doc in documents if doc.shape[0]]
                if occupied:
                    shards = self.touch(np.concatenate(occupied))
            theta = self.fold(documents, [rng] * len(documents))
        if recorder is not NULL_RECORDER:
            recorder.count("serving.foldin.documents", len(documents))
            recorder.count("serving.foldin.tokens",
                           int(sum(doc.shape[0] for doc in documents)))
            if shards:
                recorder.count("serving.foldin.shard_touches",
                               len(shards))
            if self._sharded is not None:
                recorder.gauge("serving.foldin.mapped_bytes",
                               self._sharded.mapped_bytes)
        return theta

    def fold(self, documents: Sequence[np.ndarray],
             rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """Fold-in ``theta`` rows for already checked documents, with
        document ``i`` sampled on ``rngs[i]``.

        The one entry point every fold-in path calls: ``rngs`` holds
        per-document streams (:mod:`repro.serving.parallel`) or one
        generator repeated (the shared stream of :meth:`theta`).  Empty
        documents get the uniform row and consume no draws.  The rest
        are cut into contiguous groups in input order (the shared
        stream draws documents in that order): a group closes when the
        next document would push its :func:`lockstep_bytes` past
        :data:`LOCKSTEP_MAX_BYTES`.  A group of at least
        :data:`LOCKSTEP_MIN_DOCS` documents is sampled together by
        :func:`~repro.sampling.runtime.foldin_lockstep`, a smaller one
        document by document.  Both give the same bits, so the choice
        is speed and memory only.  Multi-shard sparse engines always take
        the per-document lane: their per-shard tables answer one word
        at a time.
        """
        num_topics = self.num_topics
        theta = np.empty((len(documents), num_topics))
        occupied = []
        for index, doc in enumerate(documents):
            if doc.shape[0]:
                occupied.append(index)
            else:
                theta[index] = 1.0 / num_topics
        groups: list[list[int]] = []
        longest = 0
        for index in occupied:
            length = documents[index].shape[0]
            if not groups or lockstep_bytes(
                    len(groups[-1]) + 1, max(longest, length), num_topics,
                    self.iterations) > LOCKSTEP_MAX_BYTES:
                groups.append([])
                longest = 0
            groups[-1].append(index)
            longest = max(longest, length)
        sparse = self.mode == "sparse"
        lockstep = not (sparse and self._sparse_tables is not None)
        lane = foldin_sparse if sparse else foldin_exact
        for group in groups:
            if lockstep and len(group) >= LOCKSTEP_MIN_DOCS:
                theta[group] = foldin_lockstep(
                    self._table, [documents[i] for i in group],
                    [rngs[i] for i in group], sparse)
                continue
            for index in group:
                theta[index] = lane(self._table, documents[index],
                                    rngs[index])
        return theta
