"""The unified sampling runtime: kernel tables plus one set of token loops.

Every sampler in this library bottoms out in the same shape of work —
walk tokens, update counts, turn a handful of cached arrays into a
categorical draw.  This module holds the one copy of each loop as a
module-level **lane function**.

:class:`~repro.sampling.gibbs.CollapsedGibbsSampler` picks one
training lane when it is built and calls it once per sweep:
:func:`sweep_alias` for ``engine="alias"``, :func:`sweep_dense` for
``engine="fast"`` and :func:`sweep_reference` for
``engine="reference"``.  Where the kernel has no path for its engine,
the pick falls back one step — alias to dense for a kernel without an
alias path, dense to :func:`sweep_reference` for a kernel without a
fast path — so a fallback runs the next lane's own loop and is
draw-identical to it by construction.
:class:`~repro.serving.foldin.FoldInEngine` calls :func:`foldin_exact`
/ :func:`foldin_sparse`.  The exactness suites are the oracle for every
lane.

Fold-in has a second driver, :func:`foldin_lockstep`, for groups of
documents: given frozen phi the documents are independent, so one numpy
step advances every document of the group by one position instead of
one interpreted iteration per token.  Its exact and sparse rules replay
:func:`foldin_exact` and :func:`foldin_sparse` row for row, so its rows
are bit-identical to theirs; the engine picks it for groups of
:data:`~repro.serving.foldin.LOCKSTEP_MIN_DOCS` documents or more.

Every kernel with a fast path samples on one dense lane,
:func:`sweep_dense`, which drives the path's
:class:`~repro.sampling.fast_engine.FastKernelPath`
``weights``/``topic_changed`` per token.  Flat numpy **kernel tables**
(struct-of-arrays whose fields alias the owning path's caches) exist
only where a lane runs a bucket walk or proposal machinery inline:
:class:`AliasMHTable` for the alias/MH lane and :class:`FoldInTable`
for the fold-in lanes.

The per-token lanes call NumPy's ufunc methods directly —
``np.add.accumulate`` for a cumulative sum, ``np.add.reduce`` for a
sum — where ``ndarray.cumsum``/``np.cumsum``/``ndarray.sum`` would do.
Those are the same C kernels (the same bits, pinned by
``tests/test_runtime.py``), but the method forms first pass through
Python-level argument handling that costs about as much as the kernel
on a row of a few dozen topics: at ``T = 70``, 1.7–2.0 µs per
``w.cumsum(dtype=float64, out=...)`` against 0.7–0.9 µs per
``np.add.accumulate`` (timeit, on a 2-core Xeon VM).  In a loop that
does a few dozen numpy calls per token, that dispatch is the constant
that matters.

The RNG contract: a fixed number of uniforms per token — one for the reference, dense
and fold-in lanes, four for the alias/MH lane (word proposal, word
coin, doc proposal, doc coin) — pre-drawn in chunks through
``rng.random(n)`` over :data:`CHUNK_SIZE` tokens at a time
(NumPy consumes the bit stream identically whether asked ``n`` times or
once with size ``n``), so chunking never shifts a shared random
stream — the same property the alias-table split trick relies on.
The lockstep driver takes it one step further: it draws each
document's whole stream up front, ``integers(0, T, L)`` and then
``random(iterations * L)``, in document order.

The alias/MH training lane (:class:`AliasMHTable`,
:func:`run_alias_mh_chunk`) is the amortized-O(1) counterpart of the
dense ``O(T)`` walk for bijective Source-LDA: stale proposal tables
plus Metropolis-Hastings correction against the exact conditional, per
AliasLDA (Li et al., KDD 2014) and LightLDA (Yuan et al., WWW 2015).
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.sampling.alias import (alias_draw, alias_draw_many,
                                  build_alias_table)
from repro.sampling.scans import last_positive_index

#: Tokens per chunk of a training lane's pre-drawn stream.  Bounds the
#: transient per-chunk memory at large corpora; any value gives the same
#: draws (consecutive ``rng.random(c)`` batches concatenate to one
#: ``rng.random(N)``), which the chunk-invariance tests pin by patching
#: it.
CHUNK_SIZE = 65536


# ----------------------------------------------------------------------
# Bucket membership structure of the sparse fold-in lane.

class TopicSet:
    """Nonzero-topic ids of one count row.

    O(1) add/discard via swap-remove, and a zero-copy array view for
    vectorized gathers.  Entry order is arbitrary — each draw computes
    bucket masses and cumulative sums from the same snapshot of the
    array, so any fixed order partitions the mass consistently.
    """

    __slots__ = ("_buf", "_pos", "_n")

    def __init__(self, row: np.ndarray) -> None:
        nonzero = np.flatnonzero(row)
        n = nonzero.shape[0]
        self._buf = np.empty(row.shape[0], dtype=np.int64)
        self._buf[:n] = nonzero
        self._n = n
        self._pos = {int(t): i for i, t in enumerate(self._buf[:n])}

    def add(self, topic: int) -> None:
        pos = self._pos
        if topic in pos:
            return
        i = self._n
        self._buf[i] = topic
        pos[topic] = i
        self._n = i + 1

    def discard(self, topic: int) -> None:
        pos = self._pos
        i = pos.pop(topic, None)
        if i is None:
            return
        n = self._n - 1
        if i != n:
            last = int(self._buf[n])
            self._buf[i] = last
            pos[last] = i
        self._n = n

    def array(self) -> np.ndarray:
        """View of the current member topics."""
        return self._buf[:self._n]


# ----------------------------------------------------------------------
# Kernel tables of the alias/MH and fold-in lanes: flat
# struct-of-arrays descriptions of a kernel's hot path.  Array fields
# alias the owning path's caches — the path's ``begin_sweep`` refreshes
# them in place, and the alias lane calls the path's own per-topic
# refresh on every count change, so no lane repeats a cache update.

@dataclass(eq=False)
class FoldInTable:
    """Frozen-phi fold-in data: the prior/document split as arrays.

    ``prior_mass``/``alias_accept``/``alias_topic`` are ``None`` on the
    exact lane (which cumulative-sums the dense weight instead).

    The array fields are duck-typed: the lanes only require per-word
    row access (``prior_mass[word]``, ``alias_accept[word]``, …) and,
    for ``phi_by_word``, a ``take(word_ids, axis=0)`` gather.
    Column-sharded serving (:mod:`repro.serving.sharding`) exploits this
    by installing lazy views that map and build per-shard tables on
    first touch.
    """

    alpha: float
    iterations: int
    num_topics: int
    phi_by_word: np.ndarray               # (V, T) frozen, maybe lazy
    prior_mass: np.ndarray | None = None  # (V,) alpha * sum_t phi
    alias_accept: np.ndarray | None = None
    alias_topic: np.ndarray | None = None


@dataclass(eq=False)
class AliasMHTable:
    """Stale-proposal Metropolis-Hastings structure of the alias engine.

    The alias/MH lane (AliasLDA, Li et al. KDD 2014; LightLDA, Yuan et
    al. WWW 2015) replaces the per-token ``O(T)`` walk of bijective
    Source-LDA with two Metropolis-Hastings sub-steps against *stale*
    proposal distributions, each O(1) amortized:

    * the **word proposal** is an additive mixture of two independently
      refreshed frozen components over the word factor ``nw * C + D`` —
      a per-word sparse component (stale ``nw * C + D - E1`` over the
      word's nonzero counts plus its article-correction topics, rebuilt
      every :attr:`rebuild_every` draws of that word) plus a shared
      dense component (the epsilon floor ``E1``, snapshotted per sweep
      into a Walker alias table).  Because every component stores its
      own frozen weights and mass, the proposal density ``q(t)`` is
      *exactly* evaluable no matter how stale any component is —
      rebuild cadence affects acceptance rate, never correctness;
    * the **doc proposal** reuses LightLDA's token-slice trick: one
      uniform either picks a random *other* token of the document (a
      draw proportional to the live decremented ``nd`` row) or a
      uniform topic (the ``alpha`` smoothing arm), so it is never stale
      and needs no per-document tables.

    Acceptance tests use the exact conditional from the live counts,
    read through the lambda caches the table shares with the kernel's
    fast path, and both proposals are constructed to be independent of
    the topic being resampled (word components rebuild only after the
    token's decrement; the doc slice skips the token's own slot), so
    one alias/MH transition leaves the same per-token conditional
    invariant that the other engines sample directly (pinned by the
    chi-squared invariance test in ``tests/test_alias_engine.py``).

    The lane keeps the per-word components as plain lists (bisect
    beats numpy scalar calls at these sizes).  ``mh_counts``
    accumulates ``[proposals, accepts]`` across sweeps for
    acceptance-rate reporting.
    """

    alpha: float
    num_topics: int
    rebuild_every: int
    mh_counts: np.ndarray        # (2,) [proposals, accepts]
    # Document token-slice machinery (LightLDA doc proposal).
    doc_starts: list
    doc_lengths: list
    doc_z: np.ndarray
    # Per-word stale sparse component: stale support topics (sorted),
    # their frozen weights, the running cumsum used by proposal draws,
    # the component mass, and the per-word draw counter driving the
    # rebuild cadence.
    word_topics: list
    word_vals: list
    word_cum: list
    word_mass: list
    draws_since: list
    # Live lambda caches, views of the fast path's topic-major rows:
    # flattened rows, the floor entry E1 and C of every topic, the
    # per-word gather indices, and the path's own refresh, which the
    # lane calls on every topic change.
    E_flat: np.ndarray
    E1: np.ndarray
    C: np.ndarray
    flat: np.ndarray
    topic_changed: Callable[[int], None]
    # Per-word CSR of the article-correction topics (the rebuilds union
    # them into the sparse-component support).
    corr_ptr: list
    corr_topics: np.ndarray
    # (1,) count of stale word-component rebuilds (an array cell, so
    # in-place accumulation updates the table's own counter).
    rebuilds: np.ndarray = field(
        default_factory=lambda: np.zeros(1, dtype=np.int64))
    # Shared dense stale component, snapshotted once per sweep: frozen
    # weights, mass and the Walker alias table built over them.
    dense_vals: list | None = None
    dense_accept: list | None = None
    dense_alias: list | None = None
    dense_mass: float = 0.0
    # Document cursor (persists across chunk calls within a sweep).
    current_doc: int = -1
    position: int = 0
    doc_len: int = 0
    nd_row: np.ndarray | None = None


# ----------------------------------------------------------------------
# The deprecated ``backend=`` keyword.

def check_backend(backend: str | None, stacklevel: int = 3) -> None:
    """Validate a public constructor's deprecated ``backend=`` keyword.

    The token loops have a single implementation, so the keyword
    selects nothing.  ``None`` (the default) passes silently;
    ``"auto"`` and ``"python"`` still work but emit a
    :class:`DeprecationWarning`; anything else raises ``ValueError``.
    The default ``stacklevel`` suits a call made directly from the
    constructor's ``__init__``: the warning then points at the line
    that called the constructor.  A call one frame deeper passes 4.
    """
    if backend is None:
        return
    if backend not in ("auto", "python"):
        raise ValueError(
            f"backend must be None, 'auto' or 'python', got {backend!r}; "
            "the numba backend has been removed")
    warnings.warn(
        "the backend= keyword is deprecated and ignored (the token "
        "loops have a single implementation); drop the argument",
        DeprecationWarning, stacklevel=stacklevel)


# ----------------------------------------------------------------------
# The training token-loop lanes (the exactness suites pin them).
#
# Past the reference lane, token streams are chunked into plain Python
# lists (list indexing plus native-int array subscripts beat NumPy
# scalar extraction in a per-token loop, and chunking bounds the
# boxed-object footprint at large corpora).  Each token reads only its
# own ``z`` entry, so the per-chunk batched write-back is equivalent to
# per-token stores; the ``finally`` keeps ``z`` synced with the counts
# if a kernel raises mid-chunk (matching the reference lane's failure
# state of a single decremented-but-unassigned token).

# Reference and dense lanes.
def sweep_reference(sampler) -> None:
    """The literal per-token loop of Algorithm 1 (the exactness oracle).

    ``sampler`` supplies ``state``, ``kernel``, ``scan`` and ``rng``.
    It runs for ``engine="reference"`` and for a kernel with no fast
    path: one loop, so that fallback is the reference chain.
    """
    state = sampler.state
    kernel = sampler.kernel
    scan = sampler.scan
    rng = sampler.rng
    for token_index in range(state.num_tokens):
        word, doc, _old = state.decrement(token_index)
        weights = kernel.weights(word, doc)
        topic = scan.sample(weights, rng)
        state.increment(token_index, topic)


def _chunks(sampler, draws_per_token: int = 1):
    """Token chunks of :data:`CHUNK_SIZE` as (start, words, doc_ids,
    old_topics, uniforms) plain-list tuples, with ``draws_per_token``
    uniforms per token; consecutive ``rng.random(c)`` batches
    concatenate to the same stream as one ``rng.random(N)``."""
    state = sampler.state
    z = state.z
    rng_random = sampler.rng.random
    chunk = CHUNK_SIZE
    for start in range(0, state.num_tokens, chunk):
        stop = min(start + chunk, state.num_tokens)
        yield (start,
               state.words[start:stop].tolist(),
               state.doc_ids[start:stop].tolist(),
               z[start:stop].tolist(),
               rng_random(draws_per_token * (stop - start)).tolist())


def sweep_dense(sampler) -> None:
    """One full sweep over the sampler's
    :class:`~repro.sampling.fast_engine.FastKernelPath`: every path
    (built-in or third-party) drives ``path.weights``/``topic_changed``
    per token.

    The loop spends more on NumPy's Python-level dispatch than on
    arithmetic, so it keeps that dispatch down: the cumulative sum is
    ``np.add.accumulate`` (the kernel behind ``cumsum``, without the
    method's argument handling), and each token takes its ``nw[word]``
    row once and each document its ``nd[doc]`` row once, so the count
    updates index 1-d rows instead of the 2-d matrices.  The values,
    and the order they are computed in, are those of the reference
    loop.
    """
    path = sampler._path
    path.begin_sweep()
    state = sampler.state
    z = state.z
    nw = state.nw
    nt = state.nt
    nd = state.nd
    alpha = path.alpha
    scan = sampler.scan
    inline_serial = sampler._inline_serial
    cumulative = np.empty(state.num_topics)
    inf = np.inf
    path_weights = path.weights
    topic_changed = path.topic_changed
    num_topics = state.num_topics
    float64 = np.float64
    accumulate = np.add.accumulate

    current_doc = -1
    doc_row = nd_row = None
    for start, words, doc_ids, old_topics, uniforms in \
            _chunks(sampler):
        new_topics: list[int] = []
        append_new = new_topics.append
        try:
            for word, doc, old, u in zip(words, doc_ids, old_topics,
                                         uniforms):
                nw_row = nw[word]
                nw_row[old] -= 1.0
                nt[old] -= 1.0
                if doc != current_doc:
                    nd_row = nd[doc]
                    nd_row[old] -= 1.0
                    doc_row = nd_row + alpha
                    current_doc = doc
                else:
                    nd_row[old] -= 1.0
                    doc_row[old] = nd_row[old] + alpha
                topic_changed(old)
                w = path_weights(word, doc_row)
                if inline_serial:
                    accumulate(w, dtype=float64, out=cumulative)
                else:
                    cumulative = scan.inclusive_scan(
                        np.asarray(w, dtype=float64))
                total = cumulative[-1]
                if not (0.0 < total < inf):
                    raise ValueError(
                        f"topic weights must have positive finite "
                        f"mass, got total={total!r}")
                new = int(cumulative.searchsorted(u * total,
                                                  side="right"))
                if new == num_topics:
                    new = last_positive_index(cumulative)
                append_new(new)
                nw_row[new] += 1.0
                nt[new] += 1.0
                nd_row[new] += 1.0
                doc_row[new] = nd_row[new] + alpha
                topic_changed(new)
        finally:
            if new_topics:
                z[start:start + len(new_topics)] = new_topics


# Alias/MH lane.
def sweep_alias(sampler) -> None:
    """Alias/MH sweep: the chunk loop over an :class:`AliasMHTable`.

    Each token consumes exactly **four** pre-drawn uniforms (word
    proposal, word MH coin, doc proposal, doc MH coin) — coins are
    consumed even on self-proposals and rebuilds consume no RNG, so
    the stream position after a sweep depends only on the token
    count, never on proposal outcomes or rebuild cadence.
    """
    state = sampler.state
    path = sampler._path
    z = state.z

    path.begin_sweep()
    table = path.alias_table()
    for start, words, doc_ids, old_topics, uniforms in \
            _chunks(sampler, draws_per_token=4):
        new_topics: list[int] = []
        try:
            run_alias_mh_chunk(state, table, words, doc_ids,
                               old_topics, uniforms, new_topics)
        finally:
            if new_topics:
                z[start:start + len(new_topics)] = new_topics


# Fold-in lanes.
def foldin_exact(table: FoldInTable, word_ids: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """The legacy dense fold-in sampler, one document per call.

    Arithmetic, draw order and RNG consumption match the original
    ``heldout_gibbs_theta`` loop bit-for-bit: same initialization
    call, the same ``phi_w * (nd + alpha)`` product, the same
    float64 cumulative sum, and the same ``searchsorted`` +
    last-positive-topic boundary clamp as ``rng.categorical``'s
    reference draw.  The call allocates its own ``(Nd, T)`` gather
    and its weight, cumulative-sum and accumulator rows, so
    concurrent calls share nothing mutable.
    """
    length = int(word_ids.shape[0])
    num_topics = table.num_topics
    alpha = table.alpha
    iterations = table.iterations
    work = np.empty(num_topics)
    cumulative = np.empty(num_topics)
    accumulated = np.zeros(num_topics)
    word_probs = np.take(table.phi_by_word, word_ids, axis=0)
    assignments = rng.integers(0, num_topics, size=length)
    doc_counts = np.bincount(assignments, minlength=num_topics) \
        .astype(np.float64)
    assignments = assignments.tolist()
    # Burn in the first half, but always accumulate at least the
    # final sweep (iterations == 1 would otherwise return the prior
    # mean).
    burn_in = min(max(1, iterations // 2), iterations - 1)
    samples = 0
    inf = np.inf
    rng_random = rng.random
    for iteration in range(iterations):
        uniforms = rng_random(length).tolist()
        for position in range(length):
            doc_counts[assignments[position]] -= 1.0
            np.add(doc_counts, alpha, out=work)
            np.multiply(word_probs[position], work, out=work)
            np.add.accumulate(work, out=cumulative)
            total = cumulative[-1]
            if not (0.0 < total < inf):
                raise ValueError(
                    f"categorical weights must have positive finite "
                    f"mass, got total={total!r}")
            topic = int(cumulative.searchsorted(
                uniforms[position] * total, side="right"))
            if topic >= num_topics:
                # u * total rounded up to exactly total; land on the
                # last positive-weight topic.
                topic = last_positive_index(cumulative)
            assignments[position] = topic
            doc_counts[topic] += 1.0
        if iteration >= burn_in:
            accumulated += doc_counts
            samples += 1
    mean_counts = accumulated / max(samples, 1)
    return (mean_counts + alpha) / (length + num_topics * alpha)


def foldin_sparse(table: FoldInTable, word_ids: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Bucketed fold-in draws: static per-word prior mass + O(nnz)
    document bucket, with O(1) alias-table prior hits.

    The fold-in weight ``phi_w[t] * (nd[t] + alpha)`` splits into

        alpha * phi_w[t]      [prior bucket, mass precomputed]
        phi_w[t] * nd[t]      [document bucket, nonzero nd only]

    A document touches at most ``Nd`` distinct topics, so the common
    draw walks ``O(nnz)`` entries; prior-bucket hits (mass ``alpha``
    out of ``Nd + T * alpha``) resolve through the per-word Walker
    alias table in O(1) — the residual uniform that landed the draw
    in the bucket is recycled as the alias draw, so RNG consumption
    stays one uniform per token.  Like :func:`foldin_exact`, the call
    allocates its own accumulator row and :class:`TopicSet`.
    """
    length = int(word_ids.shape[0])
    num_topics = table.num_topics
    alpha = table.alpha
    iterations = table.iterations
    phi_by_word = table.phi_by_word
    prior_mass = table.prior_mass
    alias_accept = table.alias_accept
    alias_topic = table.alias_topic
    accumulated = np.zeros(num_topics)
    assignments = rng.integers(0, num_topics, size=length)
    doc_counts = np.bincount(assignments, minlength=num_topics) \
        .astype(np.float64)
    assignments = assignments.tolist()
    words = word_ids.tolist()
    doc_topics = TopicSet(doc_counts)
    burn_in = min(max(1, iterations // 2), iterations - 1)
    samples = 0
    inf = np.inf
    rng_random = rng.random
    for iteration in range(iterations):
        uniforms = rng_random(length).tolist()
        for position in range(length):
            old = assignments[position]
            doc_counts[old] -= 1.0
            if doc_counts[old] == 0.0:
                doc_topics.discard(old)
            word = words[position]
            phi_row = phi_by_word[word]
            members = doc_topics.array()
            r_weights = doc_counts.take(members) \
                * phi_row.take(members)
            r_mass = float(np.add.reduce(r_weights))
            s_mass = prior_mass[word]
            total = r_mass + s_mass
            if not (0.0 < total < inf):
                raise ValueError(
                    f"categorical weights must have positive finite "
                    f"mass, got total={total!r}")
            x = uniforms[position] * total
            if x < r_mass:
                cumulative = np.add.accumulate(r_weights)
                index = int(cumulative.searchsorted(x, side="right"))
                if index >= cumulative.shape[0]:
                    index = last_positive_index(cumulative)
                topic = int(members[index])
            else:
                # Prior bucket: proportional to phi_w over all
                # topics.  The leftover fraction of the uniform is
                # itself uniform on [0, 1); one alias lookup turns
                # it into the topic.  ``check=False`` skips the
                # all-zero poison test, which is unreachable here:
                # reaching this branch requires x >= r_mass with
                # total > 0, impossible when s_mass == 0 (the tables
                # were validated at build time by the fold-in
                # engine's phi checks).
                v = (x - r_mass) / s_mass
                topic = alias_draw(alias_accept[word],
                                   alias_topic[word], v, check=False)
            assignments[position] = topic
            if doc_counts[topic] == 0.0:
                doc_topics.add(topic)
            doc_counts[topic] += 1.0
        if iteration >= burn_in:
            accumulated += doc_counts
            samples += 1
    mean_counts = accumulated / max(samples, 1)
    return (mean_counts + alpha) / (length + num_topics * alpha)


# Lockstep fold-in: one numpy step advances a whole document group.
#
# Documents are independent given the frozen phi, so instead of one
# interpreted iteration per token, each step moves every document of a
# group one position forward (the data-parallel pass WarpLDA, Chen et
# al., VLDB 2016, runs over LDA sampling).  Each row replays its
# per-document lane's arithmetic in the same order, so the rows are
# bit-identical to :func:`foldin_exact` / :func:`foldin_sparse`.

def pairwise_row_sums(led: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``np.sum(led[r, 1:lengths[r] + 1])`` for every row, bit for bit.

    ``np.sum`` of a float row is not a left-to-right sum: numpy's
    pairwise kernel runs eight lane accumulators over the full blocks
    of eight, combines them as ``((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))``,
    adds the remaining entries in order, and splits rows longer than
    128 in two (at ``n // 2 - (n // 2) % 8``) before doing so.  A
    last-bit difference in the document-bucket mass almost never flips
    a draw, so only an exact replica keeps the lockstep sparse rule
    bit-identical.  This one hands every row to that same kernel in a
    single ``np.add.reduceat`` call: reduceat seeds each segment with
    its first entry and pairwise-reduces the rest, so the segment
    ``led[r, :lengths[r] + 1]`` yields ``0 + pairwise(row)`` — exactly
    what ``np.sum`` computes — when its first entry is the zero.

    ``led`` must be C-contiguous with ``led[:, 0] == 0`` and at least
    ``lengths.max() + 2`` columns.  What lies past each row's entries
    is ignored: it falls in the discarded segments between rows.
    """
    count, stride = led.shape
    bounds = np.empty(2 * count, dtype=np.int64)
    starts = np.arange(0, count * stride, stride)
    bounds[0::2] = starts
    bounds[1::2] = starts + lengths + 1
    return np.add.reduceat(led.reshape(-1), bounds)[0::2]


def foldin_lockstep(table: FoldInTable, documents: list,
                    rngs: list, sparse: bool) -> np.ndarray:
    """Fold in a group of non-empty documents together; returns their
    ``theta`` rows in ``documents`` order.

    Row ``i`` is bit-identical to the per-document lane
    (:func:`foldin_sparse` if ``sparse``, else :func:`foldin_exact`)
    run on ``documents[i]`` with ``rngs[i]``.  Each step advances every
    document by one position:

    * **RNG pre-draw.**  Each document's stream is drawn up front in the
      order its lane consumes it: ``integers(0, T, L)``, then
      ``random(iterations * L)`` — the same bits as ``iterations``
      calls of ``random(L)``.  Documents draw in ``documents`` order,
      so one generator repeated in ``rngs`` (the shared stream of
      ``FoldInEngine.theta``) is consumed exactly as the per-document
      loop consumes it.
    * **Longest first.**  Rows are sorted by length, longest first, so
      the documents still sampling at a position are a prefix of rows.
    * **Accumulation.**  After every sweep at or past burn-in each row's
      counts are added into its accumulator.

    The sparse rule needs ``table.phi_by_word`` as one array (not a
    lazy multi-shard view); the exact rule only needs its ``take``.
    """
    num_topics = table.num_topics
    iterations = table.iterations
    count = len(documents)
    lengths = np.array([doc.shape[0] for doc in documents], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    rank = np.empty(count, dtype=np.int64)
    rank[order] = np.arange(count)
    longest = int(lengths[order[0]])
    # Position-major layouts: one position of every row is contiguous.
    words = np.zeros((longest, count), dtype=np.int64)
    topics = np.zeros((longest, count), dtype=np.int64)
    uniforms = np.zeros((iterations, longest, count))
    for doc, rng, row in zip(documents, rngs, rank.tolist()):
        length = doc.shape[0]
        words[:length, row] = doc
        topics[:length, row] = rng.integers(0, num_topics, size=length)
        uniforms[:, :length, row] = rng.random(iterations * length) \
            .reshape(iterations, length)
    lengths = lengths[order]
    active = (lengths > np.arange(longest)[:, np.newaxis]).sum(axis=1) \
        .tolist()
    # One spare always-zero count column: the sparse rule pads its
    # member rows with it, so padded weights are exactly zero.
    width = num_topics + 1
    bases = np.arange(count) * width
    live = np.arange(longest)[:, np.newaxis] < lengths
    counts = np.bincount((bases + topics)[live], minlength=count * width) \
        .astype(np.float64).reshape(count, width)
    sweep = _LockstepSparse(table, counts) if sparse \
        else _LockstepExact(table, counts)
    burn_in = min(max(1, iterations // 2), iterations - 1)
    accumulated = np.zeros((count, num_topics))
    samples = 0
    for iteration in range(iterations):
        sweep.run(words, topics, uniforms[iteration], active, bases)
        if iteration >= burn_in:
            accumulated += counts[:, :num_topics]
            samples += 1
    mean_counts = accumulated / max(samples, 1)
    theta = (mean_counts + table.alpha) \
        / (lengths + num_topics * table.alpha)[:, np.newaxis]
    return theta[rank]


def _check_totals(total: np.ndarray) -> None:
    """The per-document lanes' ``0 < total < inf`` check, for a column
    of totals (NaN fails it too)."""
    if not (0.0 < total.min() and total.max() < np.inf):
        bad = np.flatnonzero(~((total > 0.0) & (total < np.inf)))[0]
        raise ValueError(
            f"categorical weights must have positive finite mass, got "
            f"total={total[bad]!r}")


class _LockstepExact:
    """The lockstep form of :func:`foldin_exact`: ``(k, T)`` weight and
    cumulative blocks, the topic picked with the count form
    ``(cum <= x).sum(1)`` of ``searchsorted(side="right")``."""

    __slots__ = ("table", "counts", "work", "cumulative")

    def __init__(self, table: FoldInTable, counts: np.ndarray) -> None:
        self.table = table
        self.counts = counts
        self.work = np.empty((counts.shape[0], table.num_topics))
        self.cumulative = np.empty_like(self.work)

    def run(self, words: np.ndarray, topics: np.ndarray,
            uniforms: np.ndarray, active: list, bases: np.ndarray) -> None:
        table = self.table
        num_topics = table.num_topics
        alpha = table.alpha
        phi_by_word = table.phi_by_word
        counts = self.counts
        flat_counts = counts.reshape(-1)
        for position, size in enumerate(active):
            slots = bases[:size] + topics[position, :size]
            flat_counts[slots] -= 1.0
            work = np.take(phi_by_word, words[position, :size], axis=0,
                           out=self.work[:size])
            cumulative = np.add(counts[:size, :num_topics], alpha,
                                out=self.cumulative[:size])
            np.multiply(work, cumulative, out=work)
            np.add.accumulate(work, axis=1, out=cumulative)
            total = cumulative[:, -1]
            _check_totals(total)
            x = uniforms[position, :size] * total
            topic = (cumulative <= x[:, np.newaxis]).sum(axis=1)
            if topic.max() >= num_topics:
                # u * total rounded up to exactly total; land on the
                # last positive-weight topic (last_positive_index).
                over = np.flatnonzero(topic >= num_topics)
                topic[over] = (cumulative[over]
                               < total[over, np.newaxis]).sum(axis=1)
            topics[position, :size] = topic
            flat_counts[bases[:size] + topic] += 1.0


class _LockstepSparse:
    """The lockstep form of :func:`foldin_sparse`.

    Each row keeps its nonzero topics the way :class:`TopicSet` does —
    ascending at the start, swap-remove on discard, append on add —
    because the member order fixes both the document-bucket mass and
    the cumulative walk.  Members are stored as flat indices into the
    count matrix (``row * (T + 1) + topic``), row ``r``'s in
    ``members[r, 1:1 + size]``; every other slot holds the row's spare
    zero count column, so those weights are exactly zero.  The zero in
    slot 0 leads each weight row into :func:`pairwise_row_sums`.
    ``slot_of`` maps a member's count index to its flat slot in
    ``members``; ``ends`` holds each row's flat end slot.
    """

    __slots__ = ("table", "counts", "phi_flat", "members", "slot_of",
                 "ends", "firsts")

    def __init__(self, table: FoldInTable, counts: np.ndarray) -> None:
        num_topics = table.num_topics
        count, width = counts.shape
        self.table = table
        self.counts = counts
        self.phi_flat = np.asarray(table.phi_by_word).reshape(-1)
        rows, held = np.nonzero(counts[:, :num_topics])
        sizes = np.bincount(rows, minlength=count)
        self.members = np.repeat(np.arange(count) * width + num_topics,
                                 num_topics + 2).reshape(count, -1)
        #: Flat slot of each row's first member.
        self.firsts = np.arange(count) * (num_topics + 2) + 1
        slots = self.firsts[rows] + np.arange(rows.shape[0]) \
            - (np.cumsum(sizes) - sizes)[rows]
        self.members.reshape(-1)[slots] = rows * width + held
        self.slot_of = np.zeros(counts.size, dtype=np.int64)
        self.slot_of[rows * width + held] = slots
        self.ends = self.firsts + sizes

    def run(self, words: np.ndarray, topics: np.ndarray,
            uniforms: np.ndarray, active: list, bases: np.ndarray) -> None:
        table = self.table
        num_topics = table.num_topics
        prior_mass = table.prior_mass
        alias_accept = table.alias_accept
        alias_topic = table.alias_topic
        phi_flat = self.phi_flat
        flat_counts = self.counts.reshape(-1)
        members = self.members
        flat_members = members.reshape(-1)
        slot_of = self.slot_of
        firsts = self.firsts
        ends = self.ends
        for position, size in enumerate(active):
            row_bases = bases[:size]
            old = topics[position, :size]
            slots = row_bases + old
            left = flat_counts[slots] - 1.0
            flat_counts[slots] = left
            emptied = (left == 0.0).nonzero()[0]
            if emptied.size:
                # TopicSet.discard: the last member fills the gap.
                gap = slot_of[slots[emptied]]
                last = ends[emptied] - 1
                moved = flat_members[last]
                flat_members[gap] = moved
                flat_members[last] = bases[emptied] + num_topics
                slot_of[moved] = gap
                ends[emptied] = last
            word = words[position, :size]
            lengths = ends[:size] - firsts[:size]
            held = np.ascontiguousarray(
                members[:size, :int(lengths.max()) + 2])
            # A padded slot's phi index may run one row on (clipped at
            # the end), harmless under its zero count.
            weights = flat_counts.take(held) * phi_flat.take(
                held + (word * num_topics - row_bases)[:, np.newaxis],
                mode="clip")
            r_mass = pairwise_row_sums(weights, lengths)
            s_mass = prior_mass.take(word)
            total = r_mass + s_mass
            _check_totals(total)
            x = uniforms[position, :size] * total
            in_doc = x < r_mass
            # The leading zero shifts the walk by one entry and adds
            # exactly, so the count form counts one extra.
            cumulative = np.add.accumulate(weights, axis=1)
            index = (cumulative <= x[:, np.newaxis]).sum(axis=1)
            over = ((index > lengths) & in_doc).nonzero()[0]
            if over.size:
                # u * total rounded past the walk's end: land on the
                # last positive-weight member (last_positive_index).
                walked = cumulative[over, lengths[over]]
                index[over] = (cumulative[over]
                               < walked[:, np.newaxis]).sum(axis=1)
            # Both buckets are drawn for every row and each row keeps
            # its own: a prior-bucket row's member index may point at
            # a padded slot (clipped at the end), and a document-bucket
            # row's leftover uniform is negative (floored at 0 so its
            # alias cell stays in range).
            from_doc = flat_members.take(firsts[:size] + index - 1,
                                         mode="clip") - row_bases
            leftover = (x - r_mass) / s_mass
            np.maximum(leftover, 0.0, out=leftover)
            topic = np.where(in_doc, from_doc, alias_draw_many(
                alias_accept, alias_topic, leftover, rows=word,
                check=False))
            slots = row_bases + topic
            before = flat_counts[slots]
            flat_counts[slots] = before + 1.0
            joined = (before == 0.0).nonzero()[0]
            if joined.size:
                # TopicSet.add: append.
                added = slots[joined]
                slot = ends[joined]
                flat_members[slot] = added
                slot_of[added] = slot
                ends[joined] = slot + 1
            topics[position, :size] = topic


# ----------------------------------------------------------------------
# The alias/MH lane: stale proposal components + MH correction.

def rebuild_alias_word(table: AliasMHTable, state, word: int) -> None:
    """Refresh ``word``'s stale sparse proposal component from the live
    counts.

    The support is the word's nonzero-count topics plus its
    article-correction topics (where the dense-minus-floor residue
    ``D - E1`` is nonzero); the stored values freeze the live word
    factor minus the dense component's target at this instant.
    O(support) with vectorized gathers — amortized over
    :attr:`~AliasMHTable.rebuild_every` draws of the word.

    The chunk loop only calls this with the current token already
    removed from the counts, so the frozen component never includes the
    topic being resampled (a prerequisite for the fixed-proposal MH
    test to be exact).
    """
    table.rebuilds[0] += 1
    nw_row = state.nw[word]
    support = np.flatnonzero(nw_row)
    lo = table.corr_ptr[word]
    hi = table.corr_ptr[word + 1]
    if hi > lo:
        support = np.union1d(support, table.corr_topics[lo:hi])
    d_vals = table.E_flat.take(table.flat[word].take(support))
    vals = (nw_row.take(support) * table.C.take(support)
            + d_vals - table.E1.take(support))
    # D - E1 can dip a hair below zero through float error on
    # off-article support topics (where it is exactly zero in real
    # arithmetic); proposal weights must stay non-negative.
    np.maximum(vals, 0.0, out=vals)
    cum = np.cumsum(vals)
    table.word_topics[word] = support.tolist()
    table.word_vals[word] = vals.tolist()
    table.word_cum[word] = cum.tolist()
    table.word_mass[word] = float(cum[-1]) if vals.shape[0] else 0.0
    table.draws_since[word] = 0


def rebuild_alias_dense(table: AliasMHTable) -> None:
    """Snapshot the shared dense proposal component (once per sweep).

    It freezes the epsilon floor ``E1``, which is strictly positive, so
    the mixture proposal covers every topic regardless of how stale the
    sparse components are — the MH support condition holds
    unconditionally.
    """
    vals = table.E1.copy()
    accept, alias_idx = build_alias_table(vals)
    table.dense_vals = vals.tolist()
    table.dense_mass = float(vals.sum())
    table.dense_accept = accept.tolist()
    table.dense_alias = alias_idx.tolist()


def run_alias_mh_chunk(state, table: AliasMHTable, words: list,
                       doc_ids: list, old_topics: list, uniforms: list,
                       out: list) -> None:
    """Chunk loop of the alias/MH lane (LightLDA-style cycled MH).

    Per token, two Metropolis-Hastings sub-steps against the exact live
    conditional ``pi = (nw * C + D) * (nd + alpha)``:

    1. **word proposal** from the stale mixture (per-word sparse
       component + shared dense component), accepted with
       ``u * pi(s) * q(t) < pi(t) * q(s)``;
    2. **doc proposal** from the document's token slice — minus the
       current token's slot — plus the uniform ``alpha`` arm (never
       stale), accepted with the analogous test against
       ``q_d(t) = nd_dec[t] + alpha``.

    Both proposals are kept independent of the topic being resampled:
    the stale word component is only ever rebuilt *after* the token's
    decrement, and the doc slice excludes the token's own slot.  A
    proposal that saw the current assignment would make ``q`` a
    function of the state, and the fixed-proposal acceptance test
    ``u * pi(s) * q(t) < pi(t) * q(s)`` would no longer leave the
    exact conditional invariant (the chi-squared pin in
    ``tests/test_alias_engine.py`` catches the resulting bias).

    The ``E`` column of each topic whose count changes is refreshed
    through the fast path's own ``topic_changed``.
    ``uniforms`` holds exactly ``4 * len(words)`` variates; coins are
    consumed even on self-proposals, and stale-table rebuilds draw no
    RNG, so the stream is pinned by token count alone.  The strict
    ``<`` in both tests rejects the ``0 < 0`` case, which keeps
    zero-probability states from being entered through float ties.
    Proposal/acceptance totals accumulate on ``table.mh_counts``.
    """
    nw = state.nw
    nt = state.nt
    nd = state.nd
    z = state.z
    alpha = table.alpha
    num_topics = table.num_topics
    alpha_times_t = alpha * num_topics
    rebuild_every = table.rebuild_every
    doc_starts = table.doc_starts
    doc_lengths = table.doc_lengths
    doc_z_full = table.doc_z
    append_out = out.append
    proposals = 0
    accepts = 0
    # Stale word-proposal components.
    word_topics = table.word_topics
    word_vals = table.word_vals
    word_cum = table.word_cum
    word_mass = table.word_mass
    draws_since = table.draws_since
    dense_vals = table.dense_vals
    dense_accept = table.dense_accept
    dense_alias = table.dense_alias
    dense_mass = table.dense_mass
    # Live lambda caches of the exact conditional.
    e_flat = table.E_flat
    c_per_topic = table.C
    flat = table.flat
    topic_changed = table.topic_changed
    current_doc = table.current_doc
    nd_row = table.nd_row
    doc_len = table.doc_len
    position = table.position
    doc_z = doc_z_full[:doc_len]
    cursor = 0
    try:
        for word, doc, s0 in zip(words, doc_ids, old_topics):
            u1 = uniforms[cursor]
            u2 = uniforms[cursor + 1]
            u3 = uniforms[cursor + 2]
            u4 = uniforms[cursor + 3]
            cursor += 4
            if doc != current_doc:
                doc_len = doc_lengths[doc]
                start_token = doc_starts[doc]
                nd_row = nd[doc]
                doc_z_full[:doc_len] = z[start_token:start_token
                                         + doc_len]
                position = 0
                current_doc = doc
                doc_z = doc_z_full[:doc_len]
            nw_row = nw[word]
            # Remove the token from the counts (the conditional both MH
            # tests target excludes the current token).
            nw_row[s0] -= 1.0
            nt[s0] -= 1.0
            nd_row[s0] -= 1.0
            topic_changed(s0)
            flat_row = flat[word]
            # Rebuild *after* the decrement: the frozen component must
            # never include the topic being resampled, or the proposal
            # depends on the current state and the fixed-proposal MH
            # test stops being exact (the chi-squared invariance pin
            # detects the resulting flattening bias).
            if draws_since[word] >= rebuild_every:
                rebuild_alias_word(table, state, word)
            draws_since[word] += 1
            s = s0
            # pi(s) carries across the two sub-steps; None means "not
            # computed yet" (self-proposals skip the evaluation).
            pi_s = None
            # ---------------------------------------- word sub-step
            wm = word_mass[word]
            x = u1 * (wm + dense_mass)
            if x < wm:
                cum = word_cum[word]
                i = bisect_right(cum, x)
                if i >= len(cum):  # float boundary
                    i = len(cum) - 1
                t = word_topics[word][i]
            else:
                v = (x - wm) / dense_mass
                scaled = v * num_topics
                cell = int(scaled)
                if cell >= num_topics:
                    cell = num_topics - 1
                t = (cell if scaled - cell < dense_accept[cell]
                     else dense_alias[cell])
            proposals += 1
            if t != s:
                pi_s = (nw_row[s] * c_per_topic[s]
                        + e_flat[flat_row[s]]) * (nd_row[s] + alpha)
                pi_t = (nw_row[t] * c_per_topic[t]
                        + e_flat[flat_row[t]]) * (nd_row[t] + alpha)
                topics = word_topics[word]
                vals = word_vals[word]
                i = bisect_left(topics, s)
                q_s = dense_vals[s] + (
                    vals[i] if i < len(topics) and topics[i] == s
                    else 0.0)
                i = bisect_left(topics, t)
                q_t = dense_vals[t] + (
                    vals[i] if i < len(topics) and topics[i] == t
                    else 0.0)
                if u2 * pi_s * q_t < pi_t * q_s:
                    s = t
                    pi_s = pi_t
                    accepts += 1
            else:
                accepts += 1
            # ----------------------------------------- doc sub-step
            # Proposal over the document's *other* tokens plus the
            # uniform alpha arm: q_d(t) = nd_dec[t] + alpha.  The
            # current token's slot is skipped so q_d, like the word
            # proposal, never depends on the topic being resampled
            # (LightLDA's self-inclusive slice is cheaper but makes
            # the proposal state-dependent, which the fixed-proposal
            # acceptance test does not correct for).
            others = doc_len - 1
            x = u3 * (others + alpha_times_t)
            if x < others:
                j = int(x)
                if j >= others:  # float boundary
                    j = others - 1
                if j >= position:
                    j += 1
                t = int(doc_z[j])
            else:
                t = int((x - others) / alpha)
                if t >= num_topics:  # float boundary
                    t = num_topics - 1
            proposals += 1
            if t != s:
                if pi_s is None:
                    pi_s = (nw_row[s] * c_per_topic[s]
                            + e_flat[flat_row[s]]) * (nd_row[s] + alpha)
                pi_t = (nw_row[t] * c_per_topic[t]
                        + e_flat[flat_row[t]]) * (nd_row[t] + alpha)
                # histogram(doc_z minus the skipped slot) == nd_dec:
                # slots before ``position`` hold this sweep's updated
                # topics and nd is updated token by token.
                qd_s = nd_row[s] + alpha
                qd_t = nd_row[t] + alpha
                if u4 * pi_s * qd_t < pi_t * qd_s:
                    s = t
                    accepts += 1
            else:
                accepts += 1
            # Put the token back under its (possibly new) topic.
            nw_row[s] += 1.0
            nt[s] += 1.0
            nd_row[s] += 1.0
            topic_changed(s)
            doc_z[position] = s
            position += 1
            append_out(s)
    finally:
        table.current_doc = current_doc
        table.position = position
        table.doc_len = doc_len
        table.nd_row = nd_row
        table.mh_counts[0] += proposals
        table.mh_counts[1] += accepts
