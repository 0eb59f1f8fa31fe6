"""The Source-LDA Gibbs kernel (Equations 2, 3 and 4).

One kernel covers the whole model family.  Topics are laid out as ``K``
unlabeled topics followed by ``S`` source topics:

* unlabeled topics use the symmetric-``beta`` term of Equation 2;
* source topics use the lambda-integrated term of Equation 3, approximated
  on a :class:`~repro.sampling.integration.LambdaGrid` — a single-node grid
  degenerates to the fixed-delta bijective/mixture models of
  Sections III.A/B.

``phi`` follows Equation 4, and the complete-data log-likelihood marginalizes
each source topic's lambda over the grid with log-sum-exp (topics draw
independent lambdas in the generative process, so the marginal factorizes
over topics).

Fast-path algebra
-----------------
The per-token integrated source weight of Equation 3,

    w_t  =  sum_a omega_a * (nw[w,t] + delta[t,w,a]) / (nt[t] + sd[t,a]),

(``sd = sum_delta``) costs ``O(S * A)`` per token when evaluated directly.
It decomposes into ``w_t = nw[w,t] * C[t] + D[w,t]`` with

    C[t]    = sum_a omega_a / (nt[t] + sd[t,a])
    D[w,t]  = sum_a omega_a * delta[t,w,a] / (nt[t] + sd[t,a]),

both pure functions of ``nt[t]`` — and a Gibbs step changes ``nt`` for at
most two topics.  Because ``delta[t,w,a]`` takes values from the tiny
``(U, S, A)`` unique-value table of :class:`GridDeltaTables`, ``D`` is
representable as ``E[u, t]`` with ``u = inverse[t, w]``: refreshing one
topic's column after its ``nt`` changes costs ``O(U * A)``, and the
per-token evaluation is an ``O(S)`` gather plus multiply-add.

Most entries of ``inverse`` are 0 (the epsilon floor: words absent from
the topic's article), so every dense table indexed through it — the
fast path's per-word gather indices, the source block of ``phi`` — is
built as a fill of the floor entry plus a scatter of the few
above-floor entries :attr:`GridDeltaTables.above_floor` lists, and the
alias lane's per-word correction lists are those entries as they stand.

Since a topic's column is a pure function of ``(t, nt[t])`` and each
touch moves ``nt[t]`` by one, a topic keeps revisiting the same few
counts.  The refresh therefore memoizes the columns of the last
:data:`RING` counts per topic: a revisited count costs one row copy
instead of the ``O(U * A)`` integral, with the stored bits the integral
produced, so the memo never moves a draw.
:class:`SourceTopicsFastPath` implements exactly this for the fast sweep
engine (:mod:`repro.sampling.fast_engine`) and the alias engine's MH
tests.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, logsumexp

from repro.core.priors import (GridDeltaTables, SourcePrior,
                               informed_word_topic_probs)
from repro.models.base import GibbsChain
from repro.sampling.alias_engine import DEFAULT_REBUILD_EVERY
from repro.sampling.fast_engine import FastKernelPath
from repro.sampling.gibbs import (TopicWeightKernel,
                                  symmetric_dirichlet_log_likelihood)
from repro.sampling.integration import LambdaGrid
from repro.sampling.runtime import AliasMHTable, rebuild_alias_dense
from repro.sampling.state import GibbsState
from repro.text.corpus import Corpus

#: Counts per source topic whose lambda-integral columns
#: :class:`SourceTopicsFastPath` memoizes.
RING = 16


class SourceTopicsKernel(TopicWeightKernel):
    """Collapsed-Gibbs weights for ``K`` free + ``S`` source topics.

    Parameters
    ----------
    state:
        Gibbs state with ``K + S`` topics.
    num_free:
        ``K``, the number of unlabeled topics (may be 0 — the bijective
        layout).
    alpha, beta:
        Document-topic prior and the free topics' symmetric word prior.
    tables:
        Powered-delta lookup tables for the source topics (already
        incorporating the smoothing function ``g``).
    grid:
        Quadrature nodes/weights of the lambda prior.
    """

    def __init__(self, state: GibbsState, num_free: int, alpha: float,
                 beta: float, tables: GridDeltaTables,
                 grid: LambdaGrid) -> None:
        super().__init__(state)
        if alpha <= 0 or beta <= 0:
            raise ValueError(
                f"alpha and beta must be positive, got {alpha}, {beta}")
        num_source = state.num_topics - num_free
        if num_free < 0 or num_source < 1:
            raise ValueError(
                f"invalid split: {num_free} free of {state.num_topics} "
                f"total topics")
        if tables.num_topics != num_source:
            raise ValueError(
                f"tables cover {tables.num_topics} source topics, state "
                f"expects {num_source}")
        if tables.num_nodes != len(grid):
            raise ValueError(
                f"tables were built for {tables.num_nodes} nodes, grid has "
                f"{len(grid)}")
        self.alpha = alpha
        self.beta = beta
        self.num_free = num_free
        self.num_source = num_source
        self.tables = tables
        self.grid = grid
        self._beta_sum = beta * state.vocab_size
        self._omega = grid.weights

    def weights(self, word: int, doc: int) -> np.ndarray:
        state = self.state
        k = self.num_free
        out = np.empty(state.num_topics, dtype=np.float64)
        if k:
            out[:k] = ((state.nw[word, :k] + self.beta)
                       / (state.nt[:k] + self._beta_sum))
        delta_word = self.tables.delta_for_word(word)          # (S, A)
        numerator = state.nw[word, k:, np.newaxis] + delta_word
        denominator = state.nt[k:, np.newaxis] + self.tables.sum_delta
        out[k:] = (numerator / denominator) @ self._omega
        out *= state.nd[doc] + self.alpha
        return out

    def phi(self) -> np.ndarray:
        """Equation 4: symmetric rows for free topics, integrated rows for
        source topics.

        The source block uses the ``nw * C + D`` decomposition of the
        module docstring: the lambda integral is evaluated once per
        *unique* hyperparameter value (``O(U * S * A)``), the dense
        ``D`` block is each topic's floor value filled across its row
        plus a scatter of the above-floor entries, and the
        count-dependent ``nw * C`` part is scatter-added over the
        nonzero word-topic counts, read off the tokens' ``(word, z)``
        pairs — ``O(U * S * A + S * V + N)`` instead of the dense
        ``O(V * S * A)`` walk.
        """
        state = self.state
        k = self.num_free
        tables = self.tables
        phi = np.empty((state.num_topics, state.vocab_size))
        if k:
            phi[:k] = ((state.nw[:, :k] + self.beta)
                       / (state.nt[:k] + self._beta_sum)).T
        # ratio[t, a] = omega_a / (nt[t] + sum_delta[t, a])
        ratio = self._omega / (state.nt[k:, np.newaxis] + tables.sum_delta)
        # integrated[u, t] = sum_a unique_u^exp[t,a] * ratio[t, a]
        integrated = np.einsum("uta,ta->ut", tables.power_table, ratio)
        phi[k:] = integrated[0][:, np.newaxis]
        words, topics, ranks = tables.above_floor
        phi[k + topics, words] = integrated[ranks, topics]
        # The nonzero source word-topic counts are the distinct (word, z)
        # keys of the tokens assigned to source topics.
        source = state.z >= k
        keys = np.unique(state.words[source] * state.num_topics
                         + state.z[source])
        word_idx, topic_idx = np.divmod(keys, state.num_topics)
        if word_idx.size:
            c_per_topic = ratio.sum(axis=1)                    # C[t]
            phi[topic_idx, word_idx] += (
                state.nw[word_idx, topic_idx] * c_per_topic[topic_idx - k])
        return phi

    def log_likelihood(self) -> float:
        state = self.state
        k = self.num_free
        total = 0.0
        if k:
            total += symmetric_dirichlet_log_likelihood(
                state.nw[:, :k], state.nt[:k], self.beta)
        total += self._source_log_likelihood()
        return float(total)

    def _source_log_likelihood(self, chunk: int = 65536) -> float:
        """Per source topic: ``logsumexp_a [log w_a + log P(w | z, d_ta)]``.

        ``log P(w | z, delta)`` is the Dirichlet-multinomial closed form

            gammaln(sd) - gammaln(nt + sd)
            + sum_w [gammaln(nw + delta) - gammaln(delta)],

        where the per-word bracket vanishes for every word with a zero
        count — so only the nonzero entries of the ``(S, V)`` count
        matrix contribute.  This pass gathers those entries once (their
        ``gammaln(delta)`` comes from the cached unique-value table) and
        scatter-adds the brackets per topic: ``O(nnz * A)`` gammaln calls
        instead of the ``O(S * A * V)`` of a dense per-node evaluation.
        ``chunk`` bounds the temporary ``(chunk, A)`` gather buffers.
        """
        state = self.state
        k = self.num_free
        tables = self.tables
        counts = state.nw[:, k:].T                              # (S, V)
        topic_idx, word_idx = np.nonzero(counts)
        bracket = np.zeros((self.num_source, tables.num_nodes))
        for start in range(0, topic_idx.shape[0], chunk):
            topics = topic_idx[start:start + chunk]
            words = word_idx[start:start + chunk]
            delta = tables.delta_for_pairs(topics, words)       # (n, A)
            contrib = (gammaln(counts[topics, words][:, np.newaxis]
                               + delta)
                       - tables.log_gamma_for_pairs(topics, words))
            np.add.at(bracket, topics, contrib)
        log_node = (gammaln(tables.sum_delta) + bracket
                    - gammaln(state.nt[k:, np.newaxis]
                              + tables.sum_delta))
        log_weights = np.log(self.grid.weights)
        return float(logsumexp(log_node + log_weights[np.newaxis, :],
                               axis=1).sum())

    def fast_path(self) -> "SourceTopicsFastPath":
        return SourceTopicsFastPath(self)

    def alias_path(self) -> "SourceTopicsAliasPath | None":
        # The alias lane covers the bijective configuration (all-source
        # layouts with non-negative quadrature exponents); mixed layouts
        # and negative exponents return None and fall back to the dense
        # lane.
        if self.num_free != 0 or not bool(
                np.all(self.tables.exponents >= 0)):
            return None
        return SourceTopicsAliasPath(self)


def source_topics_chain(corpus: Corpus, prior: SourcePrior,
                        grid: LambdaGrid, exponents: np.ndarray,
                        num_free: int, alpha: float, beta: float,
                        init: str, rng: np.random.Generator,
                        metadata: dict[str, object]) -> GibbsChain:
    """The chain every Source-LDA variant samples.

    ``num_free`` unlabeled topics followed by the prior's source topics,
    whose powered-delta tables take ``exponents`` at the ``grid`` nodes;
    the state is seeded from the source distributions
    (``init="informed"``) or uniformly (``"random"``).  The chain keeps
    the tables and labels but not ``prior``, so a caller that drops its
    own reference frees the dense ``(S, V)`` prior before the first
    sweep.
    """
    tables = prior.grid_tables(np.asarray(exponents))
    state = GibbsState(corpus, num_free + prior.num_topics)
    if init == "informed":
        state.initialize_informed(
            informed_word_topic_probs(prior, num_free), rng)
    else:
        state.initialize_random(rng)
    kernel = SourceTopicsKernel(state, num_free=num_free, alpha=alpha,
                                beta=beta, tables=tables, grid=grid)
    return GibbsChain(state, kernel, (None,) * num_free + prior.labels,
                      metadata)


class SourceTopicsFastPath(FastKernelPath):
    """Incremental ``nw * C + D`` evaluation of Equation 3.

    See the module docstring for the algebra.  ``C`` and ``E`` are fused
    into one cache by prepending a *unit row* to the powered-value
    table: ``1 ** exp = 1``, so integrating the augmented table against
    ``omega / (nt + sd)`` yields ``C[t]`` in entry 0 and ``E[u, t]`` in
    the remaining entries of topic ``t``'s column with a single matrix
    product.  Caches:

    ``_rows``
        ``(S, U + 1)`` topic-major — row ``t`` is topic ``t``'s column:
        entry 0 is ``C[t]``, entry ``u + 1`` is ``E[u, t]``;
        ``D[w, t] = E[inverse[t, w] + 1, t]``.  ``_E`` is its
        ``(U + 1, S)`` transpose view and ``_C`` its first column.
    ``_flat``
        ``(V, S)`` — per-word flattened gather indices into ``_rows`` so
        a token's ``D`` row is a single ``take``.
    ``_memo``
        ``(S * RING, U + 1)`` — the columns of recently held counts,
        topic ``t`` with count ``n`` in slot ``t * RING + n % RING``,
        tagged with ``n`` in ``_memo_count``.  Allocated with
        ``np.empty``, so only touched slots become resident; the bound
        is ``S * RING * (U + 1) * 8`` bytes.
    ``_row_views``
        A list of ``_rows``' per-topic row views, built once: copying a
        column in as ``_row_views[t][...] = column`` skips the 2-d
        index that ``_rows[t] = column`` pays on every call.
    ``_nt_free``
        ``(K,)`` — the free topics' ``nt + V * beta`` denominators.
    ``_out`` (with its views ``_out_free``/``_out_source``),
    ``_free_buf``, ``_dbuf``
        The weight vector :meth:`weights` returns and its scratch, all
        preallocated, so a call writes through ``np.add``/``np.divide``/
        ``np.multiply(..., out=...)`` and allocates no temporary.

    Only the entries keyed on a changed ``nt[topic]`` are refreshed per
    token: ``O(1)`` for a free topic, and for a source topic one row
    copy on a memo hit or the ``O(U * A)`` integral on a miss.
    ``lambda_column_misses`` counts the misses.  The per-token methods
    call ufuncs directly and bind ``nt.item`` once, because at these
    sizes NumPy's Python-level dispatch, not the arithmetic, is most of
    their cost (see :mod:`repro.sampling.runtime`).
    """

    def __init__(self, kernel: SourceTopicsKernel) -> None:
        super().__init__(kernel.state)
        self.alpha = kernel.alpha
        self.beta = kernel.beta
        self.num_free = kernel.num_free
        self._beta_sum = kernel._beta_sum
        self._omega = kernel._omega                       # (A,)
        tables = kernel.tables
        self._sum_delta = tables.sum_delta                # (S, A)
        num_source = kernel.num_source
        num_unique = tables.power_table.shape[0]
        # (S, U + 1, A): per-topic contiguous augmented tables, unit row
        # first so one ``aug[t] @ ratio`` refreshes C and E together.
        aug = np.empty((num_source, num_unique + 1, tables.num_nodes))
        aug[:, 0, :] = 1.0
        aug[:, 1:, :] = tables.power_table.transpose(1, 0, 2)
        self._aug = aug
        # (V, S) flattened gather indices into the rows: D[w, s] sits at
        # entry inverse[s, w] + 1 (past the unit entry) of row s, so a
        # word's D row is one 1-d take.  Each row starts at the floor
        # entries (rank 0); the above-floor ranks are added in.
        self._flat = np.empty((kernel.state.vocab_size, num_source),
                              dtype=np.int64)
        self._flat[:] = 1 + (num_unique + 1) * np.arange(num_source,
                                                         dtype=np.int64)
        words, topics, ranks = tables.above_floor
        self._flat[words, topics] += ranks
        self._rows = np.empty((num_source, num_unique + 1))
        self._E = self._rows.T
        self._E_flat = self._rows.reshape(-1)
        self._C = self._E[0]
        self._memo = np.empty((num_source * RING, num_unique + 1))
        self._memo_count = [-1.0] * (num_source * RING)
        self.lambda_column_misses = 0
        self._row_views = list(self._rows)
        self._nt_item = kernel.state.nt.item
        self._nt_free = np.empty(self.num_free)
        self._free_buf = np.empty(self.num_free)
        self._dbuf = np.empty(num_source)
        self._out = np.empty(kernel.state.num_topics)
        self._out_free = self._out[:self.num_free]
        self._out_source = self._out[self.num_free:]
        self._ratio_buf = np.empty(tables.num_nodes)

    def begin_sweep(self) -> None:
        state = self.state
        k = self.num_free
        np.add(state.nt[:k], self._beta_sum, out=self._nt_free)
        # Refresh every column through topic_changed rather than one
        # batched einsum: the per-column matmul and a batched contraction
        # are not guaranteed to round identically, and a cache entry must
        # not depend on which refresh path last wrote it (a sweep
        # boundary would otherwise perturb weights with no count change).
        for topic in range(k, state.num_topics):
            self.topic_changed(topic)

    def topic_changed(self, topic: int) -> None:
        k = self.num_free
        count = self._nt_item(topic)
        if topic < k:
            self._nt_free[topic] = count + self._beta_sum
            return
        t = topic - k
        slot = t * RING + int(count) % RING
        column = self._memo[slot]
        if self._memo_count[slot] != count:
            # Buffered form of ``aug[t] @ (omega / (nt + sd[t]))`` — same
            # operations and operand order on every miss, so a memoized
            # column holds the bits a recomputation would.
            ratio = self._ratio_buf
            np.add(count, self._sum_delta[t], out=ratio)
            np.divide(self._omega, ratio, out=ratio)
            np.matmul(self._aug[t], ratio, out=column)
            self._memo_count[slot] = count
            self.lambda_column_misses += 1
        self._row_views[t][...] = column

    def weights(self, word: int, doc_row: np.ndarray) -> np.ndarray:
        k = self.num_free
        out = self._out
        dbuf = self._dbuf
        nw_row = self.state.nw[word]
        self._E_flat.take(self._flat[word], out=dbuf)
        if k:
            free = self._free_buf
            np.add(nw_row[:k], self.beta, out=free)
            np.divide(free, self._nt_free, out=self._out_free)
            source = self._out_source
            np.multiply(nw_row[k:], self._C, out=source)
            np.add(source, dbuf, out=source)
        else:
            np.multiply(nw_row, self._C, out=out)
            np.add(out, dbuf, out=out)
        np.multiply(out, doc_row, out=out)
        return out


class SourceTopicsAliasPath:
    """Alias/MH Source-LDA draws over the lambda-integration caches.

    The alias engine's only path (:mod:`repro.sampling.alias_engine`):
    bijective layouts (``K == 0`` with non-negative quadrature
    exponents — the paper-scale configuration; other layouts, and every
    other kernel, fall back to the dense lane).  Every word absent
    from topic ``t``'s article shares the epsilon-floor hyperparameter,
    so
    ``D[w, t] = E1[t] + corr[w, t]`` with ``E1 = E[1]`` (the floor row
    of the fast path's cache) and ``corr`` nonzero only inside article
    vocabularies; non-negative exponents keep the powered values
    ordered like the raw ones, hence every correction non-negative.
    The word-dependent factor ``nw * C + D`` splits into the stale
    mixture::

        nw * C + (D - E1)   [per-word sparse component over the nonzero
                             nw[w] topics plus the word's article-
                             correction topics, frozen at its own
                             rebuild; D - E1 is exactly zero off the
                             corrections]
      + E1                  [shared dense component: the epsilon-floor
                             prior, frozen per sweep into one Walker
                             alias table]

    The MH tests evaluate the exact live conditional through the same
    ``E`` cache the fast path maintains (the lane calls the fast path's
    ``topic_changed`` on both count changes of every token), so
    acceptance is computed against current counts no matter how stale
    the proposal is.  Unlike the fast lane's
    O(S) cumulative walk, the per-token cost here is O(1) in both the
    source count ``S`` and the article vocabularies — the engine whose
    advantage *grows* without bound along the Fig. 8f topic axis.

    The path owns the :class:`~repro.sampling.runtime.AliasMHTable` the
    runtime lane (:func:`~repro.sampling.runtime.sweep_alias`) drives
    the sweep off; its own job is construction and the per-sweep
    refresh.  ``rebuild_every`` is installed by the sampler before the
    first sweep.
    """

    rebuild_every: int = DEFAULT_REBUILD_EVERY

    def __init__(self, kernel: SourceTopicsKernel) -> None:
        self.state = kernel.state
        self.alpha = kernel.alpha
        # The fast-path E/C caches the MH tests read.
        self._fast = SourceTopicsFastPath(kernel)
        # CSR (by word) of the correction entries — the (t, w) pairs
        # whose hyperparameter sits above the epsilon floor — which the
        # rebuilds union into the sparse-component support.  The
        # tables list them sorted by word, then topic.
        words, topics, _ = kernel.tables.above_floor
        self._corr_ptr = np.searchsorted(
            words, np.arange(kernel.state.vocab_size + 1)).tolist()
        self._corr_topics = topics
        self._table: AliasMHTable | None = None

    def alias_table(self) -> AliasMHTable:
        """The table driving the runtime's alias/MH chunk loop.

        Built lazily on first call (so :attr:`rebuild_every` is already
        installed) and cached; its lambda-cache fields are the fast
        path's live arrays, not copies.
        """
        if self._table is None:
            state = self.state
            fast = self._fast
            vocab_size = state.vocab_size
            lengths = state.doc_lengths.astype(np.int64)
            max_len = int(lengths.max()) if lengths.shape[0] else 0
            self._table = AliasMHTable(
                alpha=self.alpha,
                num_topics=state.num_topics,
                rebuild_every=self.rebuild_every,
                mh_counts=np.zeros(2, dtype=np.int64),
                doc_starts=np.concatenate(
                    ([0], np.cumsum(lengths))).tolist(),
                doc_lengths=lengths.tolist(),
                doc_z=np.empty(max(max_len, 1), dtype=np.int64),
                word_topics=[None] * vocab_size,
                word_vals=[None] * vocab_size,
                word_cum=[None] * vocab_size,
                word_mass=[0.0] * vocab_size,
                # Start saturated so every word builds its sparse
                # component on first touch.
                draws_since=[self.rebuild_every] * vocab_size,
                E_flat=fast._E_flat, E1=fast._E[1], C=fast._C,
                flat=fast._flat, topic_changed=fast.topic_changed,
                corr_ptr=self._corr_ptr,
                corr_topics=self._corr_topics)
        return self._table

    @property
    def lambda_column_misses(self) -> int:
        """Memo misses of the shared lambda caches (see
        :class:`SourceTopicsFastPath`)."""
        return self._fast.lambda_column_misses

    def begin_sweep(self) -> None:
        """Refresh the per-sweep state from the live counts: the shared
        ``E`` cache, the dense proposal component and the document
        cursor — but not the per-word stale components, which persist
        across sweeps on their own cadence."""
        # Refresh the shared E cache *before* snapshotting the dense
        # proposal component off its E1 row.
        self._fast.begin_sweep()
        table = self.alias_table()
        rebuild_alias_dense(table)
        table.current_doc = -1
