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
:class:`SourceTopicsFastPath` implements exactly this for the fast sweep
engine (:mod:`repro.sampling.fast_engine`).
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, logsumexp

from repro.core.priors import GridDeltaTables
from repro.sampling.alias_engine import AliasKernelPath
from repro.sampling.fast_engine import FastKernelPath
from repro.sampling.gibbs import (TopicWeightKernel,
                                  symmetric_dirichlet_log_likelihood)
from repro.sampling.integration import LambdaGrid
from repro.sampling.runtime import (BLOCK_SHIFT, BLOCK_SIZE, AliasMHTable,
                                    SourceBijectiveTable, TopicSet,
                                    WordTopicLists, rebuild_alias_dense,
                                    run_source_bijective_chunk)
from repro.sampling.scans import last_positive_index
from repro.sampling.sparse_engine import SparseKernelPath
from repro.sampling.state import GibbsState


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
        ``D`` block is a gather through the inverse table, and the
        count-dependent ``nw * C`` part is scatter-added over the
        nonzero word-topic counts — ``O(U * S * A + S * V + nnz)``
        instead of the dense ``O(V * S * A)`` walk.
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
        phi[k:] = integrated[tables.inverse,
                             np.arange(self.num_source)[:, np.newaxis]]
        counts = state.nw[:, k:]
        word_idx, topic_idx = np.nonzero(counts)
        if word_idx.size:
            c_per_topic = ratio.sum(axis=1)                    # C[t]
            phi[k + topic_idx, word_idx] += (counts[word_idx, topic_idx]
                                             * c_per_topic[topic_idx])
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

    def sparse_path(self) -> "SourceTopicsSparsePath":
        return SourceTopicsSparsePath(self)

    def alias_path(self) -> "SourceTopicsAliasPath | None":
        # The alias lane covers the bijective configuration (all-source
        # layouts with non-negative quadrature exponents — what the
        # sparse engine's table lane covers); mixed layouts return None
        # and fall back to the sparse engine.
        if self.num_free != 0 or not bool(
                np.all(self.tables.exponents >= 0)):
            return None
        return SourceTopicsAliasPath(self)


class SourceTopicsFastPath(FastKernelPath):
    """Incremental ``nw * C + D`` evaluation of Equation 3.

    See the module docstring for the algebra.  ``C`` and ``E`` are fused
    into one cache by prepending a *unit row* to the powered-value
    table: ``1 ** exp = 1``, so integrating the augmented table against
    ``omega / (nt + sd)`` yields ``C[t]`` in row 0 and ``E[u, t]`` in the
    remaining rows with a single matrix product.  Caches:

    ``_E``
        ``(U + 1, S)`` C-contiguous — row 0 is ``C``, row ``u + 1`` is
        ``E`` for unique value ``u``; ``D[w, t] = E[inverse[t, w] + 1, t]``.
    ``_flat``
        ``(V, S)`` — per-word flattened gather indices into ``_E`` so a
        token's ``D`` row is a single ``take``.
    ``_nt_free``
        ``(K,)`` — the free topics' ``nt + V * beta`` denominators.

    Only the entries keyed on a changed ``nt[topic]`` are refreshed per
    token (``O(U * A)`` for a source topic, ``O(1)`` for a free topic).
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
        inverse = tables.inverse                          # (S, V)
        # (V, S) flattened gather indices into E: D[w, s] sits in the
        # unique-value row inverse[s, w] + 1 (past the unit row) of
        # column s, so a word's D row is one 1-d take.
        self._flat = np.ascontiguousarray(
            (inverse.T.astype(np.int64) + 1) * num_source
            + np.arange(num_source, dtype=np.int64)[np.newaxis, :])
        self._E = np.empty((num_unique + 1, num_source))
        self._E_flat = self._E.reshape(-1)
        self._C = self._E[0]
        self._nt_free = np.empty(self.num_free)
        self._dbuf = np.empty(num_source)
        self._out = np.empty(kernel.state.num_topics)
        self._ratio_buf = np.empty(tables.num_nodes)
        self._column_buf = np.empty(num_unique + 1)

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
        if topic < k:
            self._nt_free[topic] = self.state.nt[topic] + self._beta_sum
            return
        t = topic - k
        # Buffered form of ``E[:, t] = aug[t] @ (omega / (nt + sd[t]))``
        # — same operations and operand order (bit-identical results),
        # without the two temporary allocations.
        ratio = self._ratio_buf
        np.add(self.state.nt[topic], self._sum_delta[t], out=ratio)
        np.divide(self._omega, ratio, out=ratio)
        np.matmul(self._aug[t], ratio, out=self._column_buf)
        self._E[:, t] = self._column_buf

    def weights(self, word: int, doc_row: np.ndarray) -> np.ndarray:
        state = self.state
        k = self.num_free
        out = self._out
        self._E_flat.take(self._flat[word], out=self._dbuf)
        if k:
            np.divide(state.nw[word, :k] + self.beta, self._nt_free,
                      out=out[:k])
            np.multiply(state.nw[word, k:], self._C, out=out[k:])
            out[k:] += self._dbuf
        else:
            np.multiply(state.nw[word], self._C, out=out)
            out += self._dbuf
        out *= doc_row
        return out


class SourceTopicsSparsePath(SparseKernelPath):
    """Bucketed Source-LDA draws folding the lambda caches into buckets.

    The integrated weight ``(nw * C + D) * (nd + alpha)`` of the fast
    path (PR 1's ``nw * C + D`` lambda-integration decomposition) splits
    into three non-negative buckets per source topic::

        q   nw * C * (nd + alpha)     word bucket: nonzero nw[w] topics
        r   D * nd                    document bucket: nonzero nd[d]
        s   alpha * D                 prior bucket: all source topics

    plus the LDA-style ``s + r + q`` of
    :class:`~repro.models.lda.LdaSparsePath` for the ``K`` free topics.

    Two lanes implement the partition:

    * **bijective lane** (``K == 0`` with non-negative quadrature
      exponents — the paper-scale configuration).  The document bucket
      is walked over the document's *token slice* (one entry of weight
      ``D[z_j]`` per other token ``j`` of the document — an exact
      reweighting of ``D * nd`` over the nonzero topics that needs no
      membership bookkeeping, just one position write per step).  The
      prior bucket uses the unique-value structure: every word absent
      from topic ``t``'s article shares the epsilon-floor
      hyperparameter, so ``D[w, t] = E1[t] + corr[w, t]`` with ``corr``
      nonzero only inside article vocabularies.  The floor mass
      ``alpha * sum E1`` is one contiguous vector sum, the correction
      mass an O(|articles containing w|) gather, and the rare floor
      walk the only O(S) scan left in a draw.  Non-negative exponents
      keep the powered values ordered like the raw ones, hence every
      correction non-negative.  The whole lane is *data*: the bucket
      arrays compile into a
      :class:`~repro.sampling.runtime.SourceBijectiveTable` and the
      chunk loop itself runs in the sampling runtime
      (:func:`~repro.sampling.runtime.run_source_bijective_chunk`).
    * **general lane** (mixed free/source layouts).  Nonzero topic sets
      are tracked explicitly.  With non-negative exponents the prior
      bucket takes the same epsilon-floor/correction split as the
      bijective lane (the floor mass is one contiguous sum, the rare
      floor draw a two-level block walk), so no token reads the full
      ``D`` row; with negative exponents — where corrections are not
      sign-definite — it falls back to one O(S) gather of the ``D``
      row out of the shared ``E`` cache.

    Bucket masses are recomputed from the live caches on every token,
    so the partition carries no incremental drift at all.
    """

    def __init__(self, kernel: SourceTopicsKernel) -> None:
        super().__init__(kernel.state)
        self.alpha = kernel.alpha
        self.beta = kernel.beta
        self.num_free = kernel.num_free
        self._beta_sum = kernel._beta_sum
        self._ab = kernel.alpha * kernel.beta
        self._fast = SourceTopicsFastPath(kernel)
        num_source = kernel.num_source
        num_topics = kernel.state.num_topics
        self._num_source = num_source
        k = self.num_free
        # Non-negative exponents keep powered values ordered like the
        # raw ones, so every floor correction is non-negative and the
        # epsilon-floor/correction prior split is valid — on both lanes.
        self._has_floor = bool(np.all(kernel.tables.exponents >= 0))
        self._bijective = (k == 0 and self._has_floor)
        self._doc_free = TopicSet(0, k)
        self._doc_src = TopicSet(k, num_topics)
        self._inv_free = np.empty(k)
        self._words: WordTopicLists | None = None
        self._word_lists: list[list[int]] | None = None
        self._nd_row: np.ndarray | None = None
        self._E1 = self._fast._E[1]                        # (S,) view
        # Reusable per-token gather buffers (sized to the worst case).
        self._rel_buf = np.empty(num_source, dtype=np.int64)
        self._flatidx_buf = np.empty(num_source, dtype=np.int64)
        self._d_row = np.empty(num_source)
        self._nd_buf = np.empty(num_source)
        self._d_buf = np.empty(num_source)
        self._table: SourceBijectiveTable | None = None
        if self._has_floor:
            # CSR (by word) of the correction entries: (t, w) pairs whose
            # hyperparameter sits above the epsilon floor.
            inverse = kernel.tables.inverse                # (S, V)
            topic_idx, word_idx = np.nonzero(inverse)
            order = np.argsort(word_idx, kind="stable")
            self._corr_ptr = np.searchsorted(
                word_idx[order],
                np.arange(kernel.state.vocab_size + 1)).tolist()
            topics = topic_idx[order].astype(np.int64)
            self._corr_topics = topics                     # source-relative
            self._corr_flat = ((inverse[topic_idx, word_idx][order]
                                .astype(np.int64) + 1) * num_source
                               + topics)
            max_corr = (int(np.diff(self._corr_ptr).max())
                        if topics.size else 1)
            self._corr_buf = np.empty(max(max_corr, 1))
            self._corr_cum_buf = np.empty_like(self._corr_buf)
            # Two-level floor walk: block sums computed fresh on the
            # (minority of) draws that land in the floor bucket.
            self._block_starts = np.arange(0, num_source, BLOCK_SIZE)
            self._blocks = np.empty(self._block_starts.shape[0])
        if self._bijective:
            # Document token slice: topic of every token in the current
            # document, current position first.
            lengths = kernel.state.doc_lengths.astype(np.int64)
            doc_starts = np.concatenate(
                ([0], np.cumsum(lengths))).tolist()
            max_len = int(lengths.max()) if lengths.size else 1
            fast = self._fast
            self._table = SourceBijectiveTable(
                alpha=self.alpha, num_source=num_source,
                E=fast._E, E_flat=fast._E_flat, E1=self._E1,
                C=fast._C, aug=fast._aug, omega=fast._omega,
                sum_delta=fast._sum_delta, flat=fast._flat,
                ratio_buf=fast._ratio_buf, column_buf=fast._column_buf,
                corr_ptr=self._corr_ptr, corr_flat=self._corr_flat,
                corr_topics=self._corr_topics, corr_buf=self._corr_buf,
                corr_cum_buf=self._corr_cum_buf,
                block_starts=self._block_starts, blocks=self._blocks,
                doc_starts=doc_starts,
                doc_lengths=lengths.tolist(),
                doc_z=np.empty(max(max_len, 1), dtype=np.int64),
                token_idx=np.empty(max(max_len, 1), dtype=np.int64),
                token_d=np.empty(max(max_len, 1)),
                token_cum=np.empty(max(max_len, 1)))

    def begin_sweep(self) -> None:
        self._fast.begin_sweep()
        state = self.state
        self._words = WordTopicLists(state.words, state.z,
                                     state.vocab_size)
        self._word_lists = self._words.lists
        if self._table is not None:
            # The word lists are rebuilt per sweep; rebind them on the
            # table and force a document (re)entry on the first token —
            # the runtime chunk loop's position counter must restart
            # even when the corpus has a single document.
            self._table.word_lists = self._word_lists
            self._table.current_doc = -1

    def sparse_table(self) -> SourceBijectiveTable | None:
        """The bijective lane's bucket structure as a flat runtime
        table (``None`` routes mixed layouts to the per-token
        :meth:`step` lane)."""
        return self._table

    def begin_document(self, doc: int) -> None:
        """General-lane document entry.  The bijective lane's document
        bookkeeping (token slice + position cursor) lives on its
        :class:`~repro.sampling.runtime.SourceBijectiveTable` and is
        handled inside the runtime chunk loop, which never calls this."""
        state = self.state
        k = self.num_free
        if k:
            np.add(state.nt[:k], self._beta_sum, out=self._inv_free)
            np.reciprocal(self._inv_free, out=self._inv_free)
        self._nd_row = state.nd[doc]
        self._doc_free.begin(self._nd_row)
        self._doc_src.begin(self._nd_row)

    def _topic_changed(self, topic: int) -> None:
        if topic < self.num_free:
            self._inv_free[topic] = 1.0 / (self.state.nt[topic]
                                           + self._beta_sum)
        else:
            self._fast.topic_changed(topic)

    def removed(self, word: int, doc: int, topic: int) -> None:
        self._topic_changed(topic)
        if not self._bijective:
            if self._nd_row[topic] == 0.0:
                if topic < self.num_free:
                    self._doc_free.discard(topic)
                else:
                    self._doc_src.discard(topic)
        if self.state.nw[word, topic] == 0.0:
            self._word_lists[word].remove(topic)

    def added(self, word: int, doc: int, topic: int) -> None:
        self._topic_changed(topic)
        if not self._bijective:
            if self._nd_row[topic] == 1.0:
                if topic < self.num_free:
                    self._doc_free.add(topic)
                else:
                    self._doc_src.add(topic)
        if self.state.nw[word, topic] == 1.0:
            self._word_lists[word].append(topic)

    def step(self, word: int, doc: int, old: int, u: float) -> int:
        if self._table is not None:
            out: list[int] = []
            run_source_bijective_chunk(self.state, self._table,
                                       [word], [doc], [old], [u], out,
                                       self._inclusive_scan)
            return out[0]
        # General lane: the base-class step composes removed / draw /
        # added (no fused fast lane — mixed layouts are not the
        # benchmarked configuration).
        return SparseKernelPath.step(self, word, doc, old, u)

    # ------------------------------------------------------------------
    def draw(self, word: int, doc: int, u: float) -> int:
        """Bucket draw for the already-decremented token (general lane;
        the bijective lane fuses its draw into :meth:`step`)."""
        if self._bijective:
            raise NotImplementedError(
                "the bijective lane draws inside step(); use step() or "
                "dense_weights()")
        return self._draw_general(word, self.state.nw[word], self._nd_row,
                                  self._word_lists[word], u)

    def _draw_general(self, word: int, nw_row: np.ndarray,
                      nd_row: np.ndarray, word_list: list,
                      u: float) -> int:
        k = self.num_free
        alpha = self.alpha
        fast = self._fast
        c_per_topic = fast._C
        e_flat = fast._E_flat
        flat_word = fast._flat[word]
        has_floor = self._has_floor
        if has_floor:
            # Epsilon-floor/correction split: no token reads the full
            # D row; per-topic D values are gathered only where needed.
            d_row = None
        else:
            # Negative exponents — corrections are not sign-definite,
            # so the prior bucket reads the full D row out of the
            # shared E cache: one O(S) gather, no per-node arithmetic.
            d_row = self._d_row
            e_flat.take(flat_word, out=d_row)
        inv_free = self._inv_free
        # q: word bucket (free and source topics mixed).
        q_weights: list[float] = []
        q_mass = 0.0
        for t in word_list:
            if t < k:
                weight = nw_row[t] * (nd_row[t] + alpha) * inv_free[t]
            else:
                weight = nw_row[t] * c_per_topic[t - k] \
                    * (nd_row[t] + alpha)
            q_weights.append(weight)
            q_mass += weight
        # r (free): beta * nd / (nt + V * beta).
        if k and self._doc_free._n:
            free_topics = self._doc_free.array()
            rf_weights = (nd_row.take(free_topics)
                          * inv_free.take(free_topics))
            rf_weights *= self.beta
            rf_mass = float(rf_weights.sum())
        else:
            rf_weights = None
            rf_mass = 0.0
        # r (source): D * nd over the document's source topics.
        doc_src = self._doc_src
        num_src_doc = doc_src._n
        if num_src_doc:
            src_topics = doc_src._buf[:num_src_doc]
            d_values = self._d_buf[:num_src_doc]
            rs_weights = self._nd_buf[:num_src_doc]
            relative = self._rel_buf[:num_src_doc]
            np.subtract(src_topics, k, out=relative)
            if d_row is not None:
                d_row.take(relative, out=d_values)
            else:
                flat_idx = self._flatidx_buf[:num_src_doc]
                flat_word.take(relative, out=flat_idx)
                e_flat.take(flat_idx, out=d_values)
            nd_row.take(src_topics, out=rs_weights)
            np.multiply(rs_weights, d_values, out=rs_weights)
            rs_mass = float(rs_weights.sum())
        else:
            rs_mass = 0.0
        # s (free): alpha * beta / (nt + V * beta), scalar mass.
        sf_mass = self._ab * float(inv_free.sum()) if k else 0.0
        # s (source prior): alpha * D over every source topic, split as
        # floor + correction when the exponents allow it.
        e1 = self._E1
        if has_floor:
            lo = self._corr_ptr[word]
            hi = self._corr_ptr[word + 1]
            if hi > lo:
                corr_weights = self._corr_buf[:hi - lo]
                corr_cum = self._corr_cum_buf[:hi - lo]
                e_flat.take(self._corr_flat[lo:hi], out=corr_weights)
                corr_weights -= e1.take(self._corr_topics[lo:hi])
                corr_weights.cumsum(out=corr_cum)
                sc_mass = alpha * float(corr_cum[-1])
            else:
                corr_cum = None
                sc_mass = 0.0
            sfl_mass = alpha * float(e1.sum())
            s_mass = sc_mass + sfl_mass
        else:
            s_mass = alpha * float(d_row.sum())
        total = q_mass + rf_mass + rs_mass + sf_mass + s_mass
        if not (0.0 < total < np.inf):
            raise ValueError(
                f"topic weights must have positive finite mass, got "
                f"total={total!r}")
        x = u * total
        if x < q_mass:
            acc = 0.0
            for weight, t in zip(q_weights, word_list):
                acc += weight
                if x < acc:
                    return t
        x -= q_mass
        if rf_weights is not None and x < rf_mass:
            cumulative = rf_weights.cumsum()
            index = int(cumulative.searchsorted(x, side="right"))
            if index >= cumulative.shape[0]:
                index = cumulative.shape[0] - 1  # weights all positive
            return int(free_topics[index])
        x -= rf_mass
        if num_src_doc and x < rs_mass:
            cumulative = rs_weights.cumsum()
            index = int(cumulative.searchsorted(x, side="right"))
            if index >= num_src_doc:
                index = num_src_doc - 1  # D and nd are positive here
            return int(src_topics[index])
        x -= rs_mass
        if k and x < sf_mass:
            cumulative = inv_free.cumsum()
            index = int(cumulative.searchsorted(x / self._ab,
                                                side="right"))
            if index >= k:
                index = k - 1  # inv_free is all positive
            return index
        x -= sf_mass
        if not has_floor:
            # s (source prior): D is strictly positive everywhere.
            cumulative = self._inclusive_scan(d_row)
            index = int(cumulative.searchsorted(x / alpha, side="right"))
            if index >= self._num_source:
                index = self._num_source - 1
            return index + k
        # s (correction): alpha * (D - E1) over this word's articles.
        if corr_cum is not None and x < sc_mass:
            index = int(corr_cum.searchsorted(x / alpha, side="right"))
            if index >= corr_cum.shape[0]:
                # Corrections may include zeros (repeated floor
                # values); clamp to the last positive one.
                index = last_positive_index(corr_cum)
            return int(self._corr_topics[lo + index]) + k
        x -= sc_mass
        # s (floor): E1 is strictly positive.  Two-level walk: fresh
        # block sums pick a segment, one segment scan picks the topic.
        target = x / alpha
        blocks = self._blocks
        np.add.reduceat(e1, self._block_starts, out=blocks)
        block_cum = blocks.cumsum()
        block = int(block_cum.searchsorted(target, side="right"))
        if block >= blocks.shape[0]:
            block = blocks.shape[0] - 1
        if block:
            target -= block_cum[block - 1]
        lo_t = block << BLOCK_SHIFT
        segment = e1[lo_t:lo_t + BLOCK_SIZE]
        cumulative = self._inclusive_scan(segment)
        index = int(cumulative.searchsorted(target, side="right"))
        if index >= segment.shape[0]:
            index = segment.shape[0] - 1
        return lo_t + index + k

    def dense_weights(self, word: int, doc: int) -> np.ndarray:
        state = self.state
        k = self.num_free
        alpha = self.alpha
        nd_row = state.nd[doc]
        fast = self._fast
        out = np.empty(state.num_topics)
        if k:
            inv = 1.0 / (state.nt[:k] + self._beta_sum)
            out[:k] = (state.nw[word, :k] * (nd_row[:k] + alpha)
                       + self.beta * nd_row[:k] + self._ab) * inv
        d_values = fast._E_flat.take(fast._flat[word])
        source_nd = nd_row[k:]
        out[k:] = (state.nw[word, k:] * fast._C * (source_nd + alpha)
                   + d_values * source_nd + alpha * d_values)
        return out


class SourceTopicsAliasPath(AliasKernelPath):
    """Alias/MH Source-LDA draws over the lambda-integration caches.

    Bijective lane only (``K == 0`` with non-negative quadrature
    exponents — the paper-scale configuration; mixed layouts fall back
    to the sparse engine).  The word-dependent factor ``nw * C + D``
    splits into the stale mixture::

        nw * C + (D - E1)   [per-word sparse component over the nonzero
                             nw[w] topics plus the word's article-
                             correction topics, frozen at its own
                             rebuild; D - E1 is exactly zero off the
                             corrections]
      + E1                  [shared dense component: the epsilon-floor
                             prior, frozen per sweep into one Walker
                             alias table]

    The MH tests evaluate the exact live conditional through the same
    shared ``E`` cache the fast/sparse lanes maintain (refreshed inline
    on both count changes of every token), so acceptance is computed
    against current counts no matter how stale the proposal is.  Unlike
    the sparse lane's O(nnz + corr) bucket walk with its per-token
    ``E1`` floor sum, the per-token cost here is O(1) in both the
    source count ``S`` and the article vocabularies — the engine whose
    advantage *grows* without bound along the Fig. 8f topic axis.
    """

    def __init__(self, kernel: SourceTopicsKernel) -> None:
        super().__init__(kernel.state)
        self.alpha = kernel.alpha
        # Borrow the sparse path's shared machinery: the fast-path E/C
        # caches the MH tests read, and the correction CSR the rebuilds
        # union into the sparse-component support.
        self._sparse = SourceTopicsSparsePath(kernel)
        self._fast = self._sparse._fast
        self._table: AliasMHTable | None = None

    def alias_table(self) -> AliasMHTable:
        if self._table is None:
            state = self.state
            sparse = self._sparse
            fast = self._fast
            vocab_size = state.vocab_size
            lengths = state.doc_lengths.astype(np.int64)
            max_len = int(lengths.max()) if lengths.shape[0] else 0
            self._table = AliasMHTable(
                mode="source_bijective",
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
                E=fast._E, E_flat=fast._E_flat, E1=sparse._E1,
                C=fast._C, aug=fast._aug, omega=fast._omega,
                sum_delta=fast._sum_delta, flat=fast._flat,
                ratio_buf=fast._ratio_buf,
                column_buf=fast._column_buf,
                corr_ptr=sparse._corr_ptr,
                corr_flat=sparse._corr_flat,
                corr_topics=sparse._corr_topics)
        return self._table

    def begin_sweep(self) -> None:
        # Refresh the shared E cache from the live counts *before*
        # snapshotting the dense proposal component off its E1 row.
        self._fast.begin_sweep()
        table = self.alias_table()
        rebuild_alias_dense(table, self.state)
        table.current_doc = -1
