"""The sparse sweep engine: SparseLDA-style bucketed topic draws.

The fast engine (:mod:`repro.sampling.fast_engine`) removed the Python
object churn and the redundant lambda-grid arithmetic from the reference
sweep, but its per-token work is still ``O(T)``: every token materializes
the full weight vector and cumulative-sums it, even though all but a
handful of entries are identical token to token.

This module removes the ``O(T)`` walk itself, following the bucket
decomposition of SparseLDA (Yao, Mimno & McCallum, KDD 2009).  The LDA
weight of Equation 2 splits into three non-negative buckets::

    (nw + b)(nd + a)      a * b            b * nd         nw * (nd + a)
    ----------------  =  --------    +    --------    +   -------------
       nt + V * b        nt + V*b         nt + V*b           nt + V*b

                         "s": smoothing   "r": document   "q": word
                         (all T topics,   (nonzero        (nonzero
                         scalar mass      nd[d] topics)   nw[w] topics)
                         maintained
                         incrementally)

A uniform draw is located bucket-first: only when it lands in the
smoothing bucket (whose mass is tiny for realistic ``alpha``/``beta``)
does an ``O(T)`` scan happen; the common case touches only the ``O(nnz)``
nonzero topics of the current document row and word column.  The same
treatment applies to the fixed-phi EDA kernel (document bucket over
``nd[d]`` plus a precomputed per-word prior mass) and to the Source-LDA
kernel, whose ``nw * C + D`` lambda-integration caches (PR 1, see
:mod:`repro.core.kernels`) fold into the word bucket while the dense
``D`` term splits into a *floor* bucket (the epsilon-smoothed prior mass
shared by every word absent from a source article) plus a sparse
per-word correction over the article vocabularies.

The sweep itself executes in :mod:`repro.sampling.runtime`: paths whose
bucket structure compiles into a flat kernel table
(:meth:`SparseKernelPath.sparse_table` — today the bijective Source-LDA
lane's :class:`~repro.sampling.runtime.SourceBijectiveTable`) run on the
runtime's table-driven chunk loop; the remaining paths (LDA/EDA buckets,
the mixed-layout source lane) are driven per token through
:meth:`SparseKernelPath.step`.  The nonzero-membership structures
(:class:`~repro.sampling.runtime.TopicSet`,
:class:`~repro.sampling.runtime.WordTopicLists`) live in the runtime and
are re-exported here.

Exactness contract: the bucket decomposition is algebraically exact but
*reassociates* the per-topic weight sums, so — unlike the fast engine —
the sparse engine is not draw-for-draw identical to the reference: a
uniform draw maps to a bucket-major partition of the probability mass
instead of the topic-major one.  The per-token conditional distribution
is identical up to floating-point reassociation (pinned to ~1e-9 by the
decomposition oracle in ``tests/test_sparse_engine.py``), and chain-level
agreement is pinned there by distributional checks.  Kernels without a
:meth:`~repro.sampling.gibbs.TopicWeightKernel.sparse_path` (CTM, custom
kernels) fall back to the fast engine and therefore remain draw-for-draw
identical to the reference.

The engine consumes the RNG stream exactly like the other engines (one
pre-drawn uniform per token, chunked), so fallback kernels reproduce the
reference chain byte-for-byte.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.sampling.fast_engine import FastSweepEngine
from repro.sampling.runtime import TopicSet, WordTopicLists, sweep_sparse
from repro.sampling.scans import ScanStrategy, SerialScan
from repro.sampling.state import GibbsState

__all__ = ["SparseKernelPath", "SparseSweepEngine", "TopicSet",
           "WordTopicLists"]


class SparseKernelPath(ABC):
    """Bucketed weight computation contract for the sparse engine.

    A path is created by :meth:`TopicWeightKernel.sparse_path` and owns
    the bucket caches plus the nonzero-topic structures of its kernel's
    decomposition.  The runtime loop drives it per token ``i`` with word
    ``w`` in document ``d``:

    1. on entering a new document it calls :meth:`begin_document`;
    2. it decrements ``nw/nt/nd`` for the old topic and calls
       :meth:`removed`;
    3. :meth:`draw` locates the pre-drawn uniform ``u`` in the bucket
       partition and returns the new topic;
    4. it increments the counts for the new topic and calls
       :meth:`added`.

    Paths whose buckets compile into a flat kernel table override
    :meth:`sparse_table`; the runtime then executes its table-driven
    chunk loop instead of per-token :meth:`step` calls (and handles the
    document switching itself).

    ``begin_sweep`` runs once per sweep so all caches are rebuilt from
    the live count matrices (external edits between sweeps are absorbed
    there, mirroring the fast engine's contract).  ``scan`` is installed
    by the engine and must be used for any full-length cumulative sum
    (the smoothing-bucket fallback), keeping Algorithm 2/3 scan
    strategies exercised on this engine too.

    :meth:`dense_weights` is the decomposition oracle: the full
    unnormalized weight vector assembled from the same bucket formulas
    the sampler uses, for equivalence tests against
    :meth:`TopicWeightKernel.weights`.
    """

    alpha: float

    def __init__(self, state: GibbsState) -> None:
        self.state = state
        self.scan: ScanStrategy = SerialScan()

    @abstractmethod
    def begin_sweep(self) -> None:
        """Rebuild all bucket caches from the current state."""

    @abstractmethod
    def begin_document(self, doc: int) -> None:
        """Refresh per-document structures (also bounds drift of any
        incrementally maintained bucket mass)."""

    @abstractmethod
    def draw(self, word: int, doc: int, u: float) -> int:
        """Locate uniform ``u`` in the bucket partition; returns the new
        topic.  Counts for the token's old topic are already removed."""

    def removed(self, word: int, doc: int, topic: int) -> None:
        """Counts for ``topic`` just dropped by one; refresh caches."""

    def added(self, word: int, doc: int, topic: int) -> None:
        """Counts for ``topic`` just rose by one; refresh caches."""

    def step(self, word: int, doc: int, old: int, u: float) -> int:
        """One full token reassignment: decrement, draw, increment.

        The runtime loop drives tokens through this single entry point
        so hot paths can fuse the count updates with their cache
        bookkeeping; the default implementation composes
        :meth:`removed`, :meth:`draw` and :meth:`added`.  If
        :meth:`draw` raises, the token is left
        decremented-but-unassigned — the same failure state as the
        other engines.
        """
        state = self.state
        nw = state.nw
        nt = state.nt
        nd = state.nd
        nw[word, old] -= 1.0
        nt[old] -= 1.0
        nd[doc, old] -= 1.0
        self.removed(word, doc, old)
        new = self.draw(word, doc, u)
        nw[word, new] += 1.0
        nt[new] += 1.0
        nd[doc, new] += 1.0
        self.added(word, doc, new)
        return new

    def sparse_table(self):
        """Optional flat kernel table for the runtime's table lane.

        ``None`` (the default) keeps the path on the per-token
        :meth:`step` lane; the bijective Source-LDA path overrides this
        with a :class:`~repro.sampling.runtime.SourceBijectiveTable`
        whose array fields alias the path's live caches (rebound per
        sweep by :meth:`begin_sweep`).
        """
        return None

    @abstractmethod
    def dense_weights(self, word: int, doc: int) -> np.ndarray:
        """Full weight vector from the bucket decomposition (test
        oracle; requires :meth:`begin_sweep` to have run)."""

    def _inclusive_scan(self, values: np.ndarray) -> np.ndarray:
        if type(self.scan) is SerialScan:
            return np.cumsum(values, dtype=np.float64)
        return self.scan.inclusive_scan(np.asarray(values,
                                                   dtype=np.float64))


class SparseSweepEngine:
    """Executes one Gibbs sweep with bucketed O(nnz) topic draws.

    Parameters mirror :class:`~repro.sampling.fast_engine.FastSweepEngine`.
    Kernels without a sparse path run on an internal fast engine (same
    RNG consumption, draw-for-draw identical to the reference), so
    ``engine="sparse"`` is safe on every kernel.
    """

    def __init__(self, state: GibbsState, kernel, rng: np.random.Generator,
                 scan: ScanStrategy | None = None,
                 chunk_size: int = 65536) -> None:
        if chunk_size < 1:
            raise ValueError(
                f"chunk_size must be >= 1, got {chunk_size}")
        self.state = state
        self.kernel = kernel
        self.rng = rng
        self.scan = scan or SerialScan()
        self.chunk_size = chunk_size
        self._path: SparseKernelPath | None = kernel.sparse_path()
        self._fallback: FastSweepEngine | None = None
        if self._path is None:
            self._fallback = FastSweepEngine(state, kernel, rng,
                                             scan=self.scan,
                                             chunk_size=chunk_size)
        else:
            self._path.scan = self.scan

    def sweep(self) -> None:
        if self._path is not None:
            sweep_sparse(self)
        else:
            self._fallback.sweep()
