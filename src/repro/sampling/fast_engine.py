"""The fast engine's contract: incremental kernel paths on the dense lane.

The reference sweep (:func:`repro.sampling.runtime.sweep_reference`) is
a faithful transcription of Algorithm 1: per token it calls
``state.decrement``, asks the kernel for a fresh weight vector, samples
through a scan strategy and calls ``state.increment``.  That
faithfulness costs two things the paper's native implementation never
pays:

* **Python object churn** — four method calls, several small array
  allocations and one scalar RNG draw per token; and
* **redundant arithmetic** — the Source-LDA kernel re-integrates the
  lambda grid from scratch for every token, an ``O(S * A)`` matrix walk,
  even though the only inputs that changed since the previous token are
  the counts of (at most) two topics.

``engine="fast"`` removes both while keeping the sampled chain
*identical*.  :class:`~repro.sampling.gibbs.CollapsedGibbsSampler`
runs it as the dense lane, :func:`repro.sampling.runtime.sweep_dense`,
over the kernel's :class:`FastKernelPath`:

1. The per-sweep uniform variates are pre-drawn in chunks of
   :data:`~repro.sampling.runtime.CHUNK_SIZE` tokens.  NumPy's
   ``Generator.random`` consumes the bit stream identically whether
   called ``N`` times or once with size ``N``, so the draw stream
   matches the reference sweep exactly.
2. Tokens are walked document-major (the state's natural layout) with the
   document factor ``nd[doc] + alpha`` held in a cached row; after a
   reassignment only the two touched entries are recomputed — with the
   same ``count + alpha`` expression the reference evaluates, so the
   values are bit-identical.
3. Each kernel may expose a :class:`FastKernelPath` carrying incremental
   caches keyed on ``nt`` (see the kernels' modules for the per-model
   algebra — e.g. the ``nw * C + D`` decomposition of the lambda
   integral in :mod:`repro.core.kernels`).  A kernel with no fast path
   runs the reference lane instead, so it is the reference chain by
   construction.

Exactness contract: for the built-in kernels whose fast path
reproduces the reference arithmetic bit-for-bit (LDA, EDA, CTM) the
dense lane produces byte-identical assignments by construction.  The
Source-LDA path reassociates the lambda-grid
summation (that reassociation *is* the speedup), so individual weights
may differ in the last ulp; the sampled chain only differs if a uniform
draw lands inside that ulp-sized window of a cumulative-sum boundary.
``tests/test_fast_engine.py`` pins draw-for-draw equality on fixed
seeds for every kernel.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.sampling.state import GibbsState


class FastKernelPath(ABC):
    """Incremental weight computation contract for the dense lane.

    A path is created by :meth:`TopicWeightKernel.fast_path` and owns
    whatever caches let it produce the kernel's unnormalized weights in
    less work than a from-scratch evaluation.  The runtime's dense lane
    drives it as follows, for every token ``i`` with word ``w`` in
    document ``d``:

    1. the loop decrements ``nw/nt/nd`` for the old topic and calls
       :meth:`topic_changed` with it;
    2. :meth:`weights` must return the *complete* unnormalized weight
       vector (including the ``nd[d] + alpha`` document factor, which the
       loop maintains and passes in as ``doc_row``);
    3. after the draw, the loop increments the counts for the new topic
       and calls :meth:`topic_changed` with it.

    ``begin_sweep`` runs once per sweep before any token is touched, so
    caches are always rebuilt from the live count matrices — external
    count edits between sweeps (e.g. ``rebuild_counts``) are absorbed
    there.

    Attributes
    ----------
    alpha:
        The document-topic prior; the loop uses it to maintain the
        cached ``nd[doc] + alpha`` row.
    lambda_column_misses:
        Cumulative lambda-column memo misses of a Source-LDA path
        (:class:`~repro.core.kernels.SourceTopicsFastPath`), which the
        sampler's telemetry reports per sweep; ``None`` for a path that
        keeps no memo.
    """

    alpha: float
    lambda_column_misses: int | None = None

    def __init__(self, state: GibbsState) -> None:
        self.state = state

    @abstractmethod
    def begin_sweep(self) -> None:
        """Rebuild all incremental caches from the current state."""

    @abstractmethod
    def weights(self, word: int, doc_row: np.ndarray) -> np.ndarray:
        """Full unnormalized weights for ``word``; ``doc_row`` is the
        loop-maintained ``nd[doc] + alpha`` vector."""

    def topic_changed(self, topic: int) -> None:
        """``nt[topic]`` just changed by one; refresh caches keyed on it."""
