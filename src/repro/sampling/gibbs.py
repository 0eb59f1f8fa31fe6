"""The collapsed Gibbs driver (Algorithm 1 scaffolding).

All models in this library share the same sweep structure: for every token,
decrement its counts, ask the model-specific *kernel* for unnormalized
per-topic weights, draw a topic through a :class:`ScanStrategy`, and
re-increment.  The kernel is where LDA, EDA, CTM and the three Source-LDA
variants differ (Equations 2 and 3 of the paper); everything else lives
here once.

The sampler picks one token-loop lane of :mod:`repro.sampling.runtime`
when it is built, from its ``engine`` and the kernel's paths:

* ``engine="reference"`` — :func:`~repro.sampling.runtime.sweep_reference`,
  the literal per-token transcription of Algorithm 1, kept as the
  exactness oracle;
* ``engine="fast"`` (default) — :func:`~repro.sampling.runtime.sweep_dense`
  over the kernel's :meth:`TopicWeightKernel.fast_path`: it pre-draws
  the sweep's uniform variates in chunks, caches the ``nd[doc] + alpha``
  row per document and lets the path keep incremental caches.  It
  consumes the RNG stream identically and is draw-for-draw equivalent
  (see the exactness contract of :mod:`repro.sampling.fast_engine`);
* ``engine="alias"`` — :func:`~repro.sampling.runtime.sweep_alias` over
  the kernel's :meth:`TopicWeightKernel.alias_path`, the stale-alias/
  Metropolis-Hastings sampler (AliasLDA/LightLDA) for bijective
  Source-LDA: amortized ``O(1)`` proposals from stale per-word tables,
  corrected by MH accept/reject against the exact conditional.
  Distributionally equivalent (the MH transition leaves the exact
  conditional invariant; see :mod:`repro.sampling.alias_engine`).

Where a kernel has no path for an engine, the choice falls back one
step: alias → dense for a kernel without an alias path (LDA, EDA, CTM,
mixed Source-LDA layouts), and dense → reference for a kernel without a
fast path.  Both fallbacks are draw-for-draw identical to the reference.

:func:`check_engine` validates an ``engine`` name; the sampler and every
model constructor call it, so an unknown engine fails before any prior
or state is built.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np
from scipy.special import gammaln

from repro.sampling.alias_engine import (DEFAULT_REBUILD_EVERY,
                                         resolve_rebuild_every)
from repro.sampling.fast_engine import FastKernelPath
from repro.sampling.runtime import (check_backend, sweep_alias, sweep_dense,
                                    sweep_reference)
from repro.sampling.scans import ScanStrategy, SerialScan
from repro.sampling.state import GibbsState
from repro.telemetry import NULL_RECORDER, Recorder, ensure_recorder

if TYPE_CHECKING:
    from repro.core.kernels import SourceTopicsAliasPath

#: Valid values for the sampler's ``engine`` argument.
ENGINES = ("fast", "alias", "reference")


def check_engine(engine: str) -> None:
    """Raise ``ValueError`` unless ``engine`` is one of :data:`ENGINES`."""
    if engine not in ENGINES:
        raise ValueError(
            f"engine must be one of {ENGINES}, got {engine!r}")


class TopicWeightKernel(ABC):
    """Model-specific per-token topic weights for collapsed Gibbs.

    A kernel is bound to a :class:`GibbsState` and reads the current count
    matrices directly; the sampler guarantees the target token has already
    been decremented when :meth:`weights` is called, so the counts are the
    ``-i`` quantities of the paper's equations.
    """

    def __init__(self, state: GibbsState) -> None:
        self.state = state

    @property
    def num_topics(self) -> int:
        return self.state.num_topics

    @abstractmethod
    def weights(self, word: int, doc: int) -> np.ndarray:
        """Unnormalized ``P(z_i = j | z_-i, w)`` over all topics."""

    @abstractmethod
    def phi(self) -> np.ndarray:
        """Posterior topic-word estimate ``(T, V)`` from current counts."""

    @abstractmethod
    def log_likelihood(self) -> float:
        """Complete-data log ``P(w | z)`` under the kernel's priors."""

    def fast_path(self) -> FastKernelPath | None:
        """Optional incremental path for the dense lane.

        ``None`` (the default) makes ``engine="fast"`` run the reference
        loop, which calls :meth:`weights` per token; built-in kernels
        override this with a
        :class:`~repro.sampling.fast_engine.FastKernelPath` that updates
        cached quantities incrementally as topic totals change.
        """
        return None

    def alias_path(self) -> SourceTopicsAliasPath | None:
        """The stale-proposal path of the alias/MH lane.

        ``None`` (the default) makes ``engine="alias"`` fall back to
        the dense lane for this kernel.  Only
        :class:`~repro.core.kernels.SourceTopicsKernel` overrides it, for
        bijective layouts.
        """
        return None


@dataclass
class SweepTimings:
    """Wall-clock per-iteration timings collected during a run."""

    seconds: list[float] = field(default_factory=list)

    @property
    def average(self) -> float:
        return float(np.mean(self.seconds)) if self.seconds else 0.0


IterationCallback = Callable[[int, GibbsState], None]


class CollapsedGibbsSampler:
    """Runs full Gibbs sweeps over a state using a model kernel.

    Parameters
    ----------
    state:
        Count-matrix state (must be initialized before :meth:`run`).
    kernel:
        Model-specific weight computation.
    rng:
        Source of the uniform draws.
    scan:
        Cumulative-sum strategy; defaults to the serial scan.  Passing
        :class:`~repro.sampling.prefix_sums.PrefixSumScan` or
        :class:`~repro.sampling.simple_parallel.SimpleParallelScan`
        reproduces Algorithms 2 and 3.
    engine:
        ``"fast"`` (default) sweeps on the dense lane
        (:func:`~repro.sampling.runtime.sweep_dense`), ``"alias"`` on
        the alias/MH lane (:func:`~repro.sampling.runtime.sweep_alias`),
        ``"reference"`` on the literal Algorithm 1 loop
        (:func:`~repro.sampling.runtime.sweep_reference`); a kernel
        without the engine's path falls back one step (see the module
        docstring).  The dense and reference lanes consume the RNG
        stream identically (one uniform per token); the alias lane
        consumes four uniforms per token (its own fixed stream
        discipline).  Anything else raises ``ValueError``
        (:func:`check_engine`).
    backend:
        Deprecated and ignored: the token loops have a single
        implementation.  ``"auto"`` and ``"python"`` emit a
        :class:`DeprecationWarning`, other values raise (see
        :func:`~repro.sampling.runtime.check_backend`).
    rebuild_every:
        Per-word draw count between stale-table rebuilds of the alias
        lane, an int >= 1, validated whenever ``engine="alias"``
        (:func:`~repro.sampling.alias_engine.resolve_rebuild_every`)
        and ignored by the other engines.  Larger values amortize
        the rebuild further but make proposals staler: the per-token MH
        transition stays exactly invariant at any cadence, while the
        *chain-level* staleness adaptation (tables snapshot counts that
        include tokens resampled later) introduces a bias on the order
        of the staleness window over the per-word token count —
        vanishing at corpus scale, visible on toy corpora.
    """

    def __init__(self, state: GibbsState, kernel: TopicWeightKernel,
                 rng: np.random.Generator,
                 scan: ScanStrategy | None = None,
                 engine: str = "fast",
                 backend: str | None = None,
                 rebuild_every: int = DEFAULT_REBUILD_EVERY,
                 recorder: Recorder | None = None,
                 ) -> None:
        if kernel.state is not state:
            raise ValueError("kernel is bound to a different state")
        check_engine(engine)
        check_backend(backend)
        self.state = state
        self.kernel = kernel
        self.rng = rng
        self.scan = scan or SerialScan()
        self.engine = engine
        self.timings = SweepTimings()
        # Telemetry sink; NULL_RECORDER by default.  Instrumentation
        # reads counts and clocks only — never the RNG stream — so
        # sweeps are draw-for-draw identical recorder-on vs off.
        self.recorder = ensure_recorder(recorder)
        # The serial scan is inlined as np.add.accumulate by the dense
        # lane; parallel scans run through their exact inclusive_scan.
        self._inline_serial = type(self.scan) is SerialScan
        # The lane, picked once: alias → dense → reference, each step
        # taken when the kernel has no path for the one before.
        self._lane = sweep_reference
        self._path = None
        if engine == "alias":
            rebuild_every = resolve_rebuild_every(rebuild_every)
            self._path = kernel.alias_path()
            if self._path is not None:
                self._path.rebuild_every = rebuild_every
                self._lane = sweep_alias
        if engine != "reference" and self._path is None:
            self._path = kernel.fast_path()
            if self._path is not None:
                self._lane = sweep_dense

    @property
    def acceptance_rate(self) -> float | None:
        """MH acceptance rate of the alias lane's proposals so far;
        ``None`` on the other lanes (including an ``engine="alias"``
        that fell back) and before any proposal."""
        if self._lane is not sweep_alias:
            return None
        proposals, accepted = self._path.alias_table().mh_counts
        if proposals == 0:
            return None
        return float(accepted / proposals)

    def _counters(self) -> tuple[int | None, tuple[int, int, int] | None]:
        """Cumulative lambda-column memo misses of the lane's path
        (``None`` where it keeps no memo) and the alias lane's
        ``(proposals, accepts, rebuilds)`` (``None`` on other lanes);
        :meth:`sweep` diffs them into per-sweep counters."""
        path = self._path
        misses = None if path is None else path.lambda_column_misses
        if self._lane is not sweep_alias:
            return misses, None
        table = path.alias_table()
        return misses, (int(table.mh_counts[0]), int(table.mh_counts[1]),
                        int(table.rebuilds[0]))

    def sweep(self) -> None:
        """One full pass reassigning every token (the inner loops of
        Algorithm 1), on the lane picked at construction."""
        recorder = self.recorder
        if recorder is NULL_RECORDER:
            self._lane(self)
            return
        misses_before, mh_before = self._counters()
        with recorder.span("train.sweep_seconds", engine=self.engine):
            self._lane(self)
        recorder.count("train.sweeps", engine=self.engine)
        recorder.count("train.tokens_sampled", self.state.num_tokens,
                       engine=self.engine)
        misses_after, mh_after = self._counters()
        if mh_before is not None:
            recorder.count("train.mh_proposals",
                           mh_after[0] - mh_before[0])
            recorder.count("train.mh_accepted",
                           mh_after[1] - mh_before[1])
            recorder.count("train.alias_rebuilds",
                           mh_after[2] - mh_before[2])
        if misses_before is not None:
            recorder.count("train.lambda_column_misses",
                           misses_after - misses_before)

    def run(self, iterations: int,
            callback: IterationCallback | None = None,
            track_log_likelihood: bool = False,
            log_every: int = 1) -> list[float]:
        """Run ``iterations`` sweeps; returns log-likelihoods if tracked.

        ``callback(iteration, state)`` fires after every sweep, letting
        experiments snapshot topics mid-run (Fig. 6 does this at selected
        iterations).
        """
        if iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {iterations}")
        if log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {log_every}")
        log_likelihoods: list[float] = []
        for iteration in range(iterations):
            start = perf_counter()
            self.sweep()
            self.timings.seconds.append(perf_counter() - start)
            if track_log_likelihood and (iteration % log_every == 0
                                         or iteration == iterations - 1):
                log_likelihoods.append(self.kernel.log_likelihood())
            if callback is not None:
                callback(iteration, self.state)
        return log_likelihoods

    def run_with_snapshots(self, iterations: int,
                           snapshot_iterations: Sequence[int] = (),
                           track_log_likelihood: bool = False,
                           ) -> tuple[list[float], dict[int, np.ndarray]]:
        """:meth:`run`, also returning ``kernel.phi()`` snapshots taken
        after the sweep indices in ``snapshot_iterations``.

        The one implementation of every model's ``snapshot_iterations``
        (``metadata['snapshots']``).  Snapshots only read the kernel,
        so they never move a draw.
        """
        snapshots: dict[int, np.ndarray] = {}
        wanted = {int(i) for i in snapshot_iterations}

        def _snapshot(iteration: int, _state: GibbsState) -> None:
            if iteration in wanted:
                snapshots[iteration] = self.kernel.phi()

        log_likelihoods = self.run(
            iterations, callback=_snapshot if wanted else None,
            track_log_likelihood=track_log_likelihood)
        return log_likelihoods, snapshots


def symmetric_dirichlet_log_likelihood(nw: np.ndarray, nt: np.ndarray,
                                       beta: float) -> float:
    """Log ``P(w | z)`` for topics with a symmetric ``Dir(beta)`` prior.

    The standard Griffiths-Steyvers closed form, summed over topics:
    ``log Gamma(V beta) - V log Gamma(beta)
    + sum_w log Gamma(n_wt + beta) - log Gamma(n_t + V beta)``.

    Zero-count entries all contribute the same ``log Gamma(beta)``, so
    when ``nw`` is sparse (the tracked-likelihood regime at paper scale)
    the per-entry ``gammaln`` is gathered over the nonzero counts only
    — ``O(nnz)`` special-function calls instead of ``O(V * T)``.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    vocab_size, num_topics = nw.shape
    constant = num_topics * (gammaln(vocab_size * beta)
                             - vocab_size * gammaln(beta))
    nnz = int(np.count_nonzero(nw))
    if nnz * 4 < nw.size:
        counts_term = (gammaln(nw[nw != 0.0] + beta).sum()
                       + (nw.size - nnz) * gammaln(beta))
    else:
        counts_term = gammaln(nw + beta).sum()
    return float(constant
                 + counts_term
                 - gammaln(nt + vocab_size * beta).sum())


def asymmetric_dirichlet_log_likelihood(nw: np.ndarray, nt: np.ndarray,
                                        delta: np.ndarray) -> float:
    """Log ``P(w | z)`` for topics with per-topic ``Dir(delta_t)`` priors.

    ``nw`` is ``(V, T)``, ``delta`` is ``(T, V)`` — the source
    hyperparameters of the bijective model.

    The per-word bracket ``log Gamma(n_wt + delta) - log Gamma(delta)``
    vanishes wherever the count is zero, so for sparse ``nw`` it is
    gathered over the nonzero entries only.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if np.any(delta <= 0):
        raise ValueError("delta must be strictly positive")
    delta_totals = delta.sum(axis=1)
    per_topic = (gammaln(delta_totals)
                 - gammaln(nt + delta_totals))
    nnz = int(np.count_nonzero(nw))
    if nnz * 4 < nw.size:
        word_idx, topic_idx = np.nonzero(nw)
        delta_vals = delta[topic_idx, word_idx]
        bracket = (gammaln(nw[word_idx, topic_idx] + delta_vals)
                   - gammaln(delta_vals)).sum()
    else:
        delta_t = delta.T  # (V, T) to align with nw
        bracket = (gammaln(nw + delta_t) - gammaln(delta_t)).sum()
    return float(per_topic.sum() + bracket)
