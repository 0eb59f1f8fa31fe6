"""The alias sweep engine: stale-proposal Metropolis-Hastings draws.

The engine exists for the paper's Section IV.E superset setting:
bijective Source-LDA (every topic a source topic) with thousands of
source topics.  The fast engine (:mod:`repro.sampling.fast_engine`)
still spends ``O(T)`` per token there: every draw materializes and
cumulative-sums the full weight vector.  This engine removes the
per-token dependence on topic structure altogether, following AliasLDA
(Li, Ahmed, Ravi & Smola, KDD 2014) and LightLDA (Yuan et al., WWW
2015): draw proposals in amortized **O(1)** from *stale* precomputed
structures, then correct the staleness with a Metropolis-Hastings
accept/reject against the **exact** live conditional.

Its one lane is :class:`~repro.core.kernels.SourceTopicsAliasPath`,
the path :meth:`~repro.core.kernels.SourceTopicsKernel.alias_path`
returns for a bijective layout with non-negative quadrature exponents.
Per token, two cycled MH sub-steps (LightLDA's proposal cycling):

* a **word proposal** from a stale additive mixture over the
  word-dependent weight factor ``nw * C + D`` — a per-word sparse
  component over the word's nonzero topics and article-correction
  topics, rebuilt every ``rebuild_every`` draws of that word, plus a
  shared dense epsilon-floor component snapshotted per sweep into a
  Walker alias table (:mod:`repro.sampling.alias`).  Each component
  stores its own frozen weights and mass, so the proposal density is
  exactly evaluable at any staleness;
* a **doc proposal** from the document's token slice — minus the
  current token's own slot — plus the uniform ``alpha`` arm, computed
  from live state in O(1), never stale.

Both sub-steps accept with ``u * pi(s) * q(t) < pi(t) * q(s)`` where
``pi`` is the same exact conditional the other engines sample.  The
fixed-proposal form of that test is only exact when ``q`` does not
depend on the topic being resampled, so the word components are rebuilt
strictly *after* the token's decrement and the doc slice skips the
token's own entry.  With that, staleness affects only the *acceptance
rate*, never the stationary distribution: the chain targets the exact
per-token conditional regardless of rebuild cadence.  That is
the engine's exactness contract — **distributional** equivalence (the
per-token MH transition leaves the exact conditional invariant; pinned
by the chi-squared invariance test and the chain-level
perplexity/theta-JS parity checks in ``tests/test_alias_engine.py``),
not draw-for-draw identity.

Staleness contract: per-word sparse components persist **across**
sweeps (only the shared dense component and the per-sweep caches are
refreshed by ``begin_sweep``), because correctness never requires a
rebuild — the cadence is purely a proposal-quality/throughput trade.

RNG discipline: exactly four uniforms per token (word proposal, word
coin, doc proposal, doc coin), pre-drawn in chunks; coins are consumed
even on self-proposals and rebuilds draw no RNG, so the stream position
is a function of token count alone — changing ``rebuild_every`` (or
rebuilding never) replays the identical uniform sequence.

Every other kernel (LDA, EDA, CTM, mixed free+source Source-LDA
layouts, bijective layouts with negative quadrature exponents, custom
kernels) has no alias path and falls back to the fast engine —
``engine="alias"`` is safe on every kernel, and on those kernels it is
draw-for-draw identical to the reference.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.sampling.fast_engine import FastSweepEngine
from repro.sampling.runtime import sweep_alias
from repro.sampling.scans import ScanStrategy, SerialScan
from repro.sampling.state import GibbsState

__all__ = ["AliasSweepEngine", "resolve_rebuild_every"]

#: Default per-word draw count between stale-table rebuilds.  Small
#: enough to keep acceptance high on fast-mixing counts, large enough
#: that the O(support) rebuild amortizes to a constant per draw.
DEFAULT_REBUILD_EVERY = 64


def resolve_rebuild_every(rebuild_every: int) -> int:
    """Validate a ``rebuild_every`` setting; returns it as an ``int``.

    Integral values (``int``, ``np.integer``, a float such as ``3.0``)
    pass through after validation (``>= 1``); a non-integral real
    (``2.5``, ``inf``, ``nan``), a string or any other type raises
    ``ValueError``.
    """
    if (isinstance(rebuild_every, str)
            or not isinstance(rebuild_every, numbers.Real)
            or not float(rebuild_every).is_integer()):
        raise ValueError(
            f"rebuild_every must be an integer >= 1, got "
            f"{rebuild_every!r}")
    if isinstance(rebuild_every, bool) or rebuild_every < 1:
        raise ValueError(
            f"rebuild_every must be >= 1, got {rebuild_every}")
    return int(rebuild_every)


class AliasSweepEngine:
    """Executes one Gibbs sweep with amortized-O(1) alias/MH draws.

    Parameters mirror :class:`~repro.sampling.fast_engine
    .FastSweepEngine`, plus ``rebuild_every``
    — the per-word draw count between stale-table rebuilds (an int; see
    :func:`resolve_rebuild_every`).  Only bijective Source-LDA has an
    alias path (:class:`~repro.core.kernels.SourceTopicsAliasPath`);
    every other kernel runs on an internal fast engine, so
    ``engine="alias"`` is safe on every kernel.
    """

    def __init__(self, state: GibbsState, kernel, rng: np.random.Generator,
                 scan: ScanStrategy | None = None,
                 chunk_size: int = 65536,
                 rebuild_every: int = DEFAULT_REBUILD_EVERY,
                 ) -> None:
        if chunk_size < 1:
            raise ValueError(
                f"chunk_size must be >= 1, got {chunk_size}")
        rebuild_every = resolve_rebuild_every(rebuild_every)
        self.state = state
        self.kernel = kernel
        self.rng = rng
        self.scan = scan or SerialScan()
        self.chunk_size = chunk_size
        self.rebuild_every = rebuild_every
        self._path = kernel.alias_path()
        self._fallback: FastSweepEngine | None = None
        if self._path is None:
            self._fallback = FastSweepEngine(state, kernel, rng,
                                             scan=self.scan,
                                             chunk_size=chunk_size)
        else:
            self._path.rebuild_every = rebuild_every

    def sweep(self) -> None:
        if self._path is not None:
            sweep_alias(self)
        else:
            self._fallback.sweep()

    @property
    def acceptance_rate(self) -> float | None:
        """Fraction of MH proposals accepted so far (both sub-steps
        pooled), or ``None`` before any proposal / on fallback."""
        if self._path is None:
            return None
        counts = self._path.alias_table().mh_counts
        if counts[0] == 0:
            return None
        return float(counts[1] / counts[0])

    @property
    def lambda_column_misses(self) -> int | None:
        """Cumulative lambda-column memo misses of the Source-LDA caches
        this engine samples on (the alias path's or the fallback's),
        ``None`` for every other kernel."""
        if self._path is None:
            return self._fallback.lambda_column_misses
        return self._path.lambda_column_misses

    @property
    def mh_totals(self) -> tuple[int, int, int] | None:
        """Cumulative ``(proposals, accepts, rebuilds)`` of the alias
        lane, or ``None`` on fallback.  The sampler's telemetry diffs
        these across sweeps into per-sweep counter increments."""
        if self._path is None:
            return None
        table = self._path.alias_table()
        return (int(table.mh_counts[0]), int(table.mh_counts[1]),
                int(table.rebuilds[0]))
