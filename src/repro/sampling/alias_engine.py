"""The alias engine's contract: stale-proposal Metropolis-Hastings draws.

``engine="alias"`` exists for the paper's Section IV.E superset setting:
bijective Source-LDA (every topic a source topic) with thousands of
source topics.  The fast engine's dense lane
(:mod:`repro.sampling.fast_engine`) still spends ``O(T)`` per token
there: every draw materializes and cumulative-sums the full weight
vector.  The alias lane (:func:`repro.sampling.runtime.sweep_alias`,
which :class:`~repro.sampling.gibbs.CollapsedGibbsSampler` runs for
``engine="alias"``) removes the per-token dependence on topic
structure altogether, following AliasLDA (Li, Ahmed, Ravi & Smola, KDD
2014) and LightLDA (Yuan et al., WWW 2015): draw proposals in amortized **O(1)** from *stale* precomputed
structures, then correct the staleness with a Metropolis-Hastings
accept/reject against the **exact** live conditional.

Its one path is :class:`~repro.core.kernels.SourceTopicsAliasPath`,
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
kernels) has no alias path, and the sampler runs the dense lane (or,
without a fast path, the reference lane) instead — ``engine="alias"``
is safe on every kernel, and on those kernels it is draw-for-draw
identical to the reference.  The sampler validates ``rebuild_every``
with :func:`resolve_rebuild_every` whenever ``engine="alias"``,
whichever lane it then runs.
"""

from __future__ import annotations

import numbers

__all__ = ["DEFAULT_REBUILD_EVERY", "resolve_rebuild_every"]

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
