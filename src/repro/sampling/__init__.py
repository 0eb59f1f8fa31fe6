"""Sampling substrate: Gibbs state, sweep lanes, scans, quadrature.

:class:`CollapsedGibbsSampler` runs the collapsed Gibbs sweeps on one
token-loop lane of :mod:`repro.sampling.runtime`, picked when it is
built from its ``engine=`` argument (also taken by every model class)
and the kernel's paths: ``"reference"`` runs the literal Algorithm 1
loop kept as the exactness oracle; ``"fast"`` (the default) runs the
dense lane over the kernel's :class:`FastKernelPath`, draw-for-draw
identical to the reference; ``"alias"`` runs the stale-alias/
Metropolis-Hastings lane for bijective Source-LDA, amortized O(1) per
token and distributionally equivalent.  The pick falls back one step
where a kernel has no path: alias → dense (every kernel but bijective
Source-LDA) and dense → reference (kernels without a fast path); both
fallbacks are draw-for-draw identical to the reference.
"""

from repro.sampling.alias import (alias_draw, build_alias_rows,
                                  build_alias_table)
from repro.sampling.fast_engine import FastKernelPath
from repro.sampling.gibbs import (ENGINES, CollapsedGibbsSampler,
                                  TopicWeightKernel,
                                  asymmetric_dirichlet_log_likelihood,
                                  symmetric_dirichlet_log_likelihood)
from repro.sampling.integration import DEFAULT_STEPS, LambdaGrid
from repro.sampling.parallel import WorkerPool, chunk_bounds
from repro.sampling.prefix_sums import PrefixSumScan, blelloch_exclusive_scan
from repro.sampling.rng import (categorical, document_rng,
                                document_seed_sequence, ensure_rng,
                                ensure_seed_sequence)
from repro.sampling.scans import ScanStrategy, SerialScan
from repro.sampling.simple_parallel import (SimpleParallelScan,
                                            blocked_inclusive_scan)
from repro.sampling.state import GibbsState

__all__ = [
    "CollapsedGibbsSampler",
    "DEFAULT_STEPS",
    "ENGINES",
    "FastKernelPath",
    "GibbsState",
    "LambdaGrid",
    "PrefixSumScan",
    "ScanStrategy",
    "SerialScan",
    "SimpleParallelScan",
    "TopicWeightKernel",
    "WorkerPool",
    "alias_draw",
    "asymmetric_dirichlet_log_likelihood",
    "blelloch_exclusive_scan",
    "blocked_inclusive_scan",
    "build_alias_rows",
    "build_alias_table",
    "categorical",
    "chunk_bounds",
    "document_rng",
    "document_seed_sequence",
    "ensure_rng",
    "ensure_seed_sequence",
    "symmetric_dirichlet_log_likelihood",
]
