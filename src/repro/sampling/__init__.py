"""Sampling substrate: Gibbs state, sweep engines, scans, quadrature.

Three sweep engines run the collapsed Gibbs sweeps (selected with the
``engine=`` argument of :class:`CollapsedGibbsSampler` and every model
class): ``"reference"`` is the literal Algorithm 1 loop kept as the
exactness oracle; ``"fast"`` (the default) is the batched loop of
:mod:`repro.sampling.fast_engine`, draw-for-draw identical to the
reference; ``"alias"`` is the stale-alias/Metropolis-Hastings sampler
of :mod:`repro.sampling.alias_engine` for bijective Source-LDA,
amortized O(1) per token and distributionally equivalent.  Engines fall
back one step where a kernel has no path: alias → fast (every kernel
but bijective Source-LDA) and fast → reference (kernels without a fast
path); both fallbacks are draw-for-draw identical to the reference.
"""

from repro.sampling.alias import (alias_draw, build_alias_rows,
                                  build_alias_table)
from repro.sampling.fast_engine import FastKernelPath, FastSweepEngine
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
    "FastSweepEngine",
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
