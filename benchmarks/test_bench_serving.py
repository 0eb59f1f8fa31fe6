"""Serving-layer throughput: the save -> load -> serve path.

Regenerates: docs/sec and tokens/sec of a
:class:`repro.serving.InferenceSession` answering batched theta queries
for raw unseen text against a persisted-and-reloaded bijective
Source-LDA model — at several request sizes (documents per ``infer``
call, single-worker, the query-time counterpart of the training-engine
bench in ``test_bench_sweep_speed.py``) and at several **worker
counts** through the worker-sharded :mod:`repro.serving.parallel`
layer, serving a memory-mapped schema-v2 artifact.  Each request
size's rate is the best of ``TIMING_REPEATS`` passes interleaved across
sizes, with the spread ``(best - worst) / best`` recorded as
``timing_spread``.

The workloads exercise every stage of the serving subsystem: the fitted
model round-trips through ``save_model``/``load_model`` (compressed
``.npz`` + schema-versioned manifest, plus the v2 uncompressed phi
member), queries are tokenized and vocabulary-mapped with the OOV-drop
policy, and fold-in runs on the sparse bucketed lane of
:class:`repro.serving.FoldInEngine` with alias-table prior draws.

Shapes asserted: throughput is finite and positive everywhere; larger
requests are not a pessimization; a v1-artifact load and a mmap v2 load serve
**bit-identical theta on a fixed seed regardless of worker count** (the
tentpole determinism contract); and on multi-core machines workers=4
beats workers=1 (on a single-core machine real parallel speedup is
physically impossible — the bench then only requires the sharded path
to stay within IPC-overhead noise of serial, and records the core
count so the gate is honest).  Per-worker utilization
(``busy_seconds / wall`` from the telemetry recorder) is stamped into
the result so the flat-scaling-on-one-core caveat is machine-visible:
there, the fractions sum to ~1 at every worker count.
"""

from __future__ import annotations

import numpy as np
from _shared import record

from repro.serving import available_cpus
from repro.experiments import (format_parallel_serving,
                               format_serving_throughput,
                               run_parallel_serving,
                               run_serving_throughput)
from repro.experiments.performance import TIMING_REPEATS

REQUEST_SIZES = (1, 8, 32)
WORKER_COUNTS = (1, 2, 4)
FOLDIN_ITERATIONS = 20


def test_bench_serving(benchmark):
    result = benchmark.pedantic(
        lambda: run_serving_throughput(request_sizes=REQUEST_SIZES,
                                       foldin_iterations=FOLDIN_ITERATIONS,
                                       seed=0),
        rounds=1, iterations=1)
    record(
        "serving_throughput", format_serving_throughput(result),
        metrics={
            "docs_per_second": {str(row.request_size): row.docs_per_second
                                for row in result.rows},
            "tokens_per_second": {str(row.request_size):
                                  row.tokens_per_second
                                  for row in result.rows},
            "timing_spread": {str(row.request_size): row.spread
                              for row in result.rows},
        },
        params={
            "request_sizes": REQUEST_SIZES,
            "repeats": TIMING_REPEATS,
            "num_topics": result.num_topics,
            "num_query_documents": result.num_query_documents,
            "query_document_length": result.query_document_length,
            "foldin_iterations": result.foldin_iterations,
            "mode": result.mode,
            "model_class": result.model_class,
        })

    rates = [row.docs_per_second for row in result.rows]
    assert all(np.isfinite(rate) and rate > 0 for rate in rates)
    # 32-document requests must not lose to one-document requests.
    assert rates[-1] >= rates[0] * 0.8


def test_bench_parallel_serving(benchmark):
    result = benchmark.pedantic(
        lambda: run_parallel_serving(worker_counts=WORKER_COUNTS,
                                     foldin_iterations=FOLDIN_ITERATIONS,
                                     seed=0),
        rounds=1, iterations=1)
    record(
        "serving_parallel", format_parallel_serving(result),
        metrics={
            "docs_per_second": {str(row.num_workers): row.docs_per_second
                                for row in result.rows},
            "tokens_per_second": {str(row.num_workers):
                                  row.tokens_per_second
                                  for row in result.rows},
            "deterministic": result.deterministic,
            "phi_mmapped": result.phi_mmapped,
            # Neither marker ("per_second" / "_seconds") matches these
            # paths, so utilization never gates in compare.py — it is
            # context for reading the throughput rows.
            "worker_utilization": {
                str(row.num_workers): row.worker_utilization
                for row in result.rows},
            "pool_utilization": {
                str(row.num_workers): row.pool_utilization
                for row in result.rows},
        },
        params={
            "worker_counts": WORKER_COUNTS,
            "num_cores": result.num_cores,
            "num_topics": result.num_topics,
            "num_query_documents": result.num_query_documents,
            "query_document_length": result.query_document_length,
            "foldin_iterations": result.foldin_iterations,
            "mode": result.mode,
        })

    by_workers = {row.num_workers: row.docs_per_second
                  for row in result.rows}
    assert all(np.isfinite(rate) and rate > 0
               for rate in by_workers.values())
    # The tentpole contract: v1 and mmap-v2 artifacts serve the same
    # bits on a fixed seed at every worker count.
    assert result.deterministic
    assert result.phi_mmapped
    if available_cpus() >= 2:
        # Real cores available (affinity/cgroup-aware count): sharding
        # must actually pay.  The small margin absorbs shared-CI noise
        # on 2-core runners; genuine multicore speedup (~2-3x at 4
        # cores) clears it by a mile.
        assert by_workers[4] > by_workers[1] * 0.95
    else:
        # Single core: no speedup is physically possible; the sharded
        # path must merely stay within IPC overhead of serial.
        assert by_workers[4] >= by_workers[1] * 0.5
    # Utilization sanity: every fraction is positive, and no worker
    # claims (much) more busy time than the wall clock that contained
    # it (small timer skew between parent and worker clocks allowed).
    for row in result.rows:
        assert row.worker_utilization, "recorder captured no workers"
        assert len(row.worker_utilization) <= row.num_workers
        for fraction in row.worker_utilization.values():
            assert 0.0 < fraction < 1.25
        assert 0.0 < row.pool_utilization <= 1.25
