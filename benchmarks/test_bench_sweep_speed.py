"""Sweep-engine throughput: sparse vs fast vs reference on Source-LDA.

Regenerates: tokens/sec for the reference Algorithm 1 loop, the fast
sweep engine (incremental lambda-integration caches,
``repro.sampling.fast_engine``) and the sparse bucketed engine
(``repro.sampling.sparse_engine``) on a fixed B=2000 / A=16 Source-LDA
corpus — the per-token regime of the paper's Section IV.E scaling runs.
The reference pays ``O(S * A)`` per token, the fast engine ``O(S)``, and
the sparse engine walks only the nonzero count buckets plus the
epsilon-floor prior mass.

A second bench sweeps B over {500, 2000, 8000, 16000} with the
reference engine omitted (its O(S * A) cost would dominate for no
information): the fast engine's per-token O(S) passes scale linearly
with B while the sparse bucket walks do not, so the sparse/fast ratio
must *grow* across the grid — the ROADMAP "remaining gaps" claim, now
recorded.  The same grid times the O(1)-amortized alias/MH engine
(``repro.sampling.alias_engine``): its stale-proposal draws beat the
sparse bucket walk once B is large enough that scanning the nonzero
topics of every row dominates, so alias/sparse must exceed 1.0 at
B=8000 — the alias-engine PR's headline claim, with the MH acceptance
rate stamped alongside.

Workload notes: the document-topic prior is the paper's ``alpha = 50/T``
and the vocabulary is 2000 words for the 2000 80-token articles — a
vocabulary-to-article ratio in the spirit of the paper's corpora (with a
few hundred words every word would appear in a large fraction of all
articles, which no real knowledge source exhibits and which inflates the
sparse engine's per-word correction lists).

Shape asserted: the fast engine stays byte-identical to the reference
and at least 5x faster; the sparse engine keeps the count matrices
consistent and beats the fast engine's tokens/sec (the bucketed draw
skips the fast engine's per-token O(S) passes — including the full
cumulative sum — except on the minority of draws that land in the prior
floor).  The recorded tokens/sec give future PRs a perf trajectory to
regress against.
"""

from __future__ import annotations

from _shared import record

from repro.experiments import (format_engine_speedup,
                               format_sparse_scaling, run_engine_speedup,
                               run_sparse_scaling)

TOPIC_GRID = (500, 2000, 8000, 16000)

#: Single source of truth for each workload: passed to the run and
#: recorded verbatim in the JSON result, so the two cannot drift.
SPEEDUP_PARAMS = dict(num_topics=2000, approximation_steps=16,
                      num_documents=30, document_length=60,
                      vocab_size=2000, sweeps=5, seed=0)
GRID_PARAMS = dict(topic_grid=TOPIC_GRID, approximation_steps=16,
                   num_documents=20, document_length=50,
                   vocab_size=1000, sweeps=2, seed=0)


def test_bench_sweep_speed(benchmark):
    result = benchmark.pedantic(
        lambda: run_engine_speedup(**SPEEDUP_PARAMS),
        rounds=1, iterations=1)
    record(
        "sweep_speed", format_engine_speedup(result),
        metrics={
            "reference_tokens_per_second":
                result.reference_tokens_per_second,
            "fast_tokens_per_second": result.fast_tokens_per_second,
            "sparse_tokens_per_second": result.sparse_tokens_per_second,
            "fast_vs_reference": result.speedup,
            "sparse_vs_reference": result.sparse_speedup,
            "sparse_vs_fast": result.sparse_vs_fast,
            "fast_exact": result.exact,
            "sparse_consistent": result.sparse_consistent,
        },
        params={**SPEEDUP_PARAMS, "num_tokens": result.num_tokens})

    assert result.exact
    assert result.sparse_consistent
    assert result.speedup >= 5.0
    assert result.sparse_vs_fast > 1.0


def test_bench_sweep_speed_topic_grid(benchmark):
    result = benchmark.pedantic(
        lambda: run_sparse_scaling(**GRID_PARAMS),
        rounds=1, iterations=1)
    record(
        "sweep_speed_topic_grid", format_sparse_scaling(result),
        metrics={
            "fast_tokens_per_second": {str(row.num_topics):
                                       row.fast_tokens_per_second
                                       for row in result.rows},
            "sparse_tokens_per_second": {str(row.num_topics):
                                         row.sparse_tokens_per_second
                                         for row in result.rows},
            "alias_tokens_per_second": {str(row.num_topics):
                                        row.alias_tokens_per_second
                                        for row in result.rows},
            "sparse_vs_fast": {str(row.num_topics): row.sparse_vs_fast
                               for row in result.rows},
            "alias_vs_sparse": {str(row.num_topics): row.alias_vs_sparse
                                for row in result.rows},
            "alias_acceptance_rate": {str(row.num_topics):
                                      row.alias_acceptance_rate
                                      for row in result.rows},
            "alias_auto_tokens_per_second": {
                str(row.num_topics): row.alias_auto_tokens_per_second
                for row in result.rows},
            "auto_vs_alias": {str(row.num_topics): row.auto_vs_alias
                              for row in result.rows},
        },
        params={**GRID_PARAMS, "num_tokens": result.num_tokens})

    assert all(row.sparse_consistent and row.alias_consistent
               for row in result.rows)
    ratios = [row.sparse_vs_fast for row in result.rows]
    # The ROADMAP claim this bench pins: the sparse advantage *grows*
    # with B (measured ~0.8 -> ~1.7 on this workload — the fast
    # engine's O(S) passes scale with B, the bucket walks do not).
    # The absolute ratios are recorded in the JSON but not gated on:
    # they depend on how the host's vectorized cumsum compares to
    # per-token Python overhead.
    assert ratios[-1] > ratios[0] * 1.2
    # The alias-engine claim: O(1)-amortized MH proposals overtake the
    # sparse bucket walk once B is large enough that scanning each
    # row's nonzero topics dominates the draw.
    by_topics = {row.num_topics: row for row in result.rows}
    assert by_topics[8000].alias_vs_sparse > 1.0
    # A healthy MH chain accepts most proposals; a collapse here means
    # the stale tables have drifted from the exact conditional.
    assert all(row.alias_acceptance_rate > 0.5 for row in result.rows)
    # rebuild_every="auto" stretches the table-rebuild cadence with B
    # (B // 64 past the default).  At the top of the grid the rebuilds
    # are what the fixed cadence pays for; auto must not *lose* to it
    # beyond timing noise anywhere, and its counts stay exact.
    assert all(row.alias_auto_consistent for row in result.rows)
    assert by_topics[16000].auto_vs_alias > 0.8

