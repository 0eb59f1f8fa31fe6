"""Sweep-engine throughput: alias vs fast vs reference on Source-LDA.

Regenerates: tokens/sec for the reference Algorithm 1 loop, the fast
sweep engine (incremental lambda-integration caches,
``repro.sampling.fast_engine``) and the alias/MH engine
(``repro.sampling.alias_engine``) on a fixed B=2000 / A=16 Source-LDA
corpus — the per-token regime of the paper's Section IV.E scaling runs.
The reference pays ``O(S * A)`` per token, the fast engine ``O(S)``, and
the alias engine O(1) amortized (stale-proposal draws corrected by
Metropolis-Hastings tests against the exact conditional).

A second bench sweeps B over {500, 2000, 8000, 16000} with the
reference engine omitted (its O(S * A) cost would dominate for no
information): the fast engine's per-token O(S) passes scale linearly
with B while the alias draws do not, so alias/fast must exceed 1.0 at
B=8000, with the MH acceptance rate stamped alongside.

Workload notes: the document-topic prior is the paper's ``alpha = 50/T``
and the vocabulary is 2000 words for the 2000 80-token articles — a
vocabulary-to-article ratio in the spirit of the paper's corpora (with a
few hundred words every word would appear in a large fraction of all
articles, which no real knowledge source exhibits and which inflates the
alias engine's per-word article-correction support).

Each engine's tokens/sec is the best of ``TIMING_REPEATS`` fresh chains
(``sweeps`` timed sweeps each), with the repeats interleaved across
engines so every engine is timed under the same host drift; the
per-engine spread ``(best - worst) / best`` is recorded as
``timing_spread``.

Shape asserted: the fast engine stays byte-identical to the reference
and at least 5x faster; the alias engine keeps the count matrices
consistent and beats the fast engine's tokens/sec.  The recorded
tokens/sec give future PRs a perf trajectory to regress against.
"""

from __future__ import annotations

from _shared import record

from repro.experiments import (format_engine_speedup, format_topic_grid,
                               run_engine_speedup, run_topic_grid)
from repro.experiments.performance import TIMING_REPEATS

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
            "alias_tokens_per_second": result.alias_tokens_per_second,
            "fast_vs_reference": result.speedup,
            "alias_vs_reference": result.alias_speedup,
            "alias_vs_fast": result.alias_vs_fast,
            "fast_exact": result.exact,
            "alias_consistent": result.alias_consistent,
            "timing_spread": result.timing_spread,
        },
        params={**SPEEDUP_PARAMS, "num_tokens": result.num_tokens,
                "repeats": TIMING_REPEATS})

    assert result.exact
    assert result.alias_consistent
    assert result.speedup >= 5.0
    assert result.alias_vs_fast > 1.0


def test_bench_sweep_speed_topic_grid(benchmark):
    result = benchmark.pedantic(
        lambda: run_topic_grid(**GRID_PARAMS),
        rounds=1, iterations=1)
    record(
        "sweep_speed_topic_grid", format_topic_grid(result),
        metrics={
            "fast_tokens_per_second": {str(row.num_topics):
                                       row.fast_tokens_per_second
                                       for row in result.rows},
            "alias_tokens_per_second": {str(row.num_topics):
                                        row.alias_tokens_per_second
                                        for row in result.rows},
            "alias_vs_fast": {str(row.num_topics): row.alias_vs_fast
                              for row in result.rows},
            "alias_acceptance_rate": {str(row.num_topics):
                                      row.alias_acceptance_rate
                                      for row in result.rows},
            "timing_spread": {str(row.num_topics): row.timing_spread
                              for row in result.rows},
        },
        params={**GRID_PARAMS, "num_tokens": result.num_tokens,
                "repeats": TIMING_REPEATS})

    assert all(row.alias_consistent for row in result.rows)
    # The alias-engine claim: O(1)-amortized MH proposals beat the fast
    # engine's O(S) weight pass and cumulative sum once B is large.
    by_topics = {row.num_topics: row for row in result.rows}
    assert by_topics[8000].alias_vs_fast > 1.0
    # A healthy MH chain accepts most proposals; a collapse here means
    # the stale tables have drifted from the exact conditional.
    assert all(row.alias_acceptance_rate > 0.5 for row in result.rows)

