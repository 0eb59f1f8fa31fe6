"""Ablation benches for the design choices EXPERIMENTS.md records under
"Ablations".

* lambda-integration grid size ``A`` (accuracy vs per-iteration cost — the
  paper's ``(T - K) A`` running-time overhead);
* the smoothing function ``g`` on/off inside inference;
* the superset-reduction document-frequency threshold;
* the Definition 3 smoothing constant ``epsilon``.
"""

from __future__ import annotations

import numpy as np
from _shared import record

from repro.core.bijective import BijectiveSourceLDA
from repro.core.lambda_calibration import calibrate_smoothing
from repro.core.priors import SourcePrior
from repro.core.source_lda import SourceLDA
from repro.datasets.synthetic import generate_source_lda_corpus
from repro.experiments import format_table
from repro.knowledge.distributions import (sample_topic_distribution,
                                           source_distribution,
                                           source_hyperparameters)
from repro.knowledge.wikipedia import SyntheticWikipedia
from repro.metrics.accuracy import token_accuracy
from repro.metrics.divergence import js_divergence
from repro.sampling.integration import LambdaGrid
from repro.sampling.rng import ensure_rng


def _source_and_data(num_topics=12, seed=5):
    names = [f"T{i:02d}" for i in range(num_topics)]
    source = SyntheticWikipedia(names, article_length=400,
                                seed=seed).knowledge_source()
    data = generate_source_lda_corpus(
        source, num_topics=None, num_documents=80,
        avg_document_length=60, alpha=0.5, mu=0.6, sigma=0.4, seed=seed)
    return source, data


def test_bench_ablation_grid(benchmark):
    """Accuracy and cost as the quadrature step count A varies."""
    source, data = _source_and_data()

    def run():
        rows = []
        for steps in (1, 3, 9, 17):
            grid = LambdaGrid.from_prior(0.6, 0.4, steps=steps)
            fitted = BijectiveSourceLDA(source, alpha=0.5,
                                        lambda_grid=grid).fit(
                data.corpus, iterations=25, seed=1)
            accuracy = token_accuracy(fitted.flat_assignments(),
                                      data.token_topics)
            seconds = float(np.mean(
                fitted.metadata["iteration_seconds"]))
            rows.append([steps, 100 * accuracy, seconds])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record("ablation_grid",
           format_table(["A (steps)", "accuracy %", "s/iteration"], rows,
                        title="Ablation - lambda quadrature steps"),
           metrics={"accuracy_percent": {str(r[0]): r[1] for r in rows},
                    "seconds_per_iteration": {str(r[0]): r[2]
                                              for r in rows}},
           params={"steps_grid": [r[0] for r in rows], "iterations": 25,
                   "seed": 1})
    accuracies = [row[1] for row in rows]
    # A handful of nodes already captures the integral.
    assert max(accuracies[1:]) - min(accuracies[1:]) < 12.0


def test_bench_ablation_smoothing(benchmark):
    """g on/off inside inference on a lambda-heterogeneous corpus."""
    source, data = _source_and_data(seed=6)
    prior = SourcePrior(source, data.corpus.vocabulary)
    grid = LambdaGrid.from_prior(0.6, 0.4)

    def run():
        rows = []
        smoothing = calibrate_smoothing(prior.hyperparameters, draws=8,
                                        rng=0)
        for label, g in (("identity", None), ("calibrated g", smoothing)):
            fitted = BijectiveSourceLDA(source, alpha=0.5,
                                        lambda_grid=grid,
                                        smoothing=g).fit(
                data.corpus, iterations=25, seed=1)
            accuracy = token_accuracy(fitted.flat_assignments(),
                                      data.token_topics)
            rows.append([label, 100 * accuracy])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record("ablation_smoothing",
           format_table(["smoothing", "accuracy %"], rows,
                        title="Ablation - g(lambda) smoothing"),
           metrics={"accuracy_percent": {r[0]: r[1] for r in rows}},
           params={"iterations": 25, "seed": 1})
    assert all(row[1] > 10.0 for row in rows)


def test_bench_ablation_reduction(benchmark):
    """Surviving topic counts across reduction thresholds."""
    source, _ = _source_and_data(seed=7)
    data = generate_source_lda_corpus(
        source, num_topics=4, num_documents=60, avg_document_length=60,
        alpha=0.5, mu=0.8, sigma=0.2, seed=7,
        vocabulary=source.vocabulary().freeze())

    def run():
        rows = []
        for min_documents in (0, 2, 5, 10):
            fitted = SourceLDA(source, num_unlabeled_topics=0, mu=0.8,
                               sigma=0.2, alpha=0.5,
                               min_documents=min_documents,
                               min_proportion=0.1,
                               calibration_draws=4).fit(
                data.corpus, iterations=20, seed=2)
            active = fitted.metadata["active_topics"]
            true_kept = sum(
                1 for t in active
                if fitted.topic_labels[int(t)] in data.chosen_topics)
            rows.append([min_documents, len(active), true_kept])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record("ablation_reduction",
           format_table(["min_documents", "kept topics", "true kept"],
                        rows, title="Ablation - superset reduction "
                                    "threshold (4 true topics of 12)"),
           metrics={"kept_topics": {str(r[0]): r[1] for r in rows},
                    "true_kept": {str(r[0]): r[2] for r in rows}},
           params={"true_topics": 4, "superset_size": 12,
                   "min_proportion": 0.1, "iterations": 20, "seed": 2})
    # Stricter thresholds keep fewer topics without losing the true ones.
    kept = [row[1] for row in rows]
    assert kept == sorted(kept, reverse=True)
    assert rows[1][2] == 4


def test_bench_ablation_epsilon(benchmark):
    """Definition 3's epsilon: draw divergence for unseen-word support."""
    source, _ = _source_and_data(seed=8)
    vocabulary = source.vocabulary()
    counts = source.count_matrix(vocabulary)[0]
    reference = source_distribution(counts)

    def run():
        rng = ensure_rng(0)
        rows = []
        for epsilon in (1e-4, 1e-2, 1e-1, 1.0):
            hyper = source_hyperparameters(counts, epsilon)
            draws = [js_divergence(
                sample_topic_distribution(hyper, rng), reference)
                for _ in range(60)]
            rows.append([epsilon, float(np.mean(draws))])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record("ablation_epsilon",
           format_table(["epsilon", "mean JS to source"], rows,
                        title="Ablation - Definition 3 epsilon"),
           metrics={"mean_js_to_source": {str(r[0]): r[1] for r in rows}},
           params={"draws": 60, "seed": 0})
    divergences = [row[1] for row in rows]
    # Larger epsilon leaks more mass to unseen words -> larger divergence.
    assert divergences[-1] > divergences[0]
