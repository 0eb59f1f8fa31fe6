"""The Wikipedia-corpus experiments (Section IV.D, Fig. 8a-e).

A corpus is generated by the Source-LDA process from ``K`` topics chosen
out of a ``B``-topic MedlinePlus-style knowledge source.  Models run in two
conditions:

* **mixed ("Unk")** — models receive the full ``B``-topic superset (plus
  unlabeled topics where the model supports them) and must find the right
  subset;
* **bijective ("Exact")** — models receive exactly the ``K`` generating
  topics.

Scored by correct token assignments (Fig. 8a/b), summed sorted-theta JS
divergence (Fig. 8d/e) and PMI coherence across topic counts (Fig. 8c).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.bijective import BijectiveSourceLDA
from repro.core.source_lda import SourceLDA
from repro.datasets.synthetic import (SyntheticCorpus,
                                      generate_source_lda_corpus,
                                      restrict_source_to_truth)
from repro.experiments.config import LAPTOP, ExperimentScale
from repro.experiments.reporting import format_table
from repro.knowledge.source import KnowledgeSource
from repro.knowledge.wikipedia import SyntheticWikipedia
from repro.metrics.accuracy import (align_topics_by_js, correct_assignments,
                                    labeled_accuracy, map_assignments)
from repro.metrics.coherence import model_pmi
from repro.metrics.divergence import sorted_theta_js_total
from repro.models.base import FittedTopicModel, default_alpha, default_beta
from repro.models.ctm import CTM
from repro.models.eda import EDA
from repro.models.lda import LDA


def make_medline_style_source(scale: ExperimentScale,
                              seed: int = 0) -> KnowledgeSource:
    """A B-topic knowledge source shaped like the MedlinePlus collection."""
    from repro.knowledge.medline import medlineplus_topics
    labels = medlineplus_topics(scale.superset_size)
    wikipedia = SyntheticWikipedia(
        list(labels), article_length=scale.article_length,
        core_vocab_size=20,
        background_vocab_size=max(60, scale.superset_size * 3),
        seed=seed)
    return wikipedia.knowledge_source()


@dataclass(frozen=True)
class ModelScore:
    """One bar of Fig. 8(a)/(b)/(d)/(e)."""

    name: str
    correct_assignments: int
    accuracy: float
    theta_js_total: float


@dataclass
class WikipediaCorpusResult:
    """Scores for one condition (mixed or bijective)."""

    condition: str
    scores: list[ModelScore] = field(default_factory=list)
    total_tokens: int = 0

    def by_name(self, name: str) -> ModelScore:
        for score in self.scores:
            if score.name == name:
                return score
        raise KeyError(name)


def _score_labeled(name: str, model: FittedTopicModel,
                   data: SyntheticCorpus) -> ModelScore:
    accuracy = labeled_accuracy(model.flat_assignments(),
                                model.topic_labels, data.token_topics,
                                data.chosen_topics)
    return ModelScore(
        name=name,
        correct_assignments=int(round(accuracy * data.token_topics.size)),
        accuracy=accuracy,
        theta_js_total=sorted_theta_js_total(data.document_theta,
                                             model.theta))


def _score_lda(name: str, model: FittedTopicModel,
               data: SyntheticCorpus,
               candidate_source: KnowledgeSource) -> ModelScore:
    """Plain LDA scored after the paper's JS-divergence topic mapping.

    "JS divergence was used to map each LDA topic to its best matching
    Wikipedia topic" — each anonymous topic receives the label of the
    JS-closest *source* distribution (not the oracle generating
    distribution), then tokens are compared through labels.
    """
    from repro.knowledge.distributions import source_hyperparameters
    counts = candidate_source.count_matrix(model.vocabulary)
    smoothed = source_hyperparameters(counts)
    references = smoothed / smoothed.sum(axis=1, keepdims=True)
    mapping = align_topics_by_js(model.phi, references)
    mapped_labels = tuple(candidate_source.labels[int(m)] for m in mapping)
    accuracy = labeled_accuracy(model.flat_assignments(), mapped_labels,
                                data.token_topics, data.chosen_topics)
    return ModelScore(
        name=name,
        correct_assignments=int(round(accuracy * data.token_topics.size)),
        accuracy=accuracy,
        theta_js_total=sorted_theta_js_total(data.document_theta,
                                             model.theta))


def generate_experiment_corpus(scale: ExperimentScale,
                               source: KnowledgeSource,
                               mu: float = 0.7, sigma: float = 0.3,
                               seed: int = 0) -> SyntheticCorpus:
    """The Section IV.D ground-truth corpus (K of B topics)."""
    return generate_source_lda_corpus(
        source, num_topics=scale.generating_topics,
        num_documents=scale.num_documents,
        avg_document_length=scale.avg_document_length,
        alpha=0.5, mu=mu, sigma=sigma, seed=seed)


def run_mixed_condition(scale: ExperimentScale = LAPTOP,
                        source: KnowledgeSource | None = None,
                        data: SyntheticCorpus | None = None,
                        seed: int = 0) -> WikipediaCorpusResult:
    """Fig. 8(a)/(d): models get the whole superset ("Unk" tags)."""
    if source is None:
        source = make_medline_style_source(scale, seed)
    if data is None:
        data = generate_experiment_corpus(scale, source, seed=seed)
    corpus = data.corpus
    k = data.num_topics
    beta = default_beta(corpus.vocab_size)
    result = WikipediaCorpusResult(condition="mixed",
                                   total_tokens=data.token_topics.size)

    # The paper's alpha = 50 / T uses each model's own topic count.
    src = SourceLDA(source, num_unlabeled_topics=k, mu=0.7, sigma=0.3,
                    alpha=default_alpha(k + len(source)), beta=beta,
                    calibration_draws=4, reduce_topics=True).fit(
        corpus, iterations=scale.iterations, seed=seed)
    result.scores.append(_score_labeled("SRC-Unk", src, data))

    eda = EDA(source, alpha=default_alpha(len(source))).fit(
        corpus, iterations=scale.iterations, seed=seed)
    result.scores.append(_score_labeled("EDA-Unk", eda, data))

    ctm = CTM(source, num_free_topics=k, top_n_words=10_000,
              alpha=default_alpha(k + len(source)), beta=beta).fit(
        corpus, iterations=scale.iterations, seed=seed)
    result.scores.append(_score_labeled("CTM-Unk", ctm, data))

    # LDA-Unk matches Source-LDA's total topic budget (K + B), as all
    # "Unk" models run with the same superset-sized topic space.
    lda_topics = k + len(source)
    lda = LDA(num_topics=lda_topics, alpha=default_alpha(lda_topics),
              beta=beta).fit(corpus, iterations=scale.iterations,
                             seed=seed)
    result.scores.append(_score_lda("LDA-Unk", lda, data, source))
    return result


def run_bijective_condition(scale: ExperimentScale = LAPTOP,
                            source: KnowledgeSource | None = None,
                            data: SyntheticCorpus | None = None,
                            seed: int = 0) -> WikipediaCorpusResult:
    """Fig. 8(b)/(e): models get exactly the generating topics ("Exact")."""
    if source is None:
        source = make_medline_style_source(scale, seed)
    if data is None:
        data = generate_experiment_corpus(scale, source, seed=seed)
    exact_source = restrict_source_to_truth(source, data)
    corpus = data.corpus
    k = data.num_topics
    alpha = default_alpha(k)
    beta = default_beta(corpus.vocab_size)
    result = WikipediaCorpusResult(condition="bijective",
                                   total_tokens=data.token_topics.size)

    src = SourceLDA(exact_source, num_unlabeled_topics=0, mu=0.7,
                    sigma=0.3, alpha=alpha, beta=beta,
                    calibration_draws=4, reduce_topics=False).fit(
        corpus, iterations=scale.iterations, seed=seed)
    result.scores.append(_score_labeled("SRC-Exact", src, data))

    eda = EDA(exact_source, alpha=alpha).fit(
        corpus, iterations=scale.iterations, seed=seed)
    result.scores.append(_score_labeled("EDA-Exact", eda, data))

    ctm = CTM(exact_source, num_free_topics=0, top_n_words=10_000,
              alpha=alpha, beta=beta).fit(
        corpus, iterations=scale.iterations, seed=seed)
    result.scores.append(_score_labeled("CTM-Exact", ctm, data))

    lda = LDA(num_topics=k, alpha=alpha, beta=beta).fit(
        corpus, iterations=scale.iterations, seed=seed)
    result.scores.append(_score_lda("LDA-Exact", lda, data, exact_source))
    return result


@dataclass
class PmiSweepResult:
    """Fig. 8(c): PMI coherence across topic counts."""

    topic_counts: list[int]
    series: dict[str, list[float]]


def run_pmi_sweep(scale: ExperimentScale = LAPTOP,
                  topic_counts: list[int] | None = None,
                  seed: int = 0) -> PmiSweepResult:
    """Fig. 8(c): SRC-Exact, SRC-Unk and LDA PMI vs number of topics."""
    if topic_counts is None:
        base = scale.generating_topics
        topic_counts = [base, base + base // 4, base + base // 2,
                        base + 3 * base // 4, 2 * base]
    source = make_medline_style_source(scale, seed)
    series: dict[str, list[float]] = {"SRC-Exact": [], "SRC-Unk": [],
                                      "LDA": []}
    for index, k in enumerate(topic_counts):
        data = generate_source_lda_corpus(
            source, num_topics=min(k, len(source)),
            num_documents=scale.num_documents,
            avg_document_length=scale.avg_document_length,
            alpha=0.5, mu=1.0, sigma=0.0, seed=seed + index)
        corpus = data.corpus
        alpha = default_alpha(data.num_topics)
        beta = default_beta(corpus.vocab_size)
        exact_source = restrict_source_to_truth(source, data)

        exact = BijectiveSourceLDA(exact_source, alpha=alpha).fit(
            corpus, iterations=scale.iterations, seed=seed)
        series["SRC-Exact"].append(model_pmi(exact, corpus))

        unk = SourceLDA(source, num_unlabeled_topics=0, mu=0.7, sigma=0.3,
                        alpha=alpha, beta=beta, calibration_draws=4,
                        reduce_topics=False).fit(
            corpus, iterations=scale.iterations, seed=seed)
        used = unk.topics_used(min_tokens=max(
            2, corpus.num_tokens // (10 * len(source))))
        series["SRC-Unk"].append(model_pmi(unk, corpus,
                                           topics=used or None))

        lda = LDA(num_topics=data.num_topics, alpha=alpha, beta=beta).fit(
            corpus, iterations=scale.iterations, seed=seed)
        series["LDA"].append(model_pmi(lda, corpus))
    return PmiSweepResult(topic_counts=list(topic_counts), series=series)


def format_condition(result: WikipediaCorpusResult) -> str:
    rows = [[s.name, s.correct_assignments,
             f"{100 * s.accuracy:.1f}%", s.theta_js_total]
            for s in result.scores]
    return format_table(
        ["model", "correct assignments", "accuracy", "theta JS total"],
        rows,
        title=f"Fig. 8 ({result.condition}) over "
              f"{result.total_tokens} tokens")
