"""Shared topic-model API and the one Gibbs fit behind it.

Every model — the LDA/EDA/CTM baselines and the three Source-LDA variants —
exposes the same surface: construct with hyperparameters, ``fit(corpus)``,
get back a :class:`FittedTopicModel` holding ``phi``, ``theta``, per-token
assignments and (for knowledge-source models) per-topic labels.

The models differ only in their kernel (Algorithm 1 is one sweep
structure), so :meth:`TopicModel.fit` is written once: a model builds
its :class:`GibbsChain` — the initialized state, its kernel, the topic
labels and its own metadata — and the shared fit samples it and
assembles the result.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.sampling.gibbs import (CollapsedGibbsSampler, TopicWeightKernel,
                                  check_engine)
from repro.sampling.rng import ensure_rng
from repro.sampling.runtime import check_backend
from repro.sampling.scans import ScanStrategy
from repro.sampling.state import GibbsState
from repro.text.corpus import Corpus
from repro.text.vocabulary import Vocabulary


@dataclass
class FittedTopicModel:
    """The result of fitting a topic model.

    Attributes
    ----------
    phi:
        Topic-word distributions, shape ``(T, V)``; rows sum to 1.
    theta:
        Document-topic distributions, shape ``(D, T)``; rows sum to 1.
    assignments:
        Final per-token topic assignment, one array per document.
    topic_labels:
        Length-``T`` labels; ``None`` marks an unlabeled (latent) topic.
    log_likelihoods:
        Complete-data log-likelihood trace, if tracked during fitting.
    vocabulary:
        The corpus vocabulary the distributions are indexed by.
    metadata:
        Model-specific extras (e.g. which superset topics survived
        reduction).
    """

    phi: np.ndarray
    theta: np.ndarray
    assignments: list[np.ndarray]
    vocabulary: Vocabulary
    topic_labels: tuple[str | None, ...] = ()
    log_likelihoods: list[float] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Lazy phi views (the sharded-artifact loads of
        # repro.serving.sharding, marked by `is_lazy`) expose shape/
        # dtype/row access without holding the matrix; coercing them
        # through np.asarray would materialize — and for an out-of-core
        # model, OOM — so they pass through as-is.
        if not getattr(self.phi, "is_lazy", False):
            self.phi = np.asarray(self.phi, dtype=np.float64)
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.phi.ndim != 2 or self.theta.ndim != 2:
            raise ValueError("phi and theta must be 2-d")
        if self.phi.shape[0] != self.theta.shape[1]:
            raise ValueError(
                f"phi has {self.phi.shape[0]} topics but theta has "
                f"{self.theta.shape[1]}")
        if not self.topic_labels:
            self.topic_labels = (None,) * self.num_topics
        if len(self.topic_labels) != self.num_topics:
            raise ValueError(
                f"expected {self.num_topics} topic labels, got "
                f"{len(self.topic_labels)}")

    @property
    def num_topics(self) -> int:
        return int(self.phi.shape[0])

    @property
    def num_documents(self) -> int:
        return int(self.theta.shape[0])

    @property
    def vocab_size(self) -> int:
        return int(self.phi.shape[1])

    def top_word_ids(self, topic: int, n: int = 10) -> np.ndarray:
        """Ids of the ``n`` most probable words of ``topic``."""
        row = self.phi[topic]
        order = np.argsort(-row, kind="stable")
        return order[:n]

    def top_words(self, topic: int, n: int = 10) -> list[str]:
        """The ``n`` most probable words of ``topic``."""
        return self.vocabulary.decode(self.top_word_ids(topic, n))

    def label_of(self, topic: int) -> str | None:
        return self.topic_labels[topic]

    def labeled_topic_indices(self) -> list[int]:
        """Indices of topics carrying a knowledge-source label."""
        return [t for t, label in enumerate(self.topic_labels)
                if label is not None]

    def topics_used(self, min_tokens: int = 1) -> list[int]:
        """Topics with at least ``min_tokens`` assigned tokens."""
        counts = np.zeros(self.num_topics)
        for doc_assignments in self.assignments:
            np.add.at(counts, doc_assignments, 1)
        return [t for t in range(self.num_topics)
                if counts[t] >= min_tokens]

    def flat_assignments(self) -> np.ndarray:
        """All token assignments concatenated in corpus order."""
        if not self.assignments:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self.assignments)

    def __repr__(self) -> str:
        labeled = len(self.labeled_topic_indices())
        return (f"{type(self).__name__}(topics={self.num_topics}, "
                f"labeled={labeled}, docs={self.num_documents}, "
                f"vocab={self.vocab_size})")


FitCallback = Callable[[int, "np.ndarray"], None]


def posterior_theta(state: GibbsState, alpha: float) -> np.ndarray:
    """Equation 1's ``theta`` estimate: ``(n_dt + α) / (n_d + K α)``.

    Stays dense on purpose: unlike the phi/likelihood snapshots (whose
    per-entry special functions make nonzero gathers pay), theta is one
    add and one divide per entry into a dense result — a sparse gather
    would scan the same ``(D, T)`` entries and win nothing.
    """
    totals = state.doc_lengths[:, np.newaxis] \
        + state.num_topics * alpha
    return (state.nd + alpha) / totals


@dataclass
class GibbsChain:
    """What one model's fit samples, built before the first sweep.

    Attributes
    ----------
    state:
        The initialized count state.
    kernel:
        The model's weight kernel, bound to ``state``.
    topic_labels:
        Per-topic labels for the fitted model (``()`` for none).
    metadata:
        The model's own ``metadata`` entries; the shared fit puts them
        after ``alpha``.
    """

    state: GibbsState
    kernel: TopicWeightKernel
    topic_labels: tuple[str | None, ...] = ()
    metadata: dict[str, Any] = field(default_factory=dict)


class TopicModel(ABC):
    """Abstract base: configure at construction, then ``fit`` a corpus.

    A subclass calls ``super().__init__(scan, engine, backend)`` from
    its constructor and implements :meth:`_chain`; :meth:`fit` does the
    rest.
    """

    alpha: float
    #: Whether ``metadata['source_word_counts']`` holds the final
    #: ``(T, V)`` word-topic counts (the knowledge-source models).
    _records_word_counts = False

    def __init__(self, scan: ScanStrategy | None, engine: str,
                 backend: str | None) -> None:
        check_engine(engine)
        # One frame deeper than a direct call: the subclass constructor
        # sits between this frame and the line that built the model.
        check_backend(backend, stacklevel=4)
        self._scan = scan
        self.engine = engine
        self.backend = backend

    @abstractmethod
    def _chain(self, corpus: Corpus,
               rng: np.random.Generator) -> GibbsChain:
        """Build and initialize the state and kernel ``fit`` samples."""

    def _finish(self, fitted: FittedTopicModel, state: GibbsState,
                rng: np.random.Generator) -> None:
        """Post-sampling step on the fitted model (none by default)."""

    def fit(self, corpus: Corpus, iterations: int = 100,
            seed: int | np.random.Generator | None = None,
            track_log_likelihood: bool = False,
            snapshot_iterations: Sequence[int] = (),
            ) -> FittedTopicModel:
        """Run inference on ``corpus`` and return the fitted model.

        ``snapshot_iterations`` asks the model to record ``phi`` snapshots
        (under ``metadata['snapshots']``) after those sweep indices — used
        by the Fig. 6 visualization of topics mid-inference.
        """
        rng = ensure_rng(seed)
        chain = self._chain(corpus, rng)
        state, kernel = chain.state, chain.kernel
        sampler = CollapsedGibbsSampler(state, kernel, rng, scan=self._scan,
                                        engine=self.engine)
        log_likelihoods, snapshots = sampler.run_with_snapshots(
            iterations, snapshot_iterations, track_log_likelihood)
        metadata: dict[str, Any] = {"snapshots": snapshots}
        if self._records_word_counts:
            metadata["source_word_counts"] = state.nw.T
        metadata["iteration_seconds"] = sampler.timings.seconds
        metadata["alpha"] = self.alpha
        metadata.update(chain.metadata)
        fitted = FittedTopicModel(
            phi=kernel.phi(),
            theta=posterior_theta(state, self.alpha),
            assignments=state.assignments_by_document(),
            vocabulary=corpus.vocabulary,
            topic_labels=chain.topic_labels,
            log_likelihoods=log_likelihoods,
            metadata=metadata)
        self._finish(fitted, state, rng)
        return fitted

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parameters = ", ".join(f"{k}={v!r}"
                               for k, v in sorted(vars(self).items())
                               if not k.startswith("_"))
        return f"{type(self).__name__}({parameters})"


def default_alpha(num_topics: int) -> float:
    """The paper's symmetric document-topic prior, ``50 / T``."""
    if num_topics < 1:
        raise ValueError(f"num_topics must be >= 1, got {num_topics}")
    return 50.0 / num_topics


def default_beta(vocab_size: int) -> float:
    """The paper's symmetric topic-word prior, ``200 / V``."""
    if vocab_size < 1:
        raise ValueError(f"vocab_size must be >= 1, got {vocab_size}")
    return 200.0 / vocab_size
