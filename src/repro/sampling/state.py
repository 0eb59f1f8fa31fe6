"""Collapsed-Gibbs count-matrix state.

The paper's samplers (Algorithm 1) maintain two count matrices — ``nw``
(word-topic) and ``nd`` (document-topic) — plus the per-token topic
assignments.  :class:`GibbsState` owns those arrays for a corpus flattened
into parallel token arrays, which is the layout every kernel in
:mod:`repro.models` and :mod:`repro.core` operates on.
"""

from __future__ import annotations

import numpy as np

from repro.text.corpus import Corpus


class GibbsState:
    """Assignments and sufficient statistics for collapsed Gibbs sampling.

    Attributes
    ----------
    words:
        Flattened token word-ids, shape ``(N,)``.
    doc_ids:
        Document index of every token, shape ``(N,)``.
    z:
        Current topic assignment of every token, shape ``(N,)``.
    nw:
        Word-topic counts, shape ``(V, T)``.
    nt:
        Per-topic totals ``nw.sum(axis=0)``, shape ``(T,)``.
    nd:
        Document-topic counts, shape ``(D, T)``.
    """

    def __init__(self, corpus: Corpus, num_topics: int) -> None:
        if num_topics < 1:
            raise ValueError(f"num_topics must be >= 1, got {num_topics}")
        self.num_topics = num_topics
        self.num_documents = len(corpus)
        self.vocab_size = corpus.vocab_size
        words = []
        doc_ids = []
        for doc in corpus:
            words.append(doc.word_ids)
            doc_ids.append(np.full(len(doc), doc.doc_id, dtype=np.int64))
        self.words = (np.concatenate(words) if words
                      else np.empty(0, dtype=np.int64))
        self.doc_ids = (np.concatenate(doc_ids) if doc_ids
                        else np.empty(0, dtype=np.int64))
        self.num_tokens = int(self.words.shape[0])
        self.z = np.full(self.num_tokens, -1, dtype=np.int64)
        self.nw = np.zeros((self.vocab_size, num_topics), dtype=np.float64)
        self.nt = np.zeros(num_topics, dtype=np.float64)
        self.nd = np.zeros((self.num_documents, num_topics),
                           dtype=np.float64)
        self._doc_lengths = np.bincount(
            self.doc_ids, minlength=self.num_documents).astype(np.float64)
        self._doc_lengths_view = self._read_only_view(self._doc_lengths)

    @staticmethod
    def _read_only_view(array: np.ndarray) -> np.ndarray:
        view = array.view()
        view.flags.writeable = False
        return view

    @property
    def doc_lengths(self) -> np.ndarray:
        """Tokens per document, shape ``(D,)`` (read-only view).

        Exposing the internal array directly would let callers corrupt a
        sufficient statistic the samplers never rebuild; writes through
        this view raise instead.
        """
        return self._doc_lengths_view

    @property
    def nw_view(self) -> np.ndarray:
        """Read-only view of the word-topic counts ``(V, T)``.

        Snapshot/metrics code should prefer these views over the raw
        ``nw``/``nt``/``nd`` attributes, which remain writable because
        the sweep engines mutate them in place.
        """
        return self._read_only_view(self.nw)

    @property
    def nt_view(self) -> np.ndarray:
        """Read-only view of the per-topic totals ``(T,)``."""
        return self._read_only_view(self.nt)

    @property
    def nd_view(self) -> np.ndarray:
        """Read-only view of the document-topic counts ``(D, T)``."""
        return self._read_only_view(self.nd)

    def initialize_random(self, rng: np.random.Generator) -> None:
        """Assign every token a uniform random topic and rebuild counts."""
        self.z = rng.integers(0, self.num_topics, size=self.num_tokens,
                              dtype=np.int64)
        self.rebuild_counts()

    def initialize_informed(self, word_topic_probs: np.ndarray,
                            rng: np.random.Generator) -> None:
        """Seed assignments from per-word topic affinities.

        ``word_topic_probs`` is ``(T, V)``; token with word ``w`` draws its
        initial topic proportionally to column ``w``.  Seeding source
        topics from their source distributions (instead of uniformly)
        anchors each labeled topic on its own vocabulary from sweep one,
        which prevents label switching between source topics and free
        topics early in the chain.

        Tokens of one word share a column, so the running sums over topics
        are built once, as a ``(T, V)`` table of one row add per topic (the
        same sequential additions as a ``cumsum`` down each column), and
        each word's tokens are placed by one ``searchsorted`` over its
        column.  The stream is one ``rng.random(N)`` call in token order,
        scaled by each token's column total.
        """
        word_topic_probs = np.asarray(word_topic_probs, dtype=np.float64)
        if word_topic_probs.shape != (self.num_topics, self.vocab_size):
            raise ValueError(
                f"word_topic_probs must have shape "
                f"({self.num_topics}, {self.vocab_size}), got "
                f"{word_topic_probs.shape}")
        if np.any(word_topic_probs < 0):
            raise ValueError("word_topic_probs must be non-negative")
        cumulative = np.empty(word_topic_probs.shape)       # (T, V)
        cumulative[0] = word_topic_probs[0]
        for topic in range(1, self.num_topics):
            np.add(cumulative[topic - 1], word_topic_probs[topic],
                   out=cumulative[topic])
        totals = cumulative[-1, self.words]
        if np.any(totals <= 0):
            raise ValueError(
                "some word has zero mass under every topic; smooth "
                "word_topic_probs first")
        u = rng.random(self.num_tokens) * totals
        order = np.argsort(self.words, kind="stable")
        starts = np.flatnonzero(np.diff(self.words[order])) + 1
        for group in np.split(order, starts):
            if group.size:
                # Counts the cumulative masses below u: the topic is the
                # first whose cumulative mass reaches u.
                self.z[group] = np.searchsorted(
                    cumulative[:, self.words[group[0]]], u[group],
                    side="left")
        self.rebuild_counts()

    def initialize_assignments(self, assignments: np.ndarray) -> None:
        """Install externally chosen topic assignments (e.g. ground truth)."""
        assignments = np.asarray(assignments, dtype=np.int64)
        if assignments.shape != (self.num_tokens,):
            raise ValueError(
                f"assignments must have shape ({self.num_tokens},), got "
                f"{assignments.shape}")
        if assignments.size and (assignments.min() < 0
                                 or assignments.max() >= self.num_topics):
            raise ValueError("assignments contain out-of-range topics")
        self.z = assignments.copy()
        self.rebuild_counts()

    def rebuild_counts(self) -> None:
        """Recompute ``nw``, ``nt``, ``nd`` from the current assignments.

        All three arrays are updated *in place* — ``nt`` in particular is
        never rebound, so long-lived references (the sweep engines and
        kernel fast paths hold one) can never go stale.
        """
        self.nw.fill(0.0)
        self.nd.fill(0.0)
        np.add.at(self.nw, (self.words, self.z), 1.0)
        np.add.at(self.nd, (self.doc_ids, self.z), 1.0)
        np.sum(self.nw, axis=0, out=self.nt)

    def decrement(self, token_index: int) -> tuple[int, int, int]:
        """Remove token ``i`` from the counts; returns (word, doc, old_topic).

        This is the "decrement nw and nd accordingly" step that opens every
        ``Sample`` procedure in the paper's algorithms.
        """
        word = int(self.words[token_index])
        doc = int(self.doc_ids[token_index])
        topic = int(self.z[token_index])
        self.nw[word, topic] -= 1.0
        self.nt[topic] -= 1.0
        self.nd[doc, topic] -= 1.0
        return word, doc, topic

    def increment(self, token_index: int, topic: int) -> None:
        """Assign token ``i`` to ``topic`` and restore the counts."""
        word = int(self.words[token_index])
        doc = int(self.doc_ids[token_index])
        self.z[token_index] = topic
        self.nw[word, topic] += 1.0
        self.nt[topic] += 1.0
        self.nd[doc, topic] += 1.0

    def counts_consistent(self) -> bool:
        """True when the count matrices match the assignments exactly."""
        expected_nw = np.zeros_like(self.nw)
        expected_nd = np.zeros_like(self.nd)
        np.add.at(expected_nw, (self.words, self.z), 1.0)
        np.add.at(expected_nd, (self.doc_ids, self.z), 1.0)
        return (np.array_equal(expected_nw, self.nw)
                and np.array_equal(expected_nd, self.nd)
                and np.array_equal(self.nw.sum(axis=0), self.nt))

    def assignments_by_document(self) -> list[np.ndarray]:
        """Per-document views of the current topic assignments."""
        result = []
        cursor = 0
        for doc_index in range(self.num_documents):
            length = int(self._doc_lengths[doc_index])
            result.append(self.z[cursor:cursor + length].copy())
            cursor += length
        return result

    def __repr__(self) -> str:
        return (f"GibbsState(tokens={self.num_tokens}, "
                f"docs={self.num_documents}, vocab={self.vocab_size}, "
                f"topics={self.num_topics})")
