"""Knowledge sources (Definition 1 of the paper).

A *knowledge source* is a collection of labeled documents, each describing
one concept — in the paper, Wikipedia articles describing Reuters categories
or MedlinePlus topics.  Models never see the articles directly; they consume
per-label word-count vectors over the *corpus* vocabulary, from which source
distributions (Definition 2) and source hyperparameters (Definition 3) are
derived in :mod:`repro.knowledge.distributions`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.text.tokenizer import Tokenizer
from repro.text.vocabulary import Vocabulary


class KnowledgeSource:
    """A labeled collection of concept-describing token streams.

    The constructor interns every article once into (article, source
    word, count) triples, one per distinct word of each article, so the
    count structures a model needs (:meth:`count_pairs`,
    :meth:`count_matrix`) cost ``O(nnz)`` numpy work per corpus
    vocabulary instead of another Python pass over every token.

    Parameters
    ----------
    articles:
        Mapping from topic label to the token list of the document that
        describes the topic.  Insertion order defines the topic index order,
        so a knowledge source built the same way is always identical.

    Examples
    --------
    >>> source = KnowledgeSource({"Baseball": ["bat", "ball", "ball"]})
    >>> source.labels
    ('Baseball',)
    >>> source.tokens("Baseball")
    ['bat', 'ball', 'ball']
    """

    def __init__(self, articles: Mapping[str, Sequence[str]]) -> None:
        if not articles:
            raise ValueError("a knowledge source needs at least one article")
        self._articles: dict[str, list[str]] = {}
        for label, tokens in articles.items():
            token_list = [str(t) for t in tokens]
            if not token_list:
                raise ValueError(f"article for label {label!r} is empty")
            self._articles[str(label)] = token_list
        # Source-word ids in first-seen order; one (article, word) key
        # per token, collapsed into sorted (article, word, count) triples.
        lexicon: dict[str, int] = {}
        ids = [lexicon.setdefault(token, len(lexicon))
               for tokens in self._articles.values() for token in tokens]
        lengths = [len(tokens) for tokens in self._articles.values()]
        keys = (np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
                * len(lexicon) + np.asarray(ids, dtype=np.int64))
        keys, counts = np.unique(keys, return_counts=True)
        self._lexicon = tuple(lexicon)
        self._pair_articles, self._pair_words = np.divmod(keys, len(lexicon))
        self._pair_counts = counts.astype(np.int64)

    @classmethod
    def from_texts(cls, texts: Mapping[str, str],
                   tokenizer: Tokenizer | None = None) -> "KnowledgeSource":
        """Build a source from raw article texts, tokenizing each."""
        tok = tokenizer or Tokenizer()
        return cls({label: tok.tokenize(text)
                    for label, text in texts.items()})

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def labels(self) -> tuple[str, ...]:
        """Topic labels in index order."""
        return tuple(self._articles)

    def tokens(self, label: str) -> list[str]:
        """The token stream of the article describing ``label``."""
        return list(self._articles[label])

    def __len__(self) -> int:
        return len(self._articles)

    def __contains__(self, label: object) -> bool:
        return label in self._articles

    def __iter__(self) -> Iterator[str]:
        return iter(self._articles)

    def __repr__(self) -> str:
        return f"KnowledgeSource(topics={len(self)})"

    # ------------------------------------------------------------------
    # Derived count structures
    # ------------------------------------------------------------------
    def vocabulary(self) -> Vocabulary:
        """A vocabulary containing every word used by any article."""
        return Vocabulary(self._lexicon)

    def count_pairs(self, vocabulary: Vocabulary
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero entries of :meth:`count_matrix`, as triples.

        Returns int64 arrays ``(articles, words, counts)``: article
        ``articles[i]`` uses corpus-vocabulary word ``words[i]`` exactly
        ``counts[i] >= 1`` times.  Each (article, word) pair occurs once,
        and the pairs are sorted by article.  Article words outside
        ``vocabulary`` are dropped, as in :meth:`count_matrix`.
        """
        ids = np.array([vocabulary.get(word, -1) for word in self._lexicon],
                       dtype=np.int64)
        words = ids[self._pair_words]
        known = words >= 0
        return (self._pair_articles[known], words[known],
                self._pair_counts[known])

    def count_matrix(self, vocabulary: Vocabulary) -> np.ndarray:
        """Per-label word counts restricted to ``vocabulary``.

        Returns an ``(S, V)`` float matrix where row ``s`` counts how often
        each corpus-vocabulary word appears in article ``s``.  Words of the
        article outside the corpus vocabulary are ignored, exactly as in
        Definition 3 where the hyperparameter vector is indexed by the
        corpus vocabulary.  The matrix is zeros plus a scatter of
        :meth:`count_pairs`.
        """
        matrix = np.zeros((len(self), len(vocabulary)), dtype=np.float64)
        articles, words, counts = self.count_pairs(vocabulary)
        matrix[articles, words] = counts
        return matrix

    def subset(self, labels: Iterable[str]) -> "KnowledgeSource":
        """A new source restricted to ``labels`` (kept in the given order)."""
        labels = list(labels)
        missing = [label for label in labels if label not in self._articles]
        if missing:
            raise KeyError(f"labels not in knowledge source: {missing}")
        return KnowledgeSource(
            {label: self._articles[label] for label in labels})

    def merged_with(self, other: "KnowledgeSource") -> "KnowledgeSource":
        """Union of two sources; duplicate labels must not occur."""
        overlap = set(self.labels) & set(other.labels)
        if overlap:
            raise ValueError(f"duplicate labels in merge: {sorted(overlap)}")
        combined = {label: self.tokens(label) for label in self.labels}
        combined.update({label: other.tokens(label)
                         for label in other.labels})
        return KnowledgeSource(combined)
