"""Word <-> integer-id interning.

Every model in this library works over a fixed, shared :class:`Vocabulary`:
the corpus being modeled and the knowledge-source documents must be counted
against the *same* word-id space, because the source hyperparameters
(Definition 3) are indexed by the corpus vocabulary.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np


class Vocabulary:
    """A bidirectional, append-only word/id mapping.

    Ids are dense and assigned in first-seen order, so a vocabulary built
    from the same token stream is always identical — a requirement for
    reproducible experiments.

    Examples
    --------
    >>> vocab = Vocabulary.from_tokens(["pencil", "ruler", "pencil"])
    >>> vocab["pencil"], vocab["ruler"]
    (0, 1)
    >>> vocab.word(1)
    'ruler'
    >>> len(vocab)
    2
    """

    __slots__ = ("_word_to_id", "_id_to_word", "_frozen")

    def __init__(self, words: Iterable[str] = ()) -> None:
        self._word_to_id: dict[str, int] = {}
        self._id_to_word: list[str] = []
        self._frozen = False
        for word in words:
            self.add(word)

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Vocabulary":
        """Build a vocabulary from a flat token stream."""
        return cls(tokens)

    @classmethod
    def from_documents(cls,
                       documents: Iterable[Iterable[str]]) -> "Vocabulary":
        """Build a vocabulary from an iterable of token lists."""
        vocab = cls()
        for doc in documents:
            for token in doc:
                vocab.add(token)
        return vocab

    def add(self, word: str) -> int:
        """Intern ``word`` and return its id (existing or new)."""
        if not isinstance(word, str):
            raise TypeError(f"vocabulary words must be str, got "
                            f"{type(word).__name__}")
        existing = self._word_to_id.get(word)
        if existing is not None:
            return existing
        if self._frozen:
            raise ValueError(
                f"vocabulary is frozen; cannot add new word {word!r}")
        new_id = len(self._id_to_word)
        self._word_to_id[word] = new_id
        self._id_to_word.append(word)
        return new_id

    def freeze(self) -> "Vocabulary":
        """Disallow further additions; returns self for chaining."""
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def word(self, word_id: int) -> str:
        """Return the word for ``word_id``."""
        return self._id_to_word[word_id]

    def id(self, word: str) -> int:
        """Return the id for ``word``; raises ``KeyError`` if unknown."""
        return self._word_to_id[word]

    def get(self, word: str, default: int | None = None) -> int | None:
        """Return the id for ``word`` or ``default`` if unknown."""
        return self._word_to_id.get(word, default)

    def encode(self, tokens: Iterable[str],
               skip_unknown: bool = True) -> np.ndarray:
        """Map tokens to an int array of ids.

        Unknown tokens are silently dropped when ``skip_unknown`` is true,
        which is the conventional treatment of out-of-vocabulary words when
        scoring held-out documents.
        """
        ids = []
        for token in tokens:
            word_id = self._word_to_id.get(token)
            if word_id is None:
                if skip_unknown:
                    continue
                raise KeyError(f"unknown word {token!r}")
            ids.append(word_id)
        return np.asarray(ids, dtype=np.int64)

    def decode(self, ids: Iterable[int]) -> list[str]:
        """Map an iterable of word ids back to words."""
        return [self._id_to_word[int(i)] for i in ids]

    def __len__(self) -> int:
        return len(self._id_to_word)

    def __contains__(self, word: object) -> bool:
        return word in self._word_to_id

    def __getitem__(self, word: str) -> int:
        return self._word_to_id[word]

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_word)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self._id_to_word == other._id_to_word

    def __repr__(self) -> str:
        return f"Vocabulary(size={len(self)}, frozen={self._frozen})"

    @property
    def words(self) -> tuple[str, ...]:
        """All words, ordered by id."""
        return tuple(self._id_to_word)

    def as_mapping(self) -> Mapping[str, int]:
        """A read-only view of the word->id mapping."""
        return dict(self._word_to_id)
