"""Shared fixtures: small corpora and knowledge sources."""

from __future__ import annotations

import numpy as np
import pytest

from repro.knowledge.source import KnowledgeSource
from repro.knowledge.wikipedia import SyntheticWikipedia
from repro.text.corpus import Corpus
from repro.text.vocabulary import Vocabulary


@pytest.fixture
def tiny_corpus() -> Corpus:
    """The paper's two-document case-study corpus."""
    return Corpus.from_texts(
        ["pencil pencil umpire", "ruler ruler baseball"], tokenizer=None)


@pytest.fixture
def small_source() -> KnowledgeSource:
    """A three-article knowledge source with distinctive vocabularies."""
    return KnowledgeSource({
        "School Supplies": ("pencil pencil pencil ruler ruler eraser "
                            "notebook paper pen crayon").split(),
        "Baseball": ("baseball baseball umpire umpire bat ball pitcher "
                     "inning glove base").split(),
        "Cooking": ("recipe oven flour sugar butter saucepan whisk bake "
                    "bake knead").split(),
    })


@pytest.fixture
def wiki_source() -> KnowledgeSource:
    """A synthetic-Wikipedia source of five pseudo-word topics."""
    wiki = SyntheticWikipedia([f"Topic {i}" for i in range(5)],
                              article_length=120, core_vocab_size=10,
                              background_vocab_size=40, seed=11)
    return wiki.knowledge_source()


@pytest.fixture
def wiki_corpus(wiki_source: KnowledgeSource) -> Corpus:
    """A 40-document corpus sampled from the wiki_source articles."""
    rng = np.random.default_rng(7)
    texts = []
    labels = wiki_source.labels
    for index in range(40):
        article = wiki_source.tokens(labels[index % len(labels)])
        texts.append(" ".join(rng.choice(article, size=30)))
    return Corpus.from_texts(texts, tokenizer=None)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(123)


@pytest.fixture(scope="session")
def superset_hyperparameters() -> np.ndarray:
    """Section IV.E-shaped source hyperparameters, ``(2000, 1000)``.

    Each topic is a 60-token Zipf article over its own permutation of a
    1000-word vocabulary (as ``random_topic_source`` builds them), counted
    and smoothed by epsilon 0.01.
    """
    num_topics, vocab_size, article_length = 2000, 1000, 60
    rng = np.random.default_rng(0)
    pmf = 1.0 / np.arange(1, vocab_size + 1)
    pmf /= pmf.sum()
    draws = rng.choice(vocab_size, size=(num_topics, article_length), p=pmf)
    orders = rng.permuted(np.tile(np.arange(vocab_size), (num_topics, 1)),
                          axis=1)
    words = np.take_along_axis(orders, draws, axis=1)
    flat = (np.arange(num_topics)[:, np.newaxis] * vocab_size
            + words).ravel()
    counts = np.bincount(flat, minlength=num_topics * vocab_size)
    return counts.reshape(num_topics, vocab_size) + 0.01


@pytest.fixture(scope="session")
def superset_source() -> tuple[KnowledgeSource, Vocabulary]:
    """A Section IV.E-shaped source, 2000 topics over 1000 words.

    Each article is 60 Zipf tokens over its own permutation of the
    vocabulary (as ``random_topic_source`` builds them), so about 4% of
    the ``(2000, 1000)`` counts are nonzero.
    """
    num_topics, vocab_size, article_length = 2000, 1000, 60
    rng = np.random.default_rng(1)
    pmf = 1.0 / np.arange(1, vocab_size + 1)
    pmf /= pmf.sum()
    draws = rng.choice(vocab_size, size=(num_topics, article_length), p=pmf)
    orders = rng.permuted(np.tile(np.arange(vocab_size), (num_topics, 1)),
                          axis=1)
    words = np.take_along_axis(orders, draws, axis=1)
    vocab = Vocabulary([f"w{i:04d}" for i in range(vocab_size)])
    source = KnowledgeSource({f"topic-{t:05d}": [vocab.word(int(w))
                                                  for w in row]
                              for t, row in enumerate(words)})
    return source, vocab
