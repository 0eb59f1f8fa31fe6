"""Fit-level bit pins: one sha256 per (model class, engine).

The engine-parity suites compare engines with each other inside one
tree, so a change that moves every engine the same way passes them.
These digests pin what ``fit`` returns on each engine — ``phi``,
``theta``, the flat assignments and every array in ``metadata`` — so a
refactor of the shared training code that moves a bit fails here.
The constants were recorded while each model still built its own
sampler and ``FittedTopicModel``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.bijective import BijectiveSourceLDA
from repro.core.mixture import MixtureSourceLDA
from repro.core.source_lda import SourceLDA
from repro.models.ctm import CTM
from repro.models.eda import EDA
from repro.models.lda import LDA
from repro.sampling.gibbs import ENGINES

MODELS = {
    "LDA": lambda source, engine: LDA(num_topics=4, engine=engine),
    "EDA": lambda source, engine: EDA(source, engine=engine),
    "CTM": lambda source, engine: CTM(source, num_free_topics=2,
                                      top_n_words=15, engine=engine),
    "SourceLDA": lambda source, engine: SourceLDA(
        source, approximation_steps=4, final_topics=3, engine=engine),
    "BijectiveSourceLDA": lambda source, engine: BijectiveSourceLDA(
        source, lambda_=0.8, engine=engine),
    "MixtureSourceLDA": lambda source, engine: MixtureSourceLDA(
        source, num_free_topics=2, engine=engine),
}

DIGESTS = {
    ("BijectiveSourceLDA", "fast"):
        "38328a25b34664ece1aaae9335799559"
        "1af8ed2fbf1702b3ebc7189e867e9a5e",
    ("BijectiveSourceLDA", "alias"):
        "785d325a570d45305e7ecb9cabc504d5"
        "da7123ce214feb2a5826ed8d0f9dad17",
    ("BijectiveSourceLDA", "reference"):
        "38328a25b34664ece1aaae9335799559"
        "1af8ed2fbf1702b3ebc7189e867e9a5e",
    ("CTM", "fast"):
        "bba5a156a3a58c167dfc83ae6c4662c0"
        "6479efffdaa23ebae835e907dd0b2c32",
    ("CTM", "alias"):
        "bba5a156a3a58c167dfc83ae6c4662c0"
        "6479efffdaa23ebae835e907dd0b2c32",
    ("CTM", "reference"):
        "bba5a156a3a58c167dfc83ae6c4662c0"
        "6479efffdaa23ebae835e907dd0b2c32",
    ("EDA", "fast"):
        "3d4812badf2bfd0c1e586cd3df12e0e5"
        "99145177082b9d1c4520927578c84e3b",
    ("EDA", "alias"):
        "3d4812badf2bfd0c1e586cd3df12e0e5"
        "99145177082b9d1c4520927578c84e3b",
    ("EDA", "reference"):
        "3d4812badf2bfd0c1e586cd3df12e0e5"
        "99145177082b9d1c4520927578c84e3b",
    ("LDA", "fast"):
        "b3792af9516cebf46960461e7ff35538"
        "3275d663f3c1bb4b62e520374b9882a6",
    ("LDA", "alias"):
        "b3792af9516cebf46960461e7ff35538"
        "3275d663f3c1bb4b62e520374b9882a6",
    ("LDA", "reference"):
        "b3792af9516cebf46960461e7ff35538"
        "3275d663f3c1bb4b62e520374b9882a6",
    ("MixtureSourceLDA", "fast"):
        "2fd53b18bdec1e78b2ce35707e099593"
        "36bc72c0c6d25311fcac5e43322d9718",
    ("MixtureSourceLDA", "alias"):
        "2fd53b18bdec1e78b2ce35707e099593"
        "36bc72c0c6d25311fcac5e43322d9718",
    ("MixtureSourceLDA", "reference"):
        "2fd53b18bdec1e78b2ce35707e099593"
        "36bc72c0c6d25311fcac5e43322d9718",
    ("SourceLDA", "fast"):
        "02866c88fbe0c0ff426907826a5a2973"
        "bd1b20108646ce24a81811ab370f5213",
    ("SourceLDA", "alias"):
        "158e7b349cf55ecb1ecb769d0eb5fde2"
        "bc197b43e91e96b0d453675b22a271b4",
    ("SourceLDA", "reference"):
        "02866c88fbe0c0ff426907826a5a2973"
        "bd1b20108646ce24a81811ab370f5213",
}


def fit_digest(fitted) -> str:
    """sha256 over phi, theta, the flat assignments and every ndarray
    in ``metadata`` (key, dtype and shape included)."""
    digest = hashlib.sha256()

    def add(name: str, array: np.ndarray) -> None:
        array = np.ascontiguousarray(array)
        digest.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
        digest.update(array.tobytes())

    add("phi", fitted.phi)
    add("theta", fitted.theta)
    add("assignments", fitted.flat_assignments())
    for key in sorted(fitted.metadata):
        value = fitted.metadata[key]
        if isinstance(value, np.ndarray):
            add(key, value)
    return digest.hexdigest()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("model", sorted(MODELS))
def test_fit_digest(wiki_source, wiki_corpus, model, engine):
    fitted = MODELS[model](wiki_source, engine).fit(
        wiki_corpus, iterations=3, seed=5)
    assert fit_digest(fitted) == DIGESTS[model, engine]
