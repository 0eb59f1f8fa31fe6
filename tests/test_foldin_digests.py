"""Fold-in bit pins: one sha256 of theta per serving case.

The lane-parity suites compare the fold-in lanes with each other inside
one tree, so a change that moves the per-document and lockstep lanes
the same way passes them.  These digests pin the theta each case
returns — for both modes, both lanes (chosen by patching
``LOCKSTEP_MIN_DOCS``), dense and 16-shard phi, and both drivers (the
engine's shared stream and the per-document streams of a one-worker
``ParallelFoldIn``) — so a refactor of the fold-in plumbing that moves
a bit fails here.  The constants were recorded while fold-in callers
still shared reusable scratch buffers.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.models.base import FittedTopicModel
from repro.serving import foldin, load_model, save_model
from repro.serving.foldin import FoldInEngine
from repro.serving.parallel import ParallelFoldIn
from repro.text.vocabulary import Vocabulary

TOPICS = 8
VOCAB = 64
SHARD_WORDS = 4  # 16 shards
ALPHA = 0.3
ITERATIONS = 6
SEED = 20

LANES = {"per-document": 10 ** 9, "lockstep": 1}

DIGESTS = {
    ("exact", "lockstep", "dense", "engine"):
        "a1e48b7b801a12e9c149a42c0b4d0d50"
        "c474630b7959c1b8345345b3cd7516b7",
    ("exact", "lockstep", "dense", "parallel"):
        "f5034d274152a950b48cf6df2265367f"
        "da3bd3642ae76f97fee7f9c5d66118be",
    ("exact", "lockstep", "sharded", "engine"):
        "a1e48b7b801a12e9c149a42c0b4d0d50"
        "c474630b7959c1b8345345b3cd7516b7",
    ("exact", "lockstep", "sharded", "parallel"):
        "f5034d274152a950b48cf6df2265367f"
        "da3bd3642ae76f97fee7f9c5d66118be",
    ("exact", "per-document", "dense", "engine"):
        "a1e48b7b801a12e9c149a42c0b4d0d50"
        "c474630b7959c1b8345345b3cd7516b7",
    ("exact", "per-document", "dense", "parallel"):
        "f5034d274152a950b48cf6df2265367f"
        "da3bd3642ae76f97fee7f9c5d66118be",
    ("exact", "per-document", "sharded", "engine"):
        "a1e48b7b801a12e9c149a42c0b4d0d50"
        "c474630b7959c1b8345345b3cd7516b7",
    ("exact", "per-document", "sharded", "parallel"):
        "f5034d274152a950b48cf6df2265367f"
        "da3bd3642ae76f97fee7f9c5d66118be",
    ("sparse", "lockstep", "dense", "engine"):
        "d7decbeb6d0fe9ebf25107c86521ee6b"
        "2d40d46670f89a5437e8eea813e64bc7",
    ("sparse", "lockstep", "dense", "parallel"):
        "090d3a9ec0ef05691f9b0389c994c472"
        "7c420689373b335f2c91eb8580518cbb",
    ("sparse", "lockstep", "sharded", "engine"):
        "d7decbeb6d0fe9ebf25107c86521ee6b"
        "2d40d46670f89a5437e8eea813e64bc7",
    ("sparse", "lockstep", "sharded", "parallel"):
        "090d3a9ec0ef05691f9b0389c994c472"
        "7c420689373b335f2c91eb8580518cbb",
    ("sparse", "per-document", "dense", "engine"):
        "d7decbeb6d0fe9ebf25107c86521ee6b"
        "2d40d46670f89a5437e8eea813e64bc7",
    ("sparse", "per-document", "dense", "parallel"):
        "090d3a9ec0ef05691f9b0389c994c472"
        "7c420689373b335f2c91eb8580518cbb",
    ("sparse", "per-document", "sharded", "engine"):
        "d7decbeb6d0fe9ebf25107c86521ee6b"
        "2d40d46670f89a5437e8eea813e64bc7",
    ("sparse", "per-document", "sharded", "parallel"):
        "090d3a9ec0ef05691f9b0389c994c472"
        "7c420689373b335f2c91eb8580518cbb",
}


@pytest.fixture(scope="module")
def phi():
    return np.random.default_rng(3).dirichlet(np.full(VOCAB, 0.5),
                                              size=TOPICS)


@pytest.fixture(scope="module")
def documents():
    """Mixed lengths, one empty document in the middle."""
    rng = np.random.default_rng(9)
    lengths = [17, 1, 40, 5, 0, 23, 2, 31, 9, 12, 3, 28, 7, 15]
    return [rng.integers(0, VOCAB, size=length) for length in lengths]


@pytest.fixture(scope="module")
def sharded_phi(phi, tmp_path_factory):
    fitted = FittedTopicModel(
        phi=phi, theta=np.full((1, TOPICS), 1.0 / TOPICS),
        assignments=[],
        vocabulary=Vocabulary.from_tokens(
            [f"w{i:02d}" for i in range(VOCAB)]),
        metadata={"alpha": ALPHA})
    loaded = load_model(save_model(
        fitted, tmp_path_factory.mktemp("foldin_digests") / "m",
        shard_words=SHARD_WORDS))
    assert loaded.model.phi.num_shards == 16
    yield loaded.model.phi
    loaded.close()


def theta_digest(theta: np.ndarray) -> str:
    theta = np.ascontiguousarray(theta)
    assert theta.dtype == np.float64
    digest = hashlib.sha256()
    digest.update(f"{theta.shape}|".encode())
    digest.update(theta.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("driver", ["engine", "parallel"])
@pytest.mark.parametrize("storage", ["dense", "sharded"])
@pytest.mark.parametrize("lane", sorted(LANES))
@pytest.mark.parametrize("mode", ["exact", "sparse"])
def test_foldin_digest(monkeypatch, phi, sharded_phi, documents, mode,
                       lane, storage, driver):
    monkeypatch.setattr(foldin, "LOCKSTEP_MIN_DOCS", LANES[lane])
    engine = FoldInEngine(phi if storage == "dense" else sharded_phi,
                          ALPHA, iterations=ITERATIONS, mode=mode)
    if driver == "engine":
        theta = engine.theta(documents, SEED)
    else:
        theta = ParallelFoldIn(engine, num_workers=1).theta(documents,
                                                            SEED)
    assert theta.shape == (len(documents), TOPICS)
    assert theta_digest(theta) == DIGESTS[mode, lane, storage, driver]
