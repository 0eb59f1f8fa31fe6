"""Source distributions and source hyperparameters (Definitions 2 and 3).

Given a knowledge-source article counted against the corpus vocabulary:

* the *source distribution* is the normalized word-frequency PMF
  ``f(w_i) = n_wi / sum_j n_wj`` (Definition 2);
* the *source hyperparameters* are ``X_i = n_wi + eps`` where ``eps`` is a
  very small positive number making every Dirichlet draw strictly positive
  (Definition 3).  The Source-LDA model (Section III.C) raises these to the
  power ``g(lambda)`` to control how tightly a topic is bound to its source.
"""

from __future__ import annotations

import numpy as np

#: Default smoothing constant for source hyperparameters.  "A very small
#: positive number" per Definition 3; 0.01 keeps draws for unseen words rare
#: without degenerating the Dirichlet.
DEFAULT_EPSILON = 0.01


def source_distribution(counts: np.ndarray) -> np.ndarray:
    """Normalize word counts into the source distribution of Definition 2.

    Accepts a length-V vector or an (S, V) matrix; rows are normalized
    independently.  Raises ``ValueError`` on rows with no mass, because a
    knowledge-source article with no in-vocabulary words cannot define a
    distribution.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts < 0):
        raise ValueError("word counts must be non-negative")
    totals = counts.sum(axis=-1, keepdims=True)
    if np.any(totals == 0):
        raise ValueError("cannot normalize an all-zero count vector; the "
                         "article shares no words with the vocabulary")
    return counts / totals


def source_hyperparameters(counts: np.ndarray,
                           epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Smooth counts into Dirichlet hyperparameters per Definition 3.

    ``X_i = n_wi + epsilon`` — every vocabulary word gets strictly positive
    prior mass so Dirichlet draws can place (tiny) probability on words the
    source article never uses.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts < 0):
        raise ValueError("word counts must be non-negative")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return counts + epsilon


def powered_hyperparameters(hyperparameters: np.ndarray,
                            exponent: float | np.ndarray) -> np.ndarray:
    """Raise source hyperparameters element-wise to ``exponent``.

    This is the delta construction of Section III.C:
    ``delta_k = [(X_k1)^lam, ..., (X_kV)^lam]``.  As ``exponent`` approaches
    0 every entry approaches 1 (a flat symmetric prior); at 1 the prior is
    exactly the source counts.  ``exponent`` may be a scalar or a per-row
    column vector for per-topic lambdas.
    """
    hyperparameters = np.asarray(hyperparameters, dtype=np.float64)
    if np.any(hyperparameters <= 0):
        raise ValueError("hyperparameters must be strictly positive; apply "
                         "source_hyperparameters() first")
    return np.power(hyperparameters, exponent)


def sample_topic_distribution(hyperparameters: np.ndarray,
                              rng: np.random.Generator,
                              size: int | None = None) -> np.ndarray:
    """Draw phi ~ Dir(delta) for one topic.

    numpy's Dirichlet sampler can return exact zeros for very small
    concentration parameters; a tiny floor plus renormalization keeps the
    draw inside the open simplex, which downstream divergence computations
    require.  With ``size=k`` the result is ``(k, V)``, row for row the
    draws of ``k`` sequential calls.
    """
    hyperparameters = np.asarray(hyperparameters, dtype=np.float64)
    draw = rng.dirichlet(hyperparameters, size=size)
    floor = np.finfo(np.float64).tiny
    draw = np.maximum(draw, floor)
    return draw / draw.sum(axis=-1, keepdims=True)
