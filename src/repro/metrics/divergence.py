"""Kullback-Leibler and Jensen-Shannon divergence.

JS divergence is the workhorse metric of the paper: it maps LDA topics to
labels (intro case study), measures how far Dirichlet draws stray from
source distributions (Figs. 2-4), scores recovered topics in the graphical
experiment (Fig. 6), and compares document-topic distributions (Fig. 8d/e).
All computations use natural log, so JS divergence lies in ``[0, ln 2]``.
"""

from __future__ import annotations

import numpy as np

LN2 = float(np.log(2.0))


def _validate_distributions(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0):
        raise ValueError(f"{name} has negative entries")
    totals = p.sum(axis=-1)
    if np.any(totals <= 0):
        raise ValueError(f"{name} has a row with no probability mass")
    if not np.allclose(totals, 1.0, atol=1e-6):
        raise ValueError(
            f"{name} rows must sum to 1 (max deviation "
            f"{np.abs(totals - 1.0).max():.3g}); normalize first")
    return p


def _check_dimensions(p: np.ndarray, q: np.ndarray) -> None:
    if p.shape[-1] != q.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {p.shape[-1]} vs {q.shape[-1]}")


def _kl(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Unvalidated ``KL(p || q)`` along the last axis."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(p > 0, p / q, 1.0)
        terms = np.where(p > 0, p * np.log(ratio), 0.0)
        terms = np.where((p > 0) & (q == 0), np.inf, terms)
    return terms.sum(axis=-1)


def _js(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Unvalidated JS divergence along the last axis."""
    m = 0.5 * (p + q)
    return 0.5 * _kl(p, m) + 0.5 * _kl(q, m)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> np.ndarray | float:
    """``KL(p || q)`` along the last axis, in nats.

    Entries where ``p`` is zero contribute nothing; entries where ``p > 0``
    but ``q == 0`` make the divergence infinite, per the definition.
    """
    p = _validate_distributions(p, "p")
    q = _validate_distributions(q, "q")
    _check_dimensions(p, q)
    result = _kl(p, q)
    return float(result) if np.ndim(result) == 0 else result


def js_divergence(p: np.ndarray, q: np.ndarray) -> np.ndarray | float:
    """Jensen-Shannon divergence along the last axis, in nats.

    ``JS(p, q) = KL(p || m)/2 + KL(q || m)/2`` with ``m = (p + q)/2``.
    Symmetric, bounded by ``ln 2``, and finite even with disjoint supports.
    """
    p = _validate_distributions(p, "p")
    q = _validate_distributions(q, "q")
    _check_dimensions(p, q)
    result = _js(p, q)
    return float(result) if np.ndim(result) == 0 else result


def js_divergence_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Pairwise JS divergence: ``out[i, j] = JS(rows[i], cols[j])``.

    Used for topic-to-label mapping and for Hungarian topic alignment.
    """
    rows = _validate_distributions(np.atleast_2d(rows), "rows")
    cols = _validate_distributions(np.atleast_2d(cols), "cols")
    _check_dimensions(rows, cols)
    out = np.empty((rows.shape[0], cols.shape[0]))
    for i in range(rows.shape[0]):
        out[i] = _js(rows[i][np.newaxis, :], cols)
    return out


def _pad_columns(matrix: np.ndarray, width: int) -> np.ndarray:
    if matrix.shape[1] == width:
        return matrix
    padded = np.zeros((matrix.shape[0], width))
    padded[:, :matrix.shape[1]] = matrix
    return padded


def sorted_theta_js(theta_a: np.ndarray, theta_b: np.ndarray) -> np.ndarray:
    """Per-document JS divergence between *sorted* topic distributions.

    The Fig. 8(d)/(e) metric: sorting each document's topic probabilities
    in descending order makes the comparison "irrespective to any unknown
    mapping" between the two models' topic spaces.  Distributions with
    different topic counts are zero-padded to a common width.
    """
    theta_a = np.atleast_2d(np.asarray(theta_a, dtype=np.float64))
    theta_b = np.atleast_2d(np.asarray(theta_b, dtype=np.float64))
    if theta_a.shape[0] != theta_b.shape[0]:
        raise ValueError(
            f"document count mismatch: {theta_a.shape[0]} vs "
            f"{theta_b.shape[0]}")
    width = max(theta_a.shape[1], theta_b.shape[1])
    sorted_a = _pad_columns(np.sort(theta_a, axis=1)[:, ::-1], width)
    sorted_b = _pad_columns(np.sort(theta_b, axis=1)[:, ::-1], width)
    # Zero-padding keeps rows normalized but can create disjoint zero
    # tails; JS handles that (it is finite on zeros), no smoothing needed.
    return np.asarray(js_divergence(sorted_a, sorted_b))


def sorted_theta_js_total(theta_a: np.ndarray,
                          theta_b: np.ndarray) -> float:
    """Sum of :func:`sorted_theta_js` over all documents (the bar heights
    of Fig. 8(d)/(e))."""
    return float(sorted_theta_js(theta_a, theta_b).sum())
