"""Approximating the linear-smoothing function ``g`` (Section III.C.2).

Raising source hyperparameters to ``lambda`` does not move the resulting
Dirichlet draws away from the source distribution at a uniform rate: the JS
divergence curve of Fig. 3 is flat near 1 and steep near 0.  A Gaussian
prior over ``lambda`` therefore spends most of its mass where little
changes.  The paper fixes this by remapping ``lambda`` through a function
``g`` chosen so that the expected JS divergence is *linear* in the input
(Fig. 4): "the approach taken to approximate g(x) is by linear interpolation
of an aggregated large number of samples for each point taken in the range
0 to 1".

:func:`calibrate_smoothing` reproduces that procedure: sample the JS curve
``J(lambda)`` on a grid, enforce monotonicity, and invert it so that
``J(g(x))`` interpolates linearly between ``J(0)`` and ``J(1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.knowledge.distributions import sample_topic_distribution
from repro.metrics.divergence import js_divergence
from repro.sampling.rng import ensure_rng


@dataclass(frozen=True)
class SmoothingFunction:
    """A monotone map ``g: [0, 1] -> [0, 1]`` applied to lambda.

    Stored as interpolation knots; calling the object evaluates
    ``np.interp`` (scalars or arrays).
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys, dtype=np.float64)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("xs and ys must be 1-d, equal length, >= 2")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("xs must be strictly increasing")
        if np.any(np.diff(ys) < 0):
            raise ValueError("ys must be non-decreasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        result = np.interp(x, self.xs, self.ys)
        return float(result) if np.ndim(x) == 0 else result

    @classmethod
    def identity(cls) -> "SmoothingFunction":
        """``g(x) = x`` — i.e. no smoothing (the Fig. 3 behaviour)."""
        return cls(xs=np.array([0.0, 1.0]), ys=np.array([0.0, 1.0]))


def mean_js_curve(hyperparameters: np.ndarray,
                  lambdas: np.ndarray,
                  draws: int = 20,
                  rng: int | np.random.Generator | None = None
                  ) -> np.ndarray:
    """Estimate ``J(lambda)`` = E[JS(Dir(X^lambda) draw, source dist)].

    ``hyperparameters`` is one topic's ``(V,)`` vector (or ``(S, V)``; rows
    are aggregated, matching the paper's "aggregated large number of
    samples").  Returns the mean JS divergence at each grid lambda — this
    is exactly the quantity box-plotted in Figs. 3 and 4.
    """
    rng = ensure_rng(rng)
    hyper = np.atleast_2d(np.asarray(hyperparameters, dtype=np.float64))
    if np.any(hyper <= 0):
        raise ValueError("hyperparameters must be strictly positive")
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    lambdas = np.asarray(lambdas, dtype=np.float64)
    sources = hyper / hyper.sum(axis=1, keepdims=True)
    curve = np.empty(lambdas.shape[0])
    samples = np.empty((hyper.shape[0], draws, hyper.shape[1]))
    for index, lam in enumerate(lambdas):
        powered = np.power(hyper, lam)
        for row in range(hyper.shape[0]):
            samples[row] = sample_topic_distribution(powered[row], rng,
                                                     size=draws)
        # Summed in the order the draws were made (row, then draw), so
        # the curve does not depend on how the divergences are batched.
        total = 0.0
        for divergence in js_divergence(samples,
                                        sources[:, np.newaxis, :]).ravel():
            total += divergence
        curve[index] = total / (draws * hyper.shape[0])
    return curve


def calibrate_smoothing(hyperparameters: np.ndarray,
                        grid_points: int = 11,
                        draws: int = 20,
                        max_topics: int = 8,
                        rng: int | np.random.Generator | None = None
                        ) -> SmoothingFunction:
    """Build ``g`` so the expected JS divergence is linear in the input.

    Parameters
    ----------
    hyperparameters:
        ``(V,)`` or ``(S, V)`` source hyperparameters.  With multiple
        topics, at most ``max_topics`` rows (evenly spaced) are aggregated
        — the calibration cost is independent of the knowledge-source size.
    grid_points:
        Number of lambda samples of the JS curve.
    draws:
        Dirichlet draws per (topic, lambda) pair.

    Returns
    -------
    SmoothingFunction
        With ``g(0) = 0`` and ``g(1) = 1`` by construction.
    """
    if grid_points < 3:
        raise ValueError(f"grid_points must be >= 3, got {grid_points}")
    rng = ensure_rng(rng)
    hyper = np.atleast_2d(np.asarray(hyperparameters, dtype=np.float64))
    if hyper.shape[0] > max_topics:
        chosen = np.linspace(0, hyper.shape[0] - 1, max_topics).astype(int)
        hyper = hyper[chosen]
    lambdas = np.linspace(0.0, 1.0, grid_points)
    curve = mean_js_curve(hyper, lambdas, draws=draws, rng=rng)
    # J(lambda) decreases as lambda grows (tighter binding to the source).
    # Enforce strict monotonicity so it is invertible despite sampling
    # noise.
    decreasing = np.minimum.accumulate(curve)
    jitter = 1e-12 * np.arange(grid_points)[::-1]
    decreasing = decreasing + jitter
    # Target: J(g(x)) should fall linearly from J(0) to J(1).
    targets = decreasing[0] + (decreasing[-1] - decreasing[0]) * lambdas
    # Invert by interpolating on the reversed (now increasing) curve.
    g_values = np.interp(targets[::-1], decreasing[::-1],
                         lambdas[::-1])[::-1].copy()
    g_values[0], g_values[-1] = 0.0, 1.0
    g_values = np.maximum.accumulate(g_values)
    return SmoothingFunction(xs=lambdas, ys=g_values)
