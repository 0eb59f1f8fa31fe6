"""Tests for repro.knowledge.distributions (Definitions 2 and 3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.knowledge.distributions import (DEFAULT_EPSILON,
                                           powered_hyperparameters,
                                           sample_topic_distribution,
                                           source_distribution,
                                           source_hyperparameters)

count_vectors = npst.arrays(
    np.float64, st.integers(min_value=2, max_value=30),
    elements=st.floats(min_value=0, max_value=500))


class TestSourceDistribution:
    def test_normalizes_counts(self):
        np.testing.assert_allclose(source_distribution(np.array([2., 6.])),
                                   [0.25, 0.75])

    def test_matrix_rows_normalized_independently(self):
        result = source_distribution(np.array([[1., 1.], [3., 1.]]))
        np.testing.assert_allclose(result, [[0.5, 0.5], [0.75, 0.25]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            source_distribution(np.array([-1.0, 2.0]))

    def test_rejects_zero_row(self):
        with pytest.raises(ValueError, match="all-zero"):
            source_distribution(np.array([0.0, 0.0]))

    @given(count_vectors)
    def test_sums_to_one_whenever_defined(self, counts):
        if counts.sum() <= 0:
            return
        assert source_distribution(counts).sum() == pytest.approx(1.0)


class TestSourceHyperparameters:
    def test_adds_epsilon(self):
        result = source_hyperparameters(np.array([0.0, 3.0]), epsilon=0.5)
        np.testing.assert_allclose(result, [0.5, 3.5])

    def test_default_epsilon_is_small_positive(self):
        assert 0 < DEFAULT_EPSILON < 0.1

    def test_strictly_positive_output(self):
        result = source_hyperparameters(np.zeros(5))
        assert np.all(result > 0)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            source_hyperparameters(np.zeros(2), epsilon=0.0)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            source_hyperparameters(np.array([-1.0]))


class TestPoweredHyperparameters:
    def test_lambda_one_is_identity(self):
        hyper = np.array([0.01, 2.01, 7.01])
        np.testing.assert_allclose(powered_hyperparameters(hyper, 1.0),
                                   hyper)

    def test_lambda_zero_flattens_to_ones(self):
        hyper = np.array([0.01, 2.01, 7.01])
        np.testing.assert_allclose(powered_hyperparameters(hyper, 0.0),
                                   [1.0, 1.0, 1.0])

    def test_per_row_exponents(self):
        hyper = np.array([[4.0, 4.0], [4.0, 4.0]])
        result = powered_hyperparameters(hyper,
                                         np.array([[0.5], [1.0]]))
        np.testing.assert_allclose(result, [[2.0, 2.0], [4.0, 4.0]])

    def test_rejects_zero_values(self):
        with pytest.raises(ValueError, match="strictly positive"):
            powered_hyperparameters(np.array([0.0, 1.0]), 0.5)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_in_lambda_for_large_counts(self, lam: float):
        hyper = np.array([100.0, 50.0])
        powered = powered_hyperparameters(hyper, lam)
        # counts > 1 shrink toward 1 as lambda decreases
        assert np.all(powered <= hyper + 1e-9)
        assert np.all(powered >= 1.0 - 1e-9)


class TestSampleTopicDistribution:
    def test_returns_probability_vector(self, rng):
        draw = sample_topic_distribution(np.array([5.0, 1.0, 1.0]), rng)
        assert draw.sum() == pytest.approx(1.0)
        assert np.all(draw > 0)

    def test_no_exact_zeros_even_with_tiny_alpha(self, rng):
        draw = sample_topic_distribution(np.full(50, 1e-4), rng)
        assert np.all(draw > 0)

    def test_concentrates_with_large_parameters(self, rng):
        hyper = np.array([1e5, 1e5])
        draws = np.array([sample_topic_distribution(hyper, rng)
                          for _ in range(20)])
        np.testing.assert_allclose(draws.mean(axis=0), [0.5, 0.5],
                                   atol=0.01)

    def test_deterministic_given_rng_state(self):
        a = sample_topic_distribution(np.array([2.0, 3.0]),
                                      np.random.default_rng(0))
        b = sample_topic_distribution(np.array([2.0, 3.0]),
                                      np.random.default_rng(0))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("hyper", [
        np.array([5.0, 1.0, 1.0]),
        np.full(50, 1e-4),  # numpy's small-alpha Dirichlet branch
        np.linspace(0.01, 30.0, 200),
    ])
    def test_size_equals_sequential_calls(self, hyper):
        batch = sample_topic_distribution(hyper, np.random.default_rng(9),
                                          size=6)
        rng = np.random.default_rng(9)
        sequential = np.array([sample_topic_distribution(hyper, rng)
                               for _ in range(6)])
        assert batch.shape == (6, hyper.shape[0])
        np.testing.assert_array_equal(batch, sequential)

