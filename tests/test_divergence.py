"""Tests for repro.metrics.divergence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import divergence
from repro.metrics.divergence import (LN2, js_divergence,
                                      js_divergence_matrix, kl_divergence,
                                      sorted_theta_js,
                                      sorted_theta_js_total)


def random_distribution(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.dirichlet(np.ones(size))


distributions = st.integers(min_value=2, max_value=20).flatmap(
    lambda n: st.lists(st.floats(min_value=0.01, max_value=10),
                       min_size=n, max_size=n)).map(
    lambda xs: np.asarray(xs) / np.sum(xs))


class TestKlDivergence:
    def test_zero_for_identical(self):
        p = np.array([0.3, 0.7])
        assert kl_divergence(p, p) == pytest.approx(0.0)

    def test_known_value(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        expected = 0.5 * np.log(2) + 0.5 * np.log(2 / 3)
        assert kl_divergence(p, q) == pytest.approx(expected)

    def test_asymmetric(self):
        p = np.array([0.8, 0.2])
        q = np.array([0.5, 0.5])
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))

    def test_infinite_on_support_mismatch(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        assert kl_divergence(p, q) == np.inf

    def test_zero_p_entries_ignored(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        assert kl_divergence(p, q) == pytest.approx(np.log(2))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum to 1"):
            kl_divergence(np.array([0.5, 0.6]), np.array([0.5, 0.5]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            kl_divergence(np.array([-0.5, 1.5]), np.array([0.5, 0.5]))

    def test_rowwise(self):
        p = np.array([[0.5, 0.5], [0.9, 0.1]])
        result = kl_divergence(p, p)
        np.testing.assert_allclose(result, [0.0, 0.0], atol=1e-12)


class TestJsDivergence:
    def test_symmetric(self, rng):
        p = random_distribution(rng, 10)
        q = random_distribution(rng, 10)
        assert js_divergence(p, q) == pytest.approx(js_divergence(q, p))

    def test_bounded_by_ln2(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert js_divergence(p, q) == pytest.approx(LN2)

    def test_zero_for_identical(self, rng):
        p = random_distribution(rng, 6)
        assert js_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_finite_on_disjoint_support(self):
        assert np.isfinite(js_divergence(np.array([1.0, 0.0]),
                                         np.array([0.0, 1.0])))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            js_divergence(np.array([1.0]), np.array([0.5, 0.5]))

    @given(distributions, st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_property_bounds_and_symmetry(self, p, seed):
        q = np.random.default_rng(seed).dirichlet(np.ones(p.shape[0]))
        value = js_divergence(p, q)
        assert 0.0 <= value <= LN2 + 1e-12
        assert value == pytest.approx(js_divergence(q, p))


class TestJsDivergenceMatrix:
    def test_shape_and_diagonal(self, rng):
        rows = np.array([random_distribution(rng, 5) for _ in range(3)])
        matrix = js_divergence_matrix(rows, rows)
        assert matrix.shape == (3, 3)
        np.testing.assert_allclose(np.diag(matrix), 0.0, atol=1e-12)

    def test_matches_scalar_function(self, rng):
        rows = np.array([random_distribution(rng, 4) for _ in range(2)])
        cols = np.array([random_distribution(rng, 4) for _ in range(3)])
        matrix = js_divergence_matrix(rows, cols)
        for i in range(2):
            for j in range(3):
                assert matrix[i, j] == pytest.approx(
                    js_divergence(rows[i], cols[j]))


class TestValidation:
    """Each public call validates its own arguments, once each."""

    GOOD = np.array([0.5, 0.5])
    BAD = [(np.array([-0.5, 1.5]), "negative"),
           (np.array([0.5, 0.6]), "sum to 1"),
           (np.array([0.0, 0.0]), "no probability mass")]

    @pytest.mark.parametrize("function", [kl_divergence, js_divergence,
                                          js_divergence_matrix])
    @pytest.mark.parametrize("bad,message", BAD)
    def test_bad_first_argument_raises(self, function, bad, message):
        with pytest.raises(ValueError, match=message):
            function(bad, self.GOOD)

    @pytest.mark.parametrize("function", [kl_divergence, js_divergence,
                                          js_divergence_matrix])
    @pytest.mark.parametrize("bad,message", BAD)
    def test_bad_second_argument_raises(self, function, bad, message):
        with pytest.raises(ValueError, match=message):
            function(self.GOOD, bad)

    @pytest.mark.parametrize("function", [kl_divergence, js_divergence,
                                          js_divergence_matrix])
    def test_dimension_mismatch(self, function):
        with pytest.raises(ValueError, match="mismatch"):
            function(self.GOOD, np.array([0.2, 0.3, 0.5]))

    @pytest.mark.parametrize("function", [kl_divergence, js_divergence,
                                          js_divergence_matrix])
    def test_two_validations_per_call(self, function, rng, monkeypatch):
        calls = []
        original = divergence._validate_distributions

        def counting(p, name):
            calls.append(name)
            return original(p, name)

        monkeypatch.setattr(divergence, "_validate_distributions", counting)
        rows = rng.dirichlet(np.ones(6), size=5)
        function(rows, rows[::-1])
        assert len(calls) == 2

    def test_matrix_rows_equal_batched_js(self, rng):
        rows = rng.dirichlet(np.full(30, 0.2), size=4)
        cols = rng.dirichlet(np.full(30, 0.2), size=7)
        matrix = js_divergence_matrix(rows, cols)
        for i in range(rows.shape[0]):
            np.testing.assert_array_equal(
                matrix[i], js_divergence(rows[i][np.newaxis, :], cols))


class TestSortedThetaJs:
    def test_permutation_invariance(self, rng):
        theta = np.array([random_distribution(rng, 6) for _ in range(4)])
        permuted = theta[:, rng.permutation(6)]
        per_doc = sorted_theta_js(theta, permuted)
        np.testing.assert_allclose(per_doc, 0.0, atol=1e-12)

    def test_pads_different_topic_counts(self, rng):
        theta_a = np.array([[0.5, 0.5]])
        theta_b = np.array([[0.5, 0.3, 0.2]])
        value = sorted_theta_js(theta_a, theta_b)
        assert value.shape == (1,)
        assert np.isfinite(value[0])

    def test_identical_after_padding(self):
        theta_a = np.array([[0.6, 0.4]])
        theta_b = np.array([[0.4, 0.0, 0.6]])
        np.testing.assert_allclose(sorted_theta_js(theta_a, theta_b),
                                   [0.0], atol=1e-12)

    def test_document_count_mismatch(self):
        with pytest.raises(ValueError, match="document count"):
            sorted_theta_js(np.ones((2, 2)) / 2, np.ones((3, 2)) / 2)

    def test_total_is_sum(self, rng):
        theta_a = np.array([random_distribution(rng, 5) for _ in range(6)])
        theta_b = np.array([random_distribution(rng, 5) for _ in range(6)])
        assert sorted_theta_js_total(theta_a, theta_b) == pytest.approx(
            sorted_theta_js(theta_a, theta_b).sum())

    def test_closer_model_scores_lower(self, rng):
        truth = np.array([random_distribution(rng, 8) for _ in range(10)])
        near = 0.9 * truth + 0.1 / 8
        far = np.array([random_distribution(rng, 8) for _ in range(10)])
        assert sorted_theta_js_total(truth, near) < \
            sorted_theta_js_total(truth, far)
