"""Tests for repro.core.lambda_calibration (the g function)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.lambda_calibration import (SmoothingFunction,
                                           calibrate_smoothing,
                                           mean_js_curve)


@pytest.fixture
def hyper() -> np.ndarray:
    """A peaked count vector like a knowledge-source article produces."""
    rng = np.random.default_rng(0)
    counts = np.floor(rng.pareto(1.2, size=120) * 8)
    return counts + 0.01


class TestSmoothingFunction:
    def test_identity(self):
        g = SmoothingFunction.identity()
        assert g(0.0) == 0.0
        assert g(1.0) == 1.0
        assert g(0.37) == pytest.approx(0.37)

    def test_interpolation(self):
        g = SmoothingFunction(xs=np.array([0.0, 0.5, 1.0]),
                              ys=np.array([0.0, 0.1, 1.0]))
        assert g(0.25) == pytest.approx(0.05)
        assert g(0.75) == pytest.approx(0.55)

    def test_array_input(self):
        g = SmoothingFunction.identity()
        np.testing.assert_allclose(g(np.array([0.2, 0.8])), [0.2, 0.8])

    def test_scalar_returns_float(self):
        assert isinstance(SmoothingFunction.identity()(0.5), float)

    def test_rejects_decreasing_ys(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            SmoothingFunction(xs=np.array([0.0, 1.0]),
                              ys=np.array([1.0, 0.0]))

    def test_rejects_non_increasing_xs(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SmoothingFunction(xs=np.array([0.0, 0.0]),
                              ys=np.array([0.0, 1.0]))

    def test_rejects_too_few_knots(self):
        with pytest.raises(ValueError, match=">= 2"):
            SmoothingFunction(xs=np.array([0.5]), ys=np.array([0.5]))


class TestMeanJsCurve:
    def test_decreasing_in_lambda(self, hyper):
        lambdas = np.array([0.0, 0.5, 1.0])
        curve = mean_js_curve(hyper, lambdas, draws=25, rng=1)
        assert curve[0] > curve[1] > curve[2]

    def test_lambda_one_small_divergence(self, hyper):
        curve = mean_js_curve(hyper, np.array([1.0]), draws=25, rng=1)
        assert curve[0] < 0.15

    def test_aggregates_multiple_topics(self, hyper):
        stacked = np.vstack([hyper, hyper * 2])
        curve = mean_js_curve(stacked, np.array([0.5]), draws=5, rng=0)
        assert curve.shape == (1,)
        assert np.isfinite(curve[0])

    def test_rejects_nonpositive_hyperparameters(self):
        with pytest.raises(ValueError, match="strictly positive"):
            mean_js_curve(np.array([0.0, 1.0]), np.array([0.5]))

    def test_rejects_zero_draws(self, hyper):
        with pytest.raises(ValueError, match="draws"):
            mean_js_curve(hyper, np.array([0.5]), draws=0)


class TestCalibrateSmoothing:
    def test_endpoints_pinned(self, hyper):
        g = calibrate_smoothing(hyper, draws=8, rng=2)
        assert g(0.0) == 0.0
        assert g(1.0) == 1.0

    def test_monotone(self, hyper):
        g = calibrate_smoothing(hyper, draws=8, rng=2)
        values = g(np.linspace(0, 1, 50))
        assert np.all(np.diff(values) >= -1e-12)

    def test_output_in_unit_interval(self, hyper):
        g = calibrate_smoothing(hyper, draws=8, rng=2)
        values = np.asarray(g(np.linspace(0, 1, 50)))
        assert np.all((values >= 0) & (values <= 1))

    def test_makes_js_curve_more_linear(self, hyper):
        """The whole point of g (Fig. 3 vs Fig. 4)."""
        lambdas = np.linspace(0, 1, 9)
        raw = mean_js_curve(hyper, lambdas, draws=30, rng=3)
        g = calibrate_smoothing(hyper, grid_points=11, draws=30, rng=3)
        smoothed = mean_js_curve(hyper, np.asarray(g(lambdas)), draws=30,
                                 rng=4)

        def r2(yvals):
            slope, intercept = np.polyfit(lambdas, yvals, 1)
            pred = slope * lambdas + intercept
            ss_res = ((yvals - pred) ** 2).sum()
            ss_tot = ((yvals - yvals.mean()) ** 2).sum()
            return 1 - ss_res / ss_tot

        assert r2(smoothed) >= r2(raw) - 0.02

    def test_max_topics_caps_work(self, hyper):
        stacked = np.vstack([hyper] * 30)
        g = calibrate_smoothing(stacked, draws=3, max_topics=2, rng=0)
        assert g(0.5) >= 0.0  # completed quickly and sanely

    def test_grid_points_validated(self, hyper):
        with pytest.raises(ValueError, match="grid_points"):
            calibrate_smoothing(hyper, grid_points=2)

    def test_deterministic_given_rng(self, hyper):
        a = calibrate_smoothing(hyper, draws=5, rng=7)
        b = calibrate_smoothing(hyper, draws=5, rng=7)
        np.testing.assert_allclose(a.ys, b.ys)


class TestCalibrationPins:
    """``ys`` digests computed before the divergences were batched."""

    @staticmethod
    def digest(g: SmoothingFunction) -> str:
        return hashlib.sha256(g.ys.tobytes()).hexdigest()

    def test_superset_shaped_ys_pinned(self, superset_hyperparameters):
        g = calibrate_smoothing(superset_hyperparameters, draws=10, rng=0)
        assert self.digest(g) == ("f6f3093a997e03e1ba7f9b589a511779"
                                  "c5a84e4658719826dbc8ed6abd893599")

    def test_mixed_shaped_ys_pinned(self):
        rng = np.random.default_rng(1)
        hyper = np.floor(rng.pareto(1.2, size=(60, 1400)) * 2) + 0.01
        g = calibrate_smoothing(hyper, draws=4, rng=1)
        assert self.digest(g) == ("1057ad139b1f1c4e94fed1ae8ad0a1bc"
                                  "bdccb14f13bb2def825ef0814c379bd4")
