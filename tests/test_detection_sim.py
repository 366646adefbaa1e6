"""Tests for the anomaly-detection experiments (Fig. 7)."""

import math

import pytest

from repro import campaigns
from repro.sim.detection import (
    analytic_required_window,
    calibrated_statistics,
    empirical_required_window,
)

INLINE = campaigns.default_executor(0)


def _trials(**fields):
    """One ``DetectionSpec`` campaign in process, whole request."""
    return campaigns.run(campaigns.DetectionSpec(**fields),
                         executor=INLINE).detail


class TestAnalyticWindow:
    def test_monotone_decreasing_in_ratio(self):
        p = 1e-3
        windows = [analytic_required_window(p, p * r)
                   for r in (5, 10, 30, 100)]
        assert windows == sorted(windows, reverse=True)

    def test_diverges_near_ratio_one(self):
        p = 1e-3
        assert analytic_required_window(p, 2 * p) > \
            analytic_required_window(p, 50 * p) * 10

    def test_equal_rates_rejected(self):
        with pytest.raises(ValueError):
            analytic_required_window(1e-3, 1e-3)

    def test_saturated_anomaly_rate(self):
        # p_ano above 0.5 clips to 0.5 (activity cannot exceed 1/2).
        w1 = analytic_required_window(1e-3, 0.5)
        w2 = analytic_required_window(1e-3, 0.9)
        assert w1 == w2

    def test_result_is_positive_integer(self):
        w = analytic_required_window(1e-3, 0.1)
        assert isinstance(w, int) and w >= 1


class TestCalibration:
    def test_statistics_match_rate(self):
        stats = calibrated_statistics(1e-3)
        assert 0 < stats.mu < 0.01
        assert stats.sigma == pytest.approx(
            math.sqrt(stats.mu * (1 - stats.mu)))


class TestTrials:
    def test_strong_anomaly_always_detected(self):
        perf = _trials(
            distance=13, p=1e-3, p_ano=0.1, anomaly_size=4,
            c_win=200, n_th=10, trials=6, seed=0)
        assert perf.miss_rate == 0.0
        assert perf.false_positive_rate == 0.0

    def test_latency_within_window_scale(self):
        perf = _trials(
            distance=13, p=1e-3, p_ano=0.1, anomaly_size=4,
            c_win=200, n_th=10, trials=6, seed=1)
        assert perf.mean_latency < 2 * 200

    def test_position_error_small(self):
        perf = _trials(
            distance=13, p=1e-3, p_ano=0.1, anomaly_size=4,
            c_win=200, n_th=10, trials=6, seed=2)
        assert perf.mean_position_error < 4.0

    def test_tiny_window_fails_the_error_criteria(self):
        # A 10-cycle window cannot hit 1% detection errors for a weak
        # anomaly: either the coarse threshold trips on normal noise
        # (false positives) or the anomaly is missed.
        perf = _trials(
            distance=13, p=1e-3, p_ano=3e-3, anomaly_size=4,
            c_win=10, n_th=10, trials=5, post_cycles=100, seed=3)
        assert perf.miss_rate + perf.false_positive_rate >= 0.2

    def test_trial_counts_add_up(self):
        perf = _trials(
            distance=9, p=1e-3, p_ano=0.05, anomaly_size=3,
            c_win=150, n_th=8, trials=5, seed=4)
        assert perf.trials == 5
        assert 0 <= perf.detections <= 5


class TestEmpiricalWindow:
    @staticmethod
    def _search(p_ano, trials, seed):
        """The window search over a d = 13 base spec; its ``c_win`` is
        replaced by the search."""
        base = campaigns.DetectionSpec(
            distance=13, p=1e-3, p_ano=p_ano, anomaly_size=4, c_win=1,
            n_th=10, trials=trials, seed=seed)
        return empirical_required_window(base, executor=INLINE)

    def test_returns_window_meeting_targets(self):
        c_win, perf = self._search(0.1, trials=6, seed=5)
        assert c_win >= analytic_required_window(1e-3, 0.1)
        assert perf.miss_rate <= 1 / 6 + 1e-9

    def test_larger_ratio_needs_smaller_window(self):
        w_weak, _ = self._search(0.02, trials=4, seed=6)
        w_strong, _ = self._search(0.3, trials=4, seed=7)
        assert w_strong <= w_weak
