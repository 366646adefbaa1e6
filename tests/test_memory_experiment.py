"""Tests for the logical-memory Monte-Carlo campaigns."""

import numpy as np
import pytest

from repro import campaigns
from repro.noise import AnomalousRegion
from repro.sim.memory import LogicalErrorEstimate, fit_scaling_exponent


def _memory(distance, p, samples, seed, **fields):
    """One ``MemorySpec`` campaign through the in-process whole-request
    executor; returns its :class:`LogicalErrorEstimate`."""
    spec = campaigns.MemorySpec(distance=distance, p=p, samples=samples,
                                seed=seed, **fields)
    return campaigns.run(spec, executor=campaigns.default_executor(0)).detail


class TestEstimate:
    def test_per_run(self):
        est = LogicalErrorEstimate(5, 100, cycles=10)
        assert est.per_run == 0.05

    def test_per_cycle_conversion(self):
        est = LogicalErrorEstimate(10, 100, cycles=10)
        assert est.per_cycle == pytest.approx(
            1 - (1 - 0.1) ** 0.1)

    def test_per_cycle_saturation(self):
        est = LogicalErrorEstimate(100, 100, cycles=10)
        assert est.per_cycle == 1.0

    def test_std_error_positive(self):
        est = LogicalErrorEstimate(5, 100, cycles=10)
        assert est.per_cycle_std_error > 0

    def test_per_cycle_std_error_matches_bootstrap(self):
        """Regression for the error-propagation bug: the delta method
        must track the empirical spread of per_cycle across binomial
        resamples; dividing by T alone understates it once P is large."""
        failures, samples, cycles = 150, 500, 10
        est = LogicalErrorEstimate(failures, samples, cycles)
        rng = np.random.default_rng(0)
        resampled = rng.binomial(samples, failures / samples, size=20_000)
        per_cycle = 1.0 - (1.0 - resampled / samples) ** (1.0 / cycles)
        bootstrap_std = float(per_cycle.std())
        assert est.per_cycle_std_error == pytest.approx(bootstrap_std,
                                                        rel=0.05)
        # The old 1/T scaling misses the (1-P)^(1/T-1) amplification.
        naive = est.estimate.std_error / cycles
        assert est.per_cycle_std_error > 1.2 * naive

    def test_per_cycle_std_error_saturated_estimate(self):
        est = LogicalErrorEstimate(100, 100, cycles=10)
        assert np.isfinite(est.per_cycle_std_error)


class TestExperiment:
    def test_invalid_decoder_rejected(self):
        with pytest.raises(campaigns.SpecError):
            campaigns.MemorySpec(distance=5, p=0.01, samples=1,
                                 decoder="magic")

    def test_zero_noise_never_fails(self):
        est = _memory(5, 0.0, 50, seed=12345)
        assert est.failures == 0

    def test_custom_cycle_count(self):
        est = _memory(5, 0.01, 10, seed=12345, cycles=3)
        assert est.cycles == 3

    def test_default_cycles_equal_distance(self):
        assert _memory(7, 0.01, 1, seed=0).cycles == 7

    def test_seeded_runs_reproducible(self):
        a = _memory(5, 0.02, 200, seed=7)
        b = _memory(5, 0.02, 200, seed=7)
        assert a.failures == b.failures

    def test_need_at_least_one_sample(self):
        with pytest.raises(campaigns.SpecError):
            campaigns.MemorySpec(distance=5, p=0.01, samples=0)


class TestPaperShapes:
    """Statistical checks of the paper's qualitative claims."""

    def test_mbbe_raises_logical_error_rate(self):
        p = 0.01
        clean = _memory(9, p, 400, seed=1)
        region = AnomalousRegion.centered(9, 4)
        dirty = _memory(9, p, 400, seed=2, region=region)
        assert dirty.per_run > 2 * clean.per_run

    @pytest.mark.slow
    def test_informed_decoding_helps(self):
        # Fig. 8: with-rollback beats without-rollback at low p.
        p = 0.008
        region = AnomalousRegion.centered(9, 4)
        naive = _memory(9, p, 700, seed=3, region=region)
        informed = _memory(9, p, 700, seed=4, region=region, informed=True)
        assert informed.per_run < naive.per_run

    @pytest.mark.slow
    def test_larger_anomaly_is_worse(self):
        p = 0.008
        small = _memory(9, p, 500, seed=5,
                        region=AnomalousRegion.centered(9, 2))
        large = _memory(9, p, 500, seed=6,
                        region=AnomalousRegion.centered(9, 4))
        assert large.per_run > small.per_run

    def test_distance_helps_below_threshold(self):
        p = 0.015
        small = _memory(5, p, 500, seed=7)
        large = _memory(11, p, 500, seed=8)
        assert large.per_cycle < small.per_cycle

    def test_mwpm_beats_greedy(self):
        p = 0.02
        greedy = _memory(5, p, 400, seed=9, decoder="greedy")
        exact = _memory(5, p, 400, seed=10, decoder="mwpm")
        assert exact.per_run <= greedy.per_run


class TestScalingFit:
    def test_fit_recovers_exponent(self):
        base = 0.3
        rates = {d: 0.1 * base ** (d // 2 + 1) for d in (5, 7, 9, 11)}
        amp, fitted = fit_scaling_exponent(rates)
        assert fitted == pytest.approx(base, rel=1e-6)
        assert amp == pytest.approx(0.1, rel=1e-6)

    def test_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_scaling_exponent({5: 0.1})
