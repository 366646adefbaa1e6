"""Tests for noise models and the cosmic-ray process."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.noise import AnomalousRegion, CosmicRayModel, PhenomenologicalNoise
from repro.noise.cosmic_ray import CosmicRayStrike
from repro.noise.models import build_anomalous_masks
from repro.scenarios import Scenario


class TestAnomalousRegion:
    def test_bounds(self):
        reg = AnomalousRegion(2, 3, 4)
        assert reg.row_hi == 6
        assert reg.col_hi == 7

    def test_contains_node(self):
        reg = AnomalousRegion(1, 1, 2)
        assert reg.contains_node(1, 1)
        assert reg.contains_node(2, 2)
        assert not reg.contains_node(3, 1)
        assert not reg.contains_node(0, 1)

    def test_active_window(self):
        reg = AnomalousRegion(0, 0, 2, t_lo=5, t_hi=10)
        assert not reg.active_at(4)
        assert reg.active_at(5)
        assert reg.active_at(9)
        assert not reg.active_at(10)

    def test_open_ended_time(self):
        reg = AnomalousRegion(0, 0, 2, t_lo=3)
        assert reg.active_at(10 ** 9)

    def test_centered_fits_lattice(self):
        reg = AnomalousRegion.centered(9, 4)
        assert 0 <= reg.row_lo and reg.row_hi <= 8
        assert 0 <= reg.col_lo and reg.col_hi <= 9

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            AnomalousRegion(0, 0, 0)
        with pytest.raises(ValueError):
            AnomalousRegion(-1, 0, 2)
        with pytest.raises(ValueError):
            AnomalousRegion(0, 0, 2, t_lo=5, t_hi=4)


class TestPhenomenologicalNoise:
    def test_shapes(self, rng):
        noise = PhenomenologicalNoise(5, 0.01)
        v, h, m = noise.sample(7, rng)
        assert v.shape == (7, 5, 5)
        assert h.shape == (7, 4, 4)
        assert m.shape == (7, 4, 5)

    def test_zero_rate_is_silent(self, rng):
        noise = PhenomenologicalNoise(5, 0.0)
        v, h, m = noise.sample(10, rng)
        assert not v.any() and not h.any() and not m.any()

    def test_rate_statistics(self):
        rng = np.random.default_rng(0)
        noise = PhenomenologicalNoise(9, 0.05)
        v, _, _ = noise.sample(2000, rng)
        assert abs(v.mean() - 0.05) < 0.005

    def test_anomalous_region_has_elevated_rate(self):
        rng = np.random.default_rng(1)
        reg = AnomalousRegion(2, 2, 3)
        noise = PhenomenologicalNoise(9, 0.001, Scenario.from_region(reg))
        _, _, m = noise.sample(3000, rng)
        inside = m[:, 3, 3].mean()
        outside = m[:, 0, 0].mean()
        assert inside > 0.4
        assert outside < 0.01

    def test_region_time_bounds_respected(self):
        rng = np.random.default_rng(2)
        reg = AnomalousRegion(2, 2, 3, t_lo=100, t_hi=200)
        noise = PhenomenologicalNoise(9, 0.0, Scenario.from_region(reg))
        _, _, m = noise.sample(300, rng)
        assert not m[:100].any()
        assert m[100:200, 3, 3].mean() > 0.3
        assert not m[200:].any()

    def test_masks_cover_region_edges(self):
        reg = AnomalousRegion(0, 0, 2)
        v_mask, h_mask, m_mask = build_anomalous_masks(5, reg)
        assert m_mask[0, 0] and m_mask[1, 1]
        assert not m_mask[2, 2]
        # Edges incident on node (0, 0): vertical k=0 and k=1.
        assert v_mask[0, 0] and v_mask[1, 0]

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            PhenomenologicalNoise(5, 1.5)
        with pytest.raises(ValueError):
            PhenomenologicalNoise(1, 0.1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 7), st.integers(1, 5))
    def test_masks_nonempty_for_any_region(self, d, size):
        reg = AnomalousRegion.centered(d, min(size, d - 1))
        v_mask, h_mask, m_mask = build_anomalous_masks(d, reg)
        assert m_mask.any()
        assert v_mask.any()


class TestCosmicRayModel:
    def test_reference_parameters(self):
        model = CosmicRayModel()
        assert model.lifetime_cycles == 25_000
        assert model.strike_probability_per_cycle == pytest.approx(1e-6)
        assert model.duty_fraction == pytest.approx(0.025)

    def test_strike_count_scales_with_frequency(self):
        quiet = CosmicRayModel(frequency_hz=0.1,
                               rng=np.random.default_rng(3))
        loud = CosmicRayModel(frequency_hz=10.0,
                              rng=np.random.default_rng(3))
        cycles = 5_000_000
        assert len(loud.sample_strikes(cycles)) > len(
            quiet.sample_strikes(cycles))

    def test_strikes_sorted_and_in_window(self):
        model = CosmicRayModel(frequency_hz=50.0,
                               rng=np.random.default_rng(4))
        strikes = model.sample_strikes(1_000_000)
        assert strikes == sorted(strikes, key=lambda s: s.cycle)
        assert all(0 <= s.cycle < 1_000_000 for s in strikes)

    def test_strike_positions_fit_region(self):
        model = CosmicRayModel(frequency_hz=100.0, rows=10, cols=10,
                               anomaly_size=4,
                               rng=np.random.default_rng(5))
        for s in model.sample_strikes(500_000):
            assert 0 <= s.row <= 6
            assert 0 <= s.col <= 6

    def test_event_windows_tile_the_horizon(self):
        model = CosmicRayModel(frequency_hz=200.0,
                               rng=np.random.default_rng(6))
        horizon = 2_000_000
        cursor = 0
        for start, end, _ in model.iter_event_windows(horizon):
            assert start == cursor
            assert end > start
            cursor = end
        assert cursor == horizon

    def test_event_windows_serialize_overlaps(self):
        model = CosmicRayModel(frequency_hz=500.0,
                               rng=np.random.default_rng(7))
        anomalous = [(s, e) for s, e, strike in
                     model.iter_event_windows(3_000_000)
                     if strike is not None]
        # pairwise-adjacent zip: truncation is the point, not a bug
        for (s1, e1), (s2, e2) in zip(  # noqa: B905
                anomalous, anomalous[1:]):
            assert e1 <= s2

    def test_strike_active_window(self):
        strike = CosmicRayStrike(100, 0, 0, 4, duration_cycles=50)
        assert not strike.active_at(99)
        assert strike.active_at(100)
        assert strike.active_at(149)
        assert not strike.active_at(150)

    def test_error_rate_decay(self):
        strike = CosmicRayStrike(0, 0, 0, 4, duration_cycles=1000)
        p, p_ano, tau = 1e-3, 0.5, 25_000.0
        assert strike.error_rate_at(0, p_ano, p, tau) == pytest.approx(0.5)
        late = strike.error_rate_at(250_000, p_ano, p, tau)
        assert late == pytest.approx(p, abs=1e-4)
        mid = strike.error_rate_at(25_000, p_ano, p, tau)
        assert p < mid < p_ano

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CosmicRayModel(frequency_hz=-1.0)
        with pytest.raises(ValueError):
            CosmicRayModel(lifetime_s=0.0)
        with pytest.raises(ValueError):
            CosmicRayModel(anomaly_size=0)
