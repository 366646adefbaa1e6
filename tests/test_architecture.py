"""Integration tests: the Q3DE control unit over a live syndrome stream."""

import numpy as np
import pytest

from repro.core import Q3DEConfig, Q3DEControlUnit
from repro.core.statistics import SyndromeStatistics
from repro.decoding.graph import SyndromeLattice
from repro.noise import AnomalousRegion, PhenomenologicalNoise
from repro.scenarios import Scenario
from repro.sim.detection import calibrated_statistics


def make_unit(d=9, p=0.01, c_win=100, n_th=8, lifetime=5000):
    config = Q3DEConfig(distance=d, c_win=c_win, n_th=n_th,
                        anomaly_size=4, anomaly_lifetime_cycles=lifetime)
    return Q3DEControlUnit(config, calibrated_statistics(p))


def activity_stream(d, p, cycles, region=None, seed=0):
    rng = np.random.default_rng(seed)
    noise = PhenomenologicalNoise(d, p, Scenario.from_region(region))
    v, h, m = noise.sample(cycles, rng)
    return SyndromeLattice(d).per_cycle_activity(v, h, m)


class TestQuietOperation:
    def test_no_detection_on_clean_stream(self):
        unit = make_unit()
        for layer in activity_stream(9, 0.01, 400):
            report = unit.step(layer)
            assert report.detection is None
        assert unit.current_distance == 9

    def test_buffers_track_cycles(self):
        unit = make_unit()
        stream = activity_stream(9, 0.01, 50)
        for layer in stream:
            unit.step(layer)
        assert unit.cycle == 49
        assert unit.syndrome_queue.latest_cycle() == 49

    def test_memory_report_keys(self):
        unit = make_unit()
        bits = unit.memory_bits()
        assert set(bits) == {"syndrome_queue", "active_node_counter",
                             "matching_queue"}
        assert all(v > 0 for v in bits.values())


class TestMBBEReaction:
    def _run_with_strike(self, unit, d=9, p=0.01, onset=200, total=600,
                         seed=1):
        region = AnomalousRegion(2, 3, 4, t_lo=onset)
        stream = activity_stream(d, p, total, region=region, seed=seed)
        reports = [unit.step(layer) for layer in stream]
        return reports

    def test_detection_fires_after_onset(self):
        unit = make_unit()
        reports = self._run_with_strike(unit)
        detections = [r for r in reports if r.detection is not None]
        assert detections
        assert detections[0].cycle >= 200

    def test_detection_triggers_expansion(self):
        unit = make_unit()
        self._run_with_strike(unit)
        assert unit.current_distance == 18  # doubled

    def test_detection_triggers_rollback(self):
        unit = make_unit()
        reports = self._run_with_strike(unit)
        det = next(r for r in reports if r.detection is not None)
        assert det.rollback is not None
        assert det.rollback.replay_layers

    def test_rollback_point_precedes_detection(self):
        unit = make_unit()
        reports = self._run_with_strike(unit)
        det = next(r for r in reports if r.detection is not None)
        assert det.rollback.rollback_cycle < det.cycle

    def test_region_estimate_recorded(self):
        unit = make_unit()
        self._run_with_strike(unit)
        assert unit.known_regions
        region = unit.known_regions[0]
        # True region rows 2..5, cols 3..6; estimate within a node or two.
        assert abs(region.row_lo - 2) <= 2
        assert abs(region.col_lo - 3) <= 2

    def test_expansion_shrinks_after_lifetime(self):
        unit = make_unit(lifetime=300)
        region = AnomalousRegion(2, 3, 4, t_lo=150, t_hi=250)
        stream = activity_stream(9, 0.01, 900, region=region, seed=2)
        for layer in stream:
            unit.step(layer)
        assert unit.current_distance == 9  # shrunk back

    def test_rollback_denied_when_host_consumed_data(self):
        unit = make_unit()
        # Simulate a host read of a freshly corrected register entry.
        quiet = activity_stream(9, 0.01, 150, seed=3)
        for layer in quiet:
            unit.step(layer)
        unit.register.write_raw(0, 1, cycle=unit.cycle)
        unit.register.mark_corrected(0, 0, cycle=unit.cycle)
        unit.register.read(0)
        region = AnomalousRegion(2, 3, 4, t_lo=0)
        hot = activity_stream(9, 0.01, 300, region=region, seed=4)
        reports = [unit.step(layer) for layer in hot]
        det = next((r for r in reports if r.detection is not None), None)
        assert det is not None
        assert det.rollback_denied
        assert det.rollback is None


class TestConfig:
    def test_invalid_distance(self):
        with pytest.raises(ValueError):
            Q3DEConfig(distance=1)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            Q3DEConfig(distance=9, c_win=0)

    def test_custom_expanded_distance(self):
        config = Q3DEConfig(distance=9, expanded_distance=13)
        unit = Q3DEControlUnit(
            config, SyndromeStatistics.from_activity_rate(0.05))
        assert unit.expansion.expanded_distance == 13
