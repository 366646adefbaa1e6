"""Tests for the detection-driven end-to-end experiment."""

import numpy as np
import pytest

from repro import campaigns
from repro.sim.endtoend import EndToEndResult

from reference_engines import reference_run_shot


@pytest.fixture(scope="module")
def campaign():
    """One shared medium-size campaign (module-scoped: it is the slow
    part, and every assertion reads the same aggregate).  The seed is
    ``int(np.random.default_rng(99).integers(2**63))``."""
    spec = campaigns.EndToEndSpec(
        distance=13, p=0.005, shots=40, anomaly_size=4, onset=120,
        cycles=300, c_win=80, n_th=8, seed=4667309173420421452)
    return campaigns.run(spec,
                         executor=campaigns.default_executor(0)).detail


class TestResultType:
    def test_rates_keys(self):
        res = EndToEndResult(10, 5, 3, 2, detections=9, mean_latency=12.0)
        assert set(res.rates()) == {"naive", "detected", "oracle"}
        assert res.detection_rate == 0.9

    def test_invalid_onset_rejected(self):
        with pytest.raises(campaigns.SpecError):
            campaigns.EndToEndSpec(distance=9, p=0.01, shots=1, onset=300,
                                   cycles=300)

    def test_zero_shots_rejected(self):
        with pytest.raises(campaigns.SpecError):
            campaigns.EndToEndSpec(distance=9, p=0.01, shots=0, onset=10,
                                   cycles=50)


@pytest.mark.slow
class TestCampaign:
    def test_detection_usually_fires(self, campaign):
        assert campaign.detection_rate > 0.8

    def test_latency_is_positive_and_bounded(self, campaign):
        assert 0 <= campaign.mean_latency < 240

    def test_detected_decoding_beats_naive(self, campaign):
        rates = campaign.rates()
        assert rates["detected"] <= rates["naive"]

    def test_oracle_is_the_floor(self, campaign):
        rates = campaign.rates()
        # Detection estimates the region within a node or two, so the
        # detected decoder should track the oracle closely (within the
        # campaign's statistical resolution).
        assert rates["oracle"] <= rates["naive"]
        assert rates["detected"] <= rates["oracle"] + 0.25


class TestPreOnsetFalsePositive:
    """Regression for the discard bug: a pre-onset false positive used
    to leave its detection mask in place, which could blind the unit to
    the real strike at the same position for mask_cycles."""

    @staticmethod
    def _unit_and_streams():
        from repro.core.anomaly import AnomalyDetectionUnit
        from repro.core.statistics import (SyndromeStatistics,
                                           expected_activity_rate)
        shape = (8, 9)
        stats = SyndromeStatistics.from_activity_rate(
            expected_activity_rate(0.005))
        unit = AnomalyDetectionUnit(shape, stats, c_win=40, n_th=6,
                                    alpha=0.01)
        burst = np.zeros(shape, dtype=np.int32)
        burst[2:6, 2:6] = 1  # a hot 4x4 patch trips > n_th counters
        quiet = np.zeros(shape, dtype=np.int32)
        return unit, burst, quiet

    def _drive(self, clear_discarded_masks: bool) -> bool:
        """Replay the end-to-end loop semantics: a transient
        burst before onset (discarded), then the real strike at the same
        position.  Returns whether the real strike was detected."""
        unit, burst, quiet = self._unit_and_streams()
        onset = 120
        stream = ([burst] * 50 + [quiet] * 70  # transient false positive
                  + [burst] * 80)              # the real strike
        for t, activity in enumerate(stream):
            evt = unit.observe(activity)
            if evt is None:
                continue
            if evt.cycle < onset:
                if clear_discarded_masks:
                    unit.clear_masks()
                continue
            return True
        return False

    def test_fixed_discard_keeps_strike_detectable(self):
        assert self._drive(clear_discarded_masks=True)

    def test_stale_mask_would_have_blinded_the_unit(self):
        """The scenario is a real discriminator: without the fix the
        mask from the discarded event suppresses the true detection."""
        assert not self._drive(clear_discarded_masks=False)

    def test_clear_masks_resets_only_masks(self):
        unit, burst, _ = self._unit_and_streams()
        for _ in range(45):
            unit.observe(burst)
        assert (unit._mask_until >= 0).any()
        counts_before = unit.counts.copy()
        cycle_before = unit.cycle
        unit.clear_masks()
        assert (unit._mask_until == -1).all()
        assert np.array_equal(unit.counts, counts_before)
        assert unit.cycle == cycle_before


class TestSingleShot:
    def test_shot_returns_judgements(self):
        spec = campaigns.EndToEndSpec(distance=9, p=0.008, shots=1,
                                      onset=100, cycles=200, c_win=80,
                                      n_th=8)
        naive, detected, oracle, latency = reference_run_shot(
            spec, np.random.default_rng(3))
        for value in (naive, detected, oracle):
            assert value in (0, 1)
        assert latency is None or latency >= 0
