"""`repro.scenarios`: model, spec, catalog, and the bit-identity contract.

The load-bearing assertion lives in :class:`TestLegacyBitIdentity`: a
scenario holding one fixed-position (memory) or one re-drawn-per-shot
(endtoend/detection) event over a uniform base rate must produce
**bit-identical** counts and estimates to the legacy
``AnomalousRegion`` campaign it generalizes, per ``(seed, batch_size)``,
on all three engines (docs/CONTRACTS.md).
"""

import numpy as np
import pytest

from repro import campaigns
from repro.campaigns import (DetectionSpec, EndToEndSpec, MemorySpec,
                             ScenarioSpec, SpecError, Sweep,
                             spec_from_json, spec_hash, spec_to_json)
from repro.campaigns.runner import shot_engine
from repro.noise.models import AnomalousRegion
from repro.scenarios import (Scenario, ScenarioError, StrikeEvent,
                             catalog_spec, register_scenario,
                             scenario_catalog)
from repro.scenarios.catalog import _CATALOG

CATALOG_NAMES = [
    "overlapping-strikes", "back-to-back-strikes",
    "heterogeneous-base-rate", "drifting-base-rate",
    "leakage-burst", "decoder-frontier",
]


# ----------------------------------------------------------------------
# StrikeEvent
# ----------------------------------------------------------------------
class TestStrikeEvent:
    def test_validation(self):
        with pytest.raises(ScenarioError, match="onset"):
            StrikeEvent(onset=-1, size=2)
        with pytest.raises(ScenarioError, match="size"):
            StrikeEvent(onset=0, size=0)
        with pytest.raises(ScenarioError, match="duration"):
            StrikeEvent(onset=0, size=2, duration=0)
        with pytest.raises(ScenarioError, match="both row and col"):
            StrikeEvent(onset=0, size=2, row=1)
        with pytest.raises(ScenarioError, match="probability"):
            StrikeEvent(onset=0, size=2, p_ano=1.5)
        with pytest.raises(ScenarioError, match="burst source"):
            StrikeEvent(onset=0, size=2, source="gamma_ray")

    def test_window_and_position_properties(self):
        open_ended = StrikeEvent(onset=10, size=3)
        assert open_ended.t_hi is None and not open_ended.fixed
        bounded = StrikeEvent(onset=10, size=3, duration=40, row=1, col=2)
        assert bounded.t_hi == 50 and bounded.fixed

    def test_region_for_fixed_events(self):
        event = StrikeEvent(onset=5, size=3, duration=20, row=1, col=2)
        assert event.region() == AnomalousRegion(1, 2, 3, t_lo=5, t_hi=25)
        with pytest.raises(ScenarioError, match="random position"):
            StrikeEvent(onset=5, size=3).region()

    def test_resolve_region_draws_like_the_legacy_path(self):
        """A positionless event consumes the rng exactly as the legacy
        per-shot region draw, so streams stay aligned."""
        event = StrikeEvent(onset=5, size=3, duration=20)
        got = event.resolve_region(9, np.random.default_rng(3))
        want = AnomalousRegion.random(9, 3, np.random.default_rng(3),
                                      t_lo=5, t_hi=25)
        assert got == want

    def test_burst_source_routing(self):
        from repro.core.policy import ReactionPolicy
        from repro.noise.leakage import BurstSource
        tagged = StrikeEvent(onset=0, size=1, source="leakage")
        assert tagged.burst_source is BurstSource.LEAKAGE
        assert tagged.recommended_policy is ReactionPolicy.RELOCATE
        untagged = StrikeEvent(onset=0, size=1)
        assert untagged.burst_source is None
        assert untagged.recommended_policy is None

    def test_dict_round_trip_rejects_unknown_fields(self):
        event = StrikeEvent(onset=3, size=2, duration=7, row=0, col=1,
                            p_ano=0.25, source="atom_loss")
        assert StrikeEvent.from_dict(event.to_dict()) == event
        with pytest.raises(ScenarioError, match="unknown"):
            StrikeEvent.from_dict({"onset": 0, "size": 1, "oops": 2})


# ----------------------------------------------------------------------
# Scenario
# ----------------------------------------------------------------------
class TestScenario:
    def test_events_are_validated_and_frozen(self):
        scenario = Scenario(events=[StrikeEvent(onset=0, size=2,
                                                row=0, col=0)])
        assert isinstance(scenario.events, tuple)
        with pytest.raises(ScenarioError, match="StrikeEvent"):
            Scenario(events=({"onset": 0},))

    def test_rate_field_validation(self):
        with pytest.raises(ScenarioError, match="equal length"):
            Scenario(rate_field=[[1.0, 1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ScenarioError, match="measurement-node"):
            Scenario(rate_field=[[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ScenarioError, match="positive"):
            Scenario(rate_field=[[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        scenario = Scenario(rate_field=[[2.0, 1.0, 1.0],
                                        [1.0, 1.0, 3.0]])
        assert scenario.rate_field_distance == 3
        assert not scenario.uniform_base

    def test_drift_validation(self):
        with pytest.raises(ScenarioError, match="at least one"):
            Scenario(drift=())
        with pytest.raises(ScenarioError, match="positive"):
            Scenario(drift=(1.0, -0.5))
        assert Scenario(drift=[1, 2]).drift == (1.0, 2.0)

    def test_lead_is_the_earliest_event(self):
        late = StrikeEvent(onset=40, size=2)
        early = StrikeEvent(onset=10, size=3)
        tied = StrikeEvent(onset=10, size=1)
        scenario = Scenario(events=(late, early, tied))
        assert scenario.lead == 1  # declaration order breaks the tie
        assert scenario.first_onset == 10
        assert Scenario().first_onset == 0
        with pytest.raises(ScenarioError, match="no lead"):
            Scenario().lead

    def test_from_region_is_the_one_event_form(self):
        region = AnomalousRegion(1, 2, 3, t_lo=5, t_hi=25)
        (event,) = Scenario.from_region(region, 0.3).events
        assert event.region() == region and event.p_ano == 0.3
        open_ended = AnomalousRegion(1, 2, 3, t_lo=5)
        assert Scenario.from_region(open_ended).events[0].duration is None
        assert Scenario.from_region(None) == Scenario()
        with pytest.raises(ScenarioError, match="duration"):
            StrikeEvent.from_region(AnomalousRegion(1, 2, 3, t_lo=5, t_hi=5),
                                    0.5)

    def test_json_round_trip(self):
        scenario = Scenario(
            events=(StrikeEvent(onset=2, size=2, duration=5, row=1,
                                col=1, p_ano=0.3, source="leakage"),
                    StrikeEvent(onset=4, size=3)),
            rate_field=[[2.0, 1.0, 1.0], [1.0, 1.0, 3.0]],
            drift=(1.0, 1.5))
        assert Scenario.from_json(scenario.to_json()) == scenario
        with pytest.raises(ScenarioError, match="JSON"):
            Scenario.from_json("{nope")
        with pytest.raises(ScenarioError, match="unknown"):
            Scenario.from_dict({"events": [], "extra": 1})

    def test_rate_arrays_expand_nodes_to_edges(self):
        scenario = Scenario(rate_field=[[2.0, 1.0, 1.0],
                                        [1.0, 1.0, 4.0]],
                            drift=(1.0, 10.0))
        p = 0.01
        thr_v, thr_h, thr_m = scenario.rate_arrays(3, p, cycles=3)
        assert thr_v.shape == (3, 3, 3)
        assert thr_h.shape == (3, 2, 2)
        assert thr_m.shape == (3, 2, 3)
        # Node multipliers pass through on measurement edges.
        assert thr_m[0, 0, 0] == pytest.approx(2.0 * p)
        # A data edge takes the max over its incident nodes.
        assert thr_v[0, 0, 0] == pytest.approx(2.0 * p)   # below node (0,0)
        assert thr_v[0, 1, 0] == pytest.approx(2.0 * p)   # above it too
        assert thr_h[0, 1, 1] == pytest.approx(4.0 * p)
        # The drift profile scales cycles (last value holds) and the
        # result clips to probability range.
        assert thr_m[1, 0, 0] == pytest.approx(10.0 * 2.0 * p)
        assert thr_m[2, 0, 0] == thr_m[1, 0, 0]
        hot = Scenario(rate_field=[[200.0, 1.0, 1.0],
                                   [1.0, 1.0, 1.0]])
        assert hot.rate_arrays(3, p, cycles=1)[2][0, 0, 0] == 1.0
        # Uniform scenarios have no arrays: the scalar path is exact.
        assert Scenario().rate_arrays(3, p, cycles=1) is None

    def test_rate_field_distance_mismatch_is_an_error(self):
        scenario = Scenario(rate_field=[[1.0, 1.0, 1.0],
                                        [1.0, 1.0, 1.0]])
        with pytest.raises(ScenarioError, match="distance"):
            scenario.rate_arrays(5, 0.01, cycles=2)

    def test_from_burst_events_keeps_the_source_tag(self):
        from repro.noise.leakage import BurstEvent, BurstSource
        burst = BurstEvent(BurstSource.ATOM_LOSS, cycle=7, row=2, col=3,
                           size=1, duration_cycles=50, p_ano=0.5)
        scenario = Scenario.from_burst_events([burst])
        event = scenario.events[0]
        assert event.onset == 7 and event.duration == 50
        assert event.row == 2 and event.col == 3
        assert event.source == "atom_loss"
        assert Scenario.from_json(scenario.to_json()) == scenario


# ----------------------------------------------------------------------
# ScenarioSpec
# ----------------------------------------------------------------------
def _fixed_event(**overrides):
    kwargs = dict(onset=0, size=2, row=1, col=1, p_ano=0.4)
    kwargs.update(overrides)
    return StrikeEvent(**kwargs)


class TestScenarioSpec:
    def test_memory_mode_needs_fixed_positions(self):
        ScenarioSpec(distance=5, p=0.01, shots=8,
                     scenario=Scenario(events=(_fixed_event(),)))
        with pytest.raises(SpecError, match="fixed"):
            ScenarioSpec(distance=5, p=0.01, shots=8,
                         scenario=Scenario(
                             events=(StrikeEvent(onset=0, size=2),)))
        with pytest.raises(SpecError, match="detection-mode knob"):
            ScenarioSpec(distance=5, p=0.01, shots=8, post_cycles=10,
                         scenario=Scenario(events=(_fixed_event(),)))

    def test_endtoend_mode_needs_an_explicit_horizon(self):
        events = (StrikeEvent(onset=30, size=2),)
        ScenarioSpec(distance=5, p=0.01, shots=8, mode="endtoend",
                     cycles=60, scenario=Scenario(events=events))
        with pytest.raises(SpecError, match="at least one event"):
            ScenarioSpec(distance=5, p=0.01, shots=8, mode="endtoend",
                         cycles=60)
        with pytest.raises(SpecError, match="explicit cycles"):
            ScenarioSpec(distance=5, p=0.01, shots=8, mode="endtoend",
                         scenario=Scenario(events=events))
        with pytest.raises(SpecError, match="inside the run"):
            ScenarioSpec(distance=5, p=0.01, shots=8, mode="endtoend",
                         cycles=20, scenario=Scenario(events=events))

    def test_detection_mode_derives_its_window(self):
        events = (StrikeEvent(onset=40, size=2, duration=80),)
        spec = ScenarioSpec(distance=5, p=0.002, shots=4,
                            mode="detection", c_win=20,
                            scenario=Scenario(events=events))
        assert spec.resolved_cycles() == (40, 80)  # post = 4 * c_win
        assert spec.total_cycles() == 120
        with pytest.raises(SpecError, match="derives cycles"):
            ScenarioSpec(distance=5, p=0.002, shots=4, mode="detection",
                         cycles=100, c_win=20,
                         scenario=Scenario(events=events))
        with pytest.raises(SpecError, match="pre-strike window"):
            ScenarioSpec(distance=5, p=0.002, shots=4, mode="detection",
                         c_win=20, scenario=Scenario(
                             events=(StrikeEvent(onset=0, size=2),)))

    def test_target_rel_width_is_memory_mode_only(self):
        ScenarioSpec(distance=5, p=0.01, shots=8, target_rel_width=0.5,
                     scenario=Scenario(events=(_fixed_event(),)))
        events = (StrikeEvent(onset=40, size=2),)
        with pytest.raises(SpecError, match="memory-mode knob"):
            ScenarioSpec(distance=5, p=0.01, shots=8, mode="endtoend",
                         cycles=60, target_rel_width=0.5,
                         scenario=Scenario(events=events))
        with pytest.raises(SpecError, match="memory-mode knob"):
            ScenarioSpec(distance=5, p=0.002, shots=8, mode="detection",
                         c_win=20, target_rel_width=0.5,
                         scenario=Scenario(events=events))

    def test_rate_field_must_match_the_distance(self):
        with pytest.raises(SpecError, match="distance"):
            ScenarioSpec(distance=5, p=0.01, shots=8,
                         scenario=Scenario(
                             rate_field=[[1.0, 1.0, 1.0],
                                         [1.0, 1.0, 1.0]]))

    def test_wire_dict_scenarios_are_coerced(self):
        spec = ScenarioSpec(
            distance=5, p=0.01, shots=8,
            scenario={"events": [{"onset": 0, "size": 2,
                                  "row": 1, "col": 1}]})
        assert isinstance(spec.scenario, Scenario)
        with pytest.raises(SpecError, match="invalid scenario"):
            ScenarioSpec(distance=5, p=0.01, shots=8,
                         scenario={"events": [{"onset": -3, "size": 2}]})

    def test_spec_json_round_trip_and_stable_hash(self):
        spec = ScenarioSpec(
            distance=5, p=0.008, shots=64, mode="memory", cycles=12,
            scenario=Scenario(events=(_fixed_event(),),
                              drift=(1.0, 1.5)),
            seed=9, batch_size=16)
        clone = spec_from_json(spec_to_json(spec))
        assert clone == spec
        assert spec_hash(clone) == spec_hash(spec)


# ----------------------------------------------------------------------
# The catalog
# ----------------------------------------------------------------------
class TestCatalog:
    def test_catalog_lists_the_documented_entries(self):
        catalog = scenario_catalog()
        assert list(catalog) == CATALOG_NAMES
        for name, blurb in catalog.items():
            assert blurb, f"{name} needs a one-line description"

    def test_every_entry_materializes_and_round_trips(self):
        for name in CATALOG_NAMES:
            spec = catalog_spec(name)
            base = spec.base if isinstance(spec, Sweep) else spec
            assert isinstance(base, ScenarioSpec)
            clone = spec_from_json(spec_to_json(base))
            assert clone == base and spec_hash(clone) == spec_hash(base)

    def test_overrides_reach_the_spec_or_the_sweep_base(self):
        assert catalog_spec("leakage-burst", shots=5).shots == 5
        sweep = catalog_spec("decoder-frontier", shots=5)
        assert isinstance(sweep, Sweep) and sweep.base.shots == 5
        assert sweep.axes == {"decoder": ("greedy", "mwpm")}

    def test_unknown_and_duplicate_names_are_errors(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            catalog_spec("no-such-entry")
        try:
            @register_scenario("tmp-test-entry")
            def _tmp():
                """Temporary."""
                return catalog_spec("leakage-burst")
            with pytest.raises(ScenarioError, match="already registered"):
                @register_scenario("tmp-test-entry")
                def _tmp2():
                    """Duplicate."""
                    return catalog_spec("leakage-burst")
        finally:
            _CATALOG.pop("tmp-test-entry", None)

    def test_catalog_runs_end_to_end(self):
        """Cheapened catalog entries run through campaigns.run and a
        serialized replay is bit-identical."""
        spec = catalog_spec("overlapping-strikes", shots=32,
                            batch_size=16)
        result = campaigns.run(spec)
        assert result.kind == "scenario"
        assert result.counts["samples"] == 32
        replay = campaigns.run(spec_from_json(spec_to_json(spec)))
        assert replay.counts == result.counts
        assert replay.estimates == result.estimates

    def test_rate_field_and_drift_entries_run(self):
        for name in ("heterogeneous-base-rate", "drifting-base-rate"):
            result = campaigns.run(catalog_spec(name, shots=24,
                                                batch_size=8))
            assert result.counts["samples"] == 24

    def test_detection_entries_run(self):
        for name in ("back-to-back-strikes", "leakage-burst"):
            result = campaigns.run(catalog_spec(name, shots=2,
                                                batch_size=2))
            assert result.counts["trials"] == 2

    def test_decoder_frontier_sweeps_both_families(self):
        sweep = catalog_spec("decoder-frontier", shots=8, batch_size=4)
        result = campaigns.run(sweep)
        decoders = [overrides["decoder"] for overrides, _ in result]
        assert decoders == ["greedy", "mwpm"]
        for _, point in result:
            assert point.counts["samples"] == 8


# ----------------------------------------------------------------------
# The contract: single-event scenario ≡ legacy region, bit for bit
# ----------------------------------------------------------------------
def _pairs():
    memory_legacy = MemorySpec(
        distance=5, p=0.02, samples=64, region=AnomalousRegion(1, 1, 2),
        p_ano=0.4, informed=True, cycles=8, seed=11, batch_size=16)
    memory_scenario = ScenarioSpec(
        distance=5, p=0.02, shots=64, mode="memory", informed=True,
        cycles=8, seed=11, batch_size=16,
        scenario=Scenario(events=(StrikeEvent(onset=0, size=2, row=1,
                                              col=1, p_ano=0.4),)))
    endtoend_legacy = EndToEndSpec(
        distance=5, p=1e-2, shots=16, p_ano=0.5, anomaly_size=2,
        onset=30, cycles=60, c_win=20, n_th=4, seed=5, batch_size=8)
    endtoend_scenario = ScenarioSpec(
        distance=5, p=1e-2, shots=16, mode="endtoend", cycles=60,
        c_win=20, n_th=4, seed=5, batch_size=8,
        scenario=Scenario(events=(StrikeEvent(onset=30, size=2,
                                              p_ano=0.5),)))
    detection_legacy = DetectionSpec(
        distance=5, p=2e-3, p_ano=0.1, anomaly_size=2, c_win=20,
        n_th=4, trials=8, normal_cycles=40, post_cycles=80, seed=3,
        batch_size=4)
    detection_scenario = ScenarioSpec(
        distance=5, p=2e-3, shots=8, mode="detection", c_win=20,
        n_th=4, post_cycles=80, seed=3, batch_size=4,
        scenario=Scenario(events=(StrikeEvent(onset=40, size=2,
                                              duration=80, p_ano=0.1),)))
    return [("memory", memory_legacy, memory_scenario),
            ("endtoend", endtoend_legacy, endtoend_scenario),
            ("detection", detection_legacy, detection_scenario)]


class TestLegacyBitIdentity:
    @pytest.mark.parametrize("mode_name, legacy, scenario",
                             _pairs(), ids=lambda v: v if
                             isinstance(v, str) else "")
    def test_single_event_scenario_equals_legacy_campaign(
            self, mode_name, legacy, scenario):
        want = campaigns.run(legacy)
        got = campaigns.run(scenario)
        # Bit identity: counts AND estimates, not statistical closeness.
        drop = {"samples", "shots", "trials"}
        assert {k: v for k, v in got.counts.items() if k not in drop} \
            == {k: v for k, v in want.counts.items() if k not in drop}
        assert got.counts.get("samples", got.counts.get("shots",
                              got.counts.get("trials"))) \
            == want.counts.get("samples", want.counts.get("shots",
                               want.counts.get("trials")))
        assert got.estimates == want.estimates



# ----------------------------------------------------------------------
# Legacy specs resolve to one-event scenarios in the shot engine
# ----------------------------------------------------------------------
_RESOLUTIONS = [
    ("memory-free", MemorySpec(distance=5, p=0.01, samples=8), ()),
    ("memory-centered",
     MemorySpec(distance=9, p=0.01, samples=8, region="centered",
                anomaly_size=4, p_ano=0.4),
     (StrikeEvent(onset=0, size=4, row=2, col=2, p_ano=0.4),)),
    ("memory-window",
     MemorySpec(distance=5, p=0.01, samples=8,
                region=AnomalousRegion(1, 2, 2, t_lo=3, t_hi=9)),
     (StrikeEvent(onset=3, size=2, duration=6, row=1, col=2),)),
    ("endtoend",
     EndToEndSpec(distance=5, p=0.01, shots=4, p_ano=0.3, anomaly_size=2,
                  onset=30, cycles=60),
     (StrikeEvent(onset=30, size=2, p_ano=0.3),)),
    ("detection-default",
     DetectionSpec(distance=5, p=2e-3, p_ano=0.1, anomaly_size=2,
                   c_win=20),
     (StrikeEvent(onset=40, size=2, p_ano=0.1),)),
    ("detection-explicit",
     DetectionSpec(distance=5, p=2e-3, p_ano=0.1, anomaly_size=2,
                   c_win=20, normal_cycles=55),
     (StrikeEvent(onset=55, size=2, p_ano=0.1),)),
]


class TestLegacyResolution:
    @pytest.mark.parametrize("spec, events",
                             [case[1:] for case in _RESOLUTIONS],
                             ids=[case[0] for case in _RESOLUTIONS])
    def test_shot_engine_resolves_legacy_specs(self, spec, events):
        """Each region-era spec reaches its kernel as the one-event (or
        strike-free) scenario — :class:`TestLegacyBitIdentity` holds by
        construction."""
        kernel, _, _ = shot_engine(spec)
        assert kernel.scenario == Scenario(events=events)
        if isinstance(spec, DetectionSpec):
            assert (kernel.normal_cycles, kernel.post_cycles) \
                == spec.resolved_cycles()


class TestLeadEvent:
    """Single-strike readings take the earliest event, however the
    timeline is declared."""

    EARLY = StrikeEvent(onset=200, size=3, row=4, col=5)
    LATE = StrikeEvent(onset=400, size=3, row=0, col=0)

    def test_detection_scores_the_earliest_event(self):
        spec = ScenarioSpec(distance=9, p=0.005, shots=24,
                            mode="detection", seed=1,
                            scenario=Scenario(events=(self.LATE,
                                                      self.EARLY)))
        result = campaigns.run(spec)
        assert result.counts["detections"] == 24
        assert result.estimates["mean_position_error"] < 2

    def test_endtoend_estimates_the_earliest_event(self):
        early = StrikeEvent(onset=30, size=3)
        late = StrikeEvent(onset=50, size=1, p_ano=0.2)
        spec = ScenarioSpec(distance=7, p=0.01, shots=8, mode="endtoend",
                            cycles=80, c_win=20, n_th=3,
                            scenario=Scenario(events=(late, early)))
        kernel, _, _ = shot_engine(spec)
        state = kernel.pipeline().run_until(
            "detect", kernel._context(8, np.random.default_rng(0)))
        estimates = [est for est, _ in state.detections if est is not None]
        assert estimates and all(est.size == 3 for est in estimates)
