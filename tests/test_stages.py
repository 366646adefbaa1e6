"""The stage seam: structure, per-stage units, and golden certification.

The refactor contract for PR 7 is that re-basing the shot kernels on
:mod:`repro.sim.stages` changes *structure only*: for a given
``(seed, batch_size)`` every kernel's outputs must equal the
pre-refactor monolithic paths bit for bit.  The ``Golden*`` classes pin
SHA-256 digests and campaign counts captured by running the
pre-refactor kernels (commit b5da1d7) with these exact parameters — if
any staged path drifts, these fail first.  Their ``"none"`` cases run
the float, per-shot reference (``reference_engines.reference_chunk``),
so the digests pin the reference and the packed kernels alike.
"""

import hashlib

import numpy as np
import pytest

from repro import campaigns
from repro.noise.models import AnomalousRegion
from repro.scenarios import Scenario, StrikeEvent
from repro.sim.batch import (DetectionShotKernel, EndToEndShotKernel,
                             MemoryShotKernel, _windowed_over)
from repro.sim.stages import ShotPipeline, Stage, StageContext, StageState
from repro.sim import bitops

from reference_engines import reference_chunk


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def memory_kernel() -> MemoryShotKernel:
    return MemoryShotKernel(
        5, 0.02, Scenario.from_region(AnomalousRegion.centered(5, 2), 0.5))


def endtoend_kernel(**overrides) -> EndToEndShotKernel:
    strike = StrikeEvent(onset=30, size=2, p_ano=0.5)
    params = dict(distance=5, p=0.01, scenario=Scenario(events=(strike,)),
                  cycles=70, c_win=20, n_th=3, alpha=0.01)
    params.update(overrides)
    return EndToEndShotKernel(**params)


def detection_kernel(**overrides) -> DetectionShotKernel:
    strike = StrikeEvent(onset=60, size=2, p_ano=0.5)
    params = dict(distance=5, p=2e-3, scenario=Scenario(events=(strike,)),
                  c_win=30, n_th=3, alpha=0.01, post_cycles=120)
    params.update(overrides)
    return DetectionShotKernel(**params)


# ----------------------------------------------------------------------
# Golden certification: staged kernels == pre-refactor outputs
# ----------------------------------------------------------------------
def _runner(kernel, packing):
    """``"bits"``: the kernel; ``"none"``: the float per-shot reference."""
    if packing == "none":
        return lambda shots, rng: reference_chunk(kernel, shots, rng)
    return kernel.run_batch_packed


class TestGoldenKernels:
    """Digests captured from the pre-seam kernels (same seeds/params)."""

    @pytest.mark.parametrize("packing", ["none", "bits"])
    def test_memory_kernel_golden(self, packing):
        out = _runner(memory_kernel(), packing)(37,
                                                 np.random.default_rng(123))
        assert digest(out) == "3601b4a71e36a6e5"

    @pytest.mark.parametrize("packing", ["none", "bits"])
    def test_endtoend_kernel_golden(self, packing):
        out = _runner(endtoend_kernel(), packing)(29,
                                                   np.random.default_rng(7))
        assert digest(out) == "fc4151090cab8662"

    @pytest.mark.parametrize("packing", ["none", "bits"])
    def test_detection_kernel_golden(self, packing):
        out = _runner(detection_kernel(), packing)(
            21, np.random.default_rng(11))
        assert digest(out) == "c85adf7c9bab065f"


class TestGoldenCampaigns:
    """Campaign-level counts captured from the pre-seam engine."""

    def test_memory_campaign_golden(self):
        result = campaigns.run(campaigns.MemorySpec(
            distance=5, p=0.02, samples=200, region="centered",
            anomaly_size=2, seed=5))
        assert result.counts["failures"] == 113

    def test_endtoend_campaign_golden(self):
        result = campaigns.run(campaigns.EndToEndSpec(
            distance=5, p=0.01, shots=40, anomaly_size=2, onset=30,
            cycles=70, c_win=20, n_th=3, seed=9))
        assert result.counts["naive_failures"] == 19
        assert result.counts["detected_failures"] == 21
        assert result.counts["oracle_failures"] == 16
        assert result.counts["detections"] == 40

    def test_detection_campaign_golden(self):
        result = campaigns.run(campaigns.DetectionSpec(
            distance=5, p=2e-3, p_ano=0.5, anomaly_size=2, c_win=30,
            n_th=3, trials=24, seed=3))
        assert result.counts["false_positives"] == 4
        assert result.counts["detections"] == 24


# ----------------------------------------------------------------------
# Pipeline structure
# ----------------------------------------------------------------------
class TestPipelineStructure:
    def test_stage_names(self):
        assert memory_kernel().pipeline().names() == \
            ("sample", "extract", "decode", "accumulate")
        assert endtoend_kernel().pipeline().names() == \
            ("sample", "extract", "detect", "decode", "accumulate")
        assert detection_kernel().pipeline().names() == \
            ("sample", "extract", "detect")

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            ShotPipeline(())

    def test_run_until_unknown_stage(self):
        kernel = memory_kernel()
        with pytest.raises(ValueError, match="no stage named"):
            kernel.pipeline().run_until(
                "detect", kernel._context(4, np.random.default_rng(0)))

    @pytest.mark.parametrize("kernel", [memory_kernel, endtoend_kernel,
                                        detection_kernel])
    def test_context_takes_only_the_packed_layout(self, kernel):
        """``_context`` keeps its ``packing`` parameter for callers that
        pass ``"bits"``; the float layout is gone."""
        k = kernel()
        assert k._context(4, None, "bits").shots == 4
        with pytest.raises(ValueError, match="packing"):
            k._context(4, None, "none")

    def test_base_stage_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Stage().run(StageContext(shots=1), StageState())

    def test_context_is_frozen(self):
        ctx = StageContext(shots=1)
        with pytest.raises(AttributeError):
            ctx.shots = 2

    def test_fresh_state_is_empty(self):
        state = StageState()
        assert state.v is None and state.outcomes is None


# ----------------------------------------------------------------------
# Stages as independently runnable units
# ----------------------------------------------------------------------
class TestMemoryStagesStepwise:
    def test_stepwise_equals_run_batch(self):
        shots, seed = 23, 42
        kernel = memory_kernel()
        ctx = kernel._context(shots, np.random.default_rng(seed))
        state = StageState()
        sample, extract, decode, accumulate = kernel.pipeline().stages

        sample.run(ctx, state)
        assert state.v.shape == (1, kernel.cycles, 5, 5)  # one word
        assert state.nodes_list is None  # not extracted yet

        extract.run(ctx, state)
        assert len(state.nodes_list) == shots
        assert state.parities.shape == (shots,)

        decode.run(ctx, state)
        assert state.matchings.shape == (shots,)

        accumulate.run(ctx, state)
        np.testing.assert_array_equal(
            state.outcomes, state.parities ^ state.matchings)
        np.testing.assert_array_equal(
            state.outcomes,
            memory_kernel().run_batch_packed(shots,
                                             np.random.default_rng(seed)))
        np.testing.assert_array_equal(
            state.outcomes,
            reference_chunk(memory_kernel(), shots,
                            np.random.default_rng(seed)))

    def test_extract_stage_packed_matches_float(self):
        """The extract seam alone reproduces the float path's nodes."""
        shots, seed = 21, 3
        kernel = memory_kernel()
        state = kernel.pipeline().run_until(
            "extract", kernel._context(shots, np.random.default_rng(seed)))
        noise, lattice = kernel._state[:2]
        v, h, m = noise.sample_batch(shots, kernel.cycles,
                                     np.random.default_rng(seed))
        for s, nodes in enumerate(state.nodes_list):
            np.testing.assert_array_equal(
                nodes, lattice.detection_events(v[s], h[s], m[s]))
        np.testing.assert_array_equal(state.parities,
                                      lattice.error_cut_parity(v))


class TestEndToEndStagesStepwise:
    def test_detect_stage_produces_decode_inputs(self):
        shots, seed = 9, 17
        kernel = endtoend_kernel()
        state = kernel.pipeline().run_until(
            "detect", kernel._context(shots, np.random.default_rng(seed)))
        assert len(state.nodes_list) == shots
        assert len(state.detections) == shots
        assert state.parities.shape == (shots,)
        # One true box per shot: the scenario's single event.
        assert all(len(regs) == 1 and isinstance(regs[0], AnomalousRegion)
                   for regs in state.regions)

    def test_chunk_packed_matches_full_run(self):
        shots, seed = 13, 5
        kernel = endtoend_kernel()
        chunk = kernel._chunk_packed(shots, np.random.default_rng(seed))
        out = kernel._assemble(*chunk)
        np.testing.assert_array_equal(
            out,
            endtoend_kernel().run_batch_packed(
                shots, np.random.default_rng(seed)))

    @pytest.mark.parametrize("decode", ["batched", "pershot"])
    def test_decode_modes_agree_through_stages(self, decode):
        """Both decode paths of the stage agree with the reference: one
        event weight decodes through the region-bucketed engine
        (``batched``), two different weights score shot by shot
        (``pershot``)."""
        shots, seed = 11, 29
        events = (StrikeEvent(onset=30, size=2, p_ano=0.5),)
        if decode == "pershot":
            events += (StrikeEvent(onset=40, size=1, p_ano=0.2),)
        kernel = endtoend_kernel(scenario=Scenario(events=events))
        out = kernel.run_batch_packed(shots, np.random.default_rng(seed))
        ref = reference_chunk(kernel, shots, np.random.default_rng(seed))
        np.testing.assert_array_equal(out, ref)


class TestDetectionStagesStepwise:
    @pytest.mark.parametrize("scan", ["batched", "pershot"])
    def test_scan_modes_agree_through_stages(self, scan):
        """The full pipeline's one batched windowed-count pass
        (``batched``) and per-shot ``_windowed_over`` scans of the
        extract stage's activity (``pershot``) both reproduce the
        reference."""
        shots, seed = 12, 8
        kernel = detection_kernel()
        if scan == "batched":
            out = kernel.run_batch_packed(shots, np.random.default_rng(seed))
        else:
            state = kernel.pipeline().run_until(
                "extract", kernel._context(shots, np.random.default_rng(seed)))
            activity = bitops.unpack_shots(state.activity, shots)
            out = np.array([
                kernel._score_scan(
                    *_windowed_over(activity[s], kernel.c_win,
                                    kernel._state[1]),
                    state.regions[s])
                for s in range(shots)])
        ref = reference_chunk(detection_kernel(), shots,
                              np.random.default_rng(seed))
        np.testing.assert_array_equal(out, ref)

    def test_extract_stage_activity_shapes(self):
        shots, seed = 7, 2
        kernel = detection_kernel()
        total = kernel.normal_cycles + kernel.post_cycles
        state = kernel.pipeline().run_until(
            "extract", kernel._context(shots, np.random.default_rng(seed)))
        assert state.activity.shape == (1, total, 4, 5)  # one word
