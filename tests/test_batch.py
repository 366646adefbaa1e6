"""Tests for the batched shot engine (repro.sim.batch)."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro import campaigns
from repro.decoding import (
    DistanceModel,
    GreedyDecoder,
    SyndromeLattice,
    greedy_cut_parity,
    greedy_decode_fast,
)
from repro.noise import AnomalousRegion, PhenomenologicalNoise, models
from repro.scenarios import Scenario, StrikeEvent, catalog_spec
from repro.sim import bitops, stages
from repro.sim.batch import (
    DetectionShotKernel,
    EndToEndShotKernel,
    MemoryShotKernel,
    _windowed_over,
    _windowed_over_batch,
    chunk_plan,
)

from reference_engines import (overwrite_anomalous_packed, reference_chunk,
                               reference_detect_scan,
                               reference_detection_trials,
                               reference_endtoend_run, reference_memory_run)


def _run(spec, workers):
    """``spec``'s domain result through ``default_executor(workers)``."""
    return campaigns.run(
        spec, executor=campaigns.default_executor(workers)).detail


class TestBatchedPrimitives:
    """sample_batch / batched lattice extraction agree with the
    per-shot primitives they replace."""

    def test_sample_batch_shapes(self, rng):
        noise = PhenomenologicalNoise(5, 0.05)
        v, h, m = noise.sample_batch(7, 3, rng)
        assert v.shape == (7, 3, 5, 5)
        assert h.shape == (7, 3, 4, 4)
        assert m.shape == (7, 3, 4, 5)

    def test_sample_batch_rejects_zero_shots(self, rng):
        with pytest.raises(ValueError):
            PhenomenologicalNoise(5, 0.05).sample_batch(0, 3, rng)

    def test_single_shot_bitwise_matches_sample(self):
        """sample() draws the same uniforms as a one-shot batch."""
        region = AnomalousRegion(1, 1, 2, t_lo=1)
        noise = PhenomenologicalNoise(5, 0.05, Scenario.from_region(region))
        v1, h1, m1 = noise.sample(4, np.random.default_rng(3))
        vb, hb, mb = noise.sample_batch(1, 4, np.random.default_rng(3))
        assert np.array_equal(v1, vb[0])
        assert np.array_equal(h1, hb[0])
        assert np.array_equal(m1, mb[0])

    def test_error_cut_parity_batched(self, rng):
        v = rng.random((6, 4, 5, 5)) < 0.2
        batched = SyndromeLattice.error_cut_parity(v)
        assert batched.shape == (6,)
        for s in range(6):
            single = SyndromeLattice.error_cut_parity(v[s])
            assert isinstance(single, int)
            assert batched[s] == single

    def test_per_cycle_activity_batched(self, rng):
        noise = PhenomenologicalNoise(5, 0.05)
        lattice = SyndromeLattice(5)
        v, h, m = noise.sample_batch(4, 6, rng)
        batched = lattice.per_cycle_activity(v, h, m)
        for s in range(4):
            assert np.array_equal(
                batched[s], lattice.per_cycle_activity(v[s], h[s], m[s]))


class TestFastGreedyEquivalence:
    """The batch engine's matching core is exactly the legacy decoder."""

    @staticmethod
    def _models(rng, d):
        yield DistanceModel(d)
        yield DistanceModel(
            d, AnomalousRegion(int(rng.integers(0, 3)),
                               int(rng.integers(0, 3)),
                               int(rng.integers(1, 5)),
                               t_lo=int(rng.integers(0, 3))), 0.0)
        yield DistanceModel(d, AnomalousRegion(1, 1, 3),
                            float(rng.random()))

    def test_fast_matches_legacy_exactly(self, rng):
        for _ in range(40):
            d = int(rng.integers(5, 12))
            n = int(rng.integers(0, 70))
            nodes = np.column_stack([
                rng.integers(0, d + 1, n), rng.integers(0, d - 1, n),
                rng.integers(0, d, n)])
            for model in self._models(rng, d):
                legacy = GreedyDecoder(model).decode(nodes)
                fast = greedy_decode_fast(model, nodes)
                assert legacy.matches == fast.matches
                assert legacy.weight == pytest.approx(fast.weight)
                assert (greedy_cut_parity(model, nodes)
                        == legacy.correction_cut_parity)

    def test_pairwise_fast_is_float_exact(self, rng):
        """Wherever the integer specialization answers, it equals the
        float distances exactly."""
        exact = 0
        for _ in range(30):
            d = int(rng.integers(5, 12))
            n = int(rng.integers(1, 40))
            nodes = np.column_stack([
                rng.integers(0, d + 1, n), rng.integers(0, d - 1, n),
                rng.integers(0, d, n)])
            for model in self._models(rng, d):
                dist = model.pairwise_int(nodes)
                if dist is None:  # weighted region: float path only
                    continue
                exact += 1
                assert np.array_equal(model.pairwise(nodes), dist)
        assert exact >= 60  # both unweighted models of every draw

    def test_pairwise_int_declines_weighted_region(self):
        model = DistanceModel(9, AnomalousRegion(1, 1, 3), 0.4)
        assert model.pairwise_int(np.array([[0, 1, 2]])) is None

    def test_huge_explicit_t_hi_stays_exact(self):
        """Regression: an int16 cast of far-future box bounds used to
        wrap and corrupt every fast-path distance."""
        model = DistanceModel(9, AnomalousRegion(1, 1, 3, t_hi=100_000), 0.0)
        nodes = np.array([[0, 0, 0], [0, 7, 8], [5, 3, 3], [5, 4, 3]])
        dist = model.pairwise_int(nodes)
        assert dist is None or np.array_equal(model.pairwise(nodes), dist)
        assert (GreedyDecoder(model).decode(nodes).matches
                == greedy_decode_fast(model, nodes).matches)

    def test_overwrite_anomalous_honors_time_bounds(self):
        region = AnomalousRegion(1, 1, 2, t_lo=2, t_hi=4)
        v = np.zeros((1, 8, 5, 5), dtype=np.uint64)
        h = np.zeros((1, 8, 4, 4), dtype=np.uint64)
        m = np.zeros((1, 8, 4, 5), dtype=np.uint64)
        overwrite_anomalous_packed(v, h, m, 3, region, 5, 1.0,
                                   np.random.default_rng(0))
        assert v[0, 2:4].any() and m[0, 2:4].any()
        for arr in (v, h, m):
            assert not arr[0, :2].any()
            assert not arr[0, 4:].any()
            # Only shot 3's lane is written.
            assert not (arr & ~np.uint64(1 << 3)).any()


class TestChunkWideOverwrite:
    """``_overwrite_strikes_packed`` equals the per-shot overwrite."""

    @staticmethod
    def _check(d, cycles, shots, scenario, seed=0):
        """Both overwrites from one generator state: same words, and the
        same number of uniforms drawn.  Returns the words and regions."""
        rng = np.random.default_rng(seed)
        regions = [scenario.resolve_regions(d, rng) for _ in range(shots)]
        words = PhenomenologicalNoise(d, 0.05).sample_batch_packed(
            shots, cycles, rng)
        ref = [w.copy() for w in words]
        ref_rng = copy.deepcopy(rng)
        for s, regs in enumerate(regions):
            for region, event in zip(regs, scenario.events, strict=True):
                overwrite_anomalous_packed(*ref, s, region, d, event.p_ano,
                                           ref_rng)
        stages._overwrite_strikes_packed(words, regions, scenario.events, d,
                                         rng)
        for got, want in zip(words, ref, strict=True):
            assert np.array_equal(got, want)
        assert rng.random() == ref_rng.random()
        return words, regions

    @pytest.mark.parametrize("shots", [1, 64, 130])
    def test_random_positions(self, shots):
        scenario = Scenario(events=(
            StrikeEvent(onset=5, size=3),
            StrikeEvent(onset=2, size=2, duration=9, p_ano=0.2)))
        self._check(9, 20, shots, scenario)

    def test_overlapping_strikes_later_event_wins(self):
        scenario = catalog_spec("overlapping-strikes").scenario
        self._check(7, 20, 70, scenario)
        first, second = scenario.events
        sure = Scenario(events=(replace(first, p_ano=1.0),
                                replace(second, p_ano=0.0)))
        (_, _, m), _ = self._check(7, 20, 70, sure)
        full = np.uint64(2**64 - 1)
        # Measurement cells (2..3, 2..3) sit in both boxes: set from
        # cycle 0 by the first event, cleared from cycle 4 by the second.
        assert (m[0, :4, 2:4, 2:4] == full).all()
        assert not m[:, 4:, 2:4, 2:4].any()
        assert (m[0, 4:, 1, 1:4] == full).all()

    def test_boxes_clipped_at_the_lattice_edge(self):
        corner = Scenario(events=(
            StrikeEvent(onset=0, size=4, row=4, col=5, p_ano=0.7),
            StrikeEvent(onset=3, size=9, p_ano=0.4)))
        self._check(7, 12, 70, corner)

    def test_empty_window_draws_nothing(self):
        late = Scenario(events=(StrikeEvent(onset=30, size=3),
                                StrikeEvent(onset=4, size=2, p_ano=0.9)))
        self._check(9, 20, 70, late)

    @pytest.mark.parametrize("p_ano", [0.0, 1.0])
    def test_certain_rates(self, p_ano):
        (_, _, m), regions = self._check(
            9, 20, 64, Scenario(events=(StrikeEvent(onset=5, size=4,
                                                    p_ano=p_ano),)))
        bits = bitops.unpack_shots(m, 64)
        for s, (r,) in enumerate(regions):
            box = bits[s, 5:, r.row_lo:r.row_hi, r.col_lo:r.col_hi]
            assert (box == (p_ano == 1.0)).all()

    def test_draws_split_inside_and_across_words(self, monkeypatch):
        monkeypatch.setattr(stages, "STRIKE_DRAW_UNIFORMS", 300)
        scenario = Scenario(events=(StrikeEvent(onset=14, size=3),
                                    StrikeEvent(onset=15, size=2)))
        self._check(9, 20, 130, scenario)


class TestScanTail:
    """The end-to-end kernel's chunk-wide scan tail against the per-shot
    reference tail (``reference_detect_scan``)."""

    D, P, C_WIN, N_TH = 9, 0.01, 6, 1  # a cell is over at >= 2 of 6

    def _kernel(self, events, cycles=30):
        kernel = EndToEndShotKernel(self.D, self.P,
                                    Scenario(events=tuple(events)), cycles,
                                    self.C_WIN, self.N_TH, 0.01)
        kernel.prepare()
        assert 1 < kernel._state[1] < 2
        return kernel

    def _activity(self, cycles):
        """Hand-made activity: ``(cells, first, last)`` bursts per shot."""
        shots = [
            [],                                          # miss
            [([(4, 4)], 0, cycles)],                     # one cell: miss
            [([(0, 0), (0, 1), (1, 0)], 15, cycles)],    # clip at 0
            [([(7, 5), (7, 6), (7, 7), (7, 8)], 12, cycles)],  # even, rows
            [([(3, 8), (4, 8)], 20, cycles)],            # even, cols
            [([(2, 2), (2, 3)], 0, 4),                   # early flag, then
             ([(5, 4), (5, 5), (6, 4)], 18, cycles)],    # the real one
            [([(1, 6), (2, 6)], cycles - 2, cycles)],    # last window
            [([(3, 3), (3, 4), (4, 3)], 0, cycles)],     # from cycle 0
        ]
        act = np.zeros((len(shots), cycles, self.D - 1, self.D), dtype=bool)
        for s, bursts in enumerate(shots):
            for cells, t0, t1 in bursts:
                for i, j in cells:
                    act[s, t0:t1, i, j] = True
        return act

    def _compare(self, kernel, act):
        shots = len(act)
        stop, estimated, latency = kernel._scan_tail(bitops.pack_shots(act),
                                                     shots)
        got = list(zip(stop.tolist(), estimated, latency.tolist(),
                       strict=True))
        want = [reference_detect_scan(kernel, *_windowed_over(
            act[s].astype(np.uint8), kernel.c_win, kernel._state[1]))
            for s in range(shots)]
        assert got == want
        return want

    def test_clipped_even_missed_early_and_last(self):
        kernel = self._kernel([StrikeEvent(onset=10, size=4)])
        want = self._compare(kernel, self._activity(30))
        boxes = [est for _, est, _ in want if est is not None]
        assert [lat for _, _, lat in want].count(-1) == 2
        assert {b.row_lo for b in boxes} >= {0, self.D - 1 - 4}
        assert {b.col_lo for b in boxes} >= {0, self.D - 4}
        # The last shot fires at window 0 but before the onset's window.
        assert want[-1][2] == 0 and want[-2][2] == 30 - 1 - 10

    def test_fire_in_the_first_window(self):
        kernel = self._kernel([StrikeEvent(onset=0, size=4)])
        want = self._compare(kernel, self._activity(30))
        assert want[-1][2] == self.C_WIN - 1

    def test_lead_is_not_the_first_declared_event(self):
        kernel = self._kernel([StrikeEvent(onset=20, size=4),
                               StrikeEvent(onset=8, size=3)])
        assert kernel.lead == 1
        want = self._compare(kernel, self._activity(30))
        assert {est.size for _, est, _ in want if est is not None} == {3}

    def test_fewer_cycles_than_the_window(self):
        kernel = self._kernel([StrikeEvent(onset=1, size=4)], cycles=4)
        want = self._compare(kernel, self._activity(4))
        assert all(w == (4, None, -1) for w in want)

    @pytest.mark.parametrize("shots", [1, 64, 70])
    def test_truncated_nodes_and_parities(self, shots):
        """The detect stage's nodes and parities equal a float re-extraction
        of each shot's run truncated at its stop cycle."""
        kernel = EndToEndShotKernel(5, 0.03, Scenario(events=(
            StrikeEvent(onset=6, size=2, p_ano=0.4),)), 24, 6, 3, 0.01)
        state = kernel.pipeline().run_until(
            "detect", kernel._context(shots, np.random.default_rng(8)))
        v, h, m = (bitops.unpack_shots(x, shots)
                   for x in (state.v, state.h, state.m))
        lattice = kernel._state[0]
        for s, (_, latency) in enumerate(state.detections):
            stop = (24 if latency < 0
                    else min(24, latency + 6 + kernel.distance))
            assert np.array_equal(state.nodes_list[s],
                                  lattice.detection_events(
                                      v[s, :stop], h[s, :stop], m[s, :stop]))
            assert state.parities[s] == lattice.error_cut_parity(v[s, :stop])


class TestBitops:
    """Pack/unpack helpers for the uint64 shot words."""

    def test_word_count(self):
        assert bitops.word_count(1) == 1
        assert bitops.word_count(64) == 1
        assert bitops.word_count(65) == 2
        with pytest.raises(ValueError):
            bitops.word_count(0)

    @pytest.mark.parametrize("shots", [1, 8, 16, 37, 64, 130, 513])
    def test_pack_round_trip(self, rng, shots):
        bits = rng.random((shots, 3, 4, 5)) < 0.3
        words = bitops.pack_shots(bits)
        assert words.dtype == np.uint64
        assert words.shape == (bitops.word_count(shots), 3, 4, 5)
        assert words.flags.c_contiguous
        assert np.array_equal(bitops.unpack_shots(words, shots), bits)

    def test_tail_lanes_zero_filled(self):
        words = bitops.pack_shots(np.ones((70, 2), dtype=bool))
        assert np.bitwise_count(words).sum() == 70 * 2  # not 128 * 2

    def test_popcount(self, rng):
        bits = rng.random((256, 5, 7)) < 0.5
        words = bitops.pack_shots(bits)
        assert np.bitwise_count(words).sum() == bits.sum()
        assert np.array_equal(np.bitwise_count(words).sum(axis=0),
                              bits.sum(axis=0))


class TestPackedSampling:
    """sample_batch_packed consumes the identical uniform stream as the
    float path: packed bits equal the float path's bits per seed."""

    REGIONS = [
        None,
        AnomalousRegion(1, 1, 2, t_lo=1),              # open time window
        AnomalousRegion(0, 0, 2, t_lo=2, t_hi=4),      # clipped window
        AnomalousRegion(1, 0, 3, t_lo=0, t_hi=100),    # t_hi past the run
        AnomalousRegion(0, 0, 2, t_lo=50),             # never active
    ]

    @pytest.mark.parametrize("shots", [1, 37, 64, 130])
    @pytest.mark.parametrize("distance", [3, 5])
    def test_bit_identical_to_float_path(self, shots, distance):
        for region in self.REGIONS:
            noise = PhenomenologicalNoise(distance, 0.05,
                                          Scenario.from_region(region))
            ref = noise.sample_batch(shots, 6, np.random.default_rng(42))
            packed = noise.sample_batch_packed(
                shots, 6, np.random.default_rng(42))
            for a, b in zip(ref, packed, strict=True):
                assert b.dtype == np.uint64
                assert np.array_equal(bitops.unpack_shots(b, shots), a), \
                    (shots, distance, region)

    def test_spans_multiple_sample_chunks(self):
        """Shots crossing the word-aligned scratch-block boundary still
        reproduce the one-big-call uniform stream."""
        noise = PhenomenologicalNoise(
            3, 0.1, Scenario.from_region(AnomalousRegion(0, 0, 1, t_lo=1)))
        shots = 300  # chunk is 64: five blocks, the last one partial
        ref = noise.sample_batch(shots, 4, np.random.default_rng(8))
        packed = noise.sample_batch_packed(shots, 4,
                                           np.random.default_rng(8))
        for a, b in zip(ref, packed, strict=True):
            assert np.array_equal(bitops.unpack_shots(b, shots), a)

    @pytest.mark.parametrize("uniforms", [3 * 4 * 3 * 3, 1],
                             ids=["3-shot-pieces", "sub-shot-constant"])
    def test_pieces_split_inside_and_across_words(self, monkeypatch,
                                                  uniforms):
        """Float pieces of 3 v-shots (boundaries inside every word), or a
        draw constant smaller than one shot (one-shot pieces), still
        reproduce the one-big-call stream: base rate field, drift and a
        fixed event overlay alike."""
        monkeypatch.setattr(models, "PACKED_SAMPLE_UNIFORMS", uniforms)
        scenario = Scenario(
            events=(StrikeEvent(onset=1, size=1, row=0, col=1, p_ano=0.3),),
            rate_field=[[2.0, 1.0, 1.0], [1.0, 1.0, 3.0]], drift=(1.0, 1.5))
        noise = PhenomenologicalNoise(3, 0.05, scenario)
        shots = 130
        ref = noise.sample_batch(shots, 4, np.random.default_rng(8))
        packed = noise.sample_batch_packed(shots, 4,
                                           np.random.default_rng(8))
        for a, b in zip(ref, packed, strict=True):
            assert np.array_equal(bitops.unpack_shots(b, shots), a)

    def test_rejects_zero_shots(self, rng):
        with pytest.raises(ValueError):
            PhenomenologicalNoise(5, 0.05).sample_batch_packed(0, 3, rng)


class TestPackedWindowedScan:
    """The packed windowed scan equals the per-shot ``_windowed_over``
    on every real lane, across words and at the window's edge cases."""

    @pytest.mark.parametrize("shots", [13, 64, 130])
    @pytest.mark.parametrize("cycles, c_win", [(5, 9), (9, 9), (9, 1),
                                               (40, 7), (310, 300)],
                             ids=["T<c_win", "T==c_win", "c_win==1",
                                  "T>c_win", "uint16-counts"])
    def test_matches_per_shot_scan(self, shots, cycles, c_win):
        # Dense activity: window counts near v_th, and above 255 in the
        # c_win = 300 case, where a uint8 running sum would wrap.
        rng = np.random.default_rng(cycles + c_win)
        activity = rng.random((shots, cycles, 4, 5)) < 0.9
        v_th = 0.9 * c_win
        over, n_over = _windowed_over_batch(bitops.pack_shots(activity),
                                            shots, c_win, v_th)
        windows = max(0, cycles - c_win + 1)
        assert over.shape == (windows, 4, 5, shots)
        assert n_over.shape == (shots, windows)
        for s in range(shots):
            ref_over, ref_n = _windowed_over(activity[s], c_win, v_th)
            assert np.array_equal(over[..., s], ref_over), s
            assert np.array_equal(n_over[s], ref_n), s


class TestPackedExtraction:
    """Word-wise syndrome extraction equals the uint8 reference."""

    def _arrays(self, d, shots, cycles, seed, region=None):
        noise = PhenomenologicalNoise(d, 0.05, Scenario.from_region(region))
        v, h, m = noise.sample_batch(shots, cycles,
                                     np.random.default_rng(seed))
        vw, hw, mw = noise.sample_batch_packed(shots, cycles,
                                               np.random.default_rng(seed))
        return (v, h, m), (vw, hw, mw)

    @pytest.mark.parametrize("distance", [3, 5])
    def test_layers_and_activity(self, distance):
        shots = 70
        (v, h, m), (vw, hw, mw) = self._arrays(distance, shots, 5, 2)
        lattice = SyndromeLattice(distance)
        assert np.array_equal(
            bitops.unpack_shots(lattice.measured_layers_packed(vw, hw, mw),
                                shots).astype(np.uint8),
            lattice.measured_layers(v, h, m))
        assert np.array_equal(
            bitops.unpack_shots(
                lattice.per_cycle_activity_packed(vw, hw, mw),
                shots).astype(np.uint8),
            lattice.per_cycle_activity(v, h, m))

    @pytest.mark.parametrize("distance", [3, 5])
    def test_detection_events(self, distance):
        shots = 130
        (v, h, m), (vw, hw, mw) = self._arrays(
            distance, shots, 6, 3, AnomalousRegion(0, 0, 2, t_lo=2))
        lattice = SyndromeLattice(distance)
        coords, vals, bounds = lattice.detection_events_packed(vw, hw, mw)
        for s in range(shots):
            assert np.array_equal(
                lattice.shot_nodes(coords, vals, bounds, s),
                lattice.detection_events(v[s], h[s], m[s])), s

    def test_cut_parities(self):
        shots = 130
        (v, _, _), (vw, _, _) = self._arrays(5, shots, 6, 4)
        lattice = SyndromeLattice(5)
        ref = lattice.error_cut_parity(v)
        words = lattice.error_cut_parity_packed(vw)
        prefix = lattice.north_cut_prefix_packed(vw)
        for s in range(shots):
            assert ((int(words[s // 64]) >> (s % 64)) & 1) == ref[s]
            for stop in (1, 3, 6):
                assert ((int(prefix[s // 64, stop - 1]) >> (s % 64)) & 1) \
                    == lattice.error_cut_parity(v[s, :stop])


class TestPackedKernelEquivalence:
    """The packed kernels are bit-identical to the float, per-shot
    reference (``reference_chunk``) for the same seed — the
    certification seam of the whole engine."""

    REGIONS = [None,
               AnomalousRegion(0, 0, 2, t_lo=1, t_hi=3),
               AnomalousRegion(1, 1, 2, t_lo=2)]

    @pytest.mark.parametrize("shots", [37, 130])
    @pytest.mark.parametrize("distance", [3, 5])
    def test_memory_kernel(self, shots, distance):
        for region in self.REGIONS:
            kernel = MemoryShotKernel(distance, 0.04,
                                      Scenario.from_region(region))
            ref = reference_chunk(kernel, shots, np.random.default_rng(7))
            packed = kernel.run_batch_packed(shots,
                                             np.random.default_rng(7))
            assert np.array_equal(ref, packed), (shots, distance, region)

    def test_memory_kernel_mwpm(self):
        kernel = MemoryShotKernel(5, 0.03, decoder="mwpm")
        ref = reference_chunk(kernel, 70, np.random.default_rng(5))
        packed = kernel.run_batch_packed(70, np.random.default_rng(5))
        assert np.array_equal(ref, packed)

    # The 130-shot chunks span three words, the last one partial.
    @pytest.mark.parametrize("distance, shots", [(3, 37), (5, 37), (5, 130)],
                             ids=["3", "5", "5-130"])
    def test_endtoend_kernel(self, distance, shots):
        strike = StrikeEvent(onset=30, size=2, p_ano=0.5)
        kernel = EndToEndShotKernel(distance, 0.01,
                                    Scenario(events=(strike,)), cycles=70,
                                    c_win=25, n_th=3, alpha=0.01)
        ref = reference_chunk(kernel, shots, np.random.default_rng(3))
        packed = kernel.run_batch_packed(shots, np.random.default_rng(3))
        assert np.array_equal(ref, packed)

    @pytest.mark.parametrize("distance, shots", [(3, 17), (5, 17), (5, 130)],
                             ids=["3", "5", "5-130"])
    def test_detection_kernel(self, distance, shots):
        strike = StrikeEvent(onset=80, size=2, p_ano=0.05)
        kernel = DetectionShotKernel(distance, 2e-3,
                                     Scenario(events=(strike,)), c_win=40,
                                     n_th=3, alpha=0.01, post_cycles=160)
        ref = reference_chunk(kernel, shots, np.random.default_rng(5))
        packed = kernel.run_batch_packed(shots, np.random.default_rng(5))
        assert np.array_equal(ref, packed, equal_nan=True)

    def test_runner_packing_knob(self, run_with_outcomes):
        """The runner hands its kernel ``packing="bits"``, the only word
        layout; its campaign equals the reference chunk by chunk."""
        batch = MemoryShotKernel.default_batch_size
        spec = campaigns.MemorySpec(distance=5, p=0.03, samples=300,
                                    seed=11, batch_size=batch)
        _, got = run_with_outcomes(spec, campaigns.InlineExecutor())
        kernel = MemoryShotKernel(5, 0.03)
        ref = [reference_chunk(kernel, size, np.random.default_rng(child))
               for size, child in chunk_plan(300, batch, 11)]
        assert np.array_equal(got, np.concatenate(ref))

    def test_pool_runs_packed(self, run_with_outcomes):
        spec = campaigns.MemorySpec(distance=5, p=0.03, samples=150,
                                    seed=5, batch_size=50)
        _, solo = run_with_outcomes(spec, campaigns.InlineExecutor())
        _, pooled = run_with_outcomes(spec,
                                      campaigns.ProcessPoolExecutor(2))
        assert np.array_equal(solo, pooled)


class TestBatchRunner:
    """The chunk loop of :func:`repro.campaigns.run` on a pinned
    ``batch_size``."""

    def _spec(self, **overrides):
        kwargs = dict(distance=5, p=0.03, samples=300, seed=11,
                      batch_size=MemoryShotKernel.default_batch_size)
        kwargs.update(overrides)
        return campaigns.MemorySpec(**kwargs)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            campaigns.ProcessPoolExecutor(-1)
        with pytest.raises(ValueError):
            self._spec(batch_size=0)
        with pytest.raises(ValueError):
            self._spec(samples=0)

    def test_deterministic_for_fixed_seed(self, run_with_outcomes):
        a, out_a = run_with_outcomes(self._spec(), campaigns.InlineExecutor())
        b, out_b = run_with_outcomes(self._spec(), campaigns.InlineExecutor())
        assert np.array_equal(out_a, out_b)
        assert a.counts["failures"] == b.counts["failures"]

    def test_partial_final_batch(self, run_with_outcomes):
        result, outcomes = run_with_outcomes(
            self._spec(samples=100, batch_size=64, seed=1),
            campaigns.InlineExecutor())
        assert len(outcomes) == 100
        assert result.counts["samples"] == 100

    def test_outcomes_independent_of_batching_workers(self,
                                                       run_with_outcomes):
        """Chunk seeds come from one SeedSequence: the pool must return
        exactly the in-process outcomes."""
        spec = self._spec(samples=150, batch_size=50, seed=5)
        _, solo = run_with_outcomes(spec, campaigns.InlineExecutor())
        _, pooled = run_with_outcomes(spec,
                                      campaigns.ProcessPoolExecutor(2))
        assert np.array_equal(solo, pooled)

    def test_early_stop_on_tight_wilson_interval(self):
        # high failure rate: converges
        spec = self._spec(distance=3, p=0.15, samples=100_000,
                          batch_size=128, seed=2, target_rel_width=0.5)
        result = campaigns.run(spec, executor=campaigns.InlineExecutor())
        assert result.counts["samples"] < result.counts["requested"]
        assert result.counts["samples"] < 100_000
        lo, hi = result.detail.estimate.interval
        assert (hi - lo) <= 0.5 * result.detail.estimate.mean

    def test_no_early_stop_without_target(self):
        result = campaigns.run(
            self._spec(samples=256, batch_size=128, seed=3),
            executor=campaigns.InlineExecutor())
        assert result.counts["samples"] == result.counts["requested"]
        assert result.counts["samples"] == 256


class TestMemoryBatchEquivalence:
    REGION = AnomalousRegion.centered(7, 2)

    def test_batch_matches_sequential_distribution(self):
        """Same error model through both engines: the failure rates must
        agree within Monte-Carlo resolution."""
        samples = 800
        spec = campaigns.MemorySpec(distance=7, p=0.02, samples=samples,
                                    region=self.REGION, seed=21)
        seq = reference_memory_run(spec, np.random.default_rng(21))
        bat = _run(spec, 1)
        p = (seq.per_run + bat.per_run) / 2
        se = np.sqrt(max(2 * p * (1 - p) / samples, 1e-9))
        assert abs(seq.per_run - bat.per_run) < 5 * se

    def test_batch_deterministic_and_worker_invariant(self):
        spec = campaigns.MemorySpec(distance=7, p=0.02, samples=200,
                                    region=self.REGION, seed=9)
        one = _run(spec, 1)
        again = _run(spec, 1)
        pooled = _run(spec, 2)
        assert one.failures == again.failures == pooled.failures

    def test_mwpm_kernel_path(self):
        est = _run(campaigns.MemorySpec(distance=5, p=0.02, samples=60,
                                        decoder="mwpm", seed=4), 1)
        assert est.samples == 60
        assert 0 <= est.failures <= 60

    def test_early_stop_via_experiment(self):
        est = _run(campaigns.MemorySpec(distance=3, p=0.15, samples=50_000,
                                        seed=13, target_rel_width=0.5), 1)
        assert est.samples < 50_000


class TestEndToEndBatch:
    SPEC = campaigns.EndToEndSpec(distance=9, p=0.008, shots=24,
                                  anomaly_size=3, onset=60, cycles=140,
                                  c_win=50, n_th=6, seed=31)

    def test_batched_campaign_deterministic_and_pool_invariant(self):
        spec = replace(self.SPEC, batch_size=12)
        a = _run(spec, 1)
        b = _run(spec, 1)
        c = _run(spec, 2)
        for res in (b, c):
            assert res.naive_failures == a.naive_failures
            assert res.detected_failures == a.detected_failures
            assert res.oracle_failures == a.oracle_failures
            assert res.detections == a.detections

    def test_batched_campaign_detects_strikes(self):
        res = _run(self.SPEC, 1)
        assert res.detection_rate > 0.7
        assert res.mean_latency >= 0

    @pytest.mark.slow
    def test_batch_matches_sequential_distribution(self):
        """Both engines score the same experiment: every failure rate
        must agree within Monte-Carlo resolution."""
        shots = 120
        spec = replace(self.SPEC, shots=shots, seed=41)
        seq = reference_endtoend_run(spec, np.random.default_rng(41))
        bat = _run(spec, 1)
        for key in ("naive", "detected", "oracle"):
            p = (seq.rates()[key] + bat.rates()[key]) / 2
            se = np.sqrt(max(2 * p * (1 - p) / shots, 1e-9))
            assert abs(seq.rates()[key] - bat.rates()[key]) < 5 * se, key
        assert abs(seq.detection_rate - bat.detection_rate) < 0.25


class TestDetectionTrialsBatch:
    SPEC = campaigns.DetectionSpec(distance=11, p=1e-3, p_ano=0.05,
                                   anomaly_size=3, c_win=120, n_th=8,
                                   trials=6, seed=17)

    def test_batched_trials_deterministic_and_pool_invariant(self):
        a = _run(self.SPEC, 1)
        b = _run(self.SPEC, 1)
        c = _run(self.SPEC, 2)
        assert a.detections == b.detections == c.detections
        assert a.false_positives == b.false_positives == c.false_positives

    def test_batched_trials_find_the_anomaly(self):
        perf = _run(self.SPEC, 1)
        assert perf.miss_rate == 0.0
        assert perf.mean_position_error < 4.0

    @pytest.mark.slow
    def test_batch_matches_sequential_distribution(self):
        """The windowed-count scan must reproduce the streamed unit's
        outcomes within Monte-Carlo resolution."""
        kwargs = dict(distance=11, p=1e-3, p_ano=0.05, anomaly_size=3,
                      c_win=100, n_th=8, trials=16)
        seq = reference_detection_trials(seed=23, **kwargs)
        bat = _run(campaigns.DetectionSpec(seed=23, **kwargs), 1)
        assert seq.miss_rate == bat.miss_rate == 0.0
        assert abs(seq.false_positive_rate - bat.false_positive_rate) <= 0.5
        assert abs(seq.mean_latency - bat.mean_latency) <= 10
        assert abs(seq.mean_position_error - bat.mean_position_error) <= 2.0
