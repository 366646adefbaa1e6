"""Tests for the MWPM and greedy decoders."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import campaigns
from repro.decoding import (
    DistanceModel,
    GreedyDecoder,
    MWPMDecoder,
    NORTH,
    SOUTH,
    SyndromeLattice,
)
from repro.noise import AnomalousRegion


def decoders(model):
    return [GreedyDecoder(model), MWPMDecoder(model)]


class TestEmptyAndSingles:
    def test_empty_input(self):
        for dec in decoders(DistanceModel(5)):
            result = dec.decode(np.empty((0, 3), dtype=int))
            assert result.matches == []
            assert result.correction_cut_parity == 0

    def test_single_node_goes_to_nearest_boundary(self):
        for dec in decoders(DistanceModel(9)):
            result = dec.decode(np.array([[0, 0, 4]]))
            assert len(result.matches) == 1
            assert result.matches[0].b == NORTH
            assert result.correction_cut_parity == 1

    def test_single_node_south(self):
        for dec in decoders(DistanceModel(9)):
            result = dec.decode(np.array([[0, 7, 4]]))
            assert result.matches[0].b == SOUTH
            assert result.correction_cut_parity == 0

    def test_adjacent_pair_matched_together(self):
        nodes = np.array([[0, 3, 4], [0, 4, 4]])
        for dec in decoders(DistanceModel(9)):
            result = dec.decode(nodes)
            assert len(result.matches) == 1
            match = result.matches[0]
            assert {match.a, match.b} == {0, 1}
            assert result.correction_cut_parity == 0

    def test_far_pair_split_to_boundaries(self):
        nodes = np.array([[0, 0, 0], [0, 7, 8]])
        for dec in decoders(DistanceModel(9)):
            result = dec.decode(nodes)
            sides = sorted(m.b for m in result.matches)
            assert sides == [SOUTH, NORTH]
            assert result.correction_cut_parity == 1


class TestMatchingValidity:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 30))
    def test_greedy_covers_every_node_exactly_once(self, seed, n):
        rng = np.random.default_rng(seed)
        nodes = np.column_stack([
            rng.integers(0, 10, n), rng.integers(0, 8, n),
            rng.integers(0, 9, n)])
        result = GreedyDecoder(DistanceModel(9)).decode(nodes)
        assert result.covers_all(n)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 14))
    def test_mwpm_covers_every_node_exactly_once(self, seed, n):
        rng = np.random.default_rng(seed)
        nodes = np.column_stack([
            rng.integers(0, 10, n), rng.integers(0, 8, n),
            rng.integers(0, 9, n)])
        result = MWPMDecoder(DistanceModel(9)).decode(nodes)
        assert result.covers_all(n)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 12))
    def test_mwpm_weight_never_exceeds_greedy(self, seed, n):
        rng = np.random.default_rng(seed)
        nodes = np.column_stack([
            rng.integers(0, 10, n), rng.integers(0, 8, n),
            rng.integers(0, 9, n)])
        model = DistanceModel(9)
        greedy = GreedyDecoder(model).decode(nodes)
        exact = MWPMDecoder(model).decode(nodes)
        assert exact.weight <= greedy.weight + 1e-9

    def test_mwpm_unpruned_agrees_with_pruned(self):
        rng = np.random.default_rng(42)
        model = DistanceModel(9)
        for _ in range(5):
            n = int(rng.integers(2, 10))
            nodes = np.column_stack([
                rng.integers(0, 8, n), rng.integers(0, 8, n),
                rng.integers(0, 9, n)])
            full = MWPMDecoder(model, prune_factor=None).decode(nodes)
            pruned = MWPMDecoder(model, prune_factor=1.5).decode(nodes)
            assert full.weight == pytest.approx(pruned.weight)

    def test_pruned_mwpm_is_exact_on_adversarial_sets(self):
        """Regression for the pruning bug: the zero-weight twin-twin
        edges must be added even when the node-node edge (i, j) is
        pruned, or the reduction loses perfect matchings it may need.
        Mixed clusters — tight pairs plus far-flung boundary-bound
        nodes — maximize pruned edges; with weighted regions the via
        paths shuffle which edges survive.  The pruned decoder must stay
        exactly minimum-weight through all of it, at the aggressive
        prune_factor = 1.0 as well."""
        rng = np.random.default_rng(7)
        region = AnomalousRegion(2, 2, 3)
        models = [DistanceModel(9), DistanceModel(9, region, 0.0),
                  DistanceModel(9, region, 0.3)]
        for trial in range(12):
            # Tight cluster far from the boundary + scattered loners.
            cluster = np.column_stack([
                rng.integers(4, 7, 4), rng.integers(3, 5, 4),
                rng.integers(3, 6, 4)])
            loners = np.column_stack([
                rng.integers(0, 10, 4), rng.integers(0, 8, 4),
                rng.integers(0, 9, 4)])
            nodes = np.vstack([cluster, loners])
            model = models[trial % len(models)]
            full = MWPMDecoder(model, prune_factor=None).decode(nodes)
            for factor in (1.0, 1.5):
                pruned = MWPMDecoder(model, prune_factor=factor).decode(nodes)
                assert pruned.covers_all(len(nodes))
                assert pruned.weight == pytest.approx(full.weight), (
                    trial, factor)


class TestEndToEndDecoding:
    def test_single_data_error_corrected(self):
        d = 7
        lat = SyndromeLattice(d)
        v = np.zeros((d, d, d), dtype=bool)
        h = np.zeros((d, d - 1, d - 1), dtype=bool)
        m = np.zeros((d, d - 1, d), dtype=bool)
        v[2, 3, 3] = True
        nodes = lat.detection_events(v, h, m)
        for dec in decoders(DistanceModel(d)):
            result = dec.decode(nodes)
            failure = lat.error_cut_parity(v) ^ result.correction_cut_parity
            assert failure == 0

    def test_single_north_boundary_error_corrected(self):
        d = 7
        lat = SyndromeLattice(d)
        v = np.zeros((d, d, d), dtype=bool)
        h = np.zeros((d, d - 1, d - 1), dtype=bool)
        m = np.zeros((d, d - 1, d), dtype=bool)
        v[1, 0, 2] = True  # crosses the cut; decoder must match north
        nodes = lat.detection_events(v, h, m)
        for dec in decoders(DistanceModel(d)):
            result = dec.decode(nodes)
            assert result.correction_cut_parity == 1
            failure = lat.error_cut_parity(v) ^ result.correction_cut_parity
            assert failure == 0

    def test_measurement_error_not_miscorrected(self):
        d = 7
        lat = SyndromeLattice(d)
        v = np.zeros((d, d, d), dtype=bool)
        h = np.zeros((d, d - 1, d - 1), dtype=bool)
        m = np.zeros((d, d - 1, d), dtype=bool)
        m[3, 2, 2] = True
        nodes = lat.detection_events(v, h, m)
        for dec in decoders(DistanceModel(d)):
            result = dec.decode(nodes)
            assert result.correction_cut_parity == 0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 100_000))
    def test_sparse_errors_always_corrected(self, seed):
        """Any single-error pattern must decode without a logical flip."""
        d = 9
        rng = np.random.default_rng(seed)
        lat = SyndromeLattice(d)
        v = np.zeros((d, d, d), dtype=bool)
        h = np.zeros((d, d - 1, d - 1), dtype=bool)
        m = np.zeros((d, d - 1, d), dtype=bool)
        kind = rng.integers(0, 3)
        t = int(rng.integers(0, d))
        if kind == 0:
            v[t, rng.integers(0, d), rng.integers(0, d)] = True
        elif kind == 1:
            h[t, rng.integers(0, d - 1), rng.integers(0, d - 1)] = True
        else:
            m[t, rng.integers(0, d - 1), rng.integers(0, d)] = True
        nodes = lat.detection_events(v, h, m)
        for dec in decoders(DistanceModel(d)):
            result = dec.decode(nodes)
            failure = lat.error_cut_parity(v) ^ result.correction_cut_parity
            assert failure == 0

    def test_informed_decoder_uses_region_shortcut(self):
        """Fig. 6(a): with a known region the decoder prefers routing
        through it, changing the correction."""
        d = 9
        region = AnomalousRegion(2, 2, 4)
        nodes = np.array([[0, 1, 3], [0, 6, 3]])  # straddle the region
        naive = MWPMDecoder(DistanceModel(d)).decode(nodes)
        informed = MWPMDecoder(DistanceModel(d, region)).decode(nodes)
        # Direct distance 5 > via-region 1+1: informed pairs them;
        # naive sends each to its nearest boundary (2 + 2 < 5).
        assert len(naive.matches) == 2
        assert all(m.to_boundary for m in naive.matches)
        assert len(informed.matches) == 1
        assert not informed.matches[0].to_boundary


class TestStatisticalAccuracy:
    @staticmethod
    def _memory(distance, p, samples, seed, **fields):
        spec = campaigns.MemorySpec(distance=distance, p=p,
                                    samples=samples, seed=seed, **fields)
        return campaigns.run(
            spec, executor=campaigns.default_executor(0)).detail

    @pytest.mark.parametrize("decoder", ["greedy", "mwpm"])
    def test_low_noise_failure_rate_is_small(self, decoder):
        est = self._memory(5, 0.005, 300, seed=0, decoder=decoder)
        assert est.per_run < 0.05

    def test_failure_rate_decreases_with_distance(self):
        small = self._memory(3, 0.02, 600, seed=1).per_cycle
        large = self._memory(9, 0.02, 600, seed=2).per_cycle
        assert large < small
