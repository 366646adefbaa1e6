"""Certification suite for the cross-shot batched decode engine.

The contract: :func:`batched_cut_parities` is *bit-identical* to the
per-shot ``greedy_cut_parity`` on every input (inputs outside the
integer engine's envelope run through the per-shot core, so the
equality is unconditional), and the kernels' campaigns equal the float,
per-shot reference (``reference_engines.reference_chunk``) shot for
shot.
"""

import numpy as np
import pytest

import repro.decoding.batched as batched_mod
from repro import campaigns
from repro.decoding import (
    DistanceModel,
    ScratchArena,
    SyndromeLattice,
    batched_cut_parities,
    greedy_cut_parity,
)
from repro.decoding.batched import batched_region_cut_parities
from repro.noise import AnomalousRegion, PhenomenologicalNoise
from repro.scenarios import Scenario, StrikeEvent
from repro.sim.batch import EndToEndShotKernel, MemoryShotKernel, chunk_plan

from reference_engines import reference_chunk


def _random_nodes(rng, d, n):
    return np.column_stack([
        rng.integers(0, d + 1, n), rng.integers(0, d - 1, n),
        rng.integers(0, d, n)])


def _random_model(rng, d):
    region = None if rng.random() < 0.4 else AnomalousRegion(
        int(rng.integers(0, max(1, d - 2))),
        int(rng.integers(0, max(1, d - 1))),
        int(rng.integers(1, 5)), t_lo=int(rng.integers(0, 8)),
        t_hi=None if rng.random() < 0.5 else int(rng.integers(8, 100_000)))
    w_ano = 0.0 if rng.random() < 0.7 else float(rng.random())
    return DistanceModel(d, region, w_ano)


def _assert_parities(model, nodes_list, arena=None):
    ref = np.array([greedy_cut_parity(model, x) for x in nodes_list],
                   dtype=np.int8)
    got = batched_cut_parities(model, nodes_list, arena=arena)
    assert np.array_equal(ref, got)


class TestBatchedEquivalence:
    """The engine equals the per-shot core bit for bit."""

    def test_property_sweep(self):
        """Random node sets, region on/off, w_ano zero and nonzero,
        empty shots, duplicates — chunk sizes not divisible by any
        bucket size."""
        rng = np.random.default_rng(20260728)
        arena = ScratchArena()
        for _ in range(60):
            d = int(rng.integers(3, 15))
            model = _random_model(rng, d)
            nodes_list = [_random_nodes(rng, d, int(n))
                          for n in rng.integers(0, 25, int(rng.integers(0, 40)))]
            _assert_parities(model, nodes_list, arena)

    @pytest.mark.parametrize("length", [300, 2001])
    def test_long_tie_chain(self, length):
        """One shot is a chain in time at one ``(i, j)``: every link is a
        distance-1 candidate, and each acceptance round settles only the
        earliest remaining link, so the rounds must run to exhaustion.
        Random shots ride along in the same chunk."""
        rng = np.random.default_rng(length)
        d = 9
        chain = np.column_stack([np.arange(length),
                                 np.full(length, 4), np.full(length, 4)])
        nodes_list = [_random_nodes(rng, d, int(n))
                      for n in rng.integers(0, 25, 20)]
        nodes_list.insert(7, chain)
        arena = ScratchArena()
        for model in (DistanceModel(d),
                      DistanceModel(d, AnomalousRegion(0, 0, 2), 0.0)):
            _assert_parities(model, nodes_list, arena)

    def test_negative_coordinates_fall_back_exactly(self):
        model = DistanceModel(7)
        nodes = np.array([[-1, 2, 3], [0, 1, 1], [2, 3, 3]])
        got = batched_cut_parities(model, [nodes])
        assert got[0] == greedy_cut_parity(model, nodes)

    def test_huge_explicit_t_hi_stays_exact(self):
        model = DistanceModel(9, AnomalousRegion(1, 1, 3, t_hi=100_000), 0.0)
        nodes = np.array([[0, 0, 0], [0, 7, 8], [5, 3, 3], [5, 4, 3]])
        assert batched_cut_parities(model, [nodes])[0] == \
            greedy_cut_parity(model, nodes)

    def test_region_window_after_run_end(self):
        """t_lo beyond every node's time: the box collapses onto the
        shot's last layer (the per-shot open-window semantics)."""
        model = DistanceModel(6, AnomalousRegion(1, 4, 3, t_lo=2), 0.0)
        nodes = np.array([[0, 3, 4]])
        assert batched_cut_parities(model, [nodes])[0] == \
            greedy_cut_parity(model, nodes)

    def test_wide_distance_uses_sorted_levels(self):
        """d > 64: the per-bucket level split covers wide distances, since
        no kept pair is longer than its bucket's largest boundary
        distance."""
        rng = np.random.default_rng(3)
        d = 80
        model = _random_model(rng, d)
        nodes_list = [_random_nodes(rng, d, int(n))
                      for n in rng.integers(0, 20, 12)]
        ref = np.array([greedy_cut_parity(model, x) for x in nodes_list],
                       dtype=np.int8)
        assert np.array_equal(
            ref, batched_cut_parities(model, nodes_list))

    def test_empty_chunk_and_empty_shots(self):
        model = DistanceModel(5)
        assert len(batched_cut_parities(model, [])) == 0
        out = batched_cut_parities(
            model, [np.zeros((0, 3), dtype=np.int64)])
        assert out[0] == 0

    def test_high_density_cluster(self):
        """A p_ano = 0.5 box cluster (the Fig. 8 hot regime)."""
        d = 9
        region = AnomalousRegion.centered(d, 4)
        noise = PhenomenologicalNoise(d, 2.5e-2, Scenario.from_region(region))
        lattice = SyndromeLattice(d)
        v, h, m = noise.sample_batch(70, d, np.random.default_rng(5))
        nodes_list = [lattice.detection_events(v[s], h[s], m[s])
                      for s in range(70)]
        for model in (DistanceModel(d), DistanceModel(d, region, 0.0)):
            ref = np.array([greedy_cut_parity(model, x)
                            for x in nodes_list], dtype=np.int8)
            assert np.array_equal(
                ref, batched_cut_parities(model, nodes_list))


def _fig8_chunk(d, p, shots, seed, region=None):
    """Memory shots at a Fig. 8 point: ``d`` cycles of phenomenological
    noise, with an optional p_ano = 0.5 box, in lattice node order."""
    noise = PhenomenologicalNoise(d, p, Scenario.from_region(region))
    v, h, m = noise.sample_batch(shots, d, np.random.default_rng(seed))
    lattice = SyndromeLattice(d)
    return [lattice.detection_events(v[s], h[s], m[s]) for s in range(shots)]


class TestLevelOnePass:
    """The parity-mode distance-1 pass (lattice adjacency, via-box pairs,
    survivor compaction) keeps the per-shot core's outcomes."""

    @pytest.mark.parametrize("d", [5, 7, 9, 13])
    @pytest.mark.parametrize("p", [0.008, 0.025])
    def test_lattice_sampled_fig8_points(self, d, p):
        """Free, naive and rollback decodes of lattice-extracted shots
        with a centred p_ano = 0.5 box."""
        box = AnomalousRegion.centered(d, 4)
        arena = ScratchArena()
        free = _fig8_chunk(d, p, 40, 100 * d)
        struck = _fig8_chunk(d, p, 40, 100 * d + 1, box)
        _assert_parities(DistanceModel(d), free, arena)
        _assert_parities(DistanceModel(d), struck, arena)
        _assert_parities(DistanceModel(d, box, 0.0), struck, arena)

    def test_odd_shot_leftover_matches_via_box(self):
        """The leftover in-box node X of an odd shot pairs with Y (one
        step below the box, two from X) at distance 1 before Y's direct
        neighbour Z can; Z then retires south, X never goes north."""
        box = AnomalousRegion(2, 2, 3, t_lo=0, t_hi=2)
        model = DistanceModel(9, box, 0.0)
        nodes = np.array([[0, 2, 2], [0, 2, 3], [0, 3, 3],  # in box
                          [0, 5, 3], [0, 6, 3]])
        assert greedy_cut_parity(model, nodes) == 0
        _assert_parities(model, [nodes])

    def test_open_window_top_counts_level_one_matches(self):
        """The latest nodes pair at distance 1, yet the open box still
        reaches their layer: the box top is the full shot's t_max."""
        model = DistanceModel(9, AnomalousRegion(0, 0, 3, t_lo=7), 0.0)
        nodes = np.array([[1, 5, 7], [2, 4, 2], [9, 6, 1], [9, 6, 2]])
        _assert_parities(model, [nodes])
        regions = [(model.region,)] * 2
        got = batched_region_cut_parities(9, regions, [nodes, nodes], 0.0)
        assert got.tolist() == [greedy_cut_parity(model, nodes)] * 2

    def test_level_one_settles_shots_and_whole_chunks(self):
        """Shots matched entirely at distance 1 (neighbour pairs and
        rows next to a boundary); a chunk of only those skips the
        dense build."""
        model = DistanceModel(7)
        settled = [np.array([[0, 2, 2], [0, 2, 3]]),
                   np.array([[0, 0, 4], [3, 5, 1], [4, 5, 1]]),
                   np.array([[2, 0, 0]])]
        arena = ScratchArena()
        _assert_parities(model, settled, arena)
        assert not any(role == "dist" for role, _ in arena._bufs)
        _assert_parities(model, settled + [np.array([[0, 2, 2], [0, 2, 5]])],
                         arena)
        boxed = DistanceModel(7, AnomalousRegion(1, 1, 2), 0.0)
        _assert_parities(boxed, [np.array([[0, 1, 1], [0, 2, 2]])] + settled)

    def test_unsorted_unique_nodes(self):
        rng = np.random.default_rng(31)
        d = 9
        box = AnomalousRegion.centered(d, 4)
        chunk = [x[rng.permutation(len(x))]
                 for x in _fig8_chunk(d, 0.025, 30, 32, box)]
        _assert_parities(DistanceModel(d), chunk)
        _assert_parities(DistanceModel(d, box, 0.0), chunk)

    def test_columns_beyond_the_lattice(self):
        """Eligible nodes with j >= d: key strides come from the chunk's
        maxima, so no forward step aliases into the next row."""
        rng = np.random.default_rng(5)
        d = 7
        chunk = []
        for n in rng.integers(1, 30, 40):
            cells = rng.choice(6 * (d - 1) * (d + 4), int(n), replace=False)
            t, rest = np.divmod(cells, (d - 1) * (d + 4))
            chunk.append(np.column_stack([t, *np.divmod(rest, d + 4)]))
        _assert_parities(DistanceModel(d), chunk)
        _assert_parities(DistanceModel(d, AnomalousRegion(1, 3, 3), 0.0),
                         chunk)

    def test_duplicated_coordinates_keep_the_dense_path(self):
        d = 9
        box = AnomalousRegion.centered(d, 4)
        chunk = _fig8_chunk(d, 0.025, 20, 7, box)
        chunk[3] = np.vstack([chunk[3], chunk[3][:1]])
        _assert_parities(DistanceModel(d), chunk)
        _assert_parities(DistanceModel(d, box, 0.0), chunk)

    def test_grid_groups_and_budget_overflow(self, monkeypatch):
        """Small budgets split the neighbour grid into shot groups, and a
        shot whose grid alone overflows it leaves the whole chunk to the
        dense path."""
        d = 9
        box = AnomalousRegion.centered(d, 4)
        chunk = _fig8_chunk(d, 0.025, 24, 9, box)
        # One shot's grid holds (9 + 2) * (7 + 2) * (8 + 2) = 990 cells.
        for budget in (3000, 5000, 256):
            monkeypatch.setattr(batched_mod, "BUCKET_ELEMENT_BUDGET", budget)
            _assert_parities(DistanceModel(d), chunk)
            _assert_parities(DistanceModel(d, box, 0.0), chunk)


class TestBucketLadder:
    """Survivor counts pad up the bucket ladder; pad slots never reach a
    candidate list, and the acceptance scatters' order invariant holds
    on every level the engine builds."""

    @staticmethod
    def _spread(n, d, shift):
        """``n`` nodes two or more apart and from both boundaries, so
        none of them settles at level 1: all ``n`` survive to a bucket."""
        k = np.arange(n)
        return np.column_stack([2 * k, 1 + (k + shift) % (d - 3),
                                (3 * k + shift) % d])

    def test_counts_on_both_sides_of_every_step(self):
        d, step = 9, batched_mod.BUCKET_STEP
        counts = [1, 1, 2] + [c for k in (1, 2, 3)
                              for c in (k * step - 1, k * step, k * step + 1)]
        nodes = [self._spread(n, d, s) for s, n in enumerate(counts)]
        box = AnomalousRegion(0, 0, 1, t_lo=0, t_hi=1)
        regions = [()] * len(nodes) + [(box,)] * len(nodes)
        nodes = nodes + nodes
        want = [greedy_cut_parity(DistanceModel(d, regs[0], 0.0)
                                  if regs else DistanceModel(d), x)
                for regs, x in zip(regions, nodes, strict=True)]
        got = batched_region_cut_parities(d, regions, nodes, 0.0)
        assert got.tolist() == want
        _assert_parities(DistanceModel(d), nodes)

    def test_ladder_pads_lattice_sampled_chunks(self, monkeypatch):
        d = 9
        box = AnomalousRegion.centered(d, 4)
        chunk = _fig8_chunk(d, 0.025, 60, 17, box)
        for step in (1, 3, 8, 64):
            monkeypatch.setattr(batched_mod, "BUCKET_STEP", step)
            _assert_parities(DistanceModel(d), chunk)
            _assert_parities(DistanceModel(d, box, 0.0), chunk)

    def test_acceptance_order_invariant(self, monkeypatch):
        """For every captured level: ``lo < hi``, each node's pairs as the
        higher endpoint all precede its pairs as the lower one, and a
        node has at most one boundary candidate."""
        captured = []
        accept = batched_mod._accept

        def spy(levels, matched, arena):
            captured.append([tuple(np.array(x) for x in lv)
                             for lv in levels])
            return accept(levels, matched, arena)

        monkeypatch.setattr(batched_mod, "_accept", spy)
        d = 9
        box = AnomalousRegion.centered(d, 4)
        for chunk in (_fig8_chunk(d, 0.02, 50, 3),
                      _fig8_chunk(d, 0.03, 50, 4, box)):
            batched_cut_parities(DistanceModel(d), chunk)
            batched_cut_parities(DistanceModel(d, box, 0.0), chunk)
            regions = [(AnomalousRegion(s % 5, s % 4, 3, t_lo=s % 7),)
                       for s in range(len(chunk))]
            batched_region_cut_parities(d, regions, chunk, 0.0)
        # Each engine call settles level 1, then accepts the dense levels.
        assert len(captured) == 12
        assert all(len(levels) == 1 for levels in captured[::2])
        assert sum(len(levels) for levels in captured[1::2]) > 6
        for levels in captured:
            for lo, hi, bnd, _ in levels:
                assert (lo < hi).all()
                n = int(max(hi.max(initial=0), bnd.max(initial=0))) + 1
                pos = np.arange(len(lo))
                last_hi = np.full(n, -1)
                np.maximum.at(last_hi, hi, pos)
                first_lo = np.full(n, len(lo))
                np.minimum.at(first_lo, lo, pos)
                assert (last_hi < first_lo).all()
                assert len(np.unique(bnd)) == len(bnd)


class TestBatchDistancePrimitives:
    """pairwise_batch / boundary_batch equal the per-shot primitives
    shot for shot, including weighted regions and per-shot box tops."""

    def test_batch_primitives_match_per_shot(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d = int(rng.integers(3, 13))
            S = int(rng.integers(1, 7))
            n = int(rng.integers(1, 14))
            model = _random_model(rng, d)
            stack = np.stack([_random_nodes(rng, d, n) for _ in range(S)])
            pb = model.pairwise_batch(stack)
            bb, sb = model.boundary_batch(stack)
            for s in range(S):
                assert np.array_equal(pb[s], model.pairwise(stack[s]))
                bd, sd = model.boundary(stack[s])
                assert np.array_equal(bb[s], bd)
                assert np.array_equal(sb[s], sd)

    def test_open_window_box_top_is_per_shot(self):
        """Shots with different t ranges clip the box independently."""
        model = DistanceModel(6, AnomalousRegion(1, 1, 3, t_lo=2), 0.5)
        stack = np.stack([
            np.array([[0, 3, 2], [0, 1, 4]]),    # t_max < t_lo
            np.array([[5, 3, 2], [4, 1, 4]]),    # window open
        ]).astype(float)
        pb = model.pairwise_batch(stack)
        bb, sb = model.boundary_batch(stack)
        for s in range(2):
            assert np.array_equal(pb[s], model.pairwise(stack[s]))
            bd, sd = model.boundary(stack[s])
            assert np.array_equal(bb[s], bd)
            assert np.array_equal(sb[s], sd)


class TestScratchArena:
    def test_buffers_reused_across_chunks(self):
        arena = ScratchArena()
        a = arena.take("x", 100, np.int8)
        b = arena.take("x", 64, np.int8)
        assert a.base is b.base  # same backing buffer, sliced
        c = arena.take("x", 1000, np.int8)
        assert c.base is not a.base  # grew
        assert arena.take("x", 500, np.int8).base is c.base

    def test_dtype_keys_are_distinct(self):
        arena = ScratchArena()
        a = arena.take("x", 10, np.int8)
        b = arena.take("x", 10, np.int16)
        assert a.dtype != b.dtype
        assert len(arena) == 2
        assert arena.nbytes >= 30

    def test_engine_reuses_arena_buffers(self):
        rng = np.random.default_rng(0)
        arena = ScratchArena()
        model = DistanceModel(9)
        nodes_list = [_random_nodes(rng, 9, 12) for _ in range(20)]
        batched_cut_parities(model, nodes_list, arena=arena)
        held = arena.nbytes
        batched_cut_parities(model, nodes_list, arena=arena)
        assert arena.nbytes == held  # steady state allocates nothing new


class TestBulkShotNodes:
    @pytest.mark.parametrize("shots", [1, 37, 64, 130])
    def test_bulk_equals_per_shot(self, shots):
        noise = PhenomenologicalNoise(
            5, 0.05, Scenario.from_region(AnomalousRegion.centered(5, 2)))
        lattice = SyndromeLattice(5)
        v, h, m = noise.sample_batch_packed(shots, 5,
                                            np.random.default_rng(2))
        coords, vals, bounds = lattice.detection_events_packed(v, h, m)
        nodes, offsets = lattice.shot_nodes_bulk(coords, vals, shots)
        assert offsets[0] == 0 and offsets[-1] == len(nodes)
        for s in range(shots):
            assert np.array_equal(
                nodes[offsets[s]:offsets[s + 1]],
                lattice.shot_nodes(coords, vals, bounds, s)), s

    def test_empty_stream(self):
        lattice = SyndromeLattice(3)
        coords = np.zeros((0, 4), dtype=np.int64)
        vals = np.zeros(0, dtype=np.uint64)
        nodes, offsets = lattice.shot_nodes_bulk(coords, vals, 5)
        assert nodes.shape == (0, 3)
        assert np.array_equal(offsets, np.zeros(6, dtype=np.int64))


class TestKernelDecodeModes:
    """Batched-decode kernels equal the per-shot reference bit for bit."""

    REGIONS = [None, AnomalousRegion(0, 0, 2, t_lo=1, t_hi=3),
               AnomalousRegion(1, 1, 2, t_lo=2)]

    @pytest.mark.parametrize("shots", [37, 130])
    def test_memory_kernel_modes(self, shots):
        for region in self.REGIONS:
            for informed in (False, True):
                kernel = MemoryShotKernel(5, 0.04,
                                          Scenario.from_region(region),
                                          informed=informed)
                ref = reference_chunk(kernel, shots,
                                      np.random.default_rng(7))
                got = kernel.run_batch_packed(shots,
                                              np.random.default_rng(7))
                assert np.array_equal(ref, got), (shots, region, informed)

    def test_memory_kernel_float_path_matches(self):
        kernel = MemoryShotKernel(
            5, 0.04, Scenario.from_region(AnomalousRegion.centered(5, 2)),
            informed=True)
        a = reference_chunk(kernel, 70, np.random.default_rng(3))
        b = kernel.run_batch_packed(70, np.random.default_rng(3))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("distance", [3, 5])
    def test_endtoend_kernel_modes(self, distance):
        kernel = EndToEndShotKernel(
            distance, 0.01,
            Scenario(events=(StrikeEvent(onset=30, size=2),)),
            cycles=70, c_win=25, n_th=3, alpha=0.01)
        ref = reference_chunk(kernel, 37, np.random.default_rng(3))
        got = kernel.run_batch_packed(37, np.random.default_rng(3))
        assert np.array_equal(ref, got)

    def test_runner_campaign_bit_equal_across_modes(self,
                                                    run_with_outcomes):
        spec = campaigns.MemorySpec(
            distance=7, p=2.5e-2, samples=200, region="centered",
            anomaly_size=3, informed=True, seed=19, batch_size=48)
        _, got = run_with_outcomes(spec, campaigns.InlineExecutor())
        kernel = MemoryShotKernel(
            7, 2.5e-2, Scenario.from_region(AnomalousRegion.centered(7, 3)),
            informed=True)
        ref = [reference_chunk(kernel, size, np.random.default_rng(child))
               for size, child in chunk_plan(200, 48, 19)]
        assert np.array_equal(got, np.concatenate(ref))
