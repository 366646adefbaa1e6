"""Result store + incremental refinement: the serving-layer contracts.

Two invariants under test (docs/CONTRACTS.md):

* a refined campaign — a spec's shard seeded from a sibling's, then run
  to completion — is bit-identical to an uninterrupted single run of
  the larger request, per ``(seed, batch_size)``;
* the content-addressed result store never *errors* on damaged state:
  any malformation is a cache miss, i.e. a recompute.
"""

import dataclasses
import json

import numpy as np

from repro import campaigns
from repro.campaigns.checkpoint import CheckpointStore
from repro.campaigns.refine import (find_refinement_base, seed_refinement,
                                    shots_field)
from repro.campaigns.store import ResultStore


def _memory_spec(**overrides):
    kwargs = dict(distance=5, p=2e-2, samples=96, seed=17, batch_size=16)
    kwargs.update(overrides)
    return campaigns.MemorySpec(**kwargs)


def _assert_outcome_equal(refined, fresh):
    """Bit-equality on every estimate and count."""
    for key, value in fresh.estimates.items():
        np.testing.assert_equal(refined.estimates[key], value)
    assert refined.counts == fresh.counts


class TestShotFields:
    def test_refinable_kinds(self):
        assert shots_field(_memory_spec()) == "samples"
        assert shots_field(campaigns.EndToEndSpec(
            distance=5, p=1e-2, shots=8, onset=30, cycles=60, c_win=20,
            n_th=4, seed=29)) == "shots"
        assert shots_field(campaigns.DetectionSpec(
            distance=5, p=1e-3, p_ano=0.05, anomaly_size=2, c_win=40,
            trials=6)) == "trials"

    def test_unrefinable_kinds(self):
        assert shots_field(campaigns.ThroughputSpec(
            num_instructions=10, strike_prob_per_slot=1e-4,
            strike_duration_slots=5)) is None


class TestRefinementBitEquality:
    def test_memory_grow(self, tmp_path):
        small, big = _memory_spec(samples=64), _memory_spec(samples=128)
        campaigns.run(small, checkpoint=tmp_path)
        fresh = campaigns.run(big)
        refined = campaigns.run(big, checkpoint=tmp_path, refine=True)
        assert refined.provenance.resumed_chunks == 4  # 64 / 16
        _assert_outcome_equal(refined, fresh)

    def test_detection_grow(self, tmp_path):
        base = dict(distance=5, p=5e-3, p_ano=0.4, anomaly_size=2,
                    c_win=30, n_th=2, seed=23, batch_size=3)
        campaigns.run(campaigns.DetectionSpec(trials=9, **base),
                      checkpoint=tmp_path)
        big = campaigns.DetectionSpec(trials=15, **base)
        fresh = campaigns.run(big)
        refined = campaigns.run(big, checkpoint=tmp_path, refine=True)
        assert refined.provenance.resumed_chunks == 3
        _assert_outcome_equal(refined, fresh)

    def test_endtoend_grow(self, tmp_path):
        base = dict(distance=5, p=1e-2, onset=30, cycles=60, c_win=20,
                    n_th=4, seed=29, batch_size=4)
        campaigns.run(campaigns.EndToEndSpec(shots=8, **base),
                      checkpoint=tmp_path)
        big = campaigns.EndToEndSpec(shots=16, **base)
        fresh = campaigns.run(big)
        refined = campaigns.run(big, checkpoint=tmp_path, refine=True)
        assert refined.provenance.resumed_chunks == 2
        _assert_outcome_equal(refined, fresh)

    def test_shrink_request_uses_prefix(self, tmp_path):
        # Refinement also serves the *smaller* request: every chunk of
        # the small plan is a full-size chunk of the big shard.
        campaigns.run(_memory_spec(samples=128), checkpoint=tmp_path)
        small = _memory_spec(samples=64)
        fresh = campaigns.run(small)
        refined = campaigns.run(small, checkpoint=tmp_path, refine=True)
        assert refined.provenance.resumed_chunks == 4
        _assert_outcome_equal(refined, fresh)

    def test_partial_tail_chunk_is_recomputed(self, tmp_path):
        # 72 = 4 full chunks of 16 + one ragged chunk of 8: the ragged
        # record does not match the bigger plan's chunk size, so only
        # the full chunks seed and the tail is recomputed.
        campaigns.run(_memory_spec(samples=72), checkpoint=tmp_path)
        big = _memory_spec(samples=128)
        fresh = campaigns.run(big)
        refined = campaigns.run(big, checkpoint=tmp_path, refine=True)
        assert refined.provenance.resumed_chunks == 4
        _assert_outcome_equal(refined, fresh)

    def test_unpinned_spec_adopts_recorded_batch(self, tmp_path):
        campaigns.run(_memory_spec(samples=64), checkpoint=tmp_path)
        big = _memory_spec(samples=128, batch_size=None)
        refined = campaigns.run(big, checkpoint=tmp_path, refine=True)
        assert refined.provenance.resumed_chunks == 4
        # Bit-equality holds per (seed, batch_size): compare against a
        # fresh run pinned at the recorded size.
        _assert_outcome_equal(refined,
                              campaigns.run(_memory_spec(samples=128)))


class TestRefinementDegradesToFreshRun:
    def test_no_sibling_is_a_noop(self, tmp_path):
        spec = _memory_spec()
        assert seed_refinement(CheckpointStore(tmp_path), spec) == 0
        fresh = campaigns.run(spec)
        refined = campaigns.run(spec, checkpoint=tmp_path, refine=True)
        assert refined.provenance.resumed_chunks == 0
        _assert_outcome_equal(refined, fresh)

    def test_existing_target_shard_wins(self, tmp_path):
        # Plain resume owns a shard that already exists: seeding must
        # not clobber it.
        store = CheckpointStore(tmp_path)
        campaigns.run(_memory_spec(samples=64), checkpoint=tmp_path)
        big = _memory_spec(samples=128)
        assert seed_refinement(store, big) == 4
        before = store.shard(big).path.read_text()
        assert seed_refinement(store, big) == 0
        assert store.shard(big).path.read_text() == before

    def test_pinned_batch_mismatch_skips(self, tmp_path):
        campaigns.run(_memory_spec(samples=64, batch_size=16),
                      checkpoint=tmp_path)
        big = _memory_spec(samples=128, batch_size=32)
        assert find_refinement_base(CheckpointStore(tmp_path), big) is None
        assert seed_refinement(CheckpointStore(tmp_path), big) == 0

    def test_different_campaign_is_not_a_sibling(self, tmp_path):
        campaigns.run(_memory_spec(samples=64, p=1e-2),
                      checkpoint=tmp_path)
        big = _memory_spec(samples=128)  # p differs
        assert find_refinement_base(CheckpointStore(tmp_path), big) is None

    def test_corrupt_sibling_is_skipped(self, tmp_path):
        small = _memory_spec(samples=64)
        campaigns.run(small, checkpoint=tmp_path)
        path = CheckpointStore(tmp_path).shard(small).path
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["crc"] ^= 1
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        big = _memory_spec(samples=128)
        assert seed_refinement(CheckpointStore(tmp_path), big) == 0
        fresh = campaigns.run(big)
        refined = campaigns.run(big, checkpoint=tmp_path, refine=True)
        _assert_outcome_equal(refined, fresh)

    def test_prefers_largest_aligned_sibling(self, tmp_path):
        store = CheckpointStore(tmp_path)
        campaigns.run(_memory_spec(samples=32), checkpoint=tmp_path)
        campaigns.run(_memory_spec(samples=80), checkpoint=tmp_path)
        big = _memory_spec(samples=128)
        base = find_refinement_base(store, big)
        assert base is not None
        assert dataclasses.asdict(base.spec)["samples"] == 80
        assert seed_refinement(store, big) == 5  # 80 / 16


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        spec = _memory_spec(samples=32)
        result = campaigns.run(spec)
        store = ResultStore(tmp_path)
        record = store.put(spec, result)
        assert store.get(spec) == record
        assert store.get_hash(campaigns.spec_hash(spec)) == record
        assert record["result"] == result.to_dict()
        assert not list(tmp_path.glob(".*tmp*"))  # no leftover temp files

    def test_miss_on_unknown(self, tmp_path):
        assert ResultStore(tmp_path).get(_memory_spec()) is None

    def test_version_mismatch_is_a_miss(self, tmp_path):
        spec = _memory_spec(samples=32)
        ResultStore(tmp_path, version="1.0").put(spec, campaigns.run(spec))
        assert ResultStore(tmp_path, version="1.0").get(spec) is not None
        assert ResultStore(tmp_path, version="2.0").get(spec) is None

    def test_corruption_is_a_miss_not_a_crash(self, tmp_path):
        spec = _memory_spec(samples=32)
        store = ResultStore(tmp_path)
        store.put(spec, campaigns.run(spec))
        path = store.path(campaigns.spec_hash(spec))

        path.write_text("{ not json")
        assert store.get(spec) is None

        record = store.put(spec, campaigns.run(spec))
        record["result"]["counts"]["samples"] += 1  # flip a bit, keep crc
        path.write_text(json.dumps(record))
        assert store.get(spec) is None  # CRC catches it

        path.write_text(json.dumps({"type": "banana"}))
        assert store.get(spec) is None
