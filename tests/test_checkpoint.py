"""Chunk-granular checkpoint/resume: bit-equality and shard rejection."""

import json

import numpy as np
import pytest

from repro import campaigns
from repro.campaigns.checkpoint import CheckpointError, CheckpointStore


def _memory_spec(**overrides):
    kwargs = dict(distance=5, p=2e-2, samples=96, seed=17, batch_size=16)
    kwargs.update(overrides)
    return campaigns.MemorySpec(**kwargs)


def _shard_path(tmp_path, spec):
    return tmp_path / f"{campaigns.spec_hash(spec)}.jsonl"


class StopAfter(campaigns.InlineExecutor):
    """An executor that dies after ``limit`` chunks (kill simulation)."""

    def __init__(self, limit: int, whole_request: bool = True):
        super().__init__(whole_request=whole_request)
        self.limit = limit

    def run_chunks(self, kernel, packing, tasks):
        stream = super().run_chunks(kernel, packing, tasks)
        for count, item in enumerate(stream):
            if count >= self.limit:
                raise KeyboardInterrupt("campaign killed mid-sweep")
            yield item


class TestResumeBitEquality:
    def test_checkpointed_equals_straight(self, tmp_path):
        spec = _memory_spec()
        straight = campaigns.run(spec)
        checked = campaigns.run(spec, checkpoint=tmp_path)
        assert checked.counts == straight.counts
        assert checked.estimates == straight.estimates

    def test_kill_mid_sweep_then_resume_is_bit_identical(self, tmp_path):
        spec = _memory_spec()  # 96 shots / 16 per chunk = 6 chunks
        straight = campaigns.run(spec)
        with pytest.raises(KeyboardInterrupt):
            campaigns.run(spec, executor=StopAfter(2),
                          checkpoint=tmp_path)
        # Two chunks survived the kill ...
        shard = CheckpointStore(tmp_path).shard(spec)
        assert sorted(shard.load()) == [0, 1]
        # ... and the resumed campaign completes bit-identically.
        resumed = campaigns.run(spec, checkpoint=tmp_path)
        assert resumed.provenance.resumed_chunks == 2
        assert resumed.provenance.chunks == 6
        assert resumed.counts["failures"] == straight.counts["failures"]
        assert resumed.estimates == straight.estimates

    def test_resume_float_outcomes_with_nan(self, tmp_path):
        # Detection outcomes are float64 with NaN position errors on
        # misses: the harshest round-trip for the JSONL shard.
        spec = campaigns.DetectionSpec(distance=5, p=5e-3, p_ano=0.4,
                                       anomaly_size=2, c_win=30, n_th=2,
                                       trials=9, seed=23, batch_size=3)
        straight = campaigns.run(spec)
        with pytest.raises(KeyboardInterrupt):
            campaigns.run(spec, executor=StopAfter(1),
                          checkpoint=tmp_path)
        resumed = campaigns.run(spec, checkpoint=tmp_path)
        assert resumed.counts == straight.counts
        for key, value in straight.estimates.items():
            np.testing.assert_equal(resumed.estimates[key], value)

    def test_resume_endtoend_outcomes(self, tmp_path):
        spec = campaigns.EndToEndSpec(distance=5, p=1e-2, shots=12,
                                      onset=30, cycles=60, c_win=20,
                                      n_th=4, seed=29, batch_size=4)
        straight = campaigns.run(spec)
        with pytest.raises(KeyboardInterrupt):
            campaigns.run(spec, executor=StopAfter(1),
                          checkpoint=tmp_path)
        resumed = campaigns.run(spec, checkpoint=tmp_path)
        assert resumed.counts == straight.counts

    def test_fully_restored_campaign_computes_nothing(self, tmp_path):
        spec = _memory_spec()
        campaigns.run(spec, checkpoint=tmp_path)

        class Exploding(campaigns.Executor):
            def run_chunks(self, kernel, packing, tasks):
                raise AssertionError("no chunk should need computing")
                yield  # pragma: no cover

        restored = campaigns.run(spec, executor=Exploding(),
                                 checkpoint=tmp_path)
        assert restored.provenance.resumed_chunks == 6
        assert restored.counts == campaigns.run(spec).counts

    def test_early_stop_parity_across_resume(self, tmp_path):
        spec = _memory_spec(samples=5000, batch_size=128,
                            target_rel_width=0.5, seed=3)
        straight = campaigns.run(spec)
        assert straight.counts["samples"] < 5000  # it stops early
        try:
            campaigns.run(spec, executor=StopAfter(1),
                          checkpoint=tmp_path)
        except KeyboardInterrupt:
            pass  # killed before the stopping chunk
        resumed = campaigns.run(spec, checkpoint=tmp_path)
        # Resumed run ingests restored chunks through the same early-stop
        # predicate: same stopping chunk, same counts.
        assert resumed.counts == straight.counts
        assert resumed.estimates == straight.estimates

    def test_resume_ignores_old_cache_counters(self, tmp_path):
        # Older releases wrote each chunk record with a
        # "cache": [hits, misses, evictions] field before its CRC.
        spec = _memory_spec()
        straight = campaigns.run(spec)
        with pytest.raises(KeyboardInterrupt):
            campaigns.run(spec, executor=StopAfter(2),
                          checkpoint=tmp_path)
        path = _shard_path(tmp_path, spec)
        header, *chunks = path.read_text(encoding="utf-8").splitlines()
        old = []
        for line in chunks:
            record = json.loads(line)
            crc = record.pop("crc")
            old.append(json.dumps({**record, "cache": [3, 5, 0],
                                   "crc": crc}))
        path.write_text("\n".join([header, *old]) + "\n",
                        encoding="utf-8")
        resumed = campaigns.run(spec, checkpoint=tmp_path)
        assert resumed.provenance.resumed_chunks == 2
        assert resumed.counts == straight.counts
        assert resumed.estimates == straight.estimates

    def test_pool_executor_shares_the_shard(self, tmp_path):
        spec = _memory_spec(samples=64, batch_size=8)
        straight = campaigns.run(spec)
        with pytest.raises(KeyboardInterrupt):
            campaigns.run(spec, executor=StopAfter(3),
                          checkpoint=tmp_path)
        resumed = campaigns.run(
            spec, executor=campaigns.ProcessPoolExecutor(2),
            checkpoint=tmp_path)
        assert resumed.provenance.resumed_chunks == 3
        assert resumed.counts["failures"] == straight.counts["failures"]


class TestDurability:
    def test_fsync_knob_gates_the_fsync(self, tmp_path, monkeypatch):
        from repro import config
        from repro.campaigns import checkpoint as cp

        calls = []
        real_fsync = cp.os.fsync
        monkeypatch.setattr(cp.os, "fsync",
                            lambda fd: (calls.append(fd), real_fsync(fd)))
        spec = _memory_spec()
        monkeypatch.setenv(config.ENV_CHECKPOINT_FSYNC, "1")
        campaigns.run(spec, checkpoint=tmp_path / "durable")
        assert len(calls) == 6  # one fsync per appended chunk record

        calls.clear()
        monkeypatch.setenv(config.ENV_CHECKPOINT_FSYNC, "0")
        fast = campaigns.run(spec, checkpoint=tmp_path / "fast")
        assert calls == []  # flushed but never fsynced
        # ... and the knob changes durability only, not the records:
        resumed = campaigns.run(spec, checkpoint=tmp_path / "fast")
        assert resumed.provenance.resumed_chunks == 6
        assert resumed.counts == fast.counts

    def test_torn_header_recomputes_from_scratch(self, tmp_path):
        # Beyond the truncated-*final*-line case: a writer killed while
        # laying down the very first (header) line leaves a shard whose
        # only line is torn.  That must read as "no finished chunks",
        # recompute everything, and self-heal on the next append.
        spec = _memory_spec()
        straight = campaigns.run(spec)
        campaigns.run(spec, checkpoint=tmp_path)
        path = _shard_path(tmp_path, spec)
        header = path.read_text().splitlines()[0]
        path.write_text(header[:25])  # torn header, no newline
        resumed = campaigns.run(spec, checkpoint=tmp_path)
        assert resumed.provenance.resumed_chunks == 0
        assert resumed.counts["failures"] == straight.counts["failures"]
        healed = campaigns.run(spec, checkpoint=tmp_path)
        assert healed.provenance.resumed_chunks == 6


class TestShardRejection:
    def test_truncated_final_line_recomputes(self, tmp_path):
        spec = _memory_spec()
        straight = campaigns.run(spec)
        campaigns.run(spec, checkpoint=tmp_path)
        path = _shard_path(tmp_path, spec)
        lines = path.read_text().splitlines()
        # Simulate a kill mid-write: chop the last record in half.
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:20])
        resumed = campaigns.run(spec, checkpoint=tmp_path)
        assert resumed.provenance.resumed_chunks == 5
        assert resumed.counts["failures"] == straight.counts["failures"]

    def test_repeated_kills_mid_write_never_brick_the_shard(self, tmp_path):
        # A kill mid-write leaves a partial line with no newline; the
        # next append must truncate it rather than weld the new record
        # onto the garbage (which would move the damage mid-file and
        # make every later load() raise).
        spec = _memory_spec()
        straight = campaigns.run(spec)
        path = _shard_path(tmp_path, spec)
        for _ in range(3):  # kill, resume, kill, resume, ...
            try:
                campaigns.run(spec, executor=StopAfter(1),
                              checkpoint=tmp_path)
            except KeyboardInterrupt:
                pass
            text = path.read_text()
            path.write_text(text.rstrip("\n")[:-15])  # chop mid-record
        resumed = campaigns.run(spec, checkpoint=tmp_path)
        assert resumed.counts["failures"] == straight.counts["failures"]
        # The healed shard is fully well-formed again.
        final = campaigns.run(spec, checkpoint=tmp_path)
        assert final.provenance.resumed_chunks == 6

    def test_resume_adopts_recorded_batch_size(self, tmp_path):
        # batch_size=None resolves per executor (whole request = 150,
        # kernel fan-out default = 64).  A resume under a *different*
        # executor must adopt the shard's recorded plan and finish
        # bit-identically instead of rejecting the shard.
        spec = campaigns.EndToEndSpec(distance=5, p=1e-2, shots=150,
                                      onset=30, cycles=60, c_win=20,
                                      n_th=4, seed=31)  # batch_size=None
        chunked = campaigns.InlineExecutor(whole_request=False)
        straight = campaigns.run(spec, executor=chunked)
        assert straight.provenance.batch_size == 64  # [64, 64, 22] plan
        with pytest.raises(KeyboardInterrupt):
            campaigns.run(spec,
                          executor=StopAfter(1, whole_request=False),
                          checkpoint=tmp_path)
        # Resume under the whole-request executor (would resolve 150).
        resumed = campaigns.run(spec,
                                executor=campaigns.InlineExecutor(),
                                checkpoint=tmp_path)
        assert resumed.provenance.batch_size == 64  # adopted, not 150
        assert resumed.provenance.resumed_chunks == 1
        assert resumed.counts == straight.counts

    def test_garbage_mid_file_rejected(self, tmp_path):
        spec = _memory_spec()
        campaigns.run(spec, checkpoint=tmp_path)
        path = _shard_path(tmp_path, spec)
        lines = path.read_text().splitlines()
        lines[2] = "{corrupted"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            campaigns.run(spec, checkpoint=tmp_path)

    def test_crc_mismatch_rejected(self, tmp_path):
        spec = _memory_spec()
        campaigns.run(spec, checkpoint=tmp_path)
        path = _shard_path(tmp_path, spec)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["data"][0] ^= 1  # silent bit flip in the payload
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="CRC"):
            campaigns.run(spec, checkpoint=tmp_path)

    def test_foreign_spec_shard_rejected(self, tmp_path):
        spec = _memory_spec()
        other = _memory_spec(seed=18)
        campaigns.run(other, checkpoint=tmp_path)
        # An operator mistake: renaming another spec's shard onto ours.
        _shard_path(tmp_path, other).rename(_shard_path(tmp_path, spec))
        with pytest.raises(CheckpointError, match="belongs to spec"):
            campaigns.run(spec, checkpoint=tmp_path)

    def test_duplicate_chunk_rejected(self, tmp_path):
        spec = _memory_spec()
        campaigns.run(spec, checkpoint=tmp_path)
        path = _shard_path(tmp_path, spec)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[1]]) + "\n")
        with pytest.raises(CheckpointError, match="duplicate"):
            campaigns.run(spec, checkpoint=tmp_path)

    def test_stale_plan_rejected(self, tmp_path):
        # A shard recorded under one plan must not feed a different one:
        # same file, hand-edited chunk sizes.
        spec = _memory_spec()
        campaigns.run(spec, checkpoint=tmp_path)
        path = _shard_path(tmp_path, spec)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["index"] = 99
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="plan"):
            campaigns.run(spec, checkpoint=tmp_path)

    def test_wrong_chunk_size_rejected(self, tmp_path):
        spec = _memory_spec()
        campaigns.run(spec, checkpoint=tmp_path)
        path = _shard_path(tmp_path, spec)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["data"] = record["data"][:-1]
        record["shape"] = [len(record["data"])]
        from repro.campaigns.checkpoint import _payload_crc
        record["crc"] = _payload_crc(record["dtype"], record["shape"],
                                     record["data"])
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="expects"):
            campaigns.run(spec, checkpoint=tmp_path)

    def test_recorded_batch_size_conflicting_with_pinned_rejected(
            self, tmp_path):
        # The spec pins batch_size=16; a shard whose (CRC-less) header
        # claims another chunk size must be rejected, never adopted.
        spec = _memory_spec()
        campaigns.run(spec, checkpoint=tmp_path)
        path = _shard_path(tmp_path, spec)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["batch_size"] = 32
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="pins"):
            campaigns.run(spec, checkpoint=tmp_path)

    def test_header_records_the_spec(self, tmp_path):
        spec = _memory_spec()
        campaigns.run(spec, checkpoint=tmp_path)
        header = json.loads(
            _shard_path(tmp_path, spec).read_text().splitlines()[0])
        assert header["type"] == "header"
        assert header["spec_hash"] == campaigns.spec_hash(spec)
        assert campaigns.spec_from_dict(header["spec"]) == spec

    def test_store_accepts_path_or_instance(self, tmp_path):
        spec = _memory_spec(samples=16)
        a = campaigns.run(spec, checkpoint=str(tmp_path / "a"))
        b = campaigns.run(spec, checkpoint=CheckpointStore(tmp_path / "b"))
        assert a.counts == b.counts
        assert (tmp_path / "a").exists() and (tmp_path / "b").exists()
